"""A cold CLI process with the tracer installed; the traced twin of

    python3 -m segre_pg72 ARGS...

Usage: ``traced_cli.py SPANS_OUT ARGS...``.  Prints what the CLI prints,
exits with its exit code and writes the process's spans to SPANS_OUT.
"""

import sys

from spans import Tracer
from workloads import import_package


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    pkg = import_package()
    tracer = Tracer(pkg)
    try:
        with tracer:
            return pkg.cli.main(argv)
    finally:
        tracer.write_child(spans_out)


if __name__ == "__main__":
    sys.exit(main())
