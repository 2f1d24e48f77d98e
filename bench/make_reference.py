"""Regenerate the reference outputs the cold CLI workload is checked against.

    python3 bench/make_reference.py

Run it from the repository root only when a change to the program's output
is intended: every later run of the benchmark compares byte for byte with
what this script writes.  Documents come from real CLI processes; the eval
and group-order tables come from the CLI entry point in-process, which
prints the same bytes much faster than 6000 processes would.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys

from oracle import REFERENCE_DIR, format_point
from workloads import CLI_DOCUMENTS, ROOT, SRC, cli_env

sys.path.insert(0, str(SRC))

from segre_pg72 import cli  # noqa: E402
from segre_pg72.anf import named_P_basis, named_Q  # noqa: E402
from segre_pg72.groups import named_elements  # noqa: E402


def _cli_stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    if status != 0:
        raise SystemExit(f"{argv} exited with {status}")
    return buf.getvalue()


def main() -> int:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for filename, argv in CLI_DOCUMENTS.items():
        out = subprocess.run(
            [sys.executable, "-m", "segre_pg72", *argv],
            capture_output=True, env=cli_env(), cwd=ROOT, timeout=120, check=True,
        ).stdout
        (REFERENCE_DIR / filename).write_bytes(out)

    polys = list(named_P_basis()) + list(named_Q())
    tables = {
        name: "".join(_cli_stdout(["eval", name, format_point(v)]).strip() for v in range(1, 256))
        for name in polys
    }
    names = list(named_elements())
    orders = {
        ",".join(combo): int(_cli_stdout(["group", "order", "--gens", ",".join(combo)]))
        for k in (1, 2, 3)
        for combo in itertools.combinations(names, k)
    }
    for filename, payload in (("eval_values.json", tables), ("group_orders.json", orders)):
        (REFERENCE_DIR / filename).write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
