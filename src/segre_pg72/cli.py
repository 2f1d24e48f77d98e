"""Command-line frontend: verification suites, evaluation, and exports.

Exit codes are a stable contract: 0 all checks pass, 1 any check fails (or
an output path cannot be written), 2 usage errors.  The checks themselves
are defined in ``checks``.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from . import SUITES, __version__

if TYPE_CHECKING:
    from .checks import Result, Run

# Each command imports the modules it runs inside the function that runs it,
# so a cold process compiles only those (``verify`` alone loads ``checks``;
# ``eval`` and ``export polys`` alone load ``anf``).  A name imported at call
# time is read from its module then, so wrappers set on the module's
# attributes (bench/spans.py) see the call.


# ---------------------------------------------------------------------------
# Suites.


def suite_groups(run: Run) -> list[Result]:
    return run.suite("groups")


def suite_spread(run: Run) -> list[Result]:
    return run.suite("spread")


def suite_orbits(run: Run) -> list[Result]:
    return run.suite("orbits")


def suite_table1(run: Run) -> list[Result]:
    return run.suite("table1")


def suite_polys(run: Run) -> list[Result]:
    return run.suite("polys")


def run_suite(name: str, seed: int, cap: int) -> list[Result]:
    """Results of one suite, or of every suite in report order for "all"."""
    from .checks import Run

    run = Run(seed, cap)
    names = SUITES if name == "all" else (name,)
    # looked up by name so that wrappers set on this module (bench/spans.py) are called
    return [r for part in names for r in globals()[f"suite_{part}"](run)]


# ---------------------------------------------------------------------------
# Reports.


def report_payload(suite: str, seed: int, checks: list[Result]) -> dict:
    failed = sum(1 for c in checks if not c.passed)
    return {
        "suite": suite,
        "metadata": {"version": __version__, "seed": seed},
        "summary": {"total": len(checks), "passed": len(checks) - failed, "failed": failed},
        "checks": [
            {
                "id": c.id,
                "description": c.description,
                "expected": c.expected,
                "actual": c.actual,
                "pass": c.passed,
            }
            for c in checks
        ],
    }


def report_text(suite: str, seed: int, checks: list[Result]) -> str:
    lines = []
    for c in checks:
        if c.passed:
            lines.append(f"PASS {c.id}: {c.description}")
        else:
            lines.append(
                f"FAIL {c.id}: {c.description} (expected {c.expected}, got {c.actual})"
            )
    failed = sum(1 for c in checks if not c.passed)
    lines.append(
        f"suite {suite}: {len(checks) - failed}/{len(checks)} checks passed"
    )
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> int:
    if out_path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return 1
    return 0


def _to_json(payload) -> str:
    import json

    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Exports.  Each returns its JSON payload and its CSV rows, header first.


def _dict_rows(rows: list[dict]) -> list[tuple]:
    return [tuple(rows[0]), *(tuple(r.values()) for r in rows)]


def export_orbits() -> tuple[list[dict], list[tuple]]:
    from .gf2 import format_point, weight
    from .orbits import classify_point, cube_orbit_labels

    labels = cube_orbit_labels()
    rows = [
        {
            "point": format_point(v),
            "GS_orbit": classify_point(v),
            "GB_orbit": labels[v],
            "weight": weight(v),
        }
        for v in range(1, 256)
    ]
    return rows, _dict_rows(rows)


def export_spread() -> tuple[dict, list[tuple]]:
    from .gf2 import format_point
    from .orbits import spread_from_w

    lines = [[format_point(p) for p in sorted(line)] for line in spread_from_w().lines]
    rows = [("index", "p1", "p2", "p3"), *((i, *line) for i, line in enumerate(lines))]
    return {"lines": lines}, rows


def export_polys() -> tuple[list[dict], list[tuple]]:
    from .anf import named_P_basis, named_Q

    rows = [
        {
            "name": name,
            "degree": poly.degree,
            "terms": poly.coeffs.bit_count(),
            "mask": poly.to_hex(),
        }
        for name, poly in {**named_P_basis(), **named_Q()}.items()
    ]
    return rows, _dict_rows(rows)


def export_model() -> tuple[dict, list[tuple]]:
    from .gf2 import format_point
    from .segre import build_model

    model = build_model()
    fmt = format_point
    fmt_line = lambda pts: sorted(fmt(p) for p in pts)
    payload = {
        "points": [fmt(p) for p in model.points],
        "generators": {
            f"{i},{j},{r}": fmt_line(line)
            for (i, j, r), line in sorted(model.generators.items())
        },
        "sub_segres": {
            f"{i},{r}": fmt_line(grid) for (i, r), grid in sorted(model.sub_segres.items())
        },
        "ambient_flats": {
            f"{i},{r}": [fmt(b) for b in flat.basis]
            for (i, r), flat in sorted(model.ambient_flats.items())
        },
        "z_flats": {
            f"{i},{j},{k}": [fmt(b) for b in flat.basis]
            for (i, j, k), flat in sorted(model.z_flats.items())
        },
        "tangents": {fmt(p): fmt_line(line) for p, line in sorted(model.tangents.items())},
    }
    rows = [("family", "label", "points"), ("points", "all", " ".join(payload["points"]))]
    for family in ("generators", "sub_segres", "ambient_flats", "z_flats", "tangents"):
        for label, pts in payload[family].items():
            rows.append((family, label, " ".join(pts)))
    return payload, rows


EXPORTS = {
    "orbits": export_orbits, "spread": export_spread, "polys": export_polys, "model": export_model,
}


def export_text(what: str, fmt: str) -> str:
    payload, rows = EXPORTS[what]()
    if fmt != "csv":
        return _to_json(payload)
    import csv
    import io

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def orbits_document(group_name: str) -> list[dict]:
    from .gf2 import format_point, weight
    from .groups import cube_group, segre_group, segre_group_even
    from .orbits import classify_point, cube_orbit_labels, point_orbits, segre_triplet

    # build only the group and the labels its classes print
    if group_name == "GS":
        group, label_for = segre_group, lambda cls: classify_point(cls.rep)
    elif group_name == "GB":
        labels = cube_orbit_labels()
        group, label_for = cube_group, lambda cls: labels[cls.rep]
    else:
        names = dict(zip(segre_triplet(), ("S", "S'", "S''")))
        group = segre_group_even
        label_for = lambda cls: names.get(frozenset(cls.points)) or classify_point(cls.rep)
    partition = point_orbits(group())

    doc = []
    for cls in partition.classes:
        histogram: dict[str, int] = {}
        for p in cls.points:
            key = str(weight(p))
            histogram[key] = histogram.get(key, 0) + 1
        doc.append(
            {
                "label": label_for(cls),
                "size": cls.size,
                "weights": histogram,
                "representative": format_point(cls.rep),
            }
        )
    return doc


# ---------------------------------------------------------------------------
# Entry point.

def _int_at_least(text: str, least: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    # random.Random seeds with the absolute value, so -n would replay n
    return _int_at_least(text, 0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segre-pg72",
        description="Verify and export the geometry of the 27-point Segre variety in PG(7,2).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "suite", choices=("all",) + SUITES, help="which suite to run"
    )
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", default=None, help="write the report to a file")
    p_verify.add_argument("--seed", type=_non_negative_int, default=0, help="seed for randomized property checks")
    # default None: the closure's own default cap, read when verify runs
    p_verify.add_argument("--cap", type=_positive_int, default=None, help="closure size guard")

    p_eval = sub.add_parser("eval", help="evaluate a named polynomial at a point")
    p_eval.add_argument("poly", help="polynomial name (Q2, P4', Q2+Q4, ...) or 64-hex mask")
    p_eval.add_argument("point", help="point in shorthand, e.g. 18u")

    p_export = sub.add_parser("export", help="export tables deterministically")
    p_export.add_argument("what", choices=EXPORTS)
    p_export.add_argument("--format", choices=("json", "csv"), default="json")
    p_export.add_argument("--out", default=None)

    p_orbits = sub.add_parser("orbits", help="print the orbit classes of a group")
    p_orbits.add_argument("--group", choices=("GS", "GS0", "GB"), default="GS")
    p_orbits.add_argument("--format", choices=("json", "text"), default="json")
    p_orbits.add_argument("--out", default=None)

    p_group = sub.add_parser("group", help="group computations from named generators")
    p_group.add_argument("action", choices=("order",))
    p_group.add_argument("--gens", required=True, help="comma-separated names, e.g. M,N,K")
    return parser


def _usage_error(exc: Exception) -> int:
    # str() of a KeyError quotes its message; print the message itself
    print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "verify":
        from .groups import DEFAULT_CAP

        cap = DEFAULT_CAP if args.cap is None else args.cap
        checks = run_suite(args.suite, args.seed, cap)
        if args.format == "json":
            text = _to_json(report_payload(args.suite, args.seed, checks))
        else:
            text = report_text(args.suite, args.seed, checks)
        status = _emit(text, args.out)
        if status:
            return status
        return 0 if all(c.passed for c in checks) else 1

    if args.command == "eval":
        from .anf import Anf, resolve_poly_name
        from .gf2 import parse_point

        try:
            if len(args.poly) == 64 and all(c in "0123456789abcdefABCDEF" for c in args.poly):
                poly = Anf.from_hex(args.poly.lower())
            else:
                poly = resolve_poly_name(args.poly)
            point = parse_point(args.point)
        except (KeyError, ValueError) as exc:
            return _usage_error(exc)
        print(poly.evaluate(point))
        return 0

    if args.command == "export":
        return _emit(export_text(args.what, args.format), args.out)

    if args.command == "orbits":
        doc = orbits_document(args.group)
        if args.format == "text":
            lines = [
                f"{row['label']:>6}  size {row['size']:>3}  rep {row['representative']}"
                for row in doc
            ]
            text = "\n".join(lines) + "\n"
        else:
            text = _to_json(doc)
        return _emit(text, args.out)

    if args.command == "group":
        from .groups import elements, schreier_sims

        try:
            gens = elements(args.gens)
        except KeyError as exc:
            return _usage_error(exc)
        print(schreier_sims(gens))
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
