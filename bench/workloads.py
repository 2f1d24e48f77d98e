"""The three workloads: seeded inputs, one closed-loop client, checked outputs.

Each workload makes its inputs from a ``random.Random`` seeded by the caller
and hands the program only those inputs.  Work comes in rounds, and a round
is a stratified draw, so every run sees the same mix of operation kinds (and
on poly-batch the same degrees) and only the concrete inputs change with the
seed:

- ``cli-cold``: one cold CLI process at a time, compared byte for byte with
  reference outputs;
- ``group-batch``: generator sets in one warm process, 24 per round, a
  fixed number of each subgroup order class, six of which also get K or K';
- ``poly-batch``: polynomials of each degree 1..7 and invariant solves at
  each maximum degree 2..7, each group for two degrees, in one warm process.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

PROCESS_TIMEOUT_S = 120


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_package():
    """Import the package from this checkout's sources, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import segre_pg72
    import segre_pg72.cli  # noqa: F401  (the tracer patches names cli imports)

    if Path(segre_pg72.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"segre_pg72 imported from {segre_pg72.__file__}, not {SRC}")
    return segre_pg72


def build_cached_constructions(pkg) -> None:
    """The constructions a fresh process pays for before it can answer.

    Each is a ``functools.cache`` construction, so a warm process pays once.
    """
    pkg.build_model()
    pkg.named_elements()
    pkg.segre_group()
    pkg.segre_group_even()
    pkg.cube_group()
    pkg.definitional_orbits()
    pkg.spread_from_w()
    pkg.cube_orbit_labels()
    pkg.named_P_basis()
    pkg.named_Q()


@dataclass
class Record:
    kind: str
    seconds: float
    error: str | None = None
    covered_s: float = 0.0  # time inside root spans of a traced child process


class Workload:
    """Base: subclasses make rounds of operations and execute one at a time."""

    # metric name -> (operation kind, "median_s" or "per_s"): the readings of
    # this workload's own kinds, printed beside the end-to-end metrics
    named: dict[str, tuple[str, str]] = {}
    in_process = True  # False: the program runs in child processes only

    def __init__(self):
        self.inputs = Counter()  # properties of the executed inputs

    def prepare(self, tracer=None) -> None:
        """Import the package and build its caches, traced if a tracer is given."""
        self.pkg = import_package()
        with tracer or nullcontext():
            build_cached_constructions(self.pkg)

    def round(self, rng) -> list:
        raise NotImplementedError

    def execute(self, op, tracer=None) -> Record:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# cli-cold


EXPORTS = tuple(
    (what, fmt) for what in ("orbits", "spread", "polys", "model") for fmt in ("json", "csv")
)
ORBIT_GROUPS = ("GS", "GS0", "GB")

# reference file -> CLI arguments; verify runs with a seeded --seed whose only
# trace in the report is the metadata field
CLI_DOCUMENTS = {
    "verify_all.json": ["verify", "all", "--format", "json"],
    **{f"export_{w}.{f}": ["export", w, "--format", f] for w, f in EXPORTS},
    **{f"orbits_{g}.json": ["orbits", "--group", g] for g in ORBIT_GROUPS},
}

EVALS_PER_ROUND = 4
GROUP_ORDERS_PER_ROUND = 4


class CliCold(Workload):
    in_process = False
    named = {
        "verify_all_s": ("verify", "median_s"),
        "export_s": ("export", "median_s"),
        "query_s": ("query", "median_s"),
    }

    def prepare(self, tracer=None) -> None:
        self.docs = {name: oracle.load_reference(name) for name in CLI_DOCUMENTS}
        verify = self.docs["verify_all.json"]
        if verify.count(b'"seed": 0,') != 1:
            raise ValueError("verify reference must carry exactly one seed field")
        self.eval_values = oracle.load_reference_json("eval_values.json")
        self.poly_names = sorted(self.eval_values)
        self.group_orders = oracle.load_reference_json("group_orders.json")
        self.gen_subsets = sorted(self.group_orders)

    def round(self, rng) -> list:
        seed = rng.randrange(1 << 31)
        ops = [(
            "verify", "verify all",
            CLI_DOCUMENTS["verify_all.json"] + ["--seed", str(seed)],
            self.docs["verify_all.json"].replace(b'"seed": 0,', f'"seed": {seed},'.encode()),
        )]
        for what, fmt in EXPORTS:
            name = f"export_{what}.{fmt}"
            ops.append(("export", f"export {what} {fmt}", CLI_DOCUMENTS[name], self.docs[name]))
        for g in ORBIT_GROUPS:
            name = f"orbits_{g}.json"
            ops.append(("query", f"orbits {g}", CLI_DOCUMENTS[name], self.docs[name]))
        for _ in range(EVALS_PER_ROUND):
            names = rng.sample(self.poly_names, rng.randint(1, 2))
            point = rng.randrange(1, 256)
            value = 0
            for n in names:
                value ^= int(self.eval_values[n][point - 1])
            ops.append((
                "query", f"eval {len(names)} name(s)",
                ["eval", "+".join(names), oracle.format_point(point)], f"{value}\n".encode(),
            ))
        for _ in range(GROUP_ORDERS_PER_ROUND):
            gens = rng.choice(self.gen_subsets)
            ops.append((
                "query", f"group order {gens.count(',') + 1} gen(s)",
                ["group", "order", "--gens", gens], f"{self.group_orders[gens]}\n".encode(),
            ))
        rng.shuffle(ops)
        return ops

    def execute(self, op, tracer=None) -> Record:
        kind, label, argv, expected = op
        if tracer is None:
            cmd = [sys.executable, "-m", "segre_pg72", *argv]
        else:
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-child-{os.getpid()}.json"
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, capture_output=True, env=cli_env(), cwd=ROOT, timeout=PROCESS_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return Record(kind, time.perf_counter() - start, f"{label}: timed out")
        seconds = time.perf_counter() - start
        covered = 0.0
        if tracer is not None and spans_path.exists():
            covered = tracer.merge_child_file(spans_path)
        elif tracer is None:
            self.inputs[label] += 1
        error = None
        if proc.returncode != 0:
            error = f"{label}: exit {proc.returncode}: {proc.stderr[-300:]!r}"
        elif proc.stdout != expected:
            error = f"{label}: output differs from the reference"
        return Record(kind, seconds, error, covered)


# ---------------------------------------------------------------------------
# group-batch

# Sets per round by the order of the subgroup of <M,N> their elements
# generate.  Uniform draws of 1-3 elements give order 1296 to about a fifth
# of the sets and order 648 to about a sixth, and those sets take most of
# the time, so a round holds a fixed number of each.
ORDER_STRATA = {1296: 4, 648: 4, "smaller": 16}
EXTENDED = {1296: 1, 648: 1, "smaller": 4}  # sets of each that also get K or K'


class GroupBatch(Workload):
    named = {"group_sets_per_s": ("set", "per_s")}

    def prepare(self, tracer=None) -> None:
        super().prepare(tracer)
        pkg = self.pkg
        self.gs = pkg.segre_group().elements
        self.extensions = {
            "K": (pkg.element("K"), oracle.ORDER_GS_K),
            "K'": (pkg.element("K'"), oracle.ORDER_GS_KP),
        }
        self.spread = pkg.spread_from_w()
        self.lines = frozenset(self.spread.lines)

    def _preserves_spread(self, cols) -> bool:
        return all(frozenset(oracle.apply(cols, p) for p in line) in self.lines for line in self.lines)

    def round(self, rng) -> list:
        drawn = {stratum: [] for stratum in ORDER_STRATA}
        while any(len(drawn[s]) < n for s, n in ORDER_STRATA.items()):
            gens = [rng.choice(self.gs) for _ in range(rng.randint(1, 3))]
            order = oracle.group_order([g.cols for g in gens])
            stratum = order if order in ORDER_STRATA else "smaller"
            if len(drawn[stratum]) < ORDER_STRATA[stratum]:
                drawn[stratum].append((gens, order))
        extensions = sorted(self.extensions) * (sum(EXTENDED.values()) // len(self.extensions))
        rng.shuffle(extensions)
        ops = []
        for stratum, sets in drawn.items():
            for i, (gens, order) in enumerate(sets):
                bound, extension = order, None
                if i < EXTENDED[stratum]:
                    extension = extensions.pop()
                    mat, bound = self.extensions[extension]
                    gens = [*gens, mat]
                cols = [g.cols for g in gens]
                ops.append((gens, cols, bound, extension, all(map(self._preserves_spread, cols))))
        rng.shuffle(ops)
        return ops

    def execute(self, op, tracer=None) -> Record:
        gens, cols, bound, extension, preserving = op
        pkg = self.pkg
        with tracer or nullcontext():
            start = time.perf_counter()
            try:
                order = pkg.schreier_sims(gens)
                group = pkg.closure(gens) if extension is None else pkg.MatrixGroup(gens)
                points = pkg.point_orbits(group)
                lines = pkg.line_orbit_split(self.spread, group) if preserving else None
                seconds = time.perf_counter() - start
            except Exception as exc:  # a raising operation is a failed operation
                return Record("set", time.perf_counter() - start, f"raised {exc!r}")
        if tracer is None:
            self.inputs[f"order={order}"] += 1
            self.inputs[f"spread_preserving={preserving}"] += 1
            self.inputs[f"extension={extension}"] += 1
        return Record("set", seconds, self._check(cols, bound, extension, order, group, points, lines))

    def _check(self, cols, bound, extension, order, group, points, lines) -> str | None:
        if extension is None and order != bound:
            return f"order {order}, the oracle's closure has {bound} elements"
        if bound % order:
            return f"order {order} does not divide {bound}"
        if extension is None and len(group) != order:
            return f"closure has {len(group)} elements, chain order {order}"
        own = oracle.point_orbits(cols)
        if {frozenset(c.points) for c in points.classes} != set(own):
            return "point orbits disagree with the oracle"
        if any(order % len(o) for o in own):
            return "a point-orbit size does not divide the order"
        if lines is not None:
            own_lines = oracle.orbits(
                sorted(self.lines, key=min),
                lambda line: (frozenset(oracle.apply(c, p) for p in line) for c in cols),
            )
            if {frozenset(cls) for cls in lines} != set(own_lines):
                return "line classes disagree with the oracle"
            if any(order % len(o) for o in own_lines):
                return "a line-class size does not divide the order"
        return None


# ---------------------------------------------------------------------------
# poly-batch

INCIDENCE_DEGREES = range(1, 8)   # degree of the scanned polynomial
INVARIANT_DEGREES = range(2, 8)   # max degree of the invariant solve
INVARIANT_GROUPS = ("M,N", "M',N", "M,K12")  # each for two of the degrees


class PolyBatch(Workload):
    named = {
        "incidence_per_s": ("incidence", "per_s"),
        "invariants_per_s": ("invariants", "per_s"),
    }

    def prepare(self, tracer=None) -> None:
        super().prepare(tracer)
        pkg = self.pkg
        self.group_elements = {
            "M,N": pkg.segre_group().elements,
            "M',N": pkg.segre_group_even().elements,
            "M,K12": pkg.cube_group().elements,
        }

    def _random_invertible(self, rng):
        while True:
            cols = tuple(rng.randrange(256) for _ in range(8))
            if oracle.rank(cols) == 8:
                return self.pkg.GFMatrix(cols)

    def round(self, rng) -> list:
        ops = []
        for d in INCIDENCE_DEGREES:
            coeffs = rng.getrandbits(256) & sum(oracle.BY_SIZE[1:d + 1])
            if not coeffs & oracle.BY_SIZE[d]:
                top = [t for t in range(256) if t.bit_count() == d]
                coeffs |= 1 << rng.choice(top)
            ops.append(("incidence", d, coeffs, self._random_invertible(rng)))
        names = list(INVARIANT_GROUPS) * (len(INVARIANT_DEGREES) // len(INVARIANT_GROUPS))
        rng.shuffle(names)
        for d, name in zip(INVARIANT_DEGREES, names):
            elements = self.group_elements[name]
            ops.append(("invariants", d, name, (rng.choice(elements), rng.choice(elements))))
        rng.shuffle(ops)
        return ops

    def execute(self, op, tracer=None) -> Record:
        pkg = self.pkg
        kind, d = op[0], op[1]
        with tracer or nullcontext():
            start = time.perf_counter()
            try:
                if kind == "incidence":
                    f = pkg.Anf(op[2])
                    psi = f.pointset()
                    result = (psi, pkg.degree_by_incidence(psi), f.degree, pkg.substitute(f, op[3]))
                else:
                    result = pkg.invariant_subspace(op[3], d)
                seconds = time.perf_counter() - start
            except Exception as exc:  # a raising operation is a failed operation
                return Record(kind, time.perf_counter() - start, f"raised {exc!r}")
        if tracer is None:
            self.inputs[f"{kind} degree={d}"] += 1
            if kind == "invariants":
                self.inputs[f"invariants group=<{op[2]}>"] += 1
        if kind == "incidence":
            return Record(kind, seconds, self._check_incidence(d, op[2], op[3], *result))
        return Record(kind, seconds, self._check_invariants(d, op[3], result))

    @staticmethod
    def _check_incidence(d, coeffs, mat, psi, scanned, coeff_degree, image) -> str | None:
        if psi != ~oracle.mobius(coeffs) & oracle.FULL & ~1:
            return "point set differs from the oracle's truth table"
        if not scanned == coeff_degree == oracle.degree(coeffs) == d:
            return f"incidence degree {scanned}, coefficient degree {coeff_degree}, generated {d}"
        if oracle.degree(image.coeffs) != d:
            return "substitution changed the degree"
        if not oracle.substituted_correctly(coeffs, image.coeffs, mat.cols):
            return "substitution differs from f(Ax) pointwise"
        return None

    @staticmethod
    def _check_invariants(d, gens, basis) -> str | None:
        cols = [g.cols for g in gens]
        coeffs = [b.coeffs for b in basis]
        if len(coeffs) != oracle.invariant_dimension(cols, d):
            return f"basis of {len(coeffs)} elements, oracle dimension differs"
        if oracle.rank(coeffs) != len(coeffs):
            return "basis is linearly dependent"
        perms = [[oracle.apply(c, x) for x in range(256)] for c in cols]
        for c in coeffs:
            table = oracle.mobius(c)
            if c & 1 or oracle.degree(c) > d:
                return "basis element has a constant term or too high a degree"
            if any(table >> p[x] & 1 != table >> x & 1 for p in perms for x in range(256)):
                return "basis element is not fixed by substitution"
        return None


WORKLOADS = {"cli-cold": CliCold, "group-batch": GroupBatch, "poly-batch": PolyBatch}
