"""Outside-in tracing: wrappers around the package's public functions.

The wrappers are installed from the benchmark's files by rebinding every
module attribute that refers to a traced function, so calls between the
package's own modules (``cli`` importing ``degree_by_incidence`` by name,
``invariant_subspace`` calling ``substitute``) pass through them too.  Each
call records a span (name, start, end, parent, note) in memory; a few hot
functions only bump a counter.  A layer's self time is its spans' time minus
the time of their child spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from functools import wraps

from oracle import gaussian_binomial

# (module, attribute, span name, note taken from the result)
SPANNED = (
    ("anf", "degree_by_incidence", "anf.degree_by_incidence", lambda d: gaussian_binomial(8, d + 1)),
    ("anf", "substitute", "anf.substitute", None),
    ("anf", "invariant_subspace", "anf.invariant_subspace", None),
    ("anf", "named_P_basis", "anf.named_P_basis", None),
    ("anf", "named_Q", "anf.named_Q", None),
    ("groups", "closure", "groups.closure", len),
    ("groups", "schreier_sims", "groups.schreier_sims", None),
    ("groups", "commutant_basis", "groups.commutant_basis", None),
    ("groups", "centralizer_in_gl", "groups.centralizer_in_gl", None),
    ("groups", "stabilizer_of_point", "groups.stabilizer_of_point", None),
    ("groups", "named_elements", "groups.named_elements", None),
    ("orbits", "point_orbits", "orbits.point_orbits", None),
    ("orbits", "line_orbit_split", "orbits.line_orbit_split", None),
    ("orbits", "definitional_orbits", "orbits.definitional_orbits", None),
    ("orbits", "cube_orbit_labels", "orbits.cube_orbit_labels", None),
    ("segre", "build_model", "segre.build_model", None),
    *(("cli", f"suite_{s}", f"cli.suite.{s}", None) for s in ("groups", "spread", "orbits", "table1", "polys")),
    ("cli", "export_text", "cli.export", None),
    ("cli", "report_payload", "cli.report", None),
    ("cli", "report_text", "cli.report", None),
)
COUNTED = (("anf", "mobius", "anf.mobius"),)
COUNTED_METHODS = (("__call__", "gf2.apply"), ("__mul__", "gf2.mul"), ("inverse", "gf2.inverse"))

# metric -> unit.  Suffixes: .calls counts calls, .self_s is self time, .s is
# time including children.  flats_computed and elements sum span notes:
# [8, D+1]_2 D-flats per scan of degree D (computed, not counted) and the
# size of each closure.
PER_LAYER = {
    "anf.degree_by_incidence.calls": "count",
    "anf.degree_by_incidence.self_s": "s",
    "anf.incidence.flats_computed": "count",
    "anf.substitute.calls": "count",
    "anf.substitute.self_s": "s",
    "anf.invariant_subspace.calls": "count",
    "anf.invariant_subspace.self_s": "s",
    "anf.mobius.calls": "count",
    "gf2.apply.calls": "count",
    "gf2.mul.calls": "count",
    "gf2.inverse.calls": "count",
    "groups.closure.calls": "count",
    "groups.closure.self_s": "s",
    "groups.closure.elements": "count",
    "groups.schreier_sims.calls": "count",
    "groups.schreier_sims.self_s": "s",
    "groups.commutant_basis.self_s": "s",
    "groups.centralizer_in_gl.self_s": "s",
    "groups.stabilizer_of_point.self_s": "s",
    "orbits.point_orbits.calls": "count",
    "orbits.point_orbits.self_s": "s",
    "orbits.line_orbit_split.calls": "count",
    "orbits.line_orbit_split.self_s": "s",
    "orbits.definitional_orbits.s": "s",
    "orbits.cube_orbit_labels.s": "s",
    "segre.build_model.s": "s",
    "groups.named_elements.s": "s",
    "anf.named_P_basis.s": "s",
    "anf.named_Q.s": "s",
    "cli.suite.groups.s": "s",
    "cli.suite.spread.s": "s",
    "cli.suite.orbits.s": "s",
    "cli.suite.table1.s": "s",
    "cli.suite.polys.s": "s",
    "cli.export.s": "s",
    "cli.report.s": "s",
    "trace.overhead_s": "s",
    "trace.wall_s": "s",
    "trace.self_total_s": "s",
}
_NOTES = {"anf.incidence.flats_computed": "anf.degree_by_incidence", "groups.closure.elements": "groups.closure"}

_MODULES = ("gf2", "segre", "groups", "orbits", "anf", "cli")


class Tracer:
    """Spans and counters of one process, plus those merged from children.

    ``with tracer:`` installs the wrappers and removes them on exit.
    """

    def __init__(self, pkg=None):
        self.spans: list[list] = []  # [name, start, end, parent index, note]
        self.children: list[list[list]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches = self._make_patches(pkg) if pkg is not None else []

    def _make_patches(self, pkg) -> list[tuple[object, str, object, object]]:
        modules = [pkg] + [getattr(pkg, m) for m in _MODULES]
        patches = []
        for mod, attr, name, note in SPANNED:
            orig = getattr(getattr(pkg, mod), attr)
            patches += self._rebind(modules, orig, self._span(name, orig, note))
        for mod, attr, name in COUNTED:
            orig = getattr(getattr(pkg, mod), attr)
            patches += self._rebind(modules, orig, self._count(name, orig))
        for attr, name in COUNTED_METHODS:
            orig = getattr(pkg.GFMatrix, attr)
            patches.append((pkg.GFMatrix, attr, orig, self._count(name, orig)))
        return patches

    @staticmethod
    def _rebind(modules, orig, wrapper):
        return [
            (m, attr, orig, wrapper)
            for m in modules
            for attr, value in list(vars(m).items())
            if value is orig
        ]

    def _span(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if note is not None:
                record[4] = note(result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attr, _orig, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig, _wrapper in self._patches:
            setattr(owner, attr, orig)

    def write_child(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    def merge_child_file(self, path) -> float:
        """Take over a traced child's spans; returns its root-span seconds."""
        with open(path) as fh:
            data = json.load(fh)
        path.unlink()
        self.children.append(data["spans"])
        self.counts.update(data["counts"])
        return sum(end - start for _, start, end, parent, _ in data["spans"] if parent < 0)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "note"],
                 "processes": [self.spans] + self.children},
                fh,
            )

    def layer_metrics(self, overhead_s: float, wall_s: float) -> dict[str, float]:
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        notes: Counter = Counter()
        for spans in [self.spans] + self.children:
            child_time = [0.0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent >= 0:
                    child_time[parent] += end - start
            for (name, start, end, _, note), inner in zip(spans, child_time):
                calls[name] += 1
                total[name] += end - start
                own[name] += end - start - inner
                notes[name] += note
        values = {}
        for metric in PER_LAYER:
            base, _, suffix = metric.rpartition(".")
            if metric in _NOTES:
                values[metric] = notes[_NOTES[metric]]
            elif suffix == "calls":
                values[metric] = calls[base] + self.counts[base]
            elif suffix == "self_s":
                values[metric] = own[base]
            elif suffix == "s":
                values[metric] = total[base]
        values["trace.overhead_s"] = overhead_s
        values["trace.wall_s"] = wall_s
        values["trace.self_total_s"] = sum(own.values())
        return values
