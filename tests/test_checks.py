"""The check registry: its ids and their order, the runner, and what a run
computes."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from segre_pg72 import anf, groups, orbits
from segre_pg72.checks import REGISTRY, SUITES, Check, Run

ROOT = Path(__file__).resolve().parent.parent
# a committed `verify all --format json` report
REFERENCE_REPORT = ROOT / "bench" / "reference" / "verify_all.json"


def test_registry_ids_and_report_order():
    suites = [c.suite for c in REGISTRY.values()]
    assert Counter(suites) == {"groups": 25, "spread": 13, "orbits": 13, "table1": 7, "polys": 40}
    assert sorted(suites, key=SUITES.index) == suites
    reference = json.loads(REFERENCE_REPORT.read_text())["checks"]
    assert [(c.id, c.description) for c in REGISTRY.values()] == [
        (c["id"], c["description"]) for c in reference
    ]


def test_importing_the_cli_computes_nothing():
    code = """
import segre_pg72.cli
from segre_pg72 import anf, groups, orbits, segre
cached = (groups.named_elements, groups.segre_group, groups.segre_group_even, groups.cube_group,
          segre.build_model, orbits.definitional_orbits, orbits.spread_from_w,
          anf.named_P_basis, anf.named_Q)
print(sum(fn.cache_info().currsize for fn in cached))
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_a_raising_check_is_a_failure():
    def refuse(run):
        raise ValueError("no answer")

    result = Run().check(Check("polys/refuse", "polys", "always raises", refuse))
    assert (result.expected, result.actual, result.passed) == (
        "no exception", "raised ValueError: no answer", False
    )


def test_shared_intermediates_are_computed_once_per_run(monkeypatch):
    orbits.cube_orbit_labels()  # a cached construction of its own, built outside the run
    calls = Counter()
    for module, name in ((groups, "stabilizer_of_point"), (orbits, "line_orbit_split"),
                         (orbits, "point_orbits"), (anf, "invariant_subspace")):
        def counted(*args, fn=getattr(module, name), name=name):
            calls[name, args] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)
    run = Run()
    results = [r for suite in ("groups", "spread", "orbits", "table1") for r in run.suite(suite)]
    results += run.ids(cid for cid in REGISTRY if cid.startswith(
        ("polys/invariant", "polys/degree-census", "polys/dim/", "polys/nesting")))
    assert all(r.passed for r in results)
    assert set(calls.values()) == {1}
    assert Counter(name for name, _ in calls)["invariant_subspace"] == 7
