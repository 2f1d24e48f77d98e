"""Acceptance gate: every quantitative claim, one test per criterion.

Each criterion runs its checks from the registry in ``segre_pg72.checks``
by id and requires them to pass; a direct assertion remains only for a fact
no registry check or other test covers.  Runtime bounds are asserted around
fresh (uncached) computations where a bound is part of the criterion.  Each
test prints a single PASS line on success.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from segre_pg72.anf import named_Q
from segre_pg72.checks import SEVEN_TABLE, Run
from segre_pg72.orbits import CUBE_ORBIT_CENSUS, definitional_orbits, orbit_mask

ROOT = Path(__file__).resolve().parent.parent


def _report(cid, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {cid}: PASS{suffix}")


def _assert_pass(ids, run=None):
    """Run the checks whose whitespace-separated ids are given; all must pass."""
    results = (run or Run()).ids(ids.split())
    assert [r for r in results if not r.passed] == []


def test_criterion_1_group_orders():
    start = time.perf_counter()
    _assert_pass("groups/closure/M,N groups/chain/M,N groups/closure/M',N groups/chain/M',N"
                 " groups/closure/M,K12 groups/chain/M,K12")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"orders 1296/648/48 both routes in {elapsed:.3f}s")


def test_criterion_2_orthogonal_orders():
    start = time.perf_counter()
    _assert_pass("groups/chain/M,N,K groups/chain/M,N,K'")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"348364800 and 174182400 in {elapsed:.3f}s")


def test_criterion_3_centralizer():
    # normalized: every conjugate is W or W^2; conj-J and the kernel {I, J}
    # of the diagonal action show both occur
    _assert_pass("groups/commutant/dim groups/centralizer groups/W/images groups/W/order"
                 " groups/W/fix groups/W/normalized groups/W/conj-J groups/diagonal-action/kernel")
    _report(3, "commutant dim 2, centralizer {I,W,W^2}, W normalized by all 1296")


def test_criterion_4_spread():
    # 85 lines of 3 points covering 255 points are pairwise disjoint
    _assert_pass("spread/count spread/cover spread/lines spread/orbit-sizes spread/tetrad")
    _report(4, "85 disjoint lines cover the space; orbit sizes 4/18/36/27")


def test_criterion_5_orbits():
    # Table data: the census below carries 21 rows; the prose count of 19
    # in the planning notes undercounted the primed rows.
    assert len(CUBE_ORBIT_CENSUS) == 21
    _assert_pass("orbits/sizes orbits/classifier orbits/even-count table1/count table1/coverage"
                 " table1/O1 table1/O2 table1/O3 table1/O4 table1/O5"
                 " orbits/triplet-disjoint orbits/triplet-union orbits/parity-split")
    _report(5, "orbit sizes, classifier agreement, census, triplet parity split")


def test_criterion_6_polynomials():
    q = named_Q()  # construction asserts geometric == closed-form for each
    run = Run()
    _assert_pass("polys/Q-catalog polys/Q2-geometric polys/degree/Q2 polys/degree/Q4"
                 " polys/degree/Q4' polys/degree/Q6", run)
    orbs = definitional_orbits()
    start = time.perf_counter()
    # Q2's zero set is covered by polys/Q2-geometric
    for name, labels in (("Q4", ("O2", "O5")), ("Q4'", ("O3", "O4", "O5")), ("Q6", ("O5",))):
        assert q[name].pointset() == orbit_mask(orbs, *labels)
    _assert_pass("polys/incidence/Q2 polys/incidence/Q4 polys/incidence/Q4' polys/incidence/Q6", run)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0

    _assert_pass(" ".join(f"polys/seven-table/{name}/{part}"
                          for name, _values, _size in SEVEN_TABLE for part in ("values", "zeros")), run)
    _assert_pass("polys/invariant-count polys/degree-census polys/afterthought", run)
    _report(6, f"dual-route equality, degrees via flats in {elapsed:.2f}s, census 1/6/8")


def test_criterion_7_invariant_dimensions():
    _assert_pass("polys/dim/GB-4 polys/dim/GS-2 polys/dim/GS-4 polys/dim/GS-7")
    _report(7, "dimensions 13 and 1/3/4")


def test_criterion_8_seeded_properties():
    # one generator seeded with 0, drawn from in this order
    _assert_pass("polys/roundtrip polys/degree-preserved polys/form/alternating"
                 " polys/form/bilinear polys/form/rank polys/form/invariant")
    _report(8, "roundtrip x1000, degree x100, form bilinear/alternating/rank 8/invariant")


def test_criterion_9_end_to_end_cli():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "segre_pg72", "verify", "all"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60.0
    assert "FAIL" not in proc.stdout
    _report(9, f"verify all exited 0 in {elapsed:.1f}s")
