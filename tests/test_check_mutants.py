"""No vacuous check: a check id FAILs when the route it reads is broken.

A mutant is a layer function of `src` with one edit in its source text
(`source_mutant`). It replaces that function in every package module that
holds it, and never changes an expected literal in `checks.py`. The
package caches are cleared before and after each run, so the mutant is
seen by that run alone.

This table holds five slices: the invariant-solving kernel, `gf2._kernel`,
and the checks that read it; the incidence scan's plan, `anf._quotient_plan`,
and the `polys/incidence/*` checks that read it; the stabilizer chain,
`groups.stabilizer_chain`, and the `groups/chain/*` checks that read its
orders; the point orbits, `orbits.point_orbits`, and the `orbits/*` and
`table1/*` checks that read the partition; and the line split,
`orbits.line_orbit_split`, and the `spread/*` checks that read its classes.
"""

import sys

import pytest

from segre_pg72.anf import _quotient_plan, invariant_subspace
from segre_pg72.checks import REGISTRY, Run
from segre_pg72.gf2 import _kernel
from segre_pg72.groups import stabilizer_chain
from segre_pg72.orbits import line_orbit_split, point_orbits
from support import PACKAGE, clear_caches, source_mutant

# the highest-pivot kernel row dropped: every kernel loses one dimension.
# The cut follows the tag-pivot filter; before it, the highest echelon row
# has a column pivot whenever the columns have rank > 0
DROPS_THE_TOP_KERNEL_ROW = (_kernel, ("if p <= nvars)", "if p <= nvars)[:-1]"))
# the degree filter reversed: the monomials of degree at least d, so the
# solved spaces shrink as d grows
SOLVES_FROM_THE_TOP_DEGREE = (
    invariant_subspace,
    ("t.bit_count() <= max_degree", "t.bit_count() >= max_degree"),
)
# an origin at every half quotient table: each half is compared with its
# own first position, not with T_H(0), so every degree comes out one too
# high (3, 5, 5 and 7).
# A plan whose rows each drop a free column, whose row 0 never has its pivot
# just below min S, or whose row 0 runs over every nonzero representative
# leaves all four polys/incidence checks passing: plan completeness is
# pinned by the tier-1 tests of the plan (tests/test_anf.py TestCosetScan,
# tests/test_gf2.py TestFlatEnumeration), not by a verify check.
ORIGINS_EVERY_HALF_TABLE = (
    _quotient_plan,
    ("origins = _tiled(1, quot, width)", "origins = _tiled(1, quot // 2, width)"),
)
# a Schreier residue of level i attached from level i + 2 on: level i + 1
# misses it, so each order comes out too small (432, 27, 32, 139,345,920
# and 39,813,120)
SKIPS_THE_LEVEL_BELOW_THE_PAIR = (
    stabilizer_chain,
    ("add_generator(j, residue, k + 1)", "add_generator(j, residue, k + 2)"),
)
# the orbits of the first generator alone: every partition splits finer
ORBITS_OF_THE_FIRST_GENERATOR = (
    point_orbits,
    ("for g in group.generators]", "for g in group.generators[:1]]"),
)
# the line walk follows the first generator alone: every class of the split
# splits finer
SPLITS_BY_THE_FIRST_GENERATOR = (
    line_orbit_split,
    ("for perm, move in moves:", "for perm, move in moves[:1]:"),
)

MUTANTS = {
    **dict.fromkeys(
        [
            "groups/commutant/dim",
            "groups/centralizer",
            "polys/invariant-count",
            "polys/degree-census",
            "polys/dim/GB-4",
            "polys/dim/GS-2",
            "polys/dim/GS-4",
            "polys/dim/GS-7",
        ],
        DROPS_THE_TOP_KERNEL_ROW,
    ),
    # a kernel short of its top row still nests: at each degree the rows
    # below the top pivot span the invariants of the lower degrees
    "polys/nesting": SOLVES_FROM_THE_TOP_DEGREE,
    **dict.fromkeys(
        [f"polys/incidence/{name}" for name in ("Q2", "Q4", "Q4'", "Q6")],
        ORIGINS_EVERY_HALF_TABLE,
    ),
    **dict.fromkeys(
        [f"groups/chain/{label}" for label in ("M,N", "M',N", "M,K12", "M,N,K", "M,N,K'")],
        SKIPS_THE_LEVEL_BELOW_THE_PAIR,
    ),
    **dict.fromkeys(
        [
            "orbits/sizes",
            "orbits/classifier",
            "orbits/even-count",
            "orbits/even-classes",
            "table1/count",
            "table1/coverage",
            *(f"table1/O{k}" for k in range(1, 6)),
        ],
        ORBITS_OF_THE_FIRST_GENERATOR,
    ),
    **dict.fromkeys(
        [f"spread/{name}" for name in
         ("orbit-sizes", "L4", "L18", "L36", "L27", "tetrad", "tangents")],
        SPLITS_BY_THE_FIRST_GENERATOR,
    ),
}


def run_under(mutant, cid: str, monkeypatch):
    """The result of check cid with the mutant's function replaced in every
    package module that holds it (no replacement when mutant is None)."""
    clear_caches()
    with monkeypatch.context() as patch:
        if mutant is not None:
            fn, edit = mutant
            replacement = source_mutant(fn, edit)
            for name, module in list(sys.modules.items()):
                if name.startswith(PACKAGE) and getattr(module, fn.__name__, None) is fn:
                    patch.setattr(module, fn.__name__, replacement)
        result = Run(0).check(REGISTRY[cid])
    clear_caches()
    return result


def test_every_table_key_is_a_check_id():
    assert set(MUTANTS) <= set(REGISTRY)


@pytest.mark.parametrize("cid", MUTANTS)
def test_the_check_fails_under_its_mutant(cid, monkeypatch):
    assert run_under(None, cid, monkeypatch).passed
    assert not run_under(MUTANTS[cid], cid, monkeypatch).passed


def test_nesting_survives_the_kernel_mutant(monkeypatch):
    # why polys/nesting needs a mutant of its own
    assert run_under(DROPS_THE_TOP_KERNEL_ROW, "polys/nesting", monkeypatch).passed
