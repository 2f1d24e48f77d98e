"""No vacuous check: a check id FAILs when the route it reads is broken.

A mutant is a layer function or method of `src` with one edit in its
source text (`source_mutant`), or two where one change of meaning spans
two places. It replaces that function in every package module, and every
package class, that holds it, and never changes an expected literal in
`checks.py`. The package caches are
cleared before and after each run, so the mutant is seen by that run
alone.

This table holds fourteen slices: the invariant-solving kernel, `gf2._kernel`,
and the checks that read it; the incidence scan's plan, `anf._quotient_plan`,
and the `polys/incidence/*` checks that read it; the stabilizer chain,
`groups.stabilizer_chain`, and the `groups/chain/*` checks that read its
orders; the point orbits, `orbits.point_orbits`, and the `orbits/*` and
`table1/*` checks that read the partition; the line split,
`orbits.line_orbit_split`, and the `spread/*` checks that read its classes;
the substitution, `anf.substitute`, and `polys/degree-preserved`; and the
Moebius transform, `anf.mobius`, and the product and round-trip checks
that read it; the polar form, `anf.symplectic_form`, and the
`polys/form/*` checks; the closure, `groups.closure`, and the closure and
parity checks that read its element lists; the stabilizer,
`groups.stabilizer_of_point`, and the checks on the stabilizer of u; the
inverse, `gf2.GFMatrix.inverse`, and `groups/W/normalized`; and the
membership test, `groups.MatrixGroup.__contains__`, and
`groups/parity/out`; the monomial orbit sums, `anf.monomial_orbit_poly`,
and `polys/P-catalog`, the one check that reads them; and the point-set
equation, `anf.anf_from_pointset`, and the two checks that compare the
Q's with it.
"""

import sys

import pytest

from segre_pg72 import cli
from segre_pg72.anf import (
    _quotient_plan,
    anf_from_pointset,
    invariant_subspace,
    mobius,
    monomial_orbit_poly,
    substitute,
    symplectic_form,
)
from segre_pg72.checks import REGISTRY, Run
from segre_pg72.gf2 import GFMatrix, _kernel
from segre_pg72.groups import (
    MatrixGroup,
    centralizer_in_gl,
    closure,
    stabilizer_chain,
    stabilizer_of_point,
)
from segre_pg72.orbits import line_orbit_split, point_orbits
from support import PACKAGE, clear_caches, source_mutant

# the highest-pivot kernel row dropped: every kernel loses one dimension.
# The cut follows the filter of the zero entries; before it, the entry at
# pivot nvars is 0 whenever the highest variable has a column pivot
DROPS_THE_TOP_KERNEL_ROW = (_kernel, ("rows[1 : nvars + 1] if r]", "rows[1 : nvars + 1] if r][:-1]"))
# the degree filter reversed: the monomials of degree at least d, so the
# solved spaces shrink as d grows.  The recurrence then builds every size,
# so that each of these columns is right
SOLVES_FROM_THE_TOP_DEGREE = (
    invariant_subspace,
    ("reversed(_STEPS[: _UP_TO[max_degree]])", "reversed(_STEPS[_UP_TO[max_degree - 1] :])"),
    ("_product_tables(lin, tagged[0], max_degree)", "_product_tables(lin, tagged[0])"),
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

# the substitution reads f's coefficients as its truth table: the result's
# degree is no longer f's.  Substitutions whose point table is affine, not
# linear, keep every degree, so a mutant that reads mat.perm reversed, or
# that leaves the values unreversed (both x -> A(x + u)), leaves the check
# passing
READS_THE_COEFFICIENTS_AS_THE_TABLE = (
    substitute,
    ("_byte_table(f.truth_table())", "_byte_table(f.coeffs)"),
)
# each butterfly ORs instead of XORing: no longer an involution, so products,
# round trips and substitutions all go wrong.  A transform that skips a
# level, or sums over supersets, is still an involution, and leaves
# polys/roundtrip passing
ORS_EACH_BUTTERFLY = (
    mobius,
    ("table ^= (table & m) << (1 << i)", "table |= (table & m) << (1 << i)"),
)
# the polar form reads Q2 at x | y: it is no longer alternating, additive
# or invariant.  The rank reads it on pairs of distinct unit vectors only,
# where x | y = x ^ y, so it gets a mutant of its own: the form of Q2 + P2
POLAR_FORM_AT_THE_UNION = (symplectic_form, ("q2.evaluate(x ^ y)", "q2.evaluate(x | y)"))
POLAR_FORM_OF_ANOTHER_QUADRIC = (
    symplectic_form,
    ('q2 = named_Q()["Q2"]', 'q2 = resolve_poly_name("Q2+P2")'),
)

# the closure walks the first generator alone: each group comes out a proper
# subgroup, and the paired involutions fall outside the even one
CLOSES_UNDER_THE_FIRST_GENERATOR = (closure, ("for g in perms:", "for g in perms[:1]:"))
# the stabilizer keeps the elements fixing e1, not p
FIXES_E1_INSTEAD_OF_P = (stabilizer_of_point, ("if t[p] == p", "if t[1] == 1"))
# the inverse is the matrix itself: conjugates of W leave {W, W^2}.  J is an
# involution, so groups/W/conj-J passes under it
INVERSE_IS_THE_MATRIX = (
    GFMatrix.inverse,
    ("return GFMatrix._from_perm(_invert_perm(self.perm))", "return self"),
)
# membership answers whether the element list is non-empty
MEMBER_OF_ANY_NONEMPTY_GROUP = (
    MatrixGroup.__contains__,
    ("mat.perm in self._table_set", "bool(self._table_set)"),
)
# the centralizer keeps the sums that send at most one point to 0.  Every
# sum in the commutant of <M',N> is invertible, so groups/centralizer passes
# under it; the tier-1 differential against the packed-column enumeration
# (tests/test_groups.py) catches it
KEEPS_SUMS_WITH_ONE_POINT_TO_ZERO = (
    centralizer_in_gl,
    ("if t.count(0) == 1:", "if t.count(0) <= 2:"),
)
# the monomial orbit walks the first generator alone: each orbit sum comes
# out short, and P1 is the first P to disagree with its pin.  The P's are
# read from their pins, so no other check sees this route
ORBIT_SUMS_OF_THE_FIRST_GENERATOR = (
    monomial_orbit_poly,
    ("point_orbit(start, perms, bytearray(256))", "point_orbit(start, perms[:1], bytearray(256))"),
)
# the equation of a point set keeps the constant term: it is 1 at 0 too, so
# every flat equation and every zero-set equation gains a constant.
# polys/roundtrip survives it, since pointset() drops bit 0 on the way back
KEEPS_THE_CONSTANT_TERM = (anf_from_pointset, ("~(psi | 1)", "~psi"))

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
    "polys/degree-preserved": READS_THE_COEFFICIENTS_AS_THE_TABLE,
    **dict.fromkeys(
        ["polys/P5-product", "polys/afterthought", "polys/roundtrip"],
        ORS_EACH_BUTTERFLY,
    ),
    **dict.fromkeys(
        [f"polys/form/{name}" for name in ("alternating", "bilinear", "invariant")],
        POLAR_FORM_AT_THE_UNION,
    ),
    "polys/form/rank": POLAR_FORM_OF_ANOTHER_QUADRIC,
    **dict.fromkeys(
        [*(f"groups/closure/{label}" for label in ("M,N", "M',N", "M,K12")), "groups/parity/in"],
        CLOSES_UNDER_THE_FIRST_GENERATOR,
    ),
    **dict.fromkeys(
        ["groups/stabilizer-u", "groups/diagonal-action/image", "groups/diagonal-action/kernel"],
        FIXES_E1_INSTEAD_OF_P,
    ),
    "groups/W/normalized": INVERSE_IS_THE_MATRIX,
    "groups/parity/out": MEMBER_OF_ANY_NONEMPTY_GROUP,
    "polys/P-catalog": ORBIT_SUMS_OF_THE_FIRST_GENERATOR,
    **dict.fromkeys(["polys/Q-catalog", "polys/Q2-geometric"], KEEPS_THE_CONSTANT_TERM),
}


def run_under(mutant, cid: str, monkeypatch):
    """The result of check cid with the mutant's function replaced in every
    package module, and every class a package module defines, that holds
    it (no replacement when mutant is None)."""
    clear_caches()
    with monkeypatch.context() as patch:
        if mutant is not None:
            fn, *edits = mutant
            replacement = source_mutant(fn, *edits)
            for name, module in list(sys.modules.items()):
                if name.startswith(PACKAGE):
                    classes = [v for v in vars(module).values()
                               if isinstance(v, type) and v.__module__ == name]
                    for owner in (module, *classes):
                        if vars(owner).get(fn.__name__) is fn:
                            patch.setattr(owner, fn.__name__, replacement)
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


def test_the_centralizer_check_survives_a_loosened_invertibility_test(monkeypatch):
    # why the centralizer's invertibility test is pinned by tier-1, not by verify
    assert run_under(KEEPS_SUMS_WITH_ONE_POINT_TO_ZERO, "groups/centralizer", monkeypatch).passed


def test_the_orbit_route_is_read_by_the_p_catalog_alone(monkeypatch):
    # the P's come from their pins, so a fault in the orbit sums shows in
    # polys/P-catalog and in no other check
    results = {cid: run_under(ORBIT_SUMS_OF_THE_FIRST_GENERATOR, cid, monkeypatch) for cid in REGISTRY}
    assert [cid for cid, result in results.items() if not result.passed] == ["polys/P-catalog"]
    assert results["polys/P-catalog"].actual == (
        "raised ConstructionError: P1 disagrees with its known expansion")


def test_the_roundtrip_survives_a_kept_constant_term(monkeypatch):
    # why polys/roundtrip is not in the slice of anf_from_pointset
    assert run_under(KEEPS_THE_CONSTANT_TERM, "polys/roundtrip", monkeypatch).passed


def test_a_mutant_of_an_annotated_function_compiles():
    # source_mutant compiles with postponed annotations: Run is imported
    # into cli for type checking only
    mutant = source_mutant(cli.suite_groups, ('"groups"', '"spread"'))
    results = mutant(Run(0))
    assert [r.id for r in results] == [c.id for c in REGISTRY.values() if c.suite == "spread"]
    assert len(results) == 13 and all(r.passed for r in results)
