"""No vacuous check: a check id FAILs when the route it reads is broken.

A mutant is a layer function or method of `src` with one edit in its
source text (`source_mutant`), or two where one change of meaning spans
two places. It replaces that function in every package module, and every
package class, that holds it, and never changes an expected literal in
`checks.py`. The package caches are
cleared before and after each run, so the mutant is seen by that run
alone.

This table holds twenty-two slices: the invariant-solving kernel, `gf2._kernel`,
and the checks that read it; the incidence scan's plan, `anf._quotient_plan`,
and the `polys/incidence/*` checks that read it; the stabilizer chain,
`groups.stabilizer_chain`, and the `groups/chain/*` checks that read its
orders; the point orbits, `orbits.point_orbits`, and the `orbits/*` and
`table1/*` checks that read the partition; the line split,
`orbits.line_orbit_split`, and the `spread/*` checks that read its classes;
the spread, `orbits.spread_from_w`, and the checks that count its lines
and their points;
the substitution, `anf.substitute`, and `polys/degree-preserved`; and the
Moebius transform, `anf.mobius`, and the product and round-trip checks
that read it; the polar form, `anf.symplectic_form`, and the
`polys/form/*` checks; the closure, `groups.closure`, and the closure and
parity checks that read its counts and image sets; the stabilizer,
`groups.stabilizer_of_point`, and the checks on the stabilizer of u; the
inverse, `gf2.GFMatrix.inverse`, and `groups/W/normalized`; and the
membership test, `groups.MatrixGroup.__contains__`, and
`groups/parity/out`; the monomial orbit sums, `anf.monomial_orbit_poly`,
and `polys/P-catalog`, the one check that reads them; the point-set
equation, `anf.anf_from_pointset`, and the two checks that compare the
Q's with it; the flats' canonical basis, `gf2._rref`, and the
`orbits/*` checks that read the model's flats and tangents; the named
catalog, `groups.named_elements`, and the checks that read Jx, W and C;
the evaluation, `anf.Anf.evaluate`, and the seven-table values; the zero
set, `anf.Anf.pointset`, and the seven-table zero counts; the triplet,
`orbits.segre_triplet`, and the triplet and parity checks; the definitional
classes, `orbits.definitional_orbits`, and the checks on the 81 points and
the O1 lines; and the named Q's, `anf.named_Q`, and `polys/degree/*`.  The
one id with no mutant, `spread/lines`, holds by an identity and is on the
list `HOLDS_BY_AN_IDENTITY`.
"""

import sys

import pytest

from segre_pg72 import cli
from segre_pg72.anf import (
    Anf,
    _quotient_plan,
    anf_from_pointset,
    invariant_subspace,
    mobius,
    monomial_orbit_poly,
    named_Q,
    substitute,
    symplectic_form,
)
from segre_pg72.checks import REGISTRY, SEVEN_TABLE, Run
from segre_pg72.gf2 import GFMatrix, _kernel, _rref
from segre_pg72.groups import (
    MatrixGroup,
    centralizer_in_gl,
    closure,
    element,
    named_elements,
    stabilizer_chain,
    stabilizer_of_point,
)
from segre_pg72.orbits import (
    definitional_orbits,
    line_orbit_split,
    point_orbits,
    segre_triplet,
    spread_from_w,
)
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
# the spread keeps every W-orbit but the first: 84 lines on 252 points.
# Each line left is still a line, so spread/lines passes under it
DROPS_THE_FIRST_W_ORBIT = (spread_from_w, ("for cls in classes))", "for cls in classes[1:]))"))
# the spread of the orbits of Ax, not W: again 85 lines on all 255 points
ORBITS_OF_AX = (spread_from_w, ('element("W")', 'element("Ax")'))

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

# the closure stops at the first generator's cyclic group: each group comes
# out a proper subgroup, and the paired involutions fall outside the even one
CLOSES_UNDER_THE_FIRST_GENERATOR = (closure, ("for g in generators:", "for g in generators[:1]:"))
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
    ("bytes(mat.cols) in self._images", "bool(self._images)"),
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
# the flats' basis handed back still mirrored (bit i at bit 7 - i): it spans
# another flat, and build_model raises on a tangent whose points are not
# collinear with its point
RETURNS_THE_MIRRORED_ROWS = (_rref, ("_MIRROR[r] for r", "r for r"))
# the catalog's Jx swaps the second slot, so it is Jy: the catalog row, J as
# the product of the three, and the fixed spaces of JxJy and JxJz go wrong
JX_SWAPS_THE_SECOND_SLOT = (
    named_elements,
    ("jx = tensor_operator(SWAP2, I2, I2)", "jx = tensor_operator(I2, SWAP2, I2)"),
)
# the catalog's W is C = Jx K12, of order 4 and not fixed-point free.  The
# spread then raises "W-orbit does not have three points", so spread/lines
# fails by the raise alone and stays on the identity list
W_IS_C = (named_elements, ('w = GFMatrix(map(parse_point, _VALIDATION["W"].split()))', "w = jx * k12"))
# the catalog's C is Jx K13: it no longer cycles the tetrad
C_FROM_K13 = (named_elements, ("c = jx * k12", "c = jx * k13"))
# a polynomial's value at x read at x + u: each value table of the seven
# classes goes wrong, and no other check evaluates a polynomial point by point
EVALUATES_AT_THE_COMPLEMENT = (Anf.evaluate, ("_SUBSETS[x]", "_SUBSETS[x ^ UNIT]"))
# the zero set keeps bit 0, the zero vector: every zero count is one too high
ZERO_SET_HOLDS_THE_ZERO_VECTOR = (Anf.pointset, ("& TABLE_FULL & ~1", "& TABLE_FULL"))
# S' built as W^2(S), so it is S'': the triplet is no longer disjoint, no
# longer covers O4, and parity no longer splits S' from S''
S_PRIME_IS_S_DOUBLE_PRIME = (
    segre_triplet,
    ("s1 = frozenset(w(p) for p in s)", "s1 = frozenset(w(w(p)) for p in s)"),
)
# O4 takes each distinguished tangent's points but the smallest: the points
# it misses fall into O1, so the 81 points off the 5-flats and the O1 lines
# change
O4_DROPS_THE_SMALLEST_TANGENT_POINT = (
    definitional_orbits,
    ("o4.update(line)", "o4.update(sorted(line)[1:])"),
)
# each Q multiplied by P1: every degree goes up
EACH_Q_TIMES_P1 = (named_Q, ("_sum_of(text, p) for name", '_sum_of(text, p) * p["P1"] for name'))
# the flats' basis handed back by highest mirrored bit, that is by lowest
# bit descending: still canonical, so every flat compares as before and
# all 98 ids pass.  The flat bases printed by `verify all --format json`
# and `export model` change, so the golden comparisons of tests/test_cli.py
# catch it
RETURNS_THE_ROWS_DESCENDING = (_rref, ("in reversed(rows)", "in rows"))

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
    **dict.fromkeys(["spread/count", "spread/cover"], DROPS_THE_FIRST_W_ORBIT),
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
    **dict.fromkeys(
        ["orbits/5-flat-incidence", "orbits/model-counts", "orbits/tangent-examples"],
        RETURNS_THE_MIRRORED_ROWS,
    ),
    **dict.fromkeys(
        ["groups/catalog", "groups/J-product", "groups/fix/JxJy", "groups/fix/JxJz"],
        JX_SWAPS_THE_SECOND_SLOT,
    ),
    **dict.fromkeys(
        [*(f"groups/W/{name}" for name in ("images", "order", "minpoly", "fix", "conj-J")),
         "spread/W-on-O2", "spread/W-on-O3"],
        W_IS_C,
    ),
    "spread/C-cycle": C_FROM_K13,
    **dict.fromkeys(
        [f"polys/seven-table/{name}/values" for name, *_ in SEVEN_TABLE], EVALUATES_AT_THE_COMPLEMENT
    ),
    **dict.fromkeys(
        [f"polys/seven-table/{name}/zeros" for name, *_ in SEVEN_TABLE], ZERO_SET_HOLDS_THE_ZERO_VECTOR
    ),
    **dict.fromkeys(
        ["orbits/triplet-disjoint", "orbits/triplet-union", "orbits/parity-split"],
        S_PRIME_IS_S_DOUBLE_PRIME,
    ),
    **dict.fromkeys(
        ["orbits/81-points", "orbits/O1-bisecants", "orbits/O1-externals"],
        O4_DROPS_THE_SMALLEST_TANGENT_POINT,
    ),
    **dict.fromkeys([f"polys/degree/{name}" for name in ("Q2", "Q4", "Q4'", "Q6")], EACH_Q_TIMES_P1),
}

# the ids that hold by an identity no mutant of their route can break, each
# with a test below that shows why
HOLDS_BY_AN_IDENTITY = {"spread/lines"}


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
    # every id has a mutant or a place on the identity list, and not both
    assert set(MUTANTS) | HOLDS_BY_AN_IDENTITY == set(REGISTRY)
    assert not set(MUTANTS) & HOLDS_BY_AN_IDENTITY


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


def test_the_spread_lines_check_holds_for_any_orbits_of_a_fixed_point_free_order_3_map(monkeypatch):
    # why spread/lines has no mutant: it holds by an identity.  A map c
    # with c^2 + c + I = 0 has c^2(p) = p + c(p), so each of its orbits
    # {p, c(p), c^2(p)} is a line.  W and Ax are two such maps with
    # different orbits, and dropping orbits leaves lines too
    ident = GFMatrix.identity()
    for name in ("W", "Ax"):
        c = element(name)
        assert (c * c) ^ c ^ ident == GFMatrix([0] * 8)
    assert source_mutant(*ORBITS_OF_AX)() != spread_from_w()
    for mutant in (DROPS_THE_FIRST_W_ORBIT, ORBITS_OF_AX):
        assert run_under(mutant, "spread/lines", monkeypatch).passed


def test_the_roundtrip_survives_a_kept_constant_term(monkeypatch):
    # why polys/roundtrip is not in the slice of anf_from_pointset
    assert run_under(KEEPS_THE_CONSTANT_TERM, "polys/roundtrip", monkeypatch).passed


def test_every_check_survives_a_basis_in_descending_order(monkeypatch):
    # why the row order of _rref is pinned by the golden outputs, not by
    # verify: the basis changes, and no check reads it
    assert source_mutant(*RETURNS_THE_ROWS_DESCENDING)([1, 2]) == (2, 1) != _rref([1, 2])
    assert all(run_under(RETURNS_THE_ROWS_DESCENDING, cid, monkeypatch).passed for cid in REGISTRY)


def test_a_mutant_of_an_annotated_function_compiles():
    # source_mutant compiles with postponed annotations: Run is imported
    # into cli for type checking only
    mutant = source_mutant(cli.suite_groups, ('"groups"', '"spread"'))
    results = mutant(Run(0))
    assert [r.id for r in results] == [c.id for c in REGISTRY.values() if c.suite == "spread"]
    assert len(results) == 13 and all(r.passed for r in results)
