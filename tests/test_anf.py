import random
from functools import cache
from itertools import combinations

import pytest

from segre_pg72.anf import (
    Anf,
    SEVEN_TABLE,
    _BY_DEGREE,
    _exists_even_flat,
    _flat_parities,
    anf_from_pointset,
    degree_by_incidence,
    flat_equation,
    invariant_subspace,
    mobius,
    monomial_orbit_poly,
    named_P_basis,
    named_Q,
    resolve_poly_name,
    substitute,
    symplectic_form,
)
from segre_pg72.checks import REGISTRY, Run
from segre_pg72.gf2 import (
    Flat,
    GFMatrix,
    UNIT,
    _echelon_layouts,
    span,
)
from segre_pg72.groups import closure, element, segre_group
from segre_pg72.orbits import definitional_orbits, orbit_mask
from segre_pg72.segre import build_model
from test_gf2 import echelon_bases, flats_of_dimension, ref_nullspace

E = [0] + [1 << i for i in range(8)]


def mask_of(points) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def brute_evaluate(coeffs: int, x: int) -> int:
    # independent of the subset-table fast path
    total = 0
    for t in range(256):
        if coeffs >> t & 1 and t & x == t:
            total ^= 1
    return total


def ref_flat_parities(d: int, table):
    # the slower route: a Gray-code walk over the points of every d-flat,
    # yielding each flat's parity in enumeration order
    seq = [(m & -m).bit_length() - 1 for m in range(1, 1 << (d + 1))]
    for rows in echelon_bases(d + 1):
        v = parity = 0
        for r in seq:
            v ^= rows[r]
            parity ^= table[v]
        yield parity


def ref_exists_even_flat(d: int, table) -> bool:
    return 0 in ref_flat_parities(d, table)


def ref_invariant_subspace(generators, max_degree: int) -> list[Anf]:
    # the slower route: one substitute per monomial, transpose, then a null
    # space on the pivot-scanning reference elimination
    monos = [t for t in range(1, 256) if t.bit_count() <= max_degree]
    rows = []
    for mat in generators:
        images = [substitute(Anf(1 << t), mat).coeffs for t in monos]
        for pos, u in enumerate(monos):
            mask = 1 << pos
            for i, img in enumerate(images):
                if img >> u & 1:
                    mask ^= 1 << i
            if mask:
                rows.append(mask)
    return [
        Anf(sum(1 << t for i, t in enumerate(monos) if sol >> i & 1))
        for sol in ref_nullspace(rows, len(monos))
    ]


INVARIANT_SET_CLASSES = [
    ("O5",) + extra for r in range(4) for extra in combinations(("O1", "O2", "O3", "O4"), r)
]
INCIDENCE_CASES = (
    [f"random-degree-{degree}" for degree in range(1, 8)]
    + ["all-points", "single-point"]
    + ["invariant-" + "+".join(classes) for classes in INVARIANT_SET_CLASSES]
)


@cache
def incidence_cases() -> dict[str, int]:
    """Point-set masks for the scan's differential test, by name."""
    rng = random.Random(11)
    cases = {}
    for degree in range(1, 8):
        # no constant term, so the set's indicator is the polynomial itself
        lower = sum(_BY_DEGREE[e] for e in range(1, degree))
        top = rng.choice([t for t in range(256) if t.bit_count() == degree])
        cases[f"random-degree-{degree}"] = Anf(rng.getrandbits(256) & lower | 1 << top).truth_table()
    cases["all-points"] = (1 << 256) - 2
    cases["single-point"] = 1 << UNIT
    orbs = definitional_orbits()
    for classes in INVARIANT_SET_CLASSES:
        cases["invariant-" + "+".join(classes)] = orbit_mask(orbs, *classes)
    return cases


class TestMobius:
    def test_involution_on_random_tables(self):
        rng = random.Random(1)
        for _ in range(200):
            t = rng.getrandbits(256)
            assert mobius(mobius(t)) == t

    def test_evaluate_matches_brute_force(self):
        rng = random.Random(2)
        for _ in range(30):
            f = Anf(rng.getrandbits(256))
            for _ in range(20):
                x = rng.randrange(256)
                assert f.evaluate(x) == brute_evaluate(f.coeffs, x)

    def test_truth_table_matches_evaluate(self):
        rng = random.Random(3)
        for _ in range(20):
            f = Anf(rng.getrandbits(256))
            t = f.truth_table()
            for x in range(256):
                assert t >> x & 1 == f.evaluate(x)


class TestPointsetEquation:
    def test_hyperplane_equation_is_linear(self):
        psi = mask_of(v for v in range(1, 256) if not v & 1)
        assert anf_from_pointset(psi) == Anf.variable(1)

    def test_all_points_give_zero_polynomial(self):
        psi = mask_of(range(1, 256))
        assert anf_from_pointset(psi) == Anf.zero()

    def test_roundtrip_on_orbit_unions(self):
        orbs = definitional_orbits()
        labels = ["O1", "O2", "O3", "O4", "O5"]
        for r in range(1, 6):
            for chosen in combinations(labels, r):
                psi = orbit_mask(orbs, *chosen)
                assert anf_from_pointset(psi).pointset() == psi

    def test_roundtrip_on_seeded_random_sets(self):
        rng = random.Random(2024)
        for _ in range(1000):
            psi = rng.getrandbits(256) & ~1
            assert anf_from_pointset(psi).pointset() == psi

    def test_degree_law_on_random_sets(self):
        # odd sets have degree at most 7; even proper sets have degree 8
        rng = random.Random(99)
        seen_odd = seen_even = 0
        while seen_odd < 100 or seen_even < 100:
            psi = rng.getrandbits(256) & ~1
            d = anf_from_pointset(psi).degree
            if psi.bit_count() % 2:
                assert d <= 7
                seen_odd += 1
            elif psi != mask_of(range(1, 256)) and psi.bit_count() < 255:
                assert d == 8
                seen_even += 1

    def test_values_split_on_and_off_the_set(self):
        orbs = definitional_orbits()
        psi = orbit_mask(orbs, "O2", "O4", "O5")
        q = anf_from_pointset(psi)
        assert q.evaluate(0) == 0
        for v in range(1, 256):
            assert q.evaluate(v) == (0 if psi >> v & 1 else 1)

    def test_rejects_a_zero_bit(self):
        with pytest.raises(ValueError):
            anf_from_pointset(1)


class TestArithmetic:
    def test_idempotent_reduction(self):
        x1 = Anf.variable(1)
        assert x1 * x1 == x1

    def test_distinct_variables_multiply_to_the_pair_monomial(self):
        assert Anf.variable(1) * Anf.variable(2) == Anf.monomial((1, 2))

    def test_product_is_pointwise(self):
        rng = random.Random(4)
        for _ in range(30):
            f, g = Anf(rng.getrandbits(256)), Anf(rng.getrandbits(256))
            h = f * g
            for _ in range(15):
                x = rng.randrange(256)
                assert h.evaluate(x) == (f.evaluate(x) & g.evaluate(x))

    def test_afterthought_identity(self):
        q = named_Q()
        assert q["Q2"] * q["Q4'"] + q["Q4"] + q["Q4'"] == q["Q6"]

    @pytest.mark.parametrize("indices", [(0,), (9,), (1, 1)])
    def test_bad_monomial_indices(self, indices):
        with pytest.raises(ValueError, match="bad monomial"):
            Anf.monomial(indices)

    @pytest.mark.parametrize("term", ["10", "9", "11"])
    def test_bad_monomial_string(self, term):
        with pytest.raises(ValueError, match="bad monomial"):
            Anf.from_monomial_strings([term])

    def test_monomial_string_roundtrip(self):
        q = named_Q()["Q6"]
        assert Anf.from_monomial_strings(q.monomial_strings()) == q

    def test_hex_roundtrip(self):
        rng = random.Random(5)
        for _ in range(20):
            f = Anf(rng.getrandbits(256))
            assert Anf.from_hex(f.to_hex()) == f


class TestFlatEquation:
    def test_coordinate_hyperplane(self):
        fl = span([v for v in (2, 4, 8, 16, 32, 64, 128)])
        assert flat_equation(fl) == Anf.variable(1)

    def test_line_has_degree_six(self):
        line = Flat(build_model().generators[(0, 0, 3)])
        eq = flat_equation(line)
        assert eq.degree == 6
        assert eq.pointset() == mask_of(line.points())

    def test_ambient_3_flats_have_degree_four(self):
        for fl in build_model().ambient_flats.values():
            assert flat_equation(fl).degree == 4

    def test_vanishing_set_is_the_flat(self):
        rng = random.Random(6)
        for _ in range(25):
            fl = span([rng.randrange(1, 256) for _ in range(rng.randrange(1, 6))])
            if fl.dim_projective == 7:
                continue
            eq = flat_equation(fl)
            assert eq.degree == 7 - fl.dim_projective
            assert eq.pointset() == mask_of(fl.points())

    def test_whole_space_rejected(self):
        with pytest.raises(ValueError):
            flat_equation(span([1 << i for i in range(8)]))


class TestDegreeByIncidence:
    def test_variety_has_degree_six_with_even_witness(self):
        model = build_model()
        psi = mask_of(model.point_set)
        assert degree_by_incidence(psi) == 6
        # the span of the four odd-position vertices and one opposite-face
        # point meets the variety evenly, in exactly those four vertices
        witness = span([E[1], E[3], E[5], E[7], E[2] ^ E[4] ^ E[6]])
        hits = [p for p in witness.points() if p in model.point_set]
        assert sorted(hits) == sorted([E[1], E[3], E[5], E[7]])
        # and a full even 5-flat exists, as the degree certificate requires
        even5 = next(
            fl
            for fl in flats_of_dimension(5)
            if sum(1 for p in fl.points() if psi >> p & 1) % 2 == 0
        )
        assert even5.dim_projective == 5

    def test_quartic_class_with_even_witness(self):
        orbs = definitional_orbits()
        psi = orbit_mask(orbs, "O2", "O5")
        assert degree_by_incidence(psi) == 4
        even3 = next(
            fl
            for fl in flats_of_dimension(3)
            if sum(1 for p in fl.points() if psi >> p & 1) % 2 == 0
        )
        hits = sum(1 for p in even3.points() if psi >> p & 1)
        assert hits % 2 == 0

    def test_single_point_has_degree_seven(self):
        psi = 1 << UNIT
        assert degree_by_incidence(psi) == 7
        assert anf_from_pointset(psi).degree == 7

    def test_agrees_with_anf_degree_on_quadric(self):
        orbs = definitional_orbits()
        psi = orbit_mask(orbs, "O2", "O4", "O5")
        assert degree_by_incidence(psi) == anf_from_pointset(psi).degree == 2

    def test_agrees_with_anf_degree_on_all_fifteen_invariant_sets(self):
        # every invariant zero set is O5 plus a union of the other classes
        orbs = definitional_orbits()
        for r in range(5):
            for extra in combinations(("O1", "O2", "O3", "O4"), r):
                psi = orbit_mask(orbs, "O5", *extra)
                if psi.bit_count() == 255:
                    continue
                assert degree_by_incidence(psi) == anf_from_pointset(psi).degree

    def test_even_sets_rejected(self):
        with pytest.raises(ValueError):
            degree_by_incidence(0b110)

    @pytest.mark.parametrize("name", INCIDENCE_CASES)
    def test_scan_agrees_with_the_gray_code_walk(self, name):
        psi = incidence_cases()[name]
        table = bytes(psi >> v & 1 for v in range(256))
        for d in range(8):
            assert _exists_even_flat(d, table) == ref_exists_even_flat(d, table), d

    @pytest.mark.parametrize("name", ["random-degree-3", "invariant-O5+O2+O4"])
    def test_every_flat_parity_agrees_with_the_gray_code_walk(self, name):
        psi = incidence_cases()[name]
        table = bytes(psi >> v & 1 for v in range(256))
        for d in range(8):
            scanned = b"".join(_flat_parities(lay, table) for lay in _echelon_layouts(d + 1))
            assert scanned == bytes(ref_flat_parities(d, table)), d

    def test_random_sets_have_their_exact_degree(self):
        for degree in range(1, 8):
            psi = incidence_cases()[f"random-degree-{degree}"]
            assert not psi & 1
            assert Anf(mobius(psi)).degree == degree

    def test_scanned_invariant_sets_are_the_fifteen_proper_ones(self):
        # O5 with any three of O1..O4 still misses a class; all four would be every point
        sets = [psi for name, psi in incidence_cases().items() if name.startswith("invariant-")]
        assert len(set(sets)) == 15
        assert all(psi.bit_count() < 255 for psi in sets)


class TestSubstitute:
    def test_coordinate_swap(self):
        assert substitute(Anf.variable(1), element("Jx")) == Anf.variable(2)

    def test_invariance_of_the_quadric(self):
        q2 = named_Q()["Q2"]
        assert substitute(q2, element("M")) == q2
        assert substitute(q2, element("N")) == q2

    def test_degree_preserved_on_seeded_samples(self):
        rng = random.Random(7)
        mats = []
        while len(mats) < 100:
            m = GFMatrix([rng.randrange(256) for _ in range(8)])
            if m.is_invertible():
                mats.append(m)
        for m in mats:
            f = Anf(rng.getrandbits(256))
            assert substitute(f, m).degree == f.degree

    def test_composition_order(self):
        rng = random.Random(8)
        a, b = element("M"), element("N")
        for _ in range(20):
            f = Anf(rng.getrandbits(256))
            assert substitute(substitute(f, a), b) == substitute(f, a * b)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            substitute(Anf.variable(1), GFMatrix([1] * 8))


class TestNamedPolynomials:
    def test_p1_is_the_sum_of_variables(self):
        p1 = named_P_basis()["P1"]
        assert p1 == Anf.from_monomial_strings([str(i) for i in range(1, 9)])

    def test_orbit_sizes(self):
        sizes = {
            "P1": 8, "P2": 12, "P2'": 12, "P2''": 4, "P3": 24, "P3'": 8,
            "P3''": 24, "P4": 6, "P4'": 6, "P4''": 8, "P4'''": 2,
            "P4iv": 24, "P4v": 24, "P5": 8, "P6": 4,
        }
        for name, poly in named_P_basis().items():
            assert poly.coeffs.bit_count() == sizes[name]

    def test_p2pp_is_the_diagonal_quadric(self):
        assert named_P_basis()["P2''"] == Anf.from_monomial_strings(
            ["18", "27", "36", "45"]
        )

    def test_p4iv_contains_the_pinned_terms(self):
        poly = named_P_basis()["P4iv"]
        pinned = Anf.from_monomial_strings(
            ["1238", "1258", "1348", "1478", "1568", "1678"]
        )
        assert pinned.coeffs & ~poly.coeffs == 0

    def test_p5_is_a_reduced_product(self):
        p = named_P_basis()
        assert p["P5"] == p["P1"] * p["P4'''"]

    def test_p6_has_exactly_four_monomials(self):
        assert named_P_basis()["P6"].coeffs.bit_count() == 4

    def test_monomial_orbit_requires_permutations(self):
        grp = closure([element("Ax")])
        with pytest.raises(ValueError):
            monomial_orbit_poly((1, 8), grp)


class TestNamedQ:
    def test_q2_vanishes_on_the_quadric_classes(self):
        orbs = definitional_orbits()
        q2 = named_Q()["Q2"]
        assert q2.pointset() == orbit_mask(orbs, "O2", "O4", "O5")
        assert q2.evaluate(E[1]) == 0
        assert q2.evaluate(E[1] ^ E[8]) == 1

    def test_q4_closed_form(self):
        p = named_P_basis()
        assert named_Q()["Q4"] == p["P2''"] + p["P3'"] + p["P4'''"] + p["P4v"]

    def test_q4p_closed_form(self):
        p = named_P_basis()
        assert named_Q()["Q4'"] == p["P2'"] + p["P3'"] + p["P3''"] + p["P4'"]

    def test_q6_closed_form(self):
        p = named_P_basis()
        assert named_Q()["Q6"] == (
            p["P2'"] + p["P2''"] + p["P3''"] + p["P4'"]
            + p["P4'''"] + p["P4v"] + p["P5"] + p["P6"]
        )

    def test_q6_cuts_out_the_variety(self):
        q6 = named_Q()["Q6"]
        assert q6.pointset() == mask_of(build_model().point_set)
        assert q6.degree == 6

    def test_q6p_vanishes_off_o1(self):
        orbs = definitional_orbits()
        assert named_Q()["Q6'"].pointset() == orbit_mask(
            orbs, "O2", "O3", "O4", "O5"
        )

    def test_degrees(self):
        q = named_Q()
        assert {n: q[n].degree for n in q} == {
            "Q2": 2, "Q4": 4, "Q4'": 4, "Q6": 6, "Q6'": 6,
        }


class TestSevenTable:
    def test_every_row_passes(self):
        results = Run().ids(cid for cid in REGISTRY if "/seven-table/" in cid)
        assert len(results) == 14
        for result in results:
            assert result.passed, result

    def test_zero_set_sizes(self):
        sizes = [size for _, _, size in SEVEN_TABLE]
        assert sizes == [135, 81, 189, 39, 201, 93, 135]

    def test_resolver_rejects_unknown_names(self):
        with pytest.raises(KeyError):
            resolve_poly_name("Q3")


class TestInvariantSubspace:
    def test_cube_group_dimension_at_degree_four(self):
        assert len(invariant_subspace([element("M"), element("K12")], 4)) == 13

    def test_full_group_dimensions(self):
        gens = [element("M"), element("N")]
        assert len(invariant_subspace(gens, 2)) == 1
        assert len(invariant_subspace(gens, 4)) == 3
        assert len(invariant_subspace(gens, 7)) == 4

    def test_quadratic_invariant_is_the_quadric(self):
        gens = [element("M"), element("N")]
        basis = invariant_subspace(gens, 2)
        assert basis == [named_Q()["Q2"]]

    def test_nesting_of_levels(self):
        gens = [element("M"), element("N")]
        prev: list[Anf] = []
        dims = []
        for d in range(2, 8):
            basis = invariant_subspace(gens, d)
            dims.append(len(basis))
            span_now = {Anf.zero().coeffs}
            for b in basis:
                span_now |= {x ^ b.coeffs for x in span_now}
            for f in prev:
                assert f.coeffs in span_now
            prev = basis
        assert dims == [1, 1, 3, 3, 4, 4]

    def test_census_of_the_fifteen_invariants(self):
        basis = invariant_subspace([element("M"), element("N")], 7)
        elements = {0}
        for b in basis:
            elements |= {x ^ b.coeffs for x in elements}
        elements.discard(0)
        assert len(elements) == 15
        census: dict[int, int] = {}
        for c in elements:
            d = Anf(c).degree
            census[d] = census.get(d, 0) + 1
        assert census == {2: 1, 4: 6, 6: 8}

    def test_named_invariants_lie_in_the_space(self):
        basis = invariant_subspace([element("M"), element("N")], 7)
        elements = {0}
        for b in basis:
            elements |= {x ^ b.coeffs for x in elements}
        q = named_Q()
        for name in ("Q2", "Q4", "Q4'", "Q6", "Q6'"):
            assert q[name].coeffs in elements

    def test_every_member_is_invariant(self):
        gens = [element("M"), element("N")]
        for b in invariant_subspace(gens, 7):
            for g in gens:
                assert substitute(b, g) == b

    @pytest.mark.parametrize(
        "names",
        [("M", "N"), ("M'", "N"), ("M", "K12"), ("M",), ("W",), ("M", "N", "K12"), ("M'", "N", "K")],
        ids=",".join,
    )
    def test_agrees_with_substitution_route_on_named_groups(self, names):
        gens = [element(n) for n in names]
        for d in range(1, 9):
            assert invariant_subspace(gens, d) == ref_invariant_subspace(gens, d), d

    def test_agrees_with_substitution_route_on_seeded_pairs(self):
        rng = random.Random(12)
        pairs = [rng.sample(segre_group().elements, 2) for _ in range(2)]
        while len(pairs) < 4:
            pair = [GFMatrix([rng.randrange(256) for _ in range(8)]) for _ in range(2)]
            if all(m.is_invertible() for m in pair):
                pairs.append(pair)
        for gens in pairs:
            for d in range(1, 9):
                assert invariant_subspace(gens, d) == ref_invariant_subspace(gens, d), d

    def test_agrees_with_substitution_route_on_seeded_singles_and_triples(self):
        rng = random.Random(13)
        elements = segre_group().elements
        sets = [rng.sample(elements, 1), rng.sample(elements, 3)]
        for size in (1, 3):
            gens = []
            while not gens or not all(m.is_invertible() for m in gens):
                gens = [GFMatrix([rng.randrange(256) for _ in range(8)]) for _ in range(size)]
            sets.append(gens)
        for gens in sets:
            for d in range(1, 9):
                assert invariant_subspace(gens, d) == ref_invariant_subspace(gens, d), (len(gens), d)

    @pytest.mark.parametrize("gens", [[], [GFMatrix.identity()]], ids=["no-generators", "identity"])
    def test_trivial_groups_fix_every_monomial(self, gens):
        for d in range(1, 9):
            every = [Anf(1 << t) for t in range(1, 256) if t.bit_count() <= d]
            assert invariant_subspace(gens, d) == every, d
            assert ref_invariant_subspace(gens, d) == every, d

    @pytest.mark.parametrize("degree", [0, 9, -1])
    def test_degree_out_of_range_rejected(self, degree):
        with pytest.raises(ValueError, match="^degree must be between 1 and 8$"):
            invariant_subspace([element("M")], degree)

    def test_singular_generator_rejected(self):
        singular = GFMatrix([1, 2, 4, 8, 16, 32, 64, 64])
        for gens in ([element("M"), singular], [singular], [singular, element("M")]):
            with pytest.raises(ValueError, match="^substitution requires an invertible matrix$"):
                invariant_subspace(gens, 4)


class TestSymplecticForm:
    def test_example_values(self):
        assert symplectic_form(E[1], E[8]) == 1
        assert symplectic_form(E[1], E[2]) == 0

    def test_alternating(self):
        for x in range(1, 256):
            assert symplectic_form(x, x) == 0

    def test_bilinear_on_seeded_samples(self):
        rng = random.Random(10)
        for _ in range(300):
            x, y, z = (rng.randrange(256) for _ in range(3))
            assert symplectic_form(x ^ y, z) == (
                symplectic_form(x, z) ^ symplectic_form(y, z)
            )

    def test_gram_rank_is_eight(self):
        rows = []
        for i in range(1, 9):
            row = 0
            for j in range(1, 9):
                row |= symplectic_form(E[i], E[j]) << (j - 1)
            rows.append(row)
        assert GFMatrix.from_rows(rows).rank() == 8

    def test_invariance_under_the_generators(self):
        for g in (element("M"), element("N")):
            for x in range(0, 256, 7):
                for y in range(0, 256, 5):
                    assert symplectic_form(g(x), g(y)) == symplectic_form(x, y)
