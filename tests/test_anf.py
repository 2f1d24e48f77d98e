import random
from collections import Counter
from functools import cache
from itertools import combinations

import pytest

from refs import (
    brute_evaluate,
    buffer_even_counts,
    buffer_exists_even_flat,
    buffer_flat_parities,
    flats_of_dimension,
    gaussian_binomial_oracle,
    plan_layouts,
    ref_ascending_kernel,
    ref_coefficient_invariant_subspace,
    ref_coordinate_table,
    ref_coset_even_flats,
    ref_echelon_layouts,
    ref_exists_even_flat,
    ref_flat_equation,
    ref_flat_parities,
    ref_invariant_subspace,
    ref_monomial_orbit_poly,
    ref_natural_columns,
    ref_per_generator_columns,
    ref_per_generator_invariant_subspace,
    ref_product_tables,
    ref_substitute,
)
from segre_pg72 import anf
from segre_pg72.anf import (
    Anf,
    _BY_DEGREE,
    _MOBIUS_MASKS,
    _WIDEST,
    _byte_table,
    _even_bits,
    _product_tables,
    _quotient_plan,
    _tagged_monomial_tables,
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
from segre_pg72.checks import REGISTRY, SEVEN_TABLE, Run
from segre_pg72.gf2 import (
    Flat,
    GFMatrix,
    UNIT,
    _kernel,
    _set_bits,
    span,
)
from segre_pg72.groups import (
    MatrixGroup,
    closure,
    cube_group,
    element,
    elements,
    named_elements,
    segre_group,
    segre_group_even,
)
from segre_pg72.orbits import (
    orbit_mask,
    tetrad_five_flats,
    tetrad_three_flats,
)
from segre_pg72.segre import build_model
from support import (
    E,
    check_with,
    kernel_calls,
    mask_of,
    mirror,
    plan_flat,
    random_invertible,
    source_mutant,
    untagged,
)


@cache
def walk_exists_even_flat(name: str) -> tuple[bool, ...]:
    """Whether some d-flat meets a named incidence case evenly, d = 0..7, by the Gray-code walk."""
    psi = incidence_cases()[name]
    table = bytes(psi >> v & 1 for v in range(256))
    return tuple(ref_exists_even_flat(d, table) for d in range(8))


def quotient_exists_even_flat(d: int, psi: int, scan=_even_bits) -> bool:
    table = _byte_table(psi)
    return any(scan(entry, table) for entry in _quotient_plan(d + 1))


def quotient_even_counts(k: int, psi: int, plan=None, scan=_even_bits) -> list[int]:
    """Even flats per layout, in plan_layouts order, from the quotient scan.

    A layout is the pivots of an entry's rows of H plus row 0's pivot, the
    lowest bit of r; bit j of an entry's mask has r = perm[j % quot]."""
    table = _byte_table(psi)
    counts = Counter()
    for entry in plan or _quotient_plan(k):
        perm, rows, quot, _, _ = entry
        pivots = [perm[step] for step, _, _ in rows]
        bits = f"{scan(entry, table):b}"[::-1]
        for r in range(1, quot):
            counts[tuple(sorted(pivots + [perm[r] & -perm[r]]))] += bits[r::quot].count("1")
    return [counts[base_rows] for base_rows, _ in plan_layouts(k)]


@cache
def walk_parities(name: str) -> tuple[bytes, ...]:
    """Every flat's parity against a named case, from the Gray-code walk, per
    dimension d = 0..7 (about 2 s per case, so computed once)."""
    table = _byte_table(scan_case(name))
    return tuple(bytes(ref_flat_parities(d, table)) for d in range(8))


def walk_even_counts(k: int, name: str) -> list[int]:
    parities = iter(walk_parities(name)[k - 1])
    counts = {
        layout: sum(1 for _ in range(1 << len(layout[1])) if next(parities) == 0)
        for layout in ref_echelon_layouts(k)
    }
    return [counts[layout] for layout in plan_layouts(k)]


def solved_columns(solve, generators, max_degree: int) -> dict[int, int]:
    """The columns solve(generators, max_degree) hands to gf2._kernel as
    {monomial: column}, decoded from the tagged rows of its one call: the
    columns sit above 256 tags, as wide as the generators' blocks."""
    ((rows, nvars, width),) = kernel_calls(solve, generators, max_degree)
    assert (nvars, width) == (256, 256 + 256 * len(generators))
    return untagged(rows, nvars)


@cache
def seeded_segre_pairs() -> list[list[GFMatrix]]:
    """50 seeded pairs of elements of <M,N> (random.Random(77))."""
    rng = random.Random(77)
    return [rng.sample(segre_group().elements, 2) for _ in range(50)]


def invariant_mismatches(solve, generator_sets) -> list[tuple[int, int]]:
    """The (set, degree) pairs, d = 1..8, where solve differs from any
    reference route, or the references from each other."""
    return [
        (i, d)
        for i, gens in enumerate(generator_sets)
        for d in range(1, 9)
        if not solve(gens, d)
        == ref_per_generator_invariant_subspace(gens, d)
        == ref_invariant_subspace(gens, d)
        == ref_coefficient_invariant_subspace(gens, d)
    ]


INVARIANT_SET_CLASSES = [
    ("O5",) + extra for r in range(4) for extra in combinations(("O1", "O2", "O3", "O4"), r)
]
# random-degree-D is the truth table of a random polynomial of degree D, an
# even set; random-zeroset-D is the zero set of the same polynomial, odd
ZERO_SETS = [f"random-zeroset-{degree}" for degree in range(1, 8)]
INCIDENCE_CASES = (
    [f"random-degree-{degree}" for degree in range(1, 8)]
    + ZERO_SETS
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
        f = Anf(rng.getrandbits(256) & lower | 1 << top)
        cases[f"random-degree-{degree}"] = f.truth_table()
        cases[f"random-zeroset-{degree}"] = f.pointset()
    cases["all-points"] = (1 << 256) - 2
    cases["single-point"] = 1 << UNIT
    for classes in INVARIANT_SET_CLASSES:
        cases["invariant-" + "+".join(classes)] = orbit_mask(*classes)
    return cases


RANDOM_SETS = [f"random-{parity}-{i}" for i in range(20) for parity in ("odd", "even")]
SCAN_CASES = INCIDENCE_CASES + RANDOM_SETS
# the sets the Gray-code walk runs on, about 2 s each
WALK_SETS = ["random-degree-3", "invariant-O5+O2+O4", "random-odd-0", "random-even-0"]


@cache
def random_sets() -> dict[str, int]:
    """Seeded uniform point-set masks, 20 of odd and 20 of even size."""
    rng = random.Random(16)
    sets = {}
    while len(sets) < len(RANDOM_SETS):
        psi = rng.getrandbits(256) & ~1
        parity = "odd" if psi.bit_count() % 2 else "even"
        i = sum(name.startswith(f"random-{parity}-") for name in sets)
        if i < 20:
            sets[f"random-{parity}-{i}"] = psi
    return sets


def scan_case(name: str) -> int:
    return {**incidence_cases(), **random_sets()}[name]


class TestMobius:
    def test_involution_on_random_tables(self):
        rng = random.Random(1)
        for _ in range(200):
            t = rng.getrandbits(256)
            assert mobius(mobius(t)) == t

    @pytest.mark.parametrize("table", [-1, 1 << 256, 1 << 300])
    def test_out_of_range_tables_are_rejected(self, table):
        with pytest.raises(ValueError, match="^truth table out of range$"):
            mobius(table)

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
        assert anf_from_pointset(psi) == Anf.monomial((1,))

    def test_all_points_give_zero_polynomial(self):
        psi = mask_of(range(1, 256))
        assert anf_from_pointset(psi) == Anf.zero()

    def test_roundtrip_on_orbit_unions(self):
        # no label is the empty mask, and a label that names no class raises
        labels = ["O1", "O2", "O3", "O4", "O5"]
        for r in range(1, 6):
            for chosen in combinations(labels, r):
                psi = orbit_mask(*chosen)
                assert anf_from_pointset(psi).pointset() == psi
        assert orbit_mask() == 0
        with pytest.raises(KeyError):
            orbit_mask("O6")

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
        psi = orbit_mask("O2", "O4", "O5")
        q = anf_from_pointset(psi)
        assert q.evaluate(0) == 0
        for v in range(1, 256):
            assert q.evaluate(v) == (0 if psi >> v & 1 else 1)

    def test_rejects_a_zero_bit(self):
        with pytest.raises(ValueError):
            anf_from_pointset(1)


@pytest.mark.parametrize("route", [anf_from_pointset, degree_by_incidence])
@pytest.mark.parametrize("psi", [1, 3, -2, 1 << 256])
def test_point_set_masks_are_checked_alike(route, psi):
    with pytest.raises(ValueError, match="point-set mask must cover bits 1..255 only"):
        route(psi)


class TestArithmetic:
    def test_idempotent_reduction(self):
        x1 = Anf.monomial((1,))
        assert x1 * x1 == x1

    def test_distinct_variables_multiply_to_the_pair_monomial(self):
        assert Anf.monomial((1,)) * Anf.monomial((2,)) == Anf.monomial((1, 2))

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
        assert flat_equation(fl) == Anf.monomial((1,))

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

    def test_empty_flat_has_the_degree_eight_equation(self):
        eq = flat_equation(Flat.empty())
        assert eq.degree == 8
        assert eq.pointset() == 0

    def test_agrees_with_the_dual_form_route_on_the_model_and_tetrad_flats(self):
        model = build_model()
        families = {
            "generators": [Flat(line) for line in model.generators.values()],
            "sub_segres": [span(grid) for grid in model.sub_segres.values()],
            "ambient_flats": list(model.ambient_flats.values()),
            "z_flats": list(model.z_flats.values()),
            "tangents": [Flat(line) for line in model.tangents.values()],
            "tetrad_three_flats": list(tetrad_three_flats()),
            "tetrad_five_flats": list(tetrad_five_flats()),
        }
        for family, flats in families.items():
            assert flats, family
            for fl in flats:
                assert flat_equation(fl) == ref_flat_equation(fl), (family, fl)

    @pytest.mark.parametrize("dim", range(-1, 7))
    def test_agrees_with_the_dual_form_route_on_seeded_flats(self, dim):
        rng = random.Random(100 + dim)
        for _ in range(1 if dim == -1 else 20):
            fl = Flat.empty()
            while fl.dim_projective < dim:
                fl = Flat(fl.basis + (rng.randrange(1, 256),))
            eq = flat_equation(fl)
            assert eq == ref_flat_equation(fl), fl
            assert eq.degree == 7 - dim


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
        psi = orbit_mask("O2", "O5")
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
        psi = orbit_mask("O2", "O4", "O5")
        assert degree_by_incidence(psi) == anf_from_pointset(psi).degree == 2

    def test_agrees_with_anf_degree_on_all_fifteen_invariant_sets(self):
        # every invariant zero set is O5 plus a union of the other classes
        for r in range(5):
            for extra in combinations(("O1", "O2", "O3", "O4"), r):
                psi = orbit_mask("O5", *extra)
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
        for d, expected in enumerate(walk_exists_even_flat(name)):
            assert buffer_exists_even_flat(d, table) == expected, d
            assert quotient_exists_even_flat(d, psi) == expected, d

    @pytest.mark.parametrize("name", ZERO_SETS)
    def test_zero_sets_have_no_even_flat_from_their_degree(self, name):
        # the even random-degree sets meet some flat evenly at every d, so
        # only these rows tell a scan from one that always finds an even flat
        degree = int(name.rsplit("-", 1)[1])
        assert walk_exists_even_flat(name).index(False) == degree

    def test_an_always_even_scan_fails_every_zero_set_row(self):
        def always_even(entry, table):
            return 1

        for name in ZERO_SETS:
            psi = incidence_cases()[name]
            answers = [quotient_exists_even_flat(d, psi, always_even) for d in range(8)]
            assert answers != list(walk_exists_even_flat(name)), name

    @pytest.mark.parametrize("name", WALK_SETS)
    def test_every_flat_parity_agrees_with_the_gray_code_walk(self, name):
        table = _byte_table(scan_case(name))
        for d in range(8):
            layouts = ref_echelon_layouts(d + 1)
            scanned = b"".join(buffer_flat_parities(lay, table) for lay in layouts)
            assert scanned == walk_parities(name)[d], d

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


# one-edit mutants of the quotient scan, each with the edit it makes
QUOTIENT_MUTANTS = {
    # every row folds psi with itself, not with its translate by the pivot
    "pivot-fold-dropped": (_even_bits, ("t >> step & keep", "t & keep")),
    # each row loses its top free column, so the plan misses flats
    "top-free-column-dropped": (
        _quotient_plan, ("if col > order[b]]", "if col > order[b]][:-1]"),
    ),
    # targets run one table past the packed table, where every parity reads even
    "targets-one-table-too-long": (
        _quotient_plan,
        ("_tiled((1 << below) - 2, below, width)", "_tiled((1 << below) - 2, below, 2 * width)"),
    ),
    # row 0 over every nonzero representative: flats of other entries again
    "targets-every-representative": (
        _quotient_plan,
        ("1 << (pivots[0] if pivots else DIM)", "1 << len(low)"),
    ),
}


class TestCosetScan:
    """anf._even_bits, the quotient-table scan, against the coset-table scan
    it replaced, the byte-buffer scan, the Gray-code walk and brute force."""

    @pytest.mark.parametrize("name", SCAN_CASES)
    def test_even_flat_counts_agree_with_the_byte_buffer_scan(self, name):
        psi = scan_case(name)
        for k in range(1, 9):
            assert quotient_even_counts(k, psi) == buffer_even_counts(k, psi), k

    @pytest.mark.parametrize("name", WALK_SETS)
    def test_even_flat_counts_agree_with_the_gray_code_walk(self, name):
        psi = scan_case(name)
        for k in range(1, 9):
            assert quotient_even_counts(k, psi) == walk_even_counts(k, name), k

    def test_random_sets_have_both_parities(self):
        sizes = [psi.bit_count() % 2 for psi in random_sets().values()]
        assert len(set(random_sets().values())) == 40
        assert sizes.count(1) == sizes.count(0) == 20

    @pytest.mark.parametrize("k", range(1, 9))
    def test_the_plans_cover_every_flat_once(self, k):
        counts = []
        for perm, rows, quot, origins, targets in _quotient_plan(k):
            counts.append(targets.bit_count())
            # one quot-bit table per fill of the rows, within the masks
            width = quot << sum(len(doublings) for _, _, doublings in rows)
            assert width <= _WIDEST
            assert width - quot < origins.bit_length() <= width
            assert targets.bit_length() <= width
        assert counts == sorted(counts)
        assert sum(counts) == gaussian_binomial_oracle(8, k)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_the_coordinate_tables_are_the_flip_doubled_ones(self, k):
        # per pivot set, the quotient columns low and the pivots high
        expected = {
            ref_coordinate_table([c for c in range(8) if c not in pivots] + list(pivots))
            for pivots in combinations(range(1, 8), k - 1)
        }
        tables = [perm for perm, _, _, _, _ in _quotient_plan(k)]
        assert len(tables) == len(expected)
        assert set(tables) == expected

    def test_each_plan_entry_builds_its_table_with_one_point_table(self, monkeypatch):
        seen = []

        def spy(cols):
            seen.append(list(cols))
            return point_table(seen[-1])

        point_table = anf._point_table
        monkeypatch.setattr(anf, "_point_table", spy)
        for k in range(1, 9):
            anf._quotient_plan.cache_clear()
            seen.clear()
            plan = anf._quotient_plan(k)
            assert len(seen) == len(plan)
            assert all(sorted(rows) == [1 << c for c in range(8)] for rows in seen)
        anf._quotient_plan.cache_clear()

    # every k on one set; the costly middle k (about 1-3 s each) once
    @pytest.mark.parametrize("name, k", [
        *(("random-odd-1", k) for k in range(1, 9)),
        *(("invariant-O5+O2", k) for k in (1, 2, 6, 7, 8)),
    ])
    def test_block_and_bit_name_the_even_flat(self, name, k):
        psi = scan_case(name)
        table = _byte_table(psi)
        bits = [(entry, _set_bits(_even_bits(entry, table))) for entry in _quotient_plan(k)]
        named = [plan_flat(entry, bit) for entry, found in bits for bit in found]
        expected = {
            fl for fl in flats_of_dimension(k - 1)
            if bytes(fl.points()).translate(table).count(1) % 2 == 0
        }
        assert len(named) == len(expected)
        assert set(named) == ref_coset_even_flats(k, psi) == expected

    @pytest.mark.parametrize("name", QUOTIENT_MUTANTS)
    def test_the_differential_catches_a_mutant(self, name):
        fn, edit = QUOTIENT_MUTANTS[name]
        mutant = source_mutant(fn, edit)
        caught = set()
        for case in SCAN_CASES[:4]:
            psi = scan_case(case)
            for k in range(1, 9):
                plan, scan = (mutant(k), _even_bits) if fn is _quotient_plan else (_quotient_plan(k), mutant)
                if quotient_even_counts(k, psi, plan, scan) != buffer_even_counts(k, psi):
                    caught.add(k)
        assert caught

    def test_origins_past_the_table_are_harmless(self):
        # a surviving mutant: origins only select from the table, so the
        # origins mask may run past it without changing a bit
        mutant = source_mutant(_quotient_plan, ("_tiled(1, quot, width)", "_tiled(1, quot, 2 * width)"))
        table = _byte_table(scan_case("random-odd-1"))
        for k in range(1, 9):
            assert [_even_bits(e, table) for e in mutant(k)] == [
                _even_bits(e, table) for e in _quotient_plan(k)
            ]

    def test_the_degree_route_calls_neither_mobius_nor_anf(self, monkeypatch):
        q = named_Q()
        zero_sets = {name: q[name].pointset() for name in ("Q2", "Q4", "Q4'", "Q6")}
        randoms = {degree: incidence_cases()[f"random-zeroset-{degree}"] for degree in range(1, 8)}

        def refuse(*args):
            raise AssertionError("the incidence route reached the coefficient algebra")

        monkeypatch.setattr(anf, "mobius", refuse)
        monkeypatch.setattr(anf, "Anf", refuse)
        anf._quotient_plan.cache_clear()
        assert {name: degree_by_incidence(psi) for name, psi in zero_sets.items()} == {
            "Q2": 2, "Q4": 4, "Q4'": 4, "Q6": 6,
        }
        assert {d: degree_by_incidence(psi) for d, psi in randoms.items()} == {d: d for d in randoms}


class TestSubstitute:
    def test_coordinate_swap(self):
        assert substitute(Anf.monomial((1,)), element("Jx")) == Anf.monomial((2,))

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

    def test_a_matrix_argument_that_is_no_matrix_is_rejected(self):
        with pytest.raises(ValueError, match="^not a matrix: 1$"):
            substitute(Anf(2), 1)

    def test_agrees_with_the_per_bit_route_on_seeded_pairs(self):
        rng = random.Random(14)
        for _ in range(200):
            f, mat = Anf(rng.getrandbits(256)), random_invertible(rng)
            assert substitute(f, mat) == ref_substitute(f, mat)

    @pytest.mark.parametrize("name", list(named_elements()))
    def test_agrees_with_the_per_bit_route_on_the_named_elements(self, name):
        mat = element(name)
        rng = random.Random(15)
        polys = [Anf(rng.getrandbits(256)) for _ in range(5)]
        polys += list(named_P_basis().values()) + list(named_Q().values())
        for f in polys:
            assert substitute(f, mat) == ref_substitute(f, mat), f


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

    @pytest.mark.parametrize("name,keep", [
        ("P4iv", slice(1, None)), ("P4iv", slice(None, -1)), ("P3''", slice(None, -1)),
    ], ids=["P4iv-first", "P4iv-last", "P3''-last"])
    def test_one_dropped_expansion_term_is_caught(self, name, keep):
        terms = anf._P_EXPANSIONS[name][keep]
        result = check_with(named_P_basis, anf._P_EXPANSIONS, name, terms, "polys/P-catalog")
        assert (result.actual, result.passed) == (
            f"raised ConstructionError: {name} disagrees with its known expansion", False)
        assert named_P_basis()[name].coeffs.bit_count() == 24

    def test_p5_is_a_reduced_product(self):
        p = named_P_basis()
        assert p["P5"] == p["P1"] * p["P4'''"]

    def test_p6_has_exactly_four_monomials(self):
        assert named_P_basis()["P6"].coeffs.bit_count() == 4

    def test_monomial_orbit_requires_permutations(self):
        grp = closure([element("Ax")])
        with pytest.raises(ValueError, match="^group contains a non-permutation matrix$"):
            monomial_orbit_poly((1, 8), grp)
        # every column a unit vector, but not a permutation: the matrix is
        # singular, so the group cannot be built and the orbit never starts
        with pytest.raises(ValueError, match="^group generators must be invertible$"):
            MatrixGroup([GFMatrix([E[1]] * 8)])

    @pytest.mark.parametrize("rep", [(9,), (0,), (1, 1)], ids=["9", "0", "1,1"])
    def test_monomial_orbit_rejects_bad_indices(self, rep):
        with pytest.raises(ValueError, match="^bad monomial indices"):
            monomial_orbit_poly(rep, cube_group())

    @pytest.mark.parametrize("label", ["M,K12", "K12,K13", "C"])
    def test_monomial_orbit_agrees_with_index_map_reference(self, label):
        group = cube_group() if label == "M,K12" else MatrixGroup(elements(label))
        for t in range(1, 256):
            rep = [i + 1 for i in range(8) if t >> i & 1]
            assert monomial_orbit_poly(rep, group) == ref_monomial_orbit_poly(rep, group), rep


class TestNamedQ:
    def test_q2_vanishes_on_the_quadric_classes(self):
        q2 = named_Q()["Q2"]
        assert q2.pointset() == orbit_mask("O2", "O4", "O5")
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
        assert named_Q()["Q6'"].pointset() == orbit_mask("O2", "O3", "O4", "O5")

    @pytest.mark.parametrize("name,text,cid,actual", [
        ("Q4", "P2''+P3'+P4'''+P4iv", "polys/Q-catalog",
         "raised ConstructionError: Q4 closed form disagrees with its geometric route"),
        # Q2's point-set route is a check of its own, which reports the mutant's value
        ("Q2", "P2'", "polys/Q2-geometric", "Anf(degree=2, terms=12)"),
        ("Q6'", "P4+P6", "polys/Q-catalog",
         "raised ConstructionError: simple sextic does not vanish off O1"),
    ], ids=["Q4", "Q2", "Q6'"])
    def test_one_swapped_closed_form_term_is_caught(self, name, text, cid, actual):
        result = check_with(named_Q, anf._Q_CLOSED_FORMS, name, text, cid)
        assert (result.actual, result.passed) == (actual, False)
        assert named_Q()[name].degree == int(name[1])

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
        # and with the coefficient-column route
        assert invariant_mismatches(invariant_subspace, [[element(n) for n in names]]) == []

    def test_agrees_with_substitution_route_on_seeded_pairs(self):
        rng = random.Random(12)
        pairs = [rng.sample(segre_group().elements, 2) for _ in range(2)]
        while len(pairs) < 4:
            pair = [GFMatrix([rng.randrange(256) for _ in range(8)]) for _ in range(2)]
            if all(m.is_invertible() for m in pair):
                pairs.append(pair)
        assert invariant_mismatches(invariant_subspace, pairs) == []

    def test_agrees_with_substitution_route_on_seeded_singles_and_triples(self):
        rng = random.Random(13)
        elements = segre_group().elements
        sets = [rng.sample(elements, 1), rng.sample(elements, 3)]
        for size in (1, 3):
            gens = []
            while not gens or not all(m.is_invertible() for m in gens):
                gens = [GFMatrix([rng.randrange(256) for _ in range(8)]) for _ in range(size)]
            sets.append(gens)
        assert invariant_mismatches(invariant_subspace, sets) == []

    @pytest.mark.parametrize(
        "group, seed",
        [(segre_group, 21), (segre_group_even, 22), (cube_group, 23)],
        ids=["M,N", "M',N", "M,K12"],
    )
    def test_agrees_with_both_routes_on_seeded_pairs_from_each_group(self, group, seed):
        rng = random.Random(seed)
        pairs = [rng.sample(group().elements, 2) for _ in range(10)]
        assert invariant_mismatches(invariant_subspace, pairs) == []

    def test_agrees_with_both_routes_on_seeded_invertible_pairs_and_triples(self):
        rng = random.Random(17)
        sets = [[random_invertible(rng) for _ in range(size)] for size in (2, 3) * 3]
        assert invariant_mismatches(invariant_subspace, sets) == []

    def test_the_differential_catches_a_column_without_the_monomial(self):
        # column T is the table of x_T o A alone, not of x_T o A - x_T
        mutant = source_mutant(invariant_subspace, ("tt[t] ^ tagged[t]", "tt[t] ^ 1 << t"))
        gens = [element("M"), element("N")]
        assert [len(mutant(gens, d)) for d in range(2, 8)] != [1, 1, 3, 3, 4, 4]
        assert invariant_mismatches(mutant, [gens])

    @pytest.mark.parametrize(
        "group, seed",
        [(segre_group, 24), (segre_group_even, 25), (cube_group, 26)],
        ids=["M,N", "M',N", "M,K12"],
    )
    def test_each_column_mirrors_the_natural_truth_tables(self, group, seed):
        # generator 0's block highest and point x at bit x ^ 255: the column
        # is the natural one reversed over all its bits, the bit order that
        # costs _kernel's highest-bit elimination the fewest row additions
        rng = random.Random(seed)
        sets = [list(group().generators)] + [rng.sample(group().elements, 2) for _ in range(3)]
        sets.append([random_invertible(rng) for _ in range(2)])
        for gens in sets:
            for d in (2, 8):
                natural = ref_natural_columns(gens, d)
                columns = solved_columns(invariant_subspace, gens, d)
                assert columns.keys() == natural.keys()
                width = 256 * len(gens)
                assert all(columns[t] == mirror(c, width) for t, c in natural.items()), d

    def test_the_layout_check_catches_an_unmirrored_block_order(self):
        # generator 0's block lowest: the same invariants, the other layout
        mutant = source_mutant(invariant_subspace, ("for mat in generators:", "for mat in generators[::-1]:"))
        gens = [element("M"), element("N")]
        assert mutant(gens, 7) == invariant_subspace(gens, 7)
        width = 256 * len(gens)
        columns = solved_columns(mutant, gens, 7)
        assert columns != {t: mirror(c, width) for t, c in ref_natural_columns(gens, 7).items()}

    def test_the_columns_equal_the_per_generator_build(self):
        # one recurrence over the generators' blocks side by side makes
        # every block bit for bit, at every degree and for 1-3 generators
        rng = random.Random(27)
        elements = segre_group().elements
        sets = [list(group().generators) for group in (segre_group, segre_group_even, cube_group)]
        sets += [rng.sample(elements, size) for size in (1, 2, 3)]
        sets += [[random_invertible(rng) for _ in range(size)] for size in (1, 2, 3, 3)]
        for gens in sets:
            for d in range(1, 9):
                columns = solved_columns(invariant_subspace, gens, d)
                assert columns == ref_per_generator_columns(gens, d), (len(gens), d)

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 5])
    def test_the_repeated_monomial_tables_hold_one_block_per_generator(self, count):
        # the tagged tables: one block per generator above the 256 tags,
        # plus monomial T's own tag
        natural = ref_product_tables(_MOBIUS_MASKS)
        expected = tuple(
            sum(m << 256 * k for k in range(1, count + 1)) | 1 << t for t, m in enumerate(natural)
        )
        assert _tagged_monomial_tables(count) == expected

    def test_the_kernel_agrees_with_the_ascending_kernel_it_replaced(self):
        # the tagged rows of 0-3 generators at every degree, solved by
        # _kernel and by the ascending kernel, equal as lists
        rng = random.Random(29)
        elements = segre_group().elements
        sets = [[]] + [list(group().generators) for group in (segre_group, segre_group_even, cube_group)]
        sets += [rng.sample(elements, size) for size in (1, 2, 3)]
        sets += [[random_invertible(rng) for _ in range(size)] for size in (1, 2, 3)]
        for gens in sets:
            for d in range(1, 9):
                ((rows, nvars, width),) = kernel_calls(invariant_subspace, gens, d)
                expected = ref_ascending_kernel(untagged(rows, nvars), nvars)
                assert _kernel(rows, nvars, width) == expected, (len(gens), d)
                assert [b.coeffs for b in invariant_subspace(gens, d)] == expected

    def test_the_kernel_agrees_with_the_ascending_kernel_on_seeded_pairs(self):
        for gens in seeded_segre_pairs():
            for d in range(1, 9):
                ((rows, nvars, width),) = kernel_calls(invariant_subspace, gens, d)
                assert _kernel(rows, nvars, width) == ref_ascending_kernel(untagged(rows, nvars), nvars)

    def test_shuffling_the_tagged_rows_never_changes_the_result(self):
        rng = random.Random(31)
        for gens in seeded_segre_pairs()[:10]:
            for d in (2, 5, 7, 8):
                ((rows, nvars, width),) = kernel_calls(invariant_subspace, gens, d)
                expected = _kernel(rows, nvars, width)
                for _ in range(3):
                    rng.shuffle(rows)
                    assert _kernel(rows, nvars, width) == expected, d

    def test_the_differential_catches_a_kernel_that_skips_the_reduction(self):
        # the tag rows kept with their lower tag pivots: on the generators
        # of <M,N> and <M',N> that shows at d = 8 alone (on M, K12 not at
        # all), so the seeded pairs carry the differential below it
        solve = source_mutant(invariant_subspace)
        solve.__globals__["_kernel"] = source_mutant(_kernel, ("m = r & pivots", "m = 0"))
        for group in (segre_group, segre_group_even):
            gens = list(group().generators)
            assert [d for d in range(1, 9) if solve(gens, d) != invariant_subspace(gens, d)] == [8]
        changed = [gens for gens in seeded_segre_pairs() if solve(gens, 7) != invariant_subspace(gens, 7)]
        assert len(changed) == 29
        assert all(
            solve(gens, 7) != ref_per_generator_invariant_subspace(gens, 7) for gens in changed
        )

    @pytest.mark.parametrize("names", [("M",), ("M", "N"), ("M", "N", "K12")], ids=",".join)
    def test_one_solve_makes_one_product_recurrence(self, names, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return _product_tables(*args)

        monkeypatch.setattr(anf, "_product_tables", counting)
        gens = [element(n) for n in names]
        for d in (1, 4, 8):
            calls.clear()
            invariant_subspace(gens, d)
            assert len(calls) == 1, d

    def test_the_solve_calls_no_mobius(self, monkeypatch):
        q2 = named_Q()["Q2"]
        gens = [element("M"), element("N")]

        def refuse(*args):
            raise AssertionError("the invariant solve called mobius")

        monkeypatch.setattr(anf, "mobius", refuse)
        assert [len(invariant_subspace(gens, d)) for d in range(2, 8)] == [1, 1, 3, 3, 4, 4]
        assert invariant_subspace(gens, 2) == [q2]

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

    def test_a_generator_that_is_no_matrix_is_rejected(self):
        with pytest.raises(ValueError, match="^not a matrix: 1$"):
            invariant_subspace([1], 3)

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
