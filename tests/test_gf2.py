import random
from functools import cache
from itertools import combinations

import pytest

from refs import (
    flats_of_dimension,
    gaussian_binomial_oracle,
    ref_apply,
    ref_ascending_kernel,
    ref_columns,
    ref_full_kernel,
    ref_gauss_jordan_rref,
    ref_inverse,
    ref_lowbit_echelon,
    ref_lowbit_kernel,
    ref_lowbit_reduce,
    ref_nullspace,
    ref_reduce,
    ref_set_bits,
)
from segre_pg72.anf import _quotient_plan, named_Q, symplectic_form
from segre_pg72.gf2 import (
    UNIT,
    Flat,
    GFMatrix,
    _IDPERM,
    _digits,
    _invert_perm,
    _kernel,
    _mask_of,
    _point_table,
    _rref,
    _set_bits,
    _transpose,
    _xor_sums,
    format_point,
    kernel,
    parse_point,
    span,
    weight,
)
from segre_pg72.groups import (
    commutant_basis,
    cube_group,
    element,
    segre_group,
    stabilizer_of_point,
)
from segre_pg72.orbits import classify_point, point_orbits
from support import E, echelon_rows, kernel_calls, mirror, plan_flat, source_mutant, tagged, untagged


def mirror_rows(rows, width):
    """Lowest-bit {pivot: row} rows over width bits, mirrored into the
    highest-bit form of gf2._echelon, as support.echelon_rows reads it."""
    return {width + 1 - p.bit_length(): mirror(r, width) for p, r in rows.items()}


def random_matrix(rng):
    return GFMatrix([rng.randrange(256) for _ in range(8)])


def plan_flats(d):
    """Every d-flat that anf._quotient_plan(d + 1) names, in plan order: per
    entry and per quot-bit table, the flat of each bit of its targets
    (support.plan_flat), with the rows of H read once per table."""
    for entry in _quotient_plan(d + 1):
        perm, _, quot, _, targets = entry
        for start in range(0, targets.bit_length(), quot):
            rows = plan_flat(entry, start).basis[1:]
            for r in _set_bits(targets >> start & (1 << quot) - 1):
                yield Flat._from_rref((perm[r], *rows))


class TestParsePoint:
    def test_single_basis_vector(self):
        assert parse_point("1") == 0b00000001

    def test_xor_of_listed_bits(self):
        assert parse_point("1246") == E[1] ^ E[2] ^ E[4] ^ E[6]

    def test_u_cancels_named_bits(self):
        # e1 + e8 + u = complement of {1, 8}
        assert parse_point("18u") == E[2] ^ E[3] ^ E[4] ^ E[5] ^ E[6] ^ E[7]

    def test_u_alone(self):
        assert parse_point("u") == UNIT

    def test_digit_order_is_irrelevant(self):
        assert parse_point("8357") == parse_point("3578")

    @pytest.mark.parametrize("bad", ["", "11", "19", "x2", "1uu", "0", "12345678u"])
    def test_malformed_input(self, bad):
        with pytest.raises(ValueError):
            parse_point(bad)

    def test_format_roundtrip_all_points(self):
        for v in range(1, 256):
            assert parse_point(format_point(v)) == v

    def test_format_uses_complement_above_weight_4(self):
        assert format_point(parse_point("18u")) == "18u"
        assert format_point(UNIT) == "u"
        assert format_point(parse_point("1357")) == "1357"


class TestSpan:
    def test_line_has_three_points(self):
        fl = span([E[1], E[2]])
        assert sorted(fl.points()) == sorted([E[1], E[2], E[1] ^ E[2]])

    def test_dependent_vector_absorbed(self):
        assert span([E[1], E[2], E[1] ^ E[2]]) == span([E[1], E[2]])

    def test_idempotent_and_order_insensitive(self):
        rng = random.Random(7)
        for _ in range(200):
            pts = [rng.randrange(1, 256) for _ in range(rng.randrange(1, 6))]
            fl = span(pts)
            assert span(fl.points()) == fl
            rng.shuffle(pts)
            assert span(pts) == fl

    def test_point_count_law(self):
        rng = random.Random(11)
        for _ in range(100):
            pts = [rng.randrange(1, 256) for _ in range(rng.randrange(1, 9))]
            fl = span(pts)
            assert len(fl.points()) == 2 ** (fl.dim_projective + 1) - 1

    def test_membership(self):
        fl = span([E[1], E[2], E[5]])
        for p in fl.points():
            assert p in fl
        assert E[3] not in fl

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            span([])
        with pytest.raises(ValueError):
            span([0])

    def test_non_8_bit_vector_rejected(self):
        with pytest.raises(ValueError, match="not an 8-bit vector: 256"):
            Flat([1, 256])

    def test_empty_flat_sentinel(self):
        fl = Flat.empty()
        assert fl.dim_projective == -1
        assert fl.points() == []


class TestFlatEnumeration:
    """The flats anf._quotient_plan names, against counts and brute force."""

    def test_point_count(self):
        assert sum(1 for _ in plan_flats(0)) == 255

    def test_line_count_against_brute_force(self):
        # oracle: canonicalize the span of every point pair
        lines = {span([p, q]) for p, q in combinations(range(1, 256), 2)}
        assert len(lines) == 10795
        enumerated = list(plan_flats(1))
        assert len(enumerated) == 10795
        assert set(enumerated) == lines

    def test_hyperplane_count(self):
        # hyperplanes biject with nonzero dual vectors
        assert sum(1 for _ in plan_flats(6)) == 255

    @pytest.mark.parametrize("d", range(8))
    def test_counts_match_gaussian_binomial(self, d):
        expected = gaussian_binomial_oracle(8, d + 1)
        assert sum(1 for _ in plan_flats(d)) == expected

    def test_enumeration_is_canonical_and_duplicate_free(self):
        seen = set()
        for fl in plan_flats(2):
            assert fl.basis == span(fl.points()).basis
            seen.add(fl)
        assert len(seen) == gaussian_binomial_oracle(8, 3)

    def test_the_reference_enumeration_names_the_same_flats(self):
        for d in (1, 2, 5):
            assert set(flats_of_dimension(d)) == set(plan_flats(d))

    def test_out_of_range_dimension(self):
        with pytest.raises(ValueError):
            list(flats_of_dimension(8))
        with pytest.raises(ValueError):
            list(flats_of_dimension(-1))


class TestGFMatrix:
    def test_identity(self):
        ident = GFMatrix.identity()
        for v in range(256):
            assert ident(v) == v
        assert ident == GFMatrix(E[1:]) and hash(ident) == hash(GFMatrix(E[1:]))

    def test_from_cycles_and_application(self):
        jx = GFMatrix.from_cycles([(1, 2), (3, 4), (5, 6), (7, 8)])
        assert jx(E[1]) == E[2]
        assert jx(E[2]) == E[1]
        assert jx(E[1] ^ E[3]) == E[2] ^ E[4]

    @pytest.mark.parametrize("cycles", [[(1, 2), (2, 3)], [(1, 1)], [(9, 1)]])
    def test_from_cycles_rejects_overlapping_or_out_of_range_cycles(self, cycles):
        with pytest.raises(ValueError):
            GFMatrix.from_cycles(cycles)

    @pytest.mark.parametrize(
        "cols", ["abcdefgh", [None] * 8, [1.0] + E[2:]], ids=["string", "None", "float"]
    )
    def test_columns_that_are_no_integers_are_rejected(self, cols):
        with pytest.raises(ValueError, match=r"^need 8 column vectors in 0\.\.255$"):
            GFMatrix(cols)

    def test_product_applies_right_factor_first(self):
        k12 = GFMatrix.from_cycles([(2, 4), (5, 7)])
        jx = GFMatrix.from_cycles([(1, 2), (3, 4), (5, 6), (7, 8)])
        c = jx * k12
        assert c(E[1]) == E[2]
        # and c is the 4-cycle (1234)(8765)
        assert [c(E[i]) for i in (1, 2, 3, 4)] == [E[2], E[3], E[4], E[1]]
        assert [c(E[i]) for i in (8, 7, 6, 5)] == [E[7], E[6], E[5], E[8]]
        assert c.order() == 4

    def test_linearity_of_application(self):
        rng = random.Random(3)
        m = GFMatrix([rng.randrange(256) for _ in range(8)])
        for _ in range(100):
            a, b = rng.randrange(256), rng.randrange(256)
            assert m(a ^ b) == m(a) ^ m(b)

    def test_inverse(self):
        rng = random.Random(5)
        ident = GFMatrix.identity()
        found = 0
        while found < 25:
            m = GFMatrix([rng.randrange(256) for _ in range(8)])
            if not m.is_invertible():
                continue
            found += 1
            assert m * m.inverse() == ident
            assert m.inverse() * m == ident

    def test_singular_matrix_rejected(self):
        m = GFMatrix([E[1]] * 8)
        assert m.rank() == 1
        assert not m.is_invertible()
        with pytest.raises(ValueError):
            m.inverse()

    def test_rows_transpose_convention(self):
        m = GFMatrix.from_rows([E[2], E[1], E[4], E[3], E[6], E[5], E[8], E[7]])
        # row i holds the coefficients producing coordinate i of the image
        assert m(E[1]) == E[2]
        assert m.rows()[0] == E[2]


class TestPointPermutation:
    """The point table against the column-XOR reference it replaced."""

    def test_apply_matches_column_xor_on_the_stabilizer(self):
        for mat in segre_group().elements:
            assert [mat(v) for v in range(256)] == [ref_apply(mat, v) for v in range(256)]

    def test_apply_matches_column_xor_on_random_matrices(self):
        rng = random.Random(7)
        for _ in range(200):
            m = random_matrix(rng)
            assert list(m.perm) == [ref_apply(m, v) for v in range(256)]

    def test_point_table_matches_column_xor_and_the_doubling(self):
        # the chain expands column images with it, and any byte may be a column
        rng = random.Random(13)
        cases = [bytes(8), bytes([255] * 8), bytes(1 << j for j in range(8))[::-1]]
        cases += [rng.randbytes(8) for _ in range(500)]
        for cols in cases:
            table = _point_table(cols)
            assert table == bytes(_xor_sums(cols))
            assert list(table) == [ref_apply(GFMatrix(cols), v) for v in range(256)]

    def test_product_matches_column_images(self):
        rng = random.Random(11)
        for _ in range(2000):
            a, b = random_matrix(rng), random_matrix(rng)
            ref = GFMatrix(ref_apply(a, c) for c in b.cols)
            ab = a * b
            assert ab == ref
            assert hash(ab) == hash(ref)
            assert ab.perm == ref.perm

    def test_inverse_exists_exactly_for_bijections(self):
        rng = random.Random(29)
        ident = GFMatrix.identity()
        for _ in range(300):
            m = random_matrix(rng)
            if len({ref_apply(m, v) for v in range(256)}) == 256:
                assert m.inverse() * m == ident
            else:
                with pytest.raises(ValueError, match="matrix is singular"):
                    m.inverse()


class TestInverse:
    """The point-table inverse against the elimination route it replaced."""

    def test_agrees_with_elimination_reference_on_the_stabilizer(self):
        elements = segre_group().elements
        assert len(elements) == 1296
        for mat in elements:
            inv, ref = mat.inverse(), ref_inverse(mat)
            assert inv == ref
            assert inv.perm == ref.perm
            assert hash(inv) == hash(ref)

    def test_agrees_with_elimination_reference_on_seeded_matrices(self):
        rng = random.Random(47)
        found = 0
        while found < 200:
            m = random_matrix(rng)
            if not m.is_invertible():
                continue
            found += 1
            inv, ref = m.inverse(), ref_inverse(m)
            assert inv == ref
            assert inv.perm == ref.perm

    def test_singular_matrices_raise_on_both_routes(self):
        rng = random.Random(53)
        singular = [GFMatrix([0] * 8), GFMatrix([E[1]] * 8), GFMatrix([E[1], E[1]] + E[3:])]
        while len(singular) < 103:
            m = random_matrix(rng)
            if not m.is_invertible():
                singular.append(m)
        for m in singular:
            with pytest.raises(ValueError, match="matrix is singular"):
                m.inverse()
            with pytest.raises(ValueError, match="matrix is singular"):
                ref_inverse(m)

    def test_invertibility_agrees_with_the_rank_on_seeded_matrices(self):
        # only 0 maps to 0 exactly when the rank is 8; most random matrices
        # are singular, so both answers are exercised
        rng = random.Random(61)
        answers = []
        for _ in range(3000):
            m = random_matrix(rng)
            answers.append(m.is_invertible())
            assert answers[-1] == (m.rank() == 8), m
        assert 500 < sum(answers) < 1500

    def test_invert_perm_undoes_the_table(self):
        rng = random.Random(59)
        assert _invert_perm(_IDPERM) == _IDPERM
        for mat in [random_matrix(rng) for _ in range(100)] + list(segre_group().elements[:50]):
            if mat.is_invertible():
                inv = _invert_perm(mat.perm)
                assert all(inv[mat.perm[v]] == v for v in range(256))


class TestMaskRoutines:
    """The shared mask routines against per-bit loops."""

    @staticmethod
    def masks():
        rng = random.Random(61)
        return list(range(256)) + [rng.getrandbits(256) for _ in range(200)] + [(1 << 256) - 1]

    def test_set_bits_matches_the_per_bit_walk(self):
        for m in self.masks():
            assert list(_set_bits(m)) == ref_set_bits(m)

    def test_mask_of_matches_the_per_bit_build(self):
        assert _mask_of([]) == 0
        for m in self.masks():
            positions = ref_set_bits(m)
            assert _mask_of(positions) == m
            assert _mask_of(reversed(positions * 2)) == m  # order and repeats are irrelevant

    def test_digits_match_the_per_bit_digits(self):
        for v in range(256):
            assert _digits(v) == "".join(str(i) for i in range(1, 9) if v >> (i - 1) & 1)


_POINT_CALLERS = {
    "format_point": format_point,
    "span": lambda p: span([E[1], p]),
    "stabilizer_of_point": lambda p: stabilizer_of_point(segre_group(), p),
    "classify_point": classify_point,
    "class_of": lambda p: point_orbits(cube_group()).class_of(p),
}


class TestPointCheck:
    @pytest.mark.parametrize("p", [0, 256, -1])
    @pytest.mark.parametrize("caller", list(_POINT_CALLERS))
    def test_non_points_are_rejected_by_every_caller(self, caller, p):
        with pytest.raises(ValueError, match=f"^not a point: {p}$"):
            _POINT_CALLERS[caller](p)


class TestVectorCheck:
    # a point map or an evaluation that indexed a table with v would answer
    # for v + 256 when v is negative
    @pytest.mark.parametrize("v", [-1, -255, 256, 1 << 300])
    @pytest.mark.parametrize("caller", [
        weight, lambda v: Flat([E[1], v]), lambda v: GFMatrix.identity()(v),
        lambda v: named_Q()["Q2"].evaluate(v), lambda v: symplectic_form(v, 0),
    ], ids=["weight", "Flat", "GFMatrix", "Anf.evaluate", "symplectic_form"])
    def test_non_vectors_are_rejected(self, caller, v):
        with pytest.raises(ValueError, match=f"^not an 8-bit vector: {v}$"):
            caller(v)

    def test_vectors_are_accepted(self):
        assert [weight(v) for v in (0, 1, 3, UNIT)] == [0, 1, 2, 8]
        assert Flat([0, UNIT]).basis == (UNIT,)


class TestKernelAndDuality:
    def test_kernel_of_identity_is_empty(self):
        assert kernel(GFMatrix.identity()) == Flat.empty()

    def test_kernel_matches_brute_force(self):
        rng = random.Random(17)
        for _ in range(50):
            m = GFMatrix([rng.randrange(256) for _ in range(8)])
            expected = sorted(v for v in range(1, 256) if m(v) == 0)
            k = kernel(m)
            assert sorted(k.points()) == expected

    def test_nullspace_solves_parity_checks(self):
        rows = [0b0000011, 0b0000110]
        basis = _kernel(*tagged(ref_columns(rows, 7), 7))
        assert len(basis) == 5
        for x in basis:
            for r in rows:
                assert (x & r).bit_count() % 2 == 0


def random_rows(rng, count, width, weight=None, rank=None):
    """count seeded rows over width bits: uniform, of a given weight, or from a rank-dim span."""
    if rank is not None:
        gens = [rng.getrandbits(width) for _ in range(rank)]
        return [sum(g for g in gens if rng.random() < 0.5) for _ in range(count)]
    if weight is None:
        return [rng.getrandbits(width) for _ in range(count)]
    return [sum(1 << b for b in rng.sample(range(width), weight)) for _ in range(count)]


def tagged_rows(rng, width):
    """One vector per monomial t in 1..255: sparse values, a tag at bit width - 1 - t."""
    return [
        random_rows(rng, 1, width - 256, weight=rng.randrange(1, 30))[0] | 1 << (width - 1 - t)
        for t in range(1, 256)
    ]


def reduce_cases():
    """Seeded systems by name, each a list of vector lists for the eliminations."""
    rng = random.Random(31)
    return {
        "empty": [[]],
        "zero-rows": [[0], [0, 0, 0]],
        "duplicate-rows": [[0b1011, 0b1011, 0, 0b0110, 0b1011, 0b0110]],
        "rank-shape": [[rng.randrange(256) for _ in range(8)] for _ in range(200)],
        "inverse-shape": [
            [rng.randrange(256) | 1 << (j + 8) for j in range(8)] for _ in range(200)
        ],
        "commutant-shape": [
            random_rows(rng, 64 * k, 64, weight=rng.randrange(1, 9)) for k in (1, 2, 3)
        ],
        "commutant-low-rank": [random_rows(rng, 128, 64, rank=r) for r in (0, 5, 40)],
        "constraint-rows-255": [
            random_rows(rng, n, 255, weight=12) for n in (10, 100, 255, 510, 600)
        ],
        "constraint-rows-255-dense": [random_rows(rng, n, 255) for n in (255, 600)],
        "constraint-rows-255-low-rank": [random_rows(rng, 600, 255, rank=r) for r in (7, 120)],
        "tagged-up-to-1024": [tagged_rows(rng, w) for w in (512, 768, 1024)],
    }


REDUCE_CASES = reduce_cases()


def seeded_byte_lists(rng, count):
    """count lists of 0-10 bytes, the first empty; of the rest, list i holds
    a zero vector when i % 3 == 1 and a repeated vector when i % 3 == 2."""
    lists = [[]]
    for i in range(1, count):
        vectors = [rng.randrange(256) for _ in range(rng.randrange(11))]
        if vectors and i % 3 == 1:
            vectors[rng.randrange(len(vectors))] = 0
        if len(vectors) > 1 and i % 3 == 2:
            a, b = rng.sample(range(len(vectors)), 2)
            vectors[a] = vectors[b]
        lists.append(vectors)
    return lists


def width_of(vectors):
    return max((v.bit_length() for v in vectors), default=0)


class TestReduce:
    """The highest-bit _echelon and the lowest-bit _rref against the
    lowest-bit routes and the pivot-scanning reference."""

    @pytest.mark.parametrize("name", list(REDUCE_CASES))
    def test_the_lowest_bit_reference_agrees_with_pivot_scanning(self, name):
        for vectors in REDUCE_CASES[name]:
            assert ref_lowbit_reduce(vectors) == ref_reduce(vectors)

    @pytest.mark.parametrize("name", list(REDUCE_CASES))
    def test_echelon_rows_have_distinct_highest_bit_pivots_and_the_same_span(self, name):
        for vectors in REDUCE_CASES[name]:
            rows = echelon_rows(vectors, width_of(vectors))
            assert all(r.bit_length() == p for p, r in rows.items())
            assert ref_reduce(rows.values()) == ref_reduce(vectors)

    def test_rref_agrees_with_the_lowest_bit_reference(self):
        # every 8-bit system of REDUCE_CASES, then seeded lists of 0-10
        # bytes, against the Gauss-Jordan pass _rref replaced too
        lists = seeded_byte_lists(random.Random(71), 20000)
        assert [] in lists
        assert sum(0 in v for v in lists) > 1000
        assert sum(len(set(v)) < len(v) for v in lists) > 1000
        systems = [v for cases in REDUCE_CASES.values() for v in cases if width_of(v) <= 8]
        assert len(systems) > 200
        for vectors in systems + lists:
            rows = ref_lowbit_reduce(vectors)
            expected = tuple(rows[p] for p in sorted(rows))
            assert _rref(vectors) == ref_gauss_jordan_rref(vectors) == expected, vectors

    @pytest.mark.parametrize("name", list(REDUCE_CASES))
    def test_echelon_of_mirrored_vectors_mirrors_the_lowest_bit_elimination(self, name):
        # the same row operations: every echelon row, not only the reduced
        # form, is the mirror of the lowest-bit route's row
        for vectors in REDUCE_CASES[name]:
            width = width_of(vectors)
            mirrored = [mirror(v, width) for v in vectors]
            assert echelon_rows(mirrored, width) == mirror_rows(ref_lowbit_echelon(vectors), width)

    @pytest.mark.parametrize("name, nvars", [("commutant-shape", 64), ("constraint-rows-255", 255)])
    def test_nullspace_agrees_with_reference(self, name, nvars):
        # the null space of the rows, as _kernel of their transpose
        for rows in REDUCE_CASES[name]:
            columns = dict(enumerate(_transpose(rows, nvars)))
            assert _kernel(*tagged(columns, nvars)) == ref_nullspace(rows, nvars)


@cache
def free_variable_cases(name):
    """(columns, nvars, null space by ref_nullspace) for each system of REDUCE_CASES[name]."""
    cases = []
    for rows in REDUCE_CASES[name]:
        nvars = max((r.bit_length() for r in rows), default=0) + 3
        cases.append((ref_columns(rows, nvars), nvars, ref_nullspace(rows, nvars)))
    return cases


@cache
def missing_variable_cases():
    """(columns, nvars, expected) with 10 of 40 variables missing, so pinned at 0."""
    rng = random.Random(41)
    cases = []
    for _ in range(20):
        rows = random_rows(rng, 30, 40, weight=5)
        columns = ref_columns(rows, 40)
        missing = rng.sample(range(40), 10)
        for j in missing:
            del columns[j]
        pinned = rows + [1 << j for j in missing]
        cases.append((columns, 40, ref_nullspace(pinned, 40)))
    return cases


@cache
def shuffled_cases():
    """The free-variable cases with the columns dict in a seeded shuffled order."""
    rng = random.Random(47)
    cases = []
    for name in REDUCE_CASES:
        for columns, nvars, expected in free_variable_cases(name):
            items = list(columns.items())
            rng.shuffle(items)
            cases.append((dict(items), nvars, expected))
    return cases


# _kernel mutants, one changed line each: the highest echelon row is kept
# even when its pivot is a column bit, and the tag rows skip the pass that
# clears their lower tag pivots, so that a tag row fed before a lower one
# comes out unreduced.  Rows fed in ascending order of their tags need no
# pass, so only the shuffled cases catch the second
KEEPS_A_COLUMN_PIVOT_ROW = ("rows[1 : nvars + 1] if r]", "rows[1 : nvars + 1] + [max(rows)] if r]")
SKIPS_THE_REDUCTION = ("m = r & pivots", "m = 0")


def kernel_cases():
    """Every free-variable, missing-variable and shuffled case."""
    cases = [case for name in REDUCE_CASES for case in free_variable_cases(name)]
    return cases + [*missing_variable_cases(), *shuffled_cases()]


class TestKernel:
    """The tagged-elimination _kernel against the free-variable reference
    and the ascending kernel it replaced; each system enters through
    support.tagged, its rows in the columns dict's order."""

    @pytest.mark.parametrize("name", list(REDUCE_CASES))
    def test_agrees_with_free_variable_reference(self, name):
        for columns, nvars, expected in free_variable_cases(name):
            assert _kernel(*tagged(columns, nvars)) == expected

    def test_missing_variables_are_fixed_at_zero(self):
        for columns, nvars, expected in missing_variable_cases():
            assert _kernel(*tagged(columns, nvars)) == expected

    def test_the_column_order_does_not_matter(self):
        # the tag rows enter in the shuffled dict's order, and the pass
        # that clears their lower tag pivots gives the same basis
        for columns, nvars, expected in shuffled_cases():
            assert _kernel(*tagged(columns, nvars)) == expected

    def test_shuffling_the_tagged_rows_never_changes_the_result(self):
        rng = random.Random(59)
        for columns, nvars, expected in kernel_cases():
            rows, nvars, width = tagged(columns, nvars)
            for _ in range(3):
                rng.shuffle(rows)
                assert _kernel(rows, nvars, width) == expected

    def test_agrees_with_the_ascending_kernel_it_replaced(self):
        for columns, nvars, expected in kernel_cases():
            assert ref_ascending_kernel(columns, nvars) == expected

    def test_agrees_with_the_ascending_kernel_on_seeded_matrices(self):
        # kernel() hands _kernel each column above 8 tags, 16 bits wide;
        # the second call is Flat's canonical basis of the result
        rng = random.Random(53)
        for _ in range(3000):
            mat = random_matrix(rng)
            (rows, nvars, width), (basis_rows, *shape) = kernel_calls(kernel, mat)
            assert (nvars, width) == (8, 16)
            columns = untagged(rows, 8)
            assert columns == dict(enumerate(mat.cols))
            expected = ref_ascending_kernel(columns, 8)
            assert _kernel(rows, nvars, width) == expected
            assert shape == [8, 8] and len(basis_rows) == len(expected)
            assert all(0 < r <= UNIT for r in basis_rows)

    def test_a_flat_makes_one_kernel_call_on_eight_tags(self):
        # Flat's basis is _kernel's canonical basis of the mirrored vectors
        rng = random.Random(67)
        for vectors in seeded_byte_lists(rng, 300):
            flat = object.__new__(Flat)
            ((rows, nvars, width),) = kernel_calls(Flat.__init__, flat, vectors)
            assert (nvars, width) == (8, 8)
            assert rows == [mirror(v, 8) for v in vectors]
            assert flat.basis == ref_gauss_jordan_rref(vectors)

    @pytest.mark.parametrize(
        "names", [("M", "N"), ("M'", "N"), ("M", "K12")], ids=["M,N", "M',N", "M,K12"]
    )
    def test_agrees_with_the_ascending_kernel_on_the_commutant_columns(self, names):
        # one 64-bit block per generator above the 64 tags
        gens = [element(n) for n in names]
        ((rows, nvars, width),) = kernel_calls(commutant_basis, gens)
        assert (nvars, width) == (64, 64 + 64 * len(gens))
        columns = untagged(rows, 64)
        assert sorted(columns) == list(range(64))
        assert _kernel(rows, nvars, width) == ref_ascending_kernel(columns, 64)

    def test_agrees_with_the_lowest_bit_kernel_it_replaced(self):
        for columns, nvars, expected in kernel_cases():
            assert ref_lowbit_kernel(columns, nvars) == expected
            assert ref_full_kernel(columns, nvars) == expected

    @pytest.mark.parametrize(
        "old, new",
        [KEEPS_A_COLUMN_PIVOT_ROW, SKIPS_THE_REDUCTION],
        ids=["keeps-a-column-pivot-row", "skips-the-reduction"],
    )
    def test_the_differential_catches_a_mutant(self, old, new):
        mutant = source_mutant(_kernel, (old, new))
        assert any(
            mutant(*tagged(columns, nvars)) != expected for columns, nvars, expected in kernel_cases()
        )


class TestTransposeAndXorSums:
    @pytest.mark.parametrize("count, width", [(0, 8), (8, 8), (3, 8), (8, 3), (40, 64), (255, 130)])
    def test_transpose_twice_is_the_identity(self, count, width):
        rng = random.Random(count * 1000 + width)
        vectors = [rng.getrandbits(width) for _ in range(count)]
        once = _transpose(vectors, width)
        assert len(once) == width and all(0 <= v < 1 << count for v in once)
        assert _transpose(once, count) == vectors

    def test_rows_and_from_rows_transpose_the_columns(self):
        rng = random.Random(43)
        for _ in range(20):
            m = random_matrix(rng)
            rows = m.rows()
            assert [rows[i] >> j & 1 for i in range(8) for j in range(8)] == [
                m.cols[j] >> i & 1 for i in range(8) for j in range(8)
            ]
            assert GFMatrix.from_rows(rows) == m

    @pytest.mark.parametrize("count", [0, 1, 5, 8])
    def test_xor_sums_match_per_mask_sums(self, count):
        rng = random.Random(count)
        rows = [rng.getrandbits(64) for _ in range(count)]
        expected = []
        for c in range(1 << count):
            x = 0
            for i, r in enumerate(rows):
                if c >> i & 1:
                    x ^= r
            expected.append(x)
        assert _xor_sums(rows) == expected
