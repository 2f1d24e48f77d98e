import random
from itertools import combinations

import pytest

from segre_pg72.gf2 import (
    UNIT,
    Flat,
    GFMatrix,
    _echelon_layouts,
    _reduce,
    format_point,
    kernel,
    nullspace,
    orthogonal_complement,
    parse_point,
    span,
)
from segre_pg72.groups import segre_group

E = [0] + [1 << i for i in range(8)]  # E[i] = e_i, 1-indexed


def ref_apply(mat, v):
    """Reference point action: XOR of the columns selected by v's bits."""
    r = 0
    while v:
        low = v & -v
        r ^= mat.cols[low.bit_length() - 1]
        v ^= low
    return r


def ref_reduce(vectors):
    """Reference elimination: every pivot checked against every incoming row."""
    rows = {}
    for v in vectors:
        for p, r in rows.items():
            if v & p:
                v ^= r
        if v:
            low = v & -v
            for p in rows:
                if rows[p] & low:
                    rows[p] ^= v
            rows[low] = v
    return rows


def ref_nullspace(rows, nvars):
    """Reference null space on ref_reduce, free variables ascending."""
    pivots = ref_reduce(rows)
    basis = []
    for j in range(nvars):
        if 1 << j in pivots:
            continue
        basis.append(sum((p for p, r in pivots.items() if r >> j & 1), 1 << j))
    return basis


def random_matrix(rng):
    return GFMatrix([rng.randrange(256) for _ in range(8)])


def echelon_bases(k):
    """Every canonical reduced-echelon basis of a k-dim subspace, from the
    layouts the incidence scan reads, in its order: per layout, fills
    counted upward with the first free slot as the top bit."""
    for base_rows, slots in _echelon_layouts(k):
        for fill in range(1 << len(slots)):
            rows = list(base_rows)
            for pos, (i, b) in enumerate(slots):
                if fill >> (len(slots) - 1 - pos) & 1:
                    rows[i] |= 1 << b
            yield tuple(rows)


def flats_of_dimension(d):
    """Every d-flat of PG(7,2) exactly once, in echelon_bases order."""
    if not 0 <= d <= 7:
        raise ValueError(f"projective dimension out of range: {d}")
    for rows in echelon_bases(d + 1):
        yield Flat._from_rref(rows)


def gaussian_binomial_oracle(n, k):
    # independent product formula evaluated with explicit descending factors
    if k < 0 or k > n:
        return 0
    num = 1
    for i in range(n - k + 1, n + 1):
        num *= 2**i - 1
    den = 1
    for i in range(1, k + 1):
        den *= 2**i - 1
    assert num % den == 0
    return num // den


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
    def test_point_count(self):
        assert sum(1 for _ in flats_of_dimension(0)) == 255

    def test_line_count_against_brute_force(self):
        # oracle: canonicalize the span of every point pair
        lines = {span([p, q]) for p, q in combinations(range(1, 256), 2)}
        assert len(lines) == 10795
        enumerated = list(flats_of_dimension(1))
        assert len(enumerated) == 10795
        assert set(enumerated) == lines

    def test_hyperplane_count(self):
        # hyperplanes biject with nonzero dual vectors
        assert sum(1 for _ in flats_of_dimension(6)) == 255

    @pytest.mark.parametrize("d", range(8))
    def test_counts_match_gaussian_binomial(self, d):
        expected = gaussian_binomial_oracle(8, d + 1)
        assert sum(1 for _ in flats_of_dimension(d)) == expected

    def test_enumeration_is_canonical_and_duplicate_free(self):
        seen = set()
        for fl in flats_of_dimension(2):
            assert fl.basis == span(fl.points()).basis
            seen.add(fl)
        assert len(seen) == gaussian_binomial_oracle(8, 3)

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

    def test_from_cycles_and_application(self):
        jx = GFMatrix.from_cycles([(1, 2), (3, 4), (5, 6), (7, 8)])
        assert jx(E[1]) == E[2]
        assert jx(E[2]) == E[1]
        assert jx(E[1] ^ E[3]) == E[2] ^ E[4]

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

    def test_pow(self):
        jx = GFMatrix.from_cycles([(1, 2), (3, 4), (5, 6), (7, 8)])
        assert jx**2 == GFMatrix.identity()
        assert jx**-1 == jx
        assert jx**0 == GFMatrix.identity()

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

    def test_orthogonal_complement_dimensions(self):
        rng = random.Random(23)
        for _ in range(50):
            vs = [rng.randrange(1, 256) for _ in range(rng.randrange(1, 6))]
            fl = span(vs)
            forms = orthogonal_complement(fl.basis)
            assert len(forms) == 8 - len(fl.basis)
            for g in forms:
                for v in fl.points():
                    assert (g & v).bit_count() % 2 == 0

    def test_nullspace_solves_parity_checks(self):
        rows = [0b0000011, 0b0000110]
        basis = nullspace(rows, 7)
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
    """Seeded systems by name, each a list of vector lists for _reduce."""
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


class TestReduce:
    """The echelon-then-back-substitution _reduce against the pivot-scanning reference."""

    @pytest.mark.parametrize("name", list(REDUCE_CASES))
    def test_agrees_with_pivot_scanning_reference(self, name):
        for vectors in REDUCE_CASES[name]:
            assert _reduce(vectors) == ref_reduce(vectors)

    @pytest.mark.parametrize("name, nvars", [("commutant-shape", 64), ("constraint-rows-255", 255)])
    def test_nullspace_agrees_with_reference(self, name, nvars):
        for rows in REDUCE_CASES[name]:
            assert nullspace(rows, nvars) == ref_nullspace(rows, nvars)
