import random
from itertools import combinations

import pytest

from segre_pg72.gf2 import (
    UNIT,
    Flat,
    GFMatrix,
    flats_of_dimension,
    format_point,
    gaussian_binomial,
    kernel,
    nullspace,
    orthogonal_complement,
    parse_point,
    span,
)

E = [0] + [1 << i for i in range(8)]  # E[i] = e_i, 1-indexed


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
            assert fl.point_count == len(fl.points())

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
        assert gaussian_binomial(8, d + 1) == expected
        assert sum(1 for _ in flats_of_dimension(d)) == expected

    def test_enumeration_is_canonical_and_duplicate_free(self):
        seen = set()
        for fl in flats_of_dimension(2):
            assert fl.basis == span(fl.points()).basis
            seen.add(fl)
        assert len(seen) == gaussian_binomial(8, 3)

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
