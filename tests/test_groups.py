import random
from itertools import permutations, product
from math import prod

import pytest

from segre_pg72.gf2 import Flat, GFMatrix, UNIT, parse_point, span, weight
from segre_pg72.groups import (
    DEFAULT_CAP,
    ClosureOverflowError,
    I2,
    MatrixGroup,
    ROT2,
    SWAP2,
    closure,
    commutant_basis,
    centralizer_in_gl,
    cube_group,
    element,
    fix_subspace,
    named_elements,
    schreier_sims,
    segre_group,
    segre_group_even,
    stabilizer_of_point,
    sym3_operator,
    tensor_operator,
)
from segre_pg72.segre import build_model

E = [0] + [1 << i for i in range(8)]


def gl2_elements() -> list[tuple[int, int]]:
    """The six invertible 2x2 matrices over GF(2)."""
    return [(c0, c1) for c0 in (1, 2, 3) for c1 in (1, 2, 3) if c0 != c1]


def perm_images(mat):
    return {i: mat(E[i]) for i in range(1, 9)}


GL82_ORDER = prod((1 << 8) - (1 << i) for i in range(8))  # 5,348,063,769,211,699,200


def ref_closure(generators, cap=DEFAULT_CAP):
    """Reference closure: the breadth-first search on GFMatrix products."""
    gens = sorted(set(generators), key=lambda g: g.cols)
    ident = GFMatrix.identity()
    elements = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for f in frontier:
            for g in gens:
                h = g * f
                if h not in seen:
                    if len(seen) >= cap:
                        raise ClosureOverflowError(f"closure exceeded cap of {cap} elements")
                    seen.add(h)
                    elements.append(h)
                    new.append(h)
        frontier = new
    return tuple(elements)


_IDPERM = bytes(range(256))


def ref_compose(a, b):
    # apply b first
    return b.translate(a)


def ref_invert_perm(p):
    inv = bytearray(256)
    for i, v in enumerate(p):
        inv[v] = i
    return bytes(inv)


class RefLevel:
    def __init__(self, base):
        self.base = base
        self.gens = []
        self.transversal = {base: _IDPERM}
        self.inv_transversal = {base: _IDPERM}
        self.pending = []


def ref_schreier_sims(generators):
    """Reference stabilizer chain: every transversal entry inverted in full,
    every Schreier pair (tree edges included) queued and sifted."""
    perms = [m.perm for m in generators if m.perm != _IDPERM]
    levels = []

    def sift(g, start):
        for idx in range(start, len(levels)):
            lv = levels[idx]
            img = g[lv.base]
            if img == lv.base:
                continue
            t_inv = lv.inv_transversal.get(img)
            if t_inv is None:
                return g, idx
            g = ref_compose(t_inv, g)
        return g, len(levels)

    def attach(lv, g):
        lv.gens.append(g)
        fresh = []
        for pt in list(lv.transversal):
            lv.pending.append((pt, g))
            img = g[pt]
            if img not in lv.transversal:
                t = ref_compose(g, lv.transversal[pt])
                lv.transversal[img] = t
                lv.inv_transversal[img] = ref_invert_perm(t)
                fresh.append(img)
        qi = 0
        while qi < len(fresh):
            pt = fresh[qi]
            qi += 1
            for s in lv.gens:
                lv.pending.append((pt, s))
                img = s[pt]
                if img not in lv.transversal:
                    t = ref_compose(s, lv.transversal[pt])
                    lv.transversal[img] = t
                    lv.inv_transversal[img] = ref_invert_perm(t)
                    fresh.append(img)

    def add_generator(k, g):
        if k == len(levels):
            base = next(v for v in range(1, 256) if g[v] != v)
            levels.append(RefLevel(base))
        for idx in range(k, -1, -1):
            attach(levels[idx], g)

    for p in perms:
        residue, k = sift(p, 0)
        if residue != _IDPERM:
            add_generator(k, residue)

    while True:
        for k in range(len(levels) - 1, -1, -1):
            if levels[k].pending:
                break
        else:
            break
        lv = levels[k]
        pt, s = lv.pending.pop()
        u = ref_compose(s, lv.transversal[pt])
        schreier_gen = ref_compose(lv.inv_transversal[s[pt]], u)
        if schreier_gen == _IDPERM:
            continue
        residue, j = sift(schreier_gen, k + 1)
        if residue != _IDPERM:
            add_generator(j, residue)

    return prod(len(lv.transversal) for lv in levels)


def random_invertible(rng):
    while True:
        mat = GFMatrix([rng.randrange(256) for _ in range(8)])
        if mat.is_invertible():
            return mat


def seeded_subsets(seed, count):
    """count subsets of 1-3 elements of <M,N>, drawn with a seeded generator."""
    rng = random.Random(seed)
    elements = segre_group().elements
    return [rng.sample(elements, rng.randint(1, 3)) for _ in range(count)]


NAMED_GROUPS = {"M,N": ("M", "N"), "M',N": ("M'", "N"), "M,K12": ("M", "K12")}


class TestTensorOperator:
    def test_swap_in_first_slot_gives_jx(self):
        jx = tensor_operator(SWAP2, I2, I2)
        assert perm_images(jx) == {
            1: E[2], 2: E[1], 3: E[4], 4: E[3],
            5: E[6], 6: E[5], 7: E[8], 8: E[7],
        }

    def test_rotation_in_first_slot_gives_ax(self):
        ax = tensor_operator(ROT2, I2, I2)
        assert ax(E[1]) == E[2]
        assert ax(E[2]) == E[1] ^ E[2]
        assert ax(E[4]) == E[3]
        assert ax(E[3]) == E[3] ^ E[4]
        assert ax(E[6]) == E[5]
        assert ax(E[7]) == E[8]

    def test_identity_factors(self):
        assert tensor_operator(I2, I2, I2) == GFMatrix.identity()

    def test_singular_factor_rejected(self):
        with pytest.raises(ValueError):
            tensor_operator((1, 1), I2, I2)

    def test_tensor_is_multiplicative(self):
        # (a (x) I (x) I)(b (x) I (x) I) = ab (x) I (x) I on a sample
        a, b = ROT2, SWAP2
        ab = tuple(
            (a[0] if b[i] & 1 else 0) ^ (a[1] if b[i] & 2 else 0) for i in (0, 1)
        )
        assert tensor_operator(a, I2, I2) * tensor_operator(b, I2, I2) == \
            tensor_operator(ab, I2, I2)

    def test_all_tensor_operators_stabilize_variety(self):
        pts = build_model().point_set
        for a0, a1, a2 in product(gl2_elements(), repeat=3):
            mat = tensor_operator(a0, a1, a2)
            assert {mat(p) for p in pts} == pts


class TestSym3Operator:
    def test_slot_swap_12(self):
        k12 = sym3_operator((2, 1, 3))
        assert perm_images(k12) == {
            1: E[1], 2: E[4], 3: E[3], 4: E[2],
            5: E[7], 6: E[6], 7: E[5], 8: E[8],
        }

    def test_three_cycle(self):
        b = sym3_operator((2, 3, 1))
        assert perm_images(b) == {
            1: E[1], 2: E[4], 3: E[7], 4: E[6],
            5: E[3], 6: E[2], 7: E[5], 8: E[8],
        }

    def test_identity(self):
        assert sym3_operator((1, 2, 3)) == GFMatrix.identity()

    def test_homomorphism(self):
        def compose(r, s):
            # r after s, as slot images
            return tuple(r[s[m] - 1] for m in range(3))

        perms3 = list(permutations((1, 2, 3)))
        for r in perms3:
            for s in perms3:
                assert sym3_operator(r) * sym3_operator(s) == \
                    sym3_operator(compose(r, s))

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError):
            sym3_operator((1, 1, 3))


class TestNamedElements:
    def test_catalog_is_complete(self):
        names = set(named_elements())
        assert names == {
            "J", "Jx", "Jy", "Jz", "Ax", "Ay", "Az",
            "K12", "K13", "K23", "C", "B", "M", "N", "M'", "W", "K", "K'",
        }

    def test_orders(self):
        for name, order in [
            ("J", 2), ("Jx", 2), ("Jy", 2), ("Jz", 2), ("K12", 2),
            ("K", 2), ("K'", 2), ("B", 3), ("W", 3), ("Ax", 3),
            ("C", 4), ("M", 6), ("N", 6),
        ]:
            assert element(name).order() == order

    def test_j_is_product_of_axis_involutions(self):
        assert element("Jx") * element("Jy") * element("Jz") == element("J")

    def test_c_equals_jx_k12(self):
        assert element("C") == element("Jx") * element("K12")

    def test_w_images(self):
        w = element("W")
        expected = {
            1: "246", 2: "2135", 3: "248", 4: "4137",
            5: "268", 6: "6157", 7: "468", 8: "8357",
        }
        for i, s in expected.items():
            assert w(E[i]) == parse_point(s)

    def test_w_cubes_to_identity_and_quadratic_minimal_polynomial(self):
        w = element("W")
        ident = GFMatrix.identity()
        assert w * w * w == ident
        assert (w * w) ^ w ^ ident == GFMatrix([0] * 8)

    def test_w_cycles_every_distinguished_tangent(self):
        w = element("W")
        for p, line in build_model().tangents.items():
            assert w(p) in line and w(p) != p

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            element("Q")


class TestClosure:
    def test_full_stabilizer_order(self):
        assert len(segre_group()) == 1296

    def test_index_two_subgroup_order(self):
        assert len(segre_group_even()) == 648

    def test_cube_group_order(self):
        assert len(cube_group()) == 48

    def test_every_element_stabilizes_variety(self):
        pts = build_model().point_set
        for mat in segre_group().elements:
            assert {mat(p) for p in pts} == pts

    def test_even_subgroup_is_contained_in_full(self):
        gs = segre_group()
        for mat in segre_group_even().elements:
            assert mat in gs

    def test_membership_parity_of_involution_products(self):
        gs0 = segre_group_even()
        jx, jy, jz = element("Jx"), element("Jy"), element("Jz")
        assert jx * jy in gs0
        assert jx * jz in gs0
        assert jy * jz in gs0
        assert element("J") not in gs0

    def test_even_coset_rule_for_all_tensor_triples(self):
        # the index-2 subgroup meets the tensor factor group exactly in the
        # triples with an even number of frame-swapping (non-rotation) factors
        gs0 = segre_group_even()
        rotations = {I2, ROT2, (0b11, 0b01)}
        for a0, a1, a2 in product(gl2_elements(), repeat=3):
            odd = sum(1 for a in (a0, a1, a2) if a not in rotations)
            mat = tensor_operator(a0, a1, a2)
            assert (mat in gs0) == (odd % 2 == 0)

    def test_cap_overflow(self):
        with pytest.raises(ClosureOverflowError):
            closure([element("M"), element("N")], cap=100)

    def test_membership_needs_an_element_list(self):
        gens = [element("M"), element("N")]
        listed = MatrixGroup(gens, closure(gens).elements)
        assert element("M") * element("N") in listed
        assert element("K") not in listed
        for ask in (lambda g: element("M") in g, len):
            with pytest.raises(ValueError, match="no explicit element list"):
                ask(MatrixGroup(gens))


    @pytest.mark.parametrize("names", NAMED_GROUPS, ids=str)
    def test_element_order_agrees_with_product_reference_on_named_groups(self, names):
        gens = [element(n) for n in NAMED_GROUPS[names]]
        assert closure(gens).elements == ref_closure(gens)

    def test_element_order_agrees_with_product_reference_on_seeded_subsets(self):
        for gens in seeded_subsets(37, 50):
            assert closure(gens).elements == ref_closure(gens)

    @pytest.mark.parametrize("names", NAMED_GROUPS, ids=str)
    def test_cap_boundary_agrees_with_product_reference(self, names):
        gens = [element(n) for n in NAMED_GROUPS[names]]
        order = len(ref_closure(gens))
        assert len(closure(gens, cap=order)) == order
        messages = []
        for route in (closure, ref_closure):
            with pytest.raises(ClosureOverflowError) as exc:
                route(gens, cap=order - 1)
            messages.append(str(exc.value))
        assert messages == [f"closure exceeded cap of {order - 1} elements"] * 2


class TestSchreierSims:
    def test_agrees_with_closure_on_explicit_groups(self):
        for gens, size in [
            ((element("M"), element("N")), 1296),
            ((element("M'"), element("N")), 648),
            ((element("M"), element("K12")), 48),
        ]:
            assert schreier_sims(gens) == size
            assert len(closure(gens)) == size

    def test_full_orthogonal_group_order(self):
        assert schreier_sims([element("M"), element("N"), element("K")]) == 348_364_800

    def test_simple_orthogonal_group_order(self):
        assert schreier_sims([element("M"), element("N"), element("K'")]) == 174_182_400

    def test_trivial_and_small_groups(self):
        assert schreier_sims([]) == 1
        assert schreier_sims([GFMatrix.identity()]) == 1
        assert schreier_sims([element("J")]) == 2
        assert schreier_sims([element("W")]) == 3

    def test_agrees_with_closure_on_random_subgroups_of_the_stabilizer(self):
        rng = random.Random(31)
        elements = segre_group().elements
        for _ in range(50):
            gens = rng.sample(elements, rng.randint(1, 3))
            assert schreier_sims(gens) == len(closure(gens))

    def test_agrees_with_reference_chain_on_extended_subsets(self):
        rng = random.Random(41)
        extensions = (element("K"), element("K'"))
        for gens in seeded_subsets(43, 30):
            gens = [*gens, rng.choice(extensions)]
            assert schreier_sims(gens) == ref_schreier_sims(gens)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_invertible_pairs_generate_gl82(self, seed):
        rng = random.Random(seed)
        gens = [random_invertible(rng), random_invertible(rng)]
        assert schreier_sims(gens) == ref_schreier_sims(gens) == GL82_ORDER


class TestFixSubspace:
    def test_fix_of_paired_involutions(self):
        jx, jy, jz = element("Jx"), element("Jy"), element("Jz")
        assert fix_subspace(jx * jy) == span(
            [parse_point(s) for s in ("13", "24", "57", "68")]
        )
        assert fix_subspace(jx * jz) == span(
            [parse_point(s) for s in ("15", "26", "37", "48")]
        )
        assert fix_subspace(jy * jz) == span(
            [parse_point(s) for s in ("17", "28", "35", "46")]
        )

    def test_w_is_fixed_point_free(self):
        assert fix_subspace(element("W")) == Flat.empty()

    def test_fix_of_identity_is_everything(self):
        assert fix_subspace(GFMatrix.identity()).dim_projective == 7


class TestCommutantAndCentralizer:
    def test_commutant_of_even_subgroup_generators(self):
        basis = commutant_basis([element("M'"), element("N")])
        assert len(basis) == 2
        w = element("W")
        ident = GFMatrix.identity()
        spanned = {GFMatrix([0] * 8), basis[0], basis[1], basis[0] ^ basis[1]}
        assert spanned == {GFMatrix([0] * 8), ident, w, w * w}

    def test_commutant_of_identity_is_everything(self):
        assert len(commutant_basis([GFMatrix.identity()])) == 64

    def test_commutant_of_full_group_is_scalars(self):
        basis = commutant_basis([element("M"), element("N")])
        assert len(basis) == 1
        assert basis[0] == GFMatrix.identity()

    def test_centralizer_of_even_subgroup(self):
        w = element("W")
        cz = centralizer_in_gl([element("M'"), element("N")])
        assert set(cz.elements) == {GFMatrix.identity(), w, w * w}

    def test_j_conjugates_w_to_its_square(self):
        j, w = element("J"), element("W")
        assert j * w * j.inverse() == w * w

    def test_full_group_normalizes_the_z3(self):
        w = element("W")
        w2 = w * w
        for a in segre_group().elements:
            conj = a * w * a.inverse()
            assert conj in (w, w2)


class TestStabilizer:
    def test_stabilizer_of_unit_point_is_cube_group(self):
        stab = stabilizer_of_point(segre_group(), UNIT)
        assert len(stab) == 48
        assert set(stab.elements) == set(cube_group().elements)

    def test_space_diagonal_action_is_sym4_with_kernel_i_j(self):
        diagonals = [frozenset((E[1], E[8])), frozenset((E[2], E[7])),
                     frozenset((E[3], E[6])), frozenset((E[4], E[5]))]
        images = set()
        kernel_elems = []
        for mat in cube_group().elements:
            # cube symmetries permute the basis vectors
            assert all(weight(mat(E[i])) == 1 for i in range(1, 9))
            perm = tuple(
                diagonals.index(frozenset((mat(a), mat(b))))
                for a, b in [tuple(d) for d in diagonals]
            )
            images.add(perm)
            if perm == (0, 1, 2, 3):
                kernel_elems.append(mat)
        assert len(images) == 24
        assert set(kernel_elems) == {GFMatrix.identity(), element("J")}

    def test_j_is_central_in_cube_group(self):
        j = element("J")
        for mat in cube_group().elements:
            assert mat * j == j * mat

    def test_stabilizer_of_moved_point_is_trivial(self):
        grp = closure([element("J")])
        stab = stabilizer_of_point(grp, E[1])
        assert set(stab.elements) == {GFMatrix.identity()}
