import random
import time
import tracemalloc
from itertools import permutations, product
from math import prod

import pytest

from refs import (
    ref_centralizer,
    ref_closure,
    ref_commutant_basis,
    ref_dict_chain,
    ref_eager_closure,
    ref_packed_centralizer,
    ref_schreier_sims,
    ref_sym3_operator,
    ref_tensor_operator,
)
from segre_pg72 import groups
from segre_pg72.anf import Anf, invariant_subspace, substitute
from segre_pg72.checks import REGISTRY, Run
from segre_pg72.gf2 import ConstructionError, Flat, GFMatrix, UNIT, _UNITS, parse_point, span, weight
from segre_pg72.groups import (
    Chain,
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
    elements,
    fix_subspace,
    named_elements,
    schreier_sims,
    segre_group,
    segre_group_even,
    stabilizer_chain,
    stabilizer_of_point,
    sym3_operator,
    tensor_operator,
)
from segre_pg72.orbits import line_orbit_split, point_orbits, spread_from_w
from segre_pg72.segre import build_model
from support import E, check_with, deadline, echelon_rows, random_invertible, source_mutant


def gl2_elements() -> list[tuple[int, int]]:
    """The six invertible 2x2 matrices over GF(2)."""
    return [(c0, c1) for c0 in (1, 2, 3) for c1 in (1, 2, 3) if c0 != c1]


def perm_images(mat):
    return {i: mat(E[i]) for i in range(1, 9)}


GL82_ORDER = prod((1 << 8) - (1 << i) for i in range(8))  # 5,348,063,769,211,699,200


def seeded_subsets(seed, count):
    """count subsets of 1-3 elements of <M,N>, drawn with a seeded generator."""
    rng = random.Random(seed)
    elements = segre_group().elements
    return [rng.sample(elements, rng.randint(1, 3)) for _ in range(count)]


def by_columns(mats):
    """The matrices sorted by their column images, the order a closure lists."""
    return tuple(sorted(mats, key=lambda g: g.cols))


def by_images(tables):
    """The point tables sorted by their column images, the order a closure lists."""
    return tuple(sorted(tables, key=_UNITS.translate))


NAMED_GROUPS = {"M,N": ("M", "N"), "M',N": ("M'", "N"), "M,K12": ("M", "K12")}

# the transvection e8 -> e1 + e8 fixes e1..e7, so it and the identity agree
# on their first seven columns; no two elements of <M,N> do
TRANSVECTION = GFMatrix([1, 2, 4, 8, 16, 32, 64, 129])


def pairs_led_by_an_involution(seed, count):
    """count seeded pairs of elements of <M,N> whose first element in the
    closure's sorted order has order 2, so that its first coset stage is
    the smallest, a group of two."""
    rng = random.Random(seed)
    elements = segre_group().elements
    pairs = []
    while len(pairs) < count:
        pair = sorted(rng.sample(elements, 2), key=lambda g: g.cols)
        if pair[0].order() == 2:
            pairs.append(pair)
    return pairs


def closure_cases():
    """Generator lists: 50 seeded subsets of <M,N> (seed 37), then the
    transvection with J."""
    return [*seeded_subsets(37, 50), [TRANSVECTION, element("J")]]


# the generator sets whose chain orders `verify` checks, with those orders
VERIFY_CHAIN_SETS = {
    "M,N": 1296, "M',N": 648, "M,K12": 48, "M,N,K": 348_364_800, "M,N,K'": 174_182_400,
}


# each verify set's chain: strong generators per level, Schreier pairs
# checked (orbit length times strong generators, summed over the levels)
# and (Schreier generators sifted, sifted to the identity)
CHAIN_RECORDS = {
    "M,N": ((2, 2, 2, 1), 84, (37, 35)),
    "M',N": ((2, 3, 2), 80, (33, 29)),
    "M,K12": ((2, 2, 1), 24, (9, 7)),
    "M,N,K": ((3, 3, 6, 9, 6, 3, 1), 1037, (655, 642)),
    "M,N,K'": ((3, 3, 4, 6, 6, 3, 1), 869, (521, 508)),
}


def chain_record(chain):
    """The chain's entry in CHAIN_RECORDS' form."""
    strong = tuple(map(len, chain.strong_generators))
    pairs = sum(n * k for n, k in zip(chain.orbit_lengths, strong))
    return strong, pairs, (sum(chain.sifted), sum(chain.sifted_to_identity))


# chains that attach a residue at too few levels; each misses part of a
# stabilizer, so its order comes out too small
UNDER_ATTACHING = {
    "stick-level-only": ("for idx in range(k, low - 1, -1):", "for idx in (k,):"),
    "skips-level-i+1": ("add_generator(j, residue, k + 1)", "add_generator(j, residue, k + 2)"),
}
# a chain that attaches every Schreier residue down to level 0, as an input
# generator is: the orders stay right, but the chain carries more strong
# generators and checks more Schreier pairs
OVER_ATTACHING = ("add_generator(j, residue, k + 1)", "add_generator(j, residue, 0)")


def commutant_cases():
    """Generator lists by name: the named groups, seeded subsets of <M,N>
    alone and with K or K' adjoined, no generators, and a singular matrix."""
    cases = {names: [element(n) for n in NAMED_GROUPS[names]] for names in NAMED_GROUPS}
    for n, gens in enumerate(seeded_subsets(43, 20)):
        cases[f"subset-{n}"] = gens
        cases[f"subset-{n}+K"] = gens + [element("K")]
        cases[f"subset-{n}+K'"] = gens + [element("K'")]
    cases["none"] = []
    cases["singular"] = [GFMatrix([0b11, 0b11, 0, 0b1000, 0x10, 0x20, 0, 0x80])]
    return cases


COMMUTANT_CASES = commutant_cases()


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

    def test_agrees_with_expansion_reference_on_all_factor_triples(self):
        triples = list(product(gl2_elements(), repeat=3))
        assert len(triples) == 216
        for a0, a1, a2 in triples:
            assert tensor_operator(a0, a1, a2) == ref_tensor_operator(a0, a1, a2)

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

    def test_agrees_with_unit_vector_reference_on_all_slot_permutations(self):
        for rho in permutations((1, 2, 3)):
            assert sym3_operator(rho) == ref_sym3_operator(rho)
            assert sym3_operator(list(rho)) == ref_sym3_operator(rho)


# W**3 for the W row with its last image 3578 changed to 357
W_MUTANT_CUBE = "GFMatrix([1, 2, 208, 8, 196, 32, 148, 84])"


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

    @pytest.mark.parametrize("name,row,cid,actual", [
        ("J", "8 7 6 5 4 3 2 12", "groups/catalog",
         "raised ConstructionError: J maps e8 to 1, expected 3"),
        ("Ax", "2 12 34 3 56 5 8 7", "groups/catalog",
         "raised ConstructionError: Ax maps e8 to 192, expected 64"),
        # W is built from its own row, so its images agree with it; its order does not
        ("W", "246 1235 248 1347 268 1567 468 357", "groups/W/order", W_MUTANT_CUBE),
    ], ids=["J", "Ax", "W"])
    def test_one_changed_validation_image_is_caught(self, name, row, cid, actual):
        result = check_with(named_elements, groups._VALIDATION, name, row, cid)
        assert (result.actual, result.passed) == (actual, False)
        assert Run().check(REGISTRY[cid]).passed

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

    def test_ascii_aliases_name_the_primed_elements(self):
        assert element("Mp") is element("M'")
        assert element("Kp") is element("K'")


class TestElementsLabel:
    def test_names_are_stripped_and_aliases_resolved(self):
        assert elements(" Mp , Kp ") == (element("M'"), element("K'"))

    def test_order_and_repeats_are_kept(self):
        assert elements("N,M,N") == (element("N"), element("M"), element("N"))

    @pytest.mark.parametrize("label, bad", [("M,,N", "''"), ("M,Zz", "'Zz'"), ("", "''")])
    def test_unknown_name_is_a_key_error_naming_it(self, label, bad):
        with pytest.raises(KeyError) as exc:
            elements(label)
        assert exc.value.args[0].startswith(f"unknown element {bad};")


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

    @pytest.mark.parametrize("gens,cap", [([], 0), ([GFMatrix.identity()], -5)], ids=["0", "-5"])
    def test_cap_below_one_is_rejected(self, gens, cap):
        with pytest.raises(ValueError, match=f"^cap must be at least 1, got {cap}$"):
            closure(gens, cap=cap)

    def test_generators_given_once_as_an_iterator_are_kept(self):
        gens = (element("M"), element("N"))
        group = closure(g for g in gens)
        assert group.generators == gens
        assert len(group) == 1296

    def test_membership_needs_an_element_list(self):
        gens = [element("M"), element("N")]
        listed = closure(gens)
        assert element("M") * element("N") in listed
        assert element("K") not in listed
        for ask in (lambda g: element("M") in g, len):
            with pytest.raises(ValueError, match="no explicit element list"):
                ask(MatrixGroup(gens))


    @pytest.mark.parametrize("names", NAMED_GROUPS, ids=str)
    def test_element_order_agrees_with_product_reference_on_named_groups(self, names):
        gens = [element(n) for n in NAMED_GROUPS[names]]
        assert closure(gens).elements == by_columns(ref_closure(gens))

    def test_element_order_agrees_with_product_reference_on_seeded_subsets(self):
        for gens in closure_cases():
            assert closure(gens).elements == by_columns(ref_closure(gens))

    def test_the_listing_is_canonical(self):
        # sorted by columns and read off the image set alone: every
        # generating set of <M,N> lists one tuple, and a closure whose
        # generators are dropped before its first listing lists the same
        m, n = element("M"), element("N")
        listed = closure([m, n]).elements
        assert listed == by_columns(listed) and len(listed) == 1296
        full = [gens for gens in seeded_subsets(43, 30) if len(closure(gens)) == 1296]
        assert len(full) == 9
        for gens in [[n, m], [m, n, m * n], *full]:
            assert closure(gens).elements == listed
        group = closure([m, n])
        group._generators = ()
        assert group._listed() == closure([m, n])._listed()
        assert group.elements == listed

    def test_length_agrees_with_the_elements_and_the_chain_on_seeded_subsets(self):
        for gens in closure_cases():
            order = len(closure(gens))
            assert order == len(closure(gens).elements) == schreier_sims(gens)

    @pytest.mark.parametrize("kind", ["closure", "centralizer", "stabilizer"])
    def test_length_builds_no_matrix_and_elements_are_built_once(self, kind, monkeypatch):
        # every group keeps tables and builds its matrices on the first read
        # of its elements; a listed group (centralizer, stabilizer) is
        # generated by them.  The centralizer's certificate multiplies its
        # basis matrices, the only matrices built on the way
        gens = elements("M,N")
        make, order, on_the_way = {
            "closure": (lambda: closure(gens), 1296, 0),
            "centralizer": (lambda: centralizer_in_gl([element("M")]), 1152,
                            len(commutant_basis([element("M")])) ** 2),
            "stabilizer": (lambda: stabilizer_of_point(closure(gens), UNIT), 48, 0),
        }[kind]
        built = []
        from_perm = GFMatrix._from_perm.__func__

        def counted(cls, perm):
            built.append(perm)
            return from_perm(cls, perm)

        monkeypatch.setattr(GFMatrix, "_from_perm", classmethod(counted))
        group = make()
        assert len(group) == order and len(built) == on_the_way
        first = group.elements
        assert len(built) == on_the_way + order
        assert group.elements is first and len(built) == on_the_way + order
        assert group.generators is (gens if kind == "closure" else first)

    def test_membership_builds_no_matrix(self, monkeypatch):
        gens = [element("M'"), element("N")]
        inside, outside = element("M'") * element("N"), element("J")
        built = []
        from_perm = GFMatrix._from_perm.__func__

        def counted(cls, perm):
            built.append(perm)
            return from_perm(cls, perm)

        monkeypatch.setattr(GFMatrix, "_from_perm", classmethod(counted))
        group = closure(gens)
        assert inside in group and outside not in group
        assert built == []

    def test_a_value_that_is_no_matrix_is_no_member(self):
        group = closure([element("M"), element("N")])
        for value in ("x", None, 0, element("M").perm, element("M").cols, [element("M")]):
            assert value not in group, value

    def test_membership_agrees_with_the_element_set(self):
        # closures, centralizers and stabilizers, each asked before its
        # elements are read, against every element of <M,N> and C_GL(M)
        # and seeded invertible matrices
        rng = random.Random(71)
        probes = [*segre_group().elements, *centralizer_in_gl([element("M")]).elements]
        probes += [random_invertible(rng) for _ in range(200)]
        probes = list(dict.fromkeys(probes))
        made = [lambda gens=gens: closure(gens) for gens in seeded_subsets(71, 20)]
        made += [
            lambda: centralizer_in_gl([element("M")]),
            lambda: centralizer_in_gl(elements("M',N")),
            lambda: centralizer_in_gl(elements("M,N")),
        ]
        made += [
            lambda p=p: stabilizer_of_point(closure(elements("M,N")), p)
            for p in (E[1], UNIT, E[1] ^ E[2], E[1] ^ E[8])
        ]
        for make in made:
            group = make()
            answers = [mat in group for mat in probes]
            listed = set(group.elements)
            assert answers == [mat in listed for mat in probes]
            assert sum(answers) <= len(group) == len(listed)

    def test_listed_tables_agree_with_the_eager_walk(self):
        # the tables, built by the first read of the elements, are the ones
        # the walk that translated every new element's table found, byte for
        # byte, sorted by their column images.  <M,N,K> and <M,N,K'> are too large to list,
        # so for them both routes stop at one cap with one message
        cases = [elements(label) for label in VERIFY_CHAIN_SETS if VERIFY_CHAIN_SETS[label] <= 1296]
        for gens in [*cases, *seeded_subsets(43, 30)]:
            group = closure(gens)
            assert all(g in group for g in gens)
            assert group._tables is None and group.elements
            assert group._tables == by_images(ref_eager_closure(gens))
        for label in ("M,N,K", "M,N,K'"):
            for route in (closure, ref_eager_closure):
                with pytest.raises(ClosureOverflowError, match="^closure exceeded cap of 5000 elements$"):
                    route(elements(label), cap=5000)

    def test_coset_count_agrees_with_the_product_references(self):
        # the count, the elements as a set, and the image set against the
        # breadth-first walks on tables and on GFMatrix products
        cases = [elements(label) for label in VERIFY_CHAIN_SETS if VERIFY_CHAIN_SETS[label] <= 1296]
        cases += [*seeded_subsets(43, 30), *pairs_led_by_an_involution(47, 20)]
        for gens in cases:
            tables, products = ref_eager_closure(gens), ref_closure(gens)
            group = closure(gens)
            assert len(group) == len(tables) == len(products)
            assert group._images == {bytes(m.cols) for m in products}
            assert set(group.elements) == set(products) == set(map(GFMatrix._from_perm, tables))

    @pytest.mark.parametrize("label", ["M,N,K", "M,N,K'"])
    def test_coset_count_overflows_as_the_product_references_do(self, label):
        raised = []
        for route in (closure, ref_eager_closure, ref_closure):
            with pytest.raises(ClosureOverflowError) as exc:
                route(elements(label), cap=5000)
            raised.append((type(exc.value), str(exc.value)))
        assert raised == [(ClosureOverflowError, "closure exceeded cap of 5000 elements")] * 3

    def test_membership_agrees_with_the_listed_tables_before_and_after_they_are_built(self):
        # membership reads the image set the coset count found; the tables
        # are listed from that set, so the two must name one set
        rng = random.Random(79)
        common = [*segre_group().elements, *(random_invertible(rng) for _ in range(100))]
        for gens in [*seeded_subsets(79, 20), [TRANSVECTION, element("J")]]:
            probes = [*common, *ref_closure(gens)]
            group = closure(gens)
            before = [mat in group for mat in probes]
            assert group._tables is None
            listed = set(group._listed())
            assert before == [mat in group for mat in probes] == [mat.perm in listed for mat in probes]

    def test_length_membership_and_the_orbits_build_no_table(self):
        # what a chain-and-orbits pass reads of a closure: its length and
        # its generators; membership reads the image set
        group = closure(elements("M',N"))
        assert len(group) == 648
        assert element("M'") in group and element("M") not in group
        assert sorted(point_orbits(group).sizes()) == [12, 27, 27, 27, 54, 108]
        assert sorted(map(len, line_orbit_split(spread_from_w(), group))) == [4, 18, 27, 36]
        assert group._tables is None

    @pytest.mark.parametrize("first", ["elements", "stabilizer"])
    def test_the_first_read_that_needs_the_tables_builds_them_once(self, first):
        reads = {
            "in": lambda group: element("M") in group,
            "elements": lambda group: group.elements,
            "stabilizer": lambda group: stabilizer_of_point(group, UNIT),
        }
        group = closure(elements("M,N"))
        reads["in"](group)
        assert group._tables is None
        reads[first](group)
        tables = group._tables
        assert len(tables) == len(group) == 1296
        assert tables == by_images(ref_eager_closure(elements("M,N")))
        for read in reads.values():
            read(group)
            assert group._tables is tables

    def test_membership_and_stabilizer_work_on_a_fresh_closure(self):
        group = closure([element("M"), element("N")])
        assert element("M") * element("N") in group
        assert element("K") not in group
        stab = stabilizer_of_point(closure([element("M"), element("N")]), UNIT)
        assert set(stab.elements) == set(cube_group().elements)

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

    def test_cap_boundary_agrees_with_product_reference_on_seeded_subsets(self):
        checked = 0
        for gens in closure_cases():
            order = len(ref_closure(gens))
            if order == 1:  # a cap of 0 is rejected before the search
                continue
            assert len(closure(gens, cap=order)) == order
            for route in (closure, ref_closure):
                with pytest.raises(ClosureOverflowError,
                                   match=f"^closure exceeded cap of {order - 1} elements$"):
                    route(gens, cap=order - 1)
            checked += 1
        assert checked >= 45

    def test_the_differential_catches_a_seen_set_keyed_on_seven_column_bytes(self):
        # the mutant merges elements that differ only in their eighth column:
        # its seen set holds the first seven bytes of each image
        mutant = source_mutant(
            closure,
            ("seen = {_UNITS}", "seen = {_UNITS[:7]}"),
            ('f"{DIM}s" * size', 'f"{DIM - 1}sx" * size'),
            ("rep.translate(s) not in seen", "rep.translate(s)[:7] not in seen"),
        )
        pair = closure_cases()[-1]
        expected = ref_closure(pair)
        merged = mutant(pair)
        assert merged._images == {bytes(m.cols)[:7] for m in expected}
        assert len(merged) < len(expected)
        # so only a case like <T, J> catches it: <M,N> has no such pair
        assert len({m.cols[:7] for m in segre_group().elements}) == 1296


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
        assert stabilizer_chain([]) == stabilizer_chain([GFMatrix.identity()]) == Chain(*[()] * 5)
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
        for gens in seeded_subsets(43, 30):
            for name in ("K", "K'"):
                ext = [*gens, element(name)]
                assert schreier_sims(ext) == ref_schreier_sims(ext)

    @pytest.mark.parametrize("label", VERIFY_CHAIN_SETS)
    def test_agrees_with_reference_chain_on_the_verify_generator_sets(self, label):
        gens = elements(label)
        assert schreier_sims(gens) == ref_schreier_sims(gens) == VERIFY_CHAIN_SETS[label]

    @pytest.mark.parametrize("label", VERIFY_CHAIN_SETS)
    def test_a_schreier_residue_is_attached_only_below_its_pair_level(self, label):
        # an input generator sticking at level k goes to levels 0..k; a
        # residue of a level-i pair sticking at level j to levels i+1..j.
        # Attaching at more levels keeps the order, so the record is pinned
        chain = stabilizer_chain(elements(label))
        assert prod(chain.orbit_lengths) == VERIFY_CHAIN_SETS[label]
        assert chain_record(chain) == CHAIN_RECORDS[label]
        distinct = {g for gens in chain.strong_generators for g in gens}
        for g in distinct:
            levels = [i for i, gens in enumerate(chain.strong_generators) if g in gens]
            assert levels == list(range(levels[0], levels[-1] + 1))
        # each sift that misses the identity adds one strong generator; the
        # others are the residues of the input generators, the only ones
        # attached at level 0
        assert len(chain.strong_generators[0]) <= len(elements(label))
        sifted, to_identity = CHAIN_RECORDS[label][2]
        assert sifted - to_identity == len(distinct) - len(chain.strong_generators[0])

    def test_a_chain_that_attaches_residues_down_to_level_0_fails_the_pin(self):
        mutant = source_mutant(stabilizer_chain, OVER_ATTACHING)
        chains = {label: mutant(elements(label)) for label in VERIFY_CHAIN_SETS}
        assert {label: prod(c.orbit_lengths) for label, c in chains.items()} == VERIFY_CHAIN_SETS
        assert all(chain_record(chains[label]) != CHAIN_RECORDS[label] for label in chains)
        assert chain_record(chains["M,N,K"])[:2] == ((15, 14, 12, 10, 6, 3, 1), 3659)

    def test_the_orthogonal_group_chain_checks_few_schreier_pairs(self):
        # 3,659 when every residue was attached down to level 0
        chain = stabilizer_chain(elements("M,N,K"))
        assert chain_record(chain)[1] == 1037
        assert chain.bases == (E[1], E[3], E[2], E[5], E[6], E[7], E[4])

    @pytest.mark.parametrize("label", ["M,N", "M',N", "M,K12"])
    def test_each_level_generates_the_stabilizer_of_the_bases_above(self, label):
        # level i's strong generators fix the bases above it, move base i
        # through its basic orbit, and generate a group of the product of
        # the orbit lengths from i on
        chain = stabilizer_chain(elements(label))
        for i, gens in enumerate(chain.strong_generators):
            level = closure(GFMatrix(g) for g in gens)
            assert len(level) == prod(chain.orbit_lengths[i:])
            assert all(m(b) == b for m in level.elements for b in chain.bases[:i])
            assert len({m(chain.bases[i]) for m in level.elements}) == chain.orbit_lengths[i]

    @pytest.mark.parametrize("edit", UNDER_ATTACHING.values(), ids=list(UNDER_ATTACHING))
    def test_a_chain_that_attaches_too_few_gives_a_wrong_order(self, edit):
        mutant = source_mutant(stabilizer_chain, edit)
        with deadline(10, "an under-attaching chain"):
            orders = {label: prod(mutant(elements(label)).orbit_lengths)
                      for label in VERIFY_CHAIN_SETS}
        assert orders != VERIFY_CHAIN_SETS
        assert all(orders[label] <= VERIFY_CHAIN_SETS[label] for label in orders)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_invertible_pairs_generate_gl82(self, seed):
        rng = random.Random(seed)
        gens = [random_invertible(rng), random_invertible(rng)]
        assert schreier_sims(gens) == ref_schreier_sims(gens) == GL82_ORDER

    @pytest.mark.parametrize("label", VERIFY_CHAIN_SETS)
    def test_whole_chain_agrees_with_the_dict_level_reference_on_the_verify_sets(self, label):
        gens = elements(label)
        assert stabilizer_chain(gens) == ref_dict_chain(gens)

    def test_whole_chain_agrees_with_the_dict_level_reference_on_seeded_sets(self):
        # subsets of <M,N> alone and with K or K' adjoined, and the three
        # seeded pairs that generate GL(8,2)
        cases = []
        for gens in seeded_subsets(43, 30):
            cases += [gens, [*gens, element("K")], [*gens, element("K'")]]
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            cases.append([random_invertible(rng), random_invertible(rng)])
        for gens in cases:
            assert stabilizer_chain(gens) == ref_dict_chain(gens)


def smallest_moved(mat: GFMatrix) -> int:
    return next(v for v in range(1, 256) if mat(v) != v)


class TestColumnSift:
    """The chain sifts column images because every base point is a unit
    vector: the smallest point a linear map moves is a unit vector."""

    def test_smallest_moved_point_of_seeded_invertible_maps_is_a_unit_vector(self):
        rng = random.Random(53)
        for _ in range(256):
            mat = random_invertible(rng)
            if mat != GFMatrix.identity():
                v = smallest_moved(mat)
                assert v & (v - 1) == 0, mat.cols

    @pytest.mark.parametrize("label", VERIFY_CHAIN_SETS)
    def test_every_residue_the_chain_adds_moves_a_unit_vector_first(self, label):
        chain = stabilizer_chain(elements(label))
        moved = {smallest_moved(GFMatrix(g)) for gens in chain.strong_generators for g in gens}
        assert moved and all(v & (v - 1) == 0 for v in moved)
        assert set(chain.bases) <= moved

    def test_a_base_point_that_is_no_unit_vector_is_rejected(self):
        # the smallest moved point that is no unit vector: 3 on <J>
        mutant = source_mutant(stabilizer_chain, ("if g[v] != v)", "if g[v] != v and v & (v - 1))"))
        with pytest.raises(ConstructionError, match="^base point is not a unit vector$"):
            mutant([element("J")])

    def test_a_sift_that_misses_an_orbit_point_is_stopped(self):
        # every level's inverse transversal forgets e4, which lies in the
        # first level's orbit (the variety), so a sift can stop there with a
        # residue that adds no orbit point; without the guard this chain for
        # <M,N> adds such residues without end
        forgetful = source_mutant(
            stabilizer_chain,
            *((f"img = {e}[pos]", f"img = {e}[pos]; inv = [None] * 256 if img == {E[4]} else inv")
              for e in ("e", "residue")),
        )
        with deadline(2, "a chain with a forgetful level"):
            with pytest.raises(ConstructionError,
                               match="^sifted residue adds no point to the orbit of its level$"):
                forgetful(elements("M,N"))


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

    def test_commutant_agrees_with_constraint_row_reference(self):
        for name, gens in COMMUTANT_CASES.items():
            assert commutant_basis(gens) == ref_commutant_basis(gens), name

    def test_commutant_basis_commutes_and_is_independent(self):
        for name, gens in COMMUTANT_CASES.items():
            basis = commutant_basis(gens)
            for x in basis:
                assert all(x * a == a * x for a in gens), name
            packed = [int.from_bytes(bytes(x.cols), "little") for x in basis]
            assert len(echelon_rows(packed, 64)) == len(basis), name

    def test_centralizer_agrees_with_matrix_sum_reference(self):
        checked = 0
        for name, gens in COMMUTANT_CASES.items():
            if len(ref_commutant_basis(gens)) <= 10:
                assert list(centralizer_in_gl(gens).elements) == ref_centralizer(gens), name
                checked += 1
        assert checked >= 20

    def test_commutant_of_full_group_is_scalars(self):
        basis = commutant_basis([element("M"), element("N")])
        assert len(basis) == 1
        assert basis[0] == GFMatrix.identity()

    def test_centralizer_of_m_agrees_with_matrix_sum_reference(self):
        gens = [element("M")]
        found = list(centralizer_in_gl(gens).elements)
        assert len(found) == 1152
        assert found == ref_centralizer(gens)

    def test_table_sums_agree_with_packed_column_reference(self):
        # every case, then C(M) with 1,152 elements and C(N) with 17,280
        cases = {**COMMUTANT_CASES, "M": [element("M")], "N": [element("N")]}
        enumerated = 0
        for name, gens in cases.items():
            if len(commutant_basis(gens)) > 20:
                with pytest.raises(ValueError, match="^commutant too large to enumerate"):
                    centralizer_in_gl(gens)
            else:
                assert list(centralizer_in_gl(gens).elements) == ref_packed_centralizer(gens), name
                enumerated += 1
        assert enumerated == 64

    def test_the_differential_catches_a_loosened_invertibility_test(self):
        # a sum that sends one point to 0 passes the loosened test.  No sum
        # in the commutant of <M',N> does, so groups/centralizer passes
        # under this mutant; the reference sees it on C(M) and on seeded cases
        loose = source_mutant(centralizer_in_gl, ("if t.count(0) == 1:", "if t.count(0) <= 2:"))
        even = elements("M',N")
        assert list(loose(even).elements) == ref_packed_centralizer(even)
        assert len(loose([element("M")])) == 2016 != len(ref_packed_centralizer([element("M")]))
        assert loose(COMMUTANT_CASES["subset-0"]).elements != tuple(
            ref_packed_centralizer(COMMUTANT_CASES["subset-0"]))

    def test_centralizer_of_n_is_enumerated_quickly(self):
        start = time.perf_counter()
        cz = centralizer_in_gl([element("N")])
        assert time.perf_counter() - start < 10.0
        assert len(cz) == 17_280

    def test_centralizer_of_n_holds_no_list_of_every_basis_sum(self):
        # every basis sum held at once as a 2048-bit int peaked at 25.3 MB;
        # the two half lists leave the 17,280 tables of the result the bulk
        tracemalloc.start()
        try:
            centralizer_in_gl([element("N")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000

    def test_centralizer_rejects_a_basis_that_is_not_an_algebra(self, monkeypatch):
        e12 = GFMatrix([0, 1, 0, 0, 0, 0, 0, 0])  # e2 -> e1
        e21 = GFMatrix([2, 0, 0, 0, 0, 0, 0, 0])  # e1 -> e2
        monkeypatch.setattr(groups, "commutant_basis", lambda generators: [e12, e21])
        with pytest.raises(ConstructionError, match="not closed under product"):
            centralizer_in_gl([element("M")])

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

    @pytest.mark.parametrize("p", [0, -1, 256])
    def test_non_point_is_rejected(self, p):
        with pytest.raises(ValueError, match=f"not a point: {p}"):
            stabilizer_of_point(segre_group(), p)

    def test_a_group_without_an_element_list_is_rejected(self):
        with pytest.raises(ValueError, match="^group has no explicit element list$"):
            stabilizer_of_point(MatrixGroup(elements("M,N")), UNIT)

    def test_stabilizer_of_moved_point_is_trivial(self):
        grp = closure([element("J")])
        stab = stabilizer_of_point(grp, E[1])
        assert set(stab.elements) == {GFMatrix.identity()}


# every entry point that takes generators shares one matrix check
NOT_A_MATRIX = {
    "MatrixGroup": lambda: MatrixGroup(["x"]),
    "closure": lambda: closure([1]),
    "schreier_sims": lambda: schreier_sims([1]),
    "stabilizer_chain": lambda: stabilizer_chain([1]),
    "commutant_basis": lambda: commutant_basis([1]),
    "centralizer_in_gl": lambda: centralizer_in_gl(["x"]),
}


@pytest.mark.parametrize("name", NOT_A_MATRIX)
def test_a_generator_that_is_no_matrix_is_rejected(name):
    with pytest.raises(ValueError, match="^not a matrix: "):
        NOT_A_MATRIX[name]()


# e2 -> e1 merges e1 and e2 and sends e1 + e2 to 0
SINGULAR = GFMatrix([1, 1, 4, 8, 16, 32, 64, 128])

# every entry point that needs invertible matrices checks them with
# gf2._check_invertible, each under its own message; a singular matrix
# anywhere in the list is caught
NOT_INVERTIBLE = {
    "MatrixGroup": (lambda: MatrixGroup([element("M"), SINGULAR]),
                    "group generators must be invertible"),
    "closure": (lambda: closure([element("M"), SINGULAR]), "closure requires invertible generators"),
    "schreier_sims": (lambda: schreier_sims([SINGULAR, element("M")]),
                      "schreier_sims requires invertible generators"),
    "stabilizer_chain": (lambda: stabilizer_chain([SINGULAR]),
                         "schreier_sims requires invertible generators"),
    "substitute": (lambda: substitute(Anf.monomial((1,)), GFMatrix([1] * 8)),
                   "substitution requires an invertible matrix"),
    "invariant_subspace": (lambda: invariant_subspace([element("M"), SINGULAR], 4),
                           "substitution requires an invertible matrix"),
}


@pytest.mark.parametrize("name", NOT_INVERTIBLE)
def test_a_singular_matrix_is_rejected(name):
    make, message = NOT_INVERTIBLE[name]
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_commutant_and_centralizer_accept_a_singular_generator():
    # commuting with a map needs no inverse: the shift e1 -> e2 -> ... ->
    # e8 -> 0 is singular, and its commutant is the polynomials in it, the
    # invertible ones those with a constant term
    shift = GFMatrix([2, 4, 8, 16, 32, 64, 128, 0])
    assert len(commutant_basis([shift])) == 8
    assert len(centralizer_in_gl([shift])) == 128
