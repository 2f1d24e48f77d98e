import pytest

from refs import ref_slot_families
from segre_pg72.gf2 import UNIT, parse_point, span
from segre_pg72.segre import (
    MULTI_INDICES,
    _generators_through,
    build_model,
    segre_point,
)
from support import E



class TestSegrePoint:
    def test_basis_labels(self):
        assert segre_point((0, 0, 0)) == E[1]
        assert segre_point((1, 0, 0)) == E[2]
        assert segre_point((1, 1, 0)) == E[3]
        assert segre_point((0, 1, 0)) == E[4]
        assert segre_point((1, 0, 1)) == E[5]
        assert segre_point((0, 0, 1)) == E[6]
        assert segre_point((0, 1, 1)) == E[7]
        assert segre_point((1, 1, 1)) == E[8]

    def test_index_two_expands_by_linearity(self):
        # u_2 = u_0 + u_1, so E_200 = E_000 + E_100
        assert segre_point((2, 0, 0)) == segre_point((0, 0, 0)) ^ segre_point((1, 0, 0))
        assert segre_point((2, 0, 0)) == E[1] ^ E[2]

    def test_all_two_expansion_gives_unit_point(self):
        expected = 0
        for i in (0, 1):
            for j in (0, 1):
                for k in (0, 1):
                    expected ^= segre_point((i, j, k))
        assert segre_point((2, 2, 2)) == expected == UNIT

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            segre_point((3, 0, 0))


class TestModel:
    def test_point_and_generator_counts(self):
        model = build_model()
        assert len(model.points) == 27
        assert len(set(model.points)) == 27
        assert len(model.generators) == 27
        assert len(model.sub_segres) == 9
        assert len(model.ambient_flats) == 9
        assert len(model.z_flats) == 27
        assert len(model.tangents) == 27

    def test_generator_family_definition(self):
        model = build_model()
        expected = frozenset(segre_point((i, j, k)) for k in (0, 1, 2) for i, j in [(0, 1)] * 1)
        assert model.generators[(0, 1, 3)] == frozenset(
            segre_point((0, 1, k)) for k in (0, 1, 2)
        )
        assert expected == model.generators[(0, 1, 3)]

    def test_slot_families_agree_with_per_slot_reference(self):
        # same keys in the same order, and each frozenset iterates alike,
        # because `export model` and the spread/tangents reprs print them
        model = build_model()
        for family, ref in zip((model.generators, model.sub_segres), ref_slot_families()):
            assert list(family) == list(ref)
            assert [list(v) for v in family.values()] == [list(v) for v in ref.values()]

    def test_generators_through_a_point_vary_slots_1_2_3(self):
        gens = build_model().generators
        for m in MULTI_INDICES:
            i, j, k = m
            assert _generators_through(gens, m) == (gens[(j, k, 1)], gens[(i, k, 2)], gens[(i, j, 3)])

    def test_three_generators_through_each_point(self):
        model = build_model()
        for p in model.points:
            through = [g for g in model.generators.values() if p in g]
            assert len(through) == 3

    def test_generators_lie_on_variety(self):
        model = build_model()
        for line in model.generators.values():
            assert line <= model.point_set

    def test_sub_grids_have_nine_points_and_span_3_flats(self):
        model = build_model()
        for key, grid in model.sub_segres.items():
            assert len(grid) == 9
            flat = model.ambient_flats[key]
            assert flat.dim_projective == 3
            assert span(grid) == flat
            # six points of the ambient 3-flat are external to the grid
            assert len(set(flat.points()) - grid) == 6

    def test_each_point_on_exactly_three_ambient_flats(self):
        model = build_model()
        for p in model.points:
            assert sum(1 for fl in model.ambient_flats.values() if p in fl) == 3

    def test_z_flats_contain_their_generator_triples(self):
        model = build_model()
        for m in MULTI_INDICES:
            p = segre_point(m)
            z = model.z_flats[m]
            assert z.dim_projective == 3
            through = [g for g in model.generators.values() if p in g]
            for g in through:
                for q in g:
                    assert q in z

    def test_z000_is_span_of_axes(self):
        model = build_model()
        z = model.z_flats[(0, 0, 0)]
        assert z == span([E[1], E[2], E[4], E[6]])
        assert len(z.points()) == 15


def tangent(p):
    return build_model().tangents[p]


class TestDistinguishedTangents:
    def test_tangent_at_e1(self):
        assert tangent(E[1]) == {
            parse_point("1"),
            parse_point("246"),
            parse_point("1246"),
        }

    def test_tangent_at_e8(self):
        assert tangent(E[8]) == {
            parse_point("8"),
            parse_point("8357"),
            parse_point("357"),
        }

    def test_tangent_at_unit_point(self):
        assert tangent(UNIT) == {
            parse_point("u"),
            parse_point("1357"),
            parse_point("2468"),
        }

    def test_tangents_for_all_basis_points(self):
        expected = {
            1: ("1", "246", "1246"),
            2: ("2", "2135", "135"),
            3: ("3", "248", "3248"),
            4: ("4", "4137", "137"),
            5: ("5", "268", "5268"),
            6: ("6", "6157", "157"),
            7: ("7", "468", "7468"),
            8: ("8", "8357", "357"),
        }
        for i, names in expected.items():
            assert tangent(E[i]) == {parse_point(s) for s in names}

    def test_tangents_partition_pairwise_disjoint(self):
        model = build_model()
        seen = set()
        for line in model.tangents.values():
            assert not (seen & line)
            seen |= line
        assert len(seen) == 81

    def test_each_tangent_meets_variety_once(self):
        model = build_model()
        for p, line in model.tangents.items():
            assert line & model.point_set == {p}
