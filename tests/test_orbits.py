from collections import Counter
from itertools import combinations

import pytest

from segre_pg72.gf2 import UNIT, parse_point, weight
from segre_pg72.groups import MatrixGroup, cube_group, element, segre_group, segre_group_even
from segre_pg72.orbits import (
    CUBE_ORBIT_CENSUS,
    TETRAD_LINES,
    classify_point,
    cube_orbit_labels,
    definitional_orbits,
    line_orbit_split,
    parity_class,
    point_orbits,
    segre_triplet,
    spread_from_w,
    tetrad_five_flats,
    tetrad_three_flats,
)
from segre_pg72.segre import build_model

E = [0] + [1 << i for i in range(8)]


class TestPointOrbits:
    def test_full_group_orbit_sizes(self):
        sizes = sorted(point_orbits(segre_group()).sizes())
        assert sizes == [12, 27, 54, 54, 108]

    def test_even_subgroup_has_six_orbits(self):
        sizes = sorted(point_orbits(segre_group_even()).sizes())
        assert sizes == [12, 27, 27, 27, 54, 108]

    def test_cube_group_orbit_census(self):
        partition = point_orbits(cube_group())
        assert len(partition.classes) == len(CUBE_ORBIT_CENSUS) == 21
        census = Counter(
            (weight(cls.rep), cls.size) for cls in partition.classes
        )
        expected = Counter((w, size) for _, w, size, _, _ in CUBE_ORBIT_CENSUS)
        assert census == expected

    def test_classes_partition_the_points(self):
        partition = point_orbits(segre_group())
        seen = set()
        for cls in partition.classes:
            assert not (seen & set(cls.points))
            seen |= set(cls.points)
        assert seen == set(range(1, 256))

    def test_representatives_are_minimal(self):
        partition = point_orbits(segre_group())
        for cls in partition.classes:
            assert cls.rep == min(cls.points)


class TestClassifier:
    def test_examples(self):
        assert classify_point(E[1] ^ E[3]) == "O2"
        assert classify_point(E[1] ^ E[8]) == "O3"
        assert classify_point(parse_point("18u")) == "O1"
        assert classify_point(E[1]) == "O5"
        assert classify_point(parse_point("246")) == "O4"

    def test_class_sizes(self):
        orbs = definitional_orbits()
        assert {k: len(v) for k, v in orbs.items()} == {
            "O1": 12, "O2": 54, "O3": 108, "O4": 54, "O5": 27,
        }

    def test_agrees_with_group_orbits_on_all_points(self):
        partition = point_orbits(segre_group())
        orbs = definitional_orbits()
        for cls in partition.classes:
            labels = {classify_point(p) for p in cls.points}
            assert len(labels) == 1
            assert set(cls.points) == set(orbs[labels.pop()])

    def test_even_subgroup_orbits_are_o_classes_and_triplet(self):
        partition = point_orbits(segre_group_even())
        orbs = definitional_orbits()
        s, s1, s2 = segre_triplet()
        expected = {orbs["O1"], orbs["O2"], orbs["O3"], s, s1, s2}
        assert {frozenset(cls.points) for cls in partition.classes} == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            classify_point(0)


class TestSpread:
    def test_partitions_the_point_set(self):
        spread = spread_from_w()
        assert len(spread.lines) == 85
        covered = set()
        for line in spread.lines:
            assert len(line) == 3
            a, b, c = sorted(line)
            assert a ^ b == c
            assert not (covered & line)
            covered |= line
        assert covered == set(range(1, 256))

    def test_line_through_e1_is_the_tangent_there(self):
        spread = spread_from_w()
        line = next(l for l in spread.lines if E[1] in l)
        assert line == {parse_point("1"), parse_point("246"), parse_point("1246")}
        assert line == build_model().tangents[E[1]]

    def test_w_images_inside_classes(self):
        w = element("W")
        assert w(E[1] ^ E[3]) == E[6] ^ E[8]
        assert w(E[1] ^ E[8]) == E[1] ^ UNIT

    def test_spread_lines_satisfy_quadratic_relation(self):
        w = element("W")
        for p in range(1, 256):
            assert w(w(p)) == p ^ w(p)

    def test_spread_is_group_invariant(self):
        spread = spread_from_w()
        lines = set(spread.lines)
        for g in segre_group().generators:
            for line in spread.lines:
                assert frozenset(g(p) for p in line) in lines


class TestLineOrbitSplit:
    def test_orbit_sizes(self):
        split = line_orbit_split(spread_from_w(), segre_group())
        assert sorted(len(c) for c in split) == [4, 18, 27, 36]

    def test_point_sets_under_each_class(self):
        orbs = definitional_orbits()
        split = line_orbit_split(spread_from_w(), segre_group())
        by_size = {len(c): c for c in split}
        union = lambda lines: set().union(*lines)
        assert union(by_size[4]) == orbs["O1"]
        assert union(by_size[18]) == orbs["O2"]
        assert union(by_size[36]) == orbs["O3"]
        assert union(by_size[27]) == orbs["O4"] | orbs["O5"]

    def test_four_line_class_is_the_tetrad(self):
        split = line_orbit_split(spread_from_w(), segre_group())
        four = next(c for c in split if len(c) == 4)
        assert set(four) == set(TETRAD_LINES)

    def test_27_line_class_is_the_tangent_family(self):
        split = line_orbit_split(spread_from_w(), segre_group())
        tangents = set(build_model().tangents.values())
        c27 = next(c for c in split if len(c) == 27)
        assert set(c27) == tangents

    def test_group_not_preserving_the_spread_is_rejected(self):
        # K swaps e1 and e8, which takes 63 of the 85 spread lines off the spread
        with pytest.raises(ValueError, match="does not preserve the spread"):
            line_orbit_split(spread_from_w(), MatrixGroup([element("M"), element("K")]))

    def test_c_cycles_the_tetrad(self):
        c = element("C")
        la, lb, lc, ld = TETRAD_LINES
        img = lambda line: frozenset(c(p) for p in line)
        assert img(la) == lb
        assert img(lb) == lc
        assert img(lc) == ld
        assert img(ld) == la


class TestTetradFlats:
    def test_five_flat_membership_counts_by_class(self):
        flats = tetrad_five_flats().values()
        counts = {"O1": 3, "O2": 2, "O3": 1, "O4": 0, "O5": 0}
        for p in range(1, 256):
            n = sum(1 for fl in flats if p in fl)
            assert n == counts[classify_point(p)]

    def test_points_outside_all_five_flats(self):
        # the 81 points avoiding every 5-flat are exactly O4 and O5
        orbs = definitional_orbits()
        flats = tetrad_five_flats().values()
        outside = {
            p for p in range(1, 256) if all(p not in fl for fl in flats)
        }
        assert outside == set(orbs["O4"] | orbs["O5"])
        assert len(outside) == 81

    def test_three_flat_count_and_dimension(self):
        flats = tetrad_three_flats()
        assert len(flats) == 6
        assert all(fl.dim_projective == 3 for fl in flats.values())

    def test_o1_bisecants_land_in_o2(self):
        orbs = definitional_orbits()
        o1 = sorted(orbs["O1"])
        tetrad = set(TETRAD_LINES)
        externals = []
        for a, b in combinations(o1, 2):
            if frozenset((a, b, a ^ b)) in tetrad:
                continue
            externals.append(a ^ b)
        assert len(externals) == 54
        assert set(externals) <= set(orbs["O2"])


class TestTriplet:
    def test_disjoint_union_covers_o4(self):
        s, s1, s2 = segre_triplet()
        orbs = definitional_orbits()
        assert len(s1) == len(s2) == 27
        assert not (s1 & s2)
        assert s1 | s2 == set(orbs["O4"])

    def test_j_swaps_the_translates(self):
        j = element("J")
        s, s1, s2 = segre_triplet()
        assert {j(p) for p in s1} == s2
        assert {j(p) for p in s2} == s1
        assert {j(p) for p in s} == s

    def test_w2j_exchanges_s_and_s2(self):
        w, j = element("W"), element("J")
        wj = w * w * j
        s, s1, s2 = segre_triplet()
        assert {wj(p) for p in s} == s2
        assert {wj(p) for p in s2} == s
        assert {wj(p) for p in s1} == s1

    def test_even_subgroup_stabilizes_each_member(self):
        s, s1, s2 = segre_triplet()
        for mat in segre_group_even().elements:
            for member in (s, s1, s2):
                assert {mat(p) for p in member} == member


class TestParity:
    def test_examples(self):
        w = element("W")
        img = w(E[1] ^ E[2])
        assert img == E[1] ^ E[3] ^ E[4] ^ E[5] ^ E[6]
        assert parity_class(img) == "odd"
        assert parity_class(E[1] ^ E[3] ^ E[5]) == "odd"
        assert parity_class(E[2] ^ E[4] ^ E[6] ^ E[8]) == "even"

    def test_translates_decompose_by_weight_and_parity(self):
        s, s1, s2 = segre_triplet()
        first = {3: "even", 4: "odd", 5: "odd", 6: "even"}
        for p in s1:
            assert parity_class(p) == first[weight(p)]
        for p in s2:
            assert parity_class(p) != first[weight(p)]

    def test_rejects_points_outside_o4(self):
        with pytest.raises(ValueError):
            parity_class(E[1])


class TestCubeCensus:
    def test_census_sizes_sum_to_255(self):
        assert sum(size for _, _, size, _, _ in CUBE_ORBIT_CENSUS) == 255

    def test_labels_cover_points_and_match_census(self):
        labels = cube_orbit_labels()
        assert len(labels) == 255
        tally = Counter(labels.values())
        for _, _, size, _, label in CUBE_ORBIT_CENSUS:
            assert tally[label] == size

    def test_representatives_carry_their_own_label(self):
        labels = cube_orbit_labels()
        for _, w, _, rep, label in CUBE_ORBIT_CENSUS:
            p = parse_point(rep)
            assert labels[p] == label
            assert weight(p) == w
