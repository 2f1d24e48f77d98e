import random
from collections import Counter
from itertools import combinations

import pytest

from refs import ref_line_orbit_split, ref_point_orbits, ref_spread
from segre_pg72 import orbits
from segre_pg72.gf2 import GFMatrix, UNIT, parse_point, span, weight
from segre_pg72.groups import MatrixGroup, cube_group, element, segre_group, segre_group_even
from segre_pg72.orbits import (
    CUBE_ORBIT_CENSUS,
    Spread,
    TETRAD_LINES,
    classify_point,
    cube_orbit_labels,
    definitional_orbits,
    line_orbit_split,
    parity_class,
    point_orbit,
    point_orbits,
    segre_triplet,
    spread_from_w,
    tetrad_five_flats,
    tetrad_three_flats,
)
from segre_pg72.segre import build_model
from support import E, check_with, random_invertible


def listed(split):
    """Every line of a split as a tuple, in its frozenset's iteration order."""
    return [tuple(line) for cls in split for line in cls]


def seeded_groups():
    """Named groups, 50 seeded subsets of <M,N>, and 10 of them extended by K or K'."""
    rng = random.Random(53)
    elements = segre_group().elements
    subsets = [rng.sample(elements, rng.randint(1, 3)) for _ in range(50)]
    extended = [[*gens, element(rng.choice(("K", "K'")))] for gens in subsets[:10]]
    named = [segre_group(), segre_group_even(), cube_group()]
    return named + [MatrixGroup(gens) for gens in subsets + extended]


class TestPointOrbits:
    def test_single_orbit_marks_exactly_its_points(self):
        w = element("W")
        seen = bytearray(256)
        assert point_orbit(E[1], [w.perm], seen) == [E[1], w(E[1]), w(w(E[1]))]
        assert {p for p in range(256) if seen[p]} == {E[1], w(E[1]), w(w(E[1]))}
        assert point_orbit(0, [w.perm], seen) == [0]

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

    def test_agrees_with_call_reference_on_seeded_groups(self):
        for group in seeded_groups():
            assert point_orbits(group).classes == ref_point_orbits(group)


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
    def test_agrees_with_w_power_reference(self):
        assert spread_from_w() == ref_spread()

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

    def test_agrees_with_call_reference_on_seeded_groups(self):
        spread = spread_from_w()
        preserving = rejected = 0
        for group in seeded_groups():
            try:
                expected = ref_line_orbit_split(spread, group)
            except ValueError:
                rejected += 1
                with pytest.raises(ValueError, match="does not preserve the spread"):
                    line_orbit_split(spread, group)
            else:
                preserving += 1
                split = line_orbit_split(spread, group)
                assert split == expected
                # the same frozensets in the same iteration order, which
                # verify prints
                assert listed(split) == listed(expected)
        assert preserving > 0 and rejected > 0

    def test_agrees_with_call_reference_on_partial_spreads(self):
        # unions of line orbits, listed in a shuffled order, stay legal; a
        # random choice of lines is rarely preserved
        rng = random.Random(61)
        spread = spread_from_w()
        preserving = rejected = 0
        for group in seeded_groups():
            try:
                classes = ref_line_orbit_split(spread, group)
            except ValueError:
                continue
            chosen = [line for cls in classes if rng.random() < 0.5 for line in cls]
            for lines in (chosen, rng.sample(spread.lines, rng.randint(1, 84))):
                partial = Spread(tuple(rng.sample(lines, len(lines))))
                try:
                    expected = ref_line_orbit_split(partial, group)
                except ValueError:
                    rejected += 1
                    with pytest.raises(ValueError, match="does not preserve the spread"):
                        line_orbit_split(partial, group)
                else:
                    preserving += 1
                    assert listed(line_orbit_split(partial, group)) == listed(expected)
        assert preserving > 0 and rejected > 0

    @pytest.mark.parametrize("lines,message", [
        (((1, 2, 3), (1, 4, 5)), "^two lines share the point 1$"),
        (((1, 2, 3), (4, 8, 12), (8, 16, 24)), "^two lines share the point 4$"),
        (((1, 2),), "^not a line of three points: 1 2$"),
        (((1, 2, 4),), "^not a line of three points: 1 2 3$"),
        (((0, 1, 1),), "^not a point: 0$"),
    ], ids=["overlap", "overlap-later", "two-points", "not-a-line", "zero"])
    def test_lines_that_are_not_disjoint_lines_are_rejected(self, lines, message):
        spread = Spread(tuple(frozenset(line) for line in lines))
        with pytest.raises(ValueError, match=message):
            line_orbit_split(spread, segre_group())

    @pytest.mark.parametrize("lines,cols", [
        # J sends {e1, e2, e1 + e2} to {e8, e7, e7 + e8}, none of which the
        # one-line spread covers: every point reads the off-spread index
        (((1, 2, 3),), (128, 64, 32, 16, 8, 4, 2, 1)),
    ], ids=["uncovered"])
    def test_a_map_off_a_partial_spread_is_rejected_by_both_routes(self, lines, cols):
        spread = Spread(tuple(frozenset(line) for line in lines))
        group = MatrixGroup([GFMatrix(cols)])
        for route in (line_orbit_split, ref_line_orbit_split):
            with pytest.raises(ValueError, match="does not preserve the spread"):
                route(spread, group)

    @pytest.mark.parametrize("cols", [
        # e1, e2 -> e1 sends e1 and e2 into the line {e1, e2, e1 + e2} and
        # e1 + e2 to 0
        (1, 1, 4, 8, 16, 32, 64, 128),
        # e3 -> e1, e4 -> e2 folds {e3, e4, e3 + e4} onto {e1, e2, e1 + e2},
        # the line split off first
        (1, 2, 1, 2, 16, 32, 64, 128),
        # e1 -> e3, e2 -> e4 folds {e1, e2, e1 + e2} onto {e3, e4, e3 + e4},
        # a line not yet walked, so a walk of the lines sees no fold
        (4, 8, 4, 8, 16, 32, 64, 128),
    ], ids=["to-zero", "onto-a-finished-class", "onto-a-later-line"])
    def test_a_singular_map_of_lines_is_rejected_when_the_group_is_built(self, cols):
        # so neither route ever meets it, whatever the order of the lines
        with pytest.raises(ValueError, match="^group generators must be invertible$"):
            MatrixGroup([GFMatrix(cols)])

    def test_an_invertible_map_that_keeps_two_points_of_a_line_together_keeps_the_third(self):
        # why the split compares only the first two points of each line: g
        # sends a + b to g(a) + g(b), the third point of their line
        rng = random.Random(89)
        lines = spread_from_w().lines
        line_of = {p: i for i, line in enumerate(lines) for p in line}
        kept = 0
        for _ in range(2000):
            g = random_invertible(rng)
            for line in lines:
                a, b, c = sorted(line)
                two = line_of[g(a)] == line_of[g(b)]
                assert two == (line_of[g(a)] == line_of[g(b)] == line_of[g(c)])
                kept += two
        assert kept > 0

    def test_the_tetrad_alone_is_one_class(self):
        split = line_orbit_split(Spread(TETRAD_LINES), segre_group())
        assert [set(cls) for cls in split] == [set(TETRAD_LINES)]

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
        flats = tetrad_five_flats()
        counts = {"O1": 3, "O2": 2, "O3": 1, "O4": 0, "O5": 0}
        for p in range(1, 256):
            n = sum(1 for fl in flats if p in fl)
            assert n == counts[classify_point(p)]
        # flat i is the span of the other three lines and misses line i
        assert len(flats) == 4
        for i, (fl, line) in enumerate(zip(flats, TETRAD_LINES)):
            others = [p for j, other in enumerate(TETRAD_LINES) if j != i for p in other]
            assert fl == span(others)
            assert not any(p in fl for p in line)

    def test_points_outside_all_five_flats(self):
        # the 81 points avoiding every 5-flat are exactly O4 and O5
        orbs = definitional_orbits()
        flats = tetrad_five_flats()
        outside = {
            p for p in range(1, 256) if all(p not in fl for fl in flats)
        }
        assert outside == set(orbs["O4"] | orbs["O5"])
        assert len(outside) == 81

    def test_three_flat_count_and_dimension(self):
        flats = tetrad_three_flats()
        assert len(flats) == 6
        assert all(fl.dim_projective == 3 for fl in flats)
        # the pair spans, in combinations order
        assert flats == tuple(span(a | b) for a, b in combinations(TETRAD_LINES, 2))

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

    @pytest.mark.parametrize("label,row,cid,message", [
        ("O1,5", ("O1", 5, 4, "135u", "O1,5"), "table1/O1", "does not match the orbit"),
        ("O2,2", ("O2", 3, 12, "13", "O2,2"), "table1/O2", "does not match the orbit"),
        ("O4,4'", ("O3", 4, 2, "1357", "O4,4'"), "table1/O3", "sits in the wrong class"),
        ("O4,5", ("O4", 5, 12, "178u", "O4,5"), "table1/O4", "does not match the orbit"),
        ("O1,6", ("O5", 6, 4, "18u", "O1,6"), "table1/O5", "sits in the wrong class"),
    ], ids=["O1-size", "O2-weight", "O3-class", "O4-size", "O5-class"])
    def test_one_changed_census_row_fails_its_check(self, label, row, cid, message):
        census = tuple(row if r[4] == label else r for r in CUBE_ORBIT_CENSUS)
        result = check_with(cube_orbit_labels, vars(orbits), "CUBE_ORBIT_CENSUS", census, cid)
        assert (result.actual, result.passed) == (
            f"raised ConstructionError: census row {label} {message}", False)
