"""Point and line orbits, the 85-line spread, and the variety triplet.

The five point classes O1..O5 are built two independent ways: definitionally
from the incidence geometry of the variety (kept here as frozen sets) and by
orbit enumeration under the stabilizer group; agreement of the two routes is
part of the verification surface.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import NamedTuple

from .gf2 import ConstructionError, Flat, _check_point, _mask_of, format_point, parse_point, point_orbit, span
from .groups import MatrixGroup, cube_group, element
from .segre import build_model


class OrbitClass(NamedTuple):
    points: tuple[int, ...]  # sorted ascending; the first entry is the representative

    @property
    def rep(self) -> int:
        return self.points[0]

    @property
    def size(self) -> int:
        return len(self.points)


class OrbitPartition(NamedTuple):
    classes: tuple[OrbitClass, ...]

    def class_of(self, v: int) -> OrbitClass:
        _check_point(v)
        for cls in self.classes:
            if v in cls.points:
                return cls
        raise ValueError(f"point {v} is in no class of this partition")

    def sizes(self) -> list[int]:
        return [cls.size for cls in self.classes]


def point_orbits(group: MatrixGroup) -> OrbitPartition:
    """Orbit partition of the 255 points under the group's generators.

    MatrixGroup holds only invertible generators, so each table permutes
    the points.  Classes come out sorted by their minimal point, which
    doubles as the representative.
    """
    perms = [g.perm for g in group.generators]
    seen = bytearray(256)
    classes = []
    for p in range(1, 256):
        if not seen[p]:
            classes.append(OrbitClass(tuple(sorted(point_orbit(p, perms, seen)))))
    return OrbitPartition(tuple(classes))


@cache
def definitional_orbits() -> dict[str, frozenset[int]]:
    """The five point classes read off the incidence geometry directly.

    O5: the variety.  O2: ambient-3-flat points off the variety.  O4: the
    other two points on each distinguished tangent.  O3: third points of
    bisecants through two variety points sharing no 9-point grid.  O1: the
    remaining 12 points.  The class sizes are claims, checked by
    orbits/classifier against the group orbits that orbits/sizes counts.
    """
    model = build_model()
    s = set(model.point_set)

    o2: set[int] = set()
    for fl in model.ambient_flats.values():
        o2.update(fl.points())
    o2 -= s

    o4: set[int] = set()
    for line in model.tangents.values():
        o4.update(line)
    o4 -= s
    if o2 & o4:
        raise ConstructionError("ambient and tangent exteriors overlap")

    o3: set[int] = set()
    grids = list(model.sub_segres.values())
    for a, b in combinations(sorted(s), 2):
        if any(a in grid and b in grid for grid in grids):
            continue
        o3.add(a ^ b)
    if o3 & (s | o2 | o4):
        raise ConstructionError("other-bisecant class overlaps the other classes")

    o1 = set(range(1, 256)) - s - o2 - o3 - o4
    return {
        "O1": frozenset(o1),
        "O2": frozenset(o2),
        "O3": frozenset(o3),
        "O4": frozenset(o4),
        "O5": frozenset(s),
    }


def classify_point(p: int) -> str:
    """Definitional orbit label of a point, one of O1..O5."""
    _check_point(p)
    orbs = definitional_orbits()
    for label in ("O5", "O2", "O4", "O3", "O1"):
        if p in orbs[label]:
            return label
    raise AssertionError("unreachable: classes cover all points")


def orbit_mask(*labels: str) -> int:
    """Mask of the points in the named definitional classes; an unknown label raises KeyError."""
    return _mask_of(p for label in labels for p in definitional_orbits()[label])


# ---------------------------------------------------------------------------
# The invariant spread of 85 lines and its orbit split.


class Spread(NamedTuple):
    lines: tuple[frozenset[int], ...]


@cache
def spread_from_w() -> Spread:
    """The point orbits of Z = <W>, each of three points.

    Classes of three points that cover all 255 points number exactly 85.
    That each is a line is a claim, checked by spread/lines; spread/count
    reports the count.
    """
    classes = point_orbits(MatrixGroup((element("W"),))).classes
    for cls in classes:
        if cls.size != 3:
            raise ConstructionError("W-orbit does not have three points")
    return Spread(tuple(frozenset(cls.points) for cls in classes))


_OFF = 255  # line index of a point on no line; a spread has at most 85 lines


@cache
def _line_tables(lines: tuple[frozenset[int], ...]) -> tuple[bytes, bytes, bytes, tuple[int, ...]]:
    """Byte tables of pairwise disjoint lines, keyed by line index.

    The first table sends each point to the index of its line, and a point
    on no line to _OFF; the next two hold the smallest and the middle point
    of each line; the last entry orders the line indices by minimal point.
    Raises ValueError unless the lines are pairwise disjoint lines
    {a, b, a + b} of PG(7,2).
    """
    index = bytearray([_OFF]) * 256
    firsts, seconds = bytearray(), bytearray()
    for i, line in enumerate(lines):
        for p in line:
            _check_point(p)
        pts = sorted(line)
        if len(pts) != 3 or pts[0] ^ pts[1] != pts[2]:
            raise ValueError(f"not a line of three points: {' '.join(map(format_point, pts))}")
        for p in pts:
            if index[p] != _OFF:
                raise ValueError(f"two lines share the point {format_point(p)}")
            index[p] = i
        firsts.append(pts[0])
        seconds.append(pts[1])
    by_min = tuple(sorted(range(len(lines)), key=firsts.__getitem__))
    return bytes(index), bytes(firsts), bytes(seconds), by_min


def line_orbit_split(spread: Spread, group: MatrixGroup) -> tuple[tuple[frozenset[int], ...], ...]:
    """Orbits of the group on the spread lines, sorted by minimal point.

    The spread's lines must be pairwise disjoint lines {a, b, a + b}; they
    need not cover all points.  Raises ValueError if they are not, or if a
    generator maps a line off the spread.

    Each generator g is read through t, the table of p -> the index of the
    line through g(p): line i goes to line t(first(i)), and g preserves the
    spread exactly when t agrees on the first two points of every line and
    never gives _OFF.  That is two translates per generator.  It is exact
    because g is invertible (MatrixGroup checks it): if g sends a and b
    into one line L, they go to two distinct points of L and a + b to their
    sum, the third, so g maps {a, b, a + b} onto L.  Being one-to-one, g
    then permutes the lines, and a walk from a line finds its whole orbit.
    """
    lines = tuple(spread.lines)
    index, firsts, seconds, by_min = _line_tables(lines)
    moves = []
    for g in group.generators:
        t = g.perm.translate(index)
        move = firsts.translate(t)
        if move != seconds.translate(t) or _OFF in move:
            raise ValueError("the group does not preserve the spread")
        moves.append((g.perm, move))
    # A class holds its start line as the spread's own object and every other
    # line as the frozenset built when the walk first finds it, from the
    # object of the line that found it, its points mapped in that object's
    # iteration order.  `verify` prints their iteration order
    # (spread/tangents), so the walk stays depth first in this order and
    # builds each image once; the tests pin it against ref_line_orbit_split.
    # The walk labels each line with its class's first line, so the classes,
    # and the lines within each, are read off this one pass in by_min order.
    found = list(lines)
    first = bytearray([_OFF]) * len(lines)
    classes: dict[int, list[frozenset[int]]] = {}
    for start in by_min:
        if first[start] == _OFF:
            first[start] = start
            stack = [start]
            while stack:
                i = stack.pop()
                line = found[i]
                for perm, move in moves:
                    j = move[i]
                    if first[j] == _OFF:
                        first[j] = start
                        found[j] = frozenset(map(perm.__getitem__, line))
                        stack.append(j)
        classes.setdefault(first[start], []).append(found[start])
    return tuple(map(tuple, classes.values()))


# The four-line orbit of the spread, frozen in coordinates; everything about
# the tetrad (its 5-flat and 3-flat spans) derives from these twelve points.
TETRAD_LINES = tuple(
    frozenset(parse_point(s) for s in triple)
    for triple in (
        ("18u", "357u", "246u"),
        ("27u", "135u", "468u"),
        ("36u", "157u", "248u"),
        ("45u", "137u", "268u"),
    )
)


def _tetrad_spans(lines: tuple[frozenset[int], ...], k: int, dim: int, message: str) -> tuple[Flat, ...]:
    """The flats spanned by the k-subsets of lines, in combinations order; each must be a dim-flat."""
    flats = tuple(span(frozenset().union(*subset)) for subset in combinations(lines, k))
    if any(flat.dim_projective != dim for flat in flats):
        raise ConstructionError(message)
    return flats


@cache
def tetrad_five_flats() -> tuple[Flat, ...]:
    """For each tetrad line, in order, the 5-flat spanned by the other three lines."""
    # the triples of the reversed lines miss line 0, 1, 2 and 3 in turn
    return _tetrad_spans(TETRAD_LINES[::-1], 3, 5, "three tetrad lines do not span a 5-flat")


@cache
def tetrad_three_flats() -> tuple[Flat, ...]:
    """The six 3-flats spanned by pairs of tetrad lines, in combinations order."""
    return _tetrad_spans(TETRAD_LINES, 2, 3, "two tetrad lines do not span a 3-flat")


# ---------------------------------------------------------------------------
# The triplet of varieties sharing the tangent spread.


@cache
def segre_triplet() -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """The variety S together with its translates S' = W(S) and S'' = W^2(S).

    That they are disjoint, that S' and S'' cover O4 and that <M', N> fixes
    each of them are claims of the paper, checked by orbits/triplet-disjoint,
    orbits/triplet-union and orbits/even-classes.
    """
    w = element("W")
    s = build_model().point_set
    s1 = frozenset(w(p) for p in s)
    s2 = frozenset(w(w(p)) for p in s)
    return s, s1, s2


_HIGH_HALF = 0xAA  # coordinate positions 2, 4, 6, 8
_LOW_HALF = 0x55   # coordinate positions 1, 3, 5, 7


def parity_class(p: int) -> str:
    """'even' or 'odd' according to which tetrahedron dominates p's support.

    Only defined on the tangent-exterior class O4, where the two counts are
    never equal.
    """
    if p not in definitional_orbits()["O4"]:
        raise ValueError(f"not a tangent-exterior point: {p!r}")
    high = (p & _HIGH_HALF).bit_count()
    low = (p & _LOW_HALF).bit_count()
    if high == low:
        raise ConstructionError("parity tie on a tangent-exterior point")
    return "even" if high > low else "odd"


# ---------------------------------------------------------------------------
# Weight census of the cube-group refinement of the five classes.  Primed
# labels distinguish same-weight classes via their frozen representative.

CUBE_ORBIT_CENSUS = (
    ("O1", 5, 8, "135u", "O1,5"),
    ("O1", 6, 4, "18u", "O1,6"),
    ("O2", 2, 12, "13", "O2,2"),
    ("O2", 3, 24, "123", "O2,3"),
    ("O2", 4, 6, "1278", "O2,4"),
    ("O2", 6, 12, "12u", "O2,6"),
    ("O3", 2, 4, "18", "O3,2"),
    ("O3", 3, 24, "128", "O3,3"),
    ("O3", 4, 24, "1238", "O3,4"),
    ("O3", 4, 24, "1248", "O3,4'"),
    ("O3", 5, 24, "123u", "O3,5"),
    ("O3", 7, 8, "1u", "O3,7"),
    ("O4", 3, 8, "135", "O4,3"),
    ("O4", 4, 8, "1246", "O4,4"),
    ("O4", 4, 2, "1357", "O4,4'"),
    ("O4", 5, 24, "178u", "O4,5"),
    ("O4", 6, 12, "13u", "O4,6"),
    ("O5", 1, 8, "1", "O5,1"),
    ("O5", 2, 12, "12", "O5,2"),
    ("O5", 4, 6, "1234", "O5,4"),
    ("O5", 8, 1, "u", "O5,8"),
)


@cache
def cube_orbit_labels() -> dict[int, str]:
    """Census label for every point under the cube-group refinement.

    Each row labels the cube-group orbit of its representative.  That the
    orbit has the row's size, weight and class is a claim, checked by
    table1/O1..O5; table1/count compares the number of orbits.
    """
    partition = point_orbits(cube_group())
    labels: dict[int, str] = {}
    matched = set()
    for *_, rep, label in CUBE_ORBIT_CENSUS:
        cls = partition.class_of(parse_point(rep))
        if cls in matched:
            raise ConstructionError(f"census row {label} reuses an orbit")
        matched.add(cls)
        for p in cls.points:
            labels[p] = label
    if len(labels) != 255:
        raise ConstructionError("census does not cover all points")
    return labels
