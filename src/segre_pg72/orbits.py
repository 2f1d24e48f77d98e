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

from .gf2 import ConstructionError, Flat, parse_point, span, weight
from .groups import MatrixGroup, element, segre_group_even
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
        for cls in self.classes:
            if v in cls.points:
                return cls
        raise ValueError(f"not a point: {v!r}")

    def sizes(self) -> list[int]:
        return [cls.size for cls in self.classes]


def point_orbits(group: MatrixGroup) -> OrbitPartition:
    """Orbit partition of the 255 points under the group's generators.

    Classes come out sorted by their minimal point, which doubles as the
    representative.
    """
    perms = [g.perm for g in group.generators]
    seen = bytearray(256)
    classes = []
    for p in range(1, 256):
        if seen[p]:
            continue
        orbit = [p]
        seen[p] = 1
        qi = 0
        while qi < len(orbit):
            v = orbit[qi]
            qi += 1
            for g in perms:
                w = g[v]
                if not seen[w]:
                    seen[w] = 1
                    orbit.append(w)
        classes.append(OrbitClass(tuple(sorted(orbit))))
    return OrbitPartition(tuple(classes))


@cache
def definitional_orbits() -> dict[str, frozenset[int]]:
    """The five point classes read off the incidence geometry directly.

    O5: the variety.  O2: ambient-3-flat points off the variety.  O4: the
    other two points on each distinguished tangent.  O3: third points of
    bisecants through two variety points sharing no 9-point grid.  O1: the
    remaining 12 points.
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
    if len(o3) != 108 or o3 & (s | o2 | o4):
        raise ConstructionError("other-bisecant class has the wrong size")

    o1 = set(range(1, 256)) - s - o2 - o3 - o4
    if len(o1) != 12:
        raise ConstructionError("residual class has the wrong size")
    return {
        "O1": frozenset(o1),
        "O2": frozenset(o2),
        "O3": frozenset(o3),
        "O4": frozenset(o4),
        "O5": frozenset(s),
    }


def classify_point(p: int) -> str:
    """Definitional orbit label of a point, one of O1..O5."""
    if not 0 < p <= 0xFF:
        raise ValueError(f"not a point: {p!r}")
    orbs = definitional_orbits()
    for label in ("O5", "O2", "O4", "O3", "O1"):
        if p in orbs[label]:
            return label
    raise AssertionError("unreachable: classes cover all points")


def orbit_mask(label_sets: dict[str, frozenset[int]], *labels: str) -> int:
    mask = 0
    for label in labels:
        for p in label_sets[label]:
            mask |= 1 << p
    return mask


# ---------------------------------------------------------------------------
# The invariant spread of 85 lines and its orbit split.


class Spread(NamedTuple):
    lines: tuple[frozenset[int], ...]


@cache
def spread_from_w() -> Spread:
    """The 85 orbits of W on the points, each certified to be a line."""
    w = element("W")
    seen = bytearray(256)
    lines = []
    for p in range(1, 256):
        if seen[p]:
            continue
        q = w(p)
        r = w(q)
        if len({p, q, r}) != 3 or p ^ q != r:
            raise ConstructionError("W-orbit is not a projective line")
        lines.append(frozenset((p, q, r)))
        for v in (p, q, r):
            seen[v] = 1
    if len(lines) != 85:
        raise ConstructionError(f"expected 85 lines, found {len(lines)}")
    return Spread(tuple(lines))


def line_orbit_split(spread: Spread, group: MatrixGroup) -> tuple[tuple[frozenset[int], ...], ...]:
    """Orbits of the group on the spread lines, sorted by minimal point.

    Raises ValueError if the group does not map the spread to itself.
    """
    perms = [g.perm for g in group.generators]
    remaining = {line: min(line) for line in spread.lines}
    classes = []
    while remaining:
        start = min(remaining, key=remaining.get)
        orbit = {start}
        queue = [start]
        while queue:
            line = queue.pop()
            for g in perms:
                img = frozenset([g[p] for p in line])
                if img not in remaining:
                    raise ValueError("the group does not preserve the spread")
                if img not in orbit:
                    orbit.add(img)
                    queue.append(img)
        for line in orbit:
            del remaining[line]
        classes.append(tuple(sorted(orbit, key=min)))
    return tuple(classes)


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

_TETRAD_KEYS = "abcd"


@cache
def tetrad_five_flats() -> dict[str, Flat]:
    """For each tetrad line, the 5-flat spanned by the other three lines."""
    flats = {}
    for i, h in enumerate(_TETRAD_KEYS):
        pts: set[int] = set()
        for j, line in enumerate(TETRAD_LINES):
            if j != i:
                pts |= line
        flat = span(pts)
        if flat.dim_projective != 5:
            raise ConstructionError("three tetrad lines do not span a 5-flat")
        flats[h] = flat
    return flats


@cache
def tetrad_three_flats() -> dict[str, Flat]:
    """The six 3-flats spanned by pairs of tetrad lines."""
    flats = {}
    for (i, h), (j, k) in combinations(enumerate(_TETRAD_KEYS), 2):
        flat = span(TETRAD_LINES[i] | TETRAD_LINES[j])
        if flat.dim_projective != 3:
            raise ConstructionError("two tetrad lines do not span a 3-flat")
        flats[h + k] = flat
    return flats


# ---------------------------------------------------------------------------
# The triplet of varieties sharing the tangent spread.


@cache
def segre_triplet() -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """The variety together with its two W-translates, certified disjoint."""
    w = element("W")
    s = build_model().point_set
    s1 = frozenset(w(p) for p in s)
    s2 = frozenset(w(w(p)) for p in s)
    if s & s1 or s & s2 or s1 & s2:
        raise ConstructionError("triplet members are not pairwise disjoint")
    if s1 | s2 != definitional_orbits()["O4"]:
        raise ConstructionError("translates do not cover the tangent-exterior class")
    for g in segre_group_even().generators:
        for member in (s, s1, s2):
            if {g(p) for p in member} != member:
                raise ConstructionError("triplet member not stabilized setwise")
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
    """Census label for every point under the cube-group refinement."""
    from .groups import cube_group

    partition = point_orbits(cube_group())
    if len(partition.classes) != len(CUBE_ORBIT_CENSUS):
        raise ConstructionError(
            f"cube group has {len(partition.classes)} orbits, "
            f"expected {len(CUBE_ORBIT_CENSUS)}"
        )
    labels: dict[int, str] = {}
    matched = set()
    for gs_label, w, size, rep, label in CUBE_ORBIT_CENSUS:
        rep_pt = parse_point(rep)
        cls = partition.class_of(rep_pt)
        if cls.size != size or any(weight(p) != w for p in cls.points):
            raise ConstructionError(f"census row {label} does not match the orbit")
        if classify_point(rep_pt) != gs_label:
            raise ConstructionError(f"census row {label} sits in the wrong class")
        if cls in matched:
            raise ConstructionError(f"census row {label} reuses an orbit")
        matched.add(cls)
        for p in cls.points:
            labels[p] = label
    if len(labels) != 255:
        raise ConstructionError("census does not cover all points")
    return labels
