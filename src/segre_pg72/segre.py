"""The 27-point Segre variety in PG(7,2) and its invariant attribute families.

Points are the decomposable tensors u_i (x) u_j (x) u_k over the projective
line {u_0, u_1, u_2 = u_0 + u_1}; a multi-index entry of 2 therefore expands
by linearity into the sum of the 0- and 1-indexed tensors.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product
from typing import NamedTuple

from .gf2 import ConstructionError, Flat, span

# Coordinates of the eight tensors u_i (x) u_j (x) u_k with i,j,k in {0,1}.
# Even-parity multi-indices sit on e1,e3,e5,e7 and their opposite cube
# vertices carry the odd-parity ones.
BASIS_INDEX = {
    (0, 0, 0): 1, (1, 0, 0): 2, (1, 1, 0): 3, (0, 1, 0): 4,
    (1, 0, 1): 5, (0, 0, 1): 6, (0, 1, 1): 7, (1, 1, 1): 8,
}

MULTI_INDICES = tuple(product((0, 1, 2), repeat=3))


def segre_point(m: tuple[int, int, int]) -> int:
    """Coordinate vector of the decomposable tensor with multi-index m."""
    i, j, k = m
    if not all(x in (0, 1, 2) for x in (i, j, k)):
        raise ValueError(f"multi-index entries must be 0, 1 or 2: {m!r}")
    v = 0
    for a in ((i,) if i < 2 else (0, 1)):
        for b in ((j,) if j < 2 else (0, 1)):
            for c in ((k,) if k < 2 else (0, 1)):
                v ^= 1 << (BASIS_INDEX[(a, b, c)] - 1)
    return v


class SegreModel(NamedTuple):
    """All attribute families of the variety, immutable after construction.

    generators maps (i, j, r) to the line varying slot r with the other two
    slots fixed at (i, j); sub_segres maps (i, r) to the 9-point grid with
    slot r pinned at i; ambient_flats holds the 3-flat spans of those grids;
    z_flats maps a multi-index to the 3-flat spanned by the three generators
    through that point; tangents maps each point p to the line {p, p', p''}
    whose other two points avoid every plane spanned by two generators
    through p.
    """

    points: tuple[int, ...]
    generators: dict[tuple[int, int, int], frozenset[int]]
    sub_segres: dict[tuple[int, int], frozenset[int]]
    ambient_flats: dict[tuple[int, int], Flat]
    z_flats: dict[tuple[int, int, int], Flat]
    tangents: dict[int, frozenset[int]]
    point_set: frozenset[int]


def _put(pair, r, x):
    """The multi-index with x in slot r (1..3) and pair in the other two slots."""
    return pair[:r - 1] + (x,) + pair[r - 1:]


def _generators_through(model_gens, m):
    # the generator varying slot r is keyed by the other two slots of m
    return tuple(model_gens[m[:r - 1] + m[r:] + (r,)] for r in (1, 2, 3))


@cache
def build_model() -> SegreModel:
    rng3 = (0, 1, 2)
    points = tuple(segre_point(m) for m in MULTI_INDICES)
    point_set = frozenset(points)
    if len(point_set) != 27:
        raise ConstructionError("expected 27 distinct decomposable points")

    generators = {
        (i, j, r): frozenset(segre_point(_put((i, j), r, k)) for k in rng3)
        for i in rng3 for j in rng3 for r in (1, 2, 3)
    }
    for line in generators.values():
        if len(line) != 3 or not line <= point_set:
            raise ConstructionError("generator is not a 3-point subset of the variety")
        a, b, c = sorted(line)
        if a ^ b != c:
            raise ConstructionError("generator is not collinear")

    sub_segres = {
        (i, r): frozenset(segre_point(_put(pair, r, i)) for pair in product(rng3, repeat=2))
        for i in rng3 for r in (1, 2, 3)
    }

    ambient_flats = {}
    for key, grid in sub_segres.items():
        if len(grid) != 9:
            raise ConstructionError("sub-grid does not have 9 points")
        flat = span(grid)
        if flat.dim_projective != 3:
            raise ConstructionError("grid span is not a 3-flat")
        ambient_flats[key] = flat

    for p in points:
        if sum(1 for fl in ambient_flats.values() if p in fl) != 3:
            raise ConstructionError("variety point not on exactly three ambient 3-flats")

    z_flats = {}
    for m in MULTI_INDICES:
        g1, g2, g3 = _generators_through(generators, m)
        flat = span(g1 | g2 | g3)
        if flat.dim_projective != 3:
            raise ConstructionError("generator triple does not span a 3-flat")
        z_flats[m] = flat

    tangents = {}
    for m, p in zip(MULTI_INDICES, points):
        gens = _generators_through(generators, m)
        planes = [span(a | b) for a, b in combinations(gens, 2)]
        external = [
            q
            for q in z_flats[m].points()
            if all(q not in plane for plane in planes)
        ]
        if len(external) != 2:
            raise ConstructionError(
                f"expected 2 points of Z{m} outside the generator planes, "
                f"found {len(external)}"
            )
        p1, p2 = external
        if p1 ^ p2 != p:
            raise ConstructionError("tangent points are not collinear with p")
        tangents[p] = frozenset((p, p1, p2))

    covered = set()
    for p, line in tangents.items():
        if len(line & point_set) != 1:
            raise ConstructionError("tangent meets the variety in more than one point")
        if covered & line:
            raise ConstructionError("distinguished tangents are not pairwise disjoint")
        covered |= line

    return SegreModel(
        points=points,
        generators=generators,
        sub_segres=sub_segres,
        ambient_flats=ambient_flats,
        z_flats=z_flats,
        tangents=tangents,
        point_set=point_set,
    )

