"""Collineation groups stabilizing the Segre variety.

Builds the named generators (tensor-product operators, factor permutations,
the fixed-point-free order-3 element W), computes explicit closures and
stabilizer-chain orders for the action on the 255 points, and solves for
commutants and centralizers.
"""

from __future__ import annotations

from functools import cache
from math import prod

from .gf2 import (
    ConstructionError,
    DIM,
    Flat,
    GFMatrix,
    basis_vector,
    kernel,
    nullspace,
    parse_point,
)
from .segre import BASIS_INDEX

# 2x2 matrices over GF(2) as column pairs of 2-bit masks; bit 0 is the
# coefficient of the first frame point of the projective line, bit 1 the
# second.
I2 = (0b01, 0b10)
SWAP2 = (0b10, 0b01)  # interchanges the two frame points
ROT2 = (0b10, 0b11)   # order-3 rotation of the 3-point projective line


def _is_invertible_2x2(a: tuple[int, int]) -> bool:
    c0, c1 = a
    return 0 < c0 <= 3 and 0 < c1 <= 3 and c0 != c1


def tensor_operator(a0, a1, a2) -> GFMatrix:
    """The 8x8 matrix of a0 (x) a1 (x) a2 in the cube basis.

    Each factor acts on one tensor slot; the image of a basis tensor is
    expanded multilinearly and re-expressed through the basis labeling.
    """
    for a in (a0, a1, a2):
        if not _is_invertible_2x2(a):
            raise ValueError(f"singular 2x2 factor: {a!r}")
    cols = [0] * DIM
    for (i, j, k), idx in BASIS_INDEX.items():
        x, y, z = a0[i], a1[j], a2[k]
        img = 0
        for a in (0, 1):
            if not x >> a & 1:
                continue
            for b in (0, 1):
                if not y >> b & 1:
                    continue
                for c in (0, 1):
                    if z >> c & 1:
                        img ^= 1 << (BASIS_INDEX[(a, b, c)] - 1)
        cols[idx - 1] = img
    return GFMatrix(cols)


def sym3_operator(rho: tuple[int, int, int]) -> GFMatrix:
    """Matrix permuting the three tensor slots; rho lists the slot images.

    The slot at position m of the image carries the factor from position
    rho^-1(m), so rho = (2, 1, 3) swaps the first two slots.
    """
    if sorted(rho) != [1, 2, 3]:
        raise ValueError(f"not a permutation of (1, 2, 3): {rho!r}")
    inv = [0, 0, 0]
    for m, im in enumerate(rho, start=1):
        inv[im - 1] = m
    cols = [0] * DIM
    for src, idx in BASIS_INDEX.items():
        dst = tuple(src[inv[m] - 1] for m in range(3))
        cols[idx - 1] = 1 << (BASIS_INDEX[dst] - 1)
    return GFMatrix(cols)


def _expected_images(images: dict[int, str]) -> dict[int, int]:
    return {i: parse_point(s) for i, s in images.items()}


# Expected basis images of every named element; permutations are spelled out
# in full so a convention slip in the operators cannot pass silently.
_VALIDATION: dict[str, dict[int, str]] = {
    "J": {1: "8", 2: "7", 3: "6", 4: "5", 5: "4", 6: "3", 7: "2", 8: "1"},
    "Jx": {1: "2", 2: "1", 3: "4", 4: "3", 5: "6", 6: "5", 7: "8", 8: "7"},
    "Jy": {1: "4", 2: "3", 3: "2", 4: "1", 5: "8", 6: "7", 7: "6", 8: "5"},
    "Jz": {1: "6", 2: "5", 3: "8", 4: "7", 5: "2", 6: "1", 7: "4", 8: "3"},
    "Ax": {1: "2", 2: "12", 3: "34", 4: "3", 5: "56", 6: "5", 7: "8", 8: "78"},
    "K12": {1: "1", 2: "4", 3: "3", 4: "2", 5: "7", 6: "6", 7: "5", 8: "8"},
    "K13": {1: "1", 2: "6", 3: "7", 4: "4", 5: "5", 6: "2", 7: "3", 8: "8"},
    "K23": {1: "1", 2: "2", 3: "5", 4: "6", 5: "3", 6: "4", 7: "7", 8: "8"},
    "C": {1: "2", 2: "3", 3: "4", 4: "1", 5: "8", 6: "5", 7: "6", 8: "7"},
    "B": {1: "1", 2: "4", 3: "7", 4: "6", 5: "3", 6: "2", 7: "5", 8: "8"},
    "W": {
        1: "246", 2: "1235", 3: "248", 4: "1347",
        5: "268", 6: "1567", 7: "468", 8: "3578",
    },
    "K": {1: "8", 2: "2", 3: "3", 4: "4", 5: "5", 6: "6", 7: "7", 8: "1"},
    "K'": {1: "8", 2: "7", 3: "3", 4: "4", 5: "5", 6: "6", 7: "2", 8: "1"},
}

_EXPECTED_ORDERS = {
    "J": 2, "Jx": 2, "Jy": 2, "Jz": 2, "K12": 2, "K13": 2, "K23": 2,
    "K": 2, "K'": 2, "B": 3, "W": 3, "Ax": 3, "Ay": 3, "Az": 3,
    "C": 4, "M": 6, "N": 6,
}


@cache
def named_elements() -> dict[str, GFMatrix]:
    """Catalog of the named collineations, validated against their actions."""
    jx = tensor_operator(SWAP2, I2, I2)
    jy = tensor_operator(I2, SWAP2, I2)
    jz = tensor_operator(I2, I2, SWAP2)
    ax = tensor_operator(ROT2, I2, I2)
    ay = tensor_operator(I2, ROT2, I2)
    az = tensor_operator(I2, I2, ROT2)
    k12 = sym3_operator((2, 1, 3))
    k13 = sym3_operator((3, 2, 1))
    k23 = sym3_operator((1, 3, 2))
    b = sym3_operator((2, 3, 1))
    j = GFMatrix.from_cycles([(1, 8), (2, 7), (3, 6), (4, 5)])
    c = jx * k12
    m = jx * b
    n = ax * k12
    mp = j * m
    w = GFMatrix(
        [parse_point(s) for s in
         ("246", "1235", "248", "1347", "268", "1567", "468", "3578")]
    )
    k = GFMatrix.from_cycles([(1, 8)])
    kp = GFMatrix.from_cycles([(1, 8), (2, 7)])

    catalog = {
        "J": j, "Jx": jx, "Jy": jy, "Jz": jz,
        "Ax": ax, "Ay": ay, "Az": az,
        "K12": k12, "K13": k13, "K23": k23,
        "C": c, "B": b, "M": m, "N": n, "M'": mp,
        "W": w, "K": k, "K'": kp,
    }

    for name, images in _VALIDATION.items():
        mat = catalog[name]
        for i, img in _expected_images(images).items():
            if mat(basis_vector(i)) != img:
                raise ConstructionError(
                    f"{name} maps e{i} to {mat(basis_vector(i))}, expected {img}"
                )
    for name, mat in catalog.items():
        if not mat.is_invertible():
            raise ConstructionError(f"{name} is singular")
        expected = _EXPECTED_ORDERS.get(name)
        if expected is not None and mat.order() != expected:
            raise ConstructionError(f"{name} has wrong order")
    if jx * jy * jz != j:
        raise ConstructionError("product of the three axis involutions is not J")
    return catalog


def element(name: str) -> GFMatrix:
    """Look up a named collineation matrix."""
    catalog = named_elements()
    if name not in catalog:
        raise KeyError(f"unknown element {name!r}; known: {', '.join(catalog)}")
    return catalog[name]


class MatrixGroup:
    """A matrix group given by generators, optionally with explicit elements."""

    __slots__ = ("generators", "elements", "_element_set")

    def __init__(self, generators, elements=None):
        self.generators = tuple(generators)
        self.elements = tuple(elements) if elements is not None else None
        self._element_set = None  # built on the first membership test

    def __contains__(self, mat: GFMatrix) -> bool:
        if self.elements is None:
            raise ValueError("group has no explicit element list")
        if self._element_set is None:
            self._element_set = frozenset(self.elements)
        return mat in self._element_set

    def __len__(self) -> int:
        if self.elements is None:
            raise ValueError("group has no explicit element list")
        return len(self.elements)

    def __repr__(self) -> str:
        size = len(self.elements) if self.elements is not None else "?"
        return f"MatrixGroup(order={size}, ngens={len(self.generators)})"


DEFAULT_CAP = 1 << 21


class ClosureOverflowError(RuntimeError):
    """Closure grew past the requested cap; use schreier_sims for the order."""


def closure(generators, cap: int = DEFAULT_CAP) -> MatrixGroup:
    """Breadth-first product closure with deterministic element order.

    The search runs on the point permutations (GFMatrix.perm): the product
    g * f is f.perm.translate(g.perm), and a matrix is built once per element.
    """
    gens = sorted(set(generators), key=lambda g: g.cols)
    for g in gens:
        if not g.is_invertible():
            raise ValueError("closure requires invertible generators")
    perms = [g.perm for g in gens]
    ident = GFMatrix.identity()
    elements = [ident]
    seen = {ident.perm}
    frontier = [ident.perm]
    while frontier:
        new = []
        for f in frontier:
            for g in perms:
                h = f.translate(g)
                if h not in seen:
                    if len(seen) >= cap:
                        raise ClosureOverflowError(
                            f"closure exceeded cap of {cap} elements"
                        )
                    seen.add(h)
                    new.append(h)
        elements += map(GFMatrix._from_perm, new)
        frontier = new
    return MatrixGroup(tuple(generators), tuple(elements))


# ---------------------------------------------------------------------------
# Stabilizer chain on the 255 points.  Group elements are their point
# permutations (GFMatrix.perm): the product a*b (b first) is b.translate(a).

_IDPERM = bytes(range(256))


def _invert_perm(p: bytes) -> bytes:
    # the table sending p[i] to i
    return bytes.maketrans(p, _IDPERM)


class _Level:
    __slots__ = ("base", "gens", "transversal", "inv_transversal", "pending")

    def __init__(self, base: int):
        self.base = base
        self.gens: list[tuple[bytes, bytes]] = []  # (generator, its inverse)
        self.transversal = {base: _IDPERM}
        self.inv_transversal = {base: _IDPERM}
        self.pending: list[tuple[int, bytes]] = []


def schreier_sims(generators) -> int:
    """Order of the generated group via a stabilizer chain on the 255 points.

    Base points are picked greedily as the smallest point (integer order)
    moved by the stabilizer being extended.  Each strong generator g is
    inverted once; when g extends the orbit from pt to g(pt), the new
    transversal entry is g t_pt and its inverse t_pt^-1 g^-1, one translate
    each.  Transversal entries are never rerouted once written, so every
    Schreier pair (pt, s) is checked exactly once, except the tree edges: the
    pair that first reached s(pt) gives the identity by construction and is
    never queued.
    """
    perms = []
    for m in generators:
        if not m.is_invertible():
            raise ValueError("schreier_sims requires invertible generators")
        if m.perm != _IDPERM:
            perms.append(m.perm)

    levels: list[_Level] = []

    def sift(g: bytes, start: int) -> tuple[bytes, int]:
        for idx in range(start, len(levels)):
            lv = levels[idx]
            img = g[lv.base]
            if img == lv.base:
                continue
            t_inv = lv.inv_transversal.get(img)
            if t_inv is None:
                return g, idx
            g = g.translate(t_inv)
        return g, len(levels)

    def attach(lv: _Level, g: bytes, g_inv: bytes) -> None:
        lv.gens.append((g, g_inv))
        trans, inv_trans = lv.transversal, lv.inv_transversal
        # points already in the orbit meet only g; the points it adds meet
        # every generator
        orbit = list(trans)
        old, only_g = len(orbit), [(g, g_inv)]
        for i, pt in enumerate(orbit):
            for s, s_inv in only_g if i < old else lv.gens:
                img = s[pt]
                if img in trans:
                    lv.pending.append((pt, s))
                else:
                    trans[img] = trans[pt].translate(s)
                    inv_trans[img] = s_inv.translate(inv_trans[pt])
                    orbit.append(img)

    def add_generator(k: int, g: bytes) -> None:
        # g fixes the bases of levels 0..k-1, so it generates at every level
        # up to and including its stick level k.  A wrong inverse transversal
        # entry breaks this, and would otherwise add strong generators forever.
        if any(g[lv.base] != lv.base for lv in levels[:k]):
            raise ConstructionError("sifted residue moves a base point of a higher level")
        if k == len(levels):
            base = next(v for v in range(1, 256) if g[v] != v)
            levels.append(_Level(base))
        g_inv = _invert_perm(g)
        for idx in range(k, -1, -1):
            attach(levels[idx], g, g_inv)

    for p in perms:
        residue, k = sift(p, 0)
        if residue != _IDPERM:
            add_generator(k, residue)

    # levels above k have no pending pairs; a new generator that sticks at
    # level j queues pairs on levels j..0 only
    k = len(levels) - 1
    while k >= 0:
        lv = levels[k]
        if not lv.pending:
            k -= 1
            continue
        pt, s = lv.pending.pop()
        schreier_gen = lv.transversal[pt].translate(s).translate(lv.inv_transversal[s[pt]])
        if schreier_gen == _IDPERM:
            continue
        residue, j = sift(schreier_gen, k + 1)
        if residue != _IDPERM:
            add_generator(j, residue)
            k = j

    return prod(len(lv.transversal) for lv in levels) if levels else 1


# ---------------------------------------------------------------------------
# Fixed spaces, commutants and centralizers.


def fix_subspace(mat: GFMatrix) -> Flat:
    """Flat of all fixed vectors of mat; the empty flat if only 0 is fixed."""
    return kernel(mat ^ GFMatrix.identity())


def _matrix_entry(mat: GFMatrix, i: int, j: int) -> int:
    return mat.cols[j] >> i & 1


def _matrix_from_mask(mask: int) -> GFMatrix:
    cols = [0] * DIM
    for i in range(DIM):
        for j in range(DIM):
            if mask >> (8 * i + j) & 1:
                cols[j] |= 1 << i
    return GFMatrix(cols)


def commutant_basis(generators) -> list[GFMatrix]:
    """Linear basis of the matrices commuting with every generator.

    Solves the stacked GF(2) system XA = AX over the 64 entries of X; the
    basis may contain non-invertible matrices.
    """
    rows = []
    for a in generators:
        for i in range(DIM):
            for k in range(DIM):
                mask = 0
                for j in range(DIM):
                    if _matrix_entry(a, j, k):
                        mask ^= 1 << (8 * i + j)
                    if _matrix_entry(a, i, j):
                        mask ^= 1 << (8 * j + k)
                if mask:
                    rows.append(mask)
    return [_matrix_from_mask(m) for m in nullspace(rows, 64)]


def centralizer_in_gl(generators) -> MatrixGroup:
    """All invertible matrices commuting with every generator."""
    basis = commutant_basis(generators)
    if len(basis) > 20:
        raise ValueError("commutant too large to enumerate exhaustively")
    zero = GFMatrix([0] * DIM)
    elements = []
    for mask in range(1, 1 << len(basis)):
        x = zero
        for idx, mat in enumerate(basis):
            if mask >> idx & 1:
                x = x ^ mat
        if x.is_invertible():
            elements.append(x)
    found = set(elements)
    for a in elements:
        for b in elements:
            if a * b not in found:
                raise ConstructionError("centralizer candidates not closed under product")
    return MatrixGroup(tuple(elements), tuple(elements))


def stabilizer_of_point(group: MatrixGroup, p: int) -> MatrixGroup:
    """Subgroup of an explicit group fixing the point p."""
    if group.elements is None:
        raise ValueError("stabilizer needs a group with explicit elements")
    elems = tuple(a for a in group.elements if a(p) == p)
    return MatrixGroup(elems, elems)


# ---------------------------------------------------------------------------
# The three explicit groups used throughout.


@cache
def segre_group() -> MatrixGroup:
    """The full stabilizer of the variety, order 1296."""
    return closure([element("M"), element("N")])


@cache
def segre_group_even() -> MatrixGroup:
    """The index-2 subgroup with an even number of frame-swapping factors."""
    return closure([element("M'"), element("N")])


@cache
def cube_group() -> MatrixGroup:
    """The basis-cube symmetry group: the stabilizer of the unit point, order 48."""
    return closure([element("M"), element("K12")])
