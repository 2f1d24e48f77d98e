"""Collineation groups stabilizing the Segre variety.

Builds the named generators (tensor-product operators, factor permutations,
the fixed-point-free order-3 element W), computes explicit closures and
stabilizer-chain orders for the action on the 255 points, and solves for
commutants and centralizers.
"""

from __future__ import annotations

from functools import cache
from math import prod
from typing import NamedTuple

from .gf2 import (
    ConstructionError,
    DIM,
    Flat,
    GFMatrix,
    _IDPERM,
    _UNITS,
    _check_matrices,
    _check_point,
    _echelon,
    _invert_perm,
    _kernel,
    _xor_sums,
    kernel,
    parse_point,
)
from .segre import BASIS_INDEX, segre_point

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

    Each factor acts on one tensor slot, so a basis tensor maps to the
    decomposable tensor of the factors' column images.  A column mask 1, 2 or
    3 is u_0, u_1 or u_0 + u_1, the multi-index entry 0, 1 or 2.
    """
    for a in (a0, a1, a2):
        if not _is_invertible_2x2(a):
            raise ValueError(f"singular 2x2 factor: {a!r}")
    cols = [0] * DIM
    for (i, j, k), idx in BASIS_INDEX.items():
        cols[idx - 1] = segre_point((a0[i] - 1, a1[j] - 1, a2[k] - 1))
    return GFMatrix(cols)


def sym3_operator(rho: tuple[int, int, int]) -> GFMatrix:
    """Matrix permuting the three tensor slots; rho lists the slot images.

    The slot at position m of the image carries the factor from position
    rho^-1(m), so rho = (2, 1, 3) swaps the first two slots.
    """
    if sorted(rho) != [1, 2, 3]:
        raise ValueError(f"not a permutation of (1, 2, 3): {rho!r}")
    cols = [0] * DIM
    for src, idx in BASIS_INDEX.items():
        cols[idx - 1] = segre_point(tuple(src[rho.index(m)] for m in (1, 2, 3)))
    return GFMatrix(cols)


# Expected images of e1..e8 under every named element, in point shorthand.
# Permutations are spelled out in full so a convention slip in the operators
# cannot pass silently; W is built from its own row.  That every other row
# matches is a claim, checked by groups/catalog.
_VALIDATION: dict[str, str] = {
    "J": "8 7 6 5 4 3 2 1",
    "Jx": "2 1 4 3 6 5 8 7",
    "Jy": "4 3 2 1 8 7 6 5",
    "Jz": "6 5 8 7 2 1 4 3",
    "Ax": "2 12 34 3 56 5 8 78",
    "K12": "1 4 3 2 7 6 5 8",
    "K13": "1 6 7 4 5 2 3 8",
    "K23": "1 2 5 6 3 4 7 8",
    "C": "2 3 4 1 8 5 6 7",
    "B": "1 4 7 6 3 2 5 8",
    "W": "246 1235 248 1347 268 1567 468 3578",
    "K": "8 2 3 4 5 6 7 1",
    "K'": "8 7 3 4 5 6 2 1",
}


@cache
def named_elements() -> dict[str, GFMatrix]:
    """Catalog of the named collineations."""
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
    w = GFMatrix(map(parse_point, _VALIDATION["W"].split()))
    k = GFMatrix.from_cycles([(1, 8)])
    kp = GFMatrix.from_cycles([(1, 8), (2, 7)])

    return {
        "J": j, "Jx": jx, "Jy": jy, "Jz": jz,
        "Ax": ax, "Ay": ay, "Az": az,
        "K12": k12, "K13": k13, "K23": k23,
        "C": c, "B": b, "M": m, "N": n, "M'": mp,
        "W": w, "K": k, "K'": kp,
    }


_ALIASES = {"Mp": "M'", "Kp": "K'"}


def element(name: str) -> GFMatrix:
    """Look up a named collineation matrix; Mp and Kp name M' and K'."""
    catalog = named_elements()
    name = _ALIASES.get(name, name)
    if name not in catalog:
        raise KeyError(f"unknown element {name!r}; known: {', '.join(catalog)}")
    return catalog[name]


def elements(label: str) -> tuple[GFMatrix, ...]:
    """The named elements of a comma-separated label such as "M', N"."""
    return tuple(element(name.strip()) for name in label.split(","))


class MatrixGroup:
    """A matrix group given by generators, optionally with explicit elements.

    The elements are kept as their point tables.  A closure builds their
    matrices when `elements` is first read; length and membership read the
    tables alone.
    """

    __slots__ = ("generators", "_elements", "_tables", "_table_set")

    def __init__(self, generators, elements=None):
        self.generators = _check_matrices(generators)
        self._elements = None
        self._tables = None
        self._table_set = None  # built on the first membership test
        if elements is not None:
            self._elements = _check_matrices(elements)
            self._tables = tuple(m.perm for m in self._elements)

    @classmethod
    def _from_tables(cls, generators, tables: tuple[bytes, ...]) -> "MatrixGroup":
        # trusted constructor: tables are the point tables of the elements
        group = cls(generators)
        group._tables = tables
        return group

    @property
    def elements(self) -> tuple[GFMatrix, ...] | None:
        if self._elements is None and self._tables is not None:
            self._elements = tuple(map(GFMatrix._from_perm, self._tables))
        return self._elements

    def __contains__(self, mat: GFMatrix) -> bool:
        if self._table_set is None:
            self._table_set = frozenset(self._listed())
        return isinstance(mat, GFMatrix) and mat.perm in self._table_set

    def __len__(self) -> int:
        return len(self._listed())

    def _listed(self) -> tuple[bytes, ...]:
        if self._tables is None:
            raise ValueError("group has no explicit element list")
        return self._tables


DEFAULT_CAP = 1 << 21


class ClosureOverflowError(RuntimeError):
    """Closure grew past the requested cap; use schreier_sims for the order."""


def closure(generators, cap: int = DEFAULT_CAP) -> MatrixGroup:
    """Breadth-first product closure with deterministic element order.

    The search runs on the point permutations (GFMatrix.perm): the product
    g * f is f.perm.translate(g.perm), and one walk over the growing list of
    elements found is the breadth-first order.  A matrix is fixed by its
    column images, so the search dedups on those 8 bytes (f's images e1..e8
    through g's table) and translates f's 256-byte table only for a new
    element.  The group keeps the tables and builds a matrix per element only
    when its `elements` are first read.  The group always holds the identity,
    so a cap below 1 raises ValueError.
    """
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    generators = _check_matrices(generators)
    gens = sorted(set(generators), key=lambda g: g.cols)
    for g in gens:
        if not g.is_invertible():
            raise ValueError("closure requires invertible generators")
    perms = [g.perm for g in gens]
    found = [_IDPERM]
    images = [_UNITS]  # images[i] is found[i]'s column images
    seen = {_UNITS}
    for f, c in zip(found, images):
        for g in perms:
            h = c.translate(g)
            if h not in seen:
                if len(seen) >= cap:
                    raise ClosureOverflowError(f"closure exceeded cap of {cap} elements")
                seen.add(h)
                images.append(h)
                found.append(f.translate(g))
    return MatrixGroup._from_tables(generators, tuple(found))


# ---------------------------------------------------------------------------
# Stabilizer chain on the 255 points.  Group elements are their point
# permutations (GFMatrix.perm): the product a*b (b first) is b.translate(a).
# A sifted element is its 8 column images, the bytes e1..e8 through its point
# table, so the product a*b of a table a and images b is again b.translate(a).


class Chain(NamedTuple):
    """A stabilizer chain on the 255 points, one entry per level, top level first.

    The product of the basic orbit lengths is the group's order.  A level's
    strong generators are their 8 column images, in attach order.  sifted
    counts the Schreier generators of the level's pairs that were sifted (a
    pair whose Schreier generator is the identity is not), and
    sifted_to_identity those that sifted to the identity.
    """

    bases: tuple[int, ...]  # unit vectors
    orbit_lengths: tuple[int, ...]
    strong_generators: tuple[tuple[bytes, ...], ...]
    sifted: tuple[int, ...]
    sifted_to_identity: tuple[int, ...]


class _Level:
    __slots__ = ("base", "pos", "gens", "transversal", "inv_transversal", "pending",
                 "sifted", "sifted_to_identity")

    def __init__(self, base: int):
        self.base = base
        self.pos = base.bit_length() - 1  # base == 1 << pos, a unit vector
        self.gens: list[tuple[bytes, bytes]] = []  # (generator, its inverse)
        self.transversal = {base: _IDPERM}
        self.inv_transversal = {base: _IDPERM}
        self.pending: list[tuple[int, bytes]] = []
        self.sifted = self.sifted_to_identity = 0


def schreier_sims(generators) -> int:
    """Order of the generated group: the product of its chain's orbit lengths."""
    return prod(stabilizer_chain(generators).orbit_lengths)


def stabilizer_chain(generators) -> Chain:
    """A stabilizer chain of the generated group on the 255 points.

    Base points are picked greedily as the smallest point (integer order)
    moved by the stabilizer being extended.  Each strong generator g is
    inverted once; when g extends the orbit from pt to g(pt), the new
    transversal entry is g t_pt and its inverse t_pt^-1 g^-1, one translate
    each.  Transversal entries are never rerouted once written, so every
    Schreier pair (pt, s) is checked exactly once, except the tree edges: the
    pair that first reached s(pt) gives the identity by construction and is
    never queued.

    An input generator that sticks at level k is attached at levels k..0.  A
    residue of a Schreier generator queued at level i that sticks at level j
    is attached at levels i+1..j only (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 4.4.2): it is a word in the strong
    generators of level i and transversal elements above, so the groups,
    orbits and pending pairs of levels i..0 do not change.

    Every base point is a unit vector.  Let v be the smallest point moved by
    a linear map g and 2^m the top bit of v: g fixes the unit vectors below
    2^m and all they span, so if it fixed 2^m it would fix v; hence v = 2^m.
    An element is therefore sifted as its 8 column images: a level with base
    e_(pos+1) reads image pos, a sift step and a Schreier generator are
    8-byte translates, and a residue is the identity exactly when its images
    are e1..e8.  Only a residue that is not, and so becomes a strong
    generator, is expanded to its 256-byte point table.
    """
    images = []
    for m in _check_matrices(generators):
        if not m.is_invertible():
            raise ValueError("schreier_sims requires invertible generators")
        if m.perm != _IDPERM:
            images.append(bytes(m.cols))

    levels: list[_Level] = []

    def sift(e: bytes, start: int) -> tuple[bytes, int]:
        for idx in range(start, len(levels)):
            lv = levels[idx]
            img = e[lv.pos]
            if img == lv.base:
                continue
            t_inv = lv.inv_transversal.get(img)
            if t_inv is None:
                return e, idx
            e = e.translate(t_inv)
        return e, len(levels)

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

    def add_generator(k: int, e: bytes, low: int) -> None:
        # the residue e fixes the bases of levels 0..k-1, so it lies in the
        # stabilizer of every level up to and including its stick level k,
        # and its base image there is new to that level's orbit.  It is
        # attached at levels low..k: an input generator from level 0, a
        # Schreier residue of level i from level i + 1 only, because it is
        # already a word in the strong generators of level i and the
        # transversals above.  Each strong generator grows the orbit of its
        # stick level, which bounds the chain; a wrong inverse transversal
        # entry breaks this, and would otherwise add strong generators
        # forever.
        if any(e[lv.pos] != lv.base for lv in levels[:k]):
            raise ConstructionError("sifted residue moves a base point of a higher level")
        g = bytes(_xor_sums(e))
        if k == len(levels):
            base = next(v for v in range(1, 256) if g[v] != v)
            if base & (base - 1):
                raise ConstructionError("base point is not a unit vector")
            levels.append(_Level(base))
        if e[levels[k].pos] in levels[k].transversal:
            raise ConstructionError("sifted residue adds no point to the orbit of its level")
        g_inv = _invert_perm(g)
        for idx in range(k, low - 1, -1):
            attach(levels[idx], g, g_inv)

    for e in images:
        residue, k = sift(e, 0)
        if residue != _UNITS:
            add_generator(k, residue, 0)

    # levels above k have no pending pairs; a residue of level k that
    # sticks at level j queues pairs on levels j..k+1 only
    k = len(levels) - 1
    while k >= 0:
        lv = levels[k]
        if not lv.pending:
            k -= 1
            continue
        pt, s = lv.pending.pop()
        schreier_gen = _UNITS.translate(lv.transversal[pt]).translate(s).translate(
            lv.inv_transversal[s[pt]])
        if schreier_gen == _UNITS:
            continue
        lv.sifted += 1
        residue, j = sift(schreier_gen, k + 1)
        if residue == _UNITS:
            lv.sifted_to_identity += 1
        else:
            add_generator(j, residue, k + 1)
            k = j

    return Chain(
        tuple(lv.base for lv in levels),
        tuple(len(lv.transversal) for lv in levels),
        tuple(tuple(_UNITS.translate(g) for g, _ in lv.gens) for lv in levels),
        tuple(lv.sifted for lv in levels),
        tuple(lv.sifted_to_identity for lv in levels),
    )


# ---------------------------------------------------------------------------
# Fixed spaces, commutants and centralizers.


def fix_subspace(mat: GFMatrix) -> Flat:
    """Flat of all fixed vectors of mat; the empty flat if only 0 is fixed."""
    return kernel(mat ^ GFMatrix.identity())


def commutant_basis(generators) -> list[GFMatrix]:
    """Linear basis of the matrices commuting with every generator.

    The commutant is the kernel of X -> XA + AX over all generators A, with
    variable 8i + j the entry (i, j) of X; the basis may contain
    non-invertible matrices.  For X = E_ij the image is row j of A placed in
    row i plus column i of A placed in column j, one 64-bit block per
    generator.
    """
    tagged = [1 << v for v in range(DIM * DIM)]  # the blocks go above the tags
    offset = DIM * DIM
    for a in _check_matrices(generators):
        rows = a.rows()
        # the bits of column i of A, spread down column 0 of an 8x8 block
        down = [sum((c >> k & 1) << DIM * k for k in range(DIM)) for c in a.cols]
        for i in range(DIM):
            for j in range(DIM):
                tagged[DIM * i + j] |= (rows[j] << DIM * i ^ down[i] << j) << offset
        offset += DIM * DIM
    return [
        GFMatrix.from_rows(x >> DIM * i & 0xFF for i in range(DIM))
        for x in _kernel(tagged, DIM * DIM, offset)
    ]


def centralizer_in_gl(generators) -> MatrixGroup:
    """All invertible matrices commuting with every generator.

    The elements are the invertible sums of the commutant basis, in the
    counter order of the basis subsets.  A commutant is an algebra, so its
    invertible elements form a group; the one certificate is that the
    products of basis matrices stay in the span, which closes the whole span
    under products.
    """
    basis = commutant_basis(generators)
    if len(basis) > 20:
        raise ValueError("commutant too large to enumerate exhaustively")
    # each matrix as its 8 columns packed into the bytes of an int
    packed = [int.from_bytes(bytes(x.cols), "little") for x in basis]
    products = [int.from_bytes(bytes((a * b).cols), "little") for a in basis for b in basis]
    if DIM * DIM + 1 - _echelon(packed + products, DIM * DIM).count(0) != len(basis):
        raise ConstructionError("commutant basis not closed under product")
    elements = []
    for x in _xor_sums(packed)[1:]:
        mat = GFMatrix(x.to_bytes(DIM, "little"))
        if mat.is_invertible():
            elements.append(mat)
    return MatrixGroup(tuple(elements), tuple(elements))


def stabilizer_of_point(group: MatrixGroup, p: int) -> MatrixGroup:
    """Subgroup of an explicit group fixing the point p."""
    _check_point(p)
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
