"""Collineation groups stabilizing the Segre variety.

Builds the named generators (tensor-product operators, factor permutations,
the fixed-point-free order-3 element W), computes explicit closures and
stabilizer-chain orders for the action on the 255 points, and solves for
commutants and centralizers.
"""

from __future__ import annotations

from functools import cache
from math import prod
from struct import Struct
from typing import NamedTuple

from .gf2 import (
    ConstructionError,
    DIM,
    Flat,
    GFMatrix,
    _IDPERM,
    _UNITS,
    _check_invertible,
    _check_matrices,
    _check_point,
    _echelon,
    _invert_perm,
    _kernel,
    _point_table,
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
    """A matrix group given by invertible generators; a singular one raises.

    Only `_from_tables` and `_from_images` list a group's elements.  The
    first takes their point tables (centralizer_in_gl, stabilizer_of_point)
    and keeps their order; such a group is generated by its elements.  The
    second takes the set of their column images, the bytes of e1..e8
    through each element, that `closure` found.  Length reads the image set
    or the tables, and membership tests a matrix's column images against
    the image set, so neither builds a table; on a group with no element
    list both raise ValueError, as `elements` does.  A closure builds its
    point tables on the first read that needs them (`elements`,
    stabilizer_of_point), one per image in sorted order, so its elements
    are sorted by their columns: the order depends on the group alone, not
    on its generators.  The matrices are built once, when `elements` is
    first read.
    """

    __slots__ = ("_generators", "_images", "_tables", "_elements")

    def __init__(self, generators):
        self._generators = _check_invertible(generators, "group generators must be invertible")
        self._images = self._tables = self._elements = None

    @classmethod
    def _from_tables(cls, tables: tuple[bytes, ...]) -> "MatrixGroup":
        # trusted constructor: tables are the point tables of the elements
        group = cls(())
        group._generators, group._tables = None, tables
        return group

    @classmethod
    def _from_images(cls, images: set[bytes], generators) -> "MatrixGroup":
        # trusted constructor: images are the column images of every element
        # of the group the generators generate
        group = cls(())
        group._generators, group._images = generators, images
        return group

    @property
    def generators(self) -> tuple[GFMatrix, ...]:
        return self.elements if self._generators is None else self._generators

    @property
    def elements(self) -> tuple[GFMatrix, ...]:
        if self._elements is None:
            self._elements = tuple(map(GFMatrix._from_perm, self._listed()))
        return self._elements

    def __contains__(self, mat: GFMatrix) -> bool:
        if self._images is None:
            self._images = frozenset(map(_UNITS.translate, self._listed()))
        return isinstance(mat, GFMatrix) and bytes(mat.cols) in self._images

    def __len__(self) -> int:
        return len(self._listed() if self._images is None else self._images)

    def _listed(self) -> tuple[bytes, ...]:
        if self._tables is None:
            if self._images is None:
                raise ValueError("group has no explicit element list")
            self._tables = tuple(map(_point_table, sorted(self._images)))
        return self._tables


DEFAULT_CAP = 1 << 21


class ClosureOverflowError(RuntimeError):
    """Closure grew past the requested cap; use schreier_sims for the order."""


def closure(generators, cap: int = DEFAULT_CAP) -> MatrixGroup:
    """The group the generators generate, counted by cosets (Dimino's algorithm).

    A matrix is fixed by its column images, the bytes of e1..e8 through it,
    and the images of g * f are f's images through g's point table
    (GFMatrix.perm).  The generators are taken as given, and each one not
    yet in the subgroup H closed so far extends it: the left cosets
    r H fill the larger group, and each coset r H taken through each
    generator s of the larger group is a coset found or a new one, s r H.
    A coset is kept as one block of its elements' images, so the new coset
    is one translate of the block of r H through s's point table, and one
    struct unpack splits it into the images that join the seen set; the
    block of H, identity first, is the first coset.  The walk over the
    cosets steps once per (coset, generator) pair, not once per (element,
    generator) pair.  Before a coset is added the group is checked against
    cap; the group always holds the identity, so a cap below 1 raises
    ValueError.  The group keeps the image set, which does not depend on the
    order of the generators; its point tables are listed in sorted image
    order on the first read that needs them (MatrixGroup).
    """
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    generators = _check_invertible(generators, "closure requires invertible generators")
    seen = {_UNITS}  # the column images of the elements found
    block = _UNITS  # the images of H, identity first
    walked = []  # the point tables of H's generators, then the new one
    for g in generators:
        if bytes(g.cols) in seen:
            continue
        walked.append(g.perm)
        size = len(block) // DIM  # the order of H
        images_of = Struct(f"{DIM}s" * size).unpack  # a coset's block, split by element
        cosets = [block]
        add, keep = seen.update, cosets.append
        for coset in cosets:
            rep = coset[:DIM]  # the images of the coset's representative r
            for s in walked:
                if rep.translate(s) not in seen:
                    if len(seen) + size > cap:
                        raise ClosureOverflowError(f"closure exceeded cap of {cap} elements")
                    new = coset.translate(s)
                    add(images_of(new))
                    keep(new)
        block = b"".join(cosets)
    return MatrixGroup._from_images(seen, generators)


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
    # transversal and inv_transversal are indexed by point, None off the
    # orbit; orbit lists the orbit's points in the order they were reached;
    # pending holds the column images of the Schreier generators still to
    # be sifted
    __slots__ = ("base", "pos", "gens", "orbit", "transversal", "inv_transversal", "pending",
                 "sifted", "sifted_to_identity")

    def __init__(self, base: int):
        self.base = base
        self.pos = base.bit_length() - 1  # base == 1 << pos, a unit vector
        self.gens: list[tuple[bytes, bytes]] = []  # (generator, its inverse)
        self.orbit = [base]
        self.transversal: list[bytes | None] = [None] * 256
        self.inv_transversal: list[bytes | None] = [None] * 256
        self.transversal[base], self.inv_transversal[base] = _UNITS, _IDPERM
        self.pending: list[bytes] = []
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
    each.  A transversal entry is kept as its 8 column images, all that a
    Schreier generator reads of it; an inverse entry is kept as its point
    table, which the sift applies.  Each level indexes both by point, in
    256-slot lists with None off the orbit.  A sift walks one flat list of
    (image position, base, inverse transversal), a level each, and is
    written out at its two uses, with no call per element: an input
    generator is sifted from the top level, a Schreier generator from the
    level below its pair's.  Transversal entries are never rerouted once
    written, so every Schreier pair (pt, s) is checked exactly once, when
    attach meets it: its Schreier generator t_s(pt)^-1 s t_pt is formed
    there, two 8-byte translates, and queued unless it is the identity.
    The tree edges are never formed: the pair that first reached s(pt)
    gives the identity by construction.

    An input generator that sticks at level k is attached at levels k..0.  A
    residue of a Schreier generator queued at level i that sticks at level j
    is attached at levels i+1..j only (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 4.4.2): it is a word in the strong
    generators of level i and transversal elements above, so the groups,
    orbits and pending Schreier generators of levels i..0 do not change.

    Every base point is a unit vector.  Let v be the smallest point moved by
    a linear map g and 2^m the top bit of v: g fixes the unit vectors below
    2^m and all they span, so if it fixed 2^m it would fix v; hence v = 2^m.
    An element is therefore sifted as its 8 column images: a level with base
    e_(pos+1) reads image pos, a sift step and a Schreier generator are
    8-byte translates, and a residue is the identity exactly when its images
    are e1..e8.  Only a residue that is not, and so becomes a strong
    generator, is expanded to its 256-byte point table.
    """
    generators = _check_invertible(generators, "schreier_sims requires invertible generators")
    images = [bytes(m.cols) for m in generators if m.perm != _IDPERM]

    levels: list[_Level] = []
    path: list[tuple[int, int, list]] = []  # (pos, base, inv_transversal) per level

    def attach(lv: _Level, g: bytes, g_inv: bytes) -> None:
        lv.gens.append((g, g_inv))
        trans, inv_trans, orbit, pending = lv.transversal, lv.inv_transversal, lv.orbit, lv.pending
        # points already in the orbit meet only g; the points it adds meet
        # every generator
        old, only_g = len(orbit), [(g, g_inv)]
        for i, pt in enumerate(orbit):
            for s, s_inv in only_g if i < old else lv.gens:
                img = s[pt]
                if trans[img] is not None:
                    schreier_gen = trans[pt].translate(s).translate(inv_trans[img])
                    if schreier_gen != _UNITS:
                        pending.append(schreier_gen)
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
        g = _point_table(e)
        if k == len(levels):
            base = next(v for v in range(1, 256) if g[v] != v)
            if base & (base - 1):
                raise ConstructionError("base point is not a unit vector")
            lv = _Level(base)
            levels.append(lv)
            path.append((lv.pos, base, lv.inv_transversal))
        if levels[k].transversal[e[levels[k].pos]] is not None:
            raise ConstructionError("sifted residue adds no point to the orbit of its level")
        g_inv = _invert_perm(g)
        for idx in range(k, low - 1, -1):
            attach(levels[idx], g, g_inv)

    for e in images:
        # sift e down the chain: k counts the levels it passes
        k = 0
        for pos, base, inv in path:
            img = e[pos]
            if img != base:
                t_inv = inv[img]
                if t_inv is None:
                    break
                e = e.translate(t_inv)
            k += 1
        if e != _UNITS:
            add_generator(k, e, 0)

    # levels above k have nothing pending; a residue of level k that
    # sticks at level j queues Schreier generators on levels j..k+1 only,
    # so the loop drains level k until a residue sticks, then moves to its
    # level j
    k = len(levels) - 1
    while k >= 0:
        lv = levels[k]
        pending = lv.pending
        while pending:
            # sift a Schreier generator down the levels below k: j counts
            # the levels it passes
            residue, j = pending.pop(), k + 1
            lv.sifted += 1
            for pos, base, inv in path[j:]:
                img = residue[pos]
                if img != base:
                    t_inv = inv[img]
                    if t_inv is None:
                        break
                    residue = residue.translate(t_inv)
                j += 1
            if residue == _UNITS:
                lv.sifted_to_identity += 1
            else:
                add_generator(j, residue, k + 1)
                k = j
                break
        else:
            k -= 1

    return Chain(
        tuple(lv.base for lv in levels),
        tuple(len(lv.orbit) for lv in levels),
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
    counter order of the basis subsets: the table of X + Y is the bytewise
    XOR of theirs, and a sum is invertible when only 0 maps to 0.  A
    commutant is an algebra, so its invertible elements form a group; the
    one certificate is that the products of basis matrices stay in the
    span, which closes the whole span under products.
    """
    basis = commutant_basis(generators)
    if len(basis) > 20:
        raise ValueError("commutant too large to enumerate exhaustively")
    # each matrix as its 8 columns packed into the bytes of an int
    packed = [int.from_bytes(bytes(x.cols), "little") for x in basis]
    products = [int.from_bytes(bytes((a * b).cols), "little") for a in basis for b in basis]
    if DIM * DIM + 1 - _echelon(packed + products, DIM * DIM).count(0) != len(basis):
        raise ConstructionError("commutant basis not closed under product")
    # each sum of the high half of the basis XORed with every sum of the low
    # half: the counter order again, holding about 2 * 2^(k/2) sums, not 2^k
    sums = [int.from_bytes(b.perm, "little") for b in basis]
    half = len(sums) // 2
    lows = _xor_sums(sums[:half])
    tables = []
    for high in _xor_sums(sums[half:]):
        for x in lows:
            t = (high ^ x).to_bytes(256, "little")
            if t.count(0) == 1:  # the empty sum, 0, maps every point to 0
                tables.append(t)
    return MatrixGroup._from_tables(tuple(tables))


def stabilizer_of_point(group: MatrixGroup, p: int) -> MatrixGroup:
    """Subgroup of a listed group fixing the point p: the tables t with t[p] == p.

    The tables keep the group's order, which for a closure is sorted by
    column images.
    """
    _check_point(p)
    return MatrixGroup._from_tables(tuple(t for t in group._listed() if t[p] == p))


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
