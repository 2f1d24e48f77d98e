"""The reference routes the tests check the package against, by layer.

Each reference is a slower or differently built route to a result of
`segre_pg72`.  Most are the route a faster one replaced; the last line of
each docstring names the package function it checks and the commit that
replaced the route (or that added the reference, for one that never lived
in the package).  A reference that several tests solve on one input keeps
that input's work: `echelon_bases` is built once per dimension, and
`monomial_supports` and `coefficient_columns` once per matrix.
"""

from functools import cache
from itertools import combinations
from math import prod

from segre_pg72.anf import _MOBIUS_MASKS, Anf, _byte_table, mobius
from segre_pg72.gf2 import (
    UNIT,
    ConstructionError,
    Flat,
    GFMatrix,
    _UNITS,
    _check_invertible,
    _echelon,
    _invert_perm,
    _set_bits,
    _xor_sums,
)
from segre_pg72.groups import DEFAULT_CAP, Chain, ClosureOverflowError, commutant_basis, element
from segre_pg72.orbits import OrbitClass, Spread
from segre_pg72.segre import BASIS_INDEX, segre_point
from support import mask_of, mirror

# ---------------------------------------------------------------------------
# gf2: point action, elimination, kernels, bit walks and flat enumeration


def ref_apply(mat, v):
    """Reference point action: XOR of the columns selected by v's bits.

    Checks `gf2.GFMatrix.__call__` (the point table); replaced in b973467.
    """
    r = 0
    while v:
        low = v & -v
        r ^= mat.cols[low.bit_length() - 1]
        v ^= low
    return r


def ref_reduce(vectors):
    """Reference elimination: every pivot checked against every incoming row.

    Checks the span of `gf2._echelon`'s rows; replaced in 9174234 by
    `gf2._reduce`, since retired.
    """
    rows = {}
    for v in vectors:
        for p, r in rows.items():
            if v & p:
                v ^= r
        if v:
            low = v & -v
            for p in rows:
                if rows[p] & low:
                    rows[p] ^= v
            rows[low] = v
    return rows


def ref_nullspace(rows, nvars):
    """Reference null space on ref_reduce, free variables ascending.

    Checks `gf2._kernel` on transposed rows; replaced in 94cdfd8.
    """
    pivots = ref_reduce(rows)
    basis = []
    for j in range(nvars):
        if 1 << j in pivots:
            continue
        basis.append(sum((p for p, r in pivots.items() if r >> j & 1), 1 << j))
    return basis


def ref_columns(rows, nvars):
    """The column of each variable j: bit i set when rows[i] has bit j.

    Builds `gf2._kernel`'s input from parity-check rows; added in 94cdfd8.
    """
    return {j: sum(1 << i for i, r in enumerate(rows) if r >> j & 1) for j in range(nvars)}


def ref_lowbit_echelon(vectors):
    """The forward elimination gf2._echelon replaced: each row's pivot is its
    lowest set bit, keyed by that bit's power of two.

    Checks `gf2._echelon`; replaced in 89816bb.
    """
    rows = {}
    for v in vectors:
        while v:
            low = v & -v
            r = rows.get(low)
            if r is None:
                rows[low] = v
                break
            v ^= r
    return rows


def ref_lowbit_reduce(vectors):
    """The Gauss-Jordan pass gf2._reduce replaced: ref_lowbit_echelon, then
    each row cleared of the higher pivots it carries, pivots descending.

    Checks `gf2._rref`; replaced in 89816bb by `gf2._reduce`, since retired.
    """
    rows = ref_lowbit_echelon(vectors)
    pivots = sum(rows)
    for p in sorted(rows, reverse=True):
        r = rows[p]
        m = r & pivots ^ p
        while m:
            q = m & -m
            r ^= rows[q]
            m ^= q
        rows[p] = r
    return rows


def ref_gauss_jordan_rref(vectors):
    """The Gauss-Jordan pass gf2._rref ran on at most 8 rows: each vector is
    reduced by the rows so far, and its lowest remaining bit, a new pivot,
    is cleared from the other rows; rows sorted by pivot.

    Checks `gf2._rref`; replaced in the commit after a754cae.
    """
    rows = []
    for v in vectors:
        for r in rows:
            if v & (r & -r):
                v ^= r
        if v:
            low = v & -v
            rows = [r ^ v if r & low else r for r in rows]
            rows.append(v)
    return tuple(sorted(rows, key=lambda r: r & -r))


def ref_lowbit_kernel(columns, nvars):
    """The kernel gf2._kernel replaced: the columns at the low bits, variable
    j's tag reversed at bit width + nvars - 1 - j above them, lowest-bit
    elimination, and only the rows whose pivot is a tag fully reduced.

    Checks `gf2._kernel`; replaced in 89816bb.
    """
    width = max(columns.values(), default=0).bit_length()
    rows = ref_lowbit_echelon(c | 1 << width + nvars - 1 - j for j, c in columns.items())
    rows = ref_lowbit_reduce(r for p, r in rows.items() if p >> width)
    return [mirror(rows[p] >> width, nvars) for p in sorted(rows, reverse=True)]


def ref_full_kernel(columns, nvars):
    """The tagged-elimination kernel with every row fully reduced:
    ref_lowbit_reduce over all tagged columns, then the rows whose pivot is
    a tag.

    Checks `gf2._kernel`; replaced in 8659099.
    """
    width = max(columns.values(), default=0).bit_length()
    rows = ref_lowbit_reduce(c | 1 << width + nvars - 1 - j for j, c in columns.items())
    return [
        mirror(rows[p] >> width, nvars)
        for p in sorted((p for p in rows if p >> width), reverse=True)
    ]


def ref_ascending_kernel(columns, nvars):
    """The tagged kernel gf2._kernel replaced: variable j's column above
    every tag plus a tag at bit j, fed into one highest-bit elimination in
    ascending order of j (gf2._echelon), so that the tag rows come out
    reduced with no second pass.  A variable missing from columns is fixed
    at 0.

    Checks `gf2._kernel`; replaced in 5446c9a.
    """
    width = nvars + max(columns.values(), default=0).bit_length()
    rows = _echelon((columns[j] << nvars | 1 << j for j in sorted(columns)), width)
    return [r for r in rows[: nvars + 1] if r]


def ref_inverse(mat):
    """Reference inverse: Gauss-Jordan on the (image, preimage) pairs; the row
    with pivot e_i then carries the preimage of e_i in its high byte.

    Checks `gf2.GFMatrix.inverse`; replaced in f19b670.
    """
    rows = ref_reduce(c | 1 << (j + 8) for j, c in enumerate(mat.cols))
    if any(p > UNIT for p in rows):
        raise ValueError("matrix is singular")
    return GFMatrix(tuple(rows[1 << i] >> 8 for i in range(8)))


def ref_set_bits(mask):
    """Reference bit walk: every position tested in turn.

    Checks `gf2._set_bits` and `gf2._mask_of`; replaced in f19b670.
    """
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@cache
def ref_echelon_layouts(k):
    """The reduced-echelon layouts of k-dim subspaces, pivot sets ascending.

    A layout is (base_rows, slots): base_rows[i] is the unit vector of row i's
    pivot, and each free slot (i, b) lets row i carry column b, a non-pivot
    column above its own pivot.  Slots are listed row by row, columns
    descending, so filling them as the bits of a counter (first slot highest)
    ascends in the lex order of the row tuples.  ref_coset_plan builds its
    entries from the pivot sets directly; this is the layout form it replaced.

    Checks the incidence plan (`anf._quotient_plan`); replaced in 650c00e.
    """
    layouts = []
    for pivots in combinations(range(8), k):
        slots = tuple(
            (i, b)
            for i, p in enumerate(pivots)
            for b in range(7, p, -1)
            if b not in pivots
        )
        layouts.append((tuple(1 << p for p in pivots), slots))
    return tuple(layouts)


@cache
def echelon_bases(k):
    """Every canonical reduced-echelon basis of a k-dim subspace, layout by
    layout in ref_echelon_layouts order: per layout, fills counted upward
    with the first free slot as the top bit.  Built once per k.

    Checks `anf._quotient_plan`; moved out of the package in 7d8b976.
    """
    bases = []
    for base_rows, slots in ref_echelon_layouts(k):
        for fill in range(1 << len(slots)):
            rows = list(base_rows)
            for pos, (i, b) in enumerate(slots):
                if fill >> (len(slots) - 1 - pos) & 1:
                    rows[i] |= 1 << b
            bases.append(tuple(rows))
    return tuple(bases)


def flats_of_dimension(d):
    """Every d-flat of PG(7,2) exactly once, in echelon_bases order.

    Checks `anf._quotient_plan`; moved out of the package in 7d8b976.
    """
    if not 0 <= d <= 7:
        raise ValueError(f"projective dimension out of range: {d}")
    for rows in echelon_bases(d + 1):
        yield Flat._from_rref(rows)


def row_after(flips, g: int) -> int:
    """A plan row after flip g: the XOR of 1 << b over its first g + 1 flips.

    Reads the rows of `ref_coset_plan`; added in ec71c68.
    """
    v = 0
    for b in flips[: g + 1]:
        v ^= 1 << b
    return v


def gaussian_binomial_oracle(n, k):
    """The number of k-dim subspaces of GF(2)^n, by the product formula with
    explicit descending factors.

    Counts the flats of `anf._quotient_plan`; added with the first flat
    enumeration, in e1d4172.
    """
    if k < 0 or k > n:
        return 0
    num = 1
    for i in range(n - k + 1, n + 1):
        num *= 2**i - 1
    den = 1
    for i in range(1, k + 1):
        den *= 2**i - 1
    assert num % den == 0
    return num // den


# ---------------------------------------------------------------------------
# segre: the slot families


def ref_slot_families():
    """Reference generator lines and 9-point grids: one spelled-out loop per slot.

    Checks `segre.build_model`'s generators and sub_segres; replaced in f19b670.
    """
    rng3 = (0, 1, 2)
    generators = {}
    for i in rng3:
        for j in rng3:
            generators[(i, j, 1)] = frozenset(segre_point((k, i, j)) for k in rng3)
            generators[(i, j, 2)] = frozenset(segre_point((i, k, j)) for k in rng3)
            generators[(i, j, 3)] = frozenset(segre_point((i, j, k)) for k in rng3)
    sub_segres = {}
    for i in rng3:
        sub_segres[(i, 1)] = frozenset(segre_point((i, j, k)) for j in rng3 for k in rng3)
        sub_segres[(i, 2)] = frozenset(segre_point((j, i, k)) for j in rng3 for k in rng3)
        sub_segres[(i, 3)] = frozenset(segre_point((j, k, i)) for j in rng3 for k in rng3)
    return generators, sub_segres


# ---------------------------------------------------------------------------
# groups: operators, closure, stabilizer chain and commutant


def ref_tensor_operator(a0, a1, a2) -> GFMatrix:
    """Reference tensor product: each basis tensor's image expanded over the
    set bits of the three factor columns.

    Checks `groups.tensor_operator`; replaced in 50dfc71.
    """
    cols = [0] * 8
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


def ref_sym3_operator(rho) -> GFMatrix:
    """Reference slot permutation: the inverse of rho as a list, and each
    column the unit vector of the permuted multi-index.

    Checks `groups.sym3_operator`; replaced in f19b670.
    """
    inv = [0, 0, 0]
    for m, im in enumerate(rho, start=1):
        inv[im - 1] = m
    cols = [0] * 8
    for src, idx in BASIS_INDEX.items():
        dst = tuple(src[inv[m] - 1] for m in range(3))
        cols[idx - 1] = 1 << (BASIS_INDEX[dst] - 1)
    return GFMatrix(cols)


def ref_closure(generators, cap=DEFAULT_CAP):
    """Reference closure: the breadth-first search on GFMatrix products.

    Checks `groups.closure`; replaced in 2cab339.
    """
    gens = sorted(set(generators), key=lambda g: g.cols)
    ident = GFMatrix.identity()
    elements = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for f in frontier:
            for g in gens:
                h = g * f
                if h not in seen:
                    if len(seen) >= cap:
                        raise ClosureOverflowError(f"closure exceeded cap of {cap} elements")
                    seen.add(h)
                    elements.append(h)
                    new.append(h)
        frontier = new
    return tuple(elements)


_IDPERM = bytes(range(256))


def ref_compose(a, b):
    """The point table of a after b.

    Serves ref_schreier_sims; added in 2cab339.
    """
    return b.translate(a)


def ref_invert_perm(p):
    """The inverse point table, entry by entry.

    Serves ref_schreier_sims; added in 2cab339.
    """
    inv = bytearray(256)
    for i, v in enumerate(p):
        inv[v] = i
    return bytes(inv)


class RefLevel:
    """One level of ref_schreier_sims: base point, strong generators,
    transversal and its inverse, and the Schreier pairs still to sift.

    Serves ref_schreier_sims; added in 2cab339.
    """

    def __init__(self, base):
        self.base = base
        self.gens = []
        self.transversal = {base: _IDPERM}
        self.inv_transversal = {base: _IDPERM}
        self.pending = []


def ref_schreier_sims(generators):
    """Reference stabilizer chain, the slow route: every transversal entry
    inverted in full, every Schreier pair (tree edges included) queued and
    sifted, and every residue attached at every level from its stick level
    down to level 0, whatever level its Schreier pair came from.

    Checks `groups.schreier_sims`; replaced in 2cab339 (the inversions and
    pairs) and f373bf9 (the attach levels).
    """
    perms = [m.perm for m in generators if m.perm != _IDPERM]
    levels = []

    def sift(g, start):
        for idx in range(start, len(levels)):
            lv = levels[idx]
            img = g[lv.base]
            if img == lv.base:
                continue
            t_inv = lv.inv_transversal.get(img)
            if t_inv is None:
                return g, idx
            g = ref_compose(t_inv, g)
        return g, len(levels)

    def attach(lv, g):
        lv.gens.append(g)
        fresh = []
        for pt in list(lv.transversal):
            lv.pending.append((pt, g))
            img = g[pt]
            if img not in lv.transversal:
                t = ref_compose(g, lv.transversal[pt])
                lv.transversal[img] = t
                lv.inv_transversal[img] = ref_invert_perm(t)
                fresh.append(img)
        qi = 0
        while qi < len(fresh):
            pt = fresh[qi]
            qi += 1
            for s in lv.gens:
                lv.pending.append((pt, s))
                img = s[pt]
                if img not in lv.transversal:
                    t = ref_compose(s, lv.transversal[pt])
                    lv.transversal[img] = t
                    lv.inv_transversal[img] = ref_invert_perm(t)
                    fresh.append(img)

    def add_generator(k, g):
        if k == len(levels):
            base = next(v for v in range(1, 256) if g[v] != v)
            levels.append(RefLevel(base))
        for idx in range(k, -1, -1):
            attach(levels[idx], g)

    for p in perms:
        residue, k = sift(p, 0)
        if residue != _IDPERM:
            add_generator(k, residue)

    while True:
        for k in range(len(levels) - 1, -1, -1):
            if levels[k].pending:
                break
        else:
            break
        lv = levels[k]
        pt, s = lv.pending.pop()
        u = ref_compose(s, lv.transversal[pt])
        schreier_gen = ref_compose(lv.inv_transversal[s[pt]], u)
        if schreier_gen == _IDPERM:
            continue
        residue, j = sift(schreier_gen, k + 1)
        if residue != _IDPERM:
            add_generator(j, residue)

    return prod(len(lv.transversal) for lv in levels)


def ref_eager_closure(generators, cap=DEFAULT_CAP):
    """The closure walk that translated each new element's 256-byte point
    table as it was found, deduped on the 8-byte column images: the tuple
    of the tables, in breadth-first order.

    Checks `groups.closure`'s coset count, and, sorted by their column
    images, the tables `MatrixGroup._listed` builds for a closure on its
    first read.  The closure walked this way until 51b57eb, and from the
    commit after 51b57eb the listing ran this walk, uncapped, until it
    came to read the tables off the sorted image set.
    """
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    generators = _check_invertible(generators, "closure requires invertible generators")
    gens = sorted(set(generators), key=lambda g: g.cols)
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
    return tuple(found)


class RefDictLevel:
    """One level of ref_dict_chain: its transversal (column images) and
    inverse transversal (point tables) are dicts keyed by point, in the
    order the orbit was reached.

    Serves ref_dict_chain; added in the commit after 9fba9a1.
    """

    def __init__(self, base):
        self.base = base
        self.pos = base.bit_length() - 1
        self.gens = []  # (generator, its inverse)
        self.transversal = {base: _UNITS}
        self.inv_transversal = {base: _IDPERM}
        self.pending = []
        self.sifted = self.sifted_to_identity = 0


def ref_dict_chain(generators):
    """The column-sifting stabilizer chain with dict-keyed levels: the same
    bases, attach levels, pair order and counters as the package's chain,
    each level's transversals looked up by point in a dict.

    Checks `groups.stabilizer_chain` as a whole Chain record; replaced in
    the commit after 9fba9a1.  It also keeps what the commit after 51b57eb
    replaced: the sift as a local function, and each Schreier pair queued
    as (point, generator) and formed when it is popped.
    """
    generators = _check_invertible(generators, "schreier_sims requires invertible generators")
    images = [bytes(m.cols) for m in generators if m.perm != _IDPERM]
    levels = []

    def sift(e, start):
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

    def attach(lv, g, g_inv):
        lv.gens.append((g, g_inv))
        trans, inv_trans = lv.transversal, lv.inv_transversal
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

    def add_generator(k, e, low):
        if any(e[lv.pos] != lv.base for lv in levels[:k]):
            raise ConstructionError("sifted residue moves a base point of a higher level")
        g = bytes(_xor_sums(e))
        if k == len(levels):
            base = next(v for v in range(1, 256) if g[v] != v)
            if base & (base - 1):
                raise ConstructionError("base point is not a unit vector")
            levels.append(RefDictLevel(base))
        if e[levels[k].pos] in levels[k].transversal:
            raise ConstructionError("sifted residue adds no point to the orbit of its level")
        g_inv = _invert_perm(g)
        for idx in range(k, low - 1, -1):
            attach(levels[idx], g, g_inv)

    for e in images:
        residue, k = sift(e, 0)
        if residue != _UNITS:
            add_generator(k, residue, 0)

    k = len(levels) - 1
    while k >= 0:
        lv = levels[k]
        if not lv.pending:
            k -= 1
            continue
        pt, s = lv.pending.pop()
        schreier_gen = lv.transversal[pt].translate(s).translate(lv.inv_transversal[s[pt]])
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


def ref_commutant_basis(generators) -> list[GFMatrix]:
    """Reference commutant: one parity-check row over the 64 entries of X
    (bit 8i + j is entry (i, j)) for each entry (i, k) of XA + AX, solved
    by the free-variable reference null space.

    Checks `groups.commutant_basis`; replaced in 94cdfd8.
    """
    rows = []
    for a in generators:
        for i in range(8):
            for k in range(8):
                mask = 0
                for j in range(8):
                    if a.cols[k] >> j & 1:  # entry (j, k) of A
                        mask ^= 1 << (8 * i + j)
                    if a.cols[j] >> i & 1:  # entry (i, j) of A
                        mask ^= 1 << (8 * j + k)
                if mask:
                    rows.append(mask)
    return [
        GFMatrix(sum((x >> (8 * i + j) & 1) << i for i in range(8)) for j in range(8))
        for x in ref_nullspace(rows, 64)
    ]


def ref_centralizer(generators) -> list[GFMatrix]:
    """Reference centralizer: the invertible sums of the reference commutant
    basis, each summed matrix by matrix, basis subsets in counter order.

    Checks `groups.centralizer_in_gl`; replaced in 94cdfd8.
    """
    basis = ref_commutant_basis(generators)
    found = []
    for mask in range(1, 1 << len(basis)):
        x = GFMatrix([0] * 8)
        for idx, mat in enumerate(basis):
            if mask >> idx & 1:
                x = x ^ mat
        if x.is_invertible():
            found.append(x)
    return found


def ref_packed_centralizer(generators) -> list[GFMatrix]:
    """The enumeration groups.centralizer_in_gl replaced: each sum of the
    package's commutant basis as its 8 packed column bytes, built as a
    GFMatrix and kept when its rank is 8, basis subsets in counter order.
    The sums' point tables, XORs of the basis tables kept when only 0 maps
    to 0, replaced it.

    Checks `groups.centralizer_in_gl`; replaced in the commit after 5446c9a.
    """
    packed = [int.from_bytes(bytes(x.cols), "little") for x in commutant_basis(generators)]
    found = []
    for x in _xor_sums(packed)[1:]:
        mat = GFMatrix(x.to_bytes(8, "little"))
        if mat.rank() == 8:
            found.append(mat)
    return found


# ---------------------------------------------------------------------------
# orbits: point orbits, line orbits and the spread


def ref_point_orbits(group):
    """Reference point orbits: each image through GFMatrix.__call__.

    Checks `orbits.point_orbits`; replaced in 2cab339.
    """
    seen = set()
    classes = []
    for p in range(1, 256):
        if p in seen:
            continue
        orbit = [p]
        seen.add(p)
        qi = 0
        while qi < len(orbit):
            v = orbit[qi]
            qi += 1
            for g in group.generators:
                w = g(v)
                if w not in seen:
                    seen.add(w)
                    orbit.append(w)
        classes.append(OrbitClass(tuple(sorted(orbit))))
    return tuple(classes)


def ref_line_orbit_split(spread, group):
    """Reference line orbits: each line image through GFMatrix.__call__.

    Checks `orbits.line_orbit_split`; replaced in 2cab339 and again, by byte
    tables of line indices, in 09de18d.
    """
    remaining = {line: min(line) for line in spread.lines}
    classes = []
    while remaining:
        start = min(remaining, key=remaining.get)
        orbit = {start}
        queue = [start]
        while queue:
            line = queue.pop()
            for g in group.generators:
                img = frozenset(g(p) for p in line)
                if img not in remaining:
                    raise ValueError("the group does not preserve the spread")
                if img not in orbit:
                    orbit.add(img)
                    queue.append(img)
        for line in orbit:
            del remaining[line]
        classes.append(tuple(sorted(orbit, key=min)))
    return tuple(classes)


def ref_spread():
    """Reference spread: the lines {p, Wp, W^2 p} in order of their minimal point.

    Checks `orbits.spread_from_w`; replaced in 50dfc71.
    """
    w = element("W")
    seen = set()
    lines = []
    for p in range(1, 256):
        if p not in seen:
            line = frozenset((p, w(p), w(w(p))))
            seen |= line
            lines.append(line)
    return Spread(tuple(lines))


# ---------------------------------------------------------------------------
# anf: evaluation, flat equations, substitution, invariant subspaces,
# monomial orbits and the incidence scans


def brute_evaluate(coeffs: int, x: int) -> int:
    """The value at x of the polynomial with these coefficients, monomial by
    monomial, independent of the subset-table fast path.

    Checks `anf.Anf.evaluate`; added in e1d4172.
    """
    total = 0
    for t in range(256):
        if coeffs >> t & 1 and t & x == t:
            total ^= 1
    return total


def ref_flat_equation(x: Flat) -> Anf:
    """The dual-form route: 1 + prod(1 + f_i) over the dual forms f_i of the flat.

    Checks `anf.flat_equation`; replaced in 2c76f0a.
    """
    poly = Anf(1)
    for g in ref_nullspace(x.basis, 8):
        form = sum((Anf.monomial((i,)) for i in range(1, 9) if g >> i - 1 & 1), Anf.zero())
        poly = poly * (Anf(1) + form)
    return Anf(1) + poly


def ref_substitute(f: Anf, mat: GFMatrix) -> Anf:
    """The per-bit route: bit x of g's truth table is bit (mat x) of f's.

    Checks `anf.substitute`; replaced in 2c76f0a.
    """
    t = f.truth_table()
    out = 0
    for x, y in enumerate(mat.perm):
        if t >> y & 1:
            out |= 1 << x
    return Anf(mobius(out))


@cache
def monomial_supports(mat: GFMatrix) -> tuple[tuple[int, ...], ...]:
    """Entry T: the monomials of x_T o mat, by ref_substitute, once per
    matrix.

    Serves ref_invariant_subspace; added in 3d5a9a1.
    """
    return tuple(tuple(ref_set_bits(ref_substitute(Anf(1 << t), mat).coeffs)) for t in range(256))


def ref_invariant_subspace(generators, max_degree: int) -> list[Anf]:
    """The slower route: one per-bit substitution per monomial, transpose,
    then a null space on the pivot-scanning reference elimination.

    Checks `anf.invariant_subspace`; replaced in 3d5a9a1.
    """
    monos = [t for t in range(1, 256) if t.bit_count() <= max_degree]
    position = {t: i for i, t in enumerate(monos)}
    rows = []
    for mat in generators:
        # row u: x_u's coefficient in image(x_T) + x_T, over the T; an image
        # of x_T has degree |T|, so its monomials are all among monos
        supports = monomial_supports(mat)
        masks = [1 << pos for pos in range(len(monos))]
        for i, t in enumerate(monos):
            for u in supports[t]:
                masks[position[u]] ^= 1 << i
        rows += [mask for mask in masks if mask]
    return [
        Anf(sum(1 << t for i, t in enumerate(monos) if sol >> i & 1))
        for sol in ref_nullspace(rows, len(monos))
    ]


# truth table of x_(j+1): the vectors with bit j set
COORDINATE_TABLES = [mask_of(v for v in range(256) if v >> j & 1) for j in range(8)]


@cache
def coefficient_columns(mat: GFMatrix) -> tuple[int, ...]:
    """Entry T (1..255): mobius(tt[T]) ^ 1 << T, the coefficients of
    x_T o mat - x_T, one Moebius transform per monomial, once per matrix.

    Serves ref_coefficient_invariant_subspace; added in 231e656.
    """
    lin = [0] * 8
    for j, col in enumerate(mat.cols):
        for i in range(8):
            if col >> i & 1:
                lin[i] ^= COORDINATE_TABLES[j]
    tt = [(1 << 256) - 1] * 256
    columns = [0] * 256
    for t in range(1, 256):
        low = t & -t
        tt[t] = tt[t ^ low] & lin[low.bit_length() - 1]
        columns[t] = mobius(tt[t]) ^ 1 << t
    return tuple(columns)


def ref_coefficient_invariant_subspace(generators, max_degree: int) -> list[Anf]:
    """The coefficient-column route: column T is mobius(tt[T]) ^ 1 << T, the
    coefficients of x_T o A - x_T (coefficient_columns), solved by the
    kernel that fully reduces every row.

    Checks `anf.invariant_subspace`; replaced in 8659099.
    """
    vectors = {t: 0 for t in range(1, 256) if t.bit_count() <= max_degree}
    for k, mat in enumerate(generators):
        columns = coefficient_columns(mat)
        for t in vectors:
            vectors[t] |= columns[t] << 256 * k
    return [Anf(x) for x in ref_full_kernel(vectors, 256)]


def ref_product_tables(forms) -> list[int]:
    """The product recurrence anf._product_tables replaced: entry T is the
    product of the 256-bit forms[i] over the bits i of T, built from T
    minus its lowest bit for every T in counting order; the empty product is
    all ones.

    Checks `anf._product_tables`; replaced in 4ce1cc9.
    """
    tables = [(1 << 256) - 1] * 256
    for t in range(1, 256):
        low = t & -t
        tables[t] = tables[t ^ low] & forms[low.bit_length() - 1]
    return tables


def ref_per_generator_columns(generators, max_degree: int) -> dict[int, int]:
    """The columns of the invariant solve, one generator at a time: one
    ref_product_tables pass per generator over every monomial, and column T
    ORed together from each generator's block tt[T] ^ x_T(y + u), shifted
    into place, generator 0's highest.

    Checks the columns `anf.invariant_subspace` solves; replaced in
    4ce1cc9.
    """
    monomials = ref_product_tables(_MOBIUS_MASKS)
    vectors = {t: 0 for t in range(1, 256) if t.bit_count() <= max_degree}
    offset = 256 * len(generators)
    for mat in generators:
        offset -= 256
        lin = [0] * 8
        for j, col in enumerate(mat.cols):
            for i in _set_bits(col):
                lin[i] ^= _MOBIUS_MASKS[j]
        tt = ref_product_tables(lin)
        for t in vectors:
            vectors[t] |= (tt[t] ^ monomials[t]) << offset
    return vectors


def ref_per_generator_invariant_subspace(generators, max_degree: int) -> list[Anf]:
    """The per-generator build (ref_per_generator_columns), solved by the
    ascending kernel (ref_ascending_kernel).

    Checks `anf.invariant_subspace`; replaced in 4ce1cc9.
    """
    return [Anf(x) for x in ref_ascending_kernel(ref_per_generator_columns(generators, max_degree), 256)]


def ref_natural_columns(generators, max_degree: int) -> dict[int, int]:
    """The columns of the invariant solve before they were mirrored, point
    by point: column T holds the truth table of x_T o A + x_T for generator
    k at bits 256k..256k+255, point x at bit x.

    Checks the columns `anf.invariant_subspace` solves; replaced in 89816bb.
    """
    monomials = [mask_of(x for x in range(256) if x & t == t) for t in range(256)]
    vectors = {t: 0 for t in range(1, 256) if t.bit_count() <= max_degree}
    for k, mat in enumerate(generators):
        for t in vectors:
            image = mask_of(x for x in range(256) if mat(x) & t == t)
            vectors[t] |= (image ^ monomials[t]) << 256 * k
    return vectors


def ref_monomial_orbit_poly(rep, group) -> Anf:
    """Reference monomial orbit: each generator as a map on the indices 1..8,
    applied to the index set bit by bit.

    Checks `anf.monomial_orbit_poly`; replaced in 50dfc71.
    """
    index_maps = []
    for g in group.generators:
        images = [g(1 << j) for j in range(8)]
        if any(img.bit_count() != 1 for img in images):
            raise ValueError("group contains a non-permutation matrix")
        index_maps.append([img.bit_length() - 1 for img in images])
    start = 0
    for i in rep:
        start |= 1 << (i - 1)
    orbit = {start}
    queue = [start]
    while queue:
        t = queue.pop()
        for pmap in index_maps:
            img = 0
            rest = t
            while rest:
                low = rest & -rest
                img |= 1 << pmap[low.bit_length() - 1]
                rest ^= low
            if img not in orbit:
                orbit.add(img)
                queue.append(img)
    return Anf(sum(1 << t for t in orbit))


def ref_flat_parities(d: int, table):
    """The Gray-code walk over the points of every d-flat, yielding each
    flat's parity against table (0/1 per vector) in echelon_bases order.

    Checks `anf.degree_by_incidence`'s scan; replaced in 3d5a9a1.
    """
    seq = [(m & -m).bit_length() - 1 for m in range(1, 1 << (d + 1))]
    for rows in echelon_bases(d + 1):
        v = parity = 0
        for r in seq:
            v ^= rows[r]
            parity ^= table[v]
        yield parity


def ref_exists_even_flat(d: int, table) -> bool:
    """Whether some d-flat meets the set of table evenly, by the Gray-code walk.

    Checks `anf.degree_by_incidence`'s scan; replaced in 3d5a9a1.
    """
    return 0 in ref_flat_parities(d, table)


# FLIP[b] maps each byte v to v ^ 1 << b, for bytes.translate
FLIP = [bytes(v ^ 1 << b for v in range(256)) for b in range(8)]


def buffer_flat_parities(layout, table: bytes) -> bytes:
    """Parity of the meet with the set of table (0/1 per vector), per flat.

    layout is one reduced-echelon layout (base_rows, slots) of the flats; the
    result holds one byte per fill of the free slots, fills counted upward
    with the first slot as the top bit (the lex order of the flats' rows
    that ref_echelon_layouts describes).  One buffer per nonzero coefficient
    vector c holds the point c . rows for every fill (the same fill at the
    same offset, built by doubling over the slots), and XORing the parities
    of all 2^k - 1 buffers leaves the parity of each flat.

    Checks the incidence scan (`anf._even_bits`); replaced in ec71c68.
    """
    base_rows, slots = layout
    points = _xor_sums(base_rows)  # points[c] = c . base_rows
    if not slots:
        # a single flat: no buffers, just the parity of its points
        return bytes((bytes(points[1:]).translate(table).count(1) & 1,))
    acc = 0
    for c in range(1, len(points)):
        buf = bytes((points[c],))
        # the last slot doubles first, so the first slot is the top bit of a fill
        for i, b in reversed(slots):
            buf += buf.translate(FLIP[b]) if c >> i & 1 else buf
        acc ^= int.from_bytes(buf.translate(table), "little")
    return acc.to_bytes(1 << len(slots), "little")


def plan_layouts(k: int):
    """The layouts of ref_echelon_layouts(k) in ref_coset_plan(k)'s order.

    Serves the byte-buffer scan; added in ec71c68.
    """
    return sorted(ref_echelon_layouts(k), key=lambda layout: len(layout[1]))


def buffer_exists_even_flat(d: int, table: bytes) -> bool:
    """Whether some d-flat meets the set of table (0/1 per vector) evenly.

    Checks `anf.degree_by_incidence`'s scan; replaced in ec71c68.
    """
    return any(b"\x00" in buffer_flat_parities(layout, table) for layout in plan_layouts(d + 1))


def buffer_even_counts(k: int, psi: int) -> list[int]:
    """Even (k-1)-flats per layout, in plan order, from the byte-buffer scan.

    Checks the incidence scan (`anf._even_bits`); replaced in ec71c68.
    """
    table = _byte_table(psi)
    return [buffer_flat_parities(layout, table).count(0) for layout in plan_layouts(k)]



# ---------------------------------------------------------------------------
# anf: the coset-table scan that the quotient tables replaced


@cache
def ref_swap_masks() -> tuple[int, ...]:
    """Masks over 512 blocks of 256 bits, the most a packed coset table holds.

    Entry b < 8 marks the positions whose bit b is clear (_MOBIUS_MASKS[b]
    in every block), and entry 8 marks position 0 of every block.

    Serves ref_even_flats; replaced in 231e656.
    """
    rep = 1
    for i in range(9):
        rep |= rep << (256 << i)
    return tuple(m * rep for m in _MOBIUS_MASKS) + (rep,)


@cache
def ref_coset_plan(k: int) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """The flats of vector dimension k as (fills, rows) pairs, one per layout.

    A layout is a pivot set of k columns: row i of a reduced-echelon
    basis has pivot bit pivots[i] and may carry its free columns, the
    non-pivot columns above it, highest first.  Row i has
    7 - pivots[i] - (k-1-i) free columns, so a stable sort of the pivot
    sets by -sum(pivots) puts the layouts with the fewest free columns
    first.  Row 0 has the most fills (each row's free columns include
    those of every later row), and fills is the 256-bit mask of them all.
    rows holds the other rows, row k-1 first and row 1 last, each as its
    flips: its pivot bit, then the free column that each step of a Gray
    walk over its fills toggles.  After flip g the row is the XOR of
    1 << b over its first g + 1 flips, so the flips visit each fill of
    the row once.

    Checks `anf._quotient_plan`; replaced in 231e656.
    """
    plan = []
    for pivots in sorted(combinations(range(8), k), key=lambda pivots: -sum(pivots)):
        cols = [[b for b in range(7, p, -1) if b not in pivots] for p in pivots]
        fills = mask_of(1 << pivots[0] ^ s for s in _xor_sums([1 << b for b in cols[0]]))
        rows = tuple(
            (pivots[i],)
            + tuple(cols[i][(g & -g).bit_length() - 1] for g in range(1, 1 << len(cols[i])))
            for i in range(k - 1, 0, -1)
        )
        plan.append((fills, rows))
    return tuple(plan)


def ref_coset_sums(table: int, flips, masks):
    """Yield table ^ table(x ^ s) after each flip of s, blockwise.

    table packs blocks T_H(x) = sum of psi(x ^ h) over h in H, for subspaces
    H; flipping bit b of x is one shift each way under masks[b].  The yielded
    block is T_(H + <s>), since T_(H+<s>)(x) = T_H(x) ^ T_H(x ^ s).

    Serves ref_even_flats; replaced in 231e656.
    """
    moved = table
    for b in flips:
        step, keep = 1 << b, masks[b]
        moved = (moved & keep) << step | (moved >> step) & keep
        yield table ^ moved


def ref_even_flats(entry, psi: int):
    """Yield the flats of one ref_coset_plan entry that meet psi evenly.

    A flat is <H, r> with r a fill of row 0 and H the span of the other
    rows, and it meets psi in T_H(0) ^ T_H(r) points, mod 2.  So one packed
    table of T_H per fill of the other rows answers all fills of row 0 at
    once.  The rows but the last are packed into one int, each new row's
    fills as the high digit of the block index; the last row's fills are
    yielded one piece each, unjoined.

    Bit r of block j of the g-th piece is set exactly when the flat with
    these rows meets psi evenly (ref_coset_flat reads it).

    Checks `anf._even_bits`; replaced in 231e656.
    """
    fills, rows = entry
    masks = ref_swap_masks()
    table, width = psi, 256
    for flips in rows[:-1]:
        packed = 0
        for g, t in enumerate(ref_coset_sums(table, flips, masks)):
            packed |= t << g * width
        table, width = packed, width * len(flips)
    rep = masks[8] & (1 << width) - 1
    targets = fills * rep
    for t in ref_coset_sums(table, rows[-1], masks) if rows else (table,):
        origin = t & rep  # T_H(0) per block; times TABLE_FULL, it fills the block
        parities = t ^ (origin << 256) - origin
        yield parities & targets ^ targets


def ref_coset_flat(entry, piece: int, block: int, r: int) -> Flat:
    """The flat that bit r of block `block` of piece `piece` of
    ref_even_flats names: row 0 is r itself, row 1 (the last of rows)
    stands after its flip `piece`, and the block index, read in mixed radix
    with one digit per packed row (row k-1 the lowest, each radix the
    number of that row's flips), gives the flip after which each of rows
    k-1..2 stands.

    Reads the bits of ref_even_flats; moved out of test_anf.py in 231e656.
    """
    _, rows = entry
    others = []
    if rows:
        for flips in rows[:-1]:  # row k-1 first, the lowest digit
            block, g = divmod(block, len(flips))
            others.append(row_after(flips, g))
        others.append(row_after(rows[-1], piece))
    return Flat._from_rref((r, *reversed(others)))


def ref_coset_even_flats(k: int, psi: int) -> set[Flat]:
    """Every (k-1)-flat that the coset-table scan finds meeting psi evenly.

    Checks `anf._even_bits`; replaced in 231e656.
    """
    named = set()
    for entry in ref_coset_plan(k):
        for piece, even in enumerate(ref_even_flats(entry, psi)):
            for bit in _set_bits(even):
                named.add(ref_coset_flat(entry, piece, bit >> 8, bit & 255))
    return named


# ---------------------------------------------------------------------------
# anf: the coordinate tables of the incidence plan


def ref_coordinate_table(order) -> bytes:
    """The point table of a coordinate order, by flip-doubling: index bit i
    stands for column order[i], and each column doubles the table with its
    copy under v -> v ^ (1 << column).

    Checks the tables of `anf._quotient_plan`; replaced in the commit after
    a754cae.
    """
    flips = [bytes(v ^ 1 << c for v in range(256)) for c in range(8)]
    table = b"\0"
    for c in order:
        table += table.translate(flips[c])
    return table
