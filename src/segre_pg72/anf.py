"""Reduced multilinear (square-free) polynomial algebra on GF(2)^8.

An Anf stores one coefficient bit per monomial prod_{i in T} x_i, indexed by
the subset mask T in 0..255 (T = 0 is the constant term).  The binary
Moebius transform between coefficients and the 256-bit truth table is an
involution, so equations of point sets, products and substitutions all
reduce to mask arithmetic on 256-bit ints.
"""

from __future__ import annotations

from functools import cache

from .gf2 import (
    ConstructionError,
    DIM,
    Flat,
    GFMatrix,
    _echelon_layouts,
    _reduce,
    orthogonal_complement,
)
from .groups import MatrixGroup, cube_group
from .orbits import (
    definitional_orbits,
    orbit_mask,
    tetrad_three_flats,
)
from .segre import build_model

TABLE_FULL = (1 << 256) - 1

# butterfly masks: positions whose index has bit i clear
_MOBIUS_MASKS = []
for _i in range(DIM):
    _step = 1 << _i
    _block = (1 << _step) - 1
    _mask = 0
    _pos = 0
    while _pos < 256:
        _mask |= _block << _pos
        _pos += 2 * _step
    _MOBIUS_MASKS.append(_mask)


def mobius(table: int) -> int:
    """Binary Moebius/zeta transform over the subset lattice; an involution."""
    for i, m in enumerate(_MOBIUS_MASKS):
        table ^= (table & m) << (1 << i)
    return table


# _SUBSETS[x] has bit T set exactly when T is a submask of x
_SUBSETS = [1] * 256
for _x in range(1, 256):
    _low = _x & -_x
    _rest = _SUBSETS[_x ^ _low]
    _SUBSETS[_x] = _rest | (_rest << _low)

# _COORDINATE_TABLES[j] is the truth table of x_(j+1): the vectors with bit j set
_COORDINATE_TABLES = [TABLE_FULL ^ m for m in _MOBIUS_MASKS]

# _BY_DEGREE[d] has bit T set exactly when T has popcount d
_BY_DEGREE = [0] * 9
for _T in range(256):
    _BY_DEGREE[_T.bit_count()] |= 1 << _T


class Anf:
    """A reduced polynomial in 8 variables over GF(2)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: int):
        if not 0 <= coeffs <= TABLE_FULL:
            raise ValueError("coefficient mask out of range")
        self.coeffs = coeffs

    @classmethod
    def zero(cls) -> "Anf":
        return cls(0)

    @classmethod
    def one(cls) -> "Anf":
        return cls(1)

    @classmethod
    def monomial(cls, indices) -> "Anf":
        mask = 0
        for i in indices:
            if not 1 <= i <= 8 or mask >> (i - 1) & 1:
                raise ValueError(f"bad monomial indices {indices!r}")
            mask |= 1 << (i - 1)
        return cls(1 << mask)

    @classmethod
    def variable(cls, i: int) -> "Anf":
        return cls.monomial((i,))

    @classmethod
    def linear_form(cls, v: int) -> "Anf":
        """Sum of the variables named by the bits of v."""
        coeffs = 0
        while v:
            low = v & -v
            coeffs |= 1 << low
            v ^= low
        return cls(coeffs)

    def __add__(self, other: "Anf") -> "Anf":
        return Anf(self.coeffs ^ other.coeffs)

    def __mul__(self, other: "Anf") -> "Anf":
        # pointwise product of the functions; reduction is implicit in the
        # uniqueness of the square-free representative
        return Anf(mobius(mobius(self.coeffs) & mobius(other.coeffs)))

    def evaluate(self, x: int) -> int:
        """Value at the vector x: parity of the monomials contained in x."""
        return (self.coeffs & _SUBSETS[x]).bit_count() & 1

    def truth_table(self) -> int:
        return mobius(self.coeffs)

    def pointset(self) -> int:
        """Mask of the nonzero vectors where the polynomial vanishes."""
        return ~self.truth_table() & TABLE_FULL & ~1

    @property
    def degree(self) -> int:
        for d in range(8, -1, -1):
            if self.coeffs & _BY_DEGREE[d]:
                return d
        return 0

    def monomials(self) -> list[tuple[int, ...]]:
        """Set monomials as index tuples, sorted by size then lexicographically."""
        out = []
        c = self.coeffs
        while c:
            low = c & -c
            t = low.bit_length() - 1
            out.append(tuple(i for i in range(1, 9) if t >> (i - 1) & 1))
            c ^= low
        out.sort(key=lambda t: (len(t), t))
        return out

    def monomial_strings(self) -> list[str]:
        if self.coeffs & 1:
            raise ValueError("constant term has no digit-string form")
        return ["".join(map(str, t)) for t in self.monomials()]

    @classmethod
    def from_monomial_strings(cls, terms) -> "Anf":
        coeffs = 0
        for term in terms:
            mask = 0
            for ch in term:
                if not "1" <= ch <= "8" or mask >> (int(ch) - 1) & 1:
                    raise ValueError(f"bad monomial {term!r}")
                mask |= 1 << (int(ch) - 1)
            coeffs ^= 1 << mask
        return cls(coeffs)

    def to_hex(self) -> str:
        return f"{self.coeffs:064x}"

    @classmethod
    def from_hex(cls, text: str) -> "Anf":
        if len(text) != 64:
            raise ValueError("expected 64 hex digits")
        return cls(int(text, 16))

    def __eq__(self, other) -> bool:
        return isinstance(other, Anf) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        n = self.coeffs.bit_count()
        return f"Anf(degree={self.degree}, terms={n})"


def anf_from_pointset(psi: int) -> Anf:
    """The unique reduced Q with Q(0) = 0 vanishing exactly on psi.

    psi is a mask over the nonzero vectors (bit v set means v in psi); the
    returned polynomial is 1 on every nonzero vector outside psi.
    """
    if not 0 <= psi <= TABLE_FULL or psi & 1:
        raise ValueError("point-set mask must cover bits 1..255 only")
    table = ~(psi | 1) & TABLE_FULL
    return Anf(mobius(table))


def flat_equation(x: Flat) -> Anf:
    """Equation of a proper flat: 1 + prod(1 + f_i) over dual forms f_i."""
    k = len(x.basis)
    if k == DIM:
        raise ValueError("the whole space has no equation")
    forms = orthogonal_complement(x.basis) if k else orthogonal_complement([0])
    poly = Anf.one()
    for g in forms:
        poly = poly * (Anf.one() + Anf.linear_form(g))
    result = Anf.one() + poly
    if result.degree != DIM - k:
        raise ConstructionError("flat equation has the wrong degree")
    expected = 0
    for p in x.points():
        expected |= 1 << p
    if result.pointset() != expected:
        raise ConstructionError("flat equation has the wrong zero set")
    return result


# _FLIP[b] maps each byte v to v ^ 1 << b, for bytes.translate
_FLIP = [bytes(v ^ 1 << b for v in range(256)) for b in range(DIM)]


def _flat_parities(layout, table: bytes) -> bytes:
    """Parity of the meet with the set of table (0/1 per vector), per flat.

    layout is one reduced-echelon layout (base_rows, slots) of the flats; the
    result holds one byte per fill of the free slots, fills counted upward
    with the first slot as the top bit (the lex order of the flats' rows that
    gf2._echelon_layouts describes).  One buffer per nonzero coefficient
    vector c holds the point c . rows for every fill (the same fill at the
    same offset, built by doubling over the slots), and XORing the parities
    of all 2^k - 1 buffers leaves the parity of each flat.
    """
    base_rows, slots = layout
    points = [0]  # points[c] = c . base_rows
    for row in base_rows:
        points += [p ^ row for p in points]
    if not slots:
        # a single flat: no buffers, just the parity of its points
        return bytes((bytes(points[1:]).translate(table).count(1) & 1,))
    acc = 0
    for c in range(1, len(points)):
        buf = bytes((points[c],))
        # the last slot doubles first, so the first slot is the top bit of a fill
        for i, b in reversed(slots):
            buf += buf.translate(_FLIP[b]) if c >> i & 1 else buf
        acc ^= int.from_bytes(buf.translate(table), "little")
    return acc.to_bytes(1 << len(slots), "little")


def _exists_even_flat(d: int, table: bytes) -> bool:
    """Whether some d-flat meets the set of table (0/1 per vector) evenly.

    Layouts with the fewest free slots go first: their buffers are the
    smallest, which keeps the early exit cheap.
    """
    layouts = sorted(_echelon_layouts(d + 1), key=lambda layout: len(layout[1]))
    return any(b"\x00" in _flat_parities(layout, table) for layout in layouts)


def degree_by_incidence(psi: int) -> int:
    """Polynomial degree of an odd point set from incidence parities alone.

    Returns the minimal d such that every d-flat meets psi in an odd number
    of points, after certifying that some (d-1)-flat meets it evenly.  This
    route never touches the coefficient algebra, so it can cross-check it.
    Each scan reads only the 0/1 parity table of psi, through per-layout
    byte buffers of flat points (see _flat_parities); a buffer lives for
    one layout, at most 64 KB, and none is cached.
    """
    if not 0 <= psi <= TABLE_FULL or psi & 1:
        raise ValueError("point-set mask must cover bits 1..255 only")
    if psi.bit_count() % 2 == 0:
        raise ValueError("incidence criterion requires an odd point count")
    table = bytes(psi >> v & 1 for v in range(256))
    for d in range(8):
        if not _exists_even_flat(d, table):
            if d > 0 and not _exists_even_flat(d - 1, table):
                raise ConstructionError("no even witness flat below the degree")
            return d
    raise AssertionError("unreachable: the full space meets an odd set oddly")


def substitute(f: Anf, mat: GFMatrix) -> Anf:
    """The reduced polynomial g with g(x) = f(mat x) for all x."""
    if not mat.is_invertible():
        raise ValueError("substitution requires an invertible matrix")
    t = f.truth_table()
    out = 0
    for x, y in enumerate(mat.perm):
        if t >> y & 1:
            out |= 1 << x
    g = Anf(mobius(out))
    if g.degree != f.degree:
        raise ConstructionError("invertible substitution changed the degree")
    return g


def monomial_orbit_poly(rep, group: MatrixGroup) -> Anf:
    """Sum of the monomials in the orbit of rep under coordinate permutations.

    rep is an iterable of indices in 1..8; every generator of the group must
    be a permutation matrix.
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
    coeffs = 0
    for t in orbit:
        coeffs |= 1 << t
    return Anf(coeffs)


# ---------------------------------------------------------------------------
# The named invariant polynomials.  All fifteen P's arise as monomial-orbit
# sums under the cube group; the fully known expansions are pinned so a
# labeling slip cannot pass silently.

_P_REPRESENTATIVES: dict[str, tuple[int, ...]] = {
    "P1": (1,),
    "P2": (1, 2),
    "P2'": (1, 3),
    "P2''": (1, 8),
    "P3": (1, 2, 3),
    "P3'": (1, 3, 5),
    "P3''": (1, 2, 8),
    "P4": (1, 2, 3, 4),
    "P4'": (1, 2, 7, 8),
    "P4''": (1, 2, 4, 6),
    "P4'''": (1, 3, 5, 7),
    "P4iv": (1, 2, 3, 8),
    "P4v": (1, 2, 4, 8),
    "P5": (1, 2, 3, 5, 7),
    "P6": (1, 2, 3, 6, 7, 8),
}


def _diagonal_triples() -> tuple[str, ...]:
    terms = []
    for a, b in ((1, 8), (2, 7), (3, 6), (4, 5)):
        for i in range(1, 9):
            if i not in (a, b):
                terms.append("".join(map(str, sorted((a, b, i)))))
    return tuple(terms)


_P_EXPANSIONS: dict[str, tuple[str, ...]] = {
    "P1": ("1", "2", "3", "4", "5", "6", "7", "8"),
    "P2": ("12", "14", "16", "23", "25", "34", "38", "47", "56", "58", "67", "78"),
    "P2'": ("13", "15", "17", "35", "37", "57", "24", "26", "28", "46", "48", "68"),
    "P2''": ("18", "27", "36", "45"),
    "P3": (
        "123", "124", "134", "234", "125", "126", "156", "256",
        "146", "147", "167", "467", "235", "238", "258", "358",
        "347", "348", "378", "478", "567", "568", "578", "678",
    ),
    "P3'": ("135", "137", "157", "357", "246", "248", "268", "468"),
    "P3''": _diagonal_triples(),
    "P4": ("1234", "1256", "1467", "2358", "3478", "5678"),
    "P4'": ("1278", "1368", "1458", "2367", "2457", "3456"),
    "P4''": ("1246", "1235", "1347", "1567", "2348", "2568", "3578", "4678"),
    "P4'''": ("1357", "2468"),
    "P4v": (
        "1248", "1268", "1468", "1358", "1378", "1578",
        "1237", "1257", "2357", "2467", "2478", "2678",
        "2346", "2368", "3468", "1356", "1367", "3567",
        "1345", "1457", "3457", "2456", "2458", "4568",
    ),
    "P5": (
        "12357", "13457", "13567", "13578",
        "12468", "23468", "24568", "24678",
    ),
    "P6": ("123678", "124578", "134568", "234567"),
}

# only six of the 24 terms are pinned; the rest follow by symmetry
_P4IV_KNOWN_TERMS = ("1238", "1258", "1348", "1478", "1568", "1678")


@cache
def named_P_basis() -> dict[str, Anf]:
    """The fifteen cube-group-invariant monomial-orbit polynomials."""
    group = cube_group()
    polys: dict[str, Anf] = {}
    for name, rep in _P_REPRESENTATIVES.items():
        poly = monomial_orbit_poly(rep, group)
        expected = _P_EXPANSIONS.get(name)
        if expected is not None:
            if poly != Anf.from_monomial_strings(expected):
                raise ConstructionError(f"{name} disagrees with its known expansion")
        else:
            known = Anf.from_monomial_strings(_P4IV_KNOWN_TERMS)
            if poly.coeffs.bit_count() != 24 or known.coeffs & ~poly.coeffs:
                raise ConstructionError(f"{name} misses pinned terms")
        polys[name] = poly
    return polys


def invariant_subspace(generators, max_degree: int) -> list[Anf]:
    """Basis of the invariant polynomials of degree <= max_degree, no constant.

    Substitution by each generator acts linearly on the coefficient space of
    the monomials of size 1..max_degree, and the invariants are the kernel
    of the map sending x_T to image(x_T) + x_T under every generator.  The
    images of all monomials under one generator come from one truth-table
    recurrence: the image of x_T is the product of the coordinate forms
    (A x)_i for i in T, built from T minus its lowest index.

    The kernel comes from one tagged elimination.  Monomial T contributes
    one vector: image(x_T) + x_T of generator k at bits 256k..256k+255, and
    a tag at bit 256G + 255 - T for G generators.  After gf2._reduce, the
    rows whose pivot is a tag carry nothing below the tags: they are the
    kernel, fully reduced.  The tags run in reverse, so each row's pivot is
    its highest monomial; the basis lists the rows by that monomial,
    ascending.
    """
    if not 1 <= max_degree <= 8:
        raise ValueError("degree must be between 1 and 8")
    # vectors[T]: the images of x_T plus x_T so far, one 256-bit block each
    vectors = {t: 0 for t in range(1, 256) if t.bit_count() <= max_degree}
    space = sum(1 << t for t in vectors)
    offset = 0
    for mat in generators:
        if not mat.is_invertible():
            raise ValueError("substitution requires an invertible matrix")
        # lin[i]: truth table of x -> bit i of A x, a sum of coordinate tables
        lin = [0] * DIM
        for j, col in enumerate(mat.cols):
            for i in _set_bits(col):
                lin[i] ^= _COORDINATE_TABLES[j]
        tt = [TABLE_FULL] * 256
        for t in range(1, 256):
            low = t & -t
            tt[t] = tt[t ^ low] & lin[low.bit_length() - 1]
            if t not in vectors:
                continue
            img = mobius(tt[t])
            if Anf(img).degree != t.bit_count():
                raise ConstructionError("invertible substitution changed the degree")
            if img & ~space:
                raise ConstructionError("substitution left the coefficient space")
            vectors[t] |= (img ^ 1 << t) << offset
        offset += 256
    rows = _reduce(v | 1 << offset + 255 - t for t, v in vectors.items())
    # reversing the 256 tag bits turns tag 255 - T back into coefficient T
    return [
        Anf(int(f"{rows[p] >> offset:0256b}"[::-1], 2))
        for p in sorted((p for p in rows if p >> offset), reverse=True)
    ]


def _set_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# The five named invariants, each built geometrically and in closed form.


@cache
def named_Q() -> dict[str, Anf]:
    """Q2, Q4, Q4', Q6, Q6': geometric and closed-form routes, asserted equal."""
    p = named_P_basis()
    model = build_model()
    orbs = definitional_orbits()

    q2_geo = anf_from_pointset(orbit_mask(orbs, "O2", "O4", "O5"))
    q2 = p["P2''"]
    if q2 != q2_geo:
        raise ConstructionError("quadric closed form disagrees with its point set")

    q4_geo = Anf.zero()
    for flat in model.ambient_flats.values():
        q4_geo = q4_geo + flat_equation(flat)
    q4 = p["P2''"] + p["P3'"] + p["P4'''"] + p["P4v"]
    if q4 != q4_geo:
        raise ConstructionError("ambient-flat quartic disagrees with its closed form")

    q4p_geo = Anf.zero()
    for flat in tetrad_three_flats().values():
        q4p_geo = q4p_geo + flat_equation(flat)
    q4p = p["P2'"] + p["P3'"] + p["P3''"] + p["P4'"]
    if q4p != q4p_geo:
        raise ConstructionError("tetrad quartic disagrees with its closed form")

    q6_geo = Anf.zero()
    for i in (0, 1, 2):
        for j in (0, 1, 2):
            line = model.generators[(i, j, 3)]
            q6_geo = q6_geo + flat_equation(Flat(line))
    q6 = (
        p["P2'"] + p["P2''"] + p["P3''"] + p["P4'"]
        + p["P4'''"] + p["P4v"] + p["P5"] + p["P6"]
    )
    if q6 != q6_geo:
        raise ConstructionError("generator sextic disagrees with its closed form")

    q6p = p["P5"] + p["P6"]
    if q6p.pointset() != orbit_mask(orbs, "O2", "O3", "O4", "O5"):
        raise ConstructionError("simple sextic does not vanish off O1")

    return {"Q2": q2, "Q4": q4, "Q4'": q4p, "Q6": q6, "Q6'": q6p}


# value on (O1, O2, O3, O4, O5) and size of the zero set, for each invariant
# of degree at most 4
SEVEN_TABLE = (
    ("Q2", (1, 0, 1, 0, 0), 135),
    ("Q4", (1, 0, 1, 1, 0), 81),
    ("Q4'", (1, 1, 0, 0, 0), 189),
    ("Q4+Q4'", (0, 1, 1, 1, 0), 39),
    ("Q2+Q4", (0, 0, 0, 1, 0), 201),
    ("Q2+Q4'", (0, 1, 1, 0, 0), 93),
    ("Q2+Q4+Q4'", (1, 1, 0, 1, 0), 135),
)


def resolve_poly_name(name: str) -> Anf:
    """Look up a named invariant, allowing sums joined with '+'."""
    q = named_Q()
    p = named_P_basis()
    total = Anf.zero()
    for part in name.split("+"):
        part = part.strip()
        if part in q:
            total = total + q[part]
        elif part in p:
            total = total + p[part]
        else:
            raise KeyError(f"unknown polynomial {part!r}")
    return total


# ---------------------------------------------------------------------------
# The symplectic form attached to the invariant quadric.


@cache
def _certify_symplectic() -> Anf:
    q2 = named_Q()["Q2"]
    gram = []
    for i in range(1, 9):
        row = 0
        for j in range(1, 9):
            ei, ej = 1 << (i - 1), 1 << (j - 1)
            b = q2.evaluate(ei ^ ej) ^ q2.evaluate(ei) ^ q2.evaluate(ej)
            row |= b << (j - 1)
        gram.append(row)
    if GFMatrix.from_rows(gram).rank() != DIM:
        raise ConstructionError("polar form of the quadric is degenerate")
    for x in range(1, 256):
        if q2.evaluate(x ^ x) ^ q2.evaluate(x) ^ q2.evaluate(x):
            raise ConstructionError("polar form is not alternating")
    return q2


def symplectic_form(x: int, y: int) -> int:
    """The polar form of the invariant quadric: Q2(x+y) + Q2(x) + Q2(y)."""
    q2 = _certify_symplectic()
    return q2.evaluate(x ^ y) ^ q2.evaluate(x) ^ q2.evaluate(y)
