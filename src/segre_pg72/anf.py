"""Reduced multilinear (square-free) polynomial algebra on GF(2)^8.

An Anf stores one coefficient bit per monomial prod_{i in T} x_i, indexed by
the subset mask T in 0..255 (T = 0 is the constant term).  The binary
Moebius transform between coefficients and the 256-bit truth table is an
involution, so equations of point sets, products and substitutions all
reduce to mask arithmetic on 256-bit ints.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb
from typing import TYPE_CHECKING

from .gf2 import (
    DIM,
    UNIT,
    Flat,
    GFMatrix,
    _UNITS,
    _check_matrices,
    _check_vectors,
    _digits,
    _kernel,
    _mask_of,
    _set_bits,
    point_orbit,
)

if TYPE_CHECKING:
    from .groups import MatrixGroup

TABLE_FULL = (1 << 256) - 1


def _tiled(block: int, period: int, width: int) -> int:
    """block repeated every period bits up to width bits (powers of two)."""
    while period < width:
        block |= block << period
        period <<= 1
    return block


# butterfly masks: positions whose index has bit i clear.  Mask j is also the
# truth table of the mirrored coordinate y -> x_(j+1)(y + u), u the unit point
_MOBIUS_MASKS = [_tiled((1 << (1 << i)) - 1, 2 << i, 256) for i in range(DIM)]


def mobius(table: int) -> int:
    """Binary Moebius/zeta transform over the subset lattice; an involution."""
    if not 0 <= table <= TABLE_FULL:
        raise ValueError("truth table out of range")
    for i, m in enumerate(_MOBIUS_MASKS):
        table ^= (table & m) << (1 << i)
    return table


# (T, T minus its lowest bit i, i) by size of T: the first _UP_TO[d] make each |T| <= d
_STEPS = [(t, t & t - 1, (t & -t).bit_length() - 1) for t in sorted(range(1, 256), key=int.bit_count)]
_UP_TO = [sum(comb(DIM, k) for k in range(1, d + 1)) for d in range(DIM + 1)]


def _product_tables(forms, empty: int = TABLE_FULL, max_degree: int = DIM) -> list[int]:
    """Entry T, for |T| <= max_degree: the product of forms[i] over the bits i of T.

    Entry 0 (the empty product) and the entries above max_degree are empty.
    An AND, so forms laid side by side in blocks multiply blockwise."""
    tables = [empty] * 256
    for t, rest, i in _STEPS[: _UP_TO[max_degree]]:
        tables[t] = tables[rest] & forms[i]
    return tables


# _MIRRORED_MONOMIAL_TABLES[T] is the truth table of y -> x_T(y + u): the
# vectors that miss T, a product of the mirrored coordinate tables
_MIRRORED_MONOMIAL_TABLES = _product_tables(_MOBIUS_MASKS)


@cache
def _tagged_monomial_tables(count: int) -> tuple[int, ...]:
    """_MIRRORED_MONOMIAL_TABLES[T] in count 256-bit blocks above 256 tags, plus tag T."""
    copies = sum(1 << 256 * k for k in range(1, count + 1))
    return tuple(m * copies | 1 << t for t, m in enumerate(_MIRRORED_MONOMIAL_TABLES))


# _SUBSETS[x] has bit T set exactly when T is a submask of x, that is when T
# misses x ^ 255: the same relation, read from the other side
_SUBSETS = _MIRRORED_MONOMIAL_TABLES[::-1]

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
    def monomial(cls, indices) -> "Anf":
        mask = 0
        for i in indices:
            if not 1 <= i <= 8 or mask >> (i - 1) & 1:
                raise ValueError(f"bad monomial indices {indices!r}")
            mask |= 1 << (i - 1)
        return cls(1 << mask)

    def __add__(self, other: "Anf") -> "Anf":
        return Anf(self.coeffs ^ other.coeffs)

    def __mul__(self, other: "Anf") -> "Anf":
        # pointwise product of the functions; reduction is implicit in the
        # uniqueness of the square-free representative
        return Anf(mobius(mobius(self.coeffs) & mobius(other.coeffs)))

    def evaluate(self, x: int) -> int:
        """Value at the vector x: parity of the monomials contained in x."""
        if not 0 <= x <= UNIT:
            _check_vectors((x,))  # raises: x is no 8-bit vector
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

    def monomial_strings(self) -> list[str]:
        """Set monomials as digit strings, sorted by size then lexicographically."""
        if self.coeffs & 1:
            raise ValueError("constant term has no digit-string form")
        return sorted(map(_digits, _set_bits(self.coeffs)), key=lambda t: (len(t), t))

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


def _check_pointset(psi: int) -> None:
    if not 0 <= psi <= TABLE_FULL or psi & 1:
        raise ValueError("point-set mask must cover bits 1..255 only")


def anf_from_pointset(psi: int) -> Anf:
    """The unique reduced Q with Q(0) = 0 vanishing exactly on psi.

    psi is a mask over the nonzero vectors (bit v set means v in psi); the
    returned polynomial is 1 on every nonzero vector outside psi.
    """
    _check_pointset(psi)
    table = ~(psi | 1) & TABLE_FULL
    return Anf(mobius(table))


def flat_equation(x: Flat) -> Anf:
    """Equation of a proper flat: the equation of its point set.

    It has degree 8 - k for a flat of vector dimension k < 8.
    """
    if len(x.basis) == DIM:
        raise ValueError("the whole space has no equation")
    return anf_from_pointset(_mask_of(x.points()))


# the ASCII binary digits to the bytes 0 and 1, and back
_BITS = bytes.maketrans(b"01", b"\x00\x01")
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _byte_table(mask: int) -> bytes:
    """Bit v of a 256-bit mask as byte v (0 or 1): a table for bytes.translate."""
    return f"{mask:0256b}".encode()[::-1].translate(_BITS)


# the widest packed table: 2^17 bits, for the pivot set {1, 2, 3}
_WIDEST = 1 << 17


@cache
def _scan_tables() -> tuple[tuple[int, ...], tuple[bytes, ...]]:
    """The masks and flips that every _quotient_plan entry shares.

    masks[b] marks the positions of the widest packed table whose bit b is
    clear; flips[c] is the point table of v -> v ^ (1 << c).
    """
    masks = tuple(_tiled(m, 256, _WIDEST) for m in _MOBIUS_MASKS)
    return masks, tuple(bytes(v ^ 1 << c for v in range(256)) for c in range(DIM))


@cache
def _quotient_plan(k: int) -> tuple[tuple[bytes, tuple, int, int, int], ...]:
    """The flats of vector dimension k, one entry per pivot set of rows 1..k-1.

    Row i of a flat's reduced-echelon basis has pivot (lowest) bit p_i and
    may carry the non-pivot columns above it.  Rows 1..k-1 span H, with
    pivots S, a subset of 1..7; row 0 is a vector r that is 0 on S and has
    a bit below min S.  psi meets the flat <H, r> in T_H(0) ^ T_H(r) points
    mod 2, T_H(x) being the parity of psi on x + H.  T_H is constant on the
    cosets of H, so it is a table over the quotient columns, those not in S.

    An entry is (perm, rows, quot, origins, targets), entries in ascending
    order of their flat count.  perm is the point table of the coordinate
    order "quotient columns low, S columns high", each ascending; index bit
    i of a packed table stands for column i of that order.  rows holds the
    rows of H, highest pivot first, as (step, keep, doublings): step is
    1 << the pivot's index bit and keep its swap mask.  A row folds psi
    into T_H(x) ^ T_H(x ^ row) at the positions with that bit clear, then
    doubles the table once per free column as (shift, flip, flip_keep):
    the copy with the column flipped goes to positions `shift` higher, to
    the pivot's own bit first and then to fresh top bits.  A row with no
    free column has the top bit, and halves the table.  The result holds one
    quot-bit table T_H per fill of all rows; origins marks position 0 of
    each and targets the allowed r.  So bit j of _even_bits names the flat
    spanned by perm[j % quot] and, per row, perm[step ^ the flip of each
    doubling whose shift is a bit of j].
    """
    masks, flips = _scan_tables()
    plan = []
    for pivots in combinations(range(1, DIM), k - 1):
        low = [c for c in range(DIM) if c not in pivots]
        order = low + list(pivots)
        perm = b"\0"
        for c in order:
            perm += perm.translate(flips[c])
        width, rows = 256, []
        for b in range(DIM - 1, len(low) - 1, -1):
            cols = [c for c, col in enumerate(low) if col > order[b]]
            if not cols:  # a top pivot: its fold halves the table
                width >>= 1
            shifts = [1 << b]
            for _ in cols[1:]:
                shifts.append(width)
                width <<= 1
            doublings = tuple((s, 1 << c, masks[c]) for s, c in zip(shifts, cols))
            rows.append((1 << b, masks[b], doublings))
        quot, below = 1 << len(low), 1 << (pivots[0] if pivots else DIM)
        origins = _tiled(1, quot, width)
        targets = _tiled((1 << below) - 2, below, width)  # r with a bit below min S
        plan.append((perm, tuple(rows), quot, origins, targets))
    return tuple(sorted(plan, key=lambda entry: entry[4].bit_count()))


def _even_bits(entry, table: bytes) -> int:
    """The flats of one _quotient_plan entry that meet psi evenly, as bits.

    table is psi's byte table; one bytes.translate gathers psi in the
    entry's coordinate order, and the rows fold it into the packed T_H.
    """
    perm, rows, quot, origins, targets = entry
    t = int(perm.translate(table)[::-1].translate(_DIGITS), 2)
    for step, keep, doublings in rows:
        lo, hi = t & keep, t >> step & keep
        for shift, flip, flip_keep in doublings:
            hi |= ((hi & flip_keep) << flip | (hi >> flip) & flip_keep) << shift
            lo |= lo << shift
        t = lo ^ hi
    origin = t & origins  # T_H(0) per table; times 2^quot - 1, it fills the table
    return (t ^ (origin << quot) - origin) & targets ^ targets


def degree_by_incidence(psi: int) -> int:
    """Polynomial degree of an odd point set from incidence parities alone.

    Returns the minimal d such that every d-flat meets psi in an odd number
    of points.  The scans run upward from d = 0, so for d > 0 the scan of
    the (d-1)-flats has already found one meeting psi evenly: the witness
    that d is minimal.  This route never touches the coefficient algebra, so
    it can cross-check it.
    Each scan reads only the indicator of psi, through quotient tables: per
    entry of _quotient_plan, one packed table of T_H over the quotient
    columns per fill of the rows of H, whose every row 0 is tested as one
    bit mask (see _even_bits).  The plans and their masks are built on the
    first scan and cached, about 0.4 MB; a packed table is at most 16 KB.
    """
    _check_pointset(psi)
    if psi.bit_count() % 2 == 0:
        raise ValueError("incidence criterion requires an odd point count")
    table = _byte_table(psi)
    for d in range(8):
        if not any(_even_bits(entry, table) for entry in _quotient_plan(d + 1)):
            return d
    raise AssertionError("unreachable: the full space meets an odd set oddly")


def substitute(f: Anf, mat: GFMatrix) -> Anf:
    """The reduced polynomial g with g(x) = f(mat x) for all x.

    Byte x of mat's point table translated through f's byte table is
    f(mat x): g's truth table is one bytes.translate.  That the degree is
    preserved is a claim, checked by polys/degree-preserved.
    """
    (mat,) = _check_matrices((mat,))
    if not mat.is_invertible():
        raise ValueError("substitution requires an invertible matrix")
    values = mat.perm.translate(_byte_table(f.truth_table()))
    return Anf(mobius(int(values[::-1].translate(_DIGITS), 2)))


def monomial_orbit_poly(rep, group: MatrixGroup) -> Anf:
    """Sum of the monomials in the orbit of rep under coordinate permutations.

    rep is an iterable of distinct indices in 1..8; every generator of the
    group must be a permutation matrix.  Such a matrix maps the index set T,
    read as a vector, to the index set of the image monomial, so the orbit of
    the monomial is the point orbit of T.  polys/P-catalog checks each P by it.
    """
    start = Anf.monomial(rep).coeffs.bit_length() - 1
    perms = []
    for g in group.generators:
        if bytes(sorted(g.cols)) != _UNITS:  # the sorted columns of a permutation matrix
            raise ValueError("group contains a non-permutation matrix")
        perms.append(g.perm)
    return Anf(_mask_of(point_orbit(start, perms, bytearray(256))))


# ---------------------------------------------------------------------------
# The named invariant polynomials.  _P_EXPANSIONS is the P catalog, read by
# named_P_basis; every P is pinned in full.  That each pin is the cube-group
# orbit sum of its first term is a claim, checked by polys/P-catalog.


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
    "P3''": (
        "128", "138", "148", "158", "168", "178",
        "127", "237", "247", "257", "267", "278",
        "136", "236", "346", "356", "367", "368",
        "145", "245", "345", "456", "457", "458",
    ),
    "P4": ("1234", "1256", "1467", "2358", "3478", "5678"),
    "P4'": ("1278", "1368", "1458", "2367", "2457", "3456"),
    "P4''": ("1246", "1235", "1347", "1567", "2348", "2568", "3578", "4678"),
    "P4'''": ("1357", "2468"),
    "P4iv": (
        "1238", "1258", "1348", "1478", "1568", "1678",
        "1247", "1267", "2347", "2378", "2567", "2578",
        "1236", "1346", "2356", "3467", "3568", "3678",
        "1245", "1456", "2345", "3458", "4567", "4578",
    ),
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

@cache
def named_P_basis() -> dict[str, Anf]:
    """The fifteen cube-group-invariant monomial-orbit polynomials.

    One loop reads the _P_EXPANSIONS table, in its order: each P is the sum
    of its pinned terms, checked against its orbit sum by polys/P-catalog.
    """
    return {name: Anf.from_monomial_strings(terms) for name, terms in _P_EXPANSIONS.items()}


def invariant_subspace(generators, max_degree: int) -> list[Anf]:
    """Basis of the invariant polynomials of degree <= max_degree, no constant.

    Substitution by each generator acts linearly on the coefficient space of
    the monomials of size 1..max_degree, and the invariants are the kernel
    of the map sending x_T to image(x_T) + x_T under every generator.  The
    columns are truth tables, with no transform: the Moebius transform is
    invertible and acts on each generator's block alone, so it would not
    change the kernel.  The images under all generators come from one
    recurrence (_product_tables) over forms holding each generator's block
    side by side: the image of x_T is the product of the forms (A x)_i for
    i in T.  It has degree |T| and no constant term, so it stays solved for.

    Monomial T is variable T of gf2._kernel: its row, one XOR with the
    cached _tagged_monomial_tables, is its column above 256 tags plus its
    tag.  The rows enter highest degree first, highest monomial first
    within a degree, the order with the fewest row additions.  The column
    is mirrored, the cheapest bit order (the natural one takes more than
    twice the row additions): generator 0's 256-bit block is highest, and
    point x of a block sits at bit x ^ 255.  That block is the truth table
    of y -> image(x_T)(y + u) + x_T(y + u), u the unit point.  Bit j of
    y + u is 1 exactly where bit j of y is clear, so the mirrored
    coordinate tables are the _MOBIUS_MASKS, and the form (A(y + u))_i is
    the XOR of the masks j with a_ij = 1.  The basis lists the invariants
    by their highest monomial, ascending.
    """
    if not 1 <= max_degree <= 8:
        raise ValueError("degree must be between 1 and 8")
    generators = _check_matrices(generators)
    # lin[i]: truth table of y -> bit i of A(y + u), a sum of mirrored
    # coordinate tables, per generator above the tags, generator 0's highest
    lin = [0] * DIM
    for mat in generators:
        if not mat.is_invertible():
            raise ValueError("substitution requires an invertible matrix")
        for j, col in enumerate(mat.cols):
            for i in _set_bits(col):
                lin[i] ^= _MOBIUS_MASKS[j]
        lin = [form << 256 for form in lin]
    tagged = _tagged_monomial_tables(len(generators))
    tt = _product_tables(lin, tagged[0], max_degree)
    rows = [tt[t] ^ tagged[t] for t, _, _ in reversed(_STEPS[: _UP_TO[max_degree]])]
    return [Anf(x) for x in _kernel(rows, 256, 256 * len(generators) + 256)]


# ---------------------------------------------------------------------------
# The five named invariants in closed form.  That each matches its geometric
# route is a claim, checked by polys/Q-catalog and polys/Q2-geometric.

# closed forms as sums of P's, in catalog order
_Q_CLOSED_FORMS: dict[str, str] = {
    "Q2": "P2''",
    "Q4": "P2''+P3'+P4'''+P4v",
    "Q4'": "P2'+P3'+P3''+P4'",
    "Q6": "P2'+P2''+P3''+P4'+P4'''+P4v+P5+P6",
    "Q6'": "P5+P6",
}


def _sum_of(text: str, *catalogs: dict[str, Anf]) -> Anf:
    """The sum of the '+'-joined names in text, each from the first catalog holding it."""
    total = Anf.zero()
    for part in text.split("+"):
        part = part.strip()
        for catalog in catalogs:
            if part in catalog:
                total = total + catalog[part]
                break
        else:
            raise KeyError(f"unknown polynomial {part!r}")
    return total


@cache
def named_Q() -> dict[str, Anf]:
    """Q2, Q4, Q4', Q6, Q6', read from the _Q_CLOSED_FORMS table of P sums."""
    p = named_P_basis()
    return {name: _sum_of(text, p) for name, text in _Q_CLOSED_FORMS.items()}


def resolve_poly_name(name: str) -> Anf:
    """Look up a named invariant, allowing sums joined with '+'."""
    return _sum_of(name, named_Q(), named_P_basis())


# ---------------------------------------------------------------------------
# The symplectic form attached to the invariant quadric.


def symplectic_form(x: int, y: int) -> int:
    """The polar form of the invariant quadric: Q2(x+y) + Q2(x) + Q2(y).

    That it is alternating and nondegenerate is a claim of the paper, checked
    by polys/form/alternating and polys/form/rank.
    """
    q2 = named_Q()["Q2"]
    return q2.evaluate(x ^ y) ^ q2.evaluate(x) ^ q2.evaluate(y)
