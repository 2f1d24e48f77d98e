"""Bit-packed exact linear algebra over GF(2) in dimension 8.

Vectors of V(8,2) are plain ints in 0..255: bit i-1 holds the coordinate
x_i with respect to the fixed basis e_1..e_8.  Addition is XOR throughout,
and the 255 nonzero vectors double as the points of PG(7,2).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable

DIM = 8
UNIT = 0xFF  # the unit point u = e1 + ... + e8


class ConstructionError(RuntimeError):
    """An internal consistency check failed while building a model/catalog."""


def basis_vector(i: int) -> int:
    """e_i for i in 1..8."""
    if not 1 <= i <= DIM:
        raise ValueError(f"basis index out of range: {i}")
    return 1 << (i - 1)


def weight(v: int) -> int:
    """Number of basis vectors appearing in the expansion of v."""
    _check_vectors((v,))
    return v.bit_count()


# ---------------------------------------------------------------------------
# The 8-bit mask routines every module shares: point and vector checks, the
# set-bit walk, the mask of a set of positions, and permutation inverses.


def _check_point(p: int) -> None:
    if not 0 < p <= UNIT:
        raise ValueError(f"not a point: {p!r}")


def _check_vectors(vectors: Iterable[int]) -> tuple[int, ...]:
    """The vectors as a tuple, each checked to fit in 8 bits."""
    vectors = tuple(vectors)
    for v in vectors:
        if v < 0 or v >> DIM:
            raise ValueError(f"not an 8-bit vector: {v!r}")
    return vectors


def _set_bits(mask: int):
    """The positions of the set bits of a nonnegative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(positions: Iterable[int]) -> int:
    """The mask with exactly the given bit positions set."""
    mask = 0
    for p in positions:
        mask |= 1 << p
    return mask


def _digits(v: int) -> str:
    """The basis indices 1..8 of the bits of v, ascending, as one digit string."""
    return "".join(str(i + 1) for i in _set_bits(v))


_IDPERM = bytes(range(256))  # the point table of the identity
_UNITS = bytes(1 << j for j in range(DIM))  # e1..e8, the identity's column images
_COLUMNS_OF = itemgetter(*_UNITS)  # point table -> cols


def _invert_perm(p: bytes) -> bytes:
    # the table sending p[i] to i
    return bytes.maketrans(p, _IDPERM)


def point_orbit(start: int, perms, seen: bytearray) -> list[int]:
    """The orbit of start under the 256-byte point tables perms, breadth first.

    Marks every point of the orbit in seen, the caller's bytearray(256), so a
    loop over start points skips the ones an earlier orbit reached.
    """
    orbit = [start]
    seen[start] = 1
    for v in orbit:
        for g in perms:
            w = g[v]
            if not seen[w]:
                seen[w] = 1
                orbit.append(w)
    return orbit


def parse_point(text: str) -> int:
    """Parse shorthand such as "1", "246" or "18u" into a point.

    Digits 1-8 name basis vectors and 'u' names the all-ones vector; the
    result is their XOR.  Repeated symbols, and symbols cancelling to the
    zero vector (which is no point), are rejected.
    """
    if not text:
        raise ValueError("empty point string")
    v = 0
    seen = set()
    for ch in text:
        if ch in seen:
            raise ValueError(f"repeated symbol {ch!r} in point {text!r}")
        seen.add(ch)
        if ch == "u":
            v ^= UNIT
        elif "1" <= ch <= "8":
            v ^= 1 << (int(ch) - 1)
        else:
            raise ValueError(f"bad symbol {ch!r} in point {text!r}")
    if not v:
        raise ValueError(f"point {text!r} is the zero vector")
    return v


def format_point(v: int) -> str:
    """Shorthand for a point: plain digits up to weight 4, complement+'u' above."""
    _check_point(v)
    return _digits(v) if weight(v) <= 4 else _digits(v ^ UNIT) + "u"


def _echelon(vectors: Iterable[int], width: int) -> list[int]:
    """Forward elimination over GF(2): rows[p] is the row with pivot p, or 0.

    Each row's pivot is its highest set bit, read as its bit length, at
    most width, and no two rows share one.  Each incoming vector is brought
    to echelon form: while its highest bit is a pivot, that pivot's row is
    added.  A row may still carry lower pivots.  The pivot indexes a list,
    so a step costs O(1) and hashes no long row.
    """
    rows = [0] * (width + 1)
    for v in vectors:
        while v:
            p = v.bit_length()
            r = rows[p]
            if not r:
                rows[p] = v
                break
            v ^= r
    return rows


# _MIRROR[v] is v with its 8 bits in reverse order: bit i moves to bit 7 - i
_MIRROR = bytes(int(f"{v:08b}"[::-1], 2) for v in range(256))


def _rref(vectors: Iterable[int]) -> tuple[int, ...]:
    """Reduced row echelon form; pivots are lowest set bits, rows sorted by pivot.

    _kernel's canonical basis of the mirrored vectors, which carry no bits
    above its tags, mirrored back and taken in reverse.
    """
    rows = _kernel(bytes(_check_vectors(vectors)).translate(_MIRROR), DIM, DIM)
    return tuple(_MIRROR[r] for r in reversed(rows))


def _transpose(vectors, width: int) -> list[int]:
    """The width vectors whose bit i is bit j of vectors[i], for j in 0..width-1."""
    return [sum((v >> j & 1) << i for i, v in enumerate(vectors)) for j in range(width)]


def _xor_sums(rows) -> list[int]:
    """Entry c is the XOR of rows[i] over the bits i of c, built by doubling."""
    sums = [0]
    for r in rows:
        sums += [s ^ r for s in sums]
    return sums


# _BIT_BYTES[i] has byte v equal to bit i of v, read as a 2048-bit int
_BIT_BYTES = tuple(int.from_bytes(bytes(v >> i & 1 for v in range(256)), "little") for i in range(DIM))


def _point_table(cols) -> bytes:
    """The 256-byte point table of the column images cols, bytes(_xor_sums(cols)).

    Byte v of c * _BIT_BYTES[i] is c when bit i of v is set and 0 otherwise,
    with no carry since c is a byte, so the XOR of these over the columns is
    the table read as one int: eight small products instead of 255 list
    entries.
    """
    table = 0
    for c, bits in zip(cols, _BIT_BYTES):
        table ^= c * bits
    return table.to_bytes(256, "little")


class Flat:
    """A projective subspace of PG(7,2) in canonical reduced-echelon basis form.

    Two flats are equal iff they are the same subspace; _rref's canonical
    basis makes that a tuple comparison.
    """

    __slots__ = ("basis",)

    def __init__(self, vectors: Iterable[int] = ()):
        self.basis = _rref(vectors)

    @classmethod
    def _from_rref(cls, rows: tuple[int, ...]) -> "Flat":
        # trusted constructor: rows already in canonical reduced-echelon form
        flat = object.__new__(cls)
        flat.basis = rows
        return flat

    @classmethod
    def empty(cls) -> "Flat":
        return cls._from_rref(())

    @property
    def dim_projective(self) -> int:
        return len(self.basis) - 1

    def points(self) -> list[int]:
        """All nonzero vectors of the subspace, in deterministic order."""
        return _xor_sums(self.basis)[1:]

    def __contains__(self, v: int) -> bool:
        for r in self.basis:
            if v & (r & -r):
                v ^= r
        return v == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Flat) and self.basis == other.basis

    def __hash__(self) -> int:
        return hash(self.basis)

    def __repr__(self) -> str:
        inside = ", ".join(format_point(b) for b in self.basis)
        return f"Flat<{inside}>"


def span(points: Iterable[int]) -> Flat:
    """The flat generated by the given nonzero vectors."""
    pts = list(points)
    if not pts:
        raise ValueError("span of an empty point set")
    for p in pts:
        _check_point(p)
    return Flat(pts)


class GFMatrix:
    """An 8x8 matrix over GF(2): its column images plus its point permutation.

    cols[j] is the image of e_(j+1) and serves the linear algebra (rank,
    kernel, commutant).  perm is the 256-byte table with perm[v] == A v for
    every vector v, so applying the matrix is one index and (A*B)(v) ==
    A(B(v)) is one bytes.translate.  For an invertible matrix perm is the
    permutation of the 255 points of PG(7,2) (and fixes 0), and the inverse
    is the inverse permutation.
    """

    __slots__ = ("cols", "perm")

    def __init__(self, cols: Iterable[int]):
        cols = tuple(cols)
        if len(cols) != DIM or not all(isinstance(c, int) and 0 <= c <= UNIT for c in cols):
            raise ValueError("need 8 column vectors in 0..255")
        self.cols = cols
        self.perm = _point_table(cols)

    @classmethod
    def _from_perm(cls, perm: bytes) -> "GFMatrix":
        # trusted constructor: perm must be the point table of a linear map
        mat = object.__new__(cls)
        mat.cols = _COLUMNS_OF(perm)
        mat.perm = perm
        return mat

    @classmethod
    def identity(cls) -> "GFMatrix":
        return cls._from_perm(_IDPERM)

    @classmethod
    def from_cycles(cls, cycles: Iterable[tuple[int, ...]]) -> "GFMatrix":
        """Permutation matrix from disjoint cycles on basis indices 1..8.

        Cycles that share an index, and indices outside 1..8, raise ValueError.
        """
        images = list(_UNITS)
        moved = 0  # the basis vectors already given an image
        for cyc in cycles:
            cyc = tuple(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                bit = basis_vector(a)
                if moved & bit:
                    raise ValueError(f"cycles are not disjoint: index {a} repeats")
                moved |= bit
                images[a - 1] = basis_vector(b)
        return cls(images)

    @classmethod
    def from_rows(cls, rows: Iterable[int]) -> "GFMatrix":
        rows = tuple(rows)
        if len(rows) != DIM:
            raise ValueError("need 8 rows")
        return cls(_transpose(rows, DIM))

    def rows(self) -> tuple[int, ...]:
        return tuple(_transpose(self.cols, DIM))

    def __call__(self, v: int) -> int:
        if not 0 <= v <= UNIT:
            _check_vectors((v,))  # raises: v is no 8-bit vector
        return self.perm[v]

    def __mul__(self, other: "GFMatrix") -> "GFMatrix":
        return GFMatrix._from_perm(other.perm.translate(self.perm))

    def __xor__(self, other: "GFMatrix") -> "GFMatrix":
        """Entrywise sum over GF(2)."""
        return GFMatrix(tuple(a ^ b for a, b in zip(self.cols, other.cols)))

    def rank(self) -> int:
        return DIM + 1 - _echelon(self.cols, DIM).count(0)  # the nonzero entries

    def is_invertible(self) -> bool:
        """A linear map is invertible exactly when only 0 maps to 0."""
        return self.perm.count(0) == 1

    def inverse(self) -> "GFMatrix":
        if not self.is_invertible():
            raise ValueError("matrix is singular")
        return GFMatrix._from_perm(_invert_perm(self.perm))

    def order(self) -> int:
        if not self.is_invertible():
            raise ValueError("singular matrix has no order")
        ident = GFMatrix.identity()
        n, m = 1, self
        while m != ident:
            m = m * self
            n += 1
            if n > 256:  # element orders in GL(8,2) are at most 255
                raise ConstructionError("order computation did not terminate")
        return n

    # equality and hashing stay on cols: bytes hashes are salted per process,
    # and set semantics must not change
    def __eq__(self, other) -> bool:
        return isinstance(other, GFMatrix) and self.cols == other.cols

    def __hash__(self) -> int:
        return hash(self.cols)

    def __repr__(self) -> str:
        return f"GFMatrix({list(self.cols)!r})"


def _check_matrices(values: Iterable) -> tuple[GFMatrix, ...]:
    """The values as a tuple, each checked to be a GFMatrix."""
    values = tuple(values)
    for m in values:
        if not isinstance(m, GFMatrix):
            raise ValueError(f"not a matrix: {m!r}")
    return values


def _check_invertible(values: Iterable, message: str) -> tuple[GFMatrix, ...]:
    """The values as _check_matrices gives them; ValueError(message) if one is singular."""
    values = _check_matrices(values)
    if not all(m.is_invertible() for m in values):
        raise ValueError(message)
    return values


def _kernel(tagged: Iterable[int], nvars: int, width: int) -> list[int]:
    """The fully reduced rows whose pivot is a tag: a basis of the x whose
    columns (columns[j] for the bits j of x) XOR to 0.

    Each row of tagged is one variable j's column, shifted above every tag,
    plus a tag at bit j: columns[j] << nvars | 1 << j, at most width bits.
    A variable with no row is fixed at 0.  The rows enter one forward
    elimination (_echelon) in any order.  Its rows have distinct pivots and
    span the pairs (sum of x_j columns[j], x), so the rows whose pivot is a
    tag, the entries 1..nvars of its list, have no column bits and are a
    basis of the kernel.  One ascending pass then clears each of them of
    the lower tag pivots it carries: the rows below are already clear, so
    adding one clears its own pivot and sets no other.  The result is the
    unique basis whose rows have distinct highest bits and carry no other
    row's highest bit, by highest bit ascending, whatever the order of the
    rows.  Rows with no column bits (width == nvars) give the canonical
    basis of their span (_rref reads it).  Elimination takes the highest
    column bits first, so a caller orders its column bits, and its rows,
    by the work it wants.
    """
    rows = _echelon(tagged, width)
    pivots = 0
    for p in range(1, nvars + 1):
        r = rows[p]
        if r:
            m = r & pivots
            while m:
                q = m.bit_length()
                r ^= rows[q]
                m ^= 1 << q - 1
            rows[p] = r
            pivots |= 1 << p - 1
    return [r for r in rows[1 : nvars + 1] if r]


def kernel(mat: GFMatrix) -> Flat:
    """The flat of solutions of mat(x) = 0; the empty flat if only 0 solves."""
    return Flat(_kernel([c << DIM | 1 << j for j, c in enumerate(mat.cols)], DIM, 2 * DIM))
