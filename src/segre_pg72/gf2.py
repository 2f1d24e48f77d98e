"""Bit-packed exact linear algebra over GF(2) in dimension 8.

Vectors of V(8,2) are plain ints in 0..255: bit i-1 holds the coordinate
x_i with respect to the fixed basis e_1..e_8.  Addition is XOR throughout,
and the 255 nonzero vectors double as the points of PG(7,2).
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from operator import itemgetter
from typing import Iterable

DIM = 8
UNIT = 0xFF  # the unit point u = e1 + ... + e8
POINTS = range(1, 256)
_COLUMNS_OF = itemgetter(*(1 << j for j in range(DIM)))  # point table -> cols


class ConstructionError(RuntimeError):
    """An internal consistency check failed while building a model/catalog."""


def basis_vector(i: int) -> int:
    """e_i for i in 1..8."""
    if not 1 <= i <= DIM:
        raise ValueError(f"basis index out of range: {i}")
    return 1 << (i - 1)


def weight(v: int) -> int:
    """Number of basis vectors appearing in the expansion of v."""
    return v.bit_count()


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
    if not 0 < v <= UNIT:
        raise ValueError(f"not a point of PG(7,2): {v!r}")
    if weight(v) <= 4:
        return "".join(str(i) for i in range(1, 9) if v >> (i - 1) & 1)
    c = v ^ UNIT
    return "".join(str(i) for i in range(1, 9) if c >> (i - 1) & 1) + "u"


def _reduce(vectors: Iterable[int]) -> dict[int, int]:
    """Gauss-Jordan elimination over GF(2): {pivot: row}, fully reduced.

    Each row's pivot is its lowest set bit, and no other row has that bit.
    Each incoming vector is first brought to echelon form: while its lowest
    bit is a pivot, that pivot's row is added.  One back-substitution pass
    over the pivots in descending order then clears, from each row, only the
    higher pivot bits it carries; those rows are already fully reduced.  The
    fully reduced form of a row space is unique, so any Gauss-Jordan route
    gives the same rows.
    """
    rows: dict[int, int] = {}
    for v in vectors:
        while v:
            low = v & -v
            r = rows.get(low)
            if r is None:
                rows[low] = v
                break
            v ^= r
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


def _rref(vectors: Iterable[int]) -> tuple[int, ...]:
    """Reduced row echelon form; pivots are lowest set bits, rows sorted by pivot."""
    vectors = tuple(vectors)
    for v in vectors:
        if not 0 <= v <= UNIT:
            raise ValueError(f"not an 8-bit vector: {v!r}")
    rows = _reduce(vectors)
    return tuple(rows[p] for p in sorted(rows))


class Flat:
    """A projective subspace of PG(7,2) in canonical reduced-echelon basis form.

    Two flats are equal iff they are the same subspace; the canonical basis
    makes that a tuple comparison.
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
        pts = [0]
        for b in self.basis:
            pts += [p ^ b for p in pts]
        return pts[1:]

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
    if any(not 0 < p <= UNIT for p in pts):
        raise ValueError("span requires nonzero 8-bit vectors")
    return Flat(pts)


@cache
def _echelon_layouts(k: int) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...]], ...]:
    """The reduced-echelon layouts of k-dim subspaces, pivot sets ascending.

    A layout is (base_rows, slots): base_rows[i] is the unit vector of row i's
    pivot, and each free slot (i, b) lets row i carry column b, a non-pivot
    column above its own pivot.  Slots are listed row by row, columns
    descending, so filling them as the bits of a counter (first slot highest)
    ascends in the lex order of the row tuples.
    """
    layouts = []
    for pivots in combinations(range(DIM), k):
        slots = tuple(
            (i, b)
            for i, p in enumerate(pivots)
            for b in range(DIM - 1, p, -1)
            if b not in pivots
        )
        layouts.append((tuple(1 << p for p in pivots), slots))
    return tuple(layouts)


class GFMatrix:
    """An 8x8 matrix over GF(2): its column images plus its point permutation.

    cols[j] is the image of e_(j+1) and serves the linear algebra (rank,
    inverse, kernel, commutant).  perm is the 256-byte table with
    perm[v] == A v for every vector v, so applying the matrix is one index and
    (A*B)(v) == A(B(v)) is one bytes.translate.  For an invertible matrix perm
    is the permutation of the 255 points of PG(7,2) (and fixes 0).
    """

    __slots__ = ("cols", "perm")

    def __init__(self, cols: Iterable[int]):
        cols = tuple(cols)
        if len(cols) != DIM or any(not 0 <= c <= UNIT for c in cols):
            raise ValueError("need 8 column vectors in 0..255")
        self.cols = cols
        images = [0]
        for c in cols:
            images += [x ^ c for x in images]
        self.perm = bytes(images)

    @classmethod
    def _from_perm(cls, perm: bytes) -> "GFMatrix":
        # trusted constructor: perm must be the point table of a linear map
        mat = object.__new__(cls)
        mat.cols = _COLUMNS_OF(perm)
        mat.perm = perm
        return mat

    @classmethod
    def identity(cls) -> "GFMatrix":
        return cls(tuple(1 << j for j in range(DIM)))

    @classmethod
    def from_cycles(cls, cycles: Iterable[tuple[int, ...]]) -> "GFMatrix":
        """Permutation matrix from disjoint cycles on basis indices 1..8."""
        images = [1 << j for j in range(DIM)]
        for cyc in cycles:
            cyc = tuple(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = basis_vector(b)
        return cls(images)

    @classmethod
    def from_rows(cls, rows: Iterable[int]) -> "GFMatrix":
        rows = tuple(rows)
        if len(rows) != DIM:
            raise ValueError("need 8 rows")
        return cls(
            tuple(
                sum(((rows[i] >> j) & 1) << i for i in range(DIM))
                for j in range(DIM)
            )
        )

    def rows(self) -> tuple[int, ...]:
        return tuple(
            sum(((self.cols[j] >> i) & 1) << j for j in range(DIM))
            for i in range(DIM)
        )

    def __call__(self, v: int) -> int:
        return self.perm[v]

    def __mul__(self, other: "GFMatrix") -> "GFMatrix":
        return GFMatrix._from_perm(other.perm.translate(self.perm))

    def __xor__(self, other: "GFMatrix") -> "GFMatrix":
        """Entrywise sum over GF(2)."""
        return GFMatrix(tuple(a ^ b for a, b in zip(self.cols, other.cols)))

    def rank(self) -> int:
        return len(_rref(self.cols))

    def is_invertible(self) -> bool:
        return self.rank() == DIM

    def inverse(self) -> "GFMatrix":
        # reduce the (image, preimage) pairs; the row with pivot e_i then
        # carries the preimage of e_i in its high byte
        rows = _reduce(c | 1 << (j + DIM) for j, c in enumerate(self.cols))
        if any(p > UNIT for p in rows):
            raise ValueError("matrix is singular")
        return GFMatrix(tuple(rows[1 << i] >> DIM for i in range(DIM)))

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

    def __pow__(self, n: int) -> "GFMatrix":
        if n < 0:
            return self.inverse() ** (-n)
        result = GFMatrix.identity()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # equality and hashing stay on cols: bytes hashes are salted per process,
    # and set semantics must not change
    def __eq__(self, other) -> bool:
        return isinstance(other, GFMatrix) and self.cols == other.cols

    def __hash__(self) -> int:
        return hash(self.cols)

    def __repr__(self) -> str:
        return f"GFMatrix({list(self.cols)!r})"


def kernel(mat: GFMatrix) -> Flat:
    """The flat of solutions of mat(x) = 0; the empty flat if only 0 solves."""
    return Flat(nullspace(list(mat.rows()), DIM))


def nullspace(rows: list[int], nvars: int) -> list[int]:
    """Basis of {x : every row has even overlap with x}, as bit masks.

    Rows are parity-check constraints over nvars bit positions; the basis is
    returned in ascending free-variable order, so the output is deterministic.
    """
    pivots = _reduce(rows)
    basis = []
    for j in range(nvars):
        bj = 1 << j
        if bj in pivots:
            continue
        x = bj
        for p, r in pivots.items():
            if r >> j & 1:
                x |= p
        basis.append(x)
    return basis


def orthogonal_complement(vectors: Iterable[int]) -> tuple[int, ...]:
    """All-independent dual forms with even overlap against every input vector."""
    return tuple(nullspace(list(vectors), DIM))
