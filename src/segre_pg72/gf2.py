"""Bit-packed exact linear algebra over GF(2) in dimension 8.

Vectors of V(8,2) are plain ints in 0..255: bit i-1 holds the coordinate
x_i with respect to the fixed basis e_1..e_8.  Addition is XOR throughout,
and the 255 nonzero vectors double as the points of PG(7,2).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

DIM = 8
UNIT = 0xFF  # the unit point u = e1 + ... + e8
POINTS = range(1, 256)


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


def _rref(vectors: Iterable[int]) -> tuple[int, ...]:
    """Reduced row echelon form; pivots are lowest set bits, rows sorted by pivot."""
    rows: dict[int, int] = {}
    for v in vectors:
        if not 0 <= v <= UNIT:
            raise ValueError(f"not an 8-bit vector: {v!r}")
        for p, r in rows.items():
            if v & p:
                v ^= r
        if v:
            low = v & -v
            for p in rows:
                if rows[p] & low:
                    rows[p] ^= v
            rows[low] = v
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
        # trusted constructor for enumeration hot paths
        flat = object.__new__(cls)
        flat.basis = rows
        return flat

    @classmethod
    def empty(cls) -> "Flat":
        return cls._from_rref(())

    @property
    def dim_projective(self) -> int:
        return len(self.basis) - 1

    @property
    def point_count(self) -> int:
        return (1 << len(self.basis)) - 1

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


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional GF(2) space."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= (1 << n - i) - 1
        den *= (1 << k - i) - 1
    return num // den


def _echelon_bases(k: int) -> Iterator[tuple[int, ...]]:
    """All canonical reduced-echelon bases of k-dim subspaces, lexicographically.

    Pivot columns run through ascending combinations; for a fixed pivot set
    the free entries are filled so that successive bases ascend in the lex
    order of their row tuples.
    """
    for pivots in combinations(range(DIM), k):
        pivot_set = set(pivots)
        # free slots: row i may use any non-pivot column above its own pivot
        slots = []
        for i, p in enumerate(pivots):
            for b in range(DIM - 1, p, -1):
                if b not in pivot_set:
                    slots.append((i, 1 << b))
        base_rows = tuple(1 << p for p in pivots)
        nslots = len(slots)
        if nslots == 0:
            yield base_rows
            continue
        top = 1 << (nslots - 1)
        for fill in range(1 << nslots):
            rows = list(base_rows)
            bit = top
            for i, mask in slots:
                if fill & bit:
                    rows[i] |= mask
                bit >>= 1
            yield tuple(rows)


def flats_of_dimension(d: int) -> Iterator[Flat]:
    """Every d-flat of PG(7,2) exactly once, in canonical enumeration order."""
    if not 0 <= d <= 7:
        raise ValueError(f"projective dimension out of range: {d}")
    for rows in _echelon_bases(d + 1):
        yield Flat._from_rref(rows)


class GFMatrix:
    """An 8x8 matrix over GF(2), stored as the images of the basis vectors.

    cols[j] is the image of e_(j+1); application is XOR of the columns
    selected by the argument's bits, so (A*B)(v) == A(B(v)).
    """

    __slots__ = ("cols",)

    def __init__(self, cols: Iterable[int]):
        cols = tuple(cols)
        if len(cols) != DIM or any(not 0 <= c <= UNIT for c in cols):
            raise ValueError("need 8 column vectors in 0..255")
        self.cols = cols

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
        r = 0
        cols = self.cols
        while v:
            low = v & -v
            r ^= cols[low.bit_length() - 1]
            v ^= low
        return r

    def __mul__(self, other: "GFMatrix") -> "GFMatrix":
        return GFMatrix(tuple(self(c) for c in other.cols))

    def __xor__(self, other: "GFMatrix") -> "GFMatrix":
        """Entrywise sum over GF(2)."""
        return GFMatrix(tuple(a ^ b for a, b in zip(self.cols, other.cols)))

    def rank(self) -> int:
        return len(_rref(self.cols))

    def is_invertible(self) -> bool:
        return self.rank() == DIM

    def inverse(self) -> "GFMatrix":
        # forward elimination over (image, preimage) pairs, then back-substitute
        pivots: dict[int, tuple[int, int]] = {}
        for j, img in enumerate(self.cols):
            pre = 1 << j
            while img:
                low = img & -img
                if low in pivots:
                    pi, pp = pivots[low]
                    img ^= pi
                    pre ^= pp
                else:
                    pivots[low] = (img, pre)
                    break
            else:
                raise ValueError("matrix is singular")
        for low in sorted(pivots, reverse=True):
            img, pre = pivots[low]
            while img ^ low:
                l2 = (img ^ low) & -(img ^ low)
                i2, p2 = pivots[l2]
                img ^= i2
                pre ^= p2
            pivots[low] = (img, pre)
        return GFMatrix(tuple(pivots[1 << i][1] for i in range(DIM)))

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

    def __eq__(self, other) -> bool:
        return isinstance(other, GFMatrix) and self.cols == other.cols

    def __hash__(self) -> int:
        return hash(self.cols)

    def __repr__(self) -> str:
        return f"GFMatrix({list(self.cols)!r})"


def kernel(mat: GFMatrix) -> Flat:
    """The flat of solutions of mat(x) = 0; the empty flat if only 0 solves."""
    pivots: dict[int, tuple[int, int]] = {}
    kern = []
    for j, img in enumerate(mat.cols):
        pre = 1 << j
        while img:
            low = img & -img
            if low in pivots:
                pi, pp = pivots[low]
                img ^= pi
                pre ^= pp
            else:
                pivots[low] = (img, pre)
                break
        if img == 0:
            kern.append(pre)
    return Flat(kern) if kern else Flat.empty()


def nullspace(rows: list[int], nvars: int) -> list[int]:
    """Basis of {x : every row has even overlap with x}, as bit masks.

    Rows are parity-check constraints over nvars bit positions; the basis is
    returned in ascending free-variable order, so the output is deterministic.
    """
    pivots: dict[int, int] = {}
    for r in rows:
        for p, q in pivots.items():
            if r & p:
                r ^= q
        if r:
            low = r & -r
            for p in pivots:
                if pivots[p] & low:
                    pivots[p] ^= r
            pivots[low] = r
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
