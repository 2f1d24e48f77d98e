"""Output checks that share no code with the package under test.

The batch workloads are checked with this module's own GF(2) arithmetic
(matrix application, Moebius transform, rank), so a fast wrong answer from
the package cannot also corrupt its own check, and the checks add no calls
to the counts of a traced run.  The cold CLI workload is checked against the
byte-exact reference outputs in ``reference/``.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

FULL = (1 << 256) - 1

# group orders every generated generator set must divide (Lagrange)
ORDER_GS = 1296
ORDER_GS_K = 348_364_800
ORDER_GS_KP = 174_182_400

_MOBIUS_MASKS = []
for _i in range(8):
    _step = 1 << _i
    _mask = 0
    for _pos in range(0, 256, 2 * _step):
        _mask |= ((1 << _step) - 1) << _pos
    _MOBIUS_MASKS.append(_mask)

# BY_SIZE[d] has bit T set exactly when the monomial mask T has d variables
BY_SIZE = [0] * 9
for _t in range(256):
    BY_SIZE[_t.bit_count()] |= 1 << _t


def mobius(bits: int) -> int:
    """Binary Moebius transform: coefficients <-> truth table, an involution."""
    for i, m in enumerate(_MOBIUS_MASKS):
        bits ^= (bits & m) << (1 << i)
    return bits


def degree(coeffs: int) -> int:
    for d in range(8, 0, -1):
        if coeffs & BY_SIZE[d]:
            return d
    return 0


def apply(cols: tuple[int, ...], v: int) -> int:
    """Image of the vector v under the matrix with columns ``cols``."""
    r = 0
    for j in range(8):
        if v >> j & 1:
            r ^= cols[j]
    return r


def image_table(cols: tuple[int, ...]) -> tuple[int, ...]:
    """Images of all 256 vectors under the matrix with columns ``cols``."""
    table = [0] * 256
    for v in range(1, 256):
        low = v & -v
        table[v] = table[v ^ low] ^ cols[low.bit_length() - 1]
    return tuple(table)


def group_order(gens_cols) -> int:
    """Order of the group the matrices generate, by listing its elements.

    An element is its tuple of columns; left-multiplying by a generator maps
    each column through the generator's image table.  Meant for subgroups of
    <M,N>, which have at most 1296 elements.
    """
    tables = [image_table(c) for c in gens_cols]
    identity = tuple(1 << j for j in range(8))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for cols in frontier:
            for table in tables:
                image = tuple(table[c] for c in cols)
                if image not in seen:
                    seen.add(image)
                    new.append(image)
        frontier = new
    return len(seen)


def rank(vectors) -> int:
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of GF(2)^n."""
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (k - i)) - 1
    return num // den


def orbits(items, images) -> list[frozenset]:
    """Orbits on ``items`` of the group whose generators send x to ``images(x)``."""
    seen: set = set()
    out = []
    for x in items:
        if x in seen:
            continue
        orbit = {x}
        stack = [x]
        while stack:
            for y in images(stack.pop()):
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        seen |= orbit
        out.append(frozenset(orbit))
    return out


def point_orbits(gens_cols) -> list[frozenset[int]]:
    return orbits(range(1, 256), lambda v: (apply(c, v) for c in gens_cols))


def invariant_dimension(gens_cols, max_degree: int) -> int:
    """Dimension of the invariants of degree <= max_degree with no constant.

    A function is invariant exactly when its truth table is constant on the
    orbits, and it has no constant term exactly when it vanishes at 0, so the
    space is spanned by the indicators of the nonzero orbits; the degree bound
    cuts out the kernel of their coefficient parts above max_degree.
    """
    high = 0
    for d in range(max_degree + 1, 9):
        high |= BY_SIZE[d]
    tops = []
    for orbit in point_orbits(gens_cols):
        table = 0
        for p in orbit:
            table |= 1 << p
        tops.append(mobius(table) & high)
    return len(tops) - rank(tops)


def substituted_correctly(f: int, g: int, cols) -> bool:
    """True when g(x) == f(mat x) for every x, mat given by its columns."""
    tf, tg = mobius(f), mobius(g)
    return all((tg >> x & 1) == (tf >> apply(cols, x) & 1) for x in range(256))


def format_point(v: int) -> str:
    """Point shorthand: digits name basis vectors, 'u' the all-ones vector."""
    if v.bit_count() > 4:
        return "".join(str(i + 1) for i in range(8) if not v >> i & 1) + "u"
    return "".join(str(i + 1) for i in range(8) if v >> i & 1)


def load_reference(name: str) -> bytes:
    return (REFERENCE_DIR / name).read_bytes()


def load_reference_json(name: str):
    return json.loads(load_reference(name))
