"""The verification checks: one ordered registry and one runner.

Registering a check computes nothing: an entry holds a callable that a
``Run`` evaluates to an ``(expected, actual)`` pair, and the runner turns an
exception into a FAIL that carries it.  Computations go through the module
namespaces (``groups.closure``, not a name imported from ``groups``) so that
wrappers installed on those modules, such as the layer tracer in
``bench/spans.py``, see every call.
"""

from __future__ import annotations

import random
from functools import partial, reduce
from itertools import combinations
from operator import or_
from typing import Callable, Iterable, NamedTuple

from . import SUITES, anf, groups, orbits, segre
from .gf2 import ConstructionError, Flat, GFMatrix, UNIT, _xor_sums, format_point, parse_point, weight

RAISED_EXPECTED = "no exception"  # the expected value reported for a check that raised


class Check(NamedTuple):
    id: str
    suite: str
    description: str
    compute: Callable[["Run"], tuple[object, object]]


class Result(NamedTuple):
    id: str
    description: str
    expected: str
    actual: str
    passed: bool


REGISTRY: dict[str, Check] = {}


def check(cid: str, description: str, compute: Callable[["Run"], tuple] | None = None):
    """Register ``compute(run) -> (expected, actual)`` as the check ``cid``,
    in the suite named by the id's first segment.  Without ``compute``,
    return a decorator that registers the function it decorates."""
    suite = cid.split("/", 1)[0]
    if suite not in SUITES or cid in REGISTRY:
        raise ValueError(f"bad or duplicate check id {cid!r}")
    if compute is None:
        return partial(check, cid, description)
    REGISTRY[cid] = Check(cid, suite, description, compute)
    return compute


class Run:
    """One verification run: its options, its seeded generator (consumed by
    the seeded checks in registry order) and the intermediates its checks
    share, each computed at most once.  Nothing is kept between runs."""

    def __init__(self, seed: int = 0, cap: int = groups.DEFAULT_CAP):
        self.cap = cap
        self.rng = random.Random(seed)
        self._shared: dict = {}

    def shared(self, fn, *args):
        """``fn(*args)``, computed at most once in this run."""
        key = (fn, args)
        if key not in self._shared:
            self._shared[key] = fn(*args)
        return self._shared[key]

    def check(self, entry: Check) -> Result:
        try:
            expected, actual = entry.compute(self)
        except Exception as exc:
            actual = f"raised {type(exc).__name__}: {exc}"
            return Result(entry.id, entry.description, RAISED_EXPECTED, actual, False)
        return Result(entry.id, entry.description, str(expected), str(actual), expected == actual)

    def suite(self, name: str) -> list[Result]:
        return [self.check(c) for c in REGISTRY.values() if c.suite == name]

    def ids(self, ids: Iterable[str]) -> list[Result]:
        return [self.check(REGISTRY[cid]) for cid in ids]


def _w() -> GFMatrix:
    return groups.element("W")


def _points(shorthand: str) -> list[int]:
    return [parse_point(s) for s in shorthand.split()]


# ---------------------------------------------------------------------------
# groups


def _chain_order(label: str, size: int):
    return lambda run: (size, groups.schreier_sims(groups.elements(label)))


for _label, _size in (("M,N", 1296), ("M',N", 648), ("M,K12", 48)):
    check(f"groups/closure/{_label}", f"|<{_label}>| by closure",
          lambda run, label=_label, size=_size: (
              size, len(groups.closure(groups.elements(label), cap=run.cap))))
    check(f"groups/chain/{_label}", f"|<{_label}>| by stabilizer chain", _chain_order(_label, _size))
check("groups/chain/M,N,K", "|<M,N,K>|", _chain_order("M,N,K", 348_364_800))
check("groups/chain/M,N,K'", "|<M,N,K'>|", _chain_order("M,N,K'", 174_182_400))
# the order of every named element but W, whose order groups/W/order checks
_EXPECTED_ORDERS = {
    "J": 2, "Jx": 2, "Jy": 2, "Jz": 2, "K12": 2, "K13": 2, "K23": 2,
    "K": 2, "K'": 2, "B": 3, "Ax": 3, "Ay": 3, "Az": 3,
    "C": 4, "M": 6, "N": 6,
}


@check("groups/catalog", "named catalog validates")
def _(run):
    # a slipped entry raises, naming itself
    catalog = groups.named_elements()
    for name, row in groups._VALIDATION.items():
        for i, (col, img) in enumerate(zip(catalog[name].cols, map(parse_point, row.split())), 1):
            if col != img:
                raise ConstructionError(f"{name} maps e{i} to {col}, expected {img}")
    for name, mat in catalog.items():
        if not mat.is_invertible():
            raise ConstructionError(f"{name} is singular")
        if name in _EXPECTED_ORDERS and mat.order() != _EXPECTED_ORDERS[name]:
            raise ConstructionError(f"{name} has wrong order")
    return 18, len(catalog)


check("groups/J-product", "Jx*Jy*Jz equals J", lambda run: (
    True, groups.element("Jx") * groups.element("Jy") * groups.element("Jz") == groups.element("J")))
check("groups/commutant/dim", "commutant dimension of <M',N>",
      lambda run: (2, len(groups.commutant_basis(groups.elements("M',N")))))
check("groups/centralizer", "invertible commutant elements", lambda run: (
    sorted(x.cols for x in (GFMatrix.identity(), _w(), _w() * _w())),
    sorted(x.cols for x in groups.centralizer_in_gl(groups.elements("M',N")).elements)))
check("groups/W/images", "W basis images",
      lambda run: (tuple(_points("246 1235 248 1347 268 1567 468 3578")), _w().cols))
check("groups/W/order", "W cubes to identity", lambda run: (GFMatrix.identity(), _w() * _w() * _w()))
check("groups/W/minpoly", "W^2 + W + I vanishes",
      lambda run: (GFMatrix([0] * 8), (_w() * _w()) ^ _w() ^ GFMatrix.identity()))
check("groups/W/fix", "W is fixed-point-free", lambda run: (Flat.empty(), groups.fix_subspace(_w())))
check("groups/W/conj-J", "J conjugates W to W^2",
      lambda run: (_w() * _w(), groups.element("J") * _w() * groups.element("J").inverse()))


@check("groups/W/normalized", "conjugates of W stay in {W, W^2} across the group")
def _(run):
    w = _w()
    return True, all(a * w * a.inverse() in (w, w * w) for a in groups.segre_group().elements)


check("groups/parity/in", "paired involutions lie in the even subgroup", lambda run: (
    True, all(a * b in groups.segre_group_even()
              for a, b in combinations(groups.elements("Jx,Jy,Jz"), 2))))
check("groups/parity/out", "J lies outside the even subgroup",
      lambda run: (False, groups.element("J") in groups.segre_group_even()))
for _a, _b, _fixed in (("Jx", "Jy", "13 24 57 68"), ("Jx", "Jz", "15 26 37 48")):
    check(f"groups/fix/{_a}{_b}", f"fixed flat of {_a}*{_b}", lambda run, a=_a, b=_b, fixed=_fixed: (
        Flat(_points(fixed)), groups.fix_subspace(groups.element(a) * groups.element(b))))


def _stabilizer_of_u(run: Run) -> groups.MatrixGroup:
    return run.shared(groups.stabilizer_of_point, groups.segre_group(), UNIT)


def _diagonal_action(stab: groups.MatrixGroup) -> tuple[set, set]:
    """Permutations of the four main diagonals induced by the stabilizer of
    u, and the elements inducing the identity permutation."""
    diagonals = [frozenset((1, 128)), frozenset((2, 64)), frozenset((4, 32)), frozenset((8, 16))]
    perms = set()
    kernel_elems = set()
    for mat in stab.elements:
        perm = tuple(diagonals.index(frozenset(map(mat, d))) for d in diagonals)
        perms.add(perm)
        if perm == (0, 1, 2, 3):
            kernel_elems.add(mat)
    return perms, kernel_elems


check("groups/stabilizer-u", "stabilizer of the unit point is the cube group", lambda run: (
    sorted(x.cols for x in groups.cube_group().elements),
    sorted(x.cols for x in _stabilizer_of_u(run).elements)))
check("groups/diagonal-action/image", "diagonal action hits all of Sym(4)",
      lambda run: (24, len(run.shared(_diagonal_action, _stabilizer_of_u(run))[0])))
check("groups/diagonal-action/kernel", "kernel of the diagonal action", lambda run: (
    {GFMatrix.identity().cols, groups.element("J").cols},
    {x.cols for x in run.shared(_diagonal_action, _stabilizer_of_u(run))[1]}))


# ---------------------------------------------------------------------------
# spread


def _line_split(run: Run) -> tuple[tuple[frozenset[int], ...], ...]:
    return run.shared(orbits.line_orbit_split, orbits.spread_from_w(), groups.segre_group())


def _lines_of_size(run: Run, size: int) -> set[frozenset[int]]:
    return {len(c): set(c) for c in _line_split(run)}[size]


def _tetrad_cycled(c: GFMatrix) -> bool:
    lines = orbits.TETRAD_LINES
    return all(frozenset(c(p) for p in a) == b for a, b in zip(lines, lines[1:] + lines[:1]))


check("spread/count", "spread has 85 lines", lambda run: (85, len(orbits.spread_from_w().lines)))
check("spread/cover", "lines partition the 255 points",
      lambda run: (255, len(set().union(*orbits.spread_from_w().lines))))
check("spread/lines", "every class is a projective line", lambda run: (True, all(
    (lambda t: t[0] ^ t[1] == t[2])(sorted(line)) for line in orbits.spread_from_w().lines)))
check("spread/orbit-sizes", "line-orbit sizes",
      lambda run: ([4, 18, 27, 36], sorted(len(c) for c in _line_split(run))))
for _size, _labels in ((4, ("O1",)), (18, ("O2",)), (36, ("O3",)), (27, ("O4", "O5"))):
    check(f"spread/L{_size}", f"{_size}-line class underlies {' and '.join(_labels)}",
          lambda run, size=_size, labels=_labels: (
              set(reduce(or_, (orbits.definitional_orbits()[label] for label in labels))),
              set().union(*_lines_of_size(run, size))))
check("spread/tetrad", "4-line class is the frozen tetrad",
      lambda run: (set(orbits.TETRAD_LINES), _lines_of_size(run, 4)))
check("spread/tangents", "27-line class is the tangent family",
      lambda run: (set(segre.build_model().tangents.values()), _lines_of_size(run, 27)))
check("spread/C-cycle", "C cycles the tetrad lines",
      lambda run: (True, _tetrad_cycled(groups.element("C"))))
check("spread/W-on-O2", "W(e1+e3)", lambda run: (format_point(32 ^ 128), format_point(_w()(1 ^ 4))))
check("spread/W-on-O3", "W(e1+e8)", lambda run: (format_point(1 ^ UNIT), format_point(_w()(1 ^ 128))))


# ---------------------------------------------------------------------------
# orbits


def _partition(run: Run, group: Callable[[], groups.MatrixGroup]) -> orbits.OrbitPartition:
    return run.shared(orbits.point_orbits, group())


def _translates() -> tuple[frozenset[int], frozenset[int]]:
    return orbits.segre_triplet()[1:]


def _o1_externals() -> list[int]:
    """Third points of the O1 bisecants that are not tetrad lines."""
    o1 = sorted(orbits.definitional_orbits()["O1"])
    tetrad = set(orbits.TETRAD_LINES)
    return [a ^ b for a, b in combinations(o1, 2) if frozenset((a, b, a ^ b)) not in tetrad]


check("orbits/sizes", "point-orbit sizes of the full group",
      lambda run: ([12, 27, 54, 54, 108], sorted(_partition(run, groups.segre_group).sizes())))


@check("orbits/classifier", "definitional classifier matches the group orbits")
def _(run):
    orbs = orbits.definitional_orbits()
    classify = orbits.classify_point
    return True, all(
        {classify(p) for p in cls.points} == {classify(cls.rep)}
        and set(cls.points) == set(orbs[classify(cls.rep)])
        for cls in _partition(run, groups.segre_group).classes)


check("orbits/even-count", "even subgroup has six orbits",
      lambda run: (6, len(_partition(run, groups.segre_group_even).classes)))


@check("orbits/even-classes", "even-subgroup orbits are O1, O2, O3 and the triplet")
def _(run):
    orbs = orbits.definitional_orbits()
    expected_even = {orbs["O1"], orbs["O2"], orbs["O3"], *orbits.segre_triplet()}
    classes = _partition(run, groups.segre_group_even).classes
    return True, {frozenset(c.points) for c in classes} == expected_even


check("orbits/triplet-disjoint", "translate copies are disjoint",
      lambda run: (0, len(_translates()[0] & _translates()[1])))
check("orbits/triplet-union", "translates cover the tangent-exterior class",
      lambda run: (set(orbits.definitional_orbits()["O4"]), _translates()[0] | _translates()[1]))


@check("orbits/parity-split", "weight/parity decomposition of the translates")
def _(run):
    s1, s2 = _translates()
    first_parity = {3: "even", 4: "odd", 5: "odd", 6: "even"}
    parity = orbits.parity_class
    return True, all(parity(p) == first_parity[weight(p)] for p in s1) and all(
        parity(p) != first_parity[weight(p)] for p in s2)


@check("orbits/5-flat-incidence", "per-class membership counts in the four 5-flats")
def _(run):
    flats = orbits.tetrad_five_flats().values()
    counts = {"O1": 3, "O2": 2, "O3": 1, "O4": 0, "O5": 0}
    return True, all(
        sum(1 for fl in flats if p in fl) == counts[orbits.classify_point(p)] for p in range(1, 256))


@check("orbits/81-points", "points avoiding every 5-flat")
def _(run):
    orbs = orbits.definitional_orbits()
    flats = orbits.tetrad_five_flats().values()
    outside = {p for p in range(1, 256) if all(p not in fl for fl in flats)}
    return set(orbs["O4"] | orbs["O5"]), outside


check("orbits/O1-bisecants", "O1 has 54 bisecants", lambda run: (54, len(run.shared(_o1_externals))))
check("orbits/O1-externals", "bisecant external points lie in O2", lambda run: (
    True, set(run.shared(_o1_externals)) <= set(orbits.definitional_orbits()["O2"])))


@check("orbits/model-counts", "variety model family sizes")
def _(run):
    m = segre.build_model()
    families = (m.points, m.generators, m.sub_segres, m.ambient_flats, m.z_flats, m.tangents)
    return (27, 27, 9, 9, 27, 27), tuple(len(family) for family in families)


check("orbits/tangent-examples", "frozen tangent lines through e1, e8, u", lambda run: (True, all(
    segre.build_model().tangents[p] == frozenset(_points(line))
    for p, line in ((1, "1 246 1246"), (128, "8 8357 357"), (UNIT, "u 1357 2468")))))


# ---------------------------------------------------------------------------
# table1


def _census_rows(gs_label: str, run: Run):
    # a row whose orbit has another size or weight, or lies in another
    # class, raises, naming itself
    partition = _partition(run, groups.cube_group)
    for row_label, w, size, rep, label in orbits.CUBE_ORBIT_CENSUS:
        if row_label != gs_label:
            continue
        rep_pt = parse_point(rep)
        cls = partition.class_of(rep_pt)
        if cls.size != size or any(weight(p) != w for p in cls.points):
            raise ConstructionError(f"census row {label} does not match the orbit")
        if orbits.classify_point(rep_pt) != gs_label:
            raise ConstructionError(f"census row {label} sits in the wrong class")
    return True, True


check("table1/count", "cube-group orbit count matches the census", lambda run: (
    len(orbits.CUBE_ORBIT_CENSUS), len(_partition(run, groups.cube_group).classes)))
check("table1/coverage", "census labels cover all points",
      lambda run: (255, len(orbits.cube_orbit_labels())))
for _gs_label in ("O1", "O2", "O3", "O4", "O5"):
    check(f"table1/{_gs_label}", f"census rows for {_gs_label} (weight, size, representative)",
          partial(_census_rows, _gs_label))


# ---------------------------------------------------------------------------
# polys


def _zero_set_mask(labels: str) -> int:
    return orbits.orbit_mask(orbits.definitional_orbits(), *labels.split())


def _class_values(name: str, values: tuple[int, ...], run: Run):
    """The invariant's value on each class O1..O5, or "mixed" where it is
    not constant on the class."""
    poly = anf.resolve_poly_name(name)
    actual = []
    for points in (orbits.definitional_orbits()[f"O{i}"] for i in range(1, 6)):
        seen = {poly.evaluate(p) for p in points}
        actual.append(seen.pop() if len(seen) == 1 else "mixed")
    return values, tuple(actual)


def _invariants(run: Run, label: str, degree: int) -> list[anf.Anf]:
    return run.shared(anf.invariant_subspace, groups.elements(label), degree)


def _span(basis: list[anf.Anf]) -> set[int]:
    """Coefficient masks of every sum of basis elements, 0 included."""
    return set(_xor_sums(b.coeffs for b in basis))


def _invariants_below_8(run: Run) -> set[int]:
    members = _span(_invariants(run, "M,N", 7))
    members.discard(0)  # in place: the census reports in this set's order
    return members


@check("polys/P-catalog", "fifteen orbit-sum polynomials validate")
def _(run):
    # each P against the orbit sum of its first term; one that differs raises
    p, group = anf.named_P_basis(), groups.cube_group()
    for name, terms in anf._P_EXPANSIONS.items():
        if p[name] != anf.monomial_orbit_poly(tuple(map(int, terms[0])), group):
            raise ConstructionError(f"{name} disagrees with its known expansion")
    return 15, len(p)


def _flat_sum(flats) -> anf.Anf:
    """The sum of the equations of the flats."""
    return sum((anf.flat_equation(flat) for flat in flats), anf.Anf.zero())


@check("polys/Q-catalog", "five invariants built two ways")
def _(run):
    # Q4, Q4' and Q6 against sums of the point-set equations of flats (the
    # nine ambient 3-flats, the six tetrad 3-flats and the nine generators
    # varying slot 3), and Q6' against its zero set; Q2's point-set route is
    # polys/Q2-geometric.  A Q that disagrees raises, naming itself.
    q = anf.named_Q()
    model = segre.build_model()
    geometric = {
        "Q4": _flat_sum(model.ambient_flats.values()),
        "Q4'": _flat_sum(orbits.tetrad_three_flats().values()),
        "Q6": _flat_sum(Flat(line) for (_, _, r), line in model.generators.items() if r == 3),
    }
    for name, poly in geometric.items():
        if q[name] != poly:
            raise ConstructionError(f"{name} closed form disagrees with its geometric route")
    if q["Q6'"].pointset() != _zero_set_mask("O2 O3 O4 O5"):
        raise ConstructionError("simple sextic does not vanish off O1")
    return 5, len(q)


@check("polys/P5-product", "quintic factors through the linear form")
def _(run):
    p = anf.named_P_basis()
    return p["P1"] * p["P4'''"], p["P5"]


check("polys/Q2-geometric", "quadric equals the equation of its point set",
      lambda run: (anf.anf_from_pointset(_zero_set_mask("O2 O4 O5")), anf.named_Q()["Q2"]))
# each invariant's degree and the classes making up its zero set
_ZERO_SETS = (("Q2", "O2 O4 O5", 2), ("Q4", "O2 O5", 4), ("Q4'", "O3 O4 O5", 4), ("Q6", "O5", 6))
for _name, _labels, _degree in _ZERO_SETS:
    check(f"polys/degree/{_name}", f"coefficient degree of {_name}",
          lambda run, name=_name, degree=_degree: (degree, anf.named_Q()[name].degree))
for _name, _labels, _degree in _ZERO_SETS:
    check(f"polys/incidence/{_name}", f"incidence degree of the zero set of {_name}",
          lambda run, labels=_labels, degree=_degree: (
              degree, anf.degree_by_incidence(_zero_set_mask(labels))))
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
for _name, _values, _size in SEVEN_TABLE:
    check(f"polys/seven-table/{_name}/values", f"{_name} on (O1..O5)",
          partial(_class_values, _name, _values))
    check(f"polys/seven-table/{_name}/zeros", f"|zero set of {_name}|",
          lambda run, name=_name, size=_size: (
              size, anf.resolve_poly_name(name).pointset().bit_count()))
check("polys/invariant-count", "invariants of degree below 8",
      lambda run: (15, len(_invariants_below_8(run))))


@check("polys/degree-census", "degree census of the fifteen invariants")
def _(run):
    census: dict[int, int] = {}
    for c in _invariants_below_8(run):
        d = anf.Anf(c).degree
        census[d] = census.get(d, 0) + 1
    return {2: 1, 4: 6, 6: 8}, census


for _cid, _label, _degree, _dim, _description in (
    ("GB-4", "M,K12", 4, 13, "cube-group invariant dimension at degree 4"),
    ("GS-2", "M,N", 2, 1, "invariant dimension at degree 2"),
    ("GS-4", "M,N", 4, 3, "invariant dimension at degree 4"),
    ("GS-7", "M,N", 7, 4, "invariant dimension at degree 7"),
):
    check(f"polys/dim/{_cid}", _description, lambda run, label=_label, degree=_degree, dim=_dim: (
        dim, len(_invariants(run, label, degree))))


@check("polys/nesting", "invariant spaces nest by degree")
def _(run):
    nested = True
    prev: list[anf.Anf] = []
    for d in range(2, 8):
        basis = _invariants(run, "M,N", d)
        spanned = _span(basis)
        nested = nested and all(f.coeffs in spanned for f in prev)
        prev = basis
    return True, nested


@check("polys/afterthought", "product identity recovers the sextic")
def _(run):
    q = anf.named_Q()
    return q["Q6"], q["Q2"] * q["Q4'"] + q["Q4"] + q["Q4'"]


@check("polys/roundtrip", "equation/point-set roundtrip on 1000 seeded sets")
def _(run):
    rng = run.rng
    masks = (rng.getrandbits(256) & ~1 for _ in range(1000))
    return True, all(anf.anf_from_pointset(m).pointset() == m for m in masks)


@check("polys/degree-preserved", "degree stable under 100 seeded coordinate changes")
def _(run):
    rng = run.rng
    preserved = True
    produced = 0
    while produced < 100:
        mat = GFMatrix([rng.randrange(256) for _ in range(8)])
        if not mat.is_invertible():
            continue
        produced += 1
        f = anf.Anf(rng.getrandbits(256))
        preserved = preserved and anf.substitute(f, mat).degree == f.degree
    return True, preserved


check("polys/form/alternating", "polar form is alternating",
      lambda run: (True, all(anf.symplectic_form(x, x) == 0 for x in range(1, 256))))


@check("polys/form/bilinear", "polar form additive on 300 seeded triples")
def _(run):
    rng, form = run.rng, anf.symplectic_form
    triples = ((rng.randrange(256) for _ in range(3)) for _ in range(300))
    return True, all(form(x ^ y, z) == (form(x, z) ^ form(y, z)) for x, y, z in triples)


check("polys/form/rank", "polar form has full rank", lambda run: (8, GFMatrix.from_rows([
    sum(anf.symplectic_form(1 << i, 1 << j) << j for j in range(8)) for i in range(8)]).rank()))


check("polys/form/invariant", "polar form invariant under both generators", lambda run: (True, all(
    anf.symplectic_form(g(x), g(y)) == anf.symplectic_form(x, y)
    for g in groups.elements("M,N") for x in range(0, 256, 3) for y in range(0, 256, 5))))
