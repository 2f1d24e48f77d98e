"""Route independence: two routes that a check compares share no code
beyond an allowlist.

Each row names the two routes, their inputs (built before anything is
recorded) and the package functions they may share, each with its reason.
`sys.setprofile` records every function of the package a route calls,
after every `functools.cache` in the package is cleared, so that a warm
cache cannot hide a shared intermediate.  A profile sees calls only: a
module constant that both routes read is data, and each row says which
ones there are.  Nested code (a genexpr, a local function) counts as the
function that holds it.
"""

import sys
from dataclasses import dataclass, replace

import pytest

from segre_pg72.anf import anf_from_pointset, degree_by_incidence, monomial_orbit_poly, named_Q
from segre_pg72.checks import _flat_sum, _zero_set_mask
from segre_pg72.groups import closure, cube_group, elements, schreier_sims, segre_group
from segre_pg72.orbits import definitional_orbits, point_orbits
from segre_pg72.segre import build_model
from support import PACKAGE, clear_caches

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="names calls by co_qualname")

# the checks every generator passes on the way in, through the one guard:
# a GFMatrix, and invertible, that is, only 0 maps to 0 in its point table
INPUT_GUARDS = {
    "gf2._check_invertible": "the one guard of invertible generators",
    "gf2._check_matrices": "each generator is a GFMatrix",
    "gf2.GFMatrix.is_invertible": "each generator is invertible",
}

# what Q2's P-sum route and its point-set route share; Q4's P-sum and
# flat-sum routes share it and the two Anf sums.  The P's are read from
# their pins, so neither Q route reads the tensor expansion twice
Q_ROUTES = {
    "anf.Anf.__init__": "each route's result is an Anf",
}


@dataclass(frozen=True)
class Row:
    first: object
    second: object
    inputs: tuple
    shared: dict  # function -> why the two routes may both call it
    data: dict  # module constant both routes read -> what each reads it for


ROWS = {
    "group order: closure vs stabilizer chain": Row(
        first=lambda gens: len(closure(gens)),
        second=schreier_sims,
        inputs=(elements("M,N"),),
        shared=INPUT_GUARDS,
        data={"gf2._UNITS": "the identity's column images: closure's first "
                            "seen key, the chain's identity test"},
    ),
    "point orbits: group action vs definition": Row(
        first=point_orbits,
        second=lambda group: definitional_orbits(),
        inputs=(segre_group(),),
        shared={},
        data={},
    ),
    "incidence degree: coefficients vs flat scan": Row(
        first=lambda psi: anf_from_pointset(psi).degree,
        second=degree_by_incidence,
        inputs=(named_Q()["Q4"].pointset(),),
        shared={"anf._check_pointset": "each route checks its point-set mask"},
        data={},
    ),
    "Q4: P sum vs flat sum": Row(
        first=lambda: named_Q()["Q4"],
        second=lambda: _flat_sum(build_model().ambient_flats.values()),
        inputs=(),
        shared={
            **Q_ROUTES,
            "anf.Anf.__add__": "each route sums its terms: P's, flat equations",
            "anf.Anf.zero": "the empty sum each route starts from",
        },
        data={},
    ),
    "Q2: P sum vs point set": Row(
        first=lambda: named_Q()["Q2"],
        second=lambda: anf_from_pointset(_zero_set_mask("O2 O4 O5")),
        inputs=(),
        shared=Q_ROUTES,
        data={},
    ),
}


def calls(route, inputs) -> set[str]:
    """The package functions route(*inputs) calls, as module.qualname
    without the package prefix."""
    clear_caches()
    found = set()

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith(PACKAGE):
            qualname = frame.f_code.co_qualname.split(".<locals>")[0]
            found.add(f"{module.removeprefix(PACKAGE)}.{qualname}")

    sys.setprofile(profile)
    try:
        route(*inputs)
    finally:
        sys.setprofile(None)
    return found


def shared_calls(row: Row) -> set[str]:
    return calls(row.first, row.inputs) & calls(row.second, row.inputs)


@pytest.mark.parametrize("name", ROWS)
def test_the_routes_share_only_the_allowlist(name):
    row = ROWS[name]
    shared = shared_calls(row)
    assert shared <= set(row.shared)
    for constant in row.data:
        module, attr = constant.split(".")
        assert hasattr(sys.modules[PACKAGE + module], attr), constant


def test_a_chain_that_asks_closure_for_the_order_is_caught():
    row = ROWS["group order: closure vs stabilizer chain"]
    mutant = replace(row, second=lambda gens: len(closure(gens)))
    assert "groups.closure" in shared_calls(mutant) - set(row.shared)


def test_definitional_orbits_that_read_the_group_orbits_are_caught():
    row = ROWS["point orbits: group action vs definition"]
    mutant = replace(row, second=lambda group: (definitional_orbits(), point_orbits(group)))
    assert "orbits.point_orbits" in shared_calls(mutant) - set(row.shared)


def test_an_incidence_scan_that_reads_the_coefficients_is_caught():
    row = ROWS["incidence degree: coefficients vs flat scan"]
    mutant = replace(row, second=lambda psi: (degree_by_incidence(psi), anf_from_pointset(psi)))
    assert "anf.anf_from_pointset" in shared_calls(mutant) - set(row.shared)


def test_a_p_sum_that_rebuilds_a_p_from_the_cube_group_is_caught():
    # the orbit route builds the cube group's tensor operators, and the
    # point-set route the model's points, both through segre_point
    row = ROWS["Q2: P sum vs point set"]
    mutant = replace(row, first=lambda: (named_Q()["Q2"], monomial_orbit_poly((1, 8), cube_group())))
    assert "segre.segre_point" in shared_calls(mutant) - set(row.shared)
