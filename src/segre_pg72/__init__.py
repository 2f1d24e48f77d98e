"""Exact computational geometry of the Segre variety S_{1,1,1}(2) in PG(7,2).

The package constructs the 27-point variety and its invariant attribute
families, the stabilizer group and its distinguished subgroups, the
fixed-point-free order-3 centralizer and the spread of 85 lines it carves
out, the five point orbits with their weight census, and the full catalog of
low-degree invariant polynomials — all over GF(2), all exact, everything
cross-checked by at least two independent routes.

Importing the package loads none of its modules: each public name is looked
up in its home module on access (PEP 562), importing that module on first
use, so a command-line process compiles only what its command runs.  The
names are read through on every access, never cached here, so a wrapper set
on a home module's attribute is what ``segre_pg72.<name>`` returns.
"""

import sys as _sys

__version__ = "0.1.0"

SUITES = ("groups", "spread", "orbits", "table1", "polys")  # verify suites, in report order

_SUBMODULES = ("gf2", "segre", "groups", "orbits", "anf", "checks", "cli")

# public name -> home module
_HOME = {
    name: module
    for module, names in (
        ("gf2", (
            "DIM", "UNIT", "ConstructionError", "Flat", "GFMatrix",
            "basis_vector", "format_point", "kernel", "parse_point", "span", "weight",
        )),
        ("segre", (
            "BASIS_INDEX", "MULTI_INDICES", "SegreModel", "build_model", "segre_point",
        )),
        ("groups", (
            "Chain", "ClosureOverflowError", "MatrixGroup", "centralizer_in_gl",
            "closure", "commutant_basis", "cube_group", "element", "elements", "fix_subspace",
            "named_elements", "schreier_sims", "segre_group", "segre_group_even",
            "stabilizer_chain", "stabilizer_of_point", "sym3_operator", "tensor_operator",
        )),
        ("orbits", (
            "CUBE_ORBIT_CENSUS", "TETRAD_LINES", "OrbitClass", "OrbitPartition",
            "Spread", "classify_point", "cube_orbit_labels", "definitional_orbits",
            "line_orbit_split", "orbit_mask", "parity_class", "point_orbits",
            "segre_triplet", "spread_from_w", "tetrad_five_flats", "tetrad_three_flats",
        )),
        ("anf", (
            "Anf", "anf_from_pointset", "degree_by_incidence", "flat_equation",
            "invariant_subspace", "mobius", "monomial_orbit_poly", "named_P_basis",
            "named_Q", "resolve_poly_name", "substitute", "symplectic_form",
        )),
    )
    for name in names
}

__all__ = ["__version__", *_HOME]


def _submodule(name: str):
    # __import__, unlike importlib.import_module, shows in -X importtime
    qualified = f"{__name__}.{name}"
    __import__(qualified)
    return _sys.modules[qualified]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_submodule(home), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *__all__})
