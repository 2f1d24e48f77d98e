"""Exact computational geometry of the Segre variety S_{1,1,1}(2) in PG(7,2).

The package constructs the 27-point variety and its invariant attribute
families, the stabilizer group and its distinguished subgroups, the
fixed-point-free order-3 centralizer and the spread of 85 lines it carves
out, the five point orbits with their weight census, and the full catalog of
low-degree invariant polynomials — all over GF(2), all exact, everything
cross-checked by at least two independent routes.
"""

__version__ = "0.1.0"

from .gf2 import (
    DIM,
    UNIT,
    POINTS,
    ConstructionError,
    Flat,
    GFMatrix,
    basis_vector,
    flats_of_dimension,
    format_point,
    gaussian_binomial,
    kernel,
    nullspace,
    orthogonal_complement,
    parse_point,
    span,
    weight,
)
from .segre import (
    BASIS_INDEX,
    MULTI_INDICES,
    SegreModel,
    build_model,
    distinguished_tangent,
    segre_point,
)
from .groups import (
    ClosureOverflowError,
    MatrixGroup,
    centralizer_in_gl,
    closure,
    commutant_basis,
    cube_group,
    element,
    fix_subspace,
    named_elements,
    schreier_sims,
    segre_group,
    segre_group_even,
    stabilizer_of_point,
    sym3_operator,
    tensor_operator,
)
from .orbits import (
    CUBE_ORBIT_CENSUS,
    TETRAD_LINES,
    OrbitClass,
    OrbitPartition,
    Spread,
    classify_point,
    cube_orbit_labels,
    definitional_orbits,
    line_orbit_split,
    orbit_mask,
    parity_class,
    point_orbits,
    segre_triplet,
    spread_from_w,
    tetrad_five_flats,
    tetrad_three_flats,
)
from .anf import (
    Anf,
    anf_from_pointset,
    degree_by_incidence,
    flat_equation,
    invariant_subspace,
    mobius,
    monomial_orbit_poly,
    named_P_basis,
    named_Q,
    resolve_poly_name,
    substitute,
    symplectic_form,
)

__all__ = [
    "__version__",
    # gf2
    "DIM", "UNIT", "POINTS", "ConstructionError", "Flat", "GFMatrix",
    "basis_vector", "flats_of_dimension", "format_point", "gaussian_binomial",
    "kernel", "nullspace", "orthogonal_complement", "parse_point",
    "span", "weight",
    # segre
    "BASIS_INDEX", "MULTI_INDICES", "SegreModel", "build_model",
    "distinguished_tangent", "segre_point",
    # groups
    "ClosureOverflowError", "MatrixGroup", "centralizer_in_gl",
    "closure", "commutant_basis", "cube_group", "element", "fix_subspace",
    "named_elements", "schreier_sims", "segre_group", "segre_group_even",
    "stabilizer_of_point", "sym3_operator", "tensor_operator",
    # orbits
    "CUBE_ORBIT_CENSUS", "TETRAD_LINES", "OrbitClass", "OrbitPartition",
    "Spread", "classify_point", "cube_orbit_labels", "definitional_orbits",
    "line_orbit_split", "orbit_mask", "parity_class", "point_orbits",
    "segre_triplet", "spread_from_w", "tetrad_five_flats", "tetrad_three_flats",
    # anf
    "Anf", "anf_from_pointset", "degree_by_incidence", "flat_equation",
    "invariant_subspace", "mobius", "monomial_orbit_poly", "named_P_basis",
    "named_Q", "resolve_poly_name", "substitute", "symplectic_form",
]
