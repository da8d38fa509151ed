"""torquiv: exact arithmetic for quiver polyhedra and toric quiver varieties."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .quiver import (
    Arrow,
    Quiver,
    canonical_weight,
    components,
    euler_characteristic,
    is_strongly_connected,
    is_theta_stable,
    primitive_cycles,
    quiver_from_dict,
)
from .polytope import (
    BoundedFlowSpec,
    bounded_lattice_points,
    check_normality,
    codegree,
    dimension,
    facet_arrows,
    lattice_points,
    recession_hilbert_basis,
    to_quiver_polytope,
    vertices,
)
from .reductions import (
    ReductionTrace,
    contract,
    double_quiver,
    in_rd_form,
    is_contractible,
    is_prime,
    is_removable,
    is_tight,
    normalize_to_Rd,
    prime_decompose,
    reflect,
    skeleton,
    tighten,
    vertex_localization,
)
from .multigraph import (
    Multigraph,
    are_isomorphic,
    canonical_key,
    directed_canonical_key,
    from_canonical_key,
)
from .classify import (
    Fan2D,
    REFERENCE_FANS,
    build_Rd_quiver,
    classify_2d,
    enumerate_Rd,
    enumerate_affine_Rdd,
    enumerate_maximal_skeletons,
    enumerate_skeletons,
    kronecker_quiver,
    loop_quiver,
    normal_fan_2d,
    quiver_key,
    realize_Rprime,
    surface_name,
)
from .ideal import (
    BinomialGen,
    DegreeViolation,
    DivisorGraph,
    GradedSemigroup,
    affine_relation_degree,
    certify_degree_bound,
    collapse_parallel,
    divisor_graph,
    lift_generators,
    minimal_generators,
    osm_certify_degree3,
    osm_lattice_points,
)

# every public name imported above, and nothing else
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
