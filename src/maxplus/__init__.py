"""Exact max-plus matrix toolkit.

Idempotent matrices, Kleene stars, tropical permanents, polytrope
geometry, the correspondence with finite metric and semimetric spaces,
and the isometry-group structure of the associated maximal subgroups.
"""

from .closure import (
    StarResult,
    eigenvalue,
    is_idempotent,
    kleene_star,
    star_fixed_point_check,
)
from .errors import (
    ConsistencyError,
    MatrixParseError,
    MaxplusError,
    PreconditionError,
    ShapeError,
)
from .groups import (
    IsometryGroup,
    UnitDecomposition,
    commutes_with,
    hclass_contains,
    hclass_decompose,
    hclass_element,
    isometry_group,
)
from .metric import (
    ClassificationReport,
    DistanceClass,
    DistanceTable,
    ValidationResult,
    classify,
    embed,
    from_matrix,
    hilbert_distance,
    is_antichain,
    residuation_bound_check,
    residuation_distance,
    to_matrix,
    validate,
)
from .permutation import Permutation
from .polytope import (
    PolytropeHRep,
    SpanMembership,
    duality_map,
    extremal_columns,
    extremal_indices,
    halfspace_rep,
    interior_point,
    membership,
    negation_closed,
    polytrope_vertices_2d,
    project_onto,
)
from .rank import (
    PermanentResult,
    idempotent_family,
    idempotent_rank,
    is_strongly_regular,
    permanent,
    zero_diag_regularity,
)
from .semiring import (
    Matrix,
    Scalar,
    Vector,
    mat_mul,
    mat_vec,
    projectivize,
    residuation,
    scalar,
    scale,
)

__version__ = "0.1.0"
