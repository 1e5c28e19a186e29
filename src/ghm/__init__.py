"""Generalized Hamiltonian mechanics with closed differential forms of
degree k: sparse exterior algebra on R^n, pointwise hat-map solves of
iota_X w = -dH^1 ^ ... ^ dH^{k-1}, structural identity checkers, flattening
verification, and conservation-checked trajectory integration.
"""

from .errors import (
    ChartError,
    DimensionError,
    DualityError,
    EvalDomainError,
    ExprDepthError,
    GhmError,
    InputError,
    IntegrationError,
    ParseError,
)
from .expr import Expr, ScalarField, differentiate, evaluate, parse
from .exterior import (
    FormField,
    FormValue,
    MultiVectorField,
    MultiVectorValue,
    PointMap,
    VectorField,
    exterior_derivative,
    hdw_vs_bracket_sign,
    interior,
    interior_vector,
    inverse_law_sign,
    lie_derivative,
    sort_with_sign,
    wedge,
)
from .hdw import SolveReport, assemble_hatmap, obstruction_check, solve_hdw
from .identities import (
    IdentityReport,
    closure_residual,
    extend_measure_preserving,
    fundamental_identity_residual,
    jacobi_residual,
    measure_residual,
)
from .structure import (
    Distribution,
    LevelSetChart,
    build_poisson_k,
    build_w_from_omega,
    delta_inverse_residual,
    extract_omega,
    reduce_k_to_2,
    strong_inverse_residual,
)
from .dynamics import (
    MoserProblem,
    SystemSpec,
    Trajectory,
    conservation_report,
    divergence,
    integrate,
    moser_residual,
    sample_box,
    vector_field_of,
    verify_flattening,
)
from . import systems

__version__ = "0.1.0"
