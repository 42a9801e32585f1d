"""Numerical pseudo-Finsler geometry on a single chart.

Jets provide exact higher-order derivatives of the metric; on top of them the
package computes the fundamental and Cartan tensors, the reference-vector
affine connection and its curvature, geodesics, parallel transport and flag
curvature, plus a randomized verification harness for all the structural
identities these objects satisfy.
"""

from .errors import (
    DegenerateMetricError,
    DomainError,
    FinslerError,
    IntegrationError,
    ParseError,
)
from .jets import Jet, JetSpace, jet_space, partials, seed
from .metrics import (
    HomogeneityReport,
    MetricField,
    TangentSample,
    builtin,
    check_homogeneity,
    load_metric,
    parse_metric,
    perturbed_riemannian,
)
from .geometry import (
    cartan_tensor,
    fundamental_tensor,
    metric_blocks,
    tensor_partials,
)
from .connection import (
    ChristoffelEval,
    VectorFieldOnChart,
    christoffel,
    christoffel_with_partials,
    nabla,
)
from .curves import (
    CurvePath,
    FieldAlongCurve,
    TwoParamMap,
    cov_deriv_along,
    geodesic_residual,
    geodesic_shoot,
    mixed_derivative_commutation,
    parallel_transport,
)
from .curvature import (
    b_tensor,
    covariant_acceleration,
    curvature_field,
    curvature_field_nested,
    flag_curvature,
    flag_curvature_predecessor,
    h_tensor,
    hh_curvature,
    jacobi_operator,
    nabla_cartan,
    r_along_curve,
    r_along_curve_direct,
)
from .verify import (
    VerificationPlan,
    VerificationReport,
    default_plan,
    run_verification,
)

__version__ = "0.1.0"
