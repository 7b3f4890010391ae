"""Banach-Mazur distance from a planar normed (or symmetric star-body) space
to the Euclidean plane, computed by minimax approximation of the log-radial
function over the ellipse family, with the optimal ellipse and its four-point
alternance certificate.
"""

from .ellipse import (
    EllipseParams,
    OutOfConeTriple,
    PDMatrix2,
    StdEllipseParams,
    in_cone,
    interpolate_tangent,
    interpolate_three_points,
    log_to_trig_slope,
    matrix_to_params,
    params_to_matrix,
    pd_sqrt,
    pd_sqrt_inverse,
    perturb,
    trig_eval,
    trig_to_log_slope,
)
from .errors import (
    BadAngleOrder,
    BmplaneError,
    ConeViolation,
    EmptyGrid,
    InputError,
    InvalidExponent,
    LeftCone,
    NoAlternance,
    NoConvergence,
    NonPositiveSample,
    NotInCone,
    NotPD,
    NotStarShaped,
    NotSymmetric,
    OriginOutside,
    TooFewSamples,
)
from .gauge import (
    Gauge,
    circle_gauge,
    ellipse_gauge,
    evaluation_grid,
    gauge_from_descriptor,
    lp_gauge,
    polygon_gauge,
    sample_gauge,
)
from .oracle import OracleGrid, OracleResult, oracle_uniform, oracle_value
from .report import (
    SolveReport,
    TheoremVerdict,
    build_report,
    render_svg,
    report_from_dict,
    report_to_dict,
    verify_theorem1,
)
from .solver import (
    AlternanceCertificate,
    CertificateVerdict,
    OneSidedSolution,
    SolverOptions,
    UniformSolution,
    distance,
    extract_certificate,
    solve_uniform,
    to_one_sided,
    verify_certificate,
)

__version__ = "0.1.0"
