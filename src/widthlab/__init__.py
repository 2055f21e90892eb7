"""widthlab: how wide must a random-feature ReLU network be?

Numerical companion to a constructive approximation pipeline on the cube
(smooth target -> low-degree trig polynomial -> ReLU mixture -> finite
sampled network) together with projection-based width lower bounds for
networks whose bottom layer is random and only the top layer is trained.
A Hermite analogue covers Gaussian space.
"""

__version__ = "0.1.0"

from .approx import (
    TruncationReport,
    c_ks,
    reflect_and_truncate,
    shift_polynomial_to_half_scale,
    sobolev_norm_from_coeffs,
    truncate_periodic,
    truncate_sobolev,
)
from .caps import DEFAULT_CAP, active_cap
from .errors import (
    CapExceeded,
    DegreeCap,
    DimensionMismatch,
    EmptyFeatureList,
    InvalidCapSetting,
    InvalidInput,
    NegativeIndex,
    NotUnitNorm,
    NumericalFailure,
    OutOfSupport,
    PackingFailed,
    ParameterOutOfRange,
    ScaleNotUnit,
    UnsupportedCombination,
    WeightNotInSupport,
    WeightsNotNormalized,
    WidthlabError,
    WrongMeasure,
)
from .fitter import (
    FittedSpan,
    MinWidthEstimate,
    SuccessEstimate,
    estimate_minwidth,
    fit_span,
    success_probability,
    wilson_interval,
)
from .hermite import (
    HermitePolynomial,
    HermiteTruncationReport,
    H_multivariate,
    h_univariate,
    hermite_partial,
    hermite_truncate,
    term_by_term_coeffs,
)
from .lattice import (
    IndexClass,
    MultiIndex,
    classify,
    count_ball,
    enumerate_ball,
    l2_norm_sq,
    negate,
    radius_sq_bound,
)
from .lowerbound import (
    FunctionFamily,
    HardFunction,
    LbParameters,
    ProjectionReport,
    coherence,
    explicit_hard_function,
    gaussian_hard_family,
    hard_family_ball,
    hard_family_symmetric,
    lb_parameters,
    projection_residuals,
    randict_bound,
)
from .quadrature import (
    GAUSSIAN,
    MONTE_CARLO,
    TENSOR_GAUSS,
    UNIFORM_CUBE,
    Grid,
    QuadratureSpec,
    evaluate_on,
    l2_error,
    make_grid,
    tensor_gauss_grid,
    trig_coefficient,
)
from .relu import (
    DkDistribution,
    ReluParamDist,
    RidgeProfile,
    h_weight,
    mixture_expectation,
    phi_K,
    psi,
    psi_K,
    ray_members,
    ridge_profile_of_index,
    sample_average_network,
    unit_direction,
    width_bound,
)
from .trig import (
    DerivedTerm,
    TrigPolynomial,
    eval_T,
    partial_derivative,
)
