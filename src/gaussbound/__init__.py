"""Gaussian lower bounds on mutual information and the IB curve.

The pipeline: embed paired samples with maximal correlation under exact
marginal-normality constraints (ACE upper bound, alternating Gaussianized
conditional expectations, bi-terminal Gaussianization), then feed the
embedding's covariance to the closed-form Gaussian Information Bottleneck.
A discrete reference solver and a synthetic-model suite verify every bound
at desk scale.
"""

from .agce import (
    AgcePair,
    FittedTransform,
    agce_fit_1d,
    agce_fit_mv_oracle,
    agce_step,
    distance_correlation,
    naive_lower_1d,
    offshelf_lower_1d,
    pair_bound_nats,
)
from .biterminal import (
    biterminal_gaussianize,
    joint_objective,
    separate_gaussianize,
)
from .cca_ace import CanonicalModel, ace_fit, ace_upper_bound, kcca_fit
from .errors import (
    ConditioningError,
    DomainError,
    GaussboundError,
    InsufficientDataError,
    InvalidCovarianceError,
    ParameterError,
    UnsupportedModelError,
)
from .gib import GibSpectrum, IBCurve, gib_curve, gib_point_info, gib_projection, gib_spectrum
from .ib_discrete import (
    IBSolution,
    JointPmf,
    discretize_samples,
    ib_iterate,
    quadrature_discretize,
    reverse_anneal,
)
from .models import (
    ModelSample,
    OracleGaussian,
    OracleProduct,
    expgamma_sample,
    gm1d_sample,
    gm1d_true_mi,
    gm_mv_sample,
    mirror_transform,
    mvg_scramble_sample,
)
from .smoother import KernelSmoother, KnnSmoother, SmootherConfig
from .stats_core import (
    MonotoneMap,
    PairedSamples,
    covariance,
    gaussian_mi_bound,
    marginal_gaussianize,
    mi_from_correlations,
    w2_to_normal,
)

__version__ = "0.1.0"
