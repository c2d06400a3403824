"""Reference helpers the tests check the package against; no program module calls them.

They stay here, unchanged from when they lived in the package, so a test can
read a closed form, a histogram estimate or a model of its own next to what
the program computes.
"""

import math

import numpy as np

from gaussbound.errors import DomainError, ParameterError
from gaussbound.gib import _LAMBDA_FLOOR, GibSpectrum, projection_coefficients
from gaussbound.ib_discrete import JointPmf
from gaussbound.stats_core import SATURATION_RHO


def gib_projection(spec: GibSpectrum, beta: float) -> np.ndarray:
    """Projection matrix A(beta); one row per active component (possibly none)."""
    a, active = projection_coefficients(spec, beta)
    return a[active, None] * spec.vectors[active]


def gib_mi_nats(spec: GibSpectrum) -> float:
    """I(X;Y) of the Gaussian pair: -0.5 sum ln lambda_i (over lambda < 1)."""
    lam = np.clip(spec.lam, _LAMBDA_FLOOR, 1.0)
    return float(-0.5 * np.log(lam).sum())


def gib_point_info(a_mat, cov, d_x: int) -> tuple[float, float]:
    """(I(T;X), I(T;Y)) in nats for T = A X + unit-covariance Gaussian noise.

    ``cov`` is the joint covariance of (X, Y) with X's ``d_x`` coordinates
    first.  I(T;X) = 0.5 ln det(I + A C_X A^T) and
    I(T;Y) = I(T;X) - 0.5 ln det(I + A C_{X|Y} A^T).
    """
    a_mat = np.atleast_2d(np.asarray(a_mat, dtype=float))
    if a_mat.size == 0 or a_mat.shape[0] == 0:
        return 0.0, 0.0
    cov = np.asarray(cov, dtype=float)
    c_x, c_y, c_xy = cov[:d_x, :d_x], cov[d_x:, d_x:], cov[:d_x, d_x:]
    c_x_given_y = c_x - c_xy @ np.linalg.solve(c_y, c_xy.T)
    m = a_mat.shape[0]
    eye = np.eye(m)
    _, ld_x = np.linalg.slogdet(eye + a_mat @ c_x @ a_mat.T)
    _, ld_res = np.linalg.slogdet(eye + a_mat @ c_x_given_y @ a_mat.T)
    i_tx = 0.5 * ld_x
    return float(i_tx), float(i_tx - 0.5 * ld_res)


def discretize_samples(u, v, bins: int = 24) -> JointPmf:
    """Histogram a sample pair on per-axis equal-probability (quantile) bins."""
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if bins * bins > 4096:
        raise ParameterError("total bins exceed 4096; lower bins")
    qu = np.quantile(u, np.linspace(0, 1, bins + 1))
    qv = np.quantile(v, np.linspace(0, 1, bins + 1))
    qu[0], qu[-1] = -np.inf, np.inf
    qv[0], qv[-1] = -np.inf, np.inf
    qu = np.unique(qu)
    qv = np.unique(qv)
    counts, _, _ = np.histogram2d(u, v, bins=[qu, qv])
    return JointPmf(counts / counts.sum())


def pmf_entropy_x(pmf: JointPmf) -> float:
    """H(X) of the pmf, in nats."""
    from scipy.special import xlogy

    px = pmf.p_x
    return float(-np.sum(xlogy(px, px)))


def gm1d_mi_closed_form(mu_z: float, eps: float) -> float:
    """Non-overlap approximation: 0.25 ln(1 + eps^2) - 0.5 ln eps, in nats."""
    if eps <= 0:
        raise DomainError("eps must be positive")
    return 0.25 * math.log1p(eps * eps) - 0.5 * math.log(eps)


class BivariateGaussianModel:
    """Standard bivariate normal with correlation rho."""

    def __init__(self, rho: float):
        if not -1.0 < rho < 1.0:
            raise DomainError("rho must lie strictly inside (-1, 1)")
        self.rho = float(rho)

    def x_gaussian_components(self):
        return [(1.0, 0.0, 1.0)]

    def y_gaussian_components(self):
        return [(1.0, 0.0, 1.0)]

    def joint_log_density(self, x, y):
        r = self.rho
        det = 1.0 - r * r
        q = (x * x - 2.0 * r * x * y + y * y) / det
        return -0.5 * q - math.log(2.0 * math.pi * math.sqrt(det))


def correlations_saturated(rho) -> bool:
    """True when any correlation had to be clamped in mi_from_correlations."""
    r = np.atleast_1d(np.asarray(rho, dtype=float))
    return bool(np.any(np.abs(r) >= SATURATION_RHO))
