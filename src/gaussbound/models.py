"""Synthetic generative models with analytic or numerically exact MI.

Every sampler is pure given its seed.  The scrambled models apply invertible
but non-monotonic per-coordinate mirrors (plus rotations where noted), which
preserve the analytic mutual information while destroying the raw Gaussian
bound, making them the standard stress tests for the pipeline.

``MODELS`` is the one table of families: each maps to its sampler and to the
analytic joint of its d = 1 model, if it has one.  ``sample_from_spec`` and
``discretizable_from_spec`` look a family up there; the gm samplers reject a
non-positive eps and non-finite parameters before drawing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .biterminal import random_rotation
from .errors import DomainError, ParameterError
from .stats_core import NATS_PER_BIT, PairedSamples

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class ModelSample:
    """Drawn paired samples plus the model's exact mutual information."""

    samples: PairedSamples
    true_mi_nats: float | None
    meta: dict = field(default_factory=dict)

    @property
    def true_mi_bits(self) -> float | None:
        if self.true_mi_nats is None:
            return None
        return self.true_mi_nats / NATS_PER_BIT


def mirror_transform(t, lo: float, hi: float):
    """Reflect values inside [lo, hi] about the interval midpoint.

    Involutive, non-monotonic, measure preserving on the reflected interval;
    values outside the interval pass through unchanged.
    """
    if not lo < hi:
        raise ParameterError("mirror_transform needs lo < hi")
    arr = np.asarray(t, dtype=float)
    out = np.where((arr >= lo) & (arr <= hi), lo + hi - arr, arr)
    return float(out) if np.ndim(t) == 0 else out


def _gm1d_draw(rng: np.random.Generator, n: int, mu_z: float, eps: float):
    x = rng.standard_normal(n)
    w = eps * rng.standard_normal(n)
    z = mu_z + rng.standard_normal(n)
    noise_branch = rng.random(n) < 0.5
    y = np.where(noise_branch, z, x + w)
    return x, y, noise_branch


def gm_mv_sample(n: int, d: int, mu_z: float = 10.0, eps: float = 0.1, seed=None) -> ModelSample:
    """Independent per-coordinate replicas of the Gaussian-mixture pair."""
    if n < 1 or d < 1:
        raise ParameterError("n and d must be at least 1")
    if not (eps > 0 and math.isfinite(eps) and math.isfinite(mu_z)):
        raise ParameterError(f"eps must be positive and mu_z, eps finite; got {mu_z=}, {eps=}")
    children = np.random.SeedSequence(seed).spawn(d)
    x = np.empty((n, d))
    y = np.empty((n, d))
    branches = np.empty((n, d), dtype=bool)
    for j, child in enumerate(children):
        x[:, j], y[:, j], branches[:, j] = _gm1d_draw(
            np.random.default_rng(child), n, mu_z, eps
        )
    return ModelSample(
        samples=PairedSamples(x, y),
        true_mi_nats=d * gm1d_true_mi(mu_z, eps),
        meta={"noise_branch": branches, "mu_z": mu_z, "eps": eps},
    )


def gm1d_sample(n: int, mu_z: float = 10.0, eps: float = 0.1, seed=None) -> ModelSample:
    """Gaussian-mixture pair: X ~ N(0,1); Y = X + W or an independent N(mu_z, 1).

    The fair branch indicator is kept in ``meta['noise_branch']`` (True where
    Y came from the independent component).
    """
    return gm_mv_sample(n, 1, mu_z, eps, seed)


def _entropy_quad(pdf, splits) -> float:
    """Differential entropy -int p ln p via adaptive quadrature over segments."""
    # imported here: a 1-D bound loads no scipy
    from scipy.integrate import quad

    def integrand(t):
        p = pdf(t)
        return -p * math.log(p) if p > 0 else 0.0

    pts = [-np.inf, *splits, np.inf]
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        total += quad(integrand, a, b, limit=200)[0]
    return total


def _norm_pdf(t, mean, std):
    z = (t - mean) / std
    return math.exp(-0.5 * z * z) / (std * math.sqrt(2 * math.pi))


def _gm1d_mi_numeric(mu_z: float, eps: float) -> float:
    """I(X;Y) = h(Y) - h(Y|X) by nested quadrature, accurate to ~1e-4 nats."""
    sig0 = math.sqrt(1.0 + eps * eps)

    def pdf_y(t):
        return 0.5 * _norm_pdf(t, 0.0, sig0) + 0.5 * _norm_pdf(t, mu_z, 1.0)

    h_y = _entropy_quad(pdf_y, sorted({0.0, mu_z / 2.0, mu_z}))

    nodes, weights = np.polynomial.hermite.hermgauss(64)
    xs = math.sqrt(2.0) * nodes
    ws = weights / math.sqrt(math.pi)
    h_y_given_x = 0.0
    for xval, wval in zip(xs, ws):

        def pdf_cond(t, xv=xval):
            return 0.5 * _norm_pdf(t, xv, eps) + 0.5 * _norm_pdf(t, mu_z, 1.0)

        h_y_given_x += wval * _entropy_quad(
            pdf_cond, sorted({xval, (xval + mu_z) / 2.0, mu_z})
        )
    return h_y - h_y_given_x


def gm1d_true_mi(mu_z: float, eps: float) -> float:
    """Exact (numeric) MI of the Gaussian-mixture pair, in nats.

    Integrates the exact mixture densities.  The closed form
    0.25 ln(1 + eps^2) - 0.5 ln eps is only the non-overlap approximation,
    trustworthy once the two components barely overlap.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    return _gm1d_mi_numeric(mu_z, eps)


def mvg_scramble_sample(n: int, d: int, seed=None) -> ModelSample:
    """Jointly Gaussian Y = X + W, then per-coordinate mirror on [-1, 1].

    The mirror is invertible so I(X;Y) = (d/2) ln 2 nats exactly; it is also
    measure preserving for the symmetric interval, so each scrambled X
    coordinate is still standard normal marginally.
    """
    if n < 1 or not 1 <= d <= 10:
        raise ParameterError("n must be at least 1 and d in [1, 10]")
    rng = np.random.default_rng(seed)
    x_raw = rng.standard_normal((n, d))
    y_raw = x_raw + rng.standard_normal((n, d))
    x = mirror_transform(x_raw, -1.0, 1.0)
    y = mirror_transform(y_raw, -1.0, 1.0)
    return ModelSample(
        samples=PairedSamples(x, y),
        true_mi_nats=0.5 * d * math.log(2.0),
        meta={"x_raw": x_raw, "y_raw": y_raw, "mirror": (-1.0, 1.0)},
    )


def expgamma_sample(n: int, d: int, seed=None) -> ModelSample:
    """Exponential X, Gamma Y = X + W, mirrored on [0, 2] and rotated.

    Each coordinate of X and W is Exp(1); after the per-coordinate mirror
    about 1, a fixed seeded rotation mixes the X block and another the Y
    block (identity when d = 1).  All steps are invertible, so
    I(X;Y) = d * gamma (Euler-Mascheroni) nats exactly.
    """
    if n < 1 or not 1 <= d <= 10:
        raise ParameterError("n must be at least 1 and d in [1, 10]")
    rng = np.random.default_rng(seed)
    x_raw = rng.exponential(1.0, (n, d))
    y_raw = x_raw + rng.exponential(1.0, (n, d))
    x = mirror_transform(x_raw, 0.0, 2.0)
    y = mirror_transform(y_raw, 0.0, 2.0)
    rot_x = random_rotation(d, rng) if d > 1 else np.eye(1)
    rot_y = random_rotation(d, rng) if d > 1 else np.eye(1)
    return ModelSample(
        samples=PairedSamples(x @ rot_x.T, y @ rot_y.T),
        true_mi_nats=d * np.euler_gamma,
        meta={
            "x_raw": x_raw,
            "y_raw": y_raw,
            "mirror": (0.0, 2.0),
            "rotation_x": rot_x,
            "rotation_y": rot_y,
        },
    )


# ---------------------------------------------------------------------------
# Discretizable analytic joints (for the quadrature path of the discrete IB)
# ---------------------------------------------------------------------------


class Gm1dModel:
    """Analytic joint of the univariate Gaussian-mixture pair."""

    def __init__(self, mu_z: float = 10.0, eps: float = 0.1):
        if eps <= 0:
            raise DomainError("eps must be positive")
        self.mu_z = float(mu_z)
        self.eps = float(eps)

    def x_gaussian_components(self):
        return [(1.0, 0.0, 1.0)]

    def y_gaussian_components(self):
        return [(0.5, 0.0, math.sqrt(1.0 + self.eps ** 2)), (0.5, self.mu_z, 1.0)]

    def joint_log_density(self, x, y):
        log_px = -0.5 * x * x - 0.5 * _LOG_2PI
        zc = (y - x) / self.eps
        log_corr = -0.5 * zc * zc - 0.5 * _LOG_2PI - math.log(self.eps)
        zn = y - self.mu_z
        log_noise = -0.5 * zn * zn - 0.5 * _LOG_2PI
        return log_px + np.logaddexp(log_corr, log_noise) + math.log(0.5)



class ExpMirrorModel:
    """Univariate exponential pair after the [0, 2] mirror (no rotation).

    X ~ Exp(1) and Y = X + W with W ~ Exp(1); both are reflected about 1 on
    [0, 2].  The mirror is piecewise unit-Jacobian, so the joint density of
    the mirrored pair is the raw density evaluated at the mirrored points.
    Marginals are not Gaussian mixtures, so discretization falls back to
    quantile binning.
    """

    def __init__(self):
        from scipy.special import gammainc  # imported here: a 1-D bound loads no scipy

        self._f2 = 1.0 - math.exp(-2.0)  # Exp(1) CDF at 2
        self._g2 = float(gammainc(2.0, 2.0))  # Gamma(2) CDF at 2

    def x_quantile(self, q):
        q = np.asarray(q, dtype=float)
        low = q <= self._f2
        out = np.where(
            low,
            2.0 + np.log(np.maximum(q + math.exp(-2.0), 1e-300)),
            -np.log1p(-np.minimum(q, 1.0 - 1e-15)),
        )
        return out

    def y_quantile(self, q):
        from scipy.special import gammaincinv  # imported here: a 1-D bound loads no scipy

        q = np.asarray(q, dtype=float)
        out = np.empty_like(q)
        low = q <= self._g2
        out[low] = 2.0 - gammaincinv(2.0, self._g2 - q[low])
        out[~low] = gammaincinv(2.0, np.minimum(q[~low], 1.0 - 1e-15))
        return out

    def joint_log_density(self, x, y):
        xm = mirror_transform(np.asarray(x, dtype=float), 0.0, 2.0)
        ym = mirror_transform(np.asarray(y, dtype=float), 0.0, 2.0)
        valid = (xm >= 0.0) & (ym >= xm)
        with np.errstate(invalid="ignore"):
            out = np.where(valid, -ym, -np.inf)
        return np.broadcast_to(out, np.broadcast(xm, ym).shape).copy()



def _gm1d(n: int, d: int, mu_z: float, eps: float, seed) -> ModelSample:
    if d != 1:
        raise ParameterError(f"gm1d is one-dimensional, got d = {d}; use gm_mv")
    return gm1d_sample(n, mu_z, eps, seed)


# family -> (sampler(n, d, mu_z, eps, seed), analytic joint(mu_z, eps) of
# the d = 1 model for the quadrature path, or None)
MODELS = {
    "gm1d": (_gm1d, Gm1dModel),
    "mv_gaussian_scramble": (lambda n, d, mu_z, eps, seed: mvg_scramble_sample(n, d, seed), None),
    "exp_gamma": (
        lambda n, d, mu_z, eps, seed: expgamma_sample(n, d, seed),
        lambda mu_z, eps: ExpMirrorModel(),
    ),
    "gm_mv": (gm_mv_sample, Gm1dModel),
}
MODEL_FAMILIES = tuple(MODELS)


def _family(family: str) -> tuple:
    if family not in MODELS:
        raise ParameterError(f"unknown model family {family!r}; choose from {MODEL_FAMILIES}")
    return MODELS[family]


def sample_from_spec(family: str, n: int, d: int, mu_z: float, eps: float, seed) -> ModelSample:
    """Draw n pairs from a family; mu_z and eps reach only the gm families."""
    return _family(family)[0](n, d, mu_z, eps, seed)


def discretizable_from_spec(family: str, d: int, mu_z: float, eps: float):
    """Analytic joint for the quadrature path, or None when d > 1 or there is none."""
    joint = _family(family)[1]
    return None if joint is None or d != 1 else joint(mu_z, eps)
