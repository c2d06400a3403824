"""Closed-form Gaussian Information Bottleneck.

For jointly Gaussian (or Gaussianized) pairs the optimal bottleneck is a
noisy linear projection T = A X + unit Gaussian noise (Chechik, Globerson,
Tishby & Weiss, 2005).  The rows of A come from the generalized eigenvectors
of (C_{X|Y}, C_X); component i turns on at the critical trade-off value
beta_i = 1 / (1 - lambda_i), which is where the coefficient
a_i = sqrt((beta (1 - lambda_i) - 1) / (lambda_i r_i)) becomes real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConditioningError, DomainError, InvalidCovarianceError, ParameterError
from .stats_core import NATS_PER_BIT

# Components with lambda at or below this are treated as deterministic; their
# projection coefficient is capped so each contributes at most _CAP_NATS to
# the complexity coordinate.
_LAMBDA_FLOOR = 1e-10
_CAP_NATS = 30.0


@dataclass(frozen=True)
class GibSpectrum:
    """Eigenstructure of the Gaussian bottleneck solution.

    lam are the ascending eigenvalues (clamped to [0, 1]) of the pencil
    (C_{X|Y}, C_X), vectors holds the corresponding left eigenvectors of
    C_{X|Y} C_X^{-1} as rows, r_i = v_i^T C_X v_i, and beta_crit the critical
    trade-off values where each component activates.
    """

    lam: np.ndarray
    vectors: np.ndarray
    r: np.ndarray
    beta_crit: np.ndarray
    c_x: np.ndarray
    c_x_given_y: np.ndarray

    @property
    def mi_nats(self) -> float:
        """I(X;Y) of the Gaussian pair: -0.5 sum ln lambda_i (over lambda < 1)."""
        lam = np.clip(self.lam, _LAMBDA_FLOOR, 1.0)
        return float(-0.5 * np.log(lam).sum())


def gib_spectrum(c_x, c_y, c_xy) -> GibSpectrum:
    """Eigen-decomposition driving the Gaussian bottleneck.

    Solves the symmetric definite pencil C_{X|Y} v = lambda C_X v with
    C_{X|Y} = C_X - C_XY C_Y^{-1} C_XY^T; eigenvalues are clamped to [0, 1].
    """
    c_x = np.atleast_2d(np.asarray(c_x, dtype=float))
    c_y = np.atleast_2d(np.asarray(c_y, dtype=float))
    c_xy = np.atleast_2d(np.asarray(c_xy, dtype=float))
    dx, dy = c_x.shape[0], c_y.shape[0]
    if c_x.shape != (dx, dx) or c_y.shape != (dy, dy) or c_xy.shape != (dx, dy):
        raise InvalidCovarianceError("covariance block shapes are inconsistent")

    for name, m in (("C_X", c_x), ("C_Y", c_y)):
        scale = max(float(np.trace(m)) / m.shape[0], 1e-300)
        if np.linalg.eigvalsh(m)[0] <= 1e-12 * max(scale, 1.0):
            raise ConditioningError(
                f"{name} is numerically singular; add a ridge before calling"
            )
    joint = np.block([[c_x, c_xy], [c_xy.T, c_y]])
    if np.linalg.eigvalsh(joint)[0] < -1e-8 * max(1.0, np.abs(joint).max()):
        raise InvalidCovarianceError("joint covariance is not PSD")

    c_xgy = c_x - c_xy @ np.linalg.solve(c_y, c_xy.T)
    c_xgy = (c_xgy + c_xgy.T) / 2.0
    lam, vecs = scipy.linalg.eigh(c_xgy, c_x)
    if lam.max() > 1.0 + 1e-6 or lam.min() < -1e-6:
        raise InvalidCovarianceError("conditional-covariance eigenvalues leave [0, 1]")
    lam = np.clip(lam, 0.0, 1.0)
    vectors = vecs.T
    r = np.einsum("id,de,ie->i", vectors, c_x, vectors)
    with np.errstate(divide="ignore"):
        beta_crit = np.where(lam >= 1.0, np.inf, 1.0 / (1.0 - lam))
    return GibSpectrum(
        lam=lam,
        vectors=vectors,
        r=r,
        beta_crit=beta_crit,
        c_x=c_x,
        c_x_given_y=c_xgy,
    )


def projection_coefficients(spec: GibSpectrum, beta: float):
    """Per-component coefficients a_i at trade-off beta.

    Returns ``(a, active, saturated)``: the coefficient vector (zero for
    inactive components), the strict-activation mask beta > beta_i, and a
    flag set when a deterministic component (lambda ~ 0) had to be capped.
    """
    if beta <= 0:
        raise DomainError("beta must be positive")
    lam, r = spec.lam, spec.r
    gain = beta * (1.0 - lam) - 1.0
    active = gain > 0.0
    a = np.zeros_like(lam)
    saturated = False
    lam_safe = np.maximum(lam, _LAMBDA_FLOOR)
    a_sq = np.where(active, gain / (lam_safe * r), 0.0)
    cap = np.expm1(2.0 * _CAP_NATS) / r
    over = active & ((lam <= _LAMBDA_FLOOR) | (a_sq > cap))
    if np.any(over):
        saturated = True
        a_sq = np.where(over, cap, a_sq)
    a = np.sqrt(a_sq)
    return a, active, saturated


def gib_projection(spec: GibSpectrum, beta: float) -> np.ndarray:
    """Projection matrix A(beta); one row per active component (possibly none)."""
    a, active, _ = projection_coefficients(spec, beta)
    return a[active, None] * spec.vectors[active]


def gib_point_info(a_mat, c_x, c_x_given_y) -> tuple[float, float]:
    """(I(T;X), I(T;Y)) in nats for T = A X + unit-covariance Gaussian noise.

    I(T;X) = 0.5 ln det(I + A C_X A^T) and
    I(T;Y) = I(T;X) - 0.5 ln det(I + A C_{X|Y} A^T).
    """
    a_mat = np.atleast_2d(np.asarray(a_mat, dtype=float))
    if a_mat.size == 0 or a_mat.shape[0] == 0:
        return 0.0, 0.0
    c_x = np.atleast_2d(np.asarray(c_x, dtype=float))
    c_x_given_y = np.atleast_2d(np.asarray(c_x_given_y, dtype=float))
    m = a_mat.shape[0]
    eye = np.eye(m)
    _, ld_x = np.linalg.slogdet(eye + a_mat @ c_x @ a_mat.T)
    _, ld_res = np.linalg.slogdet(eye + a_mat @ c_x_given_y @ a_mat.T)
    i_tx = 0.5 * ld_x
    return float(i_tx), float(i_tx - 0.5 * ld_res)


@dataclass(frozen=True)
class IBCurve:
    """Ordered (beta, I_TX, I_TY) points of an information trade-off curve."""

    beta: np.ndarray
    i_tx: np.ndarray
    i_ty: np.ndarray
    units: str = "nats"

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=float)
        tx = np.asarray(self.i_tx, dtype=float)
        ty = np.asarray(self.i_ty, dtype=float)
        if not (b.shape == tx.shape == ty.shape) or b.ndim != 1:
            raise DomainError("IBCurve arrays must be 1-D and equally shaped")
        if self.units not in ("nats", "bits"):
            raise DomainError("units must be 'nats' or 'bits'")
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "i_tx", tx)
        object.__setattr__(self, "i_ty", ty)

    def __len__(self) -> int:
        return self.beta.size

    def validate(self, concavity_tol: float = 1e-6) -> None:
        """Assert the trade-off invariants: DPI, monotonicity, concavity."""
        if np.any(self.i_ty > self.i_tx + 1e-9):
            raise DomainError("I_TY exceeds I_TX somewhere on the curve")
        if np.any(np.diff(self.i_tx) < -1e-9) or np.any(np.diff(self.i_ty) < -1e-9):
            raise DomainError("curve coordinates must be nondecreasing in beta")
        tx, ty = self.i_tx, self.i_ty
        for m in range(1, len(tx) - 1):
            span = tx[m + 1] - tx[m - 1]
            if span <= 1e-12:
                continue
            w = (tx[m] - tx[m - 1]) / span
            chord = (1.0 - w) * ty[m - 1] + w * ty[m + 1]
            if ty[m] < chord - concavity_tol:
                raise DomainError(f"concavity violated at point {m}")

    def in_units(self, units: str) -> "IBCurve":
        if units == self.units:
            return self
        factor = 1.0 / NATS_PER_BIT if units == "bits" else NATS_PER_BIT
        return IBCurve(self.beta, self.i_tx * factor, self.i_ty * factor, units)

    def ity_at(self, i_tx_query) -> np.ndarray:
        """Interpolated I_TY at given I_TX values (clamped to the curve range)."""
        order = np.argsort(self.i_tx, kind="stable")
        return np.interp(np.asarray(i_tx_query, dtype=float), self.i_tx[order], self.i_ty[order])


def default_beta_grid(spec: GibSpectrum, num: int = 200) -> np.ndarray:
    """200 log-spaced trade-off values from 0.9 x first activation to 100 x."""
    if num < 1:
        raise ParameterError("a beta grid needs at least one point")
    b1 = spec.beta_crit[0]
    if not np.isfinite(b1):
        return np.logspace(0.0, 1.0, num)
    return np.logspace(np.log10(0.9 * b1), np.log10(100.0 * b1), num)


def gib_curve(spec: GibSpectrum, beta_grid=None, units: str = "nats") -> IBCurve:
    """Analytic bottleneck curve of a Gaussian pair over a beta grid."""
    grid = default_beta_grid(spec) if beta_grid is None else np.asarray(beta_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise DomainError("beta grid must be 1-D and strictly ascending")
    tx = np.empty(grid.size)
    ty = np.empty(grid.size)
    for idx, beta in enumerate(grid):
        a, active, _ = projection_coefficients(spec, beta)
        # the eigenbasis diagonalizes both quadratic forms, so the dets reduce
        # to per-component products
        gain_x = a[active] ** 2 * spec.r[active]
        tx[idx] = 0.5 * np.log1p(gain_x).sum()
        ty[idx] = tx[idx] - 0.5 * np.log1p(gain_x * spec.lam[active]).sum()
    curve = IBCurve(grid, tx, ty, "nats")
    curve.validate()
    return curve.in_units(units)
