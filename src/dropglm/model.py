"""Extended GLM on a double exponential family.

Mean model: canonical link, theta_i = x_i^T beta.  Dispersion model: log
link, log gamma_i = z_i^T alpha.  The working log-likelihood uses the C = 1
convention and drops the base-measure term c(y, phi) (constant in beta and
alpha); pass ``include_base_measure=True`` where absolute values must be
comparable, e.g. held-out evaluation.

Per-observation term, :func:`dropglm.families.loglik_terms`:

    l_i = 0.5 * z_i^T alpha
          + exp(z_i^T alpha) * (y_i x_i^T beta - b(x_i^T beta)) / phi
          + (1 - exp(z_i^T alpha)) * (y_i theta(y_i) - b(theta(y_i))) / phi
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import SplineBasis, design_matrix
from .errors import ConfigError
from .families import FamilyKernel, frozen, kernel_for, loglik_terms

_HALF = frozen(0.5)


@dataclass(frozen=True)
class GlmSpec:
    """Immutable bundle of kernel, designs, coefficients and scale."""

    kernel: FamilyKernel
    X: np.ndarray
    Z: np.ndarray
    beta: np.ndarray
    alpha: np.ndarray
    phi: float = 1.0

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Z = np.asarray(self.Z, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        if X.ndim != 2 or Z.ndim != 2 or X.shape[0] != Z.shape[0]:
            raise ConfigError(f"design shapes disagree: X {X.shape}, Z {Z.shape}")
        if beta.shape != (X.shape[1],):
            raise ConfigError(f"beta length {beta.shape} vs X columns {X.shape[1]}")
        if alpha.shape != (Z.shape[1],):
            raise ConfigError(f"alpha length {alpha.shape} vs Z columns {Z.shape[1]}")
        if not 0 < self.phi < np.inf:
            raise ConfigError(f"phi must be finite and positive, got {self.phi}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha", alpha)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def theta(self) -> np.ndarray:
        return self.X @ self.beta

    @property
    def log_gamma(self) -> np.ndarray:
        return self.Z @ self.alpha

    @property
    def gamma(self) -> np.ndarray:
        return np.exp(self.log_gamma)

    def with_coefs(self, beta, alpha) -> "GlmSpec":
        return replace(self, beta=np.asarray(beta, dtype=float),
                       alpha=np.asarray(alpha, dtype=float))

    def rows(self, idx) -> "GlmSpec":
        return replace(self, X=self.X[idx], Z=self.Z[idx])


@dataclass(frozen=True)
class SplineModel:
    """The model every command fits: a DEF family with cubic B-spline bases
    on [lo, hi] for the mean and for the dispersion."""

    family: str
    trials: int = 70
    phi: float = 1.0
    mean_knots: int = 30
    disp_knots: int = 20
    lo: float = 0.0
    hi: float = 1.0
    boundary: str = "natural"

    def __post_init__(self):
        self.kernel()  # checks the family and trials
        if self.boundary not in ("natural", "cyclic"):
            raise ConfigError(f"boundary must be natural|cyclic, got {self.boundary!r}")
        if not 0 < self.phi < np.inf:
            raise ConfigError(f"phi must be finite and positive, got {self.phi}")
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ConfigError(f"lo and hi must be finite, got [{self.lo}, {self.hi}]")
        self.bases()  # checks the knot counts and lo < hi

    def kernel(self) -> FamilyKernel:
        return kernel_for(self.family, self.trials)

    def bases(self) -> tuple[SplineBasis, SplineBasis]:
        lo, hi = float(self.lo), float(self.hi)  # a JSON config may hold integers
        return (SplineBasis(lo, hi, self.mean_knots, self.boundary),
                SplineBasis(lo, hi, self.disp_knots, self.boundary))

    def spec(self, x) -> GlmSpec:
        """Designs at ``x`` with zero coefficients."""
        mean_basis, disp_basis = self.bases()
        X = design_matrix(mean_basis, x)
        Z = design_matrix(disp_basis, x)
        return GlmSpec(kernel=self.kernel(), X=X, Z=Z, beta=np.zeros(X.shape[1]),
                       alpha=np.zeros(Z.shape[1]), phi=self.phi)


def fitted_curves(kernel: FamilyKernel, B_mean, B_disp, beta, alpha):
    """(mean, dispersion) curves of fitted coefficients on evaluation designs:
    the response-scale mean b'(B_mean beta) and gamma = exp(B_disp alpha)."""
    return (kernel.b_prime(B_mean @ beta),
            np.exp(np.clip(B_disp @ alpha, -700, 700)))


@dataclass(frozen=True)
class ScoreReport:
    """Analytic first and second derivatives of the log-likelihood."""

    score_beta: np.ndarray
    score_alpha: np.ndarray
    hess_bb: np.ndarray
    hess_ba: np.ndarray
    hess_aa: np.ndarray


def loglik(spec: GlmSpec, y, include_base_measure: bool = False) -> float:
    """Sum of the per-observation terms l_i (C = 1 convention)."""
    y = spec.kernel.check_support(y)
    total = loglik_terms(spec.kernel, spec.theta, spec.log_gamma, y, spec.phi)
    if include_base_measure:
        total = total + spec.kernel.base_measure(y, spec.phi)
    return float(np.sum(total))


def score_terms(kernel: FamilyKernel, theta, gamma, y, sat, scale):
    """Per-observation score weights (u_beta, u_alpha) of l_i, with ``sat`` the
    saturated term of y and scale = phi; the scores are X'u_beta and Z'u_alpha.

    u_beta  = gamma (y - b'(theta)) / phi
    u_alpha = 1/2 + gamma (y theta - b(theta) - sat) / phi
    """
    b, mean = kernel.b_and_mean(theta)
    gap = y * theta
    gap -= b
    gap -= sat
    u_beta = gamma * (y - mean)
    if scale != 1.0:  # x / 1.0 == x to the bit
        gap /= scale
        u_beta /= scale
    u_alpha = gamma * gap
    u_alpha += _HALF
    return u_beta, u_alpha


def fisher_weights(spec: GlmSpec) -> np.ndarray:
    """Fisher weights of the mean model, W_ii = gamma_i b''(theta_i) / phi."""
    return spec.gamma * spec.kernel.b_second(spec.theta) / spec.phi


def score(spec: GlmSpec, y) -> ScoreReport:
    """Analytic gradients and the four Hessian blocks."""
    y = spec.kernel.check_support(y)
    X, Z = spec.X, spec.Z
    u_beta, u_alpha = score_terms(spec.kernel, spec.theta, spec.gamma, y,
                                  spec.kernel.saturated_term(y), spec.phi)
    # H_aa = -Z'diag(w_alpha)Z with w_alpha = 1/2 - u_alpha
    #      = gamma * (saturated - kernel deviance) / phi >= 0
    return ScoreReport(
        score_beta=X.T @ u_beta,
        score_alpha=Z.T @ u_alpha,
        hess_bb=-(X * fisher_weights(spec)[:, None]).T @ X,
        hess_ba=(X * u_beta[:, None]).T @ Z,
        hess_aa=(Z * (u_alpha - 0.5)[:, None]).T @ Z,
    )


def fisher_blocks(spec: GlmSpec):
    """Observed Fisher estimates: ((1/n) X'WX, (1/n) Z'Z).

    The dispersion block uses the w_alpha ~ 1 approximation, under which the
    per-observation weight drops out.
    """
    n = spec.n
    i_beta = (spec.X * fisher_weights(spec)[:, None]).T @ spec.X / n
    i_alpha = spec.Z.T @ spec.Z / n
    return i_beta, i_alpha


def unit_deviance(spec: GlmSpec, y) -> np.ndarray:
    """Per-observation EF deviance 2 * (saturated - kernel) / phi.

    Its model expectation is approximately 1/gamma_i, which underlies the
    w_alpha ~ 1 approximation in :func:`fisher_blocks`.
    """
    y = spec.kernel.check_support(y)
    theta = spec.theta
    sat = spec.kernel.saturated_term(y)
    return 2.0 * (sat - (y * theta - spec.kernel.b(theta))) / spec.phi
