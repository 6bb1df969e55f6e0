"""Exponential-family kernels and double-exponential-family (DEF) densities.

A natural EF in regression form has log-density
``(theta*y - b(theta))/phi + c(y, phi)``.  The DEF extends it with a
dispersion parameter ``gamma > 0``:

    log f = log C + 0.5*log(gamma)
            + gamma * (y*theta - b(theta)) / phi
            + (1 - gamma) * (y*theta(y) - b(theta(y))) / phi
            + c(y, phi),

where ``theta(y)`` is the saturated natural parameter and ``C`` is the exact
normalizing constant.  ``gamma < 1`` models overdispersion, ``gamma > 1``
underdispersion.  Likelihood work elsewhere in the package uses the ``C = 1``
convention; the exact ``C`` is computed here for the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, gammaln

from .errors import ConfigError, DomainError, NumericError

# Largest Poisson tail mass beyond the truncation cap that the discrete
# tables accept; a fatter tail raises NumericError.
TAIL_TOL = 1e-12

# Observations per sampling table: amortises numpy call overhead for ~1.5 MB.
TABLE_ROWS = 32


def _poisson_cap(mean: float) -> int:
    # Keeps tail mass below ~1e-12 for every regime used in the simulations.
    return int(max(10.0 * mean + 100.0, 200.0))


class FamilyKernel:
    """EF building blocks: partition function b and friends.

    Subclasses provide b, its first three derivatives, the inverse mean map,
    the saturated term ``y*theta(y) - b(theta(y))`` (with the boundary
    convention ``0*log(0) := 0``), the base measure ``c(y, phi)`` and the
    empirical natural parameter that warm-starts a fit.
    """

    name: str = "base"
    discrete: bool = False
    # Bound on the linear predictor theta while fitting: divergent
    # hyperparameters are expected under random-search CV and must not overflow.
    theta_clamp: float = 30.0

    def b(self, theta):
        raise NotImplementedError

    def b_prime(self, theta):
        raise NotImplementedError

    def b_second(self, theta):
        raise NotImplementedError

    def b_third(self, theta):
        raise NotImplementedError

    def b_and_mean(self, theta):
        """(b(theta), b'(theta)), the bits of the two separate calls."""
        return self.b(theta), self.b_prime(theta)

    def mean_to_theta(self, mu):
        raise NotImplementedError

    def saturated_term(self, y):
        """y*theta(y) - b(theta(y)) evaluated by its boundary limit."""
        raise NotImplementedError

    def empirical_theta(self, y):
        """theta(y) kept finite at the edges of the support."""
        raise NotImplementedError

    def base_measure(self, y, scale):
        """c(y, phi)."""
        raise NotImplementedError

    def in_support(self, y) -> np.ndarray:
        raise NotImplementedError

    def check_support(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        ok = self.in_support(y)
        if not np.all(ok):
            bad = np.atleast_1d(y)[~np.atleast_1d(ok)]
            raise DomainError(f"{self.name}: values outside support: {bad[:5]}")
        return y

    def support_grid(self, mean: float) -> np.ndarray:
        """Truncated support grid for discrete kernels."""
        raise NotImplementedError(f"{self.name} has no discrete support grid")


class GaussianKernel(FamilyKernel):
    """b(theta) = theta^2/2, support R.  The DEF is exactly N(theta, phi/gamma)."""

    name = "gaussian"
    theta_clamp = 1e8

    def b(self, theta):
        theta = np.asarray(theta, dtype=float)
        return 0.5 * theta**2

    def b_prime(self, theta):
        return np.asarray(theta, dtype=float) + 0.0

    def b_second(self, theta):
        return np.ones_like(np.asarray(theta, dtype=float))

    def b_third(self, theta):
        return np.zeros_like(np.asarray(theta, dtype=float))

    def mean_to_theta(self, mu):
        return np.asarray(mu, dtype=float) + 0.0

    def saturated_term(self, y):
        y = np.asarray(y, dtype=float)
        return 0.5 * y**2

    def empirical_theta(self, y):
        return np.asarray(y, dtype=float)

    def base_measure(self, y, scale):
        y = np.asarray(y, dtype=float)
        return -0.5 * y**2 / scale - 0.5 * np.log(2.0 * np.pi * scale)

    def in_support(self, y):
        return np.isfinite(np.asarray(y, dtype=float))


class PoissonKernel(FamilyKernel):
    """b(theta) = exp(theta), support {0, 1, 2, ...}, phi = 1 in GLM use."""

    name = "poisson"
    discrete = True

    def b(self, theta):
        return np.exp(np.asarray(theta, dtype=float))

    b_prime = b_second = b_third = b  # exp is its own derivative

    def b_and_mean(self, theta):
        e = self.b(theta)
        return e, e

    def mean_to_theta(self, mu):
        mu = np.asarray(mu, dtype=float)
        if np.any(mu <= 0):
            raise DomainError("poisson: mean must be positive")
        return np.log(mu)

    def saturated_term(self, y):
        y = np.asarray(y, dtype=float)
        # y*log(y) - y with the 0*log(0) := 0 convention at y = 0.
        return np.where(y > 0, y * np.log(np.where(y > 0, y, 1.0)) - y, 0.0)

    def empirical_theta(self, y):
        return np.log(np.maximum(y, 0.5))

    def base_measure(self, y, scale):
        y = np.asarray(y, dtype=float)
        return -gammaln(y + 1.0)

    def in_support(self, y):
        y = np.asarray(y, dtype=float)
        return np.isfinite(y) & (y >= 0) & (y == np.floor(y))

    def support_grid(self, mean: float) -> np.ndarray:
        return np.arange(_poisson_cap(mean) + 1, dtype=float)


class BinomialKernel(FamilyKernel):
    """b(theta) = N*log(1 + exp(theta)), support {0, ..., N}, phi = 1.

    The trial count is baked into b, so the base variance function is
    V(mu) = mu*(N - mu)/N.
    """

    name = "binomial"
    discrete = True

    def __init__(self, trials: int):
        if not (1 <= trials < np.inf and int(trials) == trials):
            raise DomainError(f"binomial: trials must be a positive integer, got {trials}")
        self.trials = int(trials)

    def b(self, theta):
        theta = np.asarray(theta, dtype=float)
        # log(1 + e^t) = max(t, 0) + log1p(exp(-|t|)), stable for large |t|.
        return self.trials * (np.maximum(theta, 0.0) + np.log1p(np.exp(-np.abs(theta))))

    def b_prime(self, theta):
        return self.trials * expit(np.asarray(theta, dtype=float))

    def b_second(self, theta):
        s = expit(np.asarray(theta, dtype=float))
        return self.trials * s * (1.0 - s)

    def b_third(self, theta):
        s = expit(np.asarray(theta, dtype=float))
        return self.trials * s * (1.0 - s) * (1.0 - 2.0 * s)

    def mean_to_theta(self, mu):
        mu = np.asarray(mu, dtype=float)
        if np.any((mu <= 0) | (mu >= self.trials)):
            raise DomainError(f"binomial: mean must lie in (0, {self.trials})")
        return np.log(mu / (self.trials - mu))

    def saturated_term(self, y):
        y = np.asarray(y, dtype=float)
        n = float(self.trials)
        # Entropy form y*log(y/N) + (N-y)*log((N-y)/N); limits 0 at y in {0, N}.
        ya = np.where(y > 0, y, 1.0)
        yb = np.where(y < n, n - y, 1.0)
        return np.where(y > 0, y * np.log(ya / n), 0.0) + np.where(
            y < n, (n - y) * np.log(yb / n), 0.0
        )

    def empirical_theta(self, y):
        n = float(self.trials)
        return np.log((y + 0.5) / (n - y + 0.5))

    def base_measure(self, y, scale):
        y = np.asarray(y, dtype=float)
        n = float(self.trials)
        return gammaln(n + 1.0) - gammaln(y + 1.0) - gammaln(n - y + 1.0)

    def in_support(self, y):
        y = np.asarray(y, dtype=float)
        return np.isfinite(y) & (y >= 0) & (y <= self.trials) & (y == np.floor(y))

    def support_grid(self, mean: float) -> np.ndarray:
        return np.arange(self.trials + 1, dtype=float)


@dataclass(frozen=True)
class DefParams:
    """Per-observation DEF parameters.

    theta: natural parameter; gamma: dispersion (> 0); phi: scale (> 0).
    """

    theta: float
    gamma: float
    phi: float = 1.0

    def __post_init__(self):
        if not self.gamma > 0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")
        if not 0 < self.phi < np.inf:
            raise DomainError(f"phi must be finite and positive, got {self.phi}")


def _unnormalized_logpmf(kernel, theta, gamma, scale, y):
    """log f with C = 1; theta, gamma and y broadcast against each other."""
    return (
        0.5 * np.log(gamma)
        + gamma * (y * theta - kernel.b(theta)) / scale
        + (1.0 - gamma) * kernel.saturated_term(y) / scale
        + kernel.base_measure(y, scale)
    )


def _discrete_table(kernel, thetas, gammas, scale):
    """(grid, pmf rows, exact C per row) on the support grid of the largest mean."""
    thetas = np.asarray(thetas, dtype=float)[:, None]
    gammas = np.asarray(gammas, dtype=float)[:, None]
    grid = kernel.support_grid(float(np.max(kernel.b_prime(thetas))))
    logq = _unnormalized_logpmf(kernel, thetas, gammas, scale, grid)
    m = logq.max(axis=1, keepdims=True)
    q = np.exp(logq - m)
    total = q.sum(axis=1, keepdims=True)

    if kernel.name == "poisson":
        # Geometric tail estimate from each row's last ratio: the pmf must decay
        # at the cap; a last term of 0 underflowed relative to the mode.
        last = q[:, -1]
        with np.errstate(all="ignore"):
            ratio = last / q[:, -2]
            tail = last * ratio / (1.0 - ratio) / total[:, 0]
        failed = (last > 0.0) & ((ratio >= 1.0) | (tail > TAIL_TOL))
        if failed.any():
            i = int(np.argmax(failed))
            raise NumericError(
                f"poisson truncation at {len(grid) - 1} not convergent: last ratio "
                f"{ratio[i]:.3g}, tail mass {tail[i]:.3g} against {TAIL_TOL:.3g} "
                f"(theta={float(thetas[i, 0])}, gamma={float(gammas[i, 0])})"
            )
    return grid, q / total, 1.0 / (total[:, 0] * np.exp(m[:, 0]))


def def_pmf(kernel, params: DefParams):
    """Exactly normalized pmf over the truncated support (discrete kernels).

    Returns (support values, probabilities): a one-row table, used by the
    moment routine and the verification tests.
    """
    if not kernel.discrete:
        raise DomainError(f"{kernel.name} has no discrete pmf")
    grid, p, _ = _discrete_table(kernel, [params.theta], [params.gamma], params.phi)
    return grid, p[0]


def def_normalizer(kernel, params: DefParams) -> float:
    """Exact normalizing constant C(gamma, theta).

    Gaussian: closed form (the DEF is exactly N(theta, phi/gamma), so
    C = 1).  Discrete: reciprocal of the truncated sum of the unnormalized pmf.
    """
    if not kernel.discrete:
        return 1.0
    return float(_discrete_table(kernel, [params.theta], [params.gamma], params.phi)[2][0])


def def_log_density(kernel, params: DefParams, y, normalized: bool = False):
    """log f_{gamma,theta}(y); with ``normalized`` off, uses the C = 1 convention."""
    out = _unnormalized_logpmf(kernel, params.theta, params.gamma,
                               params.phi, kernel.check_support(y))
    if normalized:
        out = out + np.log(def_normalizer(kernel, params))
    return out


def def_moments(kernel, params: DefParams):
    """Exact (mean, variance) of the normalized DEF."""
    if not kernel.discrete:
        return float(params.theta), float(params.phi / params.gamma)
    grid, p = def_pmf(kernel, params)
    mean = float(np.dot(p, grid))
    var = float(np.dot(p, (grid - mean) ** 2))
    return mean, var


def def_sample_each(kernel, thetas, gammas, rng: np.random.Generator,
                    phi: float = 1.0) -> np.ndarray:
    """One draw per observation with per-observation (theta, gamma).

    Gaussian: the closed form N(theta, phi/gamma).  Discrete kernels: one
    uniform per observation, searched in the rows of (``TABLE_ROWS`` x
    support) inverse-CDF tables.
    """
    thetas = np.asarray(thetas, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    if not (np.all(gammas > 0) and phi > 0):
        raise DomainError(f"phi ({phi}) and the gamma of every observation must be positive")
    if not kernel.discrete:
        return rng.normal(thetas, np.sqrt(phi / gammas))
    u = rng.random(thetas.size)
    out = np.empty_like(thetas)
    for start in range(0, thetas.size, TABLE_ROWS):
        rows = slice(start, start + TABLE_ROWS)
        grid, p, _ = _discrete_table(kernel, thetas[rows], gammas[rows], phi)
        idx = (np.cumsum(p, axis=1) <= u[rows, None]).sum(axis=1)
        out[rows] = grid[np.minimum(idx, len(grid) - 1)]
    return out


FAMILIES = ("gaussian", "dpoisson", "dbinomial")


def kernel_for(family: str, trials: int) -> FamilyKernel:
    """Kernel of a model family; ``trials`` is used by ``dbinomial`` only."""
    if family == "gaussian":
        return GaussianKernel()
    if family == "dpoisson":
        return PoissonKernel()
    if family == "dbinomial":
        return BinomialKernel(trials)
    raise ConfigError(f"family must be one of {FAMILIES}, got {family!r}")

