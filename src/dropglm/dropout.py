"""Multiplicative dropout noise and its induced penalties.

Dropout perturbs features elementwise with unit-mean noise.  For linear
predictors this is equivalent to perturbing the coefficients, and averaging
the perturbed negative log-likelihood yields the maximum-likelihood objective
plus a nonnegative penalty (Jensen, since b is convex).  This module provides

* the Monte-Carlo estimate of the dropout objective (the independent oracle
  against which every closed form is checked),
* the per-observation exact penalty gap,
* the closed-form penalty matrices W, Theta, Gamma, Lambda, W~, Theta~,
* the closed-form approximation of the doubly-perturbed objective
  (misspecified log-likelihood plus Tikhonov penalties) and its gradient,
* Taylor remainder formulas for the Poisson and binomial kernels under
  Gaussian mean-side noise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .families import frozen, loglik_terms
from .model import GlmSpec, fisher_weights, score_terms


@dataclass(frozen=True)
class NoiseSpec:
    """Dropout noise on the mean and dispersion side.

    Bernoulli: xi_j = Bernoulli(1-delta)/(1-delta); E[xi] = 1 and
    V[xi] = delta/(1-delta).  Gaussian: xi_j ~ N(1, sigma^2).  The two sides
    draw independently; a side whose parameter is 0 draws no noise.
    """

    kind: str = "bernoulli"  # or "gaussian"; NoiseSpec() draws no noise
    mean_param: float = 0.0  # delta_mu (bernoulli) or sigma_mu (gaussian)
    disp_param: float = 0.0  # delta_gamma or sigma_gamma
    operands: dict = field(init=False, repr=False, compare=False)  # draw's, per side

    def __post_init__(self):
        if self.kind not in ("bernoulli", "gaussian"):
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if self.kind == "bernoulli":
            for p in (self.mean_param, self.disp_param):
                if not 0.0 <= p < 1.0:
                    raise ConfigError(f"bernoulli dropout probability must be in [0,1), got {p}")
        if self.kind == "gaussian":
            for p in (self.mean_param, self.disp_param):
                if not 0.0 <= p < np.inf:
                    raise ConfigError(f"gaussian noise sd must be finite and "
                                      f"nonnegative, got {p}")
        sides = (("mean", self.mean_param), ("disp", self.disp_param))
        object.__setattr__(self, "operands", {
            side: (frozen(1.0 - p), frozen(1.0 / (1.0 - p))) if self.kind == "bernoulli"
            else (frozen(p), frozen(1.0)) for side, p in sides})

    def __reduce__(self):  # a copy rebuilds its read-only operands
        return NoiseSpec, (self.kind, self.mean_param, self.disp_param)

    def _variance(self, param: float) -> float:
        if self.kind == "bernoulli":
            return param / (1.0 - param)
        return param**2

    @property
    def mean_variance(self) -> float:
        """sigma_mu^2, the variance of a mean-side noise coordinate."""
        return self._variance(self.mean_param)

    @property
    def disp_variance(self) -> float:
        """sigma_gamma^2, the variance of a dispersion-side noise coordinate."""
        return self._variance(self.disp_param)

    def _operands(self, side: str) -> tuple:
        try:
            return self.operands[side]
        except (KeyError, TypeError):
            raise ConfigError(f"unknown noise side {side!r}; use 'mean' or 'disp'") from None

    def param(self, side: str) -> float:
        """The noise parameter of ``side``, 'mean' or 'disp'."""
        self._operands(side)
        return self.mean_param if side == "mean" else self.disp_param

    def draw(self, side: str, shape, rng: np.random.Generator) -> np.ndarray:
        """Unit-mean noise draws of any ``shape``; ``side`` is 'mean' or 'disp'.

        Every entry is an independent draw, so leading axes beyond the
        (rows, features) of one design may hold many draws at once, such as
        one (batches, batch size, band width) block per SGD epoch, drawn only
        for the columns of each row's band (``optim.noise_band``): noise on
        a zero feature has no effect, so the band's draws are the same model
        in law.
        """
        operands = self._operands(side)
        if self.kind == "bernoulli":
            keep, inv_keep = operands
            noise = rng.random(shape)
            return np.multiply(noise < keep, inv_keep, out=noise)
        sd, one = operands
        noise = rng.standard_normal(shape)
        noise *= sd
        noise += one
        return noise


@dataclass(frozen=True)
class PenaltySnapshot:
    """Diagonals of the closed-form penalty machinery (all length n or d)."""

    W: np.ndarray          # n; gamma_i b''(theta_i) / phi
    Theta: np.ndarray      # d_mu; diag(X'WX)^{1/2}
    Gamma: np.ndarray      # d_gamma; diag(Z'Z)^{1/2}
    Lambda: np.ndarray     # n; exp(sigma_g^2 ||z_i . alpha||^2 / 2)
    W_tilde: np.ndarray    # n; Lambda * W
    Theta_tilde: np.ndarray  # d_mu; diag(X'W~X)^{1/2}


@dataclass(frozen=True)
class McEstimate:
    value: float
    stderr: float


def chunk_sizes(draws: int, per_draw: int, budget: int = 4_000_000):
    """Sizes of consecutive chunks of ``draws`` items of ``per_draw`` floats
    each, every chunk within ``budget`` floats or one item long."""
    chunk = max(1, min(draws, budget // max(per_draw, 1)))
    done = 0
    while done < draws:
        size = min(chunk, draws - done)
        yield size
        done += size


def _per_draw_loglik(spec: GlmSpec, y, noise: NoiseSpec, size: int,
                     rng: np.random.Generator) -> np.ndarray:
    """(size,) totals of the log-likelihood under fresh per-observation noise."""
    xb = spec.X * spec.beta  # (n, d_mu); theta~ = sum_j x_ij beta_j xi_ij
    za = spec.Z * spec.alpha
    if noise.mean_param > 0:
        xi = noise.draw("mean", (size,) + xb.shape, rng)
        theta = np.einsum("cnd,nd->cn", xi, xb)
    else:
        theta = np.broadcast_to(xb.sum(axis=1), (size, len(y)))
    if noise.disp_param > 0:
        zeta = noise.draw("disp", (size,) + za.shape, rng)
        eta = np.einsum("cnd,nd->cn", zeta, za)
    else:
        eta = np.broadcast_to(za.sum(axis=1), (size, len(y)))
    return loglik_terms(spec.kernel, theta, eta, y, spec.phi).sum(axis=1)


def mc_dropout_objective(spec: GlmSpec, y, noise: NoiseSpec, draws: int,
                         rng: np.random.Generator) -> McEstimate:
    """Monte-Carlo estimate of sum_i -E[l_i(beta . xi_i, alpha . zeta_i)].

    Fresh independent noise per observation and per draw.  This is the
    independent oracle for every closed-form approximation in the package;
    pass equal-seeded generators to compare settings with common random
    numbers.
    """
    if draws < 1:
        raise ConfigError("draws must be >= 1")
    y = spec.kernel.check_support(y)
    per_draw = spec.n * max(spec.X.shape[1], spec.Z.shape[1])
    totals = -np.concatenate([_per_draw_loglik(spec, y, noise, size, rng)
                              for size in chunk_sizes(draws, per_draw)])
    return McEstimate(value=float(totals.mean()),
                      stderr=float(totals.std() / np.sqrt(draws)))


def exact_penalty_gap(spec: GlmSpec, noise: NoiseSpec, draws: int,
                      rng: np.random.Generator):
    """Per-observation MC estimates of gamma_i {E[b(x~'b)] - b(x'b)} / phi.

    Mean-side noise only.  Returns (gaps, standard errors); each gap is
    nonnegative in expectation by Jensen's inequality.
    """
    if noise.disp_variance > 0:
        raise ConfigError("exact_penalty_gap is defined for mean-side noise only")
    if draws < 1:
        raise ConfigError("draws must be >= 1")
    X = spec.X
    n, d = X.shape
    xb = X * spec.beta
    b_center = spec.kernel.b(spec.theta)
    count = 0
    s1 = np.zeros(n)
    s2 = np.zeros(n)
    for size in chunk_sizes(draws, n * d):
        xi = noise.draw("mean", (size, n, d), rng)
        theta = np.einsum("cnd,nd->cn", xi, xb)
        diff = spec.kernel.b(theta) - b_center  # centered, small near theta
        s1 += diff.sum(axis=0)
        s2 += (diff * diff).sum(axis=0)
        count += size
    mean = s1 / count
    var = np.maximum(s2 / count - mean**2, 0.0)
    scale = spec.gamma / spec.phi
    return scale * mean, scale * np.sqrt(var / count)


def penalty_matrices(spec: GlmSpec, noise: NoiseSpec) -> PenaltySnapshot:
    """Closed-form penalty diagonals.

    W_ii = gamma_i b''(theta_i)/phi; Theta = diag(X'WX)^{1/2};
    Gamma = diag(Z'Z)^{1/2}; Lambda_ii = exp(sigma_g^2 ||z_i . alpha||^2 / 2);
    W~ = Lambda W; Theta~ = diag(X'W~X)^{1/2}.
    """
    W = fisher_weights(spec)
    theta_diag = np.sqrt((spec.X**2 * W[:, None]).sum(axis=0))
    gamma_diag = np.sqrt((spec.Z**2).sum(axis=0))
    sg2 = noise.disp_variance
    lam = np.exp(0.5 * sg2 * ((spec.Z * spec.alpha) ** 2).sum(axis=1))
    W_tilde = lam * W
    theta_tilde = np.sqrt((spec.X**2 * W_tilde[:, None]).sum(axis=0))
    zero_cols = np.flatnonzero(theta_diag == 0.0)
    if zero_cols.size:
        warnings.warn(
            f"all-zero mean feature columns {zero_cols.tolist()} receive no "
            "dropout penalty and are unidentifiable",
            stacklevel=2,
        )
    return PenaltySnapshot(W=W, Theta=theta_diag, Gamma=gamma_diag, Lambda=lam,
                           W_tilde=W_tilde, Theta_tilde=theta_tilde)


def expected_noisy_dispersion(spec: GlmSpec, noise: NoiseSpec) -> np.ndarray:
    """E[gamma~_i] = gamma_i exp(sigma_g^2 ||z_i . alpha||^2 / 2).

    Exact for Gaussian dispersion noise (lognormal mean); applied to
    Bernoulli noise as a central-limit approximation.
    """
    sg2 = noise.disp_variance
    return np.exp(spec.log_gamma + 0.5 * sg2 * ((spec.Z * spec.alpha) ** 2).sum(axis=1))


def penalized_objective(spec: GlmSpec, y, noise: NoiseSpec) -> float:
    """Closed-form approximation of the doubly-perturbed dropout objective.

    sum_i -l~_i + (1/2) sigma_mu^2 ||Theta~ beta||^2
               + (1/4) sigma_g^2 ||Gamma alpha||^2,
    where l~_i evaluates the likelihood at dispersion E[gamma~_i].  Reduces
    to -loglik with both noise variances zero, and to the single-penalty
    mean-dropout form when sigma_gamma = 0.
    """
    y = spec.kernel.check_support(y)
    eta = np.log(expected_noisy_dispersion(spec, noise))
    snap = penalty_matrices(spec, noise)
    sm2 = noise.mean_variance
    sg2 = noise.disp_variance
    value = -float(np.sum(loglik_terms(spec.kernel, spec.theta, eta, y, spec.phi)))
    value += 0.5 * sm2 * float(np.sum((snap.Theta_tilde * spec.beta) ** 2))
    value += 0.25 * sg2 * float(np.sum((snap.Gamma * spec.alpha) ** 2))
    return value


def penalized_objective_grad(spec: GlmSpec, y, noise: NoiseSpec):
    """Analytic gradient of :func:`penalized_objective` w.r.t. (beta, alpha).

    Uses the exact cancellation of the (1/4) sigma_g^2 ||Gamma alpha||^2
    penalty against the matching term inside -l~_i, which leaves

        F = sum_i [ -eta_i/2 - Eg_i (A_i - S_i)/phi - S_i/phi
                    + c_i b''(theta_i) q_i ],

    with Eg_i = E[gamma~_i], c_i = (sigma_mu^2/2) Eg_i / phi and
    q_i = sum_j x_ij^2 beta_j^2: the A_i terms have the score weights of
    l_i at Eg_i in place of gamma_i.
    """
    y = spec.kernel.check_support(y)
    X, Z = spec.X, spec.Z
    theta = spec.theta
    e_gamma = expected_noisy_dispersion(spec, noise)
    u_beta, u_alpha = score_terms(spec.kernel, theta, e_gamma, y,
                                  spec.kernel.saturated_term(y), spec.phi)
    c = 0.5 * noise.mean_variance * e_gamma / spec.phi
    q = ((X * spec.beta) ** 2).sum(axis=1)
    b2 = spec.kernel.b_second(theta)
    # d Eg_i / d alpha = Eg_i (z_i + sigma_g^2 z_i^2 . alpha)
    za_sens = Z + noise.disp_variance * (Z**2) * spec.alpha
    grad_alpha = -0.5 * Z.sum(axis=0) + za_sens.T @ (c * b2 * q - (u_alpha - 0.5))
    grad_beta = (X.T @ (c * spec.kernel.b_third(theta) * q - u_beta)
                 + ((X**2).T @ (c * b2)) * (2.0 * spec.beta))
    return grad_beta, grad_alpha


def remainder_poisson(x, beta, sigma_mu: float) -> float:
    """Expected Taylor remainder for the Poisson kernel under Gaussian noise.

    With v = sigma_mu^2 * sum_j (x_j beta_j)^2 the perturbed predictor is
    N(x'beta, v), so E[b] - b - b'' v / 2 = exp(x'beta) (e^{v/2} - v/2 - 1)
    exactly (lognormal mean minus its quadratic expansion).
    """
    x = np.asarray(x, dtype=float)
    beta = np.asarray(beta, dtype=float)
    v = sigma_mu**2 * float(np.sum((x * beta) ** 2))
    return float(np.exp(x @ beta) * (np.expm1(0.5 * v) - 0.5 * v))


def remainder_binomial_bound(x, beta, sigma_mu: float, trials: int) -> float:
    """Upper bound on |expected Taylor remainder| for the binomial kernel.

    b = N log(1 + e^t) has derivatives bounded by N, so with v as above
    |E[R]| <= N (e^{v/2} - v/2 - 1) under Gaussian mean-side noise.
    """
    x = np.asarray(x, dtype=float)
    beta = np.asarray(beta, dtype=float)
    v = sigma_mu**2 * float(np.sum((x * beta) ** 2))
    return float(trials * (np.expm1(0.5 * v) - 0.5 * v))
