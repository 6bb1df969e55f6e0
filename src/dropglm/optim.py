"""Stochastic gradient ascent with ADADELTA step sizes.

Each iteration samples a mini-batch without replacement, draws fresh dropout
noise for the batch, evaluates the batch score at the perturbed features
(equivalently the perturbed coefficients) and applies per-coordinate
ADADELTA updates with separate accumulators for the mean and dispersion
blocks.  The same engine also runs the penalized baseline: quadratic
coefficient penalties simply contribute their gradient to the score.

Determinism contract: identical seeds, data and configs produce bitwise
identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dropout import NoiseSpec
from .errors import ConfigError
from .model import GlmSpec, loglik_terms

# Safety clamps applied to linear predictors during fitting only; divergent
# hyperparameters are expected under random-search CV and must not overflow.
_ETA_CLAMP = 15.0
_THETA_CLAMPS = {"gaussian": 1e8, "poisson": 30.0, "binomial": 30.0}


@dataclass(frozen=True)
class OptimConfig:
    batch_size: int = 30
    max_iters: int = 200_000
    window: int = 200           # stationarity window, in iterations
    tol: float = 1e-6           # relative change of windowed mean log-likelihood
    rho: float = 0.95           # ADADELTA decay
    eps: float = 1e-6           # ADADELTA stabilizer
    trace_every: int = 100
    avg_window: int = 2000      # tail-averaging window for the returned estimate
    seed: int | None = None

    def __post_init__(self):
        if self.batch_size < 1 or self.max_iters < 1 or self.trace_every < 1:
            raise ConfigError("batch_size, max_iters and trace_every must be positive")
        if not 0.0 < self.rho < 1.0:
            raise ConfigError(f"rho must be in (0,1), got {self.rho}")
        if self.eps <= 0 or self.tol <= 0 or self.window < 1 or self.avg_window < 1:
            raise ConfigError("eps, tol, window and avg_window must be positive")


@dataclass(frozen=True)
class FitResult:
    beta: np.ndarray
    alpha: np.ndarray
    n_iter: int
    trace_iters: np.ndarray
    trace_loglik: np.ndarray
    termination: str  # "max-iter" | "stationary"
    rejected_steps: int = 0

    @property
    def diverged(self) -> bool:
        return not (np.all(np.isfinite(self.beta)) and np.all(np.isfinite(self.alpha)))


@dataclass
class AdadeltaState:
    avg_sq_grad: np.ndarray
    avg_sq_step: np.ndarray

    @staticmethod
    def zeros(dim: int) -> "AdadeltaState":
        return AdadeltaState(np.zeros(dim), np.zeros(dim))


def adadelta_step(state: AdadeltaState, grad: np.ndarray, rho: float,
                  eps: float):
    """One ADADELTA recurrence; returns (step along grad, new state).

    E[g^2] <- rho E[g^2] + (1-rho) g^2
    step    = sqrt((E[s^2] + eps) / (E[g^2] + eps)) * grad
    E[s^2] <- rho E[s^2] + (1-rho) step^2
    """
    if state.avg_sq_grad.shape != grad.shape:
        raise ConfigError("accumulator and gradient lengths differ")
    avg_sq_grad = rho * state.avg_sq_grad + (1.0 - rho) * grad**2
    step = np.sqrt((state.avg_sq_step + eps) / (avg_sq_grad + eps)) * grad
    avg_sq_step = rho * state.avg_sq_step + (1.0 - rho) * step**2
    return step, AdadeltaState(avg_sq_grad, avg_sq_step)


def warm_start_beta(spec: GlmSpec, y) -> np.ndarray:
    """Ridge-stabilized least squares of the link-transformed response."""
    kernel = spec.kernel
    if kernel.name == "gaussian":
        t = np.asarray(y, dtype=float)
    elif kernel.name == "poisson":
        t = np.log(np.maximum(y, 0.5))
    else:
        n = float(kernel.trials)
        t = np.log((y + 0.5) / (n - y + 0.5))
    X = spec.X
    ridge = 1e-6 * X.shape[0]
    return np.linalg.solve(X.T @ X + ridge * np.eye(X.shape[1]), X.T @ t)


def fit(spec: GlmSpec, y, noise: NoiseSpec, config: OptimConfig,
        rng: np.random.Generator | None = None, penalty=None) -> FitResult:
    """SGD ascent of the (noise-perturbed, optionally penalized) likelihood.

    ``penalty`` is an optional object with a ``gradient(beta, alpha)`` method
    returning the gradient of the penalty to subtract from the score and a
    ``value(beta, alpha)`` method entering the traced objective (used by the
    penalized-MLE baseline).
    """
    if rng is None:
        if config.seed is None:
            raise ConfigError("fit needs an rng or a config seed")
        rng = np.random.default_rng(config.seed)
    y = spec.kernel.check_support(y)
    n = spec.n
    if config.batch_size > n:
        raise ConfigError(f"batch size {config.batch_size} exceeds n={n}")

    kernel = spec.kernel
    X, Z = spec.X, spec.Z
    r = spec.dispersion_scale
    sat = kernel.saturated_term(y)
    theta_clamp = _THETA_CLAMPS[kernel.name]
    scale = n / config.batch_size

    beta = warm_start_beta(spec, y)
    alpha = np.zeros(Z.shape[1])
    state_b = AdadeltaState.zeros(X.shape[1])
    state_a = AdadeltaState.zeros(Z.shape[1])

    use_noise = noise.kind != "none"
    mean_noise = use_noise and noise.mean_param > 0
    disp_noise = use_noise and noise.disp_param > 0

    # The returned estimate is the average of the trailing iterates: ADADELTA
    # steps do not vanish at an optimum, so the chain jitters (mini-batch
    # noise) or limit-cycles symmetrically (stiff penalties); tail averaging
    # removes both.
    buf_len = min(config.avg_window, config.max_iters)
    ring = np.empty((buf_len, X.shape[1] + Z.shape[1]))

    points_per_window = max(1, config.window // config.trace_every)
    trace_iters: list[int] = []
    trace_vals: list[float] = []
    rejected = 0
    termination = "max-iter"
    it = 0

    for it in range(1, config.max_iters + 1):
        idx = rng.choice(n, size=config.batch_size, replace=False)
        Xb = X[idx]
        Zb = Z[idx]
        if mean_noise:
            Xb = Xb * noise.draw("mean", Xb.shape, rng)
        if disp_noise:
            Zb = Zb * noise.draw("disp", Zb.shape, rng)
        rb = r[idx]
        yb = y[idx]

        theta = np.clip(Xb @ beta, -theta_clamp, theta_clamp)
        eta = np.clip(Zb @ alpha, -_ETA_CLAMP, _ETA_CLAMP)
        gamma = np.exp(eta)
        g_beta = scale * (Xb.T @ (gamma * (yb - kernel.b_prime(theta)) / rb))
        gap = (yb * theta - kernel.b(theta) - sat[idx]) / rb
        g_alpha = scale * (Zb.T @ (0.5 + gamma * gap))
        if penalty is not None:
            pg_beta, pg_alpha = penalty.gradient(beta, alpha)
            g_beta = g_beta - pg_beta
            g_alpha = g_alpha - pg_alpha

        if not (np.all(np.isfinite(g_beta)) and np.all(np.isfinite(g_alpha))):
            rejected += 1
        else:
            step_b, state_b = adadelta_step(state_b, g_beta, config.rho, config.eps)
            step_a, state_a = adadelta_step(state_a, g_alpha, config.rho, config.eps)
            beta = beta + step_b
            alpha = alpha + step_a
        slot = ring[(it - 1) % buf_len]
        slot[: X.shape[1]] = beta
        slot[X.shape[1] :] = alpha

        if it % config.trace_every == 0:
            value = float(np.sum(loglik_terms(
                kernel, np.clip(X @ beta, -theta_clamp, theta_clamp),
                np.clip(Z @ alpha, -_ETA_CLAMP, _ETA_CLAMP), y, r)))
            if penalty is not None:
                value -= penalty.value(beta, alpha)
            trace_iters.append(it)
            trace_vals.append(value)
            if len(trace_vals) >= 2 * points_per_window:
                recent = np.mean(trace_vals[-points_per_window:])
                prev = np.mean(trace_vals[-2 * points_per_window : -points_per_window])
                denom = 1.0 + abs(prev)
                if np.isfinite(recent) and abs(recent - prev) <= config.tol * denom:
                    termination = "stationary"
                    break

    # Average the most recent iterates, never reaching into the first half
    # of the run (warm-up transient).
    take = min(buf_len, it, max(1, it // 2))
    rows = (np.arange(it - take, it)) % buf_len
    avg = ring[rows].mean(axis=0)
    return FitResult(
        beta=avg[: X.shape[1]],
        alpha=avg[X.shape[1] :],
        n_iter=it,
        trace_iters=np.asarray(trace_iters, dtype=int),
        trace_loglik=np.asarray(trace_vals, dtype=float),
        termination=termination,
        rejected_steps=rejected,
    )
