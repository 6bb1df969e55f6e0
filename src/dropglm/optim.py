"""Stochastic gradient ascent with ADADELTA step sizes.

The randomness is drawn once per epoch of ``n // batch_size`` iterations: one
permutation of the rows, cut into the epoch's mini-batches (``epoch_batches``),
then one block of dropout noise per noisy side covering every batch of the
epoch.  Each iteration takes the next batch and its slice of the noise,
evaluates the batch score at the perturbed features (equivalently the
perturbed coefficients) and applies one ADADELTA update to the joint vector
(beta, alpha): the recurrences act coordinate by coordinate, so one state
gives the numbers of separate mean and dispersion states to the bit.  The
same engine also runs the penalized baseline: quadratic coefficient
penalties simply contribute their gradient to the score.

Determinism contract: identical seeds, data and configs produce bitwise
identical results, and the draws of a fit that stops early are a prefix of
those of the same fit run longer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dropout import NoiseSpec
from .errors import ConfigError
from .model import GlmSpec, loglik_terms, score_terms

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

    def __post_init__(self):
        if self.batch_size < 1 or self.max_iters < 1 or self.trace_every < 1:
            raise ConfigError("batch_size, max_iters and trace_every must be positive")
        if not 0.0 < self.rho < 1.0:
            raise ConfigError(f"rho must be in (0,1), got {self.rho}")
        if not (0 < self.eps < np.inf and 0 < self.tol < np.inf):
            raise ConfigError(f"eps and tol must be finite and positive: {self.eps}, {self.tol}")
        if self.window < 1 or self.avg_window < 1:
            raise ConfigError("window and avg_window must be positive")


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
        finite = np.all(np.isfinite(self.beta)) and np.all(np.isfinite(self.alpha))
        return not finite or self.rejected_steps == self.n_iter


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


def _clamp(v: np.ndarray, bound: float) -> np.ndarray:
    """``np.clip(v, -bound, bound)``, NaN included, at under half its cost."""
    return np.minimum(np.maximum(v, -bound), bound)


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


def epoch_batches(n: int, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """One epoch's mini-batches, an ``(n // batch_size, batch_size)`` array.

    Its rows are consecutive slices of one permutation of ``range(n)``, so
    each batch samples rows without replacement and no row appears twice in
    an epoch; the ``n % batch_size`` rows left over are dropped.
    """
    m = n // batch_size
    return rng.permutation(n)[: m * batch_size].reshape(m, batch_size)


def fit(spec: GlmSpec, y, noise: NoiseSpec, config: OptimConfig,
        rng: np.random.Generator, penalty=None) -> FitResult:
    """SGD ascent of the (noise-perturbed, optionally penalized) likelihood.

    ``penalty`` is an optional object with a ``gradient(beta, alpha)`` method
    returning the gradient of the penalty to subtract from the score and a
    ``value(beta, alpha)`` method entering the traced objective (used by the
    penalized-MLE baseline).
    """
    y = spec.kernel.check_support(y)
    n = spec.n
    if config.batch_size > n:
        raise ConfigError(f"batch size {config.batch_size} exceeds n={n}")

    kernel = spec.kernel
    X, Z = spec.X, spec.Z
    p, q = X.shape[1], Z.shape[1]
    phi = spec.phi
    sat = kernel.saturated_term(y)
    # One row gather per batch serves every per-observation input.
    data = np.column_stack([X, Z, y, sat])
    theta_clamp = _THETA_CLAMPS[kernel.name]
    scale = n / config.batch_size

    # One vector w = [beta; alpha]; beta and alpha are views into it.
    w = np.concatenate([warm_start_beta(spec, y), np.zeros(q)])
    beta, alpha = w[:p], w[p:]
    state = AdadeltaState.zeros(w.size)
    grad = np.empty(w.size)

    # The returned estimate is the average of the trailing iterates: ADADELTA
    # steps do not vanish at an optimum, so the chain jitters (mini-batch
    # noise) or limit-cycles symmetrically (stiff penalties); tail averaging
    # removes both.
    buf_len = min(config.avg_window, config.max_iters)
    ring = np.empty((buf_len, w.size))

    points_per_window = max(1, config.window // config.trace_every)
    trace_iters: list[int] = []
    trace_vals: list[float] = []
    rejected = 0
    termination = "max-iter"
    it = 0

    per_epoch = n // config.batch_size
    for it in range(1, config.max_iters + 1):
        b = (it - 1) % per_epoch
        if b == 0:
            # Each epoch draws, in this order, its batches and then the whole
            # epoch's noise for each noisy side, so the draws never depend on
            # when the fit stops.
            batches = epoch_batches(n, config.batch_size, rng)
            if noise.mean_param > 0:
                xi_mean = noise.draw("mean", batches.shape + (p,), rng)
            if noise.disp_param > 0:
                xi_disp = noise.draw("disp", batches.shape + (q,), rng)
        batch = data[batches[b]]
        Xb, Zb = batch[:, :p], batch[:, p:-2]
        yb, satb = batch[:, -2], batch[:, -1]
        if noise.mean_param > 0:
            Xb = Xb * xi_mean[b]
        if noise.disp_param > 0:
            Zb = Zb * xi_disp[b]

        theta = _clamp(Xb @ beta, theta_clamp)
        gamma = np.exp(_clamp(Zb @ alpha, _ETA_CLAMP))
        u_beta, u_alpha = score_terms(kernel, theta, gamma, yb, satb, phi)
        grad[:p] = Xb.T @ u_beta
        grad[p:] = Zb.T @ u_alpha
        grad *= scale
        if penalty is not None:
            grad -= np.concatenate(penalty.gradient(beta, alpha))

        # Also rejects a finite gradient whose square overflows in ADADELTA.
        if np.isfinite(grad @ grad):
            step, state = adadelta_step(state, grad, config.rho, config.eps)
            w += step
        else:
            rejected += 1
        ring[(it - 1) % buf_len] = w

        if it % config.trace_every == 0:
            value = float(np.sum(loglik_terms(
                kernel, _clamp(X @ beta, theta_clamp), _clamp(Z @ alpha, _ETA_CLAMP),
                y, phi)))
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
        beta=avg[:p],
        alpha=avg[p:],
        n_iter=it,
        trace_iters=np.asarray(trace_iters, dtype=int),
        trace_loglik=np.asarray(trace_vals, dtype=float),
        termination=termination,
        rejected_steps=rejected,
    )
