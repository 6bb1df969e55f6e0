"""Stochastic gradient ascent with ADADELTA step sizes.

The randomness is drawn once per epoch of ``n // batch_size`` iterations: one
permutation of the rows, cut into the epoch's mini-batches (``epoch_batches``),
then one block of dropout noise per noisy side covering every batch of the
epoch.  The epoch's design rows are gathered once into per-epoch blocks and
each noise block is multiplied into its design block once, so each iteration
only takes the next batch's block, evaluates the batch score at the
perturbed features (equivalently the perturbed coefficients) and applies
one ADADELTA update, in place, to the joint vector (beta, alpha): the
recurrences act coordinate by coordinate, so one state gives the numbers of
separate mean and dispersion states to the bit.  The same engine also runs
the penalized baseline: quadratic coefficient penalties simply contribute
their gradient to the score.

There is one loop, and it advances many fits at once: :func:`fit_many` puts
F fits on a leading fit axis, each naming its training rows of one shared
design by an index array, and :func:`fit` is its call with one fit on
``arange(n)``.  Each fit draws from its own generator, is checked and
stopped on its own, and gets the numbers it would get alone: the products
over the fit axis are stacked ``matmul`` calls, which give each fit the bits
of its own matrix-vector products.  The per-call overhead of numpy on small
arrays, which dominates one fit's iteration, is then shared by F fits.
:func:`lockstep_floats` states the memory one fit holds, so callers can
size their groups.

Determinism contract: identical seeds, data and configs produce bitwise
identical results, and the draws of a fit that stops early are a prefix of
those of the same fit run longer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dropout import NoiseSpec
from .errors import ConfigError
from .model import GlmSpec, loglik_terms, score_terms

# Safety clamps applied to linear predictors during fitting only; divergent
# hyperparameters are expected under random-search CV and must not overflow.
_ETA_CLAMP = 15.0
_THETA_CLAMPS = {"gaussian": 1e8, "poisson": 30.0, "binomial": 30.0}
# Below this, a sum of squared gradients over fits bounds each fit's own
# g'g far from overflow, whatever the order of summation.
_CLEAR_SQUARES = 1e300


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
    """One ADADELTA recurrence; returns (step along grad, state).

    E[g^2] <- rho E[g^2] + (1-rho) g^2
    step    = sqrt((E[s^2] + eps) / (E[g^2] + eps)) * grad
    E[s^2] <- rho E[s^2] + (1-rho) step^2

    ``state``'s two arrays are updated in place, and the state returned is
    the state given.
    """
    avg_sq_grad, avg_sq_step = state.avg_sq_grad, state.avg_sq_step
    if avg_sq_grad.shape != grad.shape:
        raise ConfigError("accumulator and gradient lengths differ")
    num = avg_sq_step + eps
    avg_sq_grad *= rho
    avg_sq_grad += (1.0 - rho) * (grad * grad)
    step = np.sqrt(num / (avg_sq_grad + eps)) * grad
    avg_sq_step *= rho
    avg_sq_step += (1.0 - rho) * (step * step)
    return step, state


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
    """SGD ascent of the (noise-perturbed, optionally penalized) likelihood on
    every row of ``spec``: :func:`fit_many` with one fit on ``arange(n)``.

    ``penalty`` is an optional object with a ``gradient(beta, alpha)`` method
    returning the gradient of the penalty to subtract from the score and a
    ``value(beta, alpha)`` method entering the traced objective (used by the
    penalized-MLE baseline).
    """
    return fit_many(spec, y, [np.arange(spec.n)], [noise], config, [rng], [penalty])[0]


def fit_many(spec: GlmSpec, y, rows, noises, config: OptimConfig, rngs,
             penalties) -> list[FitResult]:
    """F fits advanced in lockstep; one :class:`FitResult` per fit, in order.

    Fit f runs on the rows ``rows[f]`` (an index array) of ``spec`` and ``y``
    with the noise ``noises[f]``, the generator ``rngs[f]`` and the penalty
    ``penalties[f]`` (``None`` or as in :func:`fit`), and gets the
    numbers it would get alone: it draws from its own generator in
    :func:`fit`'s order, and the products over the fit axis are stacked
    ``matmul`` calls, which give each fit the bits of its own.  Fits whose
    epochs hold the same number of batches share one loop; a fit that stops
    leaves it.
    """
    y = spec.kernel.check_support(y)
    sizes = [len(r) for r in rows]
    for n in sizes:
        if config.batch_size > n:
            raise ConfigError(f"batch size {config.batch_size} exceeds n={n}")
    fits = [_Fit(*args) for args in zip(rows, sizes, noises, rngs, penalties)]
    for per_epoch in sorted({n // config.batch_size for n in sizes}):
        _lockstep(spec, y, [f for f in fits if f.n // config.batch_size == per_epoch],
                  per_epoch, config)
    return [f.result for f in fits]


@dataclass
class _Fit:
    """One fit of a lockstep run: its inputs, trace values and result."""

    rows: np.ndarray
    n: int
    noise: NoiseSpec
    rng: np.random.Generator
    penalty: object
    values: list = field(default_factory=list)
    result: FitResult | None = None


def _stop_windows(config: OptimConfig):
    """Every iteration at which a fit can stop, with its averaging window.

    A fit stops at a trace point once it has two stationarity windows of
    trace values, or at ``max_iters``.  Its estimate is the mean of its last
    ``take`` iterates, never reaching into the first half of the run.
    Returns, as lists, the ascending stop iterations, the first iteration
    of each one's window and its length ``take``, with the most windows
    that are open (started and not ended) at one iteration.
    """
    every = config.trace_every
    ends = np.arange(2 * max(1, config.window // every) * every,
                     config.max_iters + 1, every)
    if ends.size == 0 or ends[-1] != config.max_iters:
        ends = np.append(ends, config.max_iters)
    takes = np.minimum(min(config.avg_window, config.max_iters),
                       np.maximum(1, ends // 2))
    starts = ends - takes + 1
    open_most = np.max(np.searchsorted(starts, starts, "right")
                       - np.searchsorted(ends, starts, "left"))
    return ends.tolist(), starts.tolist(), takes.tolist(), int(open_most)


def lockstep_floats(n: int, dim: int, config: OptimConfig) -> int:
    """Floats one fit of :func:`fit_many` holds on ``n`` rows with ``dim``
    coefficients: its epoch blocks, one row of ``dim + 3`` (design, response,
    saturated term and row index) per batch row of an epoch, and its open
    tail-average sums of ``dim`` each."""
    rows = n // config.batch_size * config.batch_size
    return rows * (dim + 3) + _stop_windows(config)[3] * dim


def _lockstep(spec: GlmSpec, y, fits: list, per_epoch: int, config: OptimConfig):
    """Run ``fits``, whose epochs all hold ``per_epoch`` batches, setting each
    one's ``result``.  Slot s of every per-fit array holds an active fit;
    when a fit stops, the last active slot moves into its place and the
    loop works on ``[:k]`` views of the first k slots."""
    kernel = spec.kernel
    X, Z = spec.X, spec.Z
    F, B = len(fits), config.batch_size
    p, q = X.shape[1], Z.shape[1]
    phi = spec.phi
    sat = kernel.saturated_term(y)
    theta_clamp = _THETA_CLAMPS[kernel.name]
    rho, eps, trace_every = config.rho, config.eps, config.trace_every
    max_iters = config.max_iters
    points_per_window = max(1, config.window // trace_every)

    # One vector w = [beta; alpha] per fit, and one ADADELTA state over all.
    w = np.zeros((F, p + q))
    for s, f in enumerate(fits):
        w[s, :p] = warm_start_beta(spec.rows(f.rows), y[f.rows])
    state = AdadeltaState.zeros(w.shape)
    grad = np.empty(w.shape)
    scale = np.array([f.n / B for f in fits])
    rejected = np.zeros(F, dtype=int)
    # Each epoch's design rows with the noise multiplied in, batch-major so
    # that batch b of the active fits is the one block ``Xk[b]``; y and the
    # saturated term carry a trailing axis so every (k, B, 1) operand lines up.
    Xe = np.empty((per_epoch, F, B, p))
    Ze = np.empty((per_epoch, F, B, q))
    ye = np.empty((per_epoch, F, B, 1))
    sate = np.empty((per_epoch, F, B, 1))
    epoch_rows = np.empty((per_epoch, F, B), dtype=np.intp)
    theta = np.empty((F, B, 1))
    eta = np.empty((F, B, 1))

    # The returned estimate is the average of the trailing iterates: ADADELTA
    # steps do not vanish at an optimum, so the chain jitters (mini-batch
    # noise) or limit-cycles symmetrically (stiff penalties); tail averaging
    # removes both.  Every window a fit may stop at is known in advance, so
    # each open window keeps a running sum that starts as a copy of its
    # first iterate and adds the later ones in order: the bits of the mean
    # of a ring of iterates (numpy sums a 2-d array's rows in order), in
    # ``open_most`` rows per fit instead of ``avg_window``.  The open windows
    # lo..hi-1 sit in rows 0..hi-lo-1, so window lo, the one a fit stopping
    # now averages, is row 0.
    ends, starts, takes, open_most = _stop_windows(config)
    sums = np.empty((open_most, F, p + q))
    lo = hi = 0
    trace_iters: list[int] = []

    k, viewed = F, -1
    for it in range(1, max_iters + 1):
        if k != viewed:
            viewed = k
            Xk, Zk, yk, satk = Xe[:, :k], Ze[:, :k], ye[:, :k], sate[:, :k]
            rows_k = epoch_rows[:, :k]
            XkT, ZkT = Xk.transpose(0, 1, 3, 2), Zk.transpose(0, 1, 3, 2)
            wk, beta_k, alpha_k = w[:k], w[:k, :p, None], w[:k, p:, None]
            theta_k, eta_k = theta[:k], eta[:k]
            grad_k, scale_k = grad[:k], scale[:k, None]
            grad_beta, grad_alpha = grad[:k, :p, None], grad[:k, p:, None]
            grad_flat = grad_k.reshape(-1)
            sq_left, sq_right = grad[:k, None, :], grad[:k, :, None]
            state_k = AdadeltaState(state.avg_sq_grad[:k], state.avg_sq_step[:k])
            penalized = [(s, f.penalty) for s, f in enumerate(fits[:k])
                         if f.penalty is not None]
            open_k = sums[: hi - lo, :k]
        b = (it - 1) % per_epoch
        if b == 0:
            # Each epoch draws, per fit and in this order, its batches and
            # then the whole epoch's noise for each noisy side, so the draws
            # never depend on when the fit stops.
            for s, f in enumerate(fits[:k]):
                batches = epoch_batches(f.n, B, f.rng)
                rows_k[:, s] = f.rows[batches]
            X.take(rows_k, axis=0, out=Xk, mode="clip")
            Z.take(rows_k, axis=0, out=Zk, mode="clip")
            y.take(rows_k, out=yk[..., 0], mode="clip")
            sat.take(rows_k, out=satk[..., 0], mode="clip")
            for s, f in enumerate(fits[:k]):
                if f.noise.mean_param > 0:
                    Xk[:, s] *= f.noise.draw("mean", (per_epoch, B, p), f.rng)
                if f.noise.disp_param > 0:
                    Zk[:, s] *= f.noise.draw("disp", (per_epoch, B, q), f.rng)

        np.matmul(Xk[b], beta_k, out=theta_k)
        np.maximum(theta_k, -theta_clamp, out=theta_k)
        np.minimum(theta_k, theta_clamp, out=theta_k)
        np.matmul(Zk[b], alpha_k, out=eta_k)
        np.maximum(eta_k, -_ETA_CLAMP, out=eta_k)
        np.minimum(eta_k, _ETA_CLAMP, out=eta_k)
        gamma = np.exp(eta_k, out=eta_k)
        u_beta, u_alpha = score_terms(kernel, theta_k, gamma, yk[b], satk[b], phi)
        np.matmul(XkT[b], u_beta, out=grad_beta)
        np.matmul(ZkT[b], u_alpha, out=grad_alpha)
        grad_k *= scale_k
        for s, penalty in penalized:
            pen_beta, pen_alpha = penalty.gradient(w[s, :p], w[s, p:])
            grad[s, :p] -= pen_beta
            grad[s, p:] -= pen_alpha

        # Each fit's own g'g (also rejects a finite gradient whose square
        # overflows in ADADELTA); a rejected fit's w and state stay as they
        # are.  A sum of squares over all fits far below overflow clears
        # every fit at once.
        if grad_flat @ grad_flat < _CLEAR_SQUARES:
            step, _ = adadelta_step(state_k, grad_k, rho, eps)
            wk += step
        else:
            ok = np.isfinite(np.matmul(sq_left, sq_right)[:, 0, 0])
            rejected[:k] += ~ok
            if ok.any():
                idx = np.flatnonzero(ok)
                part = AdadeltaState(state.avg_sq_grad[idx], state.avg_sq_step[idx])
                step, _ = adadelta_step(part, grad[idx], rho, eps)
                state.avg_sq_grad[idx] = part.avg_sq_grad
                state.avg_sq_step[idx] = part.avg_sq_step
                w[idx] += step

        open_k += wk
        while hi < len(starts) and starts[hi] == it:
            sums[hi - lo, :k] = wk
            hi += 1
            open_k = sums[: hi - lo, :k]

        if it % trace_every == 0 or it == max_iters:
            stopped = []
            if it % trace_every == 0:
                trace_iters.append(it)
                for s, f in enumerate(fits[:k]):
                    value = _traced_value(kernel, X, Z, y, f.rows, w[s, :p], w[s, p:],
                                          phi, theta_clamp)
                    if f.penalty is not None:
                        value -= f.penalty.value(w[s, :p], w[s, p:])
                    f.values.append(value)
                    if _stationary(f.values, points_per_window, config.tol):
                        stopped.append((s, "stationary"))
            if it == max_iters:
                done = {s for s, _ in stopped}
                stopped += [(s, "max-iter") for s in range(k) if s not in done]
            for s, termination in stopped:
                avg = sums[0, s] / takes[lo]
                fits[s].result = FitResult(
                    beta=avg[:p],
                    alpha=avg[p:],
                    n_iter=it,
                    trace_iters=np.asarray(trace_iters, dtype=int),
                    trace_loglik=np.asarray(fits[s].values, dtype=float),
                    termination=termination,
                    rejected_steps=int(rejected[s]),
                )
            for s, _ in sorted(stopped, reverse=True):
                k -= 1
                if s != k:
                    for a in (w, state.avg_sq_grad, state.avg_sq_step, scale, rejected):
                        a[s] = a[k]
                    for a in (sums, Xe, Ze, ye, sate):
                        a[:, s] = a[:, k]
                    fits[s], fits[k] = fits[k], fits[s]
            if k == 0:
                break
            if ends[lo] == it:
                sums[: hi - lo - 1] = sums[1 : hi - lo]
                lo += 1
            open_k = sums[: hi - lo, :k]


def _stationary(values: list, points: int, tol: float) -> bool:
    """Whether the means of the last two windows of ``points`` trace values
    agree within ``tol`` relative to 1 + |older mean|."""
    if len(values) < 2 * points:
        return False
    recent = np.mean(values[-points:])
    prev = np.mean(values[-2 * points : -points])
    return bool(np.isfinite(recent) and abs(recent - prev) <= tol * (1.0 + abs(prev)))


def _traced_value(kernel, X, Z, y, rows, beta, alpha, phi, theta_clamp) -> float:
    """The fit's log-likelihood on its rows, at the clamped predictors."""
    return float(np.sum(loglik_terms(kernel, _clamp(X[rows] @ beta, theta_clamp),
                                     _clamp(Z[rows] @ alpha, _ETA_CLAMP), y[rows], phi)))
