"""Stochastic gradient ascent with ADADELTA step sizes.

The randomness is drawn once per epoch of ``n // batch_size`` iterations: one
permutation of the rows, cut into the epoch's mini-batches (``epoch_batches``),
then one block of dropout noise per noisy side covering every batch of the
epoch.  A noise block holds only each row's band (:func:`noise_band`): the
narrowest run of w cyclically consecutive columns that holds the nonzeros
of every row, 4 for a cubic B-spline design and all p columns for a design
without zeros.  Noise on a zero feature has no effect, so the band's draws
are the same model in law.  The epoch's design rows are gathered once into
per-epoch blocks and each noise block is multiplied into its design block
once, at the band entries only, so each iteration
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
``arange(n)``.  Every fit runs exactly ``max_iters`` iterations; there is no
stopping rule.  Each fit draws from its own generator, is checked on its
own, and gets the numbers it would get alone: the products over the fit axis
are stacked ``matmul`` calls, which give each fit the bits of its own
matrix-vector products.  The per-call overhead of numpy on small arrays,
which dominates one fit's iteration, is then shared by F fits.
:func:`lockstep_floats` states the memory one fit holds, so callers can
size their groups.

Determinism contract: identical seeds, data and configs produce bitwise
identical results, and the draws of a fit run for fewer iterations are a
prefix of those of the same fit run longer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dropout import NoiseSpec
from .errors import ConfigError
from .model import GlmSpec, score_terms

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
    max_iters: int = 20_000     # iterations every fit runs
    rho: float = 0.95           # ADADELTA decay
    eps: float = 1e-6           # ADADELTA stabilizer
    avg_window: int = 2000      # tail-averaging window for the returned estimate

    def __post_init__(self):
        if self.batch_size < 1 or self.max_iters < 1 or self.avg_window < 1:
            raise ConfigError("batch_size, max_iters and avg_window must be positive")
        if not 0.0 < self.rho < 1.0:
            raise ConfigError(f"rho must be in (0,1), got {self.rho}")
        if not 0 < self.eps < np.inf:
            raise ConfigError(f"eps must be finite and positive, got {self.eps}")


@dataclass(frozen=True)
class FitResult:
    beta: np.ndarray
    alpha: np.ndarray
    n_iter: int
    termination: str  # always "max-iter": every fit runs its budget
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
    returning the gradient of the penalty to subtract from the score (used by
    the penalized-MLE baseline).
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
    epochs hold the same number of batches share one loop.
    """
    y = spec.kernel.check_support(y)
    sizes = [len(r) for r in rows]
    for n in sizes:
        if config.batch_size > n:
            raise ConfigError(f"batch size {config.batch_size} exceeds n={n}")
    fits = [_Fit(*args) for args in zip(rows, sizes, noises, rngs, penalties)]
    bands = noise_band(spec.X), noise_band(spec.Z)
    for per_epoch in sorted({n // config.batch_size for n in sizes}):
        _lockstep(spec, y, [f for f in fits if f.n // config.batch_size == per_epoch],
                  per_epoch, config, bands)
    return [f.result for f in fits]


def noise_band(D: np.ndarray) -> np.ndarray:
    """Each row's noise band, an ``(n, w)`` array of columns of ``D``.

    The band width w is the narrowest such that every row's nonzeros lie in
    w cyclically consecutive columns, and row r's band is the first such
    window, ``(c_r + arange(w)) % p``.  A cubic B-spline design has w = 4;
    a design without zeros has w = p and every band is ``arange(p)``.
    """
    nonzero = D != 0
    p = nonzero.shape[1]
    need = nonzero.sum(axis=1)[:, None]
    # Nonzeros in the window of width w that starts at each column.
    inside = nonzero.astype(np.min_scalar_type(p))
    for w in range(1, p + 1):
        holds = inside == need
        if holds.any(axis=1).all():
            break
        inside += np.roll(nonzero, -w, axis=1)
    return (holds.argmax(axis=1)[:, None] + np.arange(w)) % p


@dataclass
class _Fit:
    """One fit of a lockstep run: its inputs and result."""

    rows: np.ndarray
    n: int
    noise: NoiseSpec
    rng: np.random.Generator
    penalty: object
    result: FitResult | None = None


def lockstep_floats(n: int, dim: int, config: OptimConfig) -> int:
    """Floats one fit of :func:`fit_many` holds on ``n`` rows with ``dim``
    coefficients: its epoch blocks, one row of ``dim + 3`` (design, response,
    saturated term and row index) per batch row of an epoch, and its
    tail-average sum of ``dim``."""
    rows = n // config.batch_size * config.batch_size
    return rows * (dim + 3) + dim


def _lockstep(spec: GlmSpec, y, fits: list, per_epoch: int, config: OptimConfig,
              bands):
    """Run ``fits``, whose epochs all hold ``per_epoch`` batches, for
    ``max_iters`` iterations, setting each one's ``result``; ``bands`` are
    the :func:`noise_band` of ``X`` and ``Z``."""
    kernel = spec.kernel
    X, Z = spec.X, spec.Z
    F, B = len(fits), config.batch_size
    p, q = X.shape[1], Z.shape[1]
    phi = spec.phi
    sat = kernel.saturated_term(y)
    theta_clamp = _THETA_CLAMPS[kernel.name]
    rho, eps, max_iters = config.rho, config.eps, config.max_iters

    # One vector w = [beta; alpha] per fit, and one ADADELTA state over all.
    w = np.zeros((F, p + q))
    for s, f in enumerate(fits):
        w[s, :p] = warm_start_beta(spec.rows(f.rows), y[f.rows])
    beta, alpha = w[:, :p, None], w[:, p:, None]
    state = AdadeltaState.zeros(w.shape)
    grad = np.empty(w.shape)
    grad_beta, grad_alpha = grad[:, :p, None], grad[:, p:, None]
    grad_flat = grad.reshape(-1)
    sq_left, sq_right = grad[:, None, :], grad[:, :, None]
    scale = np.array([f.n / B for f in fits])[:, None]
    rejected = np.zeros(F, dtype=int)
    penalized = [(s, f.penalty) for s, f in enumerate(fits) if f.penalty is not None]
    # Each epoch's design rows with the noise multiplied in, batch-major so
    # that batch b of every fit is the one block ``Xe[b]``; y and the
    # saturated term carry a trailing axis so every (F, B, 1) operand lines up.
    Xe = np.empty((per_epoch, F, B, p))
    Ze = np.empty((per_epoch, F, B, q))
    ye = np.empty((per_epoch, F, B, 1))
    sate = np.empty((per_epoch, F, B, 1))
    XeT, ZeT = Xe.transpose(0, 1, 3, 2), Ze.transpose(0, 1, 3, 2)
    epoch_rows = np.empty((per_epoch, F, B), dtype=np.intp)
    # Noise reaches a block only at its rows' bands: flat positions in the
    # raveled block are band columns plus the row's offset, and a batch row
    # of fit s sits at block row ``block_rows + s * B``.
    block_rows = (np.arange(per_epoch)[:, None] * (F * B) + np.arange(B))[..., None]
    sides = (("mean", Xe.reshape(-1), bands[0], p), ("disp", Ze.reshape(-1), bands[1], q))
    theta = np.empty((F, B, 1))
    eta = np.empty((F, B, 1))

    # The returned estimate is the mean of the last ``take`` iterates:
    # ADADELTA steps do not vanish at an optimum, so the chain jitters
    # (mini-batch noise) or limit-cycles symmetrically (stiff penalties);
    # tail averaging removes both.  The average never reaches into the first
    # half of the run.  Its running sum starts as a copy of iterate ``first``
    # (not as zeros, which would turn a -0.0 into 0.0) and adds the later ones
    # in order: the bits of the mean of a ring of iterates (numpy sums a 2-d
    # array's rows in order), in one row per fit.
    take = min(config.avg_window, max(1, max_iters // 2))
    first = max_iters - take + 1
    total = np.empty(w.shape)

    for it in range(1, max_iters + 1):
        b = (it - 1) % per_epoch
        if b == 0:
            # Each epoch draws, per fit and in this order, its batches and
            # then the whole epoch's noise for each noisy side, so a shorter
            # run's draws are a prefix of a longer one's.
            for s, f in enumerate(fits):
                batches = epoch_batches(f.n, B, f.rng)
                epoch_rows[:, s] = f.rows[batches]
            X.take(epoch_rows, axis=0, out=Xe, mode="clip")
            Z.take(epoch_rows, axis=0, out=Ze, mode="clip")
            y.take(epoch_rows, out=ye[..., 0], mode="clip")
            sat.take(epoch_rows, out=sate[..., 0], mode="clip")
            for s, f in enumerate(fits):
                for side, flat, band, width in sides:
                    if f.noise.param(side) > 0:
                        at = band.take(epoch_rows[:, s], axis=0)
                        at += (block_rows + s * B) * width
                        noise = f.noise.draw(side, at.shape, f.rng)
                        noise *= flat.take(at)
                        flat.put(at, noise)

        np.matmul(Xe[b], beta, out=theta)
        np.maximum(theta, -theta_clamp, out=theta)
        np.minimum(theta, theta_clamp, out=theta)
        np.matmul(Ze[b], alpha, out=eta)
        np.maximum(eta, -_ETA_CLAMP, out=eta)
        np.minimum(eta, _ETA_CLAMP, out=eta)
        gamma = np.exp(eta, out=eta)
        u_beta, u_alpha = score_terms(kernel, theta, gamma, ye[b], sate[b], phi)
        np.matmul(XeT[b], u_beta, out=grad_beta)
        np.matmul(ZeT[b], u_alpha, out=grad_alpha)
        grad *= scale
        for s, penalty in penalized:
            pen_beta, pen_alpha = penalty.gradient(w[s, :p], w[s, p:])
            grad[s, :p] -= pen_beta
            grad[s, p:] -= pen_alpha

        # Each fit's own g'g (also rejects a finite gradient whose square
        # overflows in ADADELTA); a rejected fit's w and state stay as they
        # are.  A sum of squares over all fits far below overflow clears
        # every fit at once.
        if grad_flat @ grad_flat < _CLEAR_SQUARES:
            step, _ = adadelta_step(state, grad, rho, eps)
            w += step
        else:
            ok = np.isfinite(np.matmul(sq_left, sq_right)[:, 0, 0])
            rejected += ~ok
            if ok.any():
                idx = np.flatnonzero(ok)
                part = AdadeltaState(state.avg_sq_grad[idx], state.avg_sq_step[idx])
                step, _ = adadelta_step(part, grad[idx], rho, eps)
                state.avg_sq_grad[idx] = part.avg_sq_grad
                state.avg_sq_step[idx] = part.avg_sq_step
                w[idx] += step

        if it > first:
            total += w
        elif it == first:
            total[:] = w

    for s, f in enumerate(fits):
        avg = total[s] / take
        f.result = FitResult(beta=avg[:p], alpha=avg[p:], n_iter=max_iters,
                             termination="max-iter", rejected_steps=int(rejected[s]))
