"""Stochastic gradient ascent with ADADELTA step sizes.

The randomness is drawn once per epoch of ``n // batch_size`` iterations: one
permutation of the rows, cut into the epoch's mini-batches (``epoch_batches``),
then one block of dropout noise per noisy side covering every batch of the
epoch.  A noise block holds only each row's band (:func:`noise_band`): the
narrowest run of w cyclically consecutive columns that holds the nonzeros
of every row, 4 for a cubic B-spline design and all p columns for a design
without zeros.  Noise on a zero feature has no effect, so the band's draws
are the same model in law.  The epoch's design blocks are built one chunk
of at most :data:`EPOCH_CHUNK` batches at a time: a side without noise
gathers its dense design rows, and a noisy side starts from zeros and
scatters in its rows' band values times the noise of its batches, the dense
rows' bits because every entry off the band is +0.0.  Each iteration then
only takes the next batch's block, evaluates the batch score at the
perturbed features (equivalently the perturbed coefficients) and applies
one ADADELTA update, in place, to the joint vector (beta, alpha): the
recurrences act coordinate by coordinate, so one pair of averages gives the
numbers of separate mean and dispersion averages to the bit.  The same
engine also runs the penalized baseline: quadratic coefficient penalties
simply contribute their gradient to the score.

There is one loop, and it advances many fits at once: :func:`fit_many` puts
F fits on a leading fit axis, each naming its training rows of one shared
design by an index array, and :func:`fit` is its call with one fit on
``arange(n)``.  Every fit runs exactly ``max_iters`` iterations; there is no
stopping rule.  Each fit draws from its own generator, is checked on its
own, and gets the numbers it would get alone: the products over the fit axis
are stacked ``matmul`` calls, which give each fit the bits of its own
matrix-vector products.  The per-call overhead of numpy on small arrays,
which dominates one fit's iteration, is then shared by F fits, and so is
the work of the epoch: each noisy side's noise is one fit-major block for
the whole group, with ones where a fit's side is noise-free (``x * 1.0 ==
x`` to the bit), multiplied into each chunk's band values and scattered in
once, and a penalized group takes its penalty gradient in one call.
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

# Safety clamp on the dispersion predictor during fitting only, as the
# kernel's ``theta_clamp`` on the mean predictor.
_ETA_CLAMP = 15.0
# Below this, a sum of squared gradients over fits bounds each fit's own
# g'g far from overflow, whatever the order of summation.
_CLEAR_SQUARES = 1e300
# ADADELTA decay and stabilizer.
RHO, EPS = 0.95, 1e-6
# Batches of an epoch gathered into the design blocks at a time: whole
# epochs of up to 8 batches, and a few hundred rows of a longer one.
EPOCH_CHUNK = 8


@dataclass(frozen=True)
class OptimConfig:
    batch_size: int = 30
    max_iters: int = 20_000     # iterations every fit runs
    avg_window: int = 2000      # tail-averaging window for the returned estimate

    def __post_init__(self):
        if self.batch_size < 1 or self.max_iters < 1 or self.avg_window < 1:
            raise ConfigError("batch_size, max_iters and avg_window must be positive")


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


def adadelta_step(avg_sq_grad: np.ndarray, avg_sq_step: np.ndarray,
                  grad: np.ndarray) -> np.ndarray:
    """One ADADELTA recurrence with ``RHO`` and ``EPS``; returns the step
    along ``grad`` and updates the two averages in place.

    E[g^2] <- rho E[g^2] + (1-rho) g^2
    step    = sqrt((E[s^2] + eps) / (E[g^2] + eps)) * grad
    E[s^2] <- rho E[s^2] + (1-rho) step^2
    """
    if avg_sq_grad.shape != grad.shape:
        raise ConfigError("accumulator and gradient lengths differ")
    step = avg_sq_step + EPS
    sq = grad * grad
    sq *= 1.0 - RHO
    avg_sq_grad *= RHO
    avg_sq_grad += sq
    np.add(avg_sq_grad, EPS, out=sq)
    step /= sq
    np.sqrt(step, out=step)
    step *= grad
    np.multiply(step, step, out=sq)
    sq *= 1.0 - RHO
    avg_sq_step *= RHO
    avg_sq_step += sq
    return step


def warm_start_beta(spec: GlmSpec, y) -> np.ndarray:
    """Ridge-stabilized least squares of the link-transformed response."""
    t = spec.kernel.empirical_theta(y)
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
    returning the gradient of the penalty to subtract from the score, and a
    ``stack(penalties)`` class method returning one such object for F fits,
    whose ``gradient`` takes ``(F, dim, 1)`` stacks of coefficient vectors
    (``pmle.DiffPenalty``, the penalized-MLE baseline).
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
    epochs hold the same number of batches and that are all penalized or
    all not share one loop.
    """
    y = spec.kernel.check_support(y)
    sizes = [len(r) for r in rows]
    for n in sizes:
        if config.batch_size > n:
            raise ConfigError(f"batch size {config.batch_size} exceeds n={n}")
    fits = [_Fit(*args) for args in zip(rows, sizes, noises, rngs, penalties)]
    # Each design's band columns and the values there, one row per design row.
    bands = [(band, np.take_along_axis(D, band, axis=1))
             for D in (spec.X, spec.Z) for band in [noise_band(D)]]
    groups = {}
    for f in fits:
        groups.setdefault((f.n // config.batch_size, f.penalty is not None), []).append(f)
    for (per_epoch, _), group in groups.items():
        _lockstep(spec, y, group, per_epoch, config, bands)
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


def lockstep_floats(spec: GlmSpec, n: int, config: OptimConfig) -> int:
    """Floats (or 8-byte row indices) one fit of :func:`fit_many` holds on
    ``n`` rows of ``spec``, whose designs have dim = p + q columns and noise
    bands of widths w_X and w_Z:

    * its chunk blocks and offsets, ``dim + 2 + w_X + w_Z`` (design,
      response, saturated term and a noisy side's band position offsets)
      per batch row of a chunk;
    * the epoch's row indices and noise blocks, ``1 + w_X + w_Z`` per batch
      row of an epoch;
    * the transients of a noisy side's chunk, three of ``max(w_X, w_Z)``
      per batch row of a chunk, a bound on the two it builds: band
      positions and gathered band values, into which the noise is
      multiplied in place;
    * the vectors of its iteration: iterate, gradient, the two ADADELTA
      averages and the tail-average sum, five of ``dim``.

    A call also holds, once for all its fits, each design's band values,
    ``n_spec * (w_X + w_Z)`` floats for the ``n_spec`` rows of ``spec``.
    """
    per_epoch = n // config.batch_size
    chunk_rows = min(per_epoch, EPOCH_CHUNK) * config.batch_size
    widths = noise_band(spec.X).shape[1], noise_band(spec.Z).shape[1]
    dim = spec.X.shape[1] + spec.Z.shape[1]
    return (chunk_rows * (dim + 2 + sum(widths) + 3 * max(widths))
            + per_epoch * config.batch_size * (1 + sum(widths)) + 5 * dim)


def _lockstep(spec: GlmSpec, y, fits: list, per_epoch: int, config: OptimConfig,
              bands):
    """Run ``fits``, whose epochs all hold ``per_epoch`` batches and which
    are all penalized or all not, for ``max_iters`` iterations, setting each
    one's ``result``; ``bands`` holds, for ``X`` and for ``Z``, the
    :func:`noise_band` and the design's values there."""
    kernel = spec.kernel
    X, Z = spec.X, spec.Z
    F, B = len(fits), config.batch_size
    p, q = X.shape[1], Z.shape[1]
    phi = spec.phi
    sat = kernel.saturated_term(y)
    theta_clamp = kernel.theta_clamp
    max_iters = config.max_iters

    # One vector w = [beta; alpha] per fit, and ADADELTA's two averages.
    w = np.zeros((F, p + q))
    for s, f in enumerate(fits):
        w[s, :p] = warm_start_beta(spec.rows(f.rows), y[f.rows])
    beta, alpha = w[:, :p, None], w[:, p:, None]
    avg_sq_grad, avg_sq_step = np.zeros(w.shape), np.zeros(w.shape)
    grad = np.empty(w.shape)
    grad_beta, grad_alpha = grad[:, :p, None], grad[:, p:, None]
    grad_flat = grad.reshape(-1)
    sq_left, sq_right = grad[:, None, :], grad[:, :, None]
    scale = np.array([f.n / B for f in fits])[:, None]
    rejected = np.zeros(F, dtype=int)
    penalty = fits[0].penalty
    if penalty is not None:
        penalty = type(penalty).stack([f.penalty for f in fits])
    # One chunk of each epoch's design rows with the noise multiplied in,
    # batch-major so that batch c of every fit is the one block ``Xe[c]``; y
    # and the saturated term carry a trailing axis so every (F, B, 1)
    # operand lines up.  The views an iteration reads are built once per slot.
    chunk = min(per_epoch, EPOCH_CHUNK)
    Xe = np.empty((chunk, F, B, p))
    Ze = np.empty((chunk, F, B, q))
    ye = np.empty((chunk, F, B, 1))
    sate = np.empty((chunk, F, B, 1))
    XeT, ZeT = Xe.transpose(0, 1, 3, 2), Ze.transpose(0, 1, 3, 2)
    slots = list(zip(Xe, Ze, XeT, ZeT, ye, sate))
    epoch_rows = np.empty((per_epoch, F, B), dtype=np.intp)
    # A side without noise in the group takes its chunk's dense design rows.
    # A noisy side holds the epoch's noise of every fit as one fit-major
    # block, ones where a fit's side is noise-free (``x * 1.0 == x`` to the
    # bit), and builds its chunk as zeros with the noisy band values
    # scattered in: the design's own bits, as every entry off the band is
    # +0.0.  Flat positions in the raveled chunk are band columns plus the
    # row's offset, held at full shape so that adding it does not broadcast.
    dense, sides = [], []
    for side, D, block, (band, vals) in (("mean", X, Xe, bands[0]),
                                         ("disp", Z, Ze, bands[1])):
        if any(f.noise.param(side) > 0 for f in fits):
            offset = np.repeat(np.arange(chunk * F * B) * D.shape[1],
                               band.shape[1]).reshape(chunk, F, B, -1)
            noise = np.ones((F, per_epoch, B, band.shape[1]))
            sides.append((side, block, block.reshape(-1), band, vals, offset, noise))
        else:
            dense.append((D, block))
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
            for s, f in enumerate(fits):
                for side, *_, noise in sides:
                    if f.noise.param(side) > 0:
                        noise[s] = f.noise.draw(side, noise.shape[1:], f.rng)
        c = b % chunk
        if c == 0:
            rows = epoch_rows[b : b + chunk]
            size = len(rows)
            for D, block in dense:
                D.take(rows, axis=0, out=block[:size], mode="clip")
            y.take(rows, out=ye[:size, ..., 0], mode="clip")
            sat.take(rows, out=sate[:size, ..., 0], mode="clip")
            for _, block, flat, band, vals, offset, noise in sides:
                block[:size] = 0.0
                at = band.take(rows, axis=0)
                at += offset[:size]
                noisy = vals.take(rows, axis=0)
                noisy *= noise[:, b : b + size].transpose(1, 0, 2, 3)
                flat[at] = noisy

        Xc, Zc, XcT, ZcT, yc, satc = slots[c]
        np.matmul(Xc, beta, out=theta)
        np.maximum(theta, -theta_clamp, out=theta)
        np.minimum(theta, theta_clamp, out=theta)
        np.matmul(Zc, alpha, out=eta)
        np.maximum(eta, -_ETA_CLAMP, out=eta)
        np.minimum(eta, _ETA_CLAMP, out=eta)
        gamma = np.exp(eta, out=eta)
        u_beta, u_alpha = score_terms(kernel, theta, gamma, yc, satc, phi)
        np.matmul(XcT, u_beta, out=grad_beta)
        np.matmul(ZcT, u_alpha, out=grad_alpha)
        grad *= scale
        if penalty is not None:
            pen_beta, pen_alpha = penalty.gradient(beta, alpha)
            grad_beta -= pen_beta
            grad_alpha -= pen_alpha

        # Each fit's own g'g (also rejects a finite gradient whose square
        # overflows in ADADELTA); a rejected fit's w and averages stay as
        # they are.  A sum of squares over all fits far below overflow clears
        # every fit at once.
        if grad_flat @ grad_flat < _CLEAR_SQUARES:
            w += adadelta_step(avg_sq_grad, avg_sq_step, grad)
        else:
            ok = np.isfinite(np.matmul(sq_left, sq_right)[:, 0, 0])
            rejected += ~ok
            if ok.any():
                idx = np.flatnonzero(ok)
                sq_grad, sq_step = avg_sq_grad[idx], avg_sq_step[idx]
                w[idx] += adadelta_step(sq_grad, sq_step, grad[idx])
                avg_sq_grad[idx], avg_sq_step[idx] = sq_grad, sq_step

        if it > first:
            total += w
        elif it == first:
            total[:] = w

    for s, f in enumerate(fits):
        avg = total[s] / take
        f.result = FitResult(beta=avg[:p], alpha=avg[p:], n_iter=max_iters,
                             termination="max-iter", rejected_steps=int(rejected[s]))
