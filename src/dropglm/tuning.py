"""Random-search k-fold cross-validation over hyperparameter rectangles.

Each method exposes two nonnegative hyperparameters: the mean-side and
dispersion-side dropout parameters (Bernoulli probability or Gaussian sd),
or the two smoothing weights of the penalized baseline, stated in units of
:data:`PMLE_WEIGHT_UNIT` (see :func:`fit_method`).  ``s`` pairs are
drawn uniformly from the rectangle; each pair is fitted k times leaving one
fold out and scored by the held-out log-likelihood (base-measure terms
included so values are comparable across methods).  The winner is the pair
with the largest mean held-out log-likelihood; ties break to the smallest
sample index.  A search in which every pair has a non-finite fold selects
nothing and raises NumericError.

Fits derive their RNG streams from (seed, sample index, fold index), so the
evaluation order of samples has no effect on the table or the winner.  The
s x k fits therefore advance in lockstep, each on its training-row indices,
through the group form of :func:`fit_method`; each fit equals, to the bit,
the same fit run alone.  A group holds at most :data:`CV_GROUP_FLOATS`
floats, counted per fit by :func:`dropglm.optim.lockstep_floats`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dropout import NoiseSpec, chunk_sizes
from .errors import ConfigError, NumericError
from .model import GlmSpec, loglik
from .optim import FitResult, OptimConfig, fit, fit_many, lockstep_floats
from .pmle import DiffPenalty, pmle_fit
from .rngs import substream

METHODS = ("bernoulli", "gaussian", "pmle")

# Unit of the PMLE smoothing weights in search rectangles and --params,
# relative to the summed log-likelihood that DiffPenalty penalizes.  The
# [0, 15000]^2 rectangle then spans penalty weights [0, 0.3]^2: it holds the
# held-out optimum of the mean weight in the Gaussian scenarios, and the SGD
# engine reaches the penalized minimum at its corners (README "Known
# discrepancies" has the table behind the choice).
PMLE_WEIGHT_UNIT = 50_000.0

# Floats that one lockstep group of CV fits may hold, each fit holding
# optim.lockstep_floats: 3 MB, 13 traffic-sized fits (1,767 rows, 24/12
# cyclic knots, 27,780 floats each), so a traffic CV of 2 x 5 fits runs as
# one group, or 30 desk-sized ones (167 rows, 30/20 knots, 12,400 floats).
# With Bernoulli noise on both sides, a traffic-sized fit costs 24 us per
# iteration alone, 7.6 us in a group of 5, 5.9 us in one of 10 and 5.4 us
# in one of 14 (median of 5 runs; 2-core host, one BLAS thread).
CV_GROUP_FLOATS = 375_000


@dataclass(frozen=True)
class CvPlan:
    """Search rectangle [lo1,hi1] x [lo2,hi2], sample count, folds and seed."""

    rect: tuple[tuple[float, float], tuple[float, float]]
    n_samples: int
    n_folds: int
    seed: int

    def __post_init__(self):
        (lo1, hi1), (lo2, hi2) = self.rect
        if not (0 <= lo1 <= hi1 < np.inf and 0 <= lo2 <= hi2 < np.inf):
            raise ConfigError(f"invalid hyperparameter rectangle {self.rect}")
        if self.n_samples < 1 or self.n_folds < 2:
            raise ConfigError("need n_samples >= 1 and n_folds >= 2")


@dataclass(frozen=True)
class CvResult:
    params: np.ndarray        # (s, 2) sampled pairs
    fold_logliks: np.ndarray  # (s, k) held-out log-likelihoods (-inf on divergence)
    mean_logliks: np.ndarray  # (s,)
    selected_index: int

    @property
    def selected_params(self) -> tuple[float, float]:
        p = self.params[self.selected_index]
        return float(p[0]), float(p[1])


def make_folds(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Random balanced partition into folds 0..k-1 (sizes differ by <= 1)."""
    if k > n:
        raise ConfigError(f"cannot split {n} observations into {k} folds")
    ids = np.empty(n, dtype=int)
    # First n % k folds receive one extra observation.
    base, extra = divmod(n, k)
    ids[rng.permutation(n)] = np.repeat(np.arange(k), base + (np.arange(k) < extra))
    return ids


def fit_method(spec: GlmSpec, y, method: str, params, config: OptimConfig,
               rng, rows=None):
    """Fit one method at one hyperparameter pair on the shared engine.

    For ``"pmle"`` the pair is a point of the search rectangle; the penalty
    weights on the summed log-likelihood are ``params / PMLE_WEIGHT_UNIT``
    for both the mean and the dispersion weight and every family.

    With ``rows``, a sequence of F training-row index arrays into ``spec``
    and ``y``, ``params`` holds F pairs and ``rng`` F generators: the F fits
    advance in lockstep (:func:`dropglm.optim.fit_many`) and one
    :class:`FitResult` per fit is returned, in order, each identical to the
    bit to the fit of ``spec.rows(rows[f])`` alone.
    """
    if rows is None:
        noise, penalty = _engine_inputs(spec, method, params)
        if penalty is None:
            return fit(spec, y, noise, config, rng)
        return pmle_fit(spec, y, penalty, config, rng)
    noises, penalties = zip(*(_engine_inputs(spec, method, pair) for pair in params))
    return fit_many(spec, y, rows, noises, config, rng, penalties)


def _engine_inputs(spec: GlmSpec, method: str, params):
    """(noise, penalty or None) of one method at one hyperparameter pair."""
    p1, p2 = float(params[0]), float(params[1])
    if method == "bernoulli":
        return NoiseSpec.bernoulli(p1, p2), None
    if method == "gaussian":
        return NoiseSpec.gaussian(p1, p2), None
    if method == "pmle":
        return NoiseSpec.none(), DiffPenalty(
            lam_mean=p1 / PMLE_WEIGHT_UNIT, lam_disp=p2 / PMLE_WEIGHT_UNIT,
            dim_mean=spec.X.shape[1], dim_disp=spec.Z.shape[1])
    raise ConfigError(f"unknown method {method!r}; choose from {METHODS}")


def _heldout_loglik(spec: GlmSpec, y, idx_test, result: FitResult) -> float:
    if result.diverged:
        return -np.inf
    test = spec.rows(idx_test).with_coefs(result.beta, result.alpha)
    value = loglik(test, y[idx_test], include_base_measure=True)
    return value if np.isfinite(value) else -np.inf


def random_search_cv(spec: GlmSpec, y, method: str, plan: CvPlan,
                     config: OptimConfig) -> CvResult:
    """Run the search; ``spec`` carries the full-data designs (coefficients
    in it are ignored, each fold fit starts fresh)."""
    if method == "bernoulli":
        (lo1, hi1), (lo2, hi2) = plan.rect
        if hi1 > 1.0 or hi2 > 1.0:
            raise ConfigError("bernoulli dropout probabilities live in [0, 1]")
    y = np.asarray(y, dtype=float)
    n = spec.n
    folds = make_folds(n, plan.n_folds, substream(plan.seed, "folds"))
    draws = substream(plan.seed, "params").random((plan.n_samples, 2))
    rect = np.asarray(plan.rect, dtype=float)
    params = rect[:, 0] + draws * (rect[:, 1] - rect[:, 0])

    # All s x k fits advance in lockstep, in groups of at most
    # CV_GROUP_FLOATS floats; each fit keeps its keyed substream.
    train = [np.flatnonzero(folds != f) for f in range(plan.n_folds)]
    test = [np.flatnonzero(folds == f) for f in range(plan.n_folds)]
    cells = [(j, f) for j in range(plan.n_samples) for f in range(plan.n_folds)]
    per_fit = lockstep_floats(spec, max(map(len, train)), config)
    fold_logliks = np.empty((plan.n_samples, plan.n_folds))
    done = 0
    for size in chunk_sizes(len(cells), per_fit, CV_GROUP_FLOATS):
        group = cells[done : done + size]
        done += size
        results = fit_method(spec, y, method, params[[j for j, _ in group]], config,
                             [substream(plan.seed, "cvfit", j, f) for j, f in group],
                             rows=[train[f] for _, f in group])
        for (j, f), result in zip(group, results):
            fold_logliks[j, f] = _heldout_loglik(spec, y, test[f], result)

    mean_logliks = np.where(
        np.all(np.isfinite(fold_logliks), axis=1), fold_logliks.mean(axis=1), -np.inf
    )
    if np.all(np.isneginf(mean_logliks)):
        raise NumericError(f"{method} CV: every sample has a fold whose fit diverged "
                           "or scores a non-finite held-out log-likelihood")
    selected = int(np.argmax(mean_logliks))
    return CvResult(params=params, fold_logliks=fold_logliks,
                    mean_logliks=mean_logliks, selected_index=selected)


def cv_table(result: CvResult):
    """(header, rows) for the CV table CSV."""
    k = result.fold_logliks.shape[1]
    header = (["sample_index", "param1", "param2"]
              + [f"fold_loglik_{f + 1}" for f in range(k)]
              + ["mean_loglik", "selected_flag"])
    rows = []
    for j in range(result.params.shape[0]):
        rows.append(
            [j, result.params[j, 0], result.params[j, 1]]
            + [result.fold_logliks[j, f] for f in range(k)]
            + [result.mean_logliks[j], int(j == result.selected_index)]
        )
    return header, rows
