"""Penalized maximum likelihood baseline.

Smoothness is enforced by quadratic penalties on second-order differences of
the spline coefficients: P = D2' D2, so affine coefficient sequences are
unpenalized.  Fitting reuses the SGD/ADADELTA engine with noise disabled so
comparisons against dropout isolate the penalty, not the optimizer.

The weights of :class:`DiffPenalty` penalize the summed log-likelihood as
written.  The search rectangle's weights are in other units: the ``pmle``
branch of :func:`dropglm.tuning.fit_method` divides them by
``tuning.PMLE_WEIGHT_UNIT`` before they reach this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dropout import NoiseSpec
from .errors import ConfigError
from .model import GlmSpec, loglik
from .optim import FitResult, OptimConfig, fit


def second_difference_penalty(dim: int) -> np.ndarray:
    """P = D2' D2 for coefficient vectors of length ``dim``."""
    if dim < 3:
        raise ConfigError(f"need at least 3 coefficients for second differences, got {dim}")
    d2 = np.diff(np.eye(dim), 2, axis=0)
    return d2.T @ d2


@dataclass(frozen=True)
class DiffPenalty:
    """Second-order difference penalties with smoothing weights."""

    lam_mean: float
    lam_disp: float
    dim_mean: int
    dim_disp: int
    P_mean: np.ndarray = field(init=False, repr=False, compare=False)
    P_disp: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0 <= self.lam_mean < np.inf and 0 <= self.lam_disp < np.inf):
            raise ConfigError("smoothing parameters must be finite and nonnegative, "
                              f"got ({self.lam_mean}, {self.lam_disp})")
        object.__setattr__(self, "P_mean", second_difference_penalty(self.dim_mean))
        object.__setattr__(self, "P_disp", second_difference_penalty(self.dim_disp))

    def value(self, beta, alpha) -> float:
        return float(self.lam_mean * beta @ self.P_mean @ beta
                     + self.lam_disp * alpha @ self.P_disp @ alpha)

    def gradient(self, beta, alpha):
        return (2.0 * self.lam_mean * (self.P_mean @ beta),
                2.0 * self.lam_disp * (self.P_disp @ alpha))


def pmle_objective(spec: GlmSpec, y, penalty: DiffPenalty) -> float:
    """-loglik + lam_mu beta'P beta + lam_gamma alpha'P alpha."""
    return -loglik(spec, y) + penalty.value(spec.beta, spec.alpha)


def pmle_objective_grad(spec: GlmSpec, y, penalty: DiffPenalty):
    """Analytic gradient of :func:`pmle_objective` w.r.t. (beta, alpha)."""
    from .model import score

    rep = score(spec, y)
    pg_beta, pg_alpha = penalty.gradient(spec.beta, spec.alpha)
    return -rep.score_beta + pg_beta, -rep.score_alpha + pg_alpha


def pmle_fit(spec: GlmSpec, y, penalty: DiffPenalty, config: OptimConfig,
             rng: np.random.Generator | None = None) -> FitResult:
    """Minimize the penalized objective on the shared SGD engine."""
    if penalty.dim_mean != spec.X.shape[1] or penalty.dim_disp != spec.Z.shape[1]:
        raise ConfigError("penalty dimensions do not match the designs")
    return fit(spec, y, NoiseSpec.none(), config, rng, penalty=penalty)
