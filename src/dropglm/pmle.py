"""Penalized maximum likelihood baseline.

Smoothness is enforced by quadratic penalties on second-order differences of
the spline coefficients: P = D2' D2, so affine coefficient sequences are
unpenalized.  Fitting reuses the SGD/ADADELTA engine with noise disabled so
comparisons against dropout isolate the penalty, not the optimizer.  CV fits
of the baseline run in lockstep with each other on that engine
(``optim.fit_many``), whose penalties are stacked into one
(:meth:`DiffPenalty.stack`) that takes all their gradients in one call; a
single fit goes through :func:`pmle_fit`.

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
from .families import frozen
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
    twice: tuple = field(init=False, repr=False, compare=False)  # (2 lam_mean, 2 lam_disp)

    def __post_init__(self):
        lams = np.array([self.lam_mean, self.lam_disp])
        if not np.all((0 <= lams) & (lams < np.inf)):
            raise ConfigError("smoothing parameters must be finite and nonnegative, "
                              f"got ({self.lam_mean}, {self.lam_disp})")
        object.__setattr__(self, "P_mean", second_difference_penalty(self.dim_mean))
        object.__setattr__(self, "P_disp", second_difference_penalty(self.dim_disp))
        object.__setattr__(self, "twice", (frozen(2 * self.lam_mean), frozen(2 * self.lam_disp)))

    @classmethod
    def stack(cls, penalties) -> "DiffPenalty":
        """One penalty of F fits: its weights are ``(F, 1, 1)`` arrays, so its
        :meth:`gradient` takes ``(F, dim, 1)`` stacks of coefficient vectors
        and gives each fit the bits of its own penalty's gradient."""
        first = penalties[0]
        return cls(lam_mean=np.array([pen.lam_mean for pen in penalties])[:, None, None],
                   lam_disp=np.array([pen.lam_disp for pen in penalties])[:, None, None],
                   dim_mean=first.dim_mean, dim_disp=first.dim_disp)

    def value(self, beta, alpha) -> float:
        return float(self.lam_mean * beta @ self.P_mean @ beta
                     + self.lam_disp * alpha @ self.P_disp @ alpha)

    def gradient(self, beta, alpha):
        return self.twice[0] * (self.P_mean @ beta), self.twice[1] * (self.P_disp @ alpha)


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
             rng: np.random.Generator) -> FitResult:
    """Minimize the penalized objective on the shared SGD engine."""
    if penalty.dim_mean != spec.X.shape[1] or penalty.dim_disp != spec.Z.shape[1]:
        raise ConfigError("penalty dimensions do not match the designs")
    return fit(spec, y, NoiseSpec.none(), config, rng, penalty=penalty)
