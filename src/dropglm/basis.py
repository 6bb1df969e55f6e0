"""Cubic B-spline bases on equidistant knots: natural and cyclic variants.

Knot convention (documented and held fixed across all fitting methods):

* natural mode: ``nknots`` equidistant breakpoints spanning [lo, hi]
  inclusive (spacing h = (hi-lo)/(nknots-1)), extended by three spans on
  each side.  The natural end conditions (zero second derivative at lo and
  hi) are absorbed into the basis, which then has dimension ``nknots``.
* cyclic mode: ``nknots`` equidistant knots over the period [lo, hi)
  (spacing h = (hi-lo)/nknots) with wrap-around identification; dimension
  ``nknots``.

With equidistant knots the natural constraint reads "the first (last) three
unconstrained coefficients are in arithmetic progression", so it folds into
the two boundary columns and the basis keeps nonnegativity, partition of
unity, and local support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

# Pieces of the uniform cubic B-spline N on [0, 4], written as the four
# active segments N_k(t) = N(t + k) for local coordinate t in [0, 1].
_SEG_COEFS = np.array(
    [
        # constant, t, t^2, t^3  (divided by 6)
        [0.0, 0.0, 0.0, 1.0],    # N_0(t) = t^3 / 6
        [1.0, 3.0, 3.0, -3.0],   # N_1(t) = (1 + 3t + 3t^2 - 3t^3) / 6
        [4.0, 0.0, -6.0, 3.0],   # N_2(t) = (4 - 6t^2 + 3t^3) / 6
        [1.0, -3.0, 3.0, -1.0],  # N_3(t) = (1 - t)^3 / 6
    ]
) / 6.0


def _segment_values(t: np.ndarray, deriv: int) -> np.ndarray:
    """(len(t), 4) values of N_0..N_3 (or a derivative) at local t in [0, 1]."""
    if deriv == 0:
        powers = np.stack([np.ones_like(t), t, t**2, t**3], axis=-1)
        coefs = _SEG_COEFS
    elif deriv == 1:
        powers = np.stack([np.ones_like(t), t, t**2], axis=-1)
        coefs = _SEG_COEFS[:, 1:] * np.array([1.0, 2.0, 3.0])
    elif deriv == 2:
        powers = np.stack([np.ones_like(t), t], axis=-1)
        coefs = _SEG_COEFS[:, 2:] * np.array([2.0, 6.0])
    else:
        raise ConfigError(f"derivative order must be 0, 1 or 2, got {deriv}")
    return powers @ coefs.T


@dataclass(frozen=True)
class SplineBasis:
    lo: float
    hi: float
    nknots: int
    mode: str = "natural"  # "natural" | "cyclic"

    def __post_init__(self):
        if self.mode not in ("natural", "cyclic"):
            raise ConfigError(f"mode must be 'natural' or 'cyclic', got {self.mode!r}")
        if not isinstance(self.nknots, (int, np.integer)) or self.nknots < 4:
            raise ConfigError(f"knot count must be an integer of at least 4, got "
                              f"{self.nknots!r}")
        if not self.lo < self.hi:
            raise ConfigError(f"empty domain [{self.lo}, {self.hi}]")

    @property
    def spacing(self) -> float:
        if self.mode == "natural":
            return (self.hi - self.lo) / (self.nknots - 1)
        return (self.hi - self.lo) / self.nknots

    @property
    def period(self) -> float:
        return self.hi - self.lo


def _fold_natural(design: np.ndarray) -> np.ndarray:
    """Absorb the natural end conditions into the boundary columns."""
    m = design.shape[1] - 2
    out = np.empty((design.shape[0], m))
    out[:, 0] = design[:, 1] + 2.0 * design[:, 0]
    out[:, 1] = design[:, 2] - design[:, 0]
    out[:, 2 : m - 2] = design[:, 3 : m - 1]
    out[:, m - 2] = design[:, m - 1] - design[:, m + 1]
    out[:, m - 1] = design[:, m] + 2.0 * design[:, m + 1]
    return out


def design_matrix(basis: SplineBasis, x, deriv: int = 0) -> np.ndarray:
    """Row i holds the basis functions (or a derivative) evaluated at x[i].

    Natural mode requires x in [lo, hi]; cyclic mode wraps modulo the period.
    Non-finite x is rejected in both modes.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise DomainError(f"non-finite points: {x[~np.isfinite(x)][:5]}")
    m, h = basis.nknots, basis.spacing
    if basis.mode == "cyclic":
        s = np.mod(x - basis.lo, basis.period) / h  # cell coordinate in [0, m)
        cell = np.minimum(np.floor(s).astype(int), m - 1)
        width, shift = m, 0
    else:
        slack = 1e-12 * (basis.hi - basis.lo)
        outside = (x < basis.lo - slack) | (x > basis.hi + slack)
        if outside.any():
            raise DomainError(f"points outside [{basis.lo}, {basis.hi}] in natural "
                              f"mode: {x[outside][:5]}")
        s = (np.clip(x, basis.lo, basis.hi) - basis.lo) / h  # in [0, m-1]
        cell = np.clip(np.floor(s).astype(int), 0, m - 2)
        # The m+2 unconstrained splines over the extended knots, indexed
        # -3..m-2, before the end conditions fold them into m columns.
        width, shift = m + 2, 3
    vals = _segment_values(s - cell, deriv) / h**deriv
    out = np.zeros((len(x), width))
    rows = np.arange(len(x))
    for k in range(4):
        # Segment N_k belongs to the spline with index cell - k, stored in
        # column cell - k + shift; cyclic indices wrap around the period.
        out[rows, (cell - k + shift) % width] += vals[:, k]
    return out if basis.mode == "cyclic" else _fold_natural(out)
