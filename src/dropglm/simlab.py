"""Simulation machinery: test functions, scenario data, RMSE, scenario runs.

Mean test functions (domain [0, 1]):

    f1(x) = 2 sin(4 pi x) npdf(x; 0.5, 0.05^2)            (gaussian data)
    f2(x) = 40 + 10 sin(4 pi x) npdf(x; 0.5, 0.05^2)      (count data)

Dispersion test functions (scenario j uses g_j):

    g1(x) = exp{-0.08 npdf(x; 0.4, 0.04^2) - 0.08 npdf(x; 0.7, 0.02^2)}
    g2(x) = exp{-0.08 npdf(x; 0.4, 0.03^2) + 0.08 npdf(x; 0.7, 0.03^2)}
    g3(x) = exp{(2/0.15) npdf((x-0.8)/0.15; 0, 1) ncdf(-4 (x-0.8)/0.15)}

g1 stays below 1 (pure overdispersion) and g2 crosses 1.  g3 is implemented
exactly as written: its exponent is nonnegative, so it is >= 1 pointwise
(underdispersion), even though it is usually described as a slowly varying
overdispersion shape; see README for the discrepancy note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import families
from .basis import design_matrix
from .errors import ConfigError
from .model import SplineModel, fitted_curves
from .optim import OptimConfig
from .rngs import substream
from .tuning import METHODS, RECTANGLES, CvPlan, fit_method, random_search_cv

_erf = np.vectorize(math.erf, otypes=[float])


def _npdf(x, mu: float, sigma: float):
    x = np.asarray(x, dtype=float)
    z = (x - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def _ncdf(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * (1.0 + _erf(x / math.sqrt(2.0)))


def f1(x):
    x = np.asarray(x, dtype=float)
    return 2.0 * np.sin(4.0 * np.pi * x) * _npdf(x, 0.5, 0.05)


def f2(x):
    x = np.asarray(x, dtype=float)
    return 40.0 + 10.0 * np.sin(4.0 * np.pi * x) * _npdf(x, 0.5, 0.05)


def g1(x):
    return np.exp(-0.08 * _npdf(x, 0.4, 0.04) - 0.08 * _npdf(x, 0.7, 0.02))


def g2(x):
    return np.exp(-0.08 * _npdf(x, 0.4, 0.03) + 0.08 * _npdf(x, 0.7, 0.03))


def g3(x):
    x = np.asarray(x, dtype=float)
    t = (x - 0.8) / 0.15
    return np.exp((2.0 / 0.15) * _npdf(t, 0.0, 1.0) * _ncdf(-4.0 * t))


DISPERSION_FUNCTIONS = {1: g1, 2: g2, 3: g3}
KAPPA = 500  # the evaluation grid has KAPPA + 1 points on [0, 1]
# f2's maximum on [0, 1] (68.56457 near x = 0.5), rounded up: a dbinomial
# scenario needs more trials, so that every mean lies inside (0, trials).
F2_MAX = 68.5646


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation cell: family, dispersion test function, size and
    tuning plan.  The mean test function (f1 gaussian, f2 counts) and the
    scale phi (0.64 gaussian, 1 counts) follow from the family."""

    family: str
    disp_index: int = 1        # scenario number
    n: int = 250
    replicates: int = 100
    trials: int = 70
    mean_knots: int = 30
    disp_knots: int = 20
    cv_folds: int = 5
    cv_samples: int = 500
    seed: int = 0
    optim: OptimConfig = field(default_factory=OptimConfig)

    def __post_init__(self):
        self.model  # checks the family, trials and knot counts
        if self.family == "dbinomial" and self.trials <= F2_MAX:
            raise ConfigError(f"dbinomial trials must exceed f2's maximum {F2_MAX}, "
                              f"got {self.trials}")
        if self.disp_index not in DISPERSION_FUNCTIONS:
            raise ConfigError(f"disp_index must be in {sorted(DISPERSION_FUNCTIONS)}")
        for name in ("n", "replicates", "cv_samples"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.cv_folds < 2:
            raise ConfigError("cv_folds must be at least 2")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")

    @property
    def mean_function(self):
        return f1 if self.family == "gaussian" else f2

    @property
    def phi(self) -> float:
        return 0.64 if self.family == "gaussian" else 1.0

    @property
    def disp_function(self):
        return DISPERSION_FUNCTIONS[self.disp_index]

    @property
    def model(self) -> SplineModel:
        """Natural-boundary bases on [0, 1], the simulation domain."""
        return SplineModel(self.family, self.trials, self.phi, self.mean_knots,
                           self.disp_knots)

    def kernel(self):
        return self.model.kernel()

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, KAPPA + 1)


def generate_dataset(config: ScenarioConfig, replicate_index: int):
    """x ~ U[0,1]; y ~ DEF(mean f(x), dispersion g(x)) with scale phi, drawn
    from the replicate's own substream."""
    rng = substream(config.seed, "data", replicate_index)
    kernel = config.kernel()
    x = rng.random(config.n)
    mu = config.mean_function(x)
    gamma = config.disp_function(x)
    theta = kernel.mean_to_theta(mu)
    y = families.def_sample_each(kernel, theta, gamma, rng, phi=config.phi)
    return x, y


def rmse(estimate, truth) -> float:
    """Root of the unnormalized sum of squared errors over the grid."""
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape != truth.shape:
        raise ConfigError(f"grid length mismatch: {estimate.shape} vs {truth.shape}")
    return float(np.sqrt(np.sum((estimate - truth) ** 2)))


RESULT_COLUMNS = ["family", "scenario", "n", "method", "replicate",
                  "rmse_mean", "rmse_disp", "param1", "param2", "diverged"]


@dataclass(frozen=True)
class ScenarioResult:
    rows: list
    cv_results: dict  # method -> CvResult
    grid: np.ndarray
    truth_mean: np.ndarray
    truth_disp: np.ndarray


def run_scenario(config: ScenarioConfig, methods) -> ScenarioResult:
    """The full protocol: CV on replicate 1, fits on replicates 2..R+1,
    RMSE on the evaluation grid for mean (response scale) and dispersion
    (gamma scale)."""
    for method in methods:
        if method not in RECTANGLES:
            raise ConfigError(f"unknown method {method!r}; choose from {METHODS}")
    model = config.model
    kernel = model.kernel()
    mean_basis, disp_basis = model.bases()
    grid = config.grid()
    truth_mean = config.mean_function(grid)
    truth_disp = config.disp_function(grid)
    B_mean = design_matrix(mean_basis, grid)
    B_disp = design_matrix(disp_basis, grid)

    datasets = [generate_dataset(config, m) for m in range(config.replicates + 1)]

    rows = []
    cv_results = {}
    for method in methods:
        plan = CvPlan(rect=RECTANGLES[method], n_samples=config.cv_samples,
                      n_folds=config.cv_folds,
                      seed=int(substream(config.seed, "cvseed", method).integers(2**31)))
        x0, y0 = datasets[0]
        cv = random_search_cv(model.spec(x0), y0, method, plan, config.optim)
        cv_results[method] = cv
        params = cv.selected_params

        for m in range(1, config.replicates + 1):
            x, y = datasets[m]
            spec = model.spec(x)
            rng = substream(config.seed, "fit", method, m)
            result = fit_method(spec, y, method, params, config.optim, rng)
            diverged = result.diverged
            if not diverged:
                est_mean, est_disp = fitted_curves(kernel, B_mean, B_disp,
                                                   result.beta, result.alpha)
                r_mean = rmse(est_mean, truth_mean)
                r_disp = rmse(est_disp, truth_disp)
                diverged = not (np.isfinite(r_mean) and np.isfinite(r_disp)
                                and max(r_mean, r_disp) < 1e8)
            if diverged:
                r_mean = r_disp = float("nan")
            rows.append([config.family, config.disp_index, config.n, method, m,
                         r_mean, r_disp, params[0], params[1], int(diverged)])

    return ScenarioResult(rows=rows, cv_results=cv_results, grid=grid,
                          truth_mean=truth_mean, truth_disp=truth_disp)
