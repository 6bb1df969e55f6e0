import numpy as np
import pytest
from scipy.optimize import minimize

from dropglm import families as fam
from dropglm import tuning
from dropglm.dropout import NoiseSpec
from dropglm.errors import ConfigError
from dropglm.model import GlmSpec, loglik
from dropglm.optim import OptimConfig, fit, warm_start_beta
from dropglm.pmle import (
    DiffPenalty,
    pmle_fit,
    pmle_objective,
    pmle_objective_grad,
    second_difference_penalty,
)
from dropglm.rngs import substream


def brute_force_quadform(beta):
    """Sum of squared second differences, straight from the stencil."""
    return sum(
        (beta[j + 2] - 2 * beta[j + 1] + beta[j]) ** 2 for j in range(len(beta) - 2)
    )


def random_spec(kernel, rng, n=30, dm=6, dg=5):
    X = rng.normal(size=(n, dm))
    Z = rng.normal(size=(n, dg)) * 0.5
    return GlmSpec(kernel=kernel, X=X, Z=Z, beta=rng.normal(size=dm) * 0.2,
                   alpha=rng.normal(size=dg) * 0.2)


class TestPenaltyMatrix:
    def test_brute_force_oracle_on_random_vectors(self):
        rng = np.random.default_rng(0)
        P = second_difference_penalty(7)
        for _ in range(20):
            beta = rng.normal(size=7)
            assert beta @ P @ beta == pytest.approx(brute_force_quadform(beta),
                                                    abs=1e-12)

    def test_spec_example_d4(self):
        # d=4, beta=(0,1,0,0): stencil gives (0-2+0)^2 + (0-0+1)^2 = 5.
        beta = np.array([0.0, 1.0, 0.0, 0.0])
        P = second_difference_penalty(4)
        assert beta @ P @ beta == pytest.approx(brute_force_quadform(beta), abs=1e-12)
        assert beta @ P @ beta == pytest.approx(5.0, abs=1e-12)

    def test_null_space_is_affine(self):
        P = second_difference_penalty(9)
        j = np.arange(9.0)
        for a, b in ((1.0, 0.0), (0.3, -2.0), (0.0, 1.7)):
            beta = a + b * j
            assert abs(beta @ P @ beta) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        P = second_difference_penalty(12)
        for _ in range(50):
            beta = rng.normal(size=12)
            assert beta @ P @ beta >= 0.0


class TestGradient:
    # Desk (32/22 coefficients) and traffic (24/12) dimensions; a weight of
    # 0, and weights whose doubling is exact but whose product is not.
    @pytest.mark.parametrize("dims", [(32, 22), (24, 12)])
    def test_gradient_is_two_lam_times_p_coefs_to_the_bit(self, dims):
        rng = np.random.default_rng(4)
        pens = [DiffPenalty(lm, ld, *dims)
                for lm, ld in ((0.0, 3.7), (1e-3 / 7, 0.1), (123.456, 1e5 / 3))]
        for pen in pens:
            beta, alpha = rng.normal(size=dims[0]), rng.normal(size=dims[1])
            got = pen.gradient(beta, alpha)
            want = (2.0 * pen.lam_mean * (pen.P_mean @ beta),
                    2.0 * pen.lam_disp * (pen.P_disp @ alpha))
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))
        stacked = DiffPenalty.stack(pens)
        beta, alpha = rng.normal(size=(3, dims[0], 1)), rng.normal(size=(3, dims[1], 1))
        got = stacked.gradient(beta, alpha)
        want = (2.0 * stacked.lam_mean * (stacked.P_mean @ beta),
                2.0 * stacked.lam_disp * (stacked.P_disp @ alpha))
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))


class TestObjective:
    def test_zero_lambda_is_negative_loglik(self):
        rng = np.random.default_rng(2)
        spec = random_spec(fam.PoissonKernel(), rng)
        y = rng.poisson(2.0, spec.n).astype(float)
        penalty = DiffPenalty(0.0, 0.0, 6, 5)
        assert pmle_objective(spec, y, penalty) == pytest.approx(-loglik(spec, y))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for kernel in (fam.GaussianKernel(), fam.PoissonKernel(), fam.BinomialKernel(8)):
            spec = random_spec(kernel, rng)
            if kernel.name == "gaussian":
                y = rng.normal(spec.theta, 1.0)
            elif kernel.name == "poisson":
                y = rng.poisson(np.exp(np.clip(spec.theta, -3, 3))).astype(float)
            else:
                y = rng.binomial(8, 0.4, spec.n).astype(float)
            penalty = DiffPenalty(3.0, 1.5, 6, 5)
            gb, ga = pmle_objective_grad(spec, y, penalty)
            eps = 1e-5
            for j in range(6):
                e = np.zeros(6)
                e[j] = eps
                fd = (pmle_objective(spec.with_coefs(spec.beta + e, spec.alpha), y, penalty)
                      - pmle_objective(spec.with_coefs(spec.beta - e, spec.alpha), y, penalty)) / (2 * eps)
                assert abs(fd - gb[j]) / max(abs(fd), 1e-8) < 1e-6
            for j in range(5):
                e = np.zeros(5)
                e[j] = eps
                fd = (pmle_objective(spec.with_coefs(spec.beta, spec.alpha + e), y, penalty)
                      - pmle_objective(spec.with_coefs(spec.beta, spec.alpha - e), y, penalty)) / (2 * eps)
                assert abs(fd - ga[j]) / max(abs(fd), 1e-8) < 1e-6


class TestPmleFit:
    def test_zero_lambda_matches_plain_fit_trace(self):
        rng = np.random.default_rng(4)
        n = 50
        X = rng.normal(size=(n, 4))
        Z = rng.normal(size=(n, 3)) * 0.3
        spec = GlmSpec(kernel=fam.GaussianKernel(), X=X, Z=Z, beta=np.zeros(4),
                       alpha=np.zeros(3))
        y = rng.normal(X @ np.array([1.0, -0.5, 0.2, 0.0]), 1.0)
        config = OptimConfig(batch_size=20, max_iters=1500)
        penalty = DiffPenalty(0.0, 0.0, 4, 3)
        a = pmle_fit(spec, y, penalty, config, np.random.default_rng(7))
        b = fit(spec, y, NoiseSpec(), config, np.random.default_rng(7))
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.alpha, b.alpha)

    def test_large_lambda_forces_linear_mean(self):
        # Scenario-1-style Gaussian data; lambda_mu = 1e6 shrinks the fitted
        # mean coefficients to an affine sequence.
        from dropglm.simlab import ScenarioConfig, generate_dataset

        cfg = ScenarioConfig(family="gaussian", disp_index=1, n=250, seed=3)
        x, y = generate_dataset(cfg, 1)
        spec = cfg.model.spec(x)
        penalty = DiffPenalty(1e6, 10.0, spec.X.shape[1], spec.Z.shape[1])
        config = OptimConfig(max_iters=12_000)
        res = pmle_fit(spec, y, penalty, config, np.random.default_rng(8))
        second = np.abs(np.diff(res.beta, 2))
        assert second.max() < 1e-2

    def test_dimension_check(self):
        rng = np.random.default_rng(9)
        spec = random_spec(fam.GaussianKernel(), rng)
        with pytest.raises(ConfigError):
            pmle_fit(spec, np.zeros(spec.n), DiffPenalty(1.0, 1.0, 3, 3),
                     OptimConfig(), np.random.default_rng(0))


class TestFitMethodReachesMinimum:
    """The PMLE fit that CV and the scenario protocol run, at the desk budget
    of the direction gates, lands on the minimum of the penalized objective
    at the weights it was given."""

    SEED = 20240801
    DESK_OPTIM = OptimConfig(batch_size=30, max_iters=5000, avg_window=2500)

    @pytest.fixture(scope="class")
    def scenario3(self):
        from dropglm.simlab import ScenarioConfig, generate_dataset

        cfg = ScenarioConfig(family="gaussian", disp_index=3, n=250, seed=self.SEED)
        x, y = generate_dataset(cfg, 1)
        return cfg.model.spec(x), y

    @staticmethod
    def exact_minimum(spec, y, penalty) -> float:
        """L-BFGS-B minimum of pmle_objective from the engine's warm start."""
        d = spec.X.shape[1]

        def objective(v):
            s = spec.with_coefs(v[:d], v[d:])
            gb, ga = pmle_objective_grad(s, y, penalty)
            return pmle_objective(s, y, penalty), np.concatenate([gb, ga])

        v0 = np.concatenate([warm_start_beta(spec, y), np.zeros(spec.Z.shape[1])])
        res = minimize(objective, v0, jac=True, method="L-BFGS-B",
                       options={"maxiter": 20_000, "ftol": 1e-14, "gtol": 1e-9})
        assert res.success, res.message
        return float(res.fun)

    # The corners of the PMLE search rectangle, and the pair that CV selected
    # on Scenario 3 when the drawn weights penalized the log-likelihood as is.
    @pytest.mark.parametrize("params", [(0.0, 0.0), (0.0, 15000.0), (15000.0, 0.0),
                                        (15000.0, 15000.0), (5392.0, 116.1)])
    def test_within_one_nat(self, scenario3, params, monkeypatch):
        spec, y = scenario3
        penalties = []

        def recording_pmle_fit(spec, y, penalty, config, rng):
            penalties.append(penalty)
            return pmle_fit(spec, y, penalty, config, rng)

        monkeypatch.setattr(tuning, "pmle_fit", recording_pmle_fit)
        # The stream run_scenario fits replicate 1 with.
        res = tuning.fit_method(spec, y, "pmle", params, self.DESK_OPTIM,
                                substream(self.SEED, "fit", "pmle", 1))
        (penalty,) = penalties
        reached = pmle_objective(spec.with_coefs(res.beta, res.alpha), y, penalty)
        best = self.exact_minimum(spec, y, penalty)
        assert reached <= best + 1.0, (
            f"SGD objective {reached:.2f} vs minimum {best:.2f} at weights "
            f"({penalty.lam_mean:g}, {penalty.lam_disp:g})")
