import copy
import dataclasses
import itertools
import pickle

import numpy as np
import pytest

from dropglm import families as fam
from dropglm.dropout import (
    NoiseSpec,
    exact_penalty_gap,
    expected_noisy_dispersion,
    mc_dropout_objective,
    penalized_objective,
    penalized_objective_grad,
    penalty_matrices,
    remainder_binomial_bound,
    remainder_poisson,
)
from dropglm.errors import ConfigError
from dropglm.model import GlmSpec, loglik


def random_spec(kernel, rng, n=8, dm=3, dg=2):
    X = rng.normal(size=(n, dm))
    Z = rng.normal(size=(n, dg)) * 0.5
    beta = rng.normal(size=dm) * 0.3
    alpha = rng.normal(size=dg) * 0.2
    return GlmSpec(kernel=kernel, X=X, Z=Z, beta=beta, alpha=alpha)


def sample_response(spec, rng):
    theta = np.clip(spec.theta, -3, 3)
    if spec.kernel.name == "gaussian":
        return rng.normal(spec.theta, 1.0)
    if spec.kernel.name == "poisson":
        return rng.poisson(np.exp(theta)).astype(float)
    return rng.binomial(spec.kernel.trials, 1.0 / (1.0 + np.exp(-theta))).astype(float)


KERNELS = [fam.GaussianKernel(), fam.PoissonKernel(), fam.BinomialKernel(10)]


class TestNoiseSpec:
    def test_bernoulli_moments(self):
        noise = NoiseSpec("bernoulli", 0.5, 0.0)
        draws = noise.draw("mean", (100_000,), np.random.default_rng(0))
        assert set(np.unique(draws)) <= {0.0, 2.0}
        assert abs(draws.mean() - 1.0) < 3 * np.sqrt(1.0 / len(draws))
        assert noise.mean_variance == pytest.approx(1.0)  # delta/(1-delta)

    # One epoch's band block (batches, batch size, band width): desk-shaped
    # (250 rows, 3 folds, batch 30) and traffic-shaped (1,767 training rows).
    @pytest.mark.parametrize("shape", [(5, 30, 4), (58, 30, 4)])
    @pytest.mark.parametrize("delta", [0.0, 0.3, 0.7])
    def test_bernoulli_draw_is_uniforms_below_keep_over_keep(self, shape, delta):
        keep = 1.0 - delta
        draws = NoiseSpec("bernoulli", delta, delta).draw("disp", shape, np.random.default_rng(7))
        expected = (np.random.default_rng(7).random(shape) < keep) / keep
        assert draws.dtype == np.float64
        np.testing.assert_array_equal(draws.view(np.int64), expected.view(np.int64))

    # The other side's parameter differs, so each side must read its own.
    @pytest.mark.parametrize("delta", [0.0, 0.7])
    @pytest.mark.parametrize("side", ["mean", "disp"])
    def test_bernoulli_draw_reads_its_own_side(self, delta, side):
        keep = 1.0 - delta
        params = (delta, 0.5) if side == "mean" else (0.5, delta)
        draws = NoiseSpec("bernoulli", *params).draw(side, (5, 30, 4), np.random.default_rng(7))
        expected = (np.random.default_rng(7).random((5, 30, 4)) < keep) / keep
        np.testing.assert_array_equal(draws.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("shape", [(5, 30, 4), (58, 30, 4)])
    @pytest.mark.parametrize("sd", [0.0, 0.3, 1.7])
    @pytest.mark.parametrize("side", ["mean", "disp"])
    def test_gaussian_draw_is_normals_times_sd_plus_one(self, shape, sd, side):
        params = (sd, 0.5) if side == "mean" else (0.5, sd)
        draws = NoiseSpec("gaussian", *params).draw(side, shape, np.random.default_rng(8))
        expected = np.random.default_rng(8).standard_normal(shape) * sd + 1.0
        np.testing.assert_array_equal(draws.view(np.int64), expected.view(np.int64))

    def test_cached_operands_leave_the_value_semantics(self):
        # Equality, hashing, repr, replace and copies see only the three
        # fields; a copy rebuilds its read-only operands and draws the same.
        spec = NoiseSpec("bernoulli", 0.3, 0.5)
        assert spec == NoiseSpec("bernoulli", 0.3, 0.5)
        assert {spec, NoiseSpec("bernoulli", 0.3, 0.5)} == {spec}
        assert spec != NoiseSpec("bernoulli", 0.3, 0.4)
        assert spec != NoiseSpec("gaussian", 0.3, 0.5)
        assert repr(spec) == "NoiseSpec(kind='bernoulli', mean_param=0.3, disp_param=0.5)"
        moved = dataclasses.replace(spec, kind="gaussian")
        assert moved == NoiseSpec("gaussian", 0.3, 0.5)
        for other, twin in ((pickle.loads(pickle.dumps(spec)), spec),
                            (copy.deepcopy(moved), moved),
                            (moved, NoiseSpec("gaussian", 0.3, 0.5))):
            assert other == twin and hash(other) == hash(twin)
            for side in ("mean", "disp"):
                got = other.draw(side, (5, 30, 4), np.random.default_rng(9))
                want = twin.draw(side, (5, 30, 4), np.random.default_rng(9))
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
            for operand in itertools.chain(*other.operands.values()):
                assert operand.shape == () and not operand.flags.writeable

    def test_gaussian_moments(self):
        noise = NoiseSpec("gaussian", 0.3, 0.0)
        draws = noise.draw("mean", (100_000,), np.random.default_rng(1))
        assert abs(draws.mean() - 1.0) < 3 * 0.3 / np.sqrt(len(draws))
        assert noise.mean_variance == pytest.approx(0.09)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            NoiseSpec("bernoulli", 1.0, 0.0)
        with pytest.raises(ConfigError):
            NoiseSpec("gaussian", -0.1, 0.0)
        with pytest.raises(ConfigError):
            NoiseSpec(kind="laplace")

    @pytest.mark.parametrize("noise", [NoiseSpec("bernoulli", 0.3, 0.5),
                                       NoiseSpec("gaussian", 0.3, 0.5)])
    @pytest.mark.parametrize("side", ["mena", "dispersion", "", None])
    def test_unknown_side_raises(self, noise, side):
        # Any side but 'mean' once read as 'disp' and drew its noise.
        with pytest.raises(ConfigError, match=f"unknown noise side {side!r}"):
            noise.param(side)
        with pytest.raises(ConfigError, match=f"unknown noise side {side!r}"):
            noise.draw(side, (4,), np.random.default_rng(0))
        assert (noise.param("mean"), noise.param("disp")) == (0.3, 0.5)

    def test_default_is_no_noise(self):
        assert NoiseSpec() == NoiseSpec("bernoulli", 0.0, 0.0)
        assert NoiseSpec().mean_variance == NoiseSpec().disp_variance == 0.0
        draws = NoiseSpec().draw("mean", (3, 4), np.random.default_rng(0))
        np.testing.assert_array_equal(draws, np.ones((3, 4)))


class TestPerturb:
    def test_unbiasedness(self):
        rng = np.random.default_rng(3)
        x = np.array([1.0, -2.0, 0.5])
        draws = NoiseSpec("bernoulli", 0.5).draw("mean", (100_000, 3), rng)
        mean = (x * draws).mean(axis=0)
        se = np.abs(x) * 1.0 / np.sqrt(draws.shape[0])  # noise sd is 1 at delta=0.5
        assert np.all(np.abs(mean - x) < 3 * np.maximum(se, 1e-12))


class TestMcObjective:
    def test_no_noise_equals_negative_loglik(self):
        rng = np.random.default_rng(4)
        spec = random_spec(fam.PoissonKernel(), rng)
        y = sample_response(spec, rng)
        est = mc_dropout_objective(spec, y, NoiseSpec(), 10, rng)
        assert est.value == pytest.approx(-loglik(spec, y), abs=1e-10)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ["gaussian", "bernoulli"])
    def test_gaussian_family_mean_noise_is_exact(self, kind):
        # For b(t) = t^2/2 the quadratic penalty is exact, any unit-mean noise.
        rng = np.random.default_rng(5)
        spec = random_spec(fam.GaussianKernel(), rng, n=12, dm=4)
        y = sample_response(spec, rng)
        noise = (NoiseSpec("gaussian", 0.4) if kind == "gaussian"
                 else NoiseSpec("bernoulli", 0.3))
        est = mc_dropout_objective(spec, y, noise, 200_000, np.random.default_rng(6))
        snap = penalty_matrices(spec, noise)
        closed = -loglik(spec, y) + 0.5 * noise.mean_variance * np.sum(
            (snap.Theta * spec.beta) ** 2)
        assert abs(est.value - closed) <= 3 * est.stderr

    def test_poisson_small_noise_within_remainder(self):
        rng = np.random.default_rng(7)
        spec = random_spec(fam.PoissonKernel(), rng, n=6, dm=3)
        y = sample_response(spec, rng)
        noise = NoiseSpec("gaussian", 0.1)
        est = mc_dropout_objective(spec, y, noise, 300_000, np.random.default_rng(8))
        snap = penalty_matrices(spec, noise)
        closed = -loglik(spec, y) + 0.5 * noise.mean_variance * np.sum(
            (snap.Theta * spec.beta) ** 2)
        bound = sum(
            spec.gamma[i] * remainder_poisson(spec.X[i], spec.beta, 0.1)
            for i in range(spec.n)
        )
        assert abs(est.value - closed) <= bound + 3 * est.stderr


class TestExactPenaltyGap:
    def test_gaussian_quadratic_gap(self):
        rng = np.random.default_rng(9)
        spec = random_spec(fam.GaussianKernel(), rng)
        noise = NoiseSpec("gaussian", 0.5)
        gaps, ses = exact_penalty_gap(spec, noise, 100_000, np.random.default_rng(10))
        exact = (spec.gamma * 0.5 * noise.mean_variance
                 * ((spec.X * spec.beta) ** 2).sum(axis=1) / spec.phi)
        assert np.all(np.abs(gaps - exact) <= 3 * np.maximum(ses, 1e-12))

    def test_zero_noise_zero_gap(self):
        rng = np.random.default_rng(11)
        spec = random_spec(fam.PoissonKernel(), rng)
        gaps, ses = exact_penalty_gap(spec, NoiseSpec("gaussian", 0.0), 100, rng)
        assert np.max(np.abs(gaps)) == 0.0

    def test_poisson_lognormal_gap(self):
        # x = beta = (1): gap = E[e^xi] - e = e(e^{sigma^2/2} - 1) exactly.
        spec = GlmSpec(kernel=fam.PoissonKernel(), X=np.array([[1.0]]),
                       Z=np.array([[1.0]]), beta=np.array([1.0]),
                       alpha=np.array([0.0]))
        noise = NoiseSpec("gaussian", 0.5)
        gaps, ses = exact_penalty_gap(spec, noise, 400_000, np.random.default_rng(12))
        expected = np.exp(1.0) * (np.exp(0.125) - 1.0)
        assert abs(gaps[0] - expected) <= 3 * ses[0]

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_jensen_nonnegativity(self, kernel):
        rng = np.random.default_rng(13)
        for trial in range(10):
            spec = random_spec(kernel, rng, n=6)
            noise = (NoiseSpec("bernoulli", rng.uniform(0.05, 0.6))
                     if trial % 2 else NoiseSpec("gaussian", rng.uniform(0.05, 0.8)))
            gaps, ses = exact_penalty_gap(spec, noise, 4000,
                                          np.random.default_rng(100 + trial))
            assert np.all(gaps >= -3 * ses)

    def test_disp_noise_rejected(self):
        rng = np.random.default_rng(14)
        spec = random_spec(fam.GaussianKernel(), rng)
        with pytest.raises(ConfigError):
            exact_penalty_gap(spec, NoiseSpec("gaussian", 0.1, 0.2), 100, rng)


class TestPenaltyMatrices:
    def test_zero_disp_noise_degenerates(self):
        rng = np.random.default_rng(15)
        spec = random_spec(fam.PoissonKernel(), rng)
        snap = penalty_matrices(spec, NoiseSpec("gaussian", 0.5, 0.0))
        assert np.allclose(snap.Lambda, 1.0)
        assert np.allclose(snap.Theta_tilde, snap.Theta)

    def test_single_observation_identity(self):
        spec = GlmSpec(kernel=fam.GaussianKernel(), X=np.array([[1.0]]),
                       Z=np.array([[1.0]]), beta=np.zeros(1), alpha=np.zeros(1))
        snap = penalty_matrices(spec, NoiseSpec("gaussian", 0.0, 0.0))
        assert snap.W[0] == pytest.approx(1.0)
        assert snap.Theta[0] == pytest.approx(1.0)

    def test_hand_computed_theta(self):
        # x=(1,2)', W=diag(1,4) -> Theta = sqrt(1 + 16) = sqrt(17).
        spec = GlmSpec(kernel=fam.GaussianKernel(), X=np.array([[1.0], [2.0]]),
                       Z=np.array([[0.0], [1.0]]), beta=np.zeros(1),
                       alpha=np.array([np.log(4.0)]))
        snap = penalty_matrices(spec, NoiseSpec())
        assert snap.Theta[0] == pytest.approx(np.sqrt(17.0), abs=1e-12)

    def test_monotonicity_and_ordering(self):
        rng = np.random.default_rng(16)
        spec = random_spec(fam.BinomialKernel(10), rng)
        snap = penalty_matrices(spec, NoiseSpec("gaussian", 0.5, 0.7))
        assert np.all(snap.Lambda >= 1.0)
        assert np.all(snap.W_tilde > snap.W * (1 - 1e-15))
        assert np.all(snap.Theta_tilde > snap.Theta)
        assert np.allclose(snap.W_tilde, snap.Lambda * snap.W)

    def test_rare_feature_single_row_contribution(self):
        # A feature nonzero in one row contributes exactly that row's term.
        rng = np.random.default_rng(17)
        X = np.zeros((6, 2))
        X[:, 0] = rng.normal(size=6)
        X[3, 1] = 2.0
        spec = GlmSpec(kernel=fam.PoissonKernel(), X=X, Z=np.ones((6, 1)),
                       beta=np.array([0.1, 0.2]), alpha=np.array([0.3]))
        snap = penalty_matrices(spec, NoiseSpec())
        expected = np.sqrt(snap.W[3] * 4.0)
        assert snap.Theta[1] == expected  # exact equality required

    def test_zero_column_warns(self):
        X = np.zeros((4, 2))
        X[:, 0] = 1.0
        spec = GlmSpec(kernel=fam.GaussianKernel(), X=X, Z=np.ones((4, 1)),
                       beta=np.zeros(2), alpha=np.zeros(1))
        with pytest.warns(UserWarning, match="no.*penalty|unidentifiable"):
            penalty_matrices(spec, NoiseSpec())


class TestPenalizedObjective:
    def test_no_noise_is_negative_loglik(self):
        rng = np.random.default_rng(18)
        spec = random_spec(fam.BinomialKernel(10), rng)
        y = sample_response(spec, rng)
        got = penalized_objective(spec, y, NoiseSpec("gaussian", 0.0, 0.0))
        assert got == pytest.approx(-loglik(spec, y), abs=1e-10)

    def test_matches_mc_for_gaussian_family(self):
        rng = np.random.default_rng(19)
        spec = random_spec(fam.GaussianKernel(), rng, n=10, dm=3)
        y = sample_response(spec, rng)
        noise = NoiseSpec("gaussian", 0.5, 0.0)
        est = mc_dropout_objective(spec, y, noise, 300_000, np.random.default_rng(20))
        assert abs(est.value - penalized_objective(spec, y, noise)) <= 3 * est.stderr

    def test_lognormal_dispersion_expectation_example(self):
        # z = (1, 0), alpha = (log 2, 5), sigma_g = 1:
        # E[gamma~] = 2 exp((log 2)^2 / 2) ~ 2.543, checked against MC.
        spec = GlmSpec(kernel=fam.GaussianKernel(), X=np.ones((1, 1)),
                       Z=np.array([[1.0, 0.0]]), beta=np.zeros(1),
                       alpha=np.array([np.log(2.0), 5.0]))
        noise = NoiseSpec("gaussian", 0.0, 1.0)
        expected = 2.0 * np.exp(0.5 * np.log(2.0) ** 2)
        got = expected_noisy_dispersion(spec, noise)[0]
        assert got == pytest.approx(expected, rel=1e-12)
        rng = np.random.default_rng(21)
        zeta = noise.draw("disp", (1_000_000, 2), rng)
        emp = np.exp(zeta @ (spec.Z[0] * spec.alpha)).mean()
        assert abs(emp - expected) / expected < 0.01

    def test_bernoulli_clt_regime(self):
        # d_gamma >= 20 with comparable column sizes: the lognormal formula
        # holds within 5% for Bernoulli noise (central-limit regime).
        rng = np.random.default_rng(22)
        dg = 24
        z = rng.uniform(0.5, 1.5, dg)
        alpha = rng.normal(0.0, 0.08, dg)
        spec = GlmSpec(kernel=fam.GaussianKernel(), X=np.ones((1, 1)), Z=z[None, :],
                       beta=np.zeros(1), alpha=alpha)
        noise = NoiseSpec("bernoulli", 0.0, 0.3)
        formula = expected_noisy_dispersion(spec, noise)[0]
        zeta = noise.draw("disp", (1_000_000, dg), np.random.default_rng(23))
        emp = np.exp(zeta @ (z * alpha)).mean()
        assert abs(emp - formula) / emp < 0.05

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_gradient_matches_finite_differences(self, kernel):
        rng = np.random.default_rng(24)
        for _ in range(5):
            spec = random_spec(kernel, rng)
            y = sample_response(spec, rng)
            noise = NoiseSpec("gaussian", rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.6))
            gb, ga = penalized_objective_grad(spec, y, noise)
            eps = 1e-5
            for j in range(len(spec.beta)):
                e = np.zeros_like(spec.beta)
                e[j] = eps
                fd = (penalized_objective(spec.with_coefs(spec.beta + e, spec.alpha), y, noise)
                      - penalized_objective(spec.with_coefs(spec.beta - e, spec.alpha), y, noise)) / (2 * eps)
                assert abs(fd - gb[j]) / max(abs(fd), 1e-8) < 1e-5
            for j in range(len(spec.alpha)):
                e = np.zeros_like(spec.alpha)
                e[j] = eps
                fd = (penalized_objective(spec.with_coefs(spec.beta, spec.alpha + e), y, noise)
                      - penalized_objective(spec.with_coefs(spec.beta, spec.alpha - e), y, noise)) / (2 * eps)
                assert abs(fd - ga[j]) / max(abs(fd), 1e-8) < 1e-5


class TestRemainders:
    def test_zero_noise(self):
        assert remainder_poisson(np.ones(2), np.ones(2), 0.0) == 0.0
        assert remainder_binomial_bound(np.ones(2), np.ones(2), 0.0, 10) == 0.0

    def test_poisson_formula_matches_lognormal_oracle(self):
        # Oracle: with u ~ N(x'b, v) the exact remainder is
        # E[e^u] - e^{x'b}(1 + v/2) = e^{x'b}(e^{v/2} - v/2 - 1).
        got = remainder_poisson(np.array([1.0]), np.array([1.0]), 0.5)
        assert got == pytest.approx(np.e * (np.exp(0.125) - 0.125 - 1.0), rel=1e-12)

    def test_poisson_formula_matches_mc(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            d = rng.integers(1, 5)
            x = rng.normal(size=d)
            beta = rng.normal(size=d) * 0.4
            sigma = rng.uniform(0.1, 0.5)
            v = sigma**2 * np.sum((x * beta) ** 2)
            if v > 0.5:
                continue
            draws = 200_000
            xi = 1.0 + sigma * rng.standard_normal((draws, d))
            u = xi @ (x * beta)
            vals = np.exp(u)
            quad = np.exp(x @ beta) * (1.0 + 0.5 * v)
            mc = vals.mean() - quad
            se = vals.std(ddof=1) / np.sqrt(draws)
            assert abs(mc - remainder_poisson(x, beta, sigma)) <= 3 * se

    def test_binomial_mc_remainder_within_bound(self):
        rng = np.random.default_rng(26)
        trials = 10
        kernel = fam.BinomialKernel(trials)
        for _ in range(10):
            d = rng.integers(1, 5)
            x = rng.normal(size=d)
            beta = rng.normal(size=d) * 0.4
            sigma = rng.uniform(0.1, 0.5)
            draws = 100_000
            xi = 1.0 + sigma * rng.standard_normal((draws, d))
            u = xi @ (x * beta)
            vals = kernel.b(u)
            t0 = float(x @ beta)
            quad = kernel.b(t0) + 0.5 * kernel.b_second(t0) * sigma**2 * np.sum((x * beta) ** 2)
            mc = vals.mean() - quad
            se = vals.std(ddof=1) / np.sqrt(draws)
            assert abs(mc) <= remainder_binomial_bound(x, beta, sigma, trials) + 3 * se
