import hashlib
import math
import re

import numpy as np
import pytest
import scipy.special

from dropglm import families as fam
from dropglm.errors import DomainError, NumericError
from dropglm.families import DefParams
from dropglm.simlab import ScenarioConfig


KERNELS = {
    "gaussian": fam.GaussianKernel(),
    "poisson": fam.PoissonKernel(),
    "binomial": fam.BinomialKernel(10),
}


def random_theta(kernel, rng, size):
    # Keep Poisson/binomial natural parameters in a numerically sane range.
    if kernel.name == "gaussian":
        return rng.normal(0.0, 2.0, size)
    return rng.uniform(-2.0, 2.0, size)


class TestKernelDerivatives:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_b_derivatives_match_finite_differences(self, name):
        kernel = KERNELS[name]
        rng = np.random.default_rng(5)
        theta = random_theta(kernel, rng, 20)
        h = 1e-6
        # Chained check: FD of b validates b', FD of the validated b'
        # validates b'' (a plain second difference of b bottoms out at ~1e-4).
        fd1 = (kernel.b(theta + h) - kernel.b(theta - h)) / (2 * h)
        fd2 = (kernel.b_prime(theta + h) - kernel.b_prime(theta - h)) / (2 * h)
        assert np.max(np.abs(fd1 - kernel.b_prime(theta)) / np.abs(fd1)) < 1e-6
        assert np.max(np.abs(fd2 - kernel.b_second(theta)) / np.abs(fd2)) < 1e-6

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_b_convex_and_mean_map_inverts(self, name):
        kernel = KERNELS[name]
        rng = np.random.default_rng(6)
        theta = random_theta(kernel, rng, 20)
        assert np.all(kernel.b_second(theta) > 0)
        assert np.allclose(kernel.mean_to_theta(kernel.b_prime(theta)), theta,
                           atol=1e-10)


class TestHotPathOperands:
    def test_b_and_b_prime_keep_the_bits_of_python_float_operands(self):
        theta = np.array([-31.0, -2.5, -0.0, 0.0, 1e-300, 0.7, 40.0])
        pairs = [
            (KERNELS["gaussian"].b(theta), 0.5 * theta**2),
            (KERNELS["gaussian"].b_prime(theta), theta + 0.0),  # -0.0 -> +0.0
            (KERNELS["binomial"].b(theta),
             10 * (np.maximum(theta, 0.0) + np.log1p(np.exp(-np.abs(theta))))),
            (KERNELS["binomial"].b_prime(theta), 10 * scipy.special.expit(theta)),
        ]
        for got, want in pairs:
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_every_cached_operand_is_read_only(self):
        # Module constants and per-object caches of the hot path: an in-place
        # operation on any of them raises instead of moving every later fit.
        from dropglm import dropout, model, optim, pmle

        operands = [value for module in (fam, model, optim, dropout, pmle)
                    for value in vars(module).values()
                    if isinstance(value, np.ndarray) and value.ndim == 0]
        operands += [fam.BinomialKernel(10)._trials, fam.frozen(2.5)]
        operands += pmle.DiffPenalty(0.5, 2.0, 5, 4).twice
        for noise in (dropout.NoiseSpec("bernoulli", 0.3, 0.0),
                      dropout.NoiseSpec("gaussian", 0.2, 0.4)):
            operands += [op for ops in noise.operands.values() for op in ops]
        assert len(operands) >= 14
        for operand in operands:
            assert operand.shape == () and operand.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                operand += 0.0


class TestLogDensity:
    def test_poisson_gamma_one_matches_pmf(self):
        # gamma = 1 reduces the DEF to the plain Poisson pmf.
        params = DefParams(theta=np.log(2.0), gamma=1.0)
        got = fam.def_log_density(fam.PoissonKernel(), params, 3.0)
        expected = np.log(np.exp(-2.0) * 2.0**3 / 6.0)  # independent pmf evaluation
        assert got == pytest.approx(expected, abs=1e-12)

    def test_gaussian_standard_normal(self):
        params = DefParams(theta=0.0, gamma=1.0)
        got = fam.def_log_density(fam.GaussianKernel(), params, 0.0)
        assert got == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_poisson_half_gamma_at_zero(self):
        # Hand evaluation: 0.5*log(0.5) + 0.5*(0 - 1) + 0.5*(0 - 0) + 0.
        params = DefParams(theta=0.0, gamma=0.5)
        got = fam.def_log_density(fam.PoissonKernel(), params, 0.0)
        assert got == pytest.approx(0.5 * np.log(0.5) - 0.5, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_gamma_one_reduces_to_ef_density(self, name):
        kernel = KERNELS[name]
        rng = np.random.default_rng(7)
        theta = float(random_theta(kernel, rng, 1)[0])
        r = 1.0 if kernel.discrete else 1.7
        y = (np.arange(4, dtype=float) if kernel.discrete
             else rng.normal(size=4))
        params = DefParams(theta=theta, gamma=1.0, phi=r)
        ef = (y * theta - kernel.b(theta)) / r + kernel.base_measure(y, r)
        got = fam.def_log_density(kernel, params, y)
        assert np.max(np.abs(got - ef)) < 1e-12

    @pytest.mark.parametrize("gamma", [0.3, 0.507, 2.5])
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_is_the_working_term_plus_the_base_measure(self, name, gamma):
        # One code path: the density the tables and def_log_density read is
        # loglik_terms, the term the likelihood and the oracles sum, to the bit.
        kernel, y, params = self.grid_case(name, gamma)
        expected = (fam.loglik_terms(kernel, params.theta, np.log(params.gamma), y,
                                     params.phi)
                    + kernel.base_measure(y, params.phi))
        assert np.array_equal(fam.def_log_density(kernel, params, y), expected)

    @pytest.mark.parametrize("gamma", [0.3, 2.5])
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_matches_the_textbook_def_form(self, name, gamma):
        # Efron's (1986) DEF with each saturated term in closed form,
        # 0*log(0) := 0 written out, one observation at a time.
        kernel, y, params = self.grid_case(name, gamma)
        theta, phi = params.theta, params.phi

        def xlog(a, b):
            return a * math.log(b) if a > 0 else 0.0

        def textbook(v):
            if name == "gaussian":  # exactly N(theta, phi/gamma)
                return (0.5 * math.log(gamma) - 0.5 * math.log(2 * math.pi * phi)
                        - gamma * (v - theta) ** 2 / (2 * phi))
            if name == "poisson":
                mu = math.exp(theta)
                return (0.5 * math.log(gamma) + gamma * (v * theta - mu)
                        + (1 - gamma) * (xlog(v, v) - v) - math.lgamma(v + 1))
            n = kernel.trials
            pi = 1 / (1 + math.exp(-theta))
            return (0.5 * math.log(gamma)
                    + gamma * (xlog(v, pi) + xlog(n - v, 1 - pi))
                    + (1 - gamma) * (xlog(v, v / n) + xlog(n - v, (n - v) / n))
                    + math.lgamma(n + 1) - math.lgamma(v + 1) - math.lgamma(n - v + 1))

        expected = np.array([textbook(float(v)) for v in y])
        np.testing.assert_allclose(fam.def_log_density(kernel, params, y), expected,
                                   rtol=1e-12, atol=0)

    @staticmethod
    def grid_case(name, gamma):
        """A kernel, a grid of y values and the DEF parameters at ``gamma``."""
        if name == "gaussian":
            return (KERNELS[name], np.linspace(-4.0, 6.0, 61),
                    DefParams(theta=0.8, gamma=gamma, phi=1.7))
        kernel = fam.PoissonKernel() if name == "poisson" else fam.BinomialKernel(70)
        theta = np.log(40.07) if name == "poisson" else 0.4
        y = kernel.support_grid(float(kernel.b_prime(theta)))
        return kernel, y, DefParams(theta=theta, gamma=gamma)

    def test_out_of_support_raises(self):
        params = DefParams(theta=0.0, gamma=1.0)
        with pytest.raises(DomainError):
            fam.def_log_density(fam.PoissonKernel(), params, -1.0)
        with pytest.raises(DomainError):
            fam.def_log_density(fam.PoissonKernel(), params, 2.5)
        with pytest.raises(DomainError):
            fam.def_log_density(fam.BinomialKernel(10), params, 11.0)

    def test_nonpositive_gamma_raises(self):
        with pytest.raises(DomainError):
            DefParams(theta=0.0, gamma=0.0)
        with pytest.raises(DomainError):
            DefParams(theta=0.0, gamma=-1.0)


class TestNormalizer:
    def test_binomial_gamma_one_is_exact(self):
        norm = fam.def_normalizer(fam.BinomialKernel(10), DefParams(theta=0.7, gamma=1.0))
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_poisson_normalized_pmf_sums_to_one(self):
        params = DefParams(theta=np.log(4.0), gamma=0.5)
        norm = fam.def_normalizer(fam.PoissonKernel(), params)
        grid = fam.PoissonKernel().support_grid(4.0)
        logp = np.log(norm) + np.array(
            [fam.def_log_density(fam.PoissonKernel(), params, y) for y in grid]
        )
        assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("mu", [3.0, 12.0, 40.0])
    def test_discrete_pmfs_sum_to_one(self, gamma, mu):
        params = DefParams(theta=np.log(mu), gamma=gamma)
        _, p = fam.def_pmf(fam.PoissonKernel(), params)
        assert p.sum() == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_closed_form(self):
        # With gamma = 2 and phi = 1 the DEF is exactly N(theta, 0.5).
        params = DefParams(theta=0.3, gamma=2.0)
        y = np.linspace(-2, 2, 9)
        got = fam.def_log_density(fam.GaussianKernel(), params, y, normalized=True)
        expected = -0.5 * np.log(2 * np.pi * 0.5) - (y - 0.3) ** 2 / (2 * 0.5)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_nonconvergent_truncation_raises(self):
        # gamma far below 1 fattens the tail beyond the truncation cap.
        with pytest.raises(NumericError):
            fam.def_pmf(fam.PoissonKernel(), DefParams(theta=np.log(50.0), gamma=0.01))


class TestMoments:
    def test_gaussian_standard(self):
        mean, var = fam.def_moments(fam.GaussianKernel(), DefParams(theta=0.0, gamma=1.0))
        assert (mean, var) == (0.0, 1.0)

    def test_binomial_70_half(self):
        mean, var = fam.def_moments(fam.BinomialKernel(70), DefParams(theta=0.0, gamma=1.0))
        assert mean == pytest.approx(35.0, abs=1e-9)
        assert var == pytest.approx(17.5, abs=1e-9)

    def test_poisson_overdispersed_approximation(self):
        # Accuracy bounds follow the DEF moment approximations E[Y] ~ mu,
        # V[Y] ~ mu/gamma; the exact values come from the truncated pmf.
        mean, var = fam.def_moments(fam.PoissonKernel(),
                                    DefParams(theta=np.log(40.0), gamma=0.5))
        assert abs(mean - 40.0) / 40.0 < 0.02
        assert abs(var - 80.0) / 80.0 < 0.05

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("mu", [10.0, 25.0, 60.0])
    def test_poisson_mean_stays_near_mu(self, gamma, mu):
        mean, _ = fam.def_moments(fam.PoissonKernel(),
                                  DefParams(theta=np.log(mu), gamma=gamma))
        assert abs(mean - mu) / mu < 0.05


class TestSampling:
    def test_gaussian_variance(self):
        # Exact law N(1, phi/gamma) with phi=0.64, gamma=4 -> variance 0.16.
        draws = fam.def_sample_each(fam.GaussianKernel(), np.full(100_000, 1.0),
                                    np.full(100_000, 4.0), np.random.default_rng(1),
                                    phi=0.64)
        se = 0.16 * np.sqrt(2 / (len(draws) - 1))
        assert abs(draws.var(ddof=1) - 0.16) < 3 * se
        assert abs(draws.mean() - 1.0) < 3 * np.sqrt(0.16 / len(draws))

    def test_poisson_gamma_one(self):
        params = DefParams(theta=np.log(5.0), gamma=1.0)
        draws = fam.def_sample_each(fam.PoissonKernel(), np.full(100_000, np.log(5.0)),
                                    np.ones(100_000), np.random.default_rng(2))
        assert abs(draws.mean() - 5.0) < 3 * np.sqrt(5.0 / len(draws))
        grid, p = fam.def_pmf(fam.PoissonKernel(), params)
        m = p @ grid
        m4 = p @ (grid - m) ** 4
        var = p @ (grid - m) ** 2
        se_var = np.sqrt((m4 - var**2) / len(draws))
        assert abs(draws.var(ddof=1) - 5.0) < 3 * se_var

    def test_poisson_overdispersed_variance_matches_exact_pmf(self):
        # The oracle value is the truncated-pmf variance (close to, but not
        # exactly, b''(theta)/gamma = 10).
        params = DefParams(theta=np.log(5.0), gamma=0.5)
        grid, p = fam.def_pmf(fam.PoissonKernel(), params)
        m = p @ grid
        var = p @ (grid - m) ** 2
        m4 = p @ (grid - m) ** 4
        assert abs(var - 10.0) / 10.0 < 0.05
        draws = fam.def_sample_each(fam.PoissonKernel(), np.full(100_000, np.log(5.0)),
                                    np.full(100_000, 0.5), np.random.default_rng(3))
        se_var = np.sqrt((m4 - var**2) / len(draws))
        assert abs(draws.var(ddof=1) - var) < 3 * se_var

    def test_sampler_deterministic(self):
        kernel = fam.PoissonKernel()
        thetas, gammas = np.full(1000, np.log(7.0)), np.full(1000, 0.8)
        a = fam.def_sample_each(kernel, thetas, gammas, np.random.default_rng(9))
        b = fam.def_sample_each(kernel, thetas, gammas, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_sample_each_matches_support(self):
        rng = np.random.default_rng(4)
        kernel = fam.BinomialKernel(70)
        thetas = rng.uniform(-1, 1, 50)
        gammas = rng.uniform(0.5, 2.0, 50)
        y = fam.def_sample_each(kernel, thetas, gammas, rng)
        assert np.all(kernel.in_support(y))

    @pytest.mark.parametrize("n", [1000, 33])
    @pytest.mark.parametrize("family,disp_index", [("dpoisson", 2), ("dbinomial", 3)])
    def test_sample_each_matches_per_observation_loop(self, family, disp_index, n):
        # n = 33 leaves a last table of one row.
        config = ScenarioConfig(family=family, disp_index=disp_index, n=n)
        kernel = config.kernel()
        x = np.random.default_rng(n).random(n)
        thetas = kernel.mean_to_theta(config.mean_function(x))
        gammas = config.disp_function(x)
        got = fam.def_sample_each(kernel, thetas, gammas, np.random.default_rng(8),
                                  phi=config.phi)
        # Reference: one pmf and one uniform per observation.
        rng = np.random.default_rng(8)
        expected = np.empty(n)
        for i in range(n):
            grid, p = fam.def_pmf(kernel, DefParams(theta=float(thetas[i]),
                                                    gamma=float(gammas[i]), phi=config.phi))
            idx = np.searchsorted(np.cumsum(p), rng.random(), side="right")
            expected[i] = grid[min(idx, len(grid) - 1)]
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("family,disp_index,digest", [
        ("dpoisson", 2, "bf15f320f5ec7a614fe169ecea92dd2aa8ecdbada35b99897a7652d5b8885ba1"),
        ("dbinomial", 3, "dd43eb39a4aa40608597fcbe5168fa6a5658acb2fa81009fbe3a699db94441df"),
    ])
    def test_draws_at_the_simulate_counts_shapes_are_pinned(self, family, disp_index,
                                                            digest):
        # The shapes of the `simulate-counts` benchmark: n = 1,000, and g3's
        # peaked tables (gamma up to ~104) for dbinomial.
        config = ScenarioConfig(family=family, disp_index=disp_index, n=1000)
        kernel = config.kernel()
        x = np.random.default_rng(1000).random(1000)
        y = fam.def_sample_each(kernel, kernel.mean_to_theta(config.mean_function(x)),
                                config.disp_function(x), np.random.default_rng(8),
                                phi=config.phi)
        assert hashlib.sha256(y.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("bad", [np.nan, 0.0])
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_sample_each_rejects_nan_and_zero_gamma(self, name, bad):
        gammas = np.ones(40)
        gammas[35] = bad
        with pytest.raises(DomainError):
            fam.def_sample_each(KERNELS[name], np.full(40, np.log(6.0)), gammas,
                                np.random.default_rng(0))

    def test_table_names_the_row_with_a_nonconvergent_tail(self):
        thetas = np.full(10, np.log(5.0))
        gammas = np.ones(10)
        thetas[4], gammas[4] = np.log(50.0), 0.01
        named = re.escape(f"theta={np.log(50.0)}, gamma=0.01")
        with pytest.raises(NumericError, match=named):
            fam.def_sample_each(fam.PoissonKernel(), thetas, gammas,
                                np.random.default_rng(0))
