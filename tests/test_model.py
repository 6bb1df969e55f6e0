import numpy as np
import pytest

from dropglm import families as fam
from dropglm.errors import ConfigError, DomainError
from dropglm.families import DefParams
from dropglm.model import GlmSpec, fisher_blocks, loglik, score, unit_deviance


def random_spec(kernel, rng, n=8, dm=3, dg=2, phi=1.0):
    X = rng.normal(size=(n, dm))
    Z = rng.normal(size=(n, dg)) * 0.5
    beta = rng.normal(size=dm) * 0.3
    alpha = rng.normal(size=dg) * 0.2
    return GlmSpec(kernel=kernel, X=X, Z=Z, beta=beta, alpha=alpha, phi=phi)


def sample_response(spec, rng):
    theta = np.clip(spec.theta, -3, 3)
    if spec.kernel.name == "gaussian":
        return rng.normal(spec.theta, 1.0)
    if spec.kernel.name == "poisson":
        return rng.poisson(np.exp(theta)).astype(float)
    n = spec.kernel.trials
    return rng.binomial(n, 1.0 / (1.0 + np.exp(-theta))).astype(float)


KERNELS = [fam.GaussianKernel(), fam.PoissonKernel(), fam.BinomialKernel(10)]


class TestLoglik:
    def test_alpha_zero_reduces_to_ef_kernel(self):
        rng = np.random.default_rng(0)
        kernel = fam.PoissonKernel()
        spec = random_spec(kernel, rng)
        spec = spec.with_coefs(spec.beta, np.zeros_like(spec.alpha))
        y = sample_response(spec, rng)
        theta = spec.theta
        expected = np.sum((y * theta - kernel.b(theta)) / spec.phi)
        assert loglik(spec, y) == pytest.approx(expected, abs=1e-12)

    def test_single_gaussian_hand_value(self):
        # x = z = (1), beta = alpha = (0), y = 2: every term is zero.
        spec = GlmSpec(kernel=fam.GaussianKernel(), X=np.array([[1.0]]),
                       Z=np.array([[1.0]]), beta=np.array([0.0]),
                       alpha=np.array([0.0]))
        assert loglik(spec, np.array([2.0])) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_consistency_with_def_log_density(self, kernel):
        # Module consistency: summed per-observation DEF log-densities minus
        # the base-measure terms equal the fitting log-likelihood.
        rng = np.random.default_rng(1)
        spec = random_spec(kernel, rng, n=5, dm=2, dg=2)
        y = sample_response(spec, rng)
        total = 0.0
        for i in range(spec.n):
            params = DefParams(theta=float(spec.theta[i]),
                               gamma=float(spec.gamma[i]), phi=spec.phi)
            r = spec.phi
            total += float(fam.def_log_density(kernel, params, y[i])
                           - kernel.base_measure(y[i], r))
        assert loglik(spec, y) == pytest.approx(total, abs=1e-12)

    def test_base_measure_flag(self):
        rng = np.random.default_rng(2)
        spec = random_spec(fam.PoissonKernel(), rng)
        y = sample_response(spec, rng)
        diff = loglik(spec, y, include_base_measure=True) - loglik(spec, y)
        expected = float(np.sum(spec.kernel.base_measure(y, spec.phi)))
        assert diff == pytest.approx(expected, abs=1e-10)

    def test_support_violation(self):
        spec = GlmSpec(kernel=fam.PoissonKernel(), X=np.ones((1, 1)), Z=np.ones((1, 1)),
                       beta=np.zeros(1), alpha=np.zeros(1))
        with pytest.raises(DomainError):
            loglik(spec, np.array([-3.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            GlmSpec(kernel=fam.GaussianKernel(), X=np.ones((3, 2)), Z=np.ones((3, 1)),
                    beta=np.zeros(1), alpha=np.zeros(1))


def central_diff(func, x, eps=1e-5):
    grad = np.empty_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = eps
        grad[j] = (func(x + e) - func(x - e)) / (2 * eps)
    return grad


class TestScore:
    def test_saturated_gaussian_beta_score_is_zero(self):
        rng = np.random.default_rng(3)
        spec = random_spec(fam.GaussianKernel(), rng)
        y = np.asarray(spec.theta)  # b'(theta) = theta = y for every observation
        rep = score(spec, y)
        assert np.max(np.abs(rep.score_beta)) < 1e-12

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_gradients_match_finite_differences(self, kernel):
        rng = np.random.default_rng(4)
        for _ in range(10):
            spec = random_spec(kernel, rng)
            y = sample_response(spec, rng)
            rep = score(spec, y)
            fd_b = central_diff(
                lambda b: loglik(spec.with_coefs(b, spec.alpha), y), spec.beta)
            fd_a = central_diff(
                lambda a: loglik(spec.with_coefs(spec.beta, a), y), spec.alpha)
            assert np.max(np.abs(fd_b - rep.score_beta) / np.maximum(np.abs(fd_b), 1e-8)) < 1e-6
            assert np.max(np.abs(fd_a - rep.score_alpha) / np.maximum(np.abs(fd_a), 1e-8)) < 1e-6

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_hessian_blocks_match_score_differences(self, kernel):
        rng = np.random.default_rng(5)
        spec = random_spec(kernel, rng)
        y = sample_response(spec, rng)
        rep = score(spec, y)
        eps = 1e-6
        dm, dg = len(spec.beta), len(spec.alpha)
        fd_bb = np.empty((dm, dm))
        fd_ba = np.empty((dm, dg))
        for j in range(dm):
            e = np.zeros(dm)
            e[j] = eps
            up = score(spec.with_coefs(spec.beta + e, spec.alpha), y)
            dn = score(spec.with_coefs(spec.beta - e, spec.alpha), y)
            fd_bb[:, j] = (up.score_beta - dn.score_beta) / (2 * eps)
        for j in range(dg):
            e = np.zeros(dg)
            e[j] = eps
            up = score(spec.with_coefs(spec.beta, spec.alpha + e), y)
            dn = score(spec.with_coefs(spec.beta, spec.alpha - e), y)
            fd_ba[:, j] = (up.score_beta - dn.score_beta) / (2 * eps)
            fd_aa_col = (up.score_alpha - dn.score_alpha) / (2 * eps)
            assert np.allclose(fd_aa_col, rep.hess_aa[:, j], rtol=1e-5, atol=1e-7)
        assert np.allclose(fd_bb, rep.hess_bb, rtol=1e-5, atol=1e-7)
        assert np.allclose(fd_ba, rep.hess_ba, rtol=1e-5, atol=1e-7)

    def test_explicit_bb_block_form(self):
        rng = np.random.default_rng(6)
        spec = random_spec(fam.PoissonKernel(), rng)
        y = sample_response(spec, rng)
        rep = score(spec, y)
        w = spec.gamma * spec.kernel.b_second(spec.theta) / spec.phi
        expected = -sum(
            w[i] * np.outer(spec.X[i], spec.X[i]) for i in range(spec.n)
        )
        assert np.allclose(rep.hess_bb, expected, atol=1e-12)

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_bb_block_negative_semidefinite(self, kernel):
        rng = np.random.default_rng(7)
        for _ in range(5):
            spec = random_spec(kernel, rng)
            y = sample_response(spec, rng)
            eig = np.linalg.eigvalsh(score(spec, y).hess_bb)
            assert eig.max() <= 1e-10


class TestFisher:
    def test_gaussian_identity_weights(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(9, 3))
        spec = GlmSpec(kernel=fam.GaussianKernel(), X=X, Z=np.ones((9, 1)),
                       beta=rng.normal(size=3), alpha=np.zeros(1))
        i_beta, i_alpha = fisher_blocks(spec)
        assert np.allclose(i_beta, X.T @ X / 9, atol=1e-12)
        assert np.allclose(i_alpha, np.ones((1, 1)), atol=1e-12)

    def test_hand_computed_value(self):
        # n=2, x=(1,2)', W=diag(1,4) -> (1*1 + 4*4)/2 = 8.5.
        # For the Gaussian kernel W_ii = gamma_i, so set gamma = (1, 4).
        spec = GlmSpec(kernel=fam.GaussianKernel(), X=np.array([[1.0], [2.0]]),
                       Z=np.array([[0.0], [1.0]]), beta=np.zeros(1),
                       alpha=np.array([np.log(4.0)]))
        i_beta, _ = fisher_blocks(spec)
        assert i_beta[0, 0] == pytest.approx(8.5, abs=1e-12)

    def test_theta_matches_scaled_fisher_diagonal(self):
        # Cross-module identity: Theta = diag(n * I(beta))^{1/2}.
        from dropglm.dropout import NoiseSpec, penalty_matrices

        rng = np.random.default_rng(9)
        for kernel in KERNELS:
            spec = random_spec(kernel, rng, n=12, dm=4, dg=3)
            i_beta, _ = fisher_blocks(spec)
            snap = penalty_matrices(spec, NoiseSpec("gaussian", 0.5, 0.5))
            assert np.max(np.abs(snap.Theta - np.sqrt(spec.n * np.diag(i_beta)))) < 1e-12


class TestDispersionWeightApproximation:
    def test_empirical_w_alpha_near_one_for_poisson(self):
        # At the truth, mean of gamma_i * unit deviance should sit near 1.
        rng = np.random.default_rng(10)
        n = 2000
        x = rng.random(n)
        from dropglm.simlab import f2, g1

        kernel = fam.PoissonKernel()
        mu = f2(x)
        gamma = g1(x)
        y = fam.def_sample_each(kernel, np.log(mu), gamma, rng)
        X = np.column_stack([np.ones(n), x])
        Z = np.column_stack([np.ones(n), x])
        # Represent the truth exactly through an offset-free spec: use the
        # saturated design trick of passing theta/log gamma via identity.
        spec = GlmSpec(kernel=kernel, X=np.log(mu)[:, None], Z=np.log(gamma)[:, None],
                       beta=np.array([1.0]), alpha=np.array([1.0]))
        value = float(np.mean(spec.gamma * unit_deviance(spec, y)))
        assert 0.8 < value < 1.2
