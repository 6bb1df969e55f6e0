import hashlib

import numpy as np
import pytest

from dropglm import families as fam
from dropglm import optim
from dropglm.dropout import NoiseSpec
from dropglm.errors import ConfigError
from dropglm.model import GlmSpec, loglik, score
from dropglm.optim import AdadeltaState, OptimConfig, adadelta_step, fit
from dropglm.rngs import substream
from dropglm.simlab import ScenarioConfig, generate_dataset
from dropglm.tuning import fit_method


def reference_adadelta(grads, rho, eps):
    """Independently coded scalar reference of the ADADELTA recurrences."""
    eg = [0.0] * len(grads[0])
    es = [0.0] * len(grads[0])
    out = []
    for g in grads:
        step = []
        for j, gj in enumerate(g):
            eg[j] = rho * eg[j] + (1.0 - rho) * gj * gj
            sj = ((es[j] + eps) / (eg[j] + eps)) ** 0.5 * gj
            es[j] = rho * es[j] + (1.0 - rho) * sj * sj
            step.append(sj)
        out.append(step)
    return np.asarray(out)


class TestAdadelta:
    def test_zero_gradient_zero_update(self):
        state = AdadeltaState(np.array([0.4]), np.array([0.2]))
        step, new = adadelta_step(state, np.zeros(1), 0.95, 1e-6)
        assert step[0] == 0.0
        assert new.avg_sq_grad[0] == pytest.approx(0.95 * 0.4)
        assert new.avg_sq_step[0] == pytest.approx(0.95 * 0.2)

    def test_first_step_magnitude(self):
        # Fresh accumulators, g = 1: E[g^2] = 0.05, |step| = sqrt(1e-6/0.050001).
        step, new = adadelta_step(AdadeltaState.zeros(1), np.ones(1), 0.95, 1e-6)
        assert new.avg_sq_grad[0] == pytest.approx(0.05)
        assert step[0] == pytest.approx(np.sqrt(1e-6 / 0.050001), rel=1e-10)

    def test_matches_reference_over_scripted_sequence(self):
        rng = np.random.default_rng(0)
        grads = rng.normal(size=(10, 4))
        expected = reference_adadelta(grads.tolist(), 0.95, 1e-6)
        state = AdadeltaState.zeros(4)
        for i, g in enumerate(grads):
            step, state = adadelta_step(state, g, 0.95, 1e-6)
            assert np.max(np.abs(step - expected[i])) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            adadelta_step(AdadeltaState.zeros(2), np.zeros(3), 0.95, 1e-6)


def quadratic_problem(rng, n=80, d=4):
    X = rng.normal(size=(n, d))
    beta_true = rng.normal(size=d)
    y = X @ beta_true + 0.1 * rng.normal(size=n)
    # All-zero dispersion design freezes alpha at 0 (its score vanishes).
    Z = np.zeros((n, 1))
    spec = GlmSpec(kernel=fam.gaussian(), X=X, Z=Z, beta=np.zeros(d),
                   alpha=np.zeros(1))
    return spec, y


class TestFit:
    def test_quadratic_converges_to_least_squares(self):
        # Exact (full-batch) gradients: the tail-averaged iterate must land
        # on the closed-form least-squares solution.
        rng = np.random.default_rng(1)
        spec, y = quadratic_problem(rng)
        target, *_ = np.linalg.lstsq(spec.X, y, rcond=None)
        config = OptimConfig(batch_size=spec.n, max_iters=40_000, tol=1e-12)
        res = fit(spec, y, NoiseSpec.none(), config, np.random.default_rng(2))
        assert np.linalg.norm(res.beta - target) < 1e-3
        assert np.allclose(res.alpha, 0.0)

    def test_ascent_sanity(self):
        rng = np.random.default_rng(3)
        n = 60
        X = np.column_stack([np.ones(n), rng.random(n)])
        Z = X.copy()
        spec = GlmSpec(kernel=fam.poisson(), X=X, Z=Z, beta=np.zeros(2),
                       alpha=np.zeros(2))
        y = rng.poisson(3.0, n).astype(float)
        config = OptimConfig(batch_size=20, max_iters=3000, tol=1e-12)
        res = fit(spec, y, NoiseSpec.none(), config, np.random.default_rng(4))
        final = loglik(spec.with_coefs(res.beta, res.alpha), y)
        # Initialization: warm-started beta, alpha = 0.
        from dropglm.optim import warm_start_beta

        start = loglik(spec.with_coefs(warm_start_beta(spec, y),
                                       np.zeros(2)), y)
        assert final >= start

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        spec, y = quadratic_problem(rng, n=50)
        config = OptimConfig(batch_size=10, max_iters=500, tol=1e-12)
        noise = NoiseSpec.bernoulli(0.2, 0.3)
        a = fit(spec, y, noise, config, np.random.default_rng(11))
        b = fit(spec, y, noise, config, np.random.default_rng(11))
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.trace_loglik, b.trace_loglik)
        assert a.termination == b.termination and a.n_iter == b.n_iter

    def test_batch_score_is_unbiased(self):
        # (n/b) * batch score averages to the full score across batch draws.
        rng = np.random.default_rng(6)
        n, b = 40, 10
        X = rng.normal(size=(n, 3))
        Z = rng.normal(size=(n, 2)) * 0.5
        spec = GlmSpec(kernel=fam.poisson(), X=X, Z=Z,
                       beta=rng.normal(size=3) * 0.2,
                       alpha=rng.normal(size=2) * 0.2)
        y = rng.poisson(np.exp(np.clip(spec.theta, -3, 3))).astype(float)
        full = score(spec, y)
        draws = 10_000
        batch_rng = np.random.default_rng(7)
        samples = np.empty((draws, 5))
        for t in range(draws):
            idx = batch_rng.choice(n, size=b, replace=False)
            rep = score(spec.rows(idx), y[idx])
            samples[t] = (n / b) * np.concatenate([rep.score_beta, rep.score_alpha])
        target = np.concatenate([full.score_beta, full.score_alpha])
        se = samples.std(axis=0, ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(samples.mean(axis=0) - target) <= 3 * se)

    @pytest.mark.parametrize("family", ["gaussian", "dpoisson", "dbinomial"])
    def test_engine_climbs_the_analytic_score(self, family, monkeypatch):
        # One full-batch, noise-free iteration hands ADADELTA model.score at
        # the warm start (the gaussian scenario has phi = 0.64).  At the
        # least-squares warm start the gaussian beta-score is near 0, so the
        # gap is measured against the norm of the whole score.
        scenario = ScenarioConfig(family=family, n=60, mean_knots=10, disp_knots=8)
        x, y = generate_dataset(scenario, 0)
        spec = scenario.model.spec(x)
        grads = []

        def spy(state, grad, rho, eps):
            grads.append(grad.copy())
            return adadelta_step(state, grad, rho, eps)

        monkeypatch.setattr(optim, "adadelta_step", spy)
        fit(spec, y, NoiseSpec.none(), OptimConfig(batch_size=spec.n, max_iters=1),
            np.random.default_rng(0))
        beta0 = optim.warm_start_beta(spec, y)
        rep = score(spec.with_coefs(beta0, np.zeros(spec.Z.shape[1])), y)
        expected = np.concatenate([rep.score_beta, rep.score_alpha])
        assert len(grads) == 1
        assert np.linalg.norm(grads[0] - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_stationary_termination_reported(self):
        rng = np.random.default_rng(8)
        spec, y = quadratic_problem(rng, n=50)
        config = OptimConfig(batch_size=25, max_iters=60_000, tol=1e-6)
        res = fit(spec, y, NoiseSpec.none(), config, np.random.default_rng(9))
        assert res.termination in ("stationary", "max-iter")
        assert np.all(np.isfinite(res.trace_loglik))

    def test_batch_larger_than_n_rejected(self):
        rng = np.random.default_rng(10)
        spec, y = quadratic_problem(rng, n=10)
        with pytest.raises(ConfigError):
            fit(spec, y, NoiseSpec.none(), OptimConfig(batch_size=11),
                np.random.default_rng(0))

    def test_smoothed_objective_nondecreasing_noise_free(self):
        # Strictly concave noise-free problem: windowed means of the traced
        # objective should not decrease (beyond tiny SGD jitter).
        rng = np.random.default_rng(12)
        spec, y = quadratic_problem(rng)
        config = OptimConfig(batch_size=40, max_iters=20_000, tol=1e-14,
                             trace_every=100)
        res = fit(spec, y, NoiseSpec.none(), config, np.random.default_rng(13))
        vals = res.trace_loglik
        window = 10
        means = np.array([vals[i : i + window].mean()
                          for i in range(0, len(vals) - window, window)])
        drops = np.diff(means)
        assert drops.min() > -1e-3 * (1 + np.abs(means[:-1]).max())


# ------------------------------------------------------------- bit-for-bit pin
# Each case fits replicate 0 of a small scenario dataset and hashes every
# FitResult field an output or a caller reads.  A refactor of ``fit`` must
# leave these digests unchanged; they hold for one numpy/BLAS build.
PIN_OPTIM = dict(batch_size=15, max_iters=400, window=20, trace_every=10,
                 tol=3e-4, avg_window=100)
PIN_CASES = {
    # (family, method, params): (termination, digest); the comment gives
    # n_iter and rejected_steps.
    ("dbinomial", "bernoulli", (0.3, 0.2)): (  # 40, 0
        "stationary", "717bd2f602e91f9f52b15b60b46568e5996e9b37e6813d815aa21c7c75fd615d"),
    ("dbinomial", "gaussian", (0.0, 0.5)): (  # 40, 0
        "stationary", "6f0befa4ad6011be2def403ad358747db5cea82c1b67ee5e270c76b53f435110"),
    ("dbinomial", "pmle", (15000.0, 0.0)): (  # 390, 0
        "stationary", "bec235ade97125402f74ad911ec0b5afd53617bbc39af9b61cd7948fabb88a74"),
    ("dpoisson", "bernoulli", (0.3, 0.2)): (  # 400, 0
        "max-iter", "af071558f163485df2ce0ede5cedfd0dd1f82c7490f7ce59f96c1173c4612464"),
    ("dpoisson", "gaussian", (0.4, 0.3)): (  # 330, 0
        "stationary", "ee6190ce5ad226cf6ad813a44853d46aa64e363c181e5adf6a93c625e1de1030"),
    ("dpoisson", "pmle", (5000.0, 15000.0)): (  # 40, 0
        "stationary", "b8310da6beb3f59d184fd297c68fe72c5faff53f30417840b7dcc9f2f88f4c5b"),
    # Both noise sides at zero: no draw at all.
    ("gaussian", "bernoulli", (0.0, 0.0)): (  # 400, 0
        "max-iter", "11c2f8f1ae5497d3d507d708b5f6f89198ebedeac7455ffd96947849aa665fb2"),
    ("gaussian", "bernoulli", (0.3, 0.2)): (  # 400, 0
        "max-iter", "11ecb25c7fd7c0105a2d5abd6d969b3fa7b1c0e2324973370b09dab7cf2deff8"),
    # Dispersion noise so wide that every batch score, or its square, is
    # non-finite: every step is rejected.
    ("gaussian", "gaussian", (0.0, 1e307)): (  # 40, 40
        "stationary", "8c797c32af2ca666720d7d1bfc811a5971aff726a97fbb7d183981bd7a5c4e3a"),
    ("gaussian", "gaussian", (0.4, 0.3)): (  # 400, 0
        "max-iter", "1b68bd5cbeda218794957cc5fbc9c0d70c284e659dd8ffb36a26dbe77871404c"),
    ("gaussian", "pmle", (5000.0, 15000.0)): (  # 400, 0
        "max-iter", "71e46e5fb25535e1f9c6ff335c81a92ed0dc0af22ded81845c40a9442d1c76ec"),
    # A finite penalty gradient whose square overflows: every step is rejected.
    ("gaussian", "pmle", (1e308, 0.0)): (  # 40, 40
        "stationary", "abe36091b29e48df2e6dca95e670d25c8b2d10aa090f2daf4f5d0ae611175517"),
}


def _fit_digest(result) -> str:
    h = hashlib.sha256()
    for array in (result.beta, result.alpha, result.trace_iters,
                  result.trace_loglik):
        h.update(np.ascontiguousarray(array).tobytes())
    h.update(f"{result.n_iter}|{result.termination}|{result.rejected_steps}".encode())
    return h.hexdigest()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("family,method,params", sorted(PIN_CASES))
def test_fit_is_pinned_bit_for_bit(family, method, params):
    scenario = ScenarioConfig(family=family, n=60, mean_knots=10, disp_knots=8)
    x, y = generate_dataset(scenario, 0)
    result = fit_method(scenario.model.spec(x), y, method, params,
                        OptimConfig(**PIN_OPTIM), substream(7, "pin", method))
    assert (result.termination, _fit_digest(result)) == PIN_CASES[family, method, params]
