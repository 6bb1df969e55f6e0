import hashlib

import numpy as np
import pytest

from dropglm import families as fam
from dropglm import optim
from dropglm.dropout import NoiseSpec
from dropglm.errors import ConfigError
from dropglm.model import GlmSpec, loglik, score, score_terms
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

    def test_updates_the_given_state_in_place(self):
        rng = np.random.default_rng(1)
        grads = rng.normal(size=(50, 3))
        expected = reference_adadelta(grads.tolist(), 0.9, 1e-6)
        state = AdadeltaState.zeros(3)
        avg_sq_grad, avg_sq_step = state.avg_sq_grad, state.avg_sq_step
        for i, g in enumerate(grads):
            step, returned = adadelta_step(state, g, 0.9, 1e-6)
            assert returned is state
            assert state.avg_sq_grad is avg_sq_grad and state.avg_sq_step is avg_sq_step
            assert np.max(np.abs(step - expected[i])) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            adadelta_step(AdadeltaState.zeros(2), np.zeros(3), 0.95, 1e-6)


class TestEpochBatches:
    @pytest.mark.parametrize("n,batch_size", [(40, 10), (43, 10), (30, 30), (59, 30)])
    def test_disjoint_batches_of_distinct_rows(self, n, batch_size):
        rng = np.random.default_rng(n)
        for _ in range(20):
            batches = optim.epoch_batches(n, batch_size, rng)
            assert batches.shape == (n // batch_size, batch_size)
            rows = batches.ravel()
            assert len(np.unique(rows)) == rows.size
            assert rows.min() >= 0 and rows.max() < n

    def test_every_row_is_sampled(self):
        # The dropped tail is a different set of rows in each epoch.
        rng = np.random.default_rng(0)
        seen = np.zeros(43, dtype=bool)
        for _ in range(50):
            seen[optim.epoch_batches(43, 10, rng).ravel()] = True
        assert seen.all()


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
        # (n/b) * batch score averages to the full score across batch draws,
        # also when the epoch drops an incomplete tail of n % b rows.  Each
        # sample takes one batch of its own epoch, cycling through the batch
        # positions, so the samples are independent.
        rng = np.random.default_rng(6)
        for n, b in ((40, 10), (43, 10)):
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
                idx = optim.epoch_batches(n, b, batch_rng)[t % (n // b)]
                rep = score(spec.rows(idx), y[idx])
                samples[t] = (n / b) * np.concatenate([rep.score_beta, rep.score_alpha])
            target = np.concatenate([full.score_beta, full.score_alpha])
            se = samples.std(axis=0, ddof=1) / np.sqrt(draws)
            assert np.all(np.abs(samples.mean(axis=0) - target) <= 3 * se), (n, b)

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

    def test_draws_do_not_depend_on_when_the_fit_stops(self):
        # Epochs of 7 batches, so the shorter fit ends inside an epoch; both
        # noise sides reach the trace.
        rng = np.random.default_rng(14)
        n = 70
        spec = GlmSpec(kernel=fam.gaussian(), X=rng.normal(size=(n, 4)),
                       Z=rng.normal(size=(n, 2)) * 0.3, beta=np.zeros(4),
                       alpha=np.zeros(2))
        y = spec.X @ rng.normal(size=4) + rng.normal(size=n)
        noise = NoiseSpec.bernoulli(0.3, 0.3)
        short, long = (fit(spec, y, noise, OptimConfig(batch_size=10, max_iters=iters,
                                                       tol=1e-300),
                           np.random.default_rng(15))
                       for iters in (300, 3000))
        assert short.termination == long.termination == "max-iter"
        assert np.array_equal(short.trace_loglik, long.trace_loglik[:3])

    def test_noise_is_drawn_once_per_epoch_and_side(self, monkeypatch):
        rng = np.random.default_rng(16)
        spec, y = quadratic_problem(rng, n=47)
        calls = []
        draw = NoiseSpec.draw

        def spy(self, side, shape, rng):
            calls.append((side, shape))
            return draw(self, side, shape, rng)

        monkeypatch.setattr(NoiseSpec, "draw", spy)
        # Nine iterations in epochs of four: three epochs.
        fit(spec, y, NoiseSpec.gaussian(0.3, 0.3),
            OptimConfig(batch_size=10, max_iters=9), np.random.default_rng(0))
        assert calls == [("mean", (4, 10, 4)), ("disp", (4, 10, 1))] * 3

    def test_loop_calls_the_one_score_once_per_iteration(self, monkeypatch):
        rng = np.random.default_rng(17)
        spec, y = quadratic_problem(rng, n=47)
        batch_sizes = []

        def spy(kernel, theta, gamma, y, sat, scale):
            batch_sizes.append(theta.size)
            return score_terms(kernel, theta, gamma, y, sat, scale)

        monkeypatch.setattr(optim, "score_terms", spy)
        res = fit(spec, y, NoiseSpec.bernoulli(0.3, 0.3),
                  OptimConfig(batch_size=10, max_iters=9), np.random.default_rng(0))
        assert res.n_iter == 9
        assert batch_sizes == [10] * 9

    @pytest.mark.parametrize("noise", [NoiseSpec.bernoulli(0.3, 0.3),
                                       NoiseSpec.gaussian(0.4, 0.3)])
    def test_inputs_are_not_mutated(self, noise):
        # The noise is multiplied into each epoch's design rows in place, so
        # those rows must be copies, never views of the caller's arrays.
        rng = np.random.default_rng(18)
        n = 47
        spec = GlmSpec(kernel=fam.poisson(), X=rng.normal(size=(n, 4)),
                       Z=rng.normal(size=(n, 2)) * 0.3, beta=np.zeros(4),
                       alpha=np.zeros(2))
        y = rng.poisson(3.0, n).astype(float)
        before = [a.tobytes() for a in (spec.X, spec.Z, y)]
        fit(spec, y, noise, OptimConfig(batch_size=10, max_iters=50),
            np.random.default_rng(0))
        assert [a.tobytes() for a in (spec.X, spec.Z, y)] == before

    @pytest.mark.parametrize("trace_every,window,avg_window,max_iters,tol", [
        (1, 3, 7, 40, 1e-3), (1, 1, 1, 25, 1e-300), (3, 7, 50, 61, 1e-3),
        (7, 30, 13, 200, 1e-300), (2, 4, 3, 1, 1e-3), (50, 10, 40, 333, 1e-3)])
    def test_estimate_is_the_mean_of_the_last_iterates(self, monkeypatch, trace_every,
                                                       window, avg_window, max_iters,
                                                       tol):
        # Every iterate is rebuilt from the warm start and the ADADELTA steps;
        # the estimate is the mean of the last min(avg_window, n_iter // 2)
        # of them (at least one), to the bit.
        rng = np.random.default_rng(19)
        spec, y = quadratic_problem(rng, n=50)
        steps = []

        def spy(state, grad, rho, eps):
            step, state = adadelta_step(state, grad, rho, eps)
            steps.append(np.array(step).reshape(-1))
            return step, state

        monkeypatch.setattr(optim, "adadelta_step", spy)
        config = OptimConfig(batch_size=10, max_iters=max_iters, window=window,
                             trace_every=trace_every, tol=tol, avg_window=avg_window)
        res = fit(spec, y, NoiseSpec.bernoulli(0.3, 0.3), config,
                  np.random.default_rng(20))
        assert len(steps) == res.n_iter
        w = np.concatenate([optim.warm_start_beta(spec, y), np.zeros(1)])
        iterates = []
        for step in steps:
            w = w + step
            iterates.append(w)
        take = min(avg_window, max(1, res.n_iter // 2))
        expected = np.mean(iterates[-take:], axis=0)
        assert np.array_equal(np.concatenate([res.beta, res.alpha]), expected)

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

    def test_every_lockstep_fit_is_checked_before_any_work(self):
        # The second fit's 5 rows cannot fill a batch of 10: nothing is drawn.
        rng = np.random.default_rng(10)
        spec, y = quadratic_problem(rng, n=40)
        gens = [np.random.default_rng(1), np.random.default_rng(2)]
        before = [g.bit_generator.state for g in gens]
        with pytest.raises(ConfigError, match="exceeds n=5"):
            optim.fit_many(spec, y, [np.arange(40), np.arange(5)],
                           [NoiseSpec.bernoulli(0.3, 0.3)] * 2,
                           OptimConfig(batch_size=10), gens, [None, None])
        assert [g.bit_generator.state for g in gens] == before

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
        "stationary", "d5584f30460a1d00b0673d81e70196fd74f061e65db35acfe6e269ceebf71761"),
    ("dbinomial", "gaussian", (0.0, 0.5)): (  # 40, 0
        "stationary", "66faad9ad7a49ee5f29bc36d0145c53e41f2935aa76f3eae69d4927083174364"),
    ("dbinomial", "pmle", (15000.0, 0.0)): (  # 390, 0
        "stationary", "9b07a7fce7b46a1a9a0354491d868f61e3ba2f6ad89f4e64b4217b764a075f05"),
    ("dpoisson", "bernoulli", (0.3, 0.2)): (  # 400, 0
        "max-iter", "683bb30bb7932bb66e29ba72abffe915f626e97a4102741eb60290fb010ee740"),
    ("dpoisson", "gaussian", (0.4, 0.3)): (  # 300, 0
        "stationary", "b47ba018f82b25219ede88a60a8e8797c2926b484dc5bc02ed8680a98da64a67"),
    ("dpoisson", "pmle", (5000.0, 15000.0)): (  # 40, 0
        "stationary", "ab27e48a4d20190cb7a8a1ca055f6895f207af7f33ab7181d26688715c4308df"),
    # Both noise sides at zero: no draw at all.
    ("gaussian", "bernoulli", (0.0, 0.0)): (  # 400, 0
        "max-iter", "7858bffeec84c499ac7e8579215abe6978a710ddd18b9ecb51e136ed9301c53c"),
    ("gaussian", "bernoulli", (0.3, 0.2)): (  # 400, 0
        "max-iter", "4052f3733c45df92f7fc8b052c88ecea09a2f18e6085b26f8ea52266596c1bc3"),
    # Dispersion noise so wide that every batch score, or its square, is
    # non-finite: every step is rejected.
    ("gaussian", "gaussian", (0.0, 1e307)): (  # 40, 40
        "stationary", "8c797c32af2ca666720d7d1bfc811a5971aff726a97fbb7d183981bd7a5c4e3a"),
    ("gaussian", "gaussian", (0.4, 0.3)): (  # 400, 0
        "max-iter", "885de72c782dad87dd82131e10cc02fba730d31fcc3c0b2a75ebd94565635705"),
    ("gaussian", "pmle", (5000.0, 15000.0)): (  # 400, 0
        "max-iter", "2236aafb046548b0dd7da9e80dc543a9184fa665a1f16b6bfd5e6894337f09aa"),
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
