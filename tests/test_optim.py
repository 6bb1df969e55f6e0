import hashlib

import numpy as np
import pytest

from dropglm import families as fam
from dropglm import optim
from dropglm.dropout import NoiseSpec
from dropglm.errors import ConfigError
from dropglm.model import GlmSpec, SplineModel, loglik, score, score_terms
from dropglm.optim import OptimConfig, adadelta_step, fit
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
    # The recurrence runs with optim.RHO = 0.95 and optim.EPS = 1e-6.
    def test_zero_gradient_zero_update(self):
        avg_sq_grad, avg_sq_step = np.array([0.4]), np.array([0.2])
        step = adadelta_step(avg_sq_grad, avg_sq_step, np.zeros(1))
        assert step[0] == 0.0
        assert avg_sq_grad[0] == pytest.approx(0.95 * 0.4)
        assert avg_sq_step[0] == pytest.approx(0.95 * 0.2)

    def test_first_step_magnitude(self):
        # Fresh accumulators, g = 1: E[g^2] = 0.05, |step| = sqrt(1e-6/0.050001).
        avg_sq_grad = np.zeros(1)
        step = adadelta_step(avg_sq_grad, np.zeros(1), np.ones(1))
        assert avg_sq_grad[0] == pytest.approx(0.05)
        assert step[0] == pytest.approx(np.sqrt(1e-6 / 0.050001), rel=1e-10)

    def test_matches_reference_over_scripted_sequence(self):
        rng = np.random.default_rng(0)
        grads = rng.normal(size=(10, 4))
        expected = reference_adadelta(grads.tolist(), 0.95, 1e-6)
        avg_sq_grad, avg_sq_step = np.zeros(4), np.zeros(4)
        for i, g in enumerate(grads):
            step = adadelta_step(avg_sq_grad, avg_sq_step, g)
            assert np.max(np.abs(step - expected[i])) < 1e-12

    def test_updates_the_given_state_in_place(self):
        # The two given arrays carry the averages from step to step.
        rng = np.random.default_rng(1)
        grads = rng.normal(size=(50, 3))
        expected = reference_adadelta(grads.tolist(), 0.95, 1e-6)
        avg_sq_grad, avg_sq_step = np.zeros(3), np.zeros(3)
        eg, es = np.zeros(3), np.zeros(3)
        for g, want in zip(grads, expected):
            step = adadelta_step(avg_sq_grad, avg_sq_step, g)
            eg = 0.95 * eg + 0.05 * g * g
            es = 0.95 * es + 0.05 * want * want
            assert np.max(np.abs(step - want)) < 1e-12
            assert np.max(np.abs(avg_sq_grad - eg)) < 1e-12
            assert np.max(np.abs(avg_sq_step - es)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            adadelta_step(np.zeros(2), np.zeros(2), np.zeros(3))

    def test_step_average_shape_mismatch_touches_neither_average(self):
        # Both averages are checked before either is updated in place.
        avg_sq_grad, avg_sq_step = np.full((1, 5), 0.4), np.full((3, 5), 0.2)
        with pytest.raises(ConfigError):
            adadelta_step(avg_sq_grad, avg_sq_step, np.ones((1, 5)))
        assert (avg_sq_grad == 0.4).all() and (avg_sq_step == 0.2).all()


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
    spec = GlmSpec(kernel=fam.GaussianKernel(), X=X, Z=Z, beta=np.zeros(d),
                   alpha=np.zeros(1))
    return spec, y


class TestFit:
    def test_quadratic_converges_to_least_squares(self):
        # Exact (full-batch) gradients: the tail-averaged iterate must land
        # on the closed-form least-squares solution.
        rng = np.random.default_rng(1)
        spec, y = quadratic_problem(rng)
        target, *_ = np.linalg.lstsq(spec.X, y, rcond=None)
        config = OptimConfig(batch_size=spec.n, max_iters=40_000)
        res = fit(spec, y, NoiseSpec.none(), config, np.random.default_rng(2))
        assert np.linalg.norm(res.beta - target) < 1e-3
        assert np.allclose(res.alpha, 0.0)

    def test_ascent_sanity(self):
        rng = np.random.default_rng(3)
        n = 60
        X = np.column_stack([np.ones(n), rng.random(n)])
        Z = X.copy()
        spec = GlmSpec(kernel=fam.PoissonKernel(), X=X, Z=Z, beta=np.zeros(2),
                       alpha=np.zeros(2))
        y = rng.poisson(3.0, n).astype(float)
        config = OptimConfig(batch_size=20, max_iters=3000)
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
        config = OptimConfig(batch_size=10, max_iters=500)
        noise = NoiseSpec.bernoulli(0.2, 0.3)
        a = fit(spec, y, noise, config, np.random.default_rng(11))
        b = fit(spec, y, noise, config, np.random.default_rng(11))
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.alpha, b.alpha)
        assert (a.n_iter, a.termination, a.rejected_steps) == (
            b.n_iter, b.termination, b.rejected_steps)

    def test_batch_score_is_unbiased(self):
        # (n/b) * batch score averages to the full score across batch draws,
        # also when the epoch drops an incomplete tail of n % b rows.  Each
        # sample takes one batch of its own epoch, cycling through the batch
        # positions, so the samples are independent.
        rng = np.random.default_rng(6)
        for n, b in ((40, 10), (43, 10)):
            X = rng.normal(size=(n, 3))
            Z = rng.normal(size=(n, 2)) * 0.5
            spec = GlmSpec(kernel=fam.PoissonKernel(), X=X, Z=Z,
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

        def spy(avg_sq_grad, avg_sq_step, grad):
            grads.append(grad.copy())
            return adadelta_step(avg_sq_grad, avg_sq_step, grad)

        monkeypatch.setattr(optim, "adadelta_step", spy)
        fit(spec, y, NoiseSpec.none(), OptimConfig(batch_size=spec.n, max_iters=1),
            np.random.default_rng(0))
        beta0 = optim.warm_start_beta(spec, y)
        rep = score(spec.with_coefs(beta0, np.zeros(spec.Z.shape[1])), y)
        expected = np.concatenate([rep.score_beta, rep.score_alpha])
        assert len(grads) == 1
        assert np.linalg.norm(grads[0] - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_draws_do_not_depend_on_when_the_fit_stops(self, monkeypatch):
        # Epochs of 7 batches, so the shorter fit ends inside an epoch; both
        # noise sides draw.  Every batch and noise block the shorter fit
        # draws is the longer fit's, in the same order.
        rng = np.random.default_rng(14)
        n = 70
        spec = GlmSpec(kernel=fam.GaussianKernel(), X=rng.normal(size=(n, 4)),
                       Z=rng.normal(size=(n, 2)) * 0.3, beta=np.zeros(4),
                       alpha=np.zeros(2))
        y = spec.X @ rng.normal(size=4) + rng.normal(size=n)
        noise = NoiseSpec.bernoulli(0.3, 0.3)
        batches, draw = optim.epoch_batches, NoiseSpec.draw
        drawn = []

        def batches_spy(n, batch_size, rng):
            drawn.append(batches(n, batch_size, rng))
            return drawn[-1]

        def draw_spy(self, side, shape, rng):
            drawn.append(draw(self, side, shape, rng))
            return drawn[-1]

        monkeypatch.setattr(optim, "epoch_batches", batches_spy)
        monkeypatch.setattr(NoiseSpec, "draw", draw_spy)
        runs = []
        for iters in (300, 3000):
            drawn.clear()
            fit(spec, y, noise, OptimConfig(batch_size=10, max_iters=iters),
                np.random.default_rng(15))
            runs.append(list(drawn))
        short, long = runs
        assert len(short) == 3 * 43 and len(long) == 3 * 429
        assert all(np.array_equal(a, b) for a, b in zip(short, long))

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

    def test_spline_noise_is_drawn_on_the_band_only(self, monkeypatch):
        # A cubic B-spline row has at most 4 nonzeros out of 12 and 8
        # columns, so each side draws 4 noise values per batch row.
        scenario = ScenarioConfig(family="gaussian", n=47, mean_knots=12, disp_knots=8)
        x, y = generate_dataset(scenario, 0)
        calls = []
        draw = NoiseSpec.draw

        def spy(self, side, shape, rng):
            calls.append((side, shape))
            return draw(self, side, shape, rng)

        monkeypatch.setattr(NoiseSpec, "draw", spy)
        fit(scenario.model.spec(x), y, NoiseSpec.bernoulli(0.3, 0.3),
            OptimConfig(batch_size=10, max_iters=9), np.random.default_rng(0))
        assert calls == [("mean", (4, 10, 4)), ("disp", (4, 10, 4))] * 3

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
        spec = GlmSpec(kernel=fam.PoissonKernel(), X=rng.normal(size=(n, 4)),
                       Z=rng.normal(size=(n, 2)) * 0.3, beta=np.zeros(4),
                       alpha=np.zeros(2))
        y = rng.poisson(3.0, n).astype(float)
        before = [a.tobytes() for a in (spec.X, spec.Z, y)]
        fit(spec, y, noise, OptimConfig(batch_size=10, max_iters=50),
            np.random.default_rng(0))
        assert [a.tobytes() for a in (spec.X, spec.Z, y)] == before

    @pytest.mark.parametrize("avg_window,max_iters", [
        (7, 40), (1, 25), (50, 61), (13, 200), (3, 1), (40, 333)])
    def test_estimate_is_the_mean_of_the_last_iterates(self, monkeypatch, avg_window,
                                                       max_iters):
        # Every iterate is rebuilt from the warm start and the ADADELTA steps;
        # the estimate is the mean of the last min(avg_window, max_iters // 2)
        # of them (at least one), to the bit.
        rng = np.random.default_rng(19)
        spec, y = quadratic_problem(rng, n=50)
        steps = []

        def spy(avg_sq_grad, avg_sq_step, grad):
            step = adadelta_step(avg_sq_grad, avg_sq_step, grad)
            steps.append(np.array(step).reshape(-1))
            return step

        monkeypatch.setattr(optim, "adadelta_step", spy)
        config = OptimConfig(batch_size=10, max_iters=max_iters, avg_window=avg_window)
        res = fit(spec, y, NoiseSpec.bernoulli(0.3, 0.3), config,
                  np.random.default_rng(20))
        assert len(steps) == res.n_iter == max_iters
        w = np.concatenate([optim.warm_start_beta(spec, y), np.zeros(1)])
        iterates = []
        for step in steps:
            w = w + step
            iterates.append(w)
        take = min(avg_window, max(1, max_iters // 2))
        expected = np.mean(iterates[-take:], axis=0)
        assert np.array_equal(np.concatenate([res.beta, res.alpha]), expected)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_every_fit_runs_its_budget(self):
        # A penalty gradient whose square overflows rejects every step, so
        # the fit's objective never moves; it still runs its whole budget.
        scenario = ScenarioConfig(family="gaussian", n=60, mean_knots=10, disp_knots=8)
        x, y = generate_dataset(scenario, 0)
        res = fit_method(scenario.model.spec(x), y, "pmle", (1e308, 0.0),
                         OptimConfig(batch_size=15, max_iters=1000), np.random.default_rng(9))
        assert (res.n_iter, res.termination, res.rejected_steps) == (1000, "max-iter", 1000)

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
        # Strictly concave noise-free problem: the objective at the returned
        # (tail-averaged) estimate should not decrease as the budget rises
        # (beyond tiny SGD jitter).  Equal seeds give each budget a prefix of
        # the longest run's chain.
        rng = np.random.default_rng(12)
        spec, y = quadratic_problem(rng)
        values = []
        for budget in (500, 1000, 2000, 4000, 8000, 16_000):
            res = fit(spec, y, NoiseSpec.none(), OptimConfig(batch_size=40, max_iters=budget),
                      np.random.default_rng(13))
            values.append(loglik(spec.with_coefs(res.beta, res.alpha), y))
        values = np.array(values)
        assert np.diff(values).min() > -1e-3 * (1 + np.abs(values).max())


class TestWarmStart:
    # The warm start regresses on theta(y) kept finite at the edges of the
    # support: y = 0 for dpoisson, y = 0 and y = trials for dbinomial.
    Y = np.array([0.0, 9.0, 4.0, 1.0, 0.0, 9.0])

    def test_empirical_theta_of_each_kernel(self):
        y = self.Y
        assert np.array_equal(fam.GaussianKernel().empirical_theta(y), y)
        assert np.array_equal(fam.PoissonKernel().empirical_theta(y),
                              np.log(np.maximum(y, 0.5)))
        assert np.array_equal(fam.BinomialKernel(9).empirical_theta(y),
                              np.log((y + 0.5) / (9.0 - y + 0.5)))

    @pytest.mark.parametrize("family", ["dpoisson", "dbinomial"])
    def test_finite_at_the_edges_of_the_support(self, family):
        spec = SplineModel(family, trials=9, mean_knots=6, disp_knots=4).spec(
            np.linspace(0.0, 1.0, 60))
        beta = optim.warm_start_beta(spec, np.tile(self.Y, 10))
        assert beta.shape == (6,) and np.all(np.isfinite(beta))


class TestNoiseBand:
    @pytest.mark.parametrize("knots,boundary", [
        ((30, 20), "natural"), ((24, 12), "cyclic"), ((4, 4), "natural"),
        ((4, 4), "cyclic")])
    def test_cubic_spline_designs_have_width_four(self, knots, boundary):
        model = SplineModel("gaussian", mean_knots=knots[0], disp_knots=knots[1],
                            boundary=boundary)
        spec = model.spec(np.random.default_rng(21).random(400))
        for D in (spec.X, spec.Z):
            band = optim.noise_band(D)
            assert band.shape == (spec.n, 4)
            # Every band is 4 cyclically consecutive columns.
            assert np.all((band - band[:, :1]) % D.shape[1] == np.arange(4))

    @pytest.mark.parametrize("boundary", ["natural", "cyclic"])
    def test_band_values_rebuild_the_design(self, boundary):
        # Every nonzero lies in its row's band, the premise of drawing noise
        # only there.
        model = SplineModel("dpoisson", mean_knots=30, disp_knots=12, boundary=boundary)
        spec = model.spec(np.random.default_rng(22).random(300))
        for D in (spec.X, spec.Z):
            band = optim.noise_band(D)
            rows = np.arange(spec.n)[:, None]
            rebuilt = np.zeros_like(D)
            rebuilt[rows, band] = D[rows, band]
            assert np.array_equal(rebuilt, D)

    @pytest.mark.parametrize("x,knots,boundary,widths", [
        (np.random.default_rng(25).random(300), (30, 20), "natural", (4, 4)),
        (np.random.default_rng(26).random(300) * 24.0, (24, 12), "cyclic", (4, 4)),
        # Integer hours are the knots of the 24-knot cyclic mean basis on
        # [0, 24], where a cubic B-spline row has only three nonzeros.
        (np.tile(np.arange(24.0), 5), (24, 12), "cyclic", (3, 4))])
    def test_entries_off_the_band_are_positive_zero(self, x, knots, boundary, widths):
        # The fit builds its noisy design blocks as zeros plus the band
        # values, which gives the design's own bits only if every entry
        # outside the band is +0.0, not -0.0.
        model = SplineModel("dpoisson", mean_knots=knots[0], disp_knots=knots[1],
                            lo=0.0, hi=24.0 if boundary == "cyclic" else 1.0,
                            boundary=boundary)
        spec = model.spec(x)
        for D, width in zip((spec.X, spec.Z), widths):
            band = optim.noise_band(D)
            assert band.shape == (spec.n, width)
            off = np.ones(D.shape, dtype=bool)
            off[np.arange(spec.n)[:, None], band] = False
            assert np.all(D[off] == 0.0) and not np.signbit(D[off]).any()

    def test_dense_design_band_is_every_column_in_order(self):
        D = np.random.default_rng(23).normal(size=(50, 7))
        assert np.array_equal(optim.noise_band(D), np.tile(np.arange(7), (50, 1)))

    def test_all_zero_column_has_width_one(self):
        spec, _ = quadratic_problem(np.random.default_rng(24))
        assert np.array_equal(optim.noise_band(spec.Z), np.zeros((spec.n, 1)))


# ------------------------------------------------------------- bit-for-bit pin
# Each case fits replicate 0 of a small scenario dataset and hashes every
# FitResult field an output or a caller reads.  A refactor of ``fit`` must
# leave these digests unchanged; they hold for one numpy/BLAS build.
PIN_OPTIM = dict(batch_size=15, max_iters=400, avg_window=100)
PIN_CASES = {
    # (family, method, params): digest; every case runs 400 iterations, and
    # the comment gives rejected_steps.
    ("dbinomial", "bernoulli", (0.3, 0.2)):  # 0
        "0327509e6d82b54308ae9265d7512a04573aeb4dedcaa9801d8924ab902e1187",
    ("dbinomial", "gaussian", (0.0, 0.5)):  # 0
        "fe960749dc335d8933fb6450c8b15d6a9b6546839f9106dd3d92fb739049b335",
    ("dbinomial", "pmle", (15000.0, 0.0)):  # 0
        "3402a2042a7d6592e31fb4143d9f31b9656ded75a2ad3384262210f1e1648b7c",
    ("dpoisson", "bernoulli", (0.3, 0.2)):  # 0
        "0e4acf2b66b358e3d66ed86e39658e7f87da5c6caa476f8783a17e90a87c9294",
    ("dpoisson", "gaussian", (0.4, 0.3)):  # 0
        "d7549ff7aea4b20773e333e3d3587fa21db761b5a0393b7d21cc50b337dfb4cc",
    ("dpoisson", "pmle", (5000.0, 15000.0)):  # 0
        "6a39333058e13d9a851d2d2e1f76c7b488c1adc703099da3203b08db2e1b4da3",
    # Both noise sides at zero: no draw at all.
    ("gaussian", "bernoulli", (0.0, 0.0)):  # 0
        "87192f8c04a18d5b9d3e14c8e5e7611c70a73280262a18cf3861b68c5ddb4c55",
    ("gaussian", "bernoulli", (0.3, 0.2)):  # 0
        "a84cb23ea79c14a8b09d288de4442de83908bcd1bd5ff5fe88bc77b82e5cf5b5",
    # Dispersion noise so wide that every batch score, or its square, is
    # non-finite: every step is rejected.
    ("gaussian", "gaussian", (0.0, 1e307)):  # 400
        "0f30c7cd9b6a772e0dc92ae2100883129bd1e66d84a3f946f0564b4465da42c9",
    ("gaussian", "gaussian", (0.4, 0.3)):  # 0
        "70dfdfb371547139f9b2b10ba99c369f8b24d8b612d0cef995c7294b3c422f17",
    ("gaussian", "pmle", (5000.0, 15000.0)):  # 0
        "1300190b26e80f522a0043e79c455f1bfe37b01ae2fb237a5c29846046237d7b",
    # A finite penalty gradient whose square overflows: every step is rejected.
    ("gaussian", "pmle", (1e308, 0.0)):  # 400
        "0f30c7cd9b6a772e0dc92ae2100883129bd1e66d84a3f946f0564b4465da42c9",
}


def _fit_digest(result) -> str:
    h = hashlib.sha256()
    for array in (result.beta, result.alpha):
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
    assert _fit_digest(result) == PIN_CASES[family, method, params]


# Epochs that span several chunks of ``optim.EPOCH_CHUNK`` batches and end in
# a short one: n = 290 rows in batches of 10 give 29 batches per epoch.
CHUNK_OPTIM = dict(batch_size=10, max_iters=300, avg_window=100)
CHUNK_CASES = {
    # (family, method, params): digest; no case rejects a step.
    ("gaussian", "bernoulli", (0.3, 0.2)):
        "a6381efdb6cb12c5ac1de81f26b5a68b71f9fb7f6f8b13858817daca5d2be71c",
    ("dpoisson", "gaussian", (0.0, 0.5)):
        "67b301f90342a9d99d1e7bb2e919512628e315f4f302388b19918041795d897f",
    ("dbinomial", "pmle", (5000.0, 15000.0)):
        "5e41cf7d26196da6f8b207df184c1d2ac377a421c5d9411c001687db2ddd01c2",
}


def _chunk_case(family):
    scenario = ScenarioConfig(family=family, n=290, mean_knots=10, disp_knots=8)
    x, y = generate_dataset(scenario, 0)
    return scenario.model.spec(x), y


@pytest.mark.parametrize("family,method,params", sorted(CHUNK_CASES))
def test_fit_across_chunks_is_pinned_bit_for_bit(family, method, params):
    spec, y = _chunk_case(family)
    result = fit_method(spec, y, method, params, OptimConfig(**CHUNK_OPTIM),
                        substream(7, "chunk", method))
    assert _fit_digest(result) == CHUNK_CASES[family, method, params]


def test_group_across_chunks_equals_each_fit_alone():
    # The three chunk cases' methods on one design in one fit_many call:
    # two noises, one noise-free side and a penalty.
    from dropglm.tuning import _engine_inputs

    spec, y = _chunk_case("gaussian")
    cases = sorted(CHUNK_CASES)
    noises, penalties = zip(*(_engine_inputs(spec, method, params)
                              for _, method, params in cases))
    results = optim.fit_many(spec, y, [np.arange(spec.n)] * 3, noises,
                             OptimConfig(**CHUNK_OPTIM),
                             [substream(7, "chunk", method) for _, method, _ in cases],
                             penalties)
    for (_, method, params), result in zip(cases, results):
        alone = fit_method(spec, y, method, params, OptimConfig(**CHUNK_OPTIM),
                           substream(7, "chunk", method))
        assert _fit_digest(result) == _fit_digest(alone)


@pytest.mark.parametrize("family", ["gaussian", "dpoisson"])
def test_mixed_noise_group_equals_each_fit_alone(family):
    # One unpenalized group across chunks (29 batches an epoch) whose sides
    # mix: noise on both, the dispersion only, the mean only and neither.
    # The mean side carries a noise-free fit and the dispersion side two,
    # each row order its own, and every fit gets the bits it gets alone.
    spec, y = _chunk_case(family)
    noises = [NoiseSpec.bernoulli(0.3, 0.2), NoiseSpec.bernoulli(0.0, 0.4),
              NoiseSpec.gaussian(0.5, 0.0), NoiseSpec.none()]
    order = np.random.default_rng(27)
    rows = [np.arange(spec.n), order.permutation(spec.n), np.arange(spec.n)[::-1],
            order.permutation(spec.n)]
    config = OptimConfig(**CHUNK_OPTIM)
    results = optim.fit_many(spec, y, rows, noises, config,
                             [substream(7, "mixed", f) for f in range(4)], [None] * 4)
    for f, result in enumerate(results):
        alone, = optim.fit_many(spec, y, [rows[f]], [noises[f]], config,
                                [substream(7, "mixed", f)], [None])
        assert _fit_digest(result) == _fit_digest(alone)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_partly_rejecting_group_equals_each_fit_alone():
    # Dispersion noise wide enough to reject some of a fit's steps, or all
    # but one, shares a group with a fit that rejects none: the steps of a
    # group iteration that rejects only some fits update only those fits'
    # ADADELTA averages.
    scenario = ScenarioConfig(family="gaussian", n=60, mean_knots=10, disp_knots=8)
    x, y = generate_dataset(scenario, 0)
    spec = scenario.model.spec(x)
    noises = [NoiseSpec.gaussian(0.4, 0.3), NoiseSpec.gaussian(0.0, 1e146),
              NoiseSpec.gaussian(0.0, 1e149)]
    config = OptimConfig(**PIN_OPTIM)
    results = optim.fit_many(spec, y, [np.arange(spec.n)] * 3, noises, config,
                             [substream(7, "partial", f) for f in range(3)], [None] * 3)
    rejected = [r.rejected_steps for r in results]
    assert rejected[0] == 0 and 0 < rejected[1] < rejected[2] < config.max_iters
    for f, result in enumerate(results):
        alone = fit(spec, y, noises[f], config, substream(7, "partial", f))
        assert _fit_digest(result) == _fit_digest(alone)


@pytest.mark.parametrize("shape,F", [("traffic", 10), ("desk", 6)])
def test_lockstep_floats_bounds_the_memory_of_a_group(shape, F):
    # The tracemalloc peak of a fit_many call stays within 1.25 times what
    # lockstep_floats states for its F fits, noise on both sides: a traffic
    # CV's fits (4 of 5 folds of 92 days of hourly counts, 24/12 cyclic
    # knots, epochs of 58 batches in chunks of 8, 8, ..., 2) and a desk
    # CV's (2 of 3 folds of a gaussian n = 250 scenario, 30/20 knots).
    import tracemalloc

    from dropglm.tuning import make_folds

    if shape == "traffic":
        model = SplineModel("dpoisson", mean_knots=24, disp_knots=12, lo=0.0, hi=24.0,
                            boundary="cyclic")
        hours = np.tile(np.arange(24.0), 92)
        y = np.random.default_rng(3).poisson(
            200.0 + 100.0 * np.sin(2 * np.pi * hours / 24)).astype(float)
        spec, k = model.spec(hours), 5
    else:
        scenario = ScenarioConfig(family="gaussian", n=250, mean_knots=30, disp_knots=20)
        x, y = generate_dataset(scenario, 0)
        spec, k = scenario.model.spec(x), 3
    folds = make_folds(spec.n, k, np.random.default_rng(1))
    rows = [np.flatnonzero(folds != f % k) for f in range(F)]
    config = OptimConfig(batch_size=30, max_iters=150, avg_window=50)
    per_fit = optim.lockstep_floats(spec, max(map(len, rows)), config)
    tracemalloc.start()
    try:
        optim.fit_many(spec, y, rows, [NoiseSpec.bernoulli(0.3, 0.2)] * F, config,
                       [substream(1, "footprint", f) for f in range(F)], [None] * F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * F * per_fit * 8
