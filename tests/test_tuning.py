import numpy as np
import pytest

from dropglm import families as fam
from dropglm.basis import SplineBasis, design_matrix
from dropglm.errors import ConfigError, NumericError
from dropglm.model import GlmSpec
from dropglm.optim import FitResult, OptimConfig
from dropglm.rngs import substream
from dropglm.tuning import (
    CvPlan,
    cv_table,
    fit_method,
    make_folds,
    random_search_cv,
    _heldout_loglik,
)

FAST = OptimConfig(batch_size=10, max_iters=300)


def small_problem(seed=0, n=40):
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    mean_basis = SplineBasis(0, 1, 6, "natural")
    disp_basis = SplineBasis(0, 1, 4, "natural")
    X = design_matrix(mean_basis, x)
    Z = design_matrix(disp_basis, x)
    y = rng.normal(np.sin(2 * np.pi * x), 0.7)
    spec = GlmSpec(kernel=fam.GaussianKernel(), X=X, Z=Z, beta=np.zeros(6),
                   alpha=np.zeros(4), phi=0.49)
    return spec, y


class TestMakeFolds:
    def test_balanced_sizes(self):
        folds = make_folds(10, 5, np.random.default_rng(0))
        assert sorted(np.bincount(folds)) == [2, 2, 2, 2, 2]

    def test_uneven_sizes(self):
        folds = make_folds(11, 5, np.random.default_rng(1))
        assert sorted(np.bincount(folds)) == [2, 2, 2, 2, 3]

    def test_deterministic(self):
        a = make_folds(23, 4, np.random.default_rng(7))
        b = make_folds(23, 4, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_too_many_folds(self):
        with pytest.raises(ConfigError):
            make_folds(3, 4, np.random.default_rng(0))


class TestRandomSearchCv:
    def test_single_sample_returned(self):
        spec, y = small_problem()
        plan = CvPlan(rect=((0.0, 1.0), (0.0, 1.0)), n_samples=1, n_folds=2, seed=5)
        res = random_search_cv(spec, y, "bernoulli", plan, FAST)
        assert res.selected_index == 0
        assert res.params.shape == (1, 2)

    def test_argmax_deterministic_and_reproducible(self):
        spec, y = small_problem()
        plan = CvPlan(rect=((0.0, 3.0), (0.0, 6.0)), n_samples=4, n_folds=2, seed=9)
        a = random_search_cv(spec, y, "gaussian", plan, FAST)
        b = random_search_cv(spec, y, "gaussian", plan, FAST)
        assert a.selected_index == b.selected_index
        assert np.array_equal(a.fold_logliks, b.fold_logliks)

    def test_rows_independent_of_evaluation_order(self):
        # Any sample/fold cell can be recomputed in isolation from its keyed
        # substream, so the table cannot depend on evaluation order.
        spec, y = small_problem()
        plan = CvPlan(rect=((0.0, 1.0), (0.0, 1.0)), n_samples=3, n_folds=2, seed=42)
        res = random_search_cv(spec, y, "bernoulli", plan, FAST)
        folds = make_folds(spec.n, 2, substream(42, "folds"))
        j, f = 2, 1
        train = np.flatnonzero(folds != f)
        test = np.flatnonzero(folds == f)
        fit_res = fit_method(spec.rows(train), y[train], "bernoulli",
                             res.params[j], FAST, substream(42, "cvfit", j, f))
        assert _heldout_loglik(spec, y, test, fit_res) == res.fold_logliks[j, f]

    def test_argmax_invariant_to_constant_shift(self):
        spec, y = small_problem()
        plan = CvPlan(rect=((0.0, 1.0), (0.0, 1.0)), n_samples=5, n_folds=2, seed=3)
        res = random_search_cv(spec, y, "bernoulli", plan, FAST)
        shifted = res.mean_logliks + 123.456
        assert int(np.argmax(shifted)) == res.selected_index

    def test_pmle_method_dispatch(self):
        spec, y = small_problem()
        plan = CvPlan(rect=((0.0, 100.0), (0.0, 100.0)), n_samples=2, n_folds=2,
                      seed=13)
        res = random_search_cv(spec, y, "pmle", plan, FAST)
        assert np.all(res.params >= 0.0)
        assert res.selected_index in (0, 1)

    def test_bernoulli_rectangle_bound(self):
        spec, y = small_problem()
        plan = CvPlan(rect=((0.0, 2.0), (0.0, 1.0)), n_samples=1, n_folds=2, seed=1)
        with pytest.raises(ConfigError):
            random_search_cv(spec, y, "bernoulli", plan, FAST)

    def test_unknown_method(self):
        spec, y = small_problem()
        plan = CvPlan(rect=((0.0, 1.0), (0.0, 1.0)), n_samples=1, n_folds=2, seed=1)
        with pytest.raises(ConfigError, match=r"'lasso'; choose from \('bernoulli', "
                                              r"'gaussian', 'pmle'\)"):
            random_search_cv(spec, y, "lasso", plan, FAST)

    def test_diverged_fit_scores_minus_infinity(self):
        spec, y = small_problem()
        bad = FitResult(beta=np.full(6, np.nan), alpha=np.zeros(4), n_iter=1,
                        termination="max-iter")
        assert _heldout_loglik(spec, y, np.arange(5), bad) == -np.inf

    def test_no_finite_sample_raises(self, monkeypatch):
        # Every fold fit diverges, so no sample has a finite mean and none
        # may be selected.
        from dropglm import tuning

        def diverged(spec, y, method, params, config, rngs, rows):
            # One diverged result per fit of the lockstep group.
            return [FitResult(beta=np.full(spec.X.shape[1], np.nan),
                              alpha=np.zeros(spec.Z.shape[1]), n_iter=1,
                              termination="max-iter")
                    for _ in rows]

        monkeypatch.setattr(tuning, "fit_method", diverged)
        spec, y = small_problem()
        plan = CvPlan(rect=((0.0, 1.0), (0.0, 1.0)), n_samples=3, n_folds=2, seed=1)
        with pytest.raises(NumericError):
            random_search_cv(spec, y, "bernoulli", plan, FAST)


class TestScenarioOneSelection:
    def test_tuned_pair_beats_zero_noise_on_heldout(self):
        # Scenario 1 Gaussian data, gaussian-noise method, s=50, k=5, n=250:
        # the selected pair lies strictly inside the rectangle and its mean
        # held-out log-likelihood is at least the zero-noise pair's.
        from dropglm.simlab import ScenarioConfig, generate_dataset

        cfg = ScenarioConfig(family="gaussian", disp_index=1, n=250, seed=31)
        x, y = generate_dataset(cfg, 0)
        spec = cfg.model.spec(x)
        optim = OptimConfig(batch_size=30, max_iters=1500, avg_window=750)
        plan = CvPlan(rect=((0.0, 3.0), (0.0, 6.0)), n_samples=50, n_folds=5,
                      seed=17)
        res = random_search_cv(spec, y, "gaussian", plan, optim)
        s_mu, s_gamma = res.selected_params
        assert 0.0 < s_mu < 3.0 and 0.0 < s_gamma < 6.0

        folds = make_folds(spec.n, 5, substream(17, "folds"))
        zero_scores = []
        for f in range(5):
            train = np.flatnonzero(folds != f)
            test = np.flatnonzero(folds == f)
            fit_res = fit_method(spec.rows(train), y[train], "gaussian",
                                 (0.0, 0.0), optim, substream(17, "zero", f))
            zero_scores.append(_heldout_loglik(spec, y, test, fit_res))
        assert res.mean_logliks[res.selected_index] >= np.mean(zero_scores)


class TestCvTable:
    def test_shape_and_selected_flag(self):
        spec, y = small_problem()
        plan = CvPlan(rect=((0.0, 1.0), (0.0, 1.0)), n_samples=3, n_folds=2, seed=21)
        res = random_search_cv(spec, y, "bernoulli", plan, FAST)
        header, rows = cv_table(res)
        assert header == ["sample_index", "param1", "param2", "fold_loglik_1",
                          "fold_loglik_2", "mean_loglik", "selected_flag"]
        assert len(rows) == 3
        assert sum(r[-1] for r in rows) == 1
        flagged = [r for r in rows if r[-1] == 1][0]
        assert flagged[0] == res.selected_index


# ------------------------------------------------- lockstep CV, fit by fit
# random_search_cv advances its s x k fits in lockstep groups through the
# group form of fit_method; every fit must equal, to the bit, its own
# single fit on its keyed substream.
LOCKSTEP = OptimConfig(batch_size=15, max_iters=400, avg_window=100)
RECTS = {"bernoulli": ((0.0, 0.5), (0.0, 0.5)), "gaussian": ((0.0, 1.0), (0.0, 1.0)),
         "pmle": ((0.0, 15000.0), (0.0, 15000.0))}


def record_groups(monkeypatch):
    """Every group call of tuning.fit_method as (params, rngs, rows, results)."""
    from dropglm import tuning

    calls = []
    group_fit = tuning.fit_method

    def spy(spec, y, method, params, config, rng, rows=None):
        results = group_fit(spec, y, method, params, config, rng, rows=rows)
        if rows is not None:
            calls.append((np.asarray(params), rng, rows, results))
        return results

    monkeypatch.setattr(tuning, "fit_method", spy)
    return calls


def assert_same_fit(a, b):
    for field in ("beta", "alpha"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert (a.n_iter, a.termination, a.rejected_steps) == (
        b.n_iter, b.termination, b.rejected_steps)


def assert_each_fit_as_alone(spec, y, method, plan, config, res, calls):
    """Each recorded fit, and its held-out score, equal the fit run alone."""
    folds = make_folds(spec.n, plan.n_folds, substream(plan.seed, "folds"))
    cells = set()
    for params, _, rows, results in calls:
        for pair, train, grouped in zip(params, rows, results):
            j = int(np.flatnonzero((res.params == pair).all(axis=1))[0])
            f = int(np.bincount(folds[train], minlength=plan.n_folds).argmin())
            alone = fit_method(spec.rows(train), y[train], method, pair, config,
                               substream(plan.seed, "cvfit", j, f))
            assert_same_fit(grouped, alone)
            test = np.flatnonzero(folds == f)
            assert res.fold_logliks[j, f] == _heldout_loglik(spec, y, test, alone)
            cells.add((j, f))
    assert len(cells) == plan.n_samples * plan.n_folds


def scenario_data(family, n=60):
    from dropglm.simlab import ScenarioConfig, generate_dataset

    scenario = ScenarioConfig(family=family, n=n, mean_knots=10, disp_knots=8)
    x, y = generate_dataset(scenario, 0)
    return scenario.model.spec(x), y


class TestLockstepCv:
    @pytest.mark.parametrize("family", ["gaussian", "dpoisson", "dbinomial"])
    @pytest.mark.parametrize("method", ["bernoulli", "gaussian", "pmle"])
    def test_every_fit_equals_its_fit_alone(self, monkeypatch, family, method):
        spec, y = scenario_data(family)
        plan = CvPlan(rect=RECTS[method], n_samples=3, n_folds=2, seed=5)
        calls = record_groups(monkeypatch)
        res = random_search_cv(spec, y, method, plan, LOCKSTEP)
        assert len(calls) == 1
        assert_each_fit_as_alone(spec, y, method, plan, LOCKSTEP, res, calls)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("method,params", [
        # Dispersion noise so wide that every step is rejected.
        ("gaussian", [(0.4, 0.3), (0.0, 1e307), (0.2, 0.1)]),
        # A penalty gradient whose square overflows: every step is rejected.
        ("pmle", [(5000.0, 15000.0), (1e308, 0.0), (15000.0, 0.0)])])
    def test_an_all_rejected_fit_beside_healthy_ones(self, method, params):
        spec, y = scenario_data("gaussian")
        rows = [np.arange(0, 60, 2), np.arange(60), np.arange(1, 60, 3)]
        rngs = [substream(3, "group", i) for i in range(3)]
        grouped = fit_method(spec, y, method, params, LOCKSTEP, rngs, rows=rows)
        assert [r.rejected_steps == r.n_iter for r in grouped] == [False, True, False]
        for pair, train, i, result in zip(params, rows, range(3), grouped):
            alone = fit_method(spec.rows(train), y[train], method, pair, LOCKSTEP,
                               substream(3, "group", i))
            assert_same_fit(result, alone)

    def test_unequal_epoch_lengths(self, monkeypatch):
        # Folds of 30 and 29 rows train on 29 and 30 rows: epochs of 2 and
        # 3 batches of 10.
        spec, y = small_problem(seed=4, n=59)
        config = OptimConfig(batch_size=10, max_iters=300, avg_window=100)
        plan = CvPlan(rect=((0.0, 1.0), (0.0, 1.0)), n_samples=3, n_folds=2, seed=8)
        calls = record_groups(monkeypatch)
        res = random_search_cv(spec, y, "gaussian", plan, config)
        (_, _, rows, _), = calls
        assert {len(r) // 10 for r in rows} == {2, 3}
        assert_each_fit_as_alone(spec, y, "gaussian", plan, config, res, calls)

    @pytest.mark.parametrize("budget", [1, 3200])
    def test_groups_split_by_the_budget(self, monkeypatch, budget):
        from dropglm import tuning

        spec, y = scenario_data("dpoisson")
        plan = CvPlan(rect=RECTS["gaussian"], n_samples=3, n_folds=3, seed=6)
        whole = random_search_cv(spec, y, "gaussian", plan, LOCKSTEP)
        monkeypatch.setattr(tuning, "CV_GROUP_FLOATS", budget)
        calls = record_groups(monkeypatch)
        split = random_search_cv(spec, y, "gaussian", plan, LOCKSTEP)
        sizes = [len(rows) for _, _, rows, _ in calls]
        assert sum(sizes) == 9 and len(sizes) > 1
        # A fit on 40 rows holds 1,560 floats (optim.lockstep_floats).
        assert sizes == ([1] * 9 if budget == 1 else [2, 2, 2, 2, 1])
        assert np.array_equal(split.fold_logliks, whole.fold_logliks)
        assert_each_fit_as_alone(spec, y, "gaussian", plan, LOCKSTEP, split, calls)

    @pytest.mark.parametrize("shape", ["traffic", "desk"])
    def test_benchmark_shaped_groups(self, monkeypatch, shape):
        # The group sizes of the two benchmark CVs at the default budget: a
        # traffic summer (92 days of 24 hours, 24/12 cyclic knots, 5 folds)
        # and a desk gaussian scenario (n = 250, 30/20 knots, 3 folds).
        from dropglm.model import SplineModel
        from dropglm.simlab import ScenarioConfig, generate_dataset

        config = OptimConfig(batch_size=30, max_iters=5000, avg_window=2500)
        if shape == "traffic":
            model = SplineModel("dpoisson", mean_knots=24, disp_knots=12, lo=0.0,
                                hi=24.0, boundary="cyclic")
            hours = np.tile(np.arange(24.0), 92)
            counts = np.random.default_rng(3).poisson(
                200.0 + 100.0 * np.sin(2 * np.pi * hours / 24)).astype(float)
            spec, y, folds, method = model.spec(hours), counts, 5, "bernoulli"
        else:
            scenario = ScenarioConfig(family="gaussian", n=250, mean_knots=30,
                                      disp_knots=20)
            x, y = generate_dataset(scenario, 0)
            spec, folds, method = scenario.model.spec(x), 3, "gaussian"
        plan = CvPlan(rect=RECTS[method], n_samples=2, n_folds=folds, seed=1)
        calls = record_groups(monkeypatch)
        random_search_cv(spec, y, method, plan, config)
        assert spec.n == {"traffic": 2208, "desk": 250}[shape]
        assert [len(rows) for _, _, rows, _ in calls] == (
            [10] if shape == "traffic" else [6])


class TestLockstepCvBindings:
    """The layers a tracer wraps still see every CV fit: the group enters
    through tuning's ``fit_method``, ADADELTA through the ``optim`` global,
    the noise through ``NoiseSpec.draw`` on the class (once per fit, epoch
    and noisy side) and the penalty through ``DiffPenalty.gradient`` (once
    per iteration of each lockstep loop, for all its fits)."""

    @pytest.mark.parametrize("method", ["bernoulli", "gaussian", "pmle"])
    def test_layers_see_every_fit(self, monkeypatch, method):
        from dropglm import optim
        from dropglm.dropout import NoiseSpec
        from dropglm.pmle import DiffPenalty

        spec, y = scenario_data("dpoisson")
        counts = {"adadelta": 0, "gradient": 0}
        draws = {}
        adadelta, draw, gradient = optim.adadelta_step, NoiseSpec.draw, DiffPenalty.gradient

        def adadelta_spy(*args):
            counts["adadelta"] += 1
            return adadelta(*args)

        def draw_spy(self, side, shape, rng):
            draws[id(rng), side] = draws.get((id(rng), side), 0) + 1
            return draw(self, side, shape, rng)

        def gradient_spy(self, beta, alpha):
            counts["gradient"] += 1
            return gradient(self, beta, alpha)

        monkeypatch.setattr(optim, "adadelta_step", adadelta_spy)
        monkeypatch.setattr(NoiseSpec, "draw", draw_spy)
        monkeypatch.setattr(DiffPenalty, "gradient", gradient_spy)
        calls = record_groups(monkeypatch)
        plan = CvPlan(rect=RECTS[method], n_samples=3, n_folds=2, seed=5)
        random_search_cv(spec, y, method, plan, LOCKSTEP)

        fits = [(rng, len(train), result) for _, rngs, rows, results in calls
                for rng, train, result in zip(rngs, rows, results)]
        assert len(fits) == 6
        assert counts["adadelta"] > 0
        expected = {}
        if method != "pmle":
            for rng, n, result in fits:
                epochs = -(-result.n_iter // (n // LOCKSTEP.batch_size))
                expected[id(rng), "mean"] = expected[id(rng), "disp"] = epochs
        assert draws == expected
        # One penalty gradient per iteration of each lockstep loop: a group
        # runs one loop per epoch length among its fits.
        loops = {(i, len(train) // LOCKSTEP.batch_size)
                 for i, (_, _, rows, _) in enumerate(calls) for train in rows}
        assert counts["gradient"] == (len(loops) * LOCKSTEP.max_iters
                                      if method == "pmle" else 0)


def test_lockstep_cv_memory_stays_below_a_ring_per_fit(monkeypatch):
    # A traffic-shaped CV of 10 fits in one group: n = 1,840 hourly counts,
    # 24/12 cyclic knots, avg_window 2500.  A 2500-row ring of iterates per
    # fit would alone take 10 * 2500 * 36 * 8 bytes = 7.2 MB.
    import tracemalloc

    from dropglm import tuning
    from dropglm.model import SplineModel

    monkeypatch.setattr(tuning, "CV_GROUP_FLOATS", 10**9)

    model = SplineModel("dpoisson", mean_knots=24, disp_knots=12, lo=0.0, hi=24.0,
                        boundary="cyclic")
    rng = np.random.default_rng(3)
    hours = np.tile(np.arange(24.0), 77)[:1840]
    counts = rng.poisson(200.0 + 100.0 * np.sin(2 * np.pi * hours / 24)).astype(float)
    spec = model.spec(hours)
    ring = 10 * 2500 * (spec.X.shape[1] + spec.Z.shape[1]) * 8
    assert ring == 7_200_000
    config = OptimConfig(batch_size=30, max_iters=2500, avg_window=2500)
    plan = CvPlan(rect=((0.0, 1.0), (0.0, 1.0)), n_samples=2, n_folds=5, seed=1)
    tracemalloc.start()
    try:
        random_search_cv(spec, counts, "bernoulli", plan, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ring
