import numpy as np
import pytest

from dropglm import families as fam
from dropglm.basis import build_basis, design_matrix
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

FAST = OptimConfig(batch_size=10, max_iters=300, tol=1e-12)


def small_problem(seed=0, n=40):
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    mean_basis = build_basis(0, 1, 6, "natural")
    disp_basis = build_basis(0, 1, 4, "natural")
    X = design_matrix(mean_basis, x)
    Z = design_matrix(disp_basis, x)
    y = rng.normal(np.sin(2 * np.pi * x), 0.7)
    spec = GlmSpec(kernel=fam.gaussian(), X=X, Z=Z, beta=np.zeros(6),
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
        with pytest.raises(ConfigError):
            random_search_cv(spec, y, "lasso", plan, FAST)

    def test_diverged_fit_scores_minus_infinity(self):
        spec, y = small_problem()
        bad = FitResult(beta=np.full(6, np.nan), alpha=np.zeros(4), n_iter=1,
                        trace_iters=np.array([1]), trace_loglik=np.array([np.nan]),
                        termination="max-iter")
        assert _heldout_loglik(spec, y, np.arange(5), bad) == -np.inf

    def test_no_finite_sample_raises(self, monkeypatch):
        # Every fold fit diverges, so no sample has a finite mean and none
        # may be selected.
        from dropglm import tuning

        def diverged(spec, *args):
            return FitResult(beta=np.full(spec.X.shape[1], np.nan),
                             alpha=np.zeros(spec.Z.shape[1]), n_iter=1,
                             trace_iters=np.array([1]),
                             trace_loglik=np.array([np.nan]), termination="max-iter")

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
        optim = OptimConfig(batch_size=30, max_iters=1500, tol=1e-12,
                            avg_window=750)
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
