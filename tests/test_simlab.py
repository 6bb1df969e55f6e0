import numpy as np
import pytest

from dropglm import families as fam
from dropglm.errors import ConfigError
from dropglm.simlab import (
    F2_MAX,
    RESULT_COLUMNS,
    ScenarioConfig,
    f1,
    f2,
    g1,
    g2,
    g3,
    generate_dataset,
    rmse,
    run_scenario,
)
from dropglm.model import SplineModel
from dropglm.optim import OptimConfig
from dropglm.tuning import METHODS, RECTANGLES


class TestFunctionsAgainstHighPrecisionOracle:
    def test_all_functions_match_mpmath(self):
        # Independent re-evaluation of the formulas at 30 decimal digits.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30

        def npdf(x, mu, sigma):
            return mp.exp(-((x - mu) ** 2) / (2 * sigma**2)) / (
                sigma * mp.sqrt(2 * mp.pi))

        def oracle_f1(x):
            return 2 * mp.sin(4 * mp.pi * x) * npdf(x, mp.mpf("0.5"), mp.mpf("0.05"))

        def oracle_f2(x):
            return 40 + 10 * mp.sin(4 * mp.pi * x) * npdf(x, mp.mpf("0.5"), mp.mpf("0.05"))

        def oracle_g1(x):
            return mp.exp(-mp.mpf("0.08") * npdf(x, mp.mpf("0.4"), mp.mpf("0.04"))
                          - mp.mpf("0.08") * npdf(x, mp.mpf("0.7"), mp.mpf("0.02")))

        def oracle_g2(x):
            return mp.exp(-mp.mpf("0.08") * npdf(x, mp.mpf("0.4"), mp.mpf("0.03"))
                          + mp.mpf("0.08") * npdf(x, mp.mpf("0.7"), mp.mpf("0.03")))

        def oracle_g3(x):
            t = (x - mp.mpf("0.8")) / mp.mpf("0.15")
            return mp.exp((2 / mp.mpf("0.15")) * npdf(t, 0, 1) * mp.ncdf(-4 * t))

        xs = np.linspace(0.0, 1.0, 1000)
        pairs = [(f1, oracle_f1), (f2, oracle_f2), (g1, oracle_g1),
                 (g2, oracle_g2), (g3, oracle_g3)]
        for impl, oracle in pairs:
            got = impl(xs)
            expected = np.array([float(oracle(mp.mpf(repr(float(x))))) for x in xs])
            scale = np.maximum(np.abs(expected), 1.0)
            assert np.max(np.abs(got - expected) / scale) < 1e-12

    def test_point_values(self):
        assert f1(0.5) == pytest.approx(0.0, abs=1e-12)  # sin(2 pi) = 0
        assert f2(0.5) == pytest.approx(40.0, abs=1e-10)
        assert g1(0.0) == pytest.approx(1.0, abs=1e-6)  # both bumps negligible at 0

    def test_dispersion_shapes(self):
        grid = np.linspace(0, 1, 501)
        assert np.all(g1(grid) <= 1.0)            # pure overdispersion
        assert g2(grid).min() < 1.0 < g2(grid).max()  # crosses 1
        assert np.all(g3(grid) >= 1.0 - 1e-12)    # as printed: >= 1 pointwise


class TestRmse:
    def test_identical_vectors(self):
        v = np.linspace(0, 1, 501)
        assert rmse(v, v) == 0.0

    def test_constant_offset(self):
        a = np.zeros(501)
        assert rmse(a + 1.0, a) == pytest.approx(np.sqrt(501.0), abs=1e-12)

    def test_single_point_offset(self):
        a = np.zeros(501)
        b = a.copy()
        b[100] = 1.0
        assert rmse(b, a) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            rmse(np.zeros(3), np.zeros(4))


class TestScenarioConfig:
    def test_family_defaults(self):
        g = ScenarioConfig(family="gaussian")
        assert (g.mean_function, g.phi, len(g.grid())) == (f1, 0.64, 501)
        p = ScenarioConfig(family="dpoisson")
        assert (p.mean_function, p.phi, p.model.phi) == (f2, 1.0, 1.0)

    def test_bad_family(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(family="gamma")

    @pytest.mark.parametrize("make", [
        lambda: ScenarioConfig(family="gaussian", mean_knots=7.9, disp_knots=4),
        lambda: ScenarioConfig(family="gaussian", disp_knots=3),
        lambda: SplineModel("gaussian", mean_knots=5.5)])
    def test_bad_knot_count_raises_on_construction(self, make):
        # int() once read 7.9 knots as 7 and 5.5 as 5 without a word.
        with pytest.raises(ConfigError, match="knot count"):
            make()

    def test_rectangles(self):
        assert RECTANGLES == {"bernoulli": ((0.0, 1.0), (0.0, 1.0)),
                              "gaussian": ((0.0, 3.0), (0.0, 6.0)),
                              "pmle": ((0.0, 15000.0), (0.0, 15000.0))}
        assert METHODS == ("bernoulli", "gaussian", "pmle")


class TestGenerateDataset:
    def test_gaussian_with_unit_dispersion_is_plain_normal(self):
        # With gamma fixed at 1 the responses are N(f1(x), phi); check the
        # residual variance at the generator level.
        rng = np.random.default_rng(0)
        kernel = fam.GaussianKernel()
        x = rng.random(20_000)
        y = fam.def_sample_each(kernel, f1(x), np.ones_like(x), rng, phi=0.64)
        resid = y - f1(x)
        se = 0.64 * np.sqrt(2.0 / (len(x) - 1))
        assert abs(resid.var(ddof=1) - 0.64) < 3 * se
        assert abs(resid.mean()) < 3 * np.sqrt(0.64 / len(x))

    def test_binomial_range(self):
        cfg = ScenarioConfig(family="dbinomial", disp_index=1, n=100, seed=4)
        _, y = generate_dataset(cfg, 0)
        assert np.all((y >= 0) & (y <= 70))
        assert np.all(y == np.floor(y))

    def test_deterministic(self):
        cfg = ScenarioConfig(family="dpoisson", disp_index=2, n=50, seed=5)
        x1, y1 = generate_dataset(cfg, 3)
        x2, y2 = generate_dataset(cfg, 3)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_mean_domain_violation(self):
        # f2 peaks near 68.56, above the binomial mean domain of 60 or 68
        # trials: refused up front, whatever x is drawn.
        for trials in (60, 68):
            with pytest.raises(ConfigError, match="trials"):
                ScenarioConfig(family="dbinomial", trials=trials, disp_index=1, n=100,
                               seed=6)

    def test_f2_max_bounds_f2(self):
        values = f2(np.linspace(0.0, 1.0, 2_000_001))
        assert values.max() <= F2_MAX < values.max() + 1e-3
        # 69 trials, the least accepted, keep every mean inside (0, 69).
        assert values.min() > 0
        ScenarioConfig(family="dbinomial", trials=69)

    @pytest.mark.parametrize("family", ["gaussian", "dpoisson", "dbinomial"])
    @pytest.mark.parametrize("scenario", [1, 2, 3])
    def test_binned_means_track_truth(self, family, scenario):
        # Chi-square-style diagnostic at 1% significance: 20 bins, n=10,000;
        # standardized bin residual means should behave like N(0,1).
        cfg = ScenarioConfig(family=family, disp_index=scenario, n=10_000,
                             seed=100 + scenario)
        x, y = generate_dataset(cfg, 0)
        resid = y - cfg.mean_function(x)
        bins = np.minimum((x * 20).astype(int), 19)
        stat = 0.0
        for b in range(20):
            e = resid[bins == b]
            stat += (e.mean() / (e.std(ddof=1) / np.sqrt(len(e)))) ** 2
        assert stat < 37.566  # chi2(20) 99th percentile


class TestRunScenario:
    FAST = OptimConfig(batch_size=20, max_iters=400, avg_window=200)

    def test_shape_contract(self):
        cfg = ScenarioConfig(family="gaussian", disp_index=1, n=100,
                             replicates=2, cv_samples=2, cv_folds=2, seed=7,
                             optim=self.FAST)
        result = run_scenario(cfg, ["bernoulli"])
        assert len(result.rows) == 2
        assert "bernoulli" in result.cv_results
        assert len(result.grid) == 501
        for row in result.rows:
            assert row[0] == "gaussian" and row[1] == 1 and row[3] == "bernoulli"

    def test_unknown_method_is_a_config_error(self):
        cfg = ScenarioConfig(family="gaussian", n=40, replicates=1, cv_samples=1,
                             cv_folds=2, optim=self.FAST)
        with pytest.raises(ConfigError, match="'ridge'"):
            run_scenario(cfg, ["ridge"])
        with pytest.raises(ConfigError, match="'ridge'"):
            run_scenario(cfg, ["bernoulli", "ridge"])

    def test_deterministic_tables(self):
        cfg = ScenarioConfig(family="gaussian", disp_index=2, n=80,
                             replicates=2, cv_samples=2, cv_folds=2, seed=8,
                             optim=self.FAST)
        a = run_scenario(cfg, ["bernoulli", "pmle"])
        b = run_scenario(cfg, ["bernoulli", "pmle"])
        assert a.rows == b.rows

    def test_method_order_does_not_change_rows(self):
        cfg = ScenarioConfig(family="gaussian", disp_index=1, n=80,
                             replicates=1, cv_samples=2, cv_folds=2, seed=9,
                             optim=self.FAST)
        a = run_scenario(cfg, ["bernoulli", "pmle"])
        b = run_scenario(cfg, ["pmle", "bernoulli"])
        assert sorted(map(str, a.rows)) == sorted(map(str, b.rows))

    def test_finite_rmse_for_modest_run(self):
        cfg = ScenarioConfig(family="gaussian", disp_index=1, n=150,
                             replicates=3, cv_samples=3, cv_folds=3, seed=10,
                             optim=OptimConfig(batch_size=30, max_iters=1500,
                                               avg_window=750))
        result = run_scenario(cfg, ["bernoulli", "pmle"])
        table = np.array([[r[5], r[6]] for r in result.rows], dtype=float)
        assert np.all(np.isfinite(table))
        assert not any(r[RESULT_COLUMNS.index("diverged")] for r in result.rows)
