"""Acceptance gates.

One test per criterion; each prints a single PASS/FAIL line (run pytest with
-s to stream them).  Statistical gates use fixed seeds and the tolerances
stated alongside each check.  The desk-scale direction gates (criteria 10a
and 10b) print their full RMSE distributions whenever a gate misses the 1.10
factor; 1.25 is the hard floor.
"""

import time

import numpy as np
import pytest

from dropglm import families as fam
from dropglm.basis import SplineBasis, design_matrix
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
from dropglm.families import DefParams
from dropglm.model import GlmSpec, fisher_blocks, loglik, score
from dropglm.optim import OptimConfig, adadelta_step
from dropglm.pmle import DiffPenalty, pmle_objective, pmle_objective_grad, second_difference_penalty
from dropglm.simlab import ScenarioConfig, run_scenario

PUBLISHED_SEED = 20240801

# Desk-scale optimizer budget for criterion 10 (reported with the run):
# batch 30 per the protocol, 5000 SGD iterations, tail averaging over the
# trailing 2500 iterates; every fit runs the whole budget.
DESK_OPTIM = OptimConfig(batch_size=30, max_iters=5000, avg_window=2500)

KERNELS = {"gaussian": fam.GaussianKernel(), "poisson": fam.PoissonKernel(),
           "binomial": fam.BinomialKernel(10)}


def report(criterion: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {criterion}" + (f" :: {detail}" if detail else ""), flush=True)


def random_instance(kernel, rng, n_max=50, d_max=10):
    n = int(rng.integers(5, n_max + 1))
    d = int(rng.integers(2, d_max + 1))
    dg = int(rng.integers(1, 4))
    X = rng.normal(size=(n, d))
    Z = rng.normal(size=(n, dg)) * 0.5
    spec = GlmSpec(kernel=kernel, X=X, Z=Z, beta=rng.normal(size=d) * 0.3,
                   alpha=rng.normal(size=dg) * 0.2)
    theta = np.clip(spec.theta, -3, 3)
    if kernel.name == "gaussian":
        y = rng.normal(spec.theta, 1.0)
    elif kernel.name == "poisson":
        y = rng.poisson(np.exp(theta)).astype(float)
    else:
        y = rng.binomial(kernel.trials, 1.0 / (1.0 + np.exp(-theta))).astype(float)
    return spec, y


def test_criterion_1_gaussian_penalty_exactness():
    # 20 random Gaussian-family instances; the quadratic penalty is exact for
    # b(t)=t^2/2, so |MC(1e6 draws) - closed form| <= 3 MC SE.
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for i in range(20):
        spec, y = random_instance(KERNELS["gaussian"], rng)
        noise = (NoiseSpec("gaussian", rng.uniform(0.2, 0.6)) if i % 2
                 else NoiseSpec("bernoulli", rng.uniform(0.1, 0.5)))
        est = mc_dropout_objective(spec, y, noise, 1_000_000,
                                   np.random.default_rng(1000 + i))
        snap = penalty_matrices(spec, noise)
        closed = -loglik(spec, y) + 0.5 * noise.mean_variance * float(
            np.sum((snap.Theta * spec.beta) ** 2))
        ratio = abs(est.value - closed) / est.stderr
        worst = max(worst, ratio)
        assert ratio <= 3.0, f"instance {i}: |MC-closed| = {ratio:.2f} SE"
    report("criterion 1 (Gaussian-family penalty exactness)", True,
           f"worst |diff|/SE = {worst:.2f}, {time.time() - start:.0f}s")


def test_criterion_2_jensen_gate():
    # 100 random instances across the three families: every per-observation
    # penalty gap >= -3 MC SE.
    rng = np.random.default_rng(102)
    names = list(KERNELS)
    worst = np.inf
    for i in range(100):
        kernel = KERNELS[names[i % 3]]
        spec, _ = random_instance(kernel, rng, n_max=20, d_max=6)
        noise = (NoiseSpec("bernoulli", rng.uniform(0.05, 0.6)) if i % 2
                 else NoiseSpec("gaussian", rng.uniform(0.05, 0.8)))
        gaps, ses = exact_penalty_gap(spec, noise, 4000,
                                      np.random.default_rng(2000 + i))
        margin = np.min(gaps + 3 * ses)
        worst = min(worst, np.min(gaps / np.maximum(ses, 1e-300)))
        assert margin >= 0.0, f"instance {i}: Jensen violated by {margin:.3g}"
    report("criterion 2 (Jensen nonnegativity of penalty gaps)", True,
           f"min gap/SE = {worst:.2f}")


def test_criterion_3_lognormal_dispersion_expectation():
    # Mean of gamma~ over 1e6 Gaussian draws vs the lognormal closed form,
    # within 1% relative, for 10 random (z, alpha, sigma_gamma <= 1).
    rng = np.random.default_rng(103)
    worst = 0.0
    for i in range(10):
        dg = int(rng.integers(2, 9))
        z = rng.uniform(-1.0, 1.0, dg)
        alpha = rng.normal(0.0, 0.3, dg)
        sigma = rng.uniform(0.2, 1.0)
        spec = GlmSpec(kernel=KERNELS["gaussian"], X=np.ones((1, 1)),
                       Z=z[None, :], beta=np.zeros(1), alpha=alpha)
        noise = NoiseSpec("gaussian", 0.0, sigma)
        formula = expected_noisy_dispersion(spec, noise)[0]
        zeta = noise.draw("disp", (1_000_000, dg), np.random.default_rng(3000 + i))
        emp = float(np.exp(zeta @ (z * alpha)).mean())
        rel = abs(emp - formula) / formula
        worst = max(worst, rel)
        assert rel < 0.01, f"instance {i}: relative error {rel:.4f}"
    report("criterion 3 (lognormal dispersion expectation)", True,
           f"worst relative error = {worst:.4f}")


def test_criterion_4_taylor_remainders():
    # Poisson: MC estimate of E[b(x~'b)] minus the quadratic approximation
    # matches the closed-form remainder within 3 SE whenever sigma^2 s^2 <= 0.5.
    # Binomial: |MC remainder| <= bound + 3 SE.
    rng = np.random.default_rng(104)
    checked = 0
    while checked < 20:
        d = int(rng.integers(1, 6))
        x = rng.normal(size=d)
        beta = rng.normal(size=d) * 0.4
        sigma = rng.uniform(0.1, 0.5)
        v = sigma**2 * float(np.sum((x * beta) ** 2))
        if v > 0.5:
            continue
        draws = 200_000
        xi = 1.0 + sigma * np.random.default_rng(4000 + checked).standard_normal((draws, d))
        u = xi @ (x * beta)
        vals = np.exp(u)
        quad = np.exp(x @ beta) * (1.0 + 0.5 * v)
        mc = float(vals.mean() - quad)
        se = float(vals.std(ddof=1) / np.sqrt(draws))
        assert abs(mc - remainder_poisson(x, beta, sigma)) <= 3 * se
        checked += 1

    kernel = KERNELS["binomial"]
    for i in range(20):
        d = int(rng.integers(1, 6))
        x = rng.normal(size=d)
        beta = rng.normal(size=d) * 0.4
        sigma = rng.uniform(0.1, 0.5)
        draws = 100_000
        xi = 1.0 + sigma * np.random.default_rng(5000 + i).standard_normal((draws, d))
        u = xi @ (x * beta)
        vals = kernel.b(u)
        t0 = float(x @ beta)
        quad = kernel.b(t0) + 0.5 * kernel.b_second(t0) * sigma**2 * np.sum((x * beta) ** 2)
        mc = float(vals.mean() - quad)
        se = float(vals.std(ddof=1) / np.sqrt(draws))
        bound = remainder_binomial_bound(x, beta, sigma, kernel.trials)
        assert abs(mc) <= bound + 3 * se
    report("criterion 4 (Taylor remainder formulas)", True,
           "20 Poisson matches + 20 binomial bounds")


def test_criterion_5_fisher_identities():
    # Theta == sqrt(diag(n I(beta))) to 1e-12 and analytic Hessian blocks vs
    # central finite differences of the score to 1e-6 relative.
    rng = np.random.default_rng(105)
    for name, kernel in KERNELS.items():
        for _ in range(5):
            spec, y = random_instance(kernel, rng, n_max=20, d_max=6)
            i_beta, i_alpha = fisher_blocks(spec)
            snap = penalty_matrices(spec, NoiseSpec("gaussian", 0.3, 0.3))
            assert np.max(np.abs(snap.Theta - np.sqrt(spec.n * np.diag(i_beta)))) < 1e-12
            assert np.allclose(i_alpha, spec.Z.T @ spec.Z / spec.n, atol=1e-14)

            rep = score(spec, y)
            eps = 1e-6
            for j in range(len(spec.beta)):
                e = np.zeros(len(spec.beta))
                e[j] = eps
                up = score(spec.with_coefs(spec.beta + e, spec.alpha), y)
                dn = score(spec.with_coefs(spec.beta - e, spec.alpha), y)
                fd = (up.score_beta - dn.score_beta) / (2 * eps)
                denom = np.maximum(np.abs(fd), 1e-6)
                assert np.max(np.abs(fd - rep.hess_bb[:, j]) / denom) < 1e-6
            for j in range(len(spec.alpha)):
                e = np.zeros(len(spec.alpha))
                e[j] = eps
                up = score(spec.with_coefs(spec.beta, spec.alpha + e), y)
                dn = score(spec.with_coefs(spec.beta, spec.alpha - e), y)
                fd_a = (up.score_alpha - dn.score_alpha) / (2 * eps)
                fd_b = (up.score_beta - dn.score_beta) / (2 * eps)
                assert np.max(np.abs(fd_a - rep.hess_aa[:, j]) / np.maximum(np.abs(fd_a), 1e-6)) < 1e-6
                assert np.max(np.abs(fd_b - rep.hess_ba[:, j]) / np.maximum(np.abs(fd_b), 1e-6)) < 1e-6
    report("criterion 5 (Fisher identities and Hessian blocks)", True)


def test_criterion_6_gradient_gate():
    # Scores of the working log-likelihood, gradient of the closed-form
    # penalized objective, and the PMLE objective gradient all match central
    # finite differences to <1e-6 relative, 50 instances per family.
    rng = np.random.default_rng(106)

    def check_grad(value_fn, grad, coefs, tol=1e-6):
        eps = 1e-5
        for j in range(len(coefs)):
            e = np.zeros(len(coefs))
            e[j] = eps
            fd = (value_fn(coefs + e) - value_fn(coefs - e)) / (2 * eps)
            assert abs(fd - grad[j]) / max(abs(fd), 1e-7) < tol

    for name, kernel in KERNELS.items():
        for i in range(50):
            spec, y = random_instance(kernel, rng, n_max=15, d_max=5)
            rep = score(spec, y)
            check_grad(lambda b: loglik(spec.with_coefs(b, spec.alpha), y),
                       rep.score_beta, spec.beta)
            check_grad(lambda a: loglik(spec.with_coefs(spec.beta, a), y),
                       rep.score_alpha, spec.alpha)

            noise = NoiseSpec("gaussian", rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.5))
            gb, ga = penalized_objective_grad(spec, y, noise)
            check_grad(lambda b: penalized_objective(spec.with_coefs(b, spec.alpha), y, noise),
                       gb, spec.beta, tol=2e-6)
            check_grad(lambda a: penalized_objective(spec.with_coefs(spec.beta, a), y, noise),
                       ga, spec.alpha, tol=2e-6)

            if len(spec.beta) >= 3 and len(spec.alpha) >= 3:
                penalty = DiffPenalty(rng.uniform(0, 5), rng.uniform(0, 5),
                                      len(spec.beta), len(spec.alpha))
                pb, pa = pmle_objective_grad(spec, y, penalty)
                check_grad(lambda b: pmle_objective(spec.with_coefs(b, spec.alpha), y, penalty),
                           pb, spec.beta)
                check_grad(lambda a: pmle_objective(spec.with_coefs(spec.beta, a), y, penalty),
                           pa, spec.alpha)
    report("criterion 6 (gradient gates: likelihood, penalized, PMLE)", True)


def test_criterion_7_def_normalization_and_sampling():
    rng = np.random.default_rng(107)
    # Exact-C pmfs sum to one within 1e-10.
    for gamma in (0.25, 0.5, 1.0, 2.0, 4.0):
        for mu in (3.0, 15.0, 45.0):
            _, p = fam.def_pmf(KERNELS["poisson"], DefParams(theta=np.log(mu), gamma=gamma))
            assert abs(p.sum() - 1.0) < 1e-10
        _, p = fam.def_pmf(fam.BinomialKernel(70), DefParams(theta=0.4, gamma=gamma))
        assert abs(p.sum() - 1.0) < 1e-10

    # Sampler moments match the exact moments within 3 SE at 1e5 draws.
    cases = [
        (KERNELS["poisson"], DefParams(theta=np.log(8.0), gamma=0.5)),
        (KERNELS["poisson"], DefParams(theta=np.log(20.0), gamma=2.0)),
        (fam.BinomialKernel(70), DefParams(theta=0.0, gamma=0.6)),
        (KERNELS["gaussian"], DefParams(theta=1.0, gamma=4.0, phi=0.64)),
    ]
    for kernel, params in cases:
        draws = fam.def_sample_each(kernel, np.full(100_000, params.theta),
                                    np.full(100_000, params.gamma),
                                    np.random.default_rng(6000), phi=params.phi)
        mean, var = fam.def_moments(kernel, params)
        if kernel.discrete:
            grid, p = fam.def_pmf(kernel, params)
            m4 = float(p @ (grid - mean) ** 4)
        else:
            m4 = 3.0 * var**2
        se_mean = np.sqrt(var / len(draws))
        se_var = np.sqrt(max(m4 - var**2, 0.0) / len(draws))
        assert abs(draws.mean() - mean) <= 3 * se_mean
        assert abs(draws.var(ddof=1) - var) <= 3 * se_var

    # gamma = 1 reduces the DEF exactly to the base EF distribution.
    p_pois = DefParams(theta=np.log(4.0), gamma=1.0)
    grid, p = fam.def_pmf(KERNELS["poisson"], p_pois)
    from scipy.stats import binom, poisson as sp_poisson

    assert np.max(np.abs(p - sp_poisson.pmf(grid, 4.0))) < 1e-12
    p_bin = DefParams(theta=0.3, gamma=1.0)
    grid, p = fam.def_pmf(fam.BinomialKernel(12), p_bin)
    prob = 1.0 / (1.0 + np.exp(-0.3))
    assert np.max(np.abs(p - binom.pmf(grid, 12, prob))) < 1e-12
    mean, var = fam.def_moments(KERNELS["gaussian"], DefParams(theta=0.7, gamma=1.0, phi=2.0))
    assert (mean, var) == (0.7, 2.0)
    report("criterion 7 (DEF normalization and sampling)", True)


def test_criterion_8_spline_gates():
    rng = np.random.default_rng(108)
    x = rng.random(1000)
    nat = SplineBasis(0.0, 1.0, 30, "natural")
    assert np.max(np.abs(design_matrix(nat, x).sum(axis=1) - 1.0)) < 1e-12

    cyc = SplineBasis(0.0, 24.0, 12, "cyclic")
    for deriv in (0, 1):
        lo = design_matrix(cyc, [0.0], deriv=deriv)
        hi = design_matrix(cyc, [24.0], deriv=deriv)
        assert np.max(np.abs(lo - hi)) < 1e-10

    P = second_difference_penalty(20)
    j = np.arange(20.0)
    for a, b in ((1.0, 0.0), (-0.4, 2.0)):
        v = a + b * j
        assert abs(v @ P @ v) < 1e-12
    report("criterion 8 (spline and difference-penalty gates)", True)


def test_criterion_9_adadelta_reference():
    # Independently coded reference recurrence, 10 scripted steps, 1e-12.
    def reference(grads, rho, eps):
        eg = np.zeros_like(grads[0])
        es = np.zeros_like(grads[0])
        steps = []
        for g in grads:
            eg = rho * eg + (1 - rho) * g * g
            s = np.sqrt(es + eps) / np.sqrt(eg + eps) * g
            es = rho * es + (1 - rho) * s * s
            steps.append(s)
        return steps

    rng = np.random.default_rng(109)
    grads = [rng.normal(size=6) for _ in range(10)]
    expected = reference(grads, 0.95, 1e-6)
    avg_sq_grad, avg_sq_step = np.zeros(6), np.zeros(6)
    for g, want in zip(grads, expected):
        step = adadelta_step(avg_sq_grad, avg_sq_step, g)
        assert np.max(np.abs(step - want)) < 1e-12
    report("criterion 9 (ADADELTA reference recurrence)", True)


def _desk_run(disp_index: int):
    config = ScenarioConfig(
        family="gaussian", disp_index=disp_index, n=250, replicates=20,
        cv_samples=50, cv_folds=5, seed=PUBLISHED_SEED, optim=DESK_OPTIM,
    )
    result = run_scenario(config, ["bernoulli", "pmle"])
    med = {}
    dists = {}
    for method in ("bernoulli", "pmle"):
        vals = np.array([r[6] for r in result.rows if r[3] == method and not r[9]])
        med[method] = float(np.median(vals))
        dists[method] = np.sort(vals)
    return result, med, dists


def _print_distributions(label, result, dists):
    print(f"--- run report: {label} (seed {PUBLISHED_SEED}, n=250, R=20, "
          f"s=50, k=5, optim={DESK_OPTIM}) ---")
    for method, vals in dists.items():
        sel = next(r for r in result.rows if r[3] == method)
        print(f"  {method}: selected params = ({sel[7]:.4g}, {sel[8]:.4g})")
        print(f"  {method} dispersion RMSE distribution "
              f"({len(vals)} replicates): {np.array2string(vals, precision=2)}")
    print("---", flush=True)


@pytest.mark.slow
def test_criterion_10a_scenario1_direction():
    # Gaussian Scenario 1: CV-tuned Bernoulli dropout must not trail PMLE by
    # more than 10% in median dispersion RMSE (paper direction: dropout wins).
    result, med, dists = _desk_run(1)
    ratio = med["bernoulli"] / med["pmle"]
    ok = med["bernoulli"] <= 1.10 * med["pmle"]
    report("criterion 10a (Scenario 1 direction, dropout vs PMLE)", ok,
           f"median disp RMSE bernoulli={med['bernoulli']:.2f}, "
           f"pmle={med['pmle']:.2f}, ratio={ratio:.3f}")
    if not ok:
        _print_distributions("Scenario 1", result, dists)
        assert med["bernoulli"] <= 1.25 * med["pmle"], (
            f"hard floor violated: ratio {ratio:.3f} > 1.25")
    assert ok or med["bernoulli"] <= 1.25 * med["pmle"]


@pytest.mark.slow
def test_criterion_10b_scenario3_direction():
    # Gaussian Scenario 3 with the dispersion shape exactly as printed
    # (a smooth bump peaking near gamma ~ 104).  Gate: PMLE within 10% of
    # dropout on median dispersion RMSE; hard floor 1.25.  See the run
    # report below when the gate fails.
    result, med, dists = _desk_run(3)
    ratio = med["pmle"] / med["bernoulli"]
    ok = med["pmle"] <= 1.10 * med["bernoulli"]
    report("criterion 10b (Scenario 3 direction, PMLE vs dropout)", ok,
           f"median disp RMSE pmle={med['pmle']:.2f}, "
           f"bernoulli={med['bernoulli']:.2f}, ratio={ratio:.3f}")
    if not ok:
        _print_distributions("Scenario 3", result, dists)
        print(
            "NOTE: with the scenario-3 dispersion curve implemented exactly as "
            "printed (max ~104 at x~0.73), the exact minimiser of the penalized "
            "summed log-likelihood follows the bump only for lambda_gamma <~ 3; "
            "at larger weights PMLE flat-fits the dispersion while CV-tuned "
            "dropout captures the bump. Check that the rectangle's weights still "
            "map into that range (tuning.PMLE_WEIGHT_UNIT) and that the PMLE "
            "fits reach the penalized minimum (tests/test_pmle.py); README "
            "'Known discrepancies' has the held-out log-likelihood table.",
            flush=True)
        assert med["pmle"] <= 1.25 * med["bernoulli"], (
            f"hard floor violated: ratio {ratio:.3f} > 1.25")


def test_criterion_11_manifest_determinism(tmp_path):
    # Every command rerun from its manifest reproduces byte-identical outputs.
    import json

    from dropglm.cli import main
    from dropglm.runio import load_json_config

    lean = {"batch_size": 20, "max_iters": 300, "avg_window": 150}
    scen = {"family": "gaussian", "disp_index": 1, "n": 50, "replicates": 1,
            "cv_samples": 1, "cv_folds": 2, "seed": 5, "optim": lean}
    scen_cfg = tmp_path / "scen.json"
    scen_cfg.write_text(json.dumps(scen))
    model_cfg = tmp_path / "model.json"
    model_cfg.write_text(json.dumps({"family": "gaussian", "phi": 0.64,
                                     "mean_knots": 6, "disp_knots": 4,
                                     "optim": lean}))

    from tests.test_cli import make_traffic_csv

    traffic_csv = tmp_path / "traffic.csv"
    make_traffic_csv(traffic_csv, days=6)
    opt_cfg = tmp_path / "opt.json"
    opt_cfg.write_text(json.dumps({"optim": lean}))

    runs = {
        "simulate": ["simulate", "--config", str(scen_cfg), "--out"],
        "scenario": ["scenario", "--config", str(scen_cfg), "--methods",
                     "bernoulli", "--out"],
    }
    assert main(["simulate", "--config", str(scen_cfg), "--out",
                 str(tmp_path / "data")]) == 0
    data_csv = tmp_path / "data" / "data.csv"
    runs["cv"] = ["cv", "--data", str(data_csv), "--config", str(model_cfg),
                  "--method", "bernoulli", "--samples", "2", "--folds", "2",
                  "--seed", "3", "--out"]
    runs["fit"] = ["fit", "--data", str(data_csv), "--config", str(model_cfg),
                   "--method", "pmle", "--params", "5,5", "--seed", "3", "--out"]
    runs["traffic"] = ["traffic", "--data", str(traffic_csv), "--sensor", "W1",
                       "--direction", "inbound", "--samples", "1", "--folds",
                       "2", "--seed", "2", "--config", str(opt_cfg), "--out"]

    for name, argv in runs.items():
        first = tmp_path / name / "first"
        again = tmp_path / name / "again"
        assert main(argv + [str(first)]) == 0, name
        assert main(["rerun", str(first / "manifest.json"), "--out",
                     str(again)]) == 0, name
        manifest = load_json_config(first / "manifest.json")
        for entry in manifest["outputs"]:
            a = (first / entry["path"]).read_bytes()
            b = (again / entry["path"]).read_bytes()
            assert a == b, f"{name}/{entry['path']} differs on rerun"
    report("criterion 11 (manifest determinism across all commands)", True)
