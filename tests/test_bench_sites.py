"""Every binding site the benchmark expects to fire is still bound and fires
on a miniature call of its workload, every layer does work on exactly the
workloads predicted, every work-counting hook of the tracer reads what its
layer returns, and each workload's first full-size call passes its checks.

The benchmark's tracer wraps a layer's function wherever a ``dropglm``
module holds it under some name, and a ``--trace 1`` run fails if an
expected site ``module.name`` never fires.  A refactor that drops such an
import or calls through another module fails here first.  Its hooks count
work from a layer call's arguments and result; a refactor that drops a
field a hook reads (``FitResult.termination``, say) also fails here first.
"""

import importlib
import json
import os
import sys
from collections import defaultdict
from pathlib import Path
from unittest import mock

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# run.py sets BLAS thread variables at import; keep them out of this process.
with mock.patch.dict(os.environ), mock.patch.object(sys, "path",
                                                    [str(PERFBENCH), *sys.path]):
    from run import BUSY_LAYERS, EXPECTED_SITES, manifest_problems
    from tracer import HOOKS, LAYERS, Tracer
    from workloads import WORKLOADS


def resolve(module_name: str, attr: str):
    """The object ``attr`` (possibly ``Class.method``) names in a module."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[name]


LAYER_FUNCTIONS = [resolve(module, attr) for _, module, attr in LAYERS]


@pytest.mark.parametrize("workload,site", sorted(
    (workload, site) for workload, sites in EXPECTED_SITES.items() for site in sites))
def test_site_resolves_to_a_layer_function(workload, site):
    module, attr = site.split(".", 1)
    bound = resolve(f"dropglm.{module}", attr)
    assert any(bound is fn for fn in LAYER_FUNCTIONS), (
        f"{workload}: {site} is not bound to any traced layer's function")


def miniature_argv(tmp_path, workload):
    """A small CLI call shaped like the workload's benchmark calls."""
    optim = {"batch_size": 10, "max_iters": 20, "avg_window": 10}
    config = tmp_path / "config.json"
    if workload == "traffic-summer":
        data = tmp_path / "traffic.csv"
        data.write_text("sensor,direction,date,hour,count\n" + "".join(
            f"W1,inbound,2019-07-{d:02d},{h},{60 + 90 * (h in (8, 17)) + (d + h) % 11}\n"
            for d in range(1, 4) for h in range(24)))
        config.write_text(json.dumps({"optim": optim}))
        return ["traffic", "--data", str(data), "--sensor", "W1", "--direction",
                "inbound", "--samples", "1", "--folds", "2", "--summer-2019",
                "--mean-knots", "6", "--disp-knots", "4", "--config", str(config)]
    if workload == "simulate-counts":
        config.write_text(json.dumps({"family": "dpoisson", "disp_index": 2, "n": 50}))
        return ["simulate", "--config", str(config), "--replicate", "1"]
    config.write_text(json.dumps({"family": "gaussian", "n": 40, "replicates": 1,
                                  "cv_samples": 1, "cv_folds": 2, "mean_knots": 6,
                                  "disp_knots": 4, "optim": optim}))
    return ["scenario", "--config", str(config), "--methods", "bernoulli,gaussian,pmle"]


@pytest.mark.parametrize("workload", sorted(BUSY_LAYERS))
def test_miniature_call_fires_the_predicted_sites_and_layers(tmp_path, workload):
    from dropglm import cli

    argv = miniature_argv(tmp_path, workload)
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main([*argv, "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.unfired(EXPECTED_SITES[workload]) == []
    busy = {layer for layer, _, _ in LAYERS if tracer.calls(layer) > 0}
    assert busy == BUSY_LAYERS[workload]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_benchmark_call_passes_its_checks(tmp_path, name):
    # The workload's own call 0 at full size, checked as the benchmark checks
    # it, so a renamed config key, output column or check fails here first.
    from dropglm import cli

    workload = WORKLOADS[name](0, tmp_path)
    assert getattr(workload, "setup_problems", []) == []
    out = tmp_path / "out"
    assert cli.main(workload.argv(0, out)) == 0
    assert manifest_problems(out) == []
    problems, units, divergent = workload.check(0, out)
    assert problems == [] and units > 0 and divergent == 0


def hook_calls(tmp_path):
    """One small real call per hooked layer, as (args, kwargs)."""
    import numpy as np

    from dropglm import families as fam
    from dropglm.basis import SplineBasis
    from dropglm.dropout import NoiseSpec
    from dropglm.optim import OptimConfig
    from dropglm.simlab import ScenarioConfig, generate_dataset

    scenario = ScenarioConfig(family="gaussian", n=40, mean_knots=6, disp_knots=4)
    x, y = generate_dataset(scenario, 0)
    spec = scenario.model.spec(x)
    snapshot = tmp_path / "traffic.csv"
    snapshot.write_text("sensor,direction,date,hour,count\n"
                        "W1,inbound,2019-07-01,8,250\nW1,inbound,2019-07-01,x,5\n")
    return {
        "optim.fit": ((spec, y, NoiseSpec("bernoulli", 0.2, 0.2),
                       OptimConfig(batch_size=10, max_iters=5),
                       np.random.default_rng(0)), {}),
        "families.def_sample_each": ((fam.PoissonKernel(), np.zeros(3), np.ones(3),
                                      np.random.default_rng(0)), {}),
        "model.loglik": ((spec, y), {}),
        "basis.design_matrix": ((SplineBasis(0.0, 1.0, 6), x), {}),
        "traffic.read_traffic_csv": ((snapshot,), {}),
        "runio.write_csv": ((tmp_path / "out.csv", ["a"], [[1.0]]), {}),
    }


@pytest.mark.parametrize("layer", sorted(HOOKS))
def test_hook_reads_a_real_result_of_its_layer(tmp_path, layer):
    calls = hook_calls(tmp_path)
    assert set(calls) == set(HOOKS)
    module, attr = next((m, a) for name, m, a in LAYERS if name == layer)
    args, kwargs = calls[layer]
    result = resolve(module, attr)(*args, **kwargs)
    counts = defaultdict(float)
    HOOKS[layer](counts, args, kwargs, result)
    assert counts and all(key.startswith(layer + ".") for key in counts)
    assert any(counts.values())
