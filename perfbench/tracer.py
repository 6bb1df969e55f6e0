"""In-memory span tracer that wraps dropglm's layer functions from outside.

Every layer function is replaced in each ``dropglm`` module namespace that
holds a reference to it (the defining module and every module that bound
the name through ``from ... import``), so calls are seen whichever binding
the caller uses.  Methods are replaced on their class.  The program itself
is not edited.

Each wrapper opens a span at entry and closes it at exit.  A span's self
time is its duration minus the time covered by the spans it caused.  Spans
are aggregated per layer in memory (calls, seconds, self seconds) as they
close.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# (layer, defining module, attribute); "Class.method" wraps a method.
LAYERS = (
    ("cli", "dropglm.cli", "main"),
    ("optim.fit", "dropglm.optim", "fit"),
    ("optim.adadelta_step", "dropglm.optim", "adadelta_step"),
    ("dropout.NoiseSpec.draw", "dropglm.dropout", "NoiseSpec.draw"),
    ("pmle.DiffPenalty.gradient", "dropglm.pmle", "DiffPenalty.gradient"),
    ("pmle.pmle_fit", "dropglm.pmle", "pmle_fit"),
    ("families.def_sample_each", "dropglm.families", "def_sample_each"),
    ("simlab.generate_dataset", "dropglm.simlab", "generate_dataset"),
    ("simlab.run_scenario", "dropglm.simlab", "run_scenario"),
    ("tuning.random_search_cv", "dropglm.tuning", "random_search_cv"),
    ("tuning.fit_method", "dropglm.tuning", "fit_method"),
    ("model.loglik", "dropglm.model", "loglik"),
    ("basis.design_matrix", "dropglm.basis", "design_matrix"),
    ("traffic.read_traffic_csv", "dropglm.traffic", "read_traffic_csv"),
    ("traffic.select_series", "dropglm.traffic", "select_series"),
    ("traffic.fit_traffic_model", "dropglm.traffic", "fit_traffic_model"),
    ("runio.write_csv", "dropglm.runio", "write_csv"),
    ("runio.write_manifest", "dropglm.runio", "write_manifest"),
    ("runio.sha256_file", "dropglm.runio", "sha256_file"),
)

def _fit_counts(counts, args, kwargs, result):
    counts["optim.fit.iters"] += result.n_iter
    counts["optim.fit.stationary"] += result.termination == "stationary"
    counts["optim.fit.rejected_steps"] += result.rejected_steps
    counts["optim.fit.diverged"] += bool(result.diverged)


def _sampled_obs(counts, args, kwargs, result):
    counts["families.def_sample_each.obs"] += len(result)


def _loglik_rows(counts, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    counts["model.loglik.rows"] += spec.n


def _design_rows(counts, args, kwargs, result):
    counts["basis.design_matrix.rows"] += result.shape[0]


def _read_counts(counts, args, kwargs, result):
    counts["traffic.read_traffic_csv.rows"] += len(result.records)
    counts["traffic.read_traffic_csv.rejected"] += result.rejected


def _csv_bytes(counts, args, kwargs, result):
    counts["runio.write_csv.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


# Work counted at the layer boundary, from the call's arguments or result.
HOOKS = {
    "optim.fit": _fit_counts,
    "families.def_sample_each": _sampled_obs,
    "model.loglik": _loglik_rows,
    "basis.design_matrix": _design_rows,
    "traffic.read_traffic_csv": _read_counts,
    "runio.write_csv": _csv_bytes,
}


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # layer -> [calls, s, self_s]
        self.counts = defaultdict(float)
        self.site_calls: dict[str, int] = {}
        self._stack: list = []  # time covered by each open span's children
        self._undo: list = []

    # ------------------------------------------------------------ install
    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("dropglm.") and mod is not None}
        for layer, module_name, attr in LAYERS:
            module = modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                site = f"{module_name[8:]}.{attr}"
                self._replace(cls, method, self._wrap(layer, site, original), original)
                continue
            original = getattr(module, attr)
            for name, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        site = f"{name[8:]}.{key}"
                        self._replace(mod, key, self._wrap(layer, site, original),
                                      original)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _replace(self, owner, key, wrapper, original) -> None:
        self.site_calls.setdefault(wrapper.site, 0)
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def _wrap(self, layer, site, fn):
        stat = self.stats[layer]
        hook = HOOKS.get(layer)
        stack = self._stack
        site_calls = self.site_calls
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - children
                site_calls[site] += 1
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        wrapper.site = site
        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ results
    def calls(self, layer) -> int:
        return self.stats[layer][0] if layer in self.stats else 0

    def unfired(self, expected_sites) -> list:
        """Sites predicted to fire that are not installed or never fired."""
        return sorted(s for s in expected_sites if self.site_calls.get(s, 0) == 0)

    def metrics(self) -> dict:
        s = {layer: self.stats[layer] for layer, _, _ in LAYERS}
        c = self.counts
        fit_calls, fit_s, _ = s["optim.fit"]
        iters = c["optim.fit.iters"]
        obs = c["families.def_sample_each.obs"]
        return {
            "optim.fit.calls": fit_calls,
            "optim.fit.s": fit_s,
            "optim.fit.self_s": s["optim.fit"][2],
            "optim.fit.iters": iters,
            "optim.fit.us_per_iter": 1e6 * fit_s / iters if iters else 0.0,
            "optim.fit.stationary_frac":
                c["optim.fit.stationary"] / fit_calls if fit_calls else 0.0,
            "optim.fit.rejected_steps": c["optim.fit.rejected_steps"],
            "optim.fit.diverged": c["optim.fit.diverged"],
            "optim.adadelta_step.calls": s["optim.adadelta_step"][0],
            "optim.adadelta_step.s": s["optim.adadelta_step"][1],
            "dropout.NoiseSpec.draw.calls": s["dropout.NoiseSpec.draw"][0],
            "dropout.NoiseSpec.draw.s": s["dropout.NoiseSpec.draw"][1],
            "pmle.DiffPenalty.gradient.calls": s["pmle.DiffPenalty.gradient"][0],
            "pmle.DiffPenalty.gradient.s": s["pmle.DiffPenalty.gradient"][1],
            "pmle.pmle_fit.calls": s["pmle.pmle_fit"][0],
            "families.def_sample_each.s": s["families.def_sample_each"][1],
            "families.def_sample_each.obs": obs,
            "families.def_sample_each.us_per_obs":
                1e6 * s["families.def_sample_each"][1] / obs if obs else 0.0,
            "simlab.generate_dataset.calls": s["simlab.generate_dataset"][0],
            "simlab.generate_dataset.s": s["simlab.generate_dataset"][1],
            "simlab.run_scenario.self_s": s["simlab.run_scenario"][2],
            "tuning.random_search_cv.s": s["tuning.random_search_cv"][1],
            "tuning.random_search_cv.self_s": s["tuning.random_search_cv"][2],
            "tuning.fit_method.calls": s["tuning.fit_method"][0],
            "model.loglik.calls": s["model.loglik"][0],
            "model.loglik.rows": c["model.loglik.rows"],
            "model.loglik.s": s["model.loglik"][1],
            "basis.design_matrix.calls": s["basis.design_matrix"][0],
            "basis.design_matrix.rows": c["basis.design_matrix.rows"],
            "basis.design_matrix.s": s["basis.design_matrix"][1],
            "traffic.read_traffic_csv.s": s["traffic.read_traffic_csv"][1],
            "traffic.read_traffic_csv.rows": c["traffic.read_traffic_csv.rows"],
            "traffic.read_traffic_csv.rejected": c["traffic.read_traffic_csv.rejected"],
            "traffic.select_series.s": s["traffic.select_series"][1],
            "traffic.fit_traffic_model.self_s": s["traffic.fit_traffic_model"][2],
            "runio.write_csv.s": s["runio.write_csv"][1],
            "runio.write_csv.bytes": c["runio.write_csv.bytes"],
            "runio.write_manifest.s": s["runio.write_manifest"][1],
            "runio.sha256_file.s": s["runio.sha256_file"][1],
            "cli.self_s": s["cli"][2],
        }

