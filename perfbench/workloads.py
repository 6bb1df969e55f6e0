"""The benchmark's workloads: inputs, CLI calls and output checks.

Each workload makes its inputs from the workload seed before any timer
starts, then makes CLI calls ``argv(i)`` for i = 0, 1, 2, ...  Call i is a
pure function of (workload seed, i), so a call can be repeated and its
output digests compared.  ``check`` reads a call's outputs, returns the
problems found and the work the call completed.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
from pathlib import Path

import numpy as np

DESK_OPTIM = {"batch_size": 30, "max_iters": 5000, "avg_window": 2500}
METHODS = ("bernoulli", "gaussian", "pmle")


def read_table(path):
    """(header, rows) of an output CSV, skipping leading comment lines."""
    with open(path, newline="", encoding="utf-8") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def column(header, rows, name, cast=float):
    j = header.index(name)
    return [cast(r[j]) for r in rows]


def program_seed(seed: int, i: int) -> int:
    return (seed * 100_003 + i) % 2**31


def cv_problems(path, label):
    """(fits, divergent folds, problems, selected mean loglik) of a CV table."""
    header, rows = read_table(path)
    folds = [header.index(h) for h in header if h.startswith("fold_loglik_")]
    flags = column(header, rows, "selected_flag", int)
    means = column(header, rows, "mean_loglik")
    divergent = sum(float(r[j]) == -math.inf for r in rows for j in folds)
    if sum(flags) != 1:
        return len(rows) * len(folds), divergent, [
            f"{label}: {sum(flags)} rows selected, expected 1"], None
    best = means[flags.index(1)]
    problems = [] if best == max(means) else [
        f"{label}: selected row is not the best mean held-out loglik"]
    return len(rows) * len(folds), divergent, problems, best


class DeskGaussian:
    """The scenario protocol at desk scale: gaussian data, g1, n=250."""

    name = "desk-gaussian"
    unit = "fits"
    cv_samples, cv_folds, replicates = 2, 3, 2

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.config = work / "scenario.json"
        self.config.write_text(json.dumps({
            "family": "gaussian", "disp_index": 1, "n": 250,
            "replicates": self.replicates, "cv_samples": self.cv_samples,
            "cv_folds": self.cv_folds, "seed": 0, "optim": DESK_OPTIM,
        }))
        self.quality: dict = {}

    def argv(self, i, out):
        return ["scenario", "--config", str(self.config), "--methods", ",".join(METHODS),
                "--seed", str(program_seed(self.seed, i)), "--out", str(out)]

    def check(self, i, out):
        header, rows = read_table(out / "results.csv")
        problems = []
        if len(rows) != len(METHODS) * self.replicates:
            problems.append(f"results.csv has {len(rows)} rows, expected "
                            f"{len(METHODS) * self.replicates}")
        fits = len(rows)
        divergent = sum(column(header, rows, "diverged", int))
        for method in METHODS:
            n_fits, n_div, found, _ = cv_problems(out / f"cv_{method}.csv",
                                                  f"cv_{method}.csv")
            fits += n_fits
            divergent += n_div
            problems += found
            if n_fits != self.cv_samples * self.cv_folds:
                problems.append(f"cv_{method}.csv has {n_fits} fits")
            kept = [r for r in rows if r[header.index("method")] == method
                    and r[header.index("diverged")] == "0"]
            for metric in ("rmse_mean", "rmse_disp"):
                vals = [float(r[header.index(metric)]) for r in kept]
                if not all(math.isfinite(v) for v in vals):
                    problems.append(f"non-finite {metric} for {method}")
                if i == 0 and vals:
                    self.quality[f"{metric}_median.{method}"] = float(np.median(vals))
        return problems, fits, divergent

    def report(self):
        return self.quality


class SimulateCounts:
    """Repeated ``simulate`` calls: dpoisson/g2 and dbinomial/g3, n=1000."""

    name = "simulate-counts"
    unit = "datasets"
    n = 1000
    trials = 70
    moment_checked_calls = 8  # exact moments cost ~0.5 s per dpoisson dataset

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.configs = []
        for family, disp in (("dpoisson", 2), ("dbinomial", 3)):
            path = work / f"{family}.json"
            path.write_text(json.dumps({"family": family, "disp_index": disp,
                                        "n": self.n, "trials": self.trials,
                                        "seed": 0}))
            self.configs.append(path)
        self.pooled = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]  # per family: sum y, mean, var
        self.z: dict = {}

    def argv(self, i, out):
        return ["simulate", "--config", str(self.configs[i % 2]),
                "--seed", str(program_seed(self.seed, 0)), "--replicate", str(i),
                "--out", str(out)]

    def check(self, i, out):
        header, rows = read_table(out / "data.csv")
        if header != ["x", "y"] or len(rows) != self.n:
            return [f"data.csv: header {header}, {len(rows)} rows"], 1, 0
        x = np.array(column(header, rows, "x"))
        y = np.array(column(header, rows, "y"))
        hi = self.trials if i % 2 else np.inf
        problems = []
        if not (np.all((x >= 0) & (x <= 1)) and np.all((y >= 0) & (y <= hi))
                and np.all(y == np.floor(y))):
            problems.append("data.csv: x outside [0,1] or y outside the support")
        elif i < self.moment_checked_calls:
            pooled = self.pooled[i % 2]
            pooled[0] += float(y.sum())
            for k, value in enumerate(self._exact_moments(i, x)):
                pooled[k + 1] += value
            if i + 2 >= self.moment_checked_calls:
                z = (pooled[0] - pooled[1]) / math.sqrt(pooled[2])
                self.z[f"moment_z.{self.configs[i % 2].stem}"] = z
                if abs(z) > 5.0:
                    problems.append(f"pooled sample mean is {z:.2f} standard errors "
                                    "from the exact DEF mean")
        return problems, 1, 0

    def _exact_moments(self, i, x):
        """Sum of the exact DEF means and variances at the dataset's x."""
        from dropglm import families
        from dropglm.runio import load_json_config, scenario_config_from_dict

        config = scenario_config_from_dict(load_json_config(self.configs[i % 2]))
        kernel = config.kernel()
        theta = kernel.mean_to_theta(config.mean_function(x))
        gamma = config.disp_function(x)
        mean = var = 0.0
        for t, g in zip(theta, gamma):
            m, v = families.def_moments(
                kernel, families.DefParams(theta=float(t), gamma=float(g),
                                           phi=config.phi))
            mean += m
            var += v
        return mean, var

    def report(self):
        return self.z


# Snapshot shape: two sensors, two directions, every hour of 2019.
SENSORS = ("W1", "W2")
DIRECTIONS = ("inbound", "outbound")
PEAKS = (8.0, 17.5)
MALFORMED = 37
DUPLICATES = 23
SUMMER_ROWS = 92 * 24


def mean_curve(hour, weights):
    """Bimodal daily profile with peaks at PEAKS (cyclic in the hour)."""
    out = 15.0
    for peak, width, weight in zip(PEAKS, (1.3, 1.8), weights):
        d = np.abs(hour - peak)
        d = np.minimum(d, 24.0 - d)
        out = out + weight * np.exp(-0.5 * (d / width) ** 2)
    return out


def write_snapshot(path: Path, rng: np.random.Generator) -> None:
    """35,040 valid rows plus MALFORMED bad rows and DUPLICATES repeated keys."""
    days = [datetime.date(2019, 1, 1) + datetime.timedelta(d) for d in range(365)]
    dates = [d.isoformat() for d in days]
    hours = np.arange(24)
    lines = []
    for sensor in SENSORS:
        for k, direction in enumerate(DIRECTIONS):
            weights = (160.0, 90.0) if k == 0 else (90.0, 170.0)
            mu = rng.uniform(0.8, 1.2) * mean_curve(hours, weights)
            size = 25.0
            counts = rng.negative_binomial(size, size / (size + mu), (len(days), 24))
            for d, date in enumerate(dates):
                for h in range(24):
                    lines.append(f"{sensor},{direction},{date},{h},{counts[d, h]}")
    bad = [
        "W1,sideways,2019-03-04,5,12", "W2,inbound,2019-13-01,5,12",
        "W1,outbound,2019-02-30,5,12", "W2,outbound,2019-04-04,25,12",
        "W1,inbound,2019-04-04,x,12", "W2,inbound,2019-04-04,6,-3",
        "W1,outbound,2019-04-04,7,3.5", "W2,outbound,2019-04-04,7,",
        "W1,inbound,2019-05-05",
    ]
    for j in range(MALFORMED):
        lines.insert(int(rng.integers(len(lines) + 1)), bad[j % len(bad)])
    valid = [ln for ln in lines if ln not in bad]
    for j in rng.choice(len(valid), DUPLICATES, replace=False):
        sensor, direction, date, hour, count = valid[j].split(",")
        lines.append(f"{sensor},{direction},{date},{hour},{int(count) + 1}")
    path.write_text("sensor,direction,date,hour,count\n" + "\n".join(lines) + "\n")


class TrafficSummer:
    """``traffic --summer-2019`` on a generated snapshot, cycling over series."""

    name = "traffic-summer"
    unit = "fits"
    cv_samples, cv_folds = 2, 5

    def __init__(self, seed: int, work: Path):
        from dropglm.traffic import read_traffic_csv, select_series

        self.seed = seed
        self.data = work / "traffic.csv"
        write_snapshot(self.data, np.random.default_rng([seed, 2019]))
        self.optim = work / "optim.json"
        self.optim.write_text(json.dumps({"optim": DESK_OPTIM}))
        self.series = [(s, d) for s in SENSORS for d in DIRECTIONS]
        self.quality: dict = {}
        snapshot = read_traffic_csv(self.data)
        self.setup_problems = []
        if snapshot.rejected != MALFORMED + DUPLICATES:
            self.setup_problems.append(f"reader rejected {snapshot.rejected} rows, "
                                       f"injected {MALFORMED + DUPLICATES}")
        hours, _ = select_series(snapshot, "W1", "inbound", summer_2019=True)
        if len(hours) != SUMMER_ROWS:
            self.setup_problems.append(f"summer filter kept {len(hours)} rows")

    def argv(self, i, out):
        sensor, direction = self.series[i % len(self.series)]
        return ["traffic", "--data", str(self.data), "--sensor", sensor,
                "--direction", direction, "--noise", "bernoulli",
                "--samples", str(self.cv_samples), "--folds", str(self.cv_folds),
                "--seed", str(program_seed(self.seed, i)), "--summer-2019",
                "--mean-knots", "24", "--disp-knots", "12",
                "--config", str(self.optim), "--out", str(out)]

    def check(self, i, out):
        fits, divergent, problems, best = cv_problems(out / "cv.csv", "cv.csv")
        if best is not None and i == 0:
            self.quality["cv_best_heldout_loglik"] = best
        header, rows = read_table(out / "fitted.csv")
        hour = np.array(column(header, rows, "hour"))
        mean = np.array(column(header, rows, "mean"))
        if not np.all(np.isfinite(mean)):
            return problems + ["fitted.csv: non-finite mean curve"], fits + 1, divergent + 1
        for peak in PEAKS:
            window = np.abs(hour - peak) <= 3.0
            found = hour[window][np.argmax(mean[window])]
            if abs(found - peak) > 1.0:
                problems.append(f"fitted mean peaks at {found:.1f} h, expected "
                                f"{peak} +- 1 h")
        return problems, fits + 1, divergent

    def report(self):
        return self.quality


WORKLOADS = {w.name: w for w in (DeskGaussian, SimulateCounts, TrafficSummer)}
