"""Command-line surface.

Subcommands: ``simulate`` (one scenario dataset), ``scenario`` (the full
CV + replicate protocol with result tables), ``cv`` (random-search CV on a
dataset file), ``fit`` (one fit at fixed hyperparameters), ``traffic``
(hourly traffic snapshot modelling) and ``rerun`` (re-execute a previous
run from its manifest).

Every run writes a ``manifest.json`` next to its outputs; rerunning from the
manifest reproduces every output CSV byte for byte.  Exit codes: 0 success,
2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .basis import design_matrix
from .errors import ConfigError, DataError, NumericError
from .model import SplineModel, fitted_curves
from .optim import OptimConfig
from .rngs import substream
from .runio import (
    MANIFEST_NAME,
    config_from_dict,
    load_json_config,
    read_csv,
    scenario_config_from_dict,
    sha256_file,
    write_csv,
    write_manifest,
)
from .simlab import (
    RESULT_COLUMNS,
    generate_dataset,
    method_rectangle,
    run_scenario,
)
from .traffic import fit_traffic_model, read_traffic_csv, select_series
from .tuning import CvPlan, cv_table, fit_method, random_search_cv

TRAFFIC_SCHEMA = ("input CSV columns: sensor,direction,date,hour,count "
                  "(direction inbound|outbound, date YYYY-MM-DD, hour 0..24 "
                  "where 24 wraps to 0, count a nonnegative integer)")


@dataclass(frozen=True)
class ModelConfig(SplineModel):
    """Model description for the ``cv`` and ``fit`` commands."""

    rect: tuple | None = None  # optional CV rectangle override [[lo,hi],[lo,hi]]
    optim: OptimConfig = field(default_factory=OptimConfig)

    def __post_init__(self):
        super().__post_init__()
        if self.rect is not None:
            try:
                rect = ((float(self.rect[0][0]), float(self.rect[0][1])),
                        (float(self.rect[1][0]), float(self.rect[1][1])))
            except (TypeError, IndexError, ValueError) as exc:
                raise ConfigError("model config: rect must be [[lo,hi],[lo,hi]]") from exc
            object.__setattr__(self, "rect", rect)


def _input_digest(path) -> str:
    try:
        return sha256_file(path)
    except OSError as exc:
        raise DataError(f"cannot read input {path}: {exc.strerror}") from exc


def _check_input_digest(config: dict) -> None:
    # Reruns are only reproducible against the identical input snapshot.
    recorded = config.get("data_sha256")
    if recorded and _input_digest(config["data"]) != recorded:
        raise DataError(
            f"input {config['data']} does not match the digest recorded in the "
            "manifest; outputs would not be reproducible"
        )


def _read_xy(path):
    _, header, rows = read_csv(path)
    if header != ["x", "y"]:
        raise DataError(f"{path}: expected header x,y, got {header}")
    try:
        x = np.array([float(r[0]) for r in rows])
        y = np.array([float(r[1]) for r in rows])
    except (ValueError, IndexError) as exc:
        raise DataError(f"{path}: malformed row: {exc}") from exc
    return x, y


def _outdir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ----------------------------------------------------------------- runners
# Each runner takes the resolved manifest config and the output directory,
# so `rerun` can replay any manifest.

def run_simulate(config: dict, out_dir: Path) -> list:
    scenario = scenario_config_from_dict(config["scenario"])
    replicate = int(config.get("replicate", 0))
    x, y = generate_dataset(scenario, replicate)
    write_csv(out_dir / "data.csv", ["x", "y"], np.column_stack([x, y]))
    return ["data.csv"]


def _summary_rows(result_rows):
    qs = (0.05, 0.25, 0.5, 0.75, 0.95)
    n_col, method_col, diverged_col = (RESULT_COLUMNS.index(name)
                                       for name in ("n", "method", "diverged"))
    out = []
    methods = sorted({r[method_col] for r in result_rows})
    for method in methods:
        rows = [r for r in result_rows if r[method_col] == method]
        n = rows[0][n_col]
        divergent = sum(r[diverged_col] for r in rows)
        for metric in ("rmse_mean", "rmse_disp"):
            col = RESULT_COLUMNS.index(metric)
            vals = np.array([r[col] for r in rows if not r[diverged_col]], dtype=float)
            if len(vals):
                quants = np.quantile(vals, qs)
                p95 = quants[-1]
                trunc = vals[vals <= p95]
                trunc_median = float(np.median(trunc)) if len(trunc) else float("nan")
                stats = [len(vals), divergent, float(vals.min()), *map(float, quants),
                         float(vals.max()), trunc_median]
            else:
                stats = [0, divergent] + [float("nan")] * 8
            out.append([method, n, metric, *stats])
    header = ["method", "n", "metric", "count", "divergent", "min", "q05", "q25",
              "median", "q75", "q95", "max", "median_trunc95"]
    return header, out


def run_scenario_cmd(config: dict, out_dir: Path) -> list:
    scenario = scenario_config_from_dict(config["scenario"])
    methods = list(config["methods"])
    result = run_scenario(scenario, methods)
    outputs = []

    write_csv(out_dir / "results.csv", RESULT_COLUMNS, result.rows)
    outputs.append("results.csv")

    header, rows = _summary_rows(result.rows)
    write_csv(out_dir / "summary.csv", header, rows)
    outputs.append("summary.csv")

    truth = np.column_stack([result.grid, result.truth_mean, result.truth_disp])
    write_csv(out_dir / "truth.csv", ["x", "mean_truth", "disp_truth"], truth)
    outputs.append("truth.csv")

    for method in methods:
        head, rows = cv_table(result.cv_results[method])
        name = f"cv_{method}.csv"
        write_csv(out_dir / name, head, rows)
        outputs.append(name)
    return outputs


def run_cv(config: dict, out_dir: Path) -> list:
    model = config_from_dict(ModelConfig, config["model"], "model config")
    _check_input_digest(config)
    x, y = _read_xy(config["data"])
    method = config["method"]
    rect = model.rect if model.rect is not None else method_rectangle(method)
    plan = CvPlan(rect=rect, n_samples=int(config["samples"]),
                  n_folds=int(config["folds"]), seed=int(config["seed"]))
    result = random_search_cv(model.spec(x), y, method, plan, model.optim)
    head, rows = cv_table(result)
    write_csv(out_dir / "cv.csv", head, rows)
    return ["cv.csv"]


def run_fit(config: dict, out_dir: Path) -> list:
    model = config_from_dict(ModelConfig, config["model"], "model config")
    _check_input_digest(config)
    x, y = _read_xy(config["data"])
    spec = model.spec(x)
    method = config["method"]
    params = (float(config["params"][0]), float(config["params"][1]))
    rng = substream(int(config["seed"]), "fit")
    result = fit_method(spec, y, method, params, model.optim, rng)
    if result.diverged:
        raise NumericError("fit diverged: non-finite coefficients")

    grid = np.linspace(model.lo, model.hi, 501)
    mean_basis, disp_basis = model.bases()
    mean_curve, disp_curve = fitted_curves(
        spec.kernel, design_matrix(mean_basis, grid), design_matrix(disp_basis, grid),
        result.beta, result.alpha)
    write_csv(out_dir / "curve.csv", ["x", "mean", "dispersion"],
              np.column_stack([grid, mean_curve, disp_curve]))
    coef_rows = [["mean", j, v] for j, v in enumerate(result.beta)]
    coef_rows += [["dispersion", j, v] for j, v in enumerate(result.alpha)]
    write_csv(out_dir / "coefficients.csv", ["block", "index", "value"], coef_rows)
    return ["curve.csv", "coefficients.csv"]


def run_traffic(config: dict, out_dir: Path) -> list:
    _check_input_digest(config)
    data = read_traffic_csv(config["data"])
    hours, counts = select_series(data, config["sensor"], config["direction"],
                                  summer_2019=bool(config.get("summer_2019", False)))
    optim = config_from_dict(OptimConfig, config.get("optim", {}), "optim")
    fit = fit_traffic_model(
        hours, counts, config["noise"], int(config["samples"]),
        int(config["folds"]), int(config["seed"]), optim,
        mean_knots=int(config.get("mean_knots", 24)),
        disp_knots=int(config.get("disp_knots", 12)),
    )
    write_csv(out_dir / "fitted.csv", ["hour", "mean", "dispersion"],
              np.column_stack([fit.grid, fit.mean_curve, fit.disp_curve]))
    head, rows = cv_table(fit.cv)
    write_csv(out_dir / "cv.csv", head, rows)
    return ["fitted.csv", "cv.csv"]


_RUNNERS = {
    "simulate": run_simulate,
    "scenario": run_scenario_cmd,
    "cv": run_cv,
    "fit": run_fit,
    "traffic": run_traffic,
}


def _execute(command: str, config: dict, out_dir, seed) -> int:
    out = _outdir(out_dir)
    outputs = _RUNNERS[command](config, out)
    write_manifest(out, command, config, seed, outputs)
    for name in outputs + [MANIFEST_NAME]:
        print(out / name)
    return 0


# ------------------------------------------------------------ CLI commands

def cmd_simulate(args) -> int:
    raw = load_json_config(args.config)
    if args.seed is not None:
        raw = dict(raw)
        raw["seed"] = args.seed
    scenario = scenario_config_from_dict(raw)
    config = {"scenario": dataclasses.asdict(scenario), "replicate": args.replicate}
    return _execute("simulate", config, args.out, scenario.seed)


def cmd_scenario(args) -> int:
    raw = load_json_config(args.config)
    if args.seed is not None:
        raw = dict(raw)
        raw["seed"] = args.seed
    scenario = scenario_config_from_dict(raw)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigError("no methods given; use --methods bernoulli,gaussian,pmle")
    for m in methods:
        method_rectangle(m)
    config = {"scenario": dataclasses.asdict(scenario), "methods": methods}
    return _execute("scenario", config, args.out, scenario.seed)


def _model_payload(args) -> dict:
    model = config_from_dict(ModelConfig, load_json_config(args.config), "model config")
    return {"model": dataclasses.asdict(model), "data": str(args.data),
            "data_sha256": _input_digest(args.data)}


def cmd_cv(args) -> int:
    config = _model_payload(args)
    config.update({"method": args.method, "samples": args.samples,
                   "folds": args.folds, "seed": args.seed})
    return _execute("cv", config, args.out, args.seed)


def cmd_fit(args) -> int:
    try:
        p1, p2 = (float(v) for v in args.params.split(","))
    except ValueError as exc:
        raise ConfigError(f"--params must be 'p1,p2', got {args.params!r}") from exc
    config = _model_payload(args)
    config.update({"method": args.method, "params": [p1, p2], "seed": args.seed})
    return _execute("fit", config, args.out, args.seed)


def cmd_traffic(args) -> int:
    raw = load_json_config(args.config).get("optim", {}) if args.config else {}
    optim = config_from_dict(OptimConfig, raw, "optim")
    config = {
        "data": str(args.data),
        "data_sha256": _input_digest(args.data),
        "sensor": args.sensor,
        "direction": args.direction,
        "noise": args.noise,
        "samples": args.samples,
        "folds": args.folds,
        "seed": args.seed,
        "summer_2019": bool(args.summer_2019),
        "mean_knots": args.mean_knots,
        "disp_knots": args.disp_knots,
        "optim": dataclasses.asdict(optim),
    }
    return _execute("traffic", config, args.out, args.seed)


class _ManifestConfig(dict):
    """A manifest's config; a key its runner needs but lacks is a
    configuration error, not a KeyError."""

    def __missing__(self, key):
        raise ConfigError(f"manifest config lacks the key {key!r}")


def cmd_rerun(args) -> int:
    manifest = load_json_config(args.manifest)
    command = manifest.get("command")
    if command not in _RUNNERS:
        raise ConfigError(f"manifest names unknown command {command!r}")
    config = manifest.get("config")
    if not isinstance(config, dict):
        raise ConfigError(f"{args.manifest}: config must be a JSON object")
    return _execute(command, _ManifestConfig(config), args.out, manifest.get("seed"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dropglm",
        description="Extended GLMs on double exponential families with "
                    "dropout regularization.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate one scenario dataset CSV")
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--replicate", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scenario", help="run the CV + replicates protocol")
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--methods", required=True,
                   help="comma list from bernoulli,gaussian,pmle")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("cv", help="random-search CV on a dataset file")
    p.add_argument("--data", required=True, help="dataset CSV with header x,y")
    p.add_argument("--config", required=True, help="model config JSON")
    p.add_argument("--method", required=True,
                   choices=["bernoulli", "gaussian", "pmle"])
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("fit", help="single fit at fixed hyperparameters")
    p.add_argument("--data", required=True, help="dataset CSV with header x,y")
    p.add_argument("--config", required=True, help="model config JSON")
    p.add_argument("--method", required=True,
                   choices=["bernoulli", "gaussian", "pmle"])
    p.add_argument("--params", required=True, help="hyperparameter pair 'p1,p2'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("traffic", help="cyclic double-Poisson fit of hourly "
                                       "traffic counts", epilog=TRAFFIC_SCHEMA)
    p.add_argument("--data", required=True, help=TRAFFIC_SCHEMA)
    p.add_argument("--sensor", required=True)
    p.add_argument("--direction", required=True, choices=["inbound", "outbound"])
    p.add_argument("--noise", default="bernoulli", choices=["bernoulli", "gaussian"])
    p.add_argument("--samples", type=int, default=5000,
                   help="CV sample count (5000 in the full workflow)")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--summer-2019", action="store_true", dest="summer_2019",
                   help="keep only June-August 2019 rows")
    p.add_argument("--mean-knots", type=int, default=24)
    p.add_argument("--disp-knots", type=int, default=12)
    p.add_argument("--config", default=None,
                   help="optional JSON with an 'optim' section")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_traffic)

    p = sub.add_parser("rerun", help="re-execute a run from its manifest")
    p.add_argument("manifest", help="path to a manifest.json")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rerun)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
