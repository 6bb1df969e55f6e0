"""Command-line surface.

Subcommands: ``simulate`` (one scenario dataset), ``scenario`` (the full
CV + replicate protocol with result tables), ``cv`` (random-search CV on a
dataset file), ``fit`` (one fit at fixed hyperparameters), ``traffic``
(hourly traffic snapshot modelling) and ``rerun`` (re-execute a previous
run from its manifest).

Each command turns its flags into its manifest config (``rerun`` reads it),
``_execute`` alone builds the run type (``COMMANDS``) from it and writes the
run's output tables with a ``manifest.json`` into ``--out``; a run that fails
leaves no ``--out`` behind.  Rerunning reproduces every output CSV byte for
byte.  Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DataError, NumericError
from .model import SplineModel, fitted_curves
from .optim import OptimConfig
from .rngs import substream
from .runio import (
    MANIFEST_NAME,
    config_from_dict,
    load_json_config,
    read_rows,
    sha256_file,
    write_csv,
    write_manifest,
)
from .simlab import (
    RESULT_COLUMNS,
    ScenarioConfig,
    generate_dataset,
    run_scenario,
)
from .traffic import (DIRECTIONS, TRAFFIC_RECTS, fit_traffic_model, read_traffic_csv,
                      select_series)
from .tuning import METHODS, RECTANGLES, CvPlan, cv_table, fit_method, random_search_cv

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
                (lo1, hi1), (lo2, hi2) = self.rect
            except (TypeError, ValueError) as exc:
                raise ConfigError("'rect' must be [[lo,hi],[lo,hi]]") from exc
            # JSON numbers only, as runio.config_from_dict takes for a float field.
            if any(type(v) not in (int, float) for v in (lo1, hi1, lo2, hi2)):
                raise ConfigError(f"'rect' entries must be JSON numbers, got {self.rect!r}")
            object.__setattr__(self, "rect", ((float(lo1), float(hi1)),
                                              (float(lo2), float(hi2))))


def _input_digest(path) -> str:
    try:
        return sha256_file(path)
    except OSError as exc:
        raise DataError(f"cannot read input {path}: {exc.strerror}") from exc


def _number(cell: str) -> float:
    """float() of an ASCII CSV cell, less the Python literal's ``_`` separators
    and the digits of other scripts that float() also reads."""
    if "_" in cell or not cell.isascii():
        raise ValueError(f"could not convert string to float: {cell!r}")
    return float(cell)


def _read_xy(path):
    header, *rows = read_rows(path)
    if header != ["x", "y"]:
        raise DataError(f"{path}: expected header x,y, got {header}")
    if not rows:
        raise DataError(f"{path}: no data rows")
    try:  # unpacking rejects a row with more or fewer cells than the header
        x = np.array([_number(v) for v, _ in rows])
        y = np.array([_number(v) for _, v in rows])
    except ValueError as exc:
        raise DataError(f"{path}: malformed row, expected the two cells x,y: {exc}") from exc
    return x, y


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


# -------------------------------------------------------------------- runs
# Each command's manifest config, built only by `_execute`, with
# `config_from_dict`.  `tables()` computes the run's output tables, {file
# name: (header, rows)} in output order, and touches no file; `_execute`
# writes them.  `seed` is the manifest seed.

class _Run:
    """Seeds and replicate indices, where a run has them, are nonnegative."""

    def __post_init__(self):
        for name in ("seed", "replicate"):
            if getattr(self, name, 0) < 0:
                raise ConfigError(f"{name!r} must be nonnegative, got {getattr(self, name)}")


@dataclass(frozen=True)
class SimulateRun(_Run):
    scenario: ScenarioConfig
    replicate: int = 0

    seed = property(lambda self: self.scenario.seed)

    def tables(self) -> dict:
        x, y = generate_dataset(self.scenario, self.replicate)
        return {"data.csv": (["x", "y"], np.column_stack([x, y]))}


@dataclass(frozen=True)
class ScenarioRun:
    scenario: ScenarioConfig
    methods: list

    seed = property(lambda self: self.scenario.seed)

    def __post_init__(self):
        methods = self.methods
        if not methods or any(m not in METHODS or methods.count(m) > 1 for m in methods):
            raise ConfigError(f"'methods' must list distinct methods from {METHODS}, "
                              f"got {methods}")

    def tables(self) -> dict:
        result = run_scenario(self.scenario, self.methods)
        truth = np.column_stack([result.grid, result.truth_mean, result.truth_disp])
        return {"results.csv": (RESULT_COLUMNS, result.rows),
                "summary.csv": _summary_rows(result.rows),
                "truth.csv": (["x", "mean_truth", "disp_truth"], truth),
                **{f"cv_{m}.csv": cv_table(result.cv_results[m]) for m in self.methods}}


@dataclass(frozen=True, kw_only=True)
class _InputRun(_Run):
    data: str
    seed: int
    data_sha256: str = ""

    def input_path(self) -> Path:
        """The input file; reruns are only reproducible against the identical
        input snapshot, so a recorded digest must still match."""
        path = Path(self.data)
        if self.data_sha256 and _input_digest(path) != self.data_sha256:
            raise DataError(
                f"input {path} does not match the digest recorded in the "
                "manifest; outputs would not be reproducible"
            )
        return path


@dataclass(frozen=True, kw_only=True)
class _ModelRun(_InputRun):
    model: ModelConfig
    method: str

    def __post_init__(self):
        super().__post_init__()
        if self.method not in METHODS:
            raise ConfigError(f"'method' must be one of {METHODS}, got {self.method!r}")


@dataclass(frozen=True, kw_only=True)
class CvRun(_ModelRun):
    samples: int
    folds: int

    def tables(self) -> dict:
        model = self.model
        rect = model.rect if model.rect is not None else RECTANGLES[self.method]
        plan = CvPlan(rect=rect, n_samples=self.samples, n_folds=self.folds,
                      seed=self.seed)
        x, y = _read_xy(self.input_path())
        result = random_search_cv(model.spec(x), y, self.method, plan, model.optim)
        return {"cv.csv": cv_table(result)}


@dataclass(frozen=True, kw_only=True)
class FitRun(_ModelRun):
    params: tuple

    def __post_init__(self):
        super().__post_init__()
        if type(self.params) not in (list, tuple) or len(self.params) != 2 or any(
                type(p) not in (int, float) for p in self.params):
            raise ConfigError(f"'params' must be a pair of numbers, got {self.params!r}")
        object.__setattr__(self, "params", tuple(map(float, self.params)))

    def tables(self) -> dict:
        model = self.model
        x, y = _read_xy(self.input_path())
        spec = model.spec(x)
        result = fit_method(spec, y, self.method, self.params, model.optim,
                            substream(self.seed, "fit"))
        if result.diverged:
            raise NumericError("fit diverged: non-finite coefficients or no step taken")

        grid = np.linspace(model.lo, model.hi, 501)
        curves = model.spec(grid)
        mean_curve, disp_curve = fitted_curves(spec.kernel, curves.X, curves.Z,
                                               result.beta, result.alpha)
        coef_rows = [["mean", j, v] for j, v in enumerate(result.beta)]
        coef_rows += [["dispersion", j, v] for j, v in enumerate(result.alpha)]
        return {"curve.csv": (["x", "mean", "dispersion"],
                              np.column_stack([grid, mean_curve, disp_curve])),
                "coefficients.csv": (["block", "index", "value"], coef_rows)}


@dataclass(frozen=True, kw_only=True)
class TrafficRun(_InputRun):
    sensor: str
    direction: str
    noise: str
    samples: int
    folds: int
    summer_2019: bool = False
    mean_knots: int = 24
    disp_knots: int = 12
    optim: OptimConfig = field(default_factory=OptimConfig)

    def __post_init__(self):
        super().__post_init__()
        for name, allowed in (("direction", DIRECTIONS), ("noise", tuple(TRAFFIC_RECTS))):
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name!r} must be one of {allowed}, "
                                  f"got {getattr(self, name)!r}")

    def tables(self) -> dict:
        hours, counts = select_series(read_traffic_csv(self.input_path()), self.sensor,
                                      self.direction, summer_2019=self.summer_2019)
        fit = fit_traffic_model(hours, counts, self.noise, self.samples, self.folds,
                                self.seed, self.optim, self.mean_knots, self.disp_knots)
        fitted = np.column_stack([fit.grid, fit.mean_curve, fit.disp_curve])
        return {"fitted.csv": (["hour", "mean", "dispersion"], fitted),
                "cv.csv": cv_table(fit.cv)}


COMMANDS = {"simulate": SimulateRun, "scenario": ScenarioRun, "cv": CvRun,
            "fit": FitRun, "traffic": TrafficRun}


def _execute(command: str, config, out_dir, context: str | None = None) -> int:
    """Build the run from its manifest ``config``, create ``out_dir``, compute
    the run's tables and write them with the manifest.  A run that fails
    leaves no file this call wrote and no directory it created."""
    if not isinstance(command, str) or command not in COMMANDS:
        raise ConfigError(f"manifest names unknown command {command!r}")
    run = config_from_dict(COMMANDS[command], config, context or f"{command} config")
    out = Path(out_dir)
    created = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create --out directory {out}: {exc.strerror}") from exc
    try:
        tables = run.tables()
    except BaseException:
        for d in created:
            d.rmdir()
        raise
    written = []  # each file this call opens for writing, in order
    try:
        for name, (header, rows) in tables.items():
            written.append(out / name)
            write_csv(out / name, header, rows)
        written.append(out / MANIFEST_NAME)
        write_manifest(out, command, dataclasses.asdict(run), run.seed, list(tables))
    except OSError as exc:
        failed = written.pop()
        if exc.filename is None:  # opened, so truncated, before the write failed
            written.append(failed)
        for path in written:
            path.unlink()
        for d in created:
            d.rmdir()
        raise ConfigError(f"cannot write output {failed}: {exc.strerror}") from exc
    for name in [*tables, MANIFEST_NAME]:
        print(out / name)
    return 0


# ------------------------------------------------------------ CLI commands

def _scenario(args) -> dict:
    raw = load_json_config(args.config)
    return raw if args.seed is None else dict(raw, seed=args.seed)


def cmd_simulate(args) -> int:
    return _execute("simulate", {"scenario": _scenario(args), "replicate": args.replicate},
                    args.out)


def cmd_scenario(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    return _execute("scenario", {"scenario": _scenario(args), "methods": methods}, args.out)


def _model_config(args, **flags) -> dict:
    return {"model": load_json_config(args.config), "data": str(args.data),
            "data_sha256": _input_digest(args.data), "method": args.method,
            "seed": args.seed, **flags}


def cmd_cv(args) -> int:
    return _execute("cv", _model_config(args, samples=args.samples, folds=args.folds),
                    args.out)


def cmd_fit(args) -> int:
    try:
        p1, p2 = (float(v) for v in args.params.split(","))
    except ValueError as exc:
        raise ConfigError(f"--params must be 'p1,p2', got {args.params!r}") from exc
    return _execute("fit", _model_config(args, params=[p1, p2]), args.out)


def cmd_traffic(args) -> int:
    raw = load_json_config(args.config) if args.config else {}
    unknown = sorted(set(raw) - {"optim"})
    if unknown:
        raise ConfigError(f"{args.config}: unknown keys {unknown}; allowed: ['optim']")
    return _execute("traffic", {
        "data": str(args.data), "data_sha256": _input_digest(args.data),
        "sensor": args.sensor, "direction": args.direction, "noise": args.noise,
        "samples": args.samples, "folds": args.folds, "seed": args.seed,
        "summer_2019": args.summer_2019, "mean_knots": args.mean_knots,
        "disp_knots": args.disp_knots, "optim": raw.get("optim", {})}, args.out)


def cmd_rerun(args) -> int:
    manifest = load_json_config(args.manifest)
    return _execute(manifest.get("command"), manifest.get("config"), args.out,
                    f"{args.manifest}: config")


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
                   help=f"comma list from {','.join(METHODS)}")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("cv", help="random-search CV on a dataset file")
    p.add_argument("--data", required=True, help="dataset CSV with header x,y")
    p.add_argument("--config", required=True, help="model config JSON")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("fit", help="single fit at fixed hyperparameters")
    p.add_argument("--data", required=True, help="dataset CSV with header x,y")
    p.add_argument("--config", required=True, help="model config JSON")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--params", required=True, help="hyperparameter pair 'p1,p2'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("traffic", help="cyclic double-Poisson fit of hourly "
                                       "traffic counts", epilog=TRAFFIC_SCHEMA)
    p.add_argument("--data", required=True, help=TRAFFIC_SCHEMA)
    p.add_argument("--sensor", required=True)
    p.add_argument("--direction", required=True, choices=DIRECTIONS)
    p.add_argument("--noise", default="bernoulli", choices=sorted(TRAFFIC_RECTS))
    p.add_argument("--samples", type=int, default=5000,
                   help="CV sample count (5000 in the full workflow)")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--summer-2019", action="store_true", dest="summer_2019",
                   help="keep only June-August 2019 rows")
    p.add_argument("--mean-knots", type=int, default=TrafficRun.mean_knots)
    p.add_argument("--disp-knots", type=int, default=TrafficRun.disp_knots)
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
