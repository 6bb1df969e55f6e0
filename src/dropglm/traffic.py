"""Hourly traffic-count ingestion and the cyclic double-Poisson model.

Input snapshot schema (CSV with a header row):

    sensor,direction,date,hour,count

with ``direction`` in {inbound, outbound}, ``date`` as literal YYYY-MM-DD,
``hour`` an integer 0-24 (24 wraps to 0) and ``count`` a nonnegative
integer, both written in ASCII digits only (no sign, ``_`` or other
scripts' digits; surrounding whitespace is allowed).  Malformed rows and
repeats of a (sensor, direction, date, hour) key, whose first row is kept,
are rejected and counted.  Accepted rows are held as columns, 25 bytes a
row (``RECORD``), where a NamedTuple and a key tuple a row took ~345.
Counts are modelled as a double Poisson over hour-of-day with cyclic
B-spline expansions for the mean and the dispersion; the dropout parameters
come from random-search CV over [0,1]^2 (Bernoulli) or [0,2]^2 (Gaussian
noise).
"""

from __future__ import annotations

import datetime
import re
from array import array
from dataclasses import dataclass

import numpy as np

from .basis import design_matrix
from .errors import ConfigError, DataError, NumericError
from .model import SplineModel, fitted_curves
from .optim import OptimConfig
from .rngs import substream
from .runio import read_rows
from .tuning import CvPlan, CvResult, fit_method, random_search_cv

DIRECTIONS = ("inbound", "outbound")
TRAFFIC_RECTS = {"bernoulli": ((0.0, 1.0), (0.0, 1.0)),
                 "gaussian": ((0.0, 2.0), (0.0, 2.0))}
HOUR_GRID = np.linspace(0.0, 24.0, 241)
# Only this form: date.fromisoformat also reads 20190702 and 2019-W27-3
# from Python 3.11 on.
_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_ORDINALS = datetime.date.max.toordinal() + 1  # key: (series * this + date) * 24 + hour
_DAY0 = datetime.date(1970, 1, 1).toordinal()  # datetime64[D] zero
RECORD = np.dtype([("series", np.int64), ("date", "datetime64[D]"),
                   ("hour", np.int8), ("count", np.float64)])


@dataclass(frozen=True)
class TrafficData:
    series: tuple  # (sensor, direction) pairs, indexed by records["series"]
    records: np.ndarray  # RECORD rows in file order
    rejected: int

    def keys(self):
        return sorted(self.series)


class _Cells(dict):
    """Each distinct cell parsed once; a cell outside the schema maps to None."""

    def __init__(self, parse):
        self.parse = parse

    def __missing__(self, cell):
        try:
            self[cell] = self.parse(cell)
        except (ValueError, OverflowError):  # a count past float64's range
            self[cell] = None
        return self[cell]


def read_traffic_csv(path) -> TrafficData:
    """Parse a snapshot in one pass over ``runio.read_rows`` (so ``#`` lines
    and blank lines are left out); bad rows and repeated keys are counted in
    ``rejected``, and fields past the required columns are allowed."""
    rows = read_rows(path)
    header = next(rows)
    required = ("sensor", "direction", "date", "hour", "count")
    if not set(required) <= set(header):
        raise DataError(
            f"{path}: traffic snapshot needs columns {sorted(required)}, got {header}")
    # A repeated column name reads its last occurrence.
    column = {name: i for i, name in enumerate(header)}
    indices = [column[c] for c in required]
    i_sensor, i_direction, i_date, i_hour, i_count = indices
    width = 1 + max(indices)
    pairs, dates = _Cells(_series), _Cells(_ordinal)
    hours, counts = _Cells(lambda c: _digits(c, 24) % 24), _Cells(lambda c: float(_digits(c)))
    series = {}  # (sensor, direction) -> index, in order of first acceptance
    keys, values, n = array("q"), array("d"), 0  # n: data rows read
    for n, row in enumerate(rows, 1):
        if len(row) < width:
            continue
        pair = pairs[row[i_sensor], row[i_direction]]
        date = dates[row[i_date]]
        hour = hours[row[i_hour]]
        count = counts[row[i_count]]
        if not (pair is None or date is None or hour is None or count is None):
            keys.append((series.setdefault(pair, len(series)) * _ORDINALS + date) * 24 + hour)
            values.append(count)
    first = np.sort(np.unique(keys, return_index=True)[1])  # a repeated key's first row
    key = np.frombuffer(keys, dtype=np.int64)[first]
    records = np.empty(len(first), dtype=RECORD)
    records["series"], day = np.divmod(key // 24, _ORDINALS)
    records["date"], records["hour"] = day - _DAY0, key % 24
    records["count"] = np.frombuffer(values)[first]
    return TrafficData(tuple(series), records, n - len(first))


def _series(cells) -> tuple:
    direction = cells[1].strip().lower()
    if direction not in DIRECTIONS:
        raise ValueError(f"not a direction: {direction!r}")
    return cells[0].strip(), direction


def _ordinal(cell: str) -> int:
    cell = cell.strip()
    if not _DATE.fullmatch(cell):
        raise ValueError(f"not a YYYY-MM-DD date: {cell!r}")
    return datetime.date.fromisoformat(cell).toordinal()


def _digits(cell: str, most=float("inf")) -> int:
    """A nonnegative integer up to ``most``, in ASCII digits, whitespace around."""
    cell = cell.strip()
    if not (cell.isascii() and cell.isdigit() and int(cell) <= most):
        raise ValueError(f"not a nonnegative integer up to {most}: {cell!r}")
    return int(cell)


def select_series(data: TrafficData, sensor: str, direction: str,
                  summer_2019: bool = False):
    """(hours, counts) for one sensor/direction in file order, optionally
    June-August 2019."""
    if (sensor, direction) not in data.series:
        raise DataError(
            f"no data for sensor={sensor!r} direction={direction!r}; "
            f"available: {data.keys()}"
        )
    dates = data.records["date"]
    rows = data.records["series"] == data.series.index((sensor, direction))
    if summer_2019:
        rows &= (dates >= np.datetime64("2019-06-01")) & (dates < np.datetime64("2019-09-01"))
        if not rows.any():
            raise DataError(f"no summer-2019 rows for {sensor}/{direction}")
    return data.records["hour"][rows].astype(float), data.records["count"][rows]


@dataclass(frozen=True)
class TrafficFit:
    cv: CvResult
    grid: np.ndarray
    mean_curve: np.ndarray
    disp_curve: np.ndarray


def fit_traffic_model(hours, counts, noise_kind: str, cv_samples: int,
                      cv_folds: int, seed: int, optim: OptimConfig,
                      mean_knots: int, disp_knots: int) -> TrafficFit:
    if noise_kind not in TRAFFIC_RECTS:
        raise ConfigError(f"traffic noise kind must be one of {sorted(TRAFFIC_RECTS)}")
    hours = np.asarray(hours, dtype=float) % 24.0
    counts = np.asarray(counts, dtype=float)
    if len(hours) < cv_folds:
        raise DataError(f"need at least {cv_folds} observations, got {len(hours)}")

    model = SplineModel("dpoisson", mean_knots=mean_knots, disp_knots=disp_knots,
                        lo=0.0, hi=24.0, boundary="cyclic")
    spec = model.spec(hours)

    plan = CvPlan(rect=TRAFFIC_RECTS[noise_kind], n_samples=cv_samples,
                  n_folds=cv_folds, seed=seed)
    cv = random_search_cv(spec, counts, noise_kind, plan, optim)
    final = fit_method(spec, counts, noise_kind, cv.selected_params, optim,
                       substream(seed, "final-fit"))
    if final.diverged:
        raise NumericError("final fit diverged: non-finite coefficients or no step taken")

    mean_basis, disp_basis = model.bases()
    mean_curve, disp_curve = fitted_curves(
        spec.kernel, design_matrix(mean_basis, HOUR_GRID),
        design_matrix(disp_basis, HOUR_GRID), final.beta, final.alpha)
    return TrafficFit(cv=cv, grid=HOUR_GRID, mean_curve=mean_curve,
                      disp_curve=disp_curve)
