"""Hourly traffic-count ingestion and the cyclic double-Poisson model.

Input snapshot schema (CSV with a header row):

    sensor,direction,date,hour,count

with ``direction`` in {inbound, outbound}, ``date`` as literal YYYY-MM-DD,
``hour`` an integer 0-24 (24 wraps to 0) and ``count`` a nonnegative
integer, both written in ASCII digits only (no sign, ``_`` or other
scripts' digits; surrounding whitespace is allowed).  Malformed rows and
duplicate (sensor, direction, date, hour) keys are rejected and counted.
Counts are modelled as a double Poisson over hour-of-day with cyclic
B-spline expansions for the mean and the dispersion; the dropout parameters
come from random-search CV over [0,1]^2 (Bernoulli) or [0,2]^2 (Gaussian
noise).
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass
from typing import NamedTuple

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


class TrafficRecord(NamedTuple):
    sensor: str
    direction: str
    date: datetime.date
    hour: int  # 0..23 after ingestion
    count: int


@dataclass(frozen=True)
class TrafficData:
    records: list
    rejected: int

    def keys(self):
        return sorted({(r.sensor, r.direction) for r in self.records})


def read_traffic_csv(path) -> TrafficData:
    """Parse a snapshot in one pass over ``runio.read_rows`` (so ``#`` lines
    and blank lines are left out); bad rows and repeated keys are counted in
    ``rejected``, and fields past the required columns are allowed."""
    records = []
    seen = set()
    rejected = 0
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
    dates = {}  # each distinct date cell is parsed once
    for row in rows:
        if len(row) < width:
            rejected += 1
            continue
        direction = row[i_direction].strip().lower()
        try:
            cell = row[i_date].strip()
            date = dates.get(cell)
            if date is None:
                date = dates[cell] = _iso_date(cell)
            hour = _digits(row[i_hour])
            count = _digits(row[i_count])
        except ValueError:
            rejected += 1
            continue
        if direction not in DIRECTIONS or hour > 24:
            rejected += 1
            continue
        rec = TrafficRecord(row[i_sensor].strip(), direction, date, hour % 24, count)
        key = rec[:4]
        if key in seen:
            rejected += 1
            continue
        seen.add(key)
        records.append(rec)
    return TrafficData(records=records, rejected=rejected)


def _iso_date(cell: str) -> datetime.date:
    if not _DATE.fullmatch(cell):
        raise ValueError(f"not a YYYY-MM-DD date: {cell!r}")
    return datetime.date.fromisoformat(cell)


def _digits(cell: str) -> int:
    """A nonnegative integer written in ASCII digits, whitespace around."""
    cell = cell.strip()
    if not (cell.isascii() and cell.isdigit()):
        raise ValueError(f"not a nonnegative integer: {cell!r}")
    return int(cell)


def select_series(data: TrafficData, sensor: str, direction: str,
                  summer_2019: bool = False):
    """(hours, counts) for one sensor/direction, optionally June-August 2019."""
    keys = data.keys()
    if (sensor, direction) not in keys:
        raise DataError(
            f"no data for sensor={sensor!r} direction={direction!r}; "
            f"available: {keys}"
        )
    rows = [r for r in data.records if r.sensor == sensor and r.direction == direction]
    if summer_2019:
        rows = [r for r in rows
                if r.date.year == 2019 and r.date.month in (6, 7, 8)]
        if not rows:
            raise DataError(f"no summer-2019 rows for {sensor}/{direction}")
    hours = np.array([r.hour for r in rows], dtype=float)
    counts = np.array([r.count for r in rows], dtype=float)
    return hours, counts


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
