"""Sliding same-slot Pearson correlations between road pairs under the speed,
trend, and deviation measurements, emitted as plot-ready tables.

For two roads with unequal sampling intervals the correlations are computed
only at wall-clock times both roads observe.  Each measurement's curve is one
gather of every shared time's same-slot window, ``(walls, window_days + 1)``
per road, and one row-wise Pearson coefficient over it, taken in blocks of
:data:`WALL_BLOCK` times.  A constant window makes the coefficient undefined:
it is ``nan`` in the curve and an empty cell in the table, never zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graphdata as gd
from .errors import ConfigError, MissingDataError

MEASUREMENTS = ("speed", "trend", "deviation")
WALL_BLOCK = 4096  # shared times per gather, so memory does not grow with the span


def check_request(measurements, window_days: int, wall_range: tuple[int, int | None] | None = None,
                  span: int | None = None) -> list[str]:
    """``measurements`` as a list, or a ConfigError naming the key that
    cannot give a table: no measurement, an unknown or repeated one, a
    window of fewer than one previous day (one point has no correlation), or
    a ``wall_range`` of minutes ``[wall_start, wall_end)`` that starts below 0,
    is empty, ends past the data's ``span`` of minutes, or ends before the
    first minute with ``window_days`` days of history.  A ``wall_end`` of
    None means the end of ``span``; a ``span`` of None is not checked."""
    measurements = list(measurements)
    if window_days < 1:
        raise ConfigError(f"window_days must be >= 1, got {window_days}")
    if wall_range is not None:
        start, end = wall_range
        if start < 0:
            raise ConfigError(f"wall_start must be >= 0, got {start}")
        stop = span if end is None else end
        if stop is not None and start >= stop:
            raise ConfigError(f"wall_start {start} must be below wall_end {stop}")
        if end is not None and span is not None and end > span:
            raise ConfigError(f"wall_end {end} is past the data span of {span} minutes")
        first = window_days * gd.MINUTES_PER_DAY
        if end is not None and end <= first:
            raise ConfigError(f"wall_end {end} ends before any minute with window_days={window_days} "
                              f"days of history: the first is minute {first}")
    if not measurements:
        raise ConfigError("measurements must name at least one measurement")
    for k, m in enumerate(measurements):
        if m not in MEASUREMENTS:
            raise ConfigError(f"unknown measurement {m!r} in measurements; valid: {MEASUREMENTS}")
        if m in measurements[:k]:
            raise ConfigError(f"measurements lists {m!r} twice")
    return measurements


def pearson_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sample Pearson coefficient of each row of ``a`` with the same row
    of ``b`` (two ``(R, n)`` arrays); nan where either row is constant or holds
    a nan.  Each row's three sums are the dot products a one-row coefficient
    takes, so every value is that coefficient bit for bit."""
    da, db = (x - x.mean(axis=1, keepdims=True) for x in (a, b))
    aa, bb, ab = (np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0] for x, y in ((da, da), (db, db), (da, db)))
    norm = np.sqrt(aa * bb)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.clip(ab / norm, -1.0, 1.0)
    r[norm == 0.0] = np.nan
    return r


@dataclass
class CorrelationSeries:
    """Per-time-slot correlation curve for one road pair and one measurement."""

    road_a: int
    road_b: int
    measurement: str
    time_slots: np.ndarray  # wall-clock minutes
    values: np.ndarray  # float64, nan where undefined


def _measurement_series(series: gd.SpeedSeries, slots_per_day: int, measurement: str) -> np.ndarray:
    """The measurement at every index of ``series``, gathered by
    :func:`graphdata.channel_window` (nan at index 0 for trend)."""
    values = series.values
    first = 1 if measurement == "trend" else 0
    average = gd.compute_daily_average(values, slots_per_day) if measurement == "deviation" else None
    out = np.full(len(values), np.nan)
    out[first:] = gd.channel_window(values, average, np.arange(first, len(values)), measurement)
    return out


def multifold_correlation_report(
    series_a: gd.SpeedSeries,
    series_b: gd.SpeedSeries,
    interval_a: int,
    interval_b: int,
    measurements,
    window_days: int,
    wall_range: tuple[int, int | None] | None = None,
) -> list[CorrelationSeries]:
    """One correlation curve per measurement over the shared wall-clock slots.

    ``wall_range`` restricts the curve to minutes [lo, hi), inside the span
    both series cover, with an ``hi`` of None meaning the end of that span;
    by default every slot with enough history contributes.
    """
    span = min(len(series_a) * interval_a, len(series_b) * interval_b)
    measurements = check_request(measurements, window_days, wall_range, span)
    stride = math.lcm(interval_a, interval_b)
    spd_a = gd.MINUTES_PER_DAY // interval_a
    spd_b = gd.MINUTES_PER_DAY // interval_b
    first = window_days * gd.MINUTES_PER_DAY
    if span <= first:
        raise MissingDataError(f"the data span of {span} minutes ends before any minute with "
                               f"window_days={window_days} days of history: the first is minute {first}")
    start, end = wall_range or (0, None)
    end = span if end is None else end
    walls = np.arange(-(-max(first, start) // stride) * stride, end, stride)
    if len(walls) == 0:  # start is past first, and no shared slot lies before end
        raise ConfigError(f"wall_start {start} to wall_end {end} holds no minute that is a multiple of "
                          f"{stride}, the shared stride of the two roads' sampling intervals")
    lags = np.arange(window_days + 1) * gd.MINUTES_PER_DAY
    report = []
    for m in measurements:
        ma = _measurement_series(series_a, spd_a, m)
        mb = _measurement_series(series_b, spd_b, m)
        values = np.empty(len(walls))
        for lo in range(0, len(walls), WALL_BLOCK):
            minutes = walls[lo:lo + WALL_BLOCK, None] - lags  # same slot, 0..window_days days back
            values[lo:lo + WALL_BLOCK] = pearson_rows(ma[minutes // interval_a], mb[minutes // interval_b])
        report.append(CorrelationSeries(series_a.road_id, series_b.road_id, m, walls.copy(), values))
    return report


def dominant_measurement_shares(report: list[CorrelationSeries]) -> dict[str, float]:
    """Fraction of time slots where each measurement has the largest absolute
    correlation, the first listed winning a tie (slots where every measurement
    is undefined are skipped)."""
    if not report:
        raise ConfigError("empty correlation report")
    magnitude = np.abs([series.values for series in report])
    defined = ~np.isnan(magnitude).all(axis=0)
    best = np.argmax(np.nan_to_num(magnitude, nan=-1.0), axis=0)[defined]
    wins = np.bincount(best, minlength=len(report)).tolist()
    return {series.measurement: count / max(len(best), 1) for series, count in zip(report, wins)}


def write_correlation_table(path, report: list[CorrelationSeries]) -> None:
    """Rows ``time_slot, measurement, correlation``; undefined entries are empty."""
    lines = ["time_slot,measurement,correlation"]
    for series in report:
        for wall, value in zip(series.time_slots.tolist(), series.values.tolist()):
            lines.append(f"{wall},{series.measurement}," + ("" if math.isnan(value) else repr(value)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
