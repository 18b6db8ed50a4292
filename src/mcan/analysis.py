"""Sliding same-slot Pearson correlations between road pairs under the speed,
trend, and deviation measurements, emitted as plot-ready tables.

For two roads with unequal sampling intervals the correlations are computed
only at wall-clock times both roads observe; a constant window makes the
Pearson coefficient undefined and is reported as missing, never as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graphdata as gd
from .errors import ConfigError, MissingDataError

MEASUREMENTS = ("speed", "trend", "deviation")


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


def same_slot_series(values, t: int, window_days: int, slots_per_day: int) -> np.ndarray:
    """Values at ``t, t - spd, ..., t - window_days * spd`` (length d + 1)."""
    if window_days < 0:
        raise ConfigError(f"window_days must be >= 0, got {window_days}")
    if t - window_days * slots_per_day < 0:
        raise MissingDataError(
            f"same_slot_series at t={t} needs {window_days} previous days"
        )
    idx = t - np.arange(window_days + 1) * slots_per_day
    return np.asarray(values[idx], dtype=np.float64)


def pearson(a, b) -> float | None:
    """Sample Pearson correlation; None when either vector is constant."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise ConfigError(f"pearson needs two equal-length vectors (>= 2), got {a.shape}, {b.shape}")
    da = a - a.mean()
    db = b - b.mean()
    norm = math.sqrt(float(da @ da) * float(db @ db))
    if norm == 0.0:
        return None
    return float(np.clip((da @ db) / norm, -1.0, 1.0))


@dataclass
class CorrelationSeries:
    """Per-time-slot correlation curve for one road pair and one measurement."""

    road_a: int
    road_b: int
    measurement: str
    time_slots: np.ndarray  # wall-clock minutes
    values: list[float | None]


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
    prepared = {
        m: (_measurement_series(series_a, spd_a, m), _measurement_series(series_b, spd_b, m))
        for m in measurements
    }
    report = []
    for m in measurements:
        ma, mb = prepared[m]
        values: list[float | None] = []
        for wall in walls:
            ta = int(wall) // interval_a
            tb = int(wall) // interval_b
            vec_a = same_slot_series(ma, ta, window_days, spd_a)
            vec_b = same_slot_series(mb, tb, window_days, spd_b)
            if np.isnan(vec_a).any() or np.isnan(vec_b).any():
                values.append(None)
            else:
                values.append(pearson(vec_a, vec_b))
        report.append(CorrelationSeries(
            road_a=series_a.road_id, road_b=series_b.road_id,
            measurement=m, time_slots=walls.copy(), values=values,
        ))
    return report


def dominant_measurement_shares(report: list[CorrelationSeries]) -> dict[str, float]:
    """Fraction of time slots where each measurement has the largest absolute
    correlation (slots where every measurement is undefined are skipped)."""
    if not report:
        raise ConfigError("empty correlation report")
    slots = len(report[0].time_slots)
    wins = {series.measurement: 0 for series in report}
    counted = 0
    for k in range(slots):
        best = None
        best_value = -1.0
        for series in report:
            v = series.values[k]
            if v is not None and abs(v) > best_value:
                best = series.measurement
                best_value = abs(v)
        if best is not None:
            wins[best] += 1
            counted += 1
    if counted == 0:
        return {m: 0.0 for m in wins}
    return {m: count / counted for m, count in wins.items()}


def write_correlation_table(path, report: list[CorrelationSeries]) -> None:
    """Rows ``time_slot, measurement, correlation``; undefined entries are empty."""
    lines = ["time_slot,measurement,correlation"]
    for series in report:
        for wall, value in zip(series.time_slots, series.values):
            text = "" if value is None else repr(value)
            lines.append(f"{int(wall)},{series.measurement},{text}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
