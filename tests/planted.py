"""The planted pair: two roads whose dominant correlation measurement is
known by construction, the data criterion 8 and the correlation tests read."""

from __future__ import annotations

import numpy as np

from mcan.graphdata import MINUTES_PER_DAY, SpeedSeries


def generate_planted_pair(
    seed: int,
    days: int = 40,
    interval: int = 5,
    speed_factor_scale: float = 3.0,
    trend_factor_scale: float = 2.0,
    noise: float = 1.0,
) -> tuple[SpeedSeries, SpeedSeries, int]:
    """Two same-frequency roads whose speed correlation dominates in the first
    half of the day and whose trend correlation dominates (negatively) in the
    second half.  Returns (series_a, series_b, slots_per_day).

    Construction: a shared per-day factor drives same-sign speed offsets on a
    flat profile in region one, and a second shared per-day factor drives
    opposite-sign alternating increments in region two, so the cross-day
    Pearson correlation is strong in speed or in trend depending on the slot.
    """
    rng = np.random.default_rng(seed)
    slots_per_day = MINUTES_PER_DAY // interval
    half = slots_per_day // 2
    g_speed = rng.standard_normal(days) * speed_factor_scale
    g_trend = rng.standard_normal(days) * trend_factor_scale

    speed_profile = np.zeros(slots_per_day)
    speed_profile[:half] = 1.0
    pattern = np.zeros(slots_per_day)
    pattern[half:] = np.where(np.arange(slots_per_day - half) % 2 == 0, 1.0, -1.0)
    cum_a = np.concatenate([[0.0], np.cumsum(pattern)])[:-1]
    cum_b = np.concatenate([[0.0], np.cumsum(-pattern)])[:-1]

    base = 40.0
    values_a = np.empty(days * slots_per_day)
    values_b = np.empty(days * slots_per_day)
    for d in range(days):
        sl = slice(d * slots_per_day, (d + 1) * slots_per_day)
        values_a[sl] = base + g_speed[d] * speed_profile + g_trend[d] * cum_a
        values_b[sl] = base + g_speed[d] * speed_profile + g_trend[d] * cum_b
    values_a += rng.standard_normal(len(values_a)) * noise
    values_b += rng.standard_normal(len(values_b)) * noise
    values_a = np.maximum(values_a, 0.0)
    values_b = np.maximum(values_b, 0.0)
    return (
        SpeedSeries(road_id=0, values=values_a),
        SpeedSeries(road_id=1, values=values_b),
        slots_per_day,
    )
