"""Tests for the row-wise Pearson coefficient, the multi-fold report and its
per-slot oracle."""

import math
from datetime import timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planted
import reference
from mcan import analysis as an
from mcan import graphdata as gd
from mcan.errors import ConfigError, MissingDataError


def coefficient(a, b) -> float:
    """``an.pearson_rows`` of two vectors taken as one row each."""
    return float(an.pearson_rows(np.array([a], dtype=np.float64), np.array([b], dtype=np.float64))[0])


class TestSameSlotSeries:
    # the oracle's gather, which the report's (walls - lags) // interval must reproduce
    def test_degenerate_window_is_singleton(self):
        values = np.arange(10.0)
        assert np.array_equal(reference.same_slot_series(values, 7, 0, 4), [7.0])

    def test_periodic_data_gives_constant_vector(self):
        profile = np.array([3.0, 9.0, 5.0, 7.0])
        values = np.tile(profile, 6)
        out = reference.same_slot_series(values, 21, 4, 4)
        assert np.all(out == values[21])

    def test_index_arithmetic(self):
        values = np.arange(100.0)
        out = reference.same_slot_series(values, 9, 2, 4)
        assert np.array_equal(out, [9.0, 5.0, 1.0])

    def test_insufficient_history_rejected(self):
        with pytest.raises(MissingDataError):
            reference.same_slot_series(np.arange(10.0), 5, 2, 4)


class TestPearsonRows:
    def test_self_correlation_is_one(self):
        a = np.array([1.0, 2.0, 5.0])
        assert coefficient(a, a) == pytest.approx(1.0)

    def test_negation_gives_minus_one(self):
        a = np.array([1.0, 2.0, 5.0])
        assert coefficient(a, -a) == pytest.approx(-1.0)

    def test_hand_computed_half(self):
        assert coefficient([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5)

    def test_constant_vector_is_undefined(self):
        assert np.isnan(coefficient([2.0, 2.0, 2.0], [1.0, 3.0, 2.0]))
        assert np.isnan(coefficient([1.0, 3.0, 2.0], [2.0, 2.0, 2.0]))

    def test_nan_entry_is_undefined(self):
        assert np.isnan(coefficient([np.nan, 3.0, 2.0], [1.0, 3.0, 2.0]))

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(20, 6))
        b = rng.normal(size=(20, 6))
        r = an.pearson_rows(a, b)
        assert an.pearson_rows(b, a) == pytest.approx(r, abs=1e-12)
        scale, shift = rng.uniform(0.1, 5.0, size=(20, 1)), rng.normal(size=(20, 1))
        assert an.pearson_rows(scale * a + shift, b) == pytest.approx(r, abs=1e-12)

    def test_bounds(self):
        r = an.pearson_rows(*np.random.default_rng(7).normal(size=(2, 50, 4)))
        assert np.all((-1.0 <= r) & (r <= 1.0))

    def test_oracle_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            reference.pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_each_row_is_the_one_pair_coefficient(self):
        a, b = np.random.default_rng(3).normal(size=(2, 30, 5))
        rows = an.pearson_rows(a, b)
        assert [float(r) for r in rows] == [reference.pearson(x, y) for x, y in zip(a, b)]


class TestReport:
    def test_identical_roads_speed_correlation_one(self):
        rng = np.random.default_rng(9)
        values = np.tile(rng.uniform(10, 50, size=24), 10) + rng.normal(size=240) * 2.0
        values = np.maximum(values, 0.0)
        a = gd.SpeedSeries(road_id=0, values=values)
        b = gd.SpeedSeries(road_id=1, values=values.copy())
        report = an.multifold_correlation_report(a, b, 60, 60, ["speed"], window_days=3)
        assert len(report) == 1
        for v in report[0].values:
            assert v == pytest.approx(1.0)

    def test_single_measurement_single_series(self):
        a, b, _ = planted.generate_planted_pair(seed=3, days=12)
        report = an.multifold_correlation_report(a, b, 5, 5, ["speed"], window_days=5)
        assert len(report) == 1
        assert report[0].measurement == "speed"

    def test_planted_pair_signs(self):
        # region one is built speed-correlated (+), region two trend-anticorrelated (-)
        a, b, spd = planted.generate_planted_pair(seed=11, days=40)
        report = an.multifold_correlation_report(a, b, 5, 5, ["speed", "trend"],
                                                 window_days=30)
        speed, trend = report
        slots = (speed.time_slots // 5) % spd
        half = spd // 2
        first_region = slots < half
        second_region = ~first_region
        assert np.nanmedian(speed.values[first_region]) > 0.6
        assert np.nanmedian(trend.values[second_region]) < -0.6

    def test_both_regimes_occur(self):
        a, b, _ = planted.generate_planted_pair(seed=13, days=40)
        report = an.multifold_correlation_report(a, b, 5, 5, ["speed", "trend"],
                                                 window_days=30)
        shares = an.dominant_measurement_shares(report)
        assert shares["speed"] >= 0.2
        assert shares["trend"] >= 0.2

    def test_values_stay_in_unit_interval(self):
        a, b, _ = planted.generate_planted_pair(seed=17, days=20)
        report = an.multifold_correlation_report(a, b, 5, 5, list(an.MEASUREMENTS),
                                                 window_days=10)
        for series in report:
            defined = series.values[~np.isnan(series.values)]
            assert np.all((-1.0 <= defined) & (defined <= 1.0))

    def test_unequal_intervals_use_shared_slots(self):
        config = gd.GeneratorConfig(n_roads=2, edge_density=1.0, intervals=(10, 15),
                                    days=20, noise=1.0, obs_noise=0.5)
        dataset = gd.generate_synthetic(config, seed=19)
        a, b = dataset.series
        ia = dataset.graph.nodes[0].interval_minutes
        ib = dataset.graph.nodes[1].interval_minutes
        report = an.multifold_correlation_report(a, b, ia, ib, ["speed"], window_days=7)
        assert np.all(report[0].time_slots % 30 == 0)  # lcm(10, 15)

    def test_no_overlap_rejected(self):
        # a wall range that ends before the first minute with enough history
        a, b, _ = planted.generate_planted_pair(seed=21, days=3)
        with pytest.raises(ConfigError, match="wall_end 100 .*window_days=3 .*the first is minute 4320"):
            an.multifold_correlation_report(a, b, 5, 5, ["speed"], window_days=3,
                                            wall_range=(0, 100))

    def test_span_without_enough_history_rejected(self):
        a, b, _ = planted.generate_planted_pair(seed=21, days=3)
        with pytest.raises(MissingDataError, match="span of 4320 minutes .*window_days=3 .*minute 4320"):
            an.multifold_correlation_report(a, b, 5, 5, ["speed"], window_days=3)

    def test_range_between_shared_slots_rejected(self):
        # 10- and 15-minute roads share the minutes that are multiples of 30
        a = gd.SpeedSeries(road_id=0, values=np.arange(3 * 144.0))
        b = gd.SpeedSeries(road_id=1, values=np.arange(3 * 96.0))
        with pytest.raises(ConfigError, match="wall_start 1441 to wall_end 1469 .* multiple of 30"):
            an.multifold_correlation_report(a, b, 10, 15, ["speed"], window_days=1,
                                            wall_range=(1441, 1469))
        report = an.multifold_correlation_report(a, b, 10, 15, ["speed"], window_days=1,
                                                 wall_range=(1441, 1471))
        assert report[0].time_slots.tolist() == [1470]

    def test_undefined_written_as_empty_field(self, tmp_path):
        values = np.tile(np.array([5.0, 5.0]), 12)  # constant: undefined everywhere
        a = gd.SpeedSeries(road_id=0, values=values)
        b = gd.SpeedSeries(road_id=1, values=values.copy())
        report = an.multifold_correlation_report(a, b, 720, 720, ["speed"], window_days=2)
        assert np.isnan(report[0].values).all()
        path = tmp_path / "corr.csv"
        an.write_correlation_table(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_slot,measurement,correlation"
        assert all(line.endswith(",speed,") for line in lines[1:])


def assert_matches_oracle(report, oracle):
    """The program's curves equal the per-slot loop's: the same slots, nan
    exactly where the loop gives None, and every other value bit for bit."""
    assert [s.measurement for s in report] == [s.measurement for s in oracle]
    for series, expected in zip(report, oracle):
        assert series.time_slots.tobytes() == expected.time_slots.tobytes()
        undefined = np.array([v is None for v in expected.values], dtype=bool)
        assert np.isnan(series.values).tolist() == undefined.tolist()
        defined = np.array([v for v in expected.values if v is not None], dtype=np.float64)
        assert series.values[~undefined].tobytes() == defined.tobytes()
    assert an.dominant_measurement_shares(report) == reference.dominant_measurement_shares(oracle)


def planted_road(rng, interval: int, days: int, periodic, constant) -> np.ndarray:
    """``days`` of uniform speeds at ``interval`` minutes on a half-km/h grid;
    the slots ``periodic`` (fractions of a day) of every day repeat one
    profile, and the index range ``constant`` (fractions of the series)
    holds one speed."""
    spd = gd.MINUTES_PER_DAY // interval
    values = np.round(rng.uniform(10.0, 60.0, size=(days, spd)) * 2.0) / 2.0
    lo, hi = (int(f * spd) for f in periodic)
    values[:, lo:hi] = values[0, lo:hi]
    values = values.ravel()
    lo, hi = (int(f * len(values)) for f in constant)
    values[lo:hi] = 33.0
    return values


@st.composite
def correlation_requests(draw):
    """Arguments of ``multifold_correlation_report``: two planted roads at
    drawn intervals, with whole days past ``window_days``, sometimes the same
    road twice, an optional wall range holding a shared slot, and one to
    three measurements in any order."""
    intervals = st.sampled_from([5, 10, 15, 30, 60])
    window_days = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fractions = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted)
    roads = []
    for _ in range(2):
        interval = draw(intervals)
        days = window_days + draw(st.integers(1, 2))
        roads.append((planted_road(rng, interval, days, draw(fractions), draw(fractions)), interval))
    if draw(st.booleans()):  # the same road twice: every defined coefficient is 1, a tie
        roads[1] = roads[0]
    (values_a, interval_a), (values_b, interval_b) = roads
    span = min(len(values_a) * interval_a, len(values_b) * interval_b)
    stride = math.lcm(interval_a, interval_b)
    wall_range = None
    if draw(st.booleans()):
        start = draw(st.integers(0, span - stride))
        first = max(start, window_days * gd.MINUTES_PER_DAY)  # [first, first + stride) holds a shared slot
        end = draw(st.one_of(st.none(), st.integers(first + stride, span)))
        wall_range = (start, end)
    measurements = draw(st.permutations(an.MEASUREMENTS).flatmap(
        lambda order: st.integers(1, 3).map(lambda k: list(order[:k]))))
    return (gd.SpeedSeries(road_id=0, values=values_a), gd.SpeedSeries(road_id=1, values=values_b.copy()),
            interval_a, interval_b, measurements, window_days, wall_range)


class TestOracle:
    @settings(max_examples=60, deadline=timedelta(seconds=10), derandomize=True)
    @given(request=correlation_requests(), block=st.integers(1, 40))
    def test_report_and_shares_equal_per_slot_loop(self, request, block):
        with mock.patch.object(an, "WALL_BLOCK", block):
            report = an.multifold_correlation_report(*request)
        assert_matches_oracle(report, reference.multifold_correlation_report(*request))

    def test_more_than_one_wall_block(self):
        # 16 days of 5-minute roads at window_days=1: 4,320 shared slots, past one WALL_BLOCK
        a, b, _ = planted.generate_planted_pair(seed=4, days=16)
        request = (a, b, 5, 5, list(an.MEASUREMENTS), 1)
        report = an.multifold_correlation_report(*request)
        assert len(report[0].time_slots) > an.WALL_BLOCK
        assert_matches_oracle(report, reference.multifold_correlation_report(*request))

    def test_tie_goes_to_the_first_listed_measurement(self):
        values = np.random.default_rng(2).uniform(10.0, 60.0, size=6 * 24)
        a = gd.SpeedSeries(road_id=0, values=values)
        b = gd.SpeedSeries(road_id=1, values=values.copy())
        for order in (["trend", "speed"], ["speed", "trend"]):
            # from the second shared slot on, past the trend's undefined first one
            report = an.multifold_correlation_report(a, b, 60, 60, order, window_days=3, wall_range=(4380, None))
            assert np.all(report[0].values == report[1].values)
            assert an.dominant_measurement_shares(report) == {order[0]: 1.0, order[1]: 0.0}

    @settings(max_examples=200, deadline=timedelta(seconds=10), derandomize=True)
    @given(st.integers(1, 3).flatmap(lambda m: st.lists(
        st.lists(st.sampled_from([np.nan, 0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0]), min_size=m, max_size=m),
        min_size=1, max_size=30)))
    def test_shares_equal_per_slot_loop(self, slots):
        curves = np.array(slots).T
        walls = np.arange(curves.shape[1])
        report = [an.CorrelationSeries(0, 1, m, walls, v) for m, v in zip(an.MEASUREMENTS, curves)]
        oracle = [an.CorrelationSeries(0, 1, m, walls, [None if np.isnan(x) else float(x) for x in v])
                  for m, v in zip(an.MEASUREMENTS, curves)]
        assert an.dominant_measurement_shares(report) == reference.dominant_measurement_shares(oracle)
