"""Tests for same-slot series, Pearson correlation, and the multi-fold report."""

import numpy as np
import pytest

import planted
from mcan import analysis as an
from mcan import graphdata as gd
from mcan.errors import ConfigError, MissingDataError


class TestSameSlotSeries:
    def test_degenerate_window_is_singleton(self):
        values = np.arange(10.0)
        assert np.array_equal(an.same_slot_series(values, 7, 0, 4), [7.0])

    def test_periodic_data_gives_constant_vector(self):
        profile = np.array([3.0, 9.0, 5.0, 7.0])
        values = np.tile(profile, 6)
        out = an.same_slot_series(values, 21, 4, 4)
        assert np.all(out == values[21])

    def test_index_arithmetic(self):
        values = np.arange(100.0)
        out = an.same_slot_series(values, 9, 2, 4)
        assert np.array_equal(out, [9.0, 5.0, 1.0])

    def test_insufficient_history_rejected(self):
        with pytest.raises(MissingDataError):
            an.same_slot_series(np.arange(10.0), 5, 2, 4)


class TestPearson:
    def test_self_correlation_is_one(self):
        a = np.array([1.0, 2.0, 5.0])
        assert an.pearson(a, a) == pytest.approx(1.0)

    def test_negation_gives_minus_one(self):
        a = np.array([1.0, 2.0, 5.0])
        assert an.pearson(a, -a) == pytest.approx(-1.0)

    def test_hand_computed_half(self):
        assert an.pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5)

    def test_constant_vector_is_undefined(self):
        assert an.pearson([2.0, 2.0, 2.0], [1.0, 3.0, 2.0]) is None

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            r = an.pearson(a, b)
            assert an.pearson(b, a) == pytest.approx(r, abs=1e-12)
            scale, shift = rng.uniform(0.1, 5.0), rng.normal()
            assert an.pearson(scale * a + shift, b) == pytest.approx(r, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            r = an.pearson(rng.normal(size=4), rng.normal(size=4))
            assert -1.0 <= r <= 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            an.pearson([1.0, 2.0], [1.0, 2.0, 3.0])


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
        speed_vals = np.array([v if v is not None else np.nan for v in speed.values])
        trend_vals = np.array([v if v is not None else np.nan for v in trend.values])
        assert np.nanmedian(speed_vals[first_region]) > 0.6
        assert np.nanmedian(trend_vals[second_region]) < -0.6

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
            for v in series.values:
                assert v is None or -1.0 <= v <= 1.0

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
        assert all(v is None for v in report[0].values)
        path = tmp_path / "corr.csv"
        an.write_correlation_table(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_slot,measurement,correlation"
        assert all(line.endswith(",speed,") for line in lines[1:])
