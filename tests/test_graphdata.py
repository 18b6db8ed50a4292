"""Tests for graph/series types, derived channels, windows, generator, and file IO."""

import os
import subprocess
import sys
import warnings
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import planted
import reference
from mcan import graphdata as gd
from mcan.errors import ConfigError, MissingDataError, SchemaError


def line_graph(n=3, interval=60):
    nodes = [
        gd.RoadSegment(id=i, length_m=500.0, road_type=1, lanes=2, traffic_lights=1,
                       interval_minutes=interval)
        for i in range(n)
    ]
    edges = [(i, i + 1) for i in range(n - 1)]
    return gd.RoadGraph(nodes, edges)


class TestGraphInvariants:
    def test_duplicate_edge_rejected(self):
        nodes = line_graph(3).nodes
        with pytest.raises(SchemaError, match="duplicate"):
            gd.RoadGraph(list(nodes), [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        nodes = line_graph(2).nodes
        with pytest.raises(SchemaError, match="self-loop"):
            gd.RoadGraph(list(nodes), [(1, 1)])

    def test_non_dense_ids_rejected(self):
        nodes = [
            gd.RoadSegment(id=i, length_m=1.0, road_type=0, lanes=1, traffic_lights=0,
                           interval_minutes=60)
            for i in (0, 2)
        ]
        with pytest.raises(SchemaError, match="dense"):
            gd.RoadGraph(nodes, [])

    def test_interval_must_divide_day(self):
        with pytest.raises(SchemaError, match="divide"):
            gd.RoadSegment(id=0, length_m=1.0, road_type=0, lanes=1, traffic_lights=0,
                           interval_minutes=7)


class TestKHopNeighbors:
    def test_line_middle_node(self):
        graph = line_graph(3)
        assert gd.k_hop_neighbors(graph, 1, 1) == [{0, 2}]

    def test_line_end_node_two_hops(self):
        graph = line_graph(3)
        assert gd.k_hop_neighbors(graph, 0, 2) == [{1}, {2}]

    def test_isolated_node(self):
        nodes = line_graph(3).nodes
        graph = gd.RoadGraph(list(nodes), [])
        assert gd.k_hop_neighbors(graph, 1, 2) == [set(), set()]

    def test_invalid_node_rejected(self):
        with pytest.raises(MissingDataError, match="node"):
            gd.k_hop_neighbors(line_graph(3), 9, 1)

    def test_matches_matrix_power_oracle_on_random_graphs(self):
        # Independent oracle: boolean adjacency powers give exact hop distances.
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 50))
            nodes = [
                gd.RoadSegment(id=i, length_m=1.0, road_type=0, lanes=1, traffic_lights=0,
                               interval_minutes=60)
                for i in range(n)
            ]
            edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.15]
            graph = gd.RoadGraph(nodes, edges)
            adj = np.zeros((n, n), dtype=bool)
            for a, b in edges:
                adj[a, b] = adj[b, a] = True
            hops = 4
            reach = np.eye(n, dtype=bool)
            seen = np.eye(n, dtype=bool)
            layers_oracle = []
            for _ in range(hops):
                reach = reach @ adj
                layer = reach & ~seen
                seen |= layer
                layers_oracle.append(layer)
            node = int(rng.integers(0, n))
            layers = gd.k_hop_neighbors(graph, node, hops)
            for k in range(hops):
                assert layers[k] == set(np.flatnonzero(layers_oracle[k][node]))

    def test_hop_layers_computed_once_per_hop_count(self):
        graph = gd.generate_synthetic(gd.GeneratorConfig(n_roads=9, edge_density=0.3), 3).graph
        for hops in (1, 2, 3):
            layers = graph.hop_layers(hops)
            assert graph.hop_layers(hops) is layers
            assert layers == [gd.k_hop_neighbors(graph, road, hops) for road in range(graph.size)]
        assert [len(graph.hop_layers(hops)[0]) for hops in (1, 2, 3)] == [1, 2, 3]
        # the cache is no part of the graph's value
        assert graph == gd.RoadGraph(list(graph.nodes), list(graph.edges))
        assert "hop_layers" not in repr(graph)


def trend(values) -> np.ndarray:
    """The trend channel at every index that has a predecessor."""
    values = np.asarray(values, dtype=np.float64)
    return gd.channel_window(values, None, np.arange(1, len(values)), "trend")


def deviation(values, average) -> np.ndarray:
    """The deviation channel at every index."""
    values = np.asarray(values, dtype=np.float64)
    return gd.channel_window(values, np.asarray(average, dtype=np.float64),
                             np.arange(len(values)), "deviation")


class TestChannels:
    def test_trend_definition(self):
        assert np.array_equal(trend([10.0, 12.0, 11.0]), [2.0, -1.0])

    def test_trend_constant_series(self):
        assert np.array_equal(trend([7.0, 7.0, 7.0, 7.0]), [0.0, 0.0, 0.0])

    def test_trend_single_step(self):
        assert np.array_equal(trend([0.0, 5.0]), [5.0])

    def test_trend_too_short_rejected(self):
        # index 0 has no predecessor to difference against
        with pytest.raises(MissingDataError, match="trend"):
            gd.channel_window(np.array([3.0]), None, np.array([0]), "trend")

    def test_daily_average_two_days(self):
        assert np.array_equal(gd.compute_daily_average([10.0, 20.0, 14.0, 24.0], 2), [12.0, 22.0])

    def test_daily_average_single_day(self):
        assert np.array_equal(gd.compute_daily_average([3.0, 4.0, 5.0], 3), [3.0, 4.0, 5.0])

    def test_daily_average_three_days_hand_value(self):
        # days [0,0], [10,0], [20,0] -> slot means [10, 0]
        values = [0.0, 0.0, 10.0, 0.0, 20.0, 0.0]
        assert np.array_equal(gd.compute_daily_average(values, 2), [10.0, 0.0])

    def test_daily_average_partial_day_rejected(self):
        with pytest.raises(MissingDataError, match="whole days"):
            gd.compute_daily_average([1.0, 2.0, 3.0], 2)

    def test_deviation_definition(self):
        assert deviation([20.0], [17.0])[0] == 3.0

    def test_deviation_of_tiled_average_is_zero(self):
        avg = np.array([5.0, 9.0, 4.0])
        values = np.tile(avg, 4)
        assert np.array_equal(deviation(values, avg), np.zeros(12))

    def test_deviation_hand_values(self):
        out = deviation([12.0, 22.0, 10.0, 24.0], [12.0, 22.0])
        assert np.array_equal(out, [0.0, 0.0, -2.0, 2.0])

    def test_mean_centering_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            slots = int(rng.integers(2, 12))
            days = int(rng.integers(1, 6))
            values = rng.uniform(0, 60, size=slots * days)
            avg = gd.compute_daily_average(values, slots)
            dev = deviation(values, avg)
            assert abs(dev.sum()) < 1e-9

    def test_trend_cumsum_reconstructs_series(self):
        rng = np.random.default_rng(13)
        values = rng.uniform(0, 60, size=50)
        rebuilt = values[0] + np.concatenate([[0.0], np.cumsum(trend(values))])
        assert np.allclose(rebuilt, values, atol=1e-12)


class TestTemporalInputs:
    def test_recent_window_indices(self):
        values = np.arange(1.0, 11.0)  # [1..10]
        avg = gd.compute_daily_average(values, 5)
        out = gd.build_temporal_inputs(values, avg, t=5, branches={"recent": 2}, slots_per_day=5)
        assert np.array_equal(out["recent"][:, 0], [4.0, 5.0])
        assert list(out) == ["recent"]

    def test_daily_one_period_back(self):
        slots_per_day = 4
        values = np.arange(100.0, 100.0 + 64)
        avg = gd.compute_daily_average(values[:16], slots_per_day)
        out = gd.build_temporal_inputs(values, avg, t=6, branches={"recent": 2, "daily": 1},
                                       slots_per_day=slots_per_day)
        assert np.array_equal(out["daily"][:, 0], [values[2]])

    def test_branches_stack_the_channel_gathers(self):
        # each branch column is channel_window of that branch's indices, for
        # a batch of times as for one
        rng = np.random.default_rng(29)
        spd = 6
        values = rng.uniform(0, 50, size=spd * 10)
        avg = gd.compute_daily_average(values, spd)
        times = np.array([7 * spd + 1, 8 * spd + 3, 9 * spd])
        branches = {"recent": 3, "daily": 2, "weekly": 1}
        out = gd.build_temporal_inputs(values, avg, times, branches, slots_per_day=spd)
        assert list(out) == list(branches)
        for name, steps in branches.items():
            idx = gd.branch_indices(times, name, steps, spd)
            columns = [gd.channel_window(values, avg, idx, ch) for ch in ("speed", "trend", "deviation")]
            if name == "recent":
                columns.append(avg[idx % spd])
            assert out[name].tobytes() == np.stack(columns, axis=-1).tobytes(), name
        one = gd.build_temporal_inputs(values, avg, int(times[1]), branches, slots_per_day=spd)
        for name in branches:
            assert np.array_equal(one[name], out[name][1]), name

    def test_default_window_indices_five_minute_road(self):
        slots_per_day = 288
        t = 3000
        assert np.array_equal(gd.branch_indices(t, "recent", 3, slots_per_day), [t - 3, t - 2, t - 1])
        idx = gd.branch_indices(t, "daily", 4, slots_per_day)
        assert np.array_equal(idx, [t - 1152, t - 864, t - 576, t - 288])
        widx = gd.branch_indices(t, "weekly", 2, slots_per_day)
        assert np.array_equal(widx, [t - 4032, t - 2016])

    def test_insufficient_history_names_branch(self):
        values = np.arange(0.0, 40.0)
        avg = gd.compute_daily_average(values[:20], 10)
        with pytest.raises(MissingDataError, match="weekly"):
            gd.build_temporal_inputs(values, avg, t=30, branches={"recent": 2, "daily": 1, "weekly": 1},
                                     slots_per_day=10)

    def test_never_reads_at_or_after_t(self):
        class Recorder:
            def __init__(self, data):
                self.data = data
                self.touched = []

            def __len__(self):
                return len(self.data)

            def __getitem__(self, idx):
                self.touched.extend(np.atleast_1d(np.asarray(idx)).tolist())
                return self.data[idx]

        rng = np.random.default_rng(17)
        slots_per_day = 12
        values = rng.uniform(0, 50, size=slots_per_day * 30)
        avg = gd.compute_daily_average(values, slots_per_day)
        for _ in range(20):
            t = int(rng.integers(7 * slots_per_day + 1, len(values)))
            rec = Recorder(values)
            gd.build_temporal_inputs(rec, avg, t, {"recent": 6, "daily": 4, "weekly": 1},
                                     slots_per_day=slots_per_day)
            assert rec.touched and max(rec.touched) < t


class TestGenerator:
    def test_deterministic_for_fixed_seed(self, tmp_path):
        config = gd.GeneratorConfig(n_roads=4, edge_density=0.5, intervals=(5, 10),
                                    days=2, coupling=0.3, noise=1.0, obs_noise=0.2,
                                    weekly_amplitude=2.0, weather_impact=1.0)
        for name in ("a", "b"):
            d = gd.generate_synthetic(config, seed=99)
            gd.write_dataset(d, tmp_path / f"g_{name}.json", tmp_path / f"s_{name}.csv",
                             tmp_path / f"c_{name}.csv")
        for prefix, suffix in (("g", "json"), ("s", "csv"), ("c", "csv")):
            a = (tmp_path / f"{prefix}_a.{suffix}").read_bytes()
            b = (tmp_path / f"{prefix}_b.{suffix}").read_bytes()
            assert a == b

    def test_noise_and_coupling_zero_is_daily_periodic(self):
        config = gd.GeneratorConfig(n_roads=3, edge_density=1.0, intervals=(10,), days=3)
        dataset = gd.generate_synthetic(config, seed=4)
        for s in dataset.series:
            spd = dataset.graph.nodes[s.road_id].slots_per_day
            assert np.allclose(s.values[:spd], s.values[spd : 2 * spd], atol=1e-12)

    def test_interval_menu_respected(self):
        config = gd.GeneratorConfig(n_roads=4, edge_density=0.2, intervals=(5, 10), days=1)
        dataset = gd.generate_synthetic(config, seed=7)
        intervals = {node.interval_minutes for node in dataset.graph.nodes}
        assert intervals == {5, 10}
        lengths = {len(s) for s in dataset.series}
        assert lengths == {288, 144}

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError, match="n_roads"):
            gd.generate_synthetic(gd.GeneratorConfig(n_roads=0), seed=1)
        with pytest.raises(ConfigError, match="intervals"):
            gd.generate_synthetic(gd.GeneratorConfig(intervals=()), seed=1)

    def test_speeds_clipped_at_zero(self):
        config = gd.GeneratorConfig(n_roads=3, intervals=(30,), days=2, noise=40.0, obs_noise=20.0)
        dataset = gd.generate_synthetic(config, seed=3)
        for s in dataset.series:
            assert np.all(s.values >= 0.0)


class TestFileRoundTrip:
    def test_write_then_load_matches(self, tmp_path):
        config = gd.GeneratorConfig(n_roads=4, edge_density=0.6, intervals=(10, 30), days=2,
                                    coupling=0.2, noise=0.5, weather_impact=1.0)
        dataset = gd.generate_synthetic(config, seed=21)
        paths = (tmp_path / "graph.json", tmp_path / "series.csv", tmp_path / "context.csv")
        gd.write_dataset(dataset, *paths)
        loaded = gd.load_dataset(*paths)
        assert loaded.graph.size == dataset.graph.size
        assert loaded.graph.edges == dataset.graph.edges
        assert loaded.graph.nodes == dataset.graph.nodes
        assert loaded.span_minutes == dataset.span_minutes
        assert loaded.road_type_count == dataset.road_type_count
        for a, b in zip(loaded.series, dataset.series):
            assert np.array_equal(a.values, b.values)
        for a, b in zip(loaded.contexts, dataset.contexts):
            assert np.array_equal(a.weather, b.weather)
            assert np.array_equal(a.holiday, b.holiday)
            assert np.array_equal(a.day_of_week, b.day_of_week)

    def test_three_node_line_file(self, tmp_path):
        graph_doc = """{
  "nodes": [
    {"id": 0, "length_m": 100, "road_type": 0, "lanes": 1, "traffic_lights": 0, "interval_minutes": 720},
    {"id": 1, "length_m": 200, "road_type": 1, "lanes": 2, "traffic_lights": 1, "interval_minutes": 720},
    {"id": 2, "length_m": 300, "road_type": 0, "lanes": 1, "traffic_lights": 0, "interval_minutes": 720}
  ],
  "edges": [[0, 1], [1, 2]]
}"""
        series_rows = ["road_id,slot_index,speed_kmh"]
        for road in range(3):
            for slot in range(2):
                series_rows.append(f"{road},{slot},{30 + road}.0")
        ctx_rows = ["road_id,slot_index,weather_code,holiday_flag,day_of_week"]
        for road in range(3):
            for slot in range(2):
                ctx_rows.append(f"{road},{slot},0,0,0")
        (tmp_path / "graph.json").write_text(graph_doc)
        (tmp_path / "series.csv").write_text("\n".join(series_rows) + "\n")
        (tmp_path / "context.csv").write_text("\n".join(ctx_rows) + "\n")
        dataset = gd.load_dataset(tmp_path / "graph.json", tmp_path / "series.csv",
                                  tmp_path / "context.csv")
        assert dataset.graph.size == 3
        assert dataset.graph.edges == [(0, 1), (1, 2)]

    def test_heterogeneous_lengths_from_fig_style_input(self, tmp_path):
        # One road at 5-minute and one at 10-minute sampling over the same span
        # must load with lengths in ratio 2:1.
        config = gd.GeneratorConfig(n_roads=2, edge_density=1.0, intervals=(5, 10), days=1)
        dataset = gd.generate_synthetic(config, seed=2)
        paths = (tmp_path / "g.json", tmp_path / "s.csv", tmp_path / "c.csv")
        gd.write_dataset(dataset, *paths)
        loaded = gd.load_dataset(*paths)
        lengths = sorted(len(s) for s in loaded.series)
        assert lengths == [144, 288]

    def test_row_count_inconsistent_with_interval_rejected(self, tmp_path):
        config = gd.GeneratorConfig(n_roads=2, edge_density=1.0, intervals=(60,), days=1)
        dataset = gd.generate_synthetic(config, seed=5)
        paths = (tmp_path / "g.json", tmp_path / "s.csv", tmp_path / "c.csv")
        gd.write_dataset(dataset, *paths)
        lines = (tmp_path / "s.csv").read_text().splitlines()
        (tmp_path / "s.csv").write_text("\n".join(lines[:-1]) + "\n")  # drop one row
        with pytest.raises(SchemaError):
            gd.load_dataset(*paths)

    def test_missing_series_for_road_rejected(self, tmp_path):
        config = gd.GeneratorConfig(n_roads=2, edge_density=1.0, intervals=(60,), days=1)
        dataset = gd.generate_synthetic(config, seed=5)
        paths = (tmp_path / "g.json", tmp_path / "s.csv", tmp_path / "c.csv")
        gd.write_dataset(dataset, *paths)
        lines = (tmp_path / "s.csv").read_text().splitlines()
        kept = [lines[0]] + [ln for ln in lines[1:] if not ln.startswith("1,")]
        (tmp_path / "s.csv").write_text("\n".join(kept) + "\n")
        with pytest.raises(MissingDataError, match="without any series"):
            gd.load_dataset(*paths)

    def test_parse_error_names_row_and_field(self, tmp_path):
        config = gd.GeneratorConfig(n_roads=1, intervals=(60,), days=1)
        dataset = gd.generate_synthetic(config, seed=5)
        paths = (tmp_path / "g.json", tmp_path / "s.csv", tmp_path / "c.csv")
        gd.write_dataset(dataset, *paths)
        lines = (tmp_path / "s.csv").read_text().splitlines()
        lines[3] = "0,2,fast"
        (tmp_path / "s.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=r"row 4.*speed_kmh"):
            gd.load_dataset(*paths)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_speed_names_file_row_and_field(self, tmp_path, raw):
        config = gd.GeneratorConfig(n_roads=1, intervals=(60,), days=1)
        dataset = gd.generate_synthetic(config, seed=5)
        paths = (tmp_path / "g.json", tmp_path / "s.csv", tmp_path / "c.csv")
        gd.write_dataset(dataset, *paths)
        lines = (tmp_path / "s.csv").read_text().splitlines()
        lines[3] = f"0,2,{raw}"
        (tmp_path / "s.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=r"s\.csv: row 4: field 'speed_kmh' is not finite"):
            gd.load_dataset(*paths)

    def test_series_rejects_non_finite_values(self):
        with pytest.raises(SchemaError, match="road 3: non-finite speed value at slot 1"):
            gd.SpeedSeries(road_id=3, values=[40.0, np.nan, 41.0])


class TestPlantedPair:
    def test_same_frequency_and_shape(self):
        a, b, slots_per_day = planted.generate_planted_pair(seed=1, days=10)
        assert len(a) == len(b) == 10 * slots_per_day
        assert np.all(a.values >= 0) and np.all(b.values >= 0)


def written_dataset(tmp_path, n_roads=2, intervals=(60,), days=1, seed=5):
    config = gd.GeneratorConfig(n_roads=n_roads, edge_density=1.0, intervals=intervals, days=days,
                                weather_impact=1.0)
    paths = (tmp_path / "g.json", tmp_path / "s.csv", tmp_path / "c.csv")
    gd.write_dataset(gd.generate_synthetic(config, seed), *paths)
    return paths


def outcome(load, paths):
    """What ``load`` makes of ``paths``: the error's type and message, or every
    loaded array's dtype and bytes."""
    try:
        d = load(*paths)
    except (SchemaError, MissingDataError) as exc:
        return type(exc).__name__, str(exc)
    arrays = [s.values for s in d.series]
    arrays += [a for c in d.contexts for a in (c.weather, c.holiday, c.day_of_week)]
    return (d.span_minutes, d.weather_code_count, d.road_type_count, d.graph.edges,
            [s.road_id for s in d.series], [(a.dtype.str, a.tobytes()) for a in arrays])


# A corrupt cell never holds a comma, a quote or a line break: csv.reader
# (the reference) would re-split or unquote it, the loader takes it verbatim.
CELL_TEXT = st.text(st.characters(blacklist_characters=',"\r\n\x00', blacklist_categories=("Cs",)),
                    max_size=5)


@st.composite
def corruptions(draw):
    """One change to one CSV file: which file, what, where, and the new cell."""
    target = draw(st.sampled_from(("s.csv", "c.csv")))
    kind = draw(st.sampled_from(("text", "nonfinite", "negative", "range", "remove", "duplicate", "fields")))
    row, column, other = draw(st.integers(0, 10**6)), draw(st.integers(0, 4)), draw(st.integers(0, 10**6))
    if kind == "text":
        value = draw(CELL_TEXT)
    elif kind == "nonfinite":
        value = draw(st.sampled_from(("nan", "inf", "-inf", "NaN", "Infinity", "-nan")))
    elif kind == "negative":
        value = draw(st.sampled_from(("-1", "-0.5", "-1e-300", "-0", "-0.0")))
    else:
        value = str(draw(st.sampled_from((-1, 2, 3, 4, 7, 9, 100))))
    return target, kind, row, column, other, value


def corrupt(path, kind, row, column, other, value):
    lines = path.read_text().splitlines()
    header, data = lines[:1], lines[1:]
    i = row % len(data)
    cells = data[i].split(",")
    if kind in ("nonfinite", "negative") and len(cells) == 3:
        column = 2  # the speed column of series.csv
    if kind in ("text", "nonfinite", "negative", "range"):
        cells[column % len(cells)] = value
        data[i] = ",".join(cells)
    elif kind == "remove":
        del data[i]
    elif kind == "duplicate":
        data.insert(other % (len(data) + 1), data[i])
    elif kind == "fields":  # one cell too many or too few
        data[i] = ",".join(cells + [value] if other % 2 else cells[:-1])
    elif kind == "prefix":  # every cell of the column, e.g. "+N" for N
        for k, line in enumerate(data):
            cells = line.split(",")
            cells[column % len(cells)] = value + cells[column % len(cells)]
            data[k] = ",".join(cells)
    path.write_text("\r\n".join(header + data) + "\r\n", newline="")


# Cells near the plain integer syntax: Python's int() or float() takes some
# of them, numpy's loadtxt takes fewer, and the loader must decide exactly
# as the text reader does.
NEAR_NUMERIC = ("+3", "3_0", " 3", "3 ", "\u0663", "007", "-0", "1" * 19, "9" * 19, "1" * 25, "1e3",
                "\U00020000")
# How a whole CSV file is spelled: its line ends, or a no-break space (which
# the header check strips) after its first header cell.
SPELLINGS = ("crlf", "lf", "lone-cr", "non-ascii")
# The pieces of one cell: digits, signs, the float syntax, every character
# str.isspace() counts except the line ends (0x1c-0x1f among them, which
# int() and float() refuse), Unicode digits, NUL and "#" (no comment mark).
CELL_PIECES = (*"0123456789+-._eE#", "nan", "inf", "\u0663", "\uff13", "\x00",
               *(c for c in map(chr, range(0x3001)) if c.isspace() and c not in "\n\r"))


@st.composite
def near_numeric(draw):
    """One cell of either CSV file replaced by a near-numeric value, in the
    form :func:`corrupt` takes."""
    target = draw(st.sampled_from(("s.csv", "c.csv")))
    row, column = draw(st.integers(0, 10**6)), draw(st.integers(0, 4))
    return target, "text", row, column, 0, draw(st.sampled_from(NEAR_NUMERIC))


def respell(path, spelling):
    lines = path.read_text(encoding="utf-8").splitlines()
    if spelling == "non-ascii":
        lines[0] = lines[0].replace(",", "\u00a0,", 1)
    elif spelling == "blank-lines":
        lines = ["", "", *lines]
    end = {"lf": "\n", "lone-cr": "\r"}.get(spelling, "\r\n")
    path.write_text(end.join(lines) + end, encoding="utf-8", newline="")


def row_reads(monkeypatch) -> list:
    """The name of each file the loader reads row by row, not with
    ``loadtxt``, from now on."""
    reads = []
    read_rows = gd._read_rows
    monkeypatch.setattr(gd, "_read_rows", lambda path, *args: reads.append(path.name) or read_rows(path, *args))
    return reads


class TestLoaderOracle:
    # Up to two corruptions, so that rows failing different rules compete
    # for the one error reported.
    @settings(max_examples=150, deadline=timedelta(seconds=10), derandomize=True)
    @given(st.integers(1, 3), st.lists(st.sampled_from((60, 120, 240)), min_size=1, max_size=3, unique=True),
           st.integers(0, 10_000), st.lists(corruptions(), max_size=2))
    def test_same_outcome_as_row_by_row_reader(self, tmp_path_factory, n_roads, intervals, seed, changes):
        tmp_path = tmp_path_factory.mktemp("oracle")
        paths = written_dataset(tmp_path, n_roads, tuple(intervals), seed=seed)
        for target, *change in changes:
            corrupt(tmp_path / target, *change)
        expected = outcome(reference.load_dataset, paths)
        assert outcome(gd.load_dataset, paths) == expected
        if not changes:
            assert isinstance(expected[0], int)

    def test_benchmark_sized_dataset_bit_identical(self, tmp_path):
        paths = written_dataset(tmp_path, n_roads=10, intervals=(5, 10, 15), days=28, seed=3)
        loaded = outcome(gd.load_dataset, paths)
        assert isinstance(loaded[0], int)
        assert loaded == outcome(reference.load_dataset, paths)

    # Near-numeric cells that loadtxt refuses send their file to the row
    # reader, and so do the lone-CR and non-ASCII spellings.  The example
    # respells a whole context.csv column "+N".
    @settings(max_examples=100, deadline=timedelta(seconds=10), derandomize=True)
    @given(st.integers(1, 3), st.lists(st.sampled_from((60, 120, 240)), min_size=1, max_size=3, unique=True),
           st.integers(0, 10_000), st.lists(near_numeric(), max_size=2), st.sampled_from(SPELLINGS))
    @example(n_roads=3, intervals=[60, 120], seed=7, changes=[("c.csv", "prefix", 0, 2, 0, "+")], spelling="crlf")
    def test_near_numeric_cells_same_outcome_as_row_by_row_reader(self, tmp_path_factory, n_roads, intervals,
                                                                    seed, changes, spelling):
        tmp_path = tmp_path_factory.mktemp("oracle")
        paths = written_dataset(tmp_path, n_roads, tuple(intervals), seed=seed)
        for target, *change in changes:
            corrupt(tmp_path / target, *change)
        for path in paths[1:]:
            respell(path, spelling)
        expected = outcome(reference.load_dataset, paths)
        assert outcome(gd.load_dataset, paths) == expected
        if not changes:
            assert isinstance(expected[0], int)

    # One cell of a one-row file, in an int column (context.csv's
    # weather_code) or in speed_kmh, the last cell of its line.  numpy once
    # parsed an int cell through float, which would take "1.0" and "1e3";
    # loadtxt strips 0x1c-0x1f as spaces, which int() and float() refuse,
    # and with a comment mark it would read "1#" as 1.
    @pytest.mark.parametrize("target", ["c.csv", "s.csv"])
    @settings(max_examples=200, deadline=timedelta(seconds=10), derandomize=True)
    @given(st.lists(st.sampled_from(CELL_PIECES), max_size=6).map("".join))
    @example("1.0")
    @example("1e3")
    @example("1e400")
    @example("-nan")
    @example("\xa03")
    @example("0x1p3")
    @example("\x1c3")
    @example("1#")
    def test_one_cell_same_outcome_as_row_by_row_reader(self, tmp_path_factory, target, cell):
        tmp_path = tmp_path_factory.mktemp("cell")
        paths = written_dataset(tmp_path, n_roads=1, intervals=(gd.MINUTES_PER_DAY,))
        corrupt(tmp_path / target, "text", 0, 2, 0, cell)
        assert outcome(gd.load_dataset, paths) == outcome(reference.load_dataset, paths)

    # README-size files as written (CRLF) and in LF, plain or with every
    # weather_code cell respelled "+N" or " N", which loadtxt takes too.
    @pytest.mark.parametrize("spelling,prefix", [("crlf", None), ("lf", None), ("crlf", "+"), ("lf", " ")])
    def test_benchmark_sized_plain_files_take_loadtxt_path(self, tmp_path, monkeypatch, spelling, prefix):
        paths = written_dataset(tmp_path, n_roads=10, intervals=(5, 10, 15), days=28, seed=3)
        clean = outcome(gd.load_dataset, paths)
        if prefix:
            corrupt(paths[2], "prefix", 0, 2, 0, prefix)
        for path in paths[1:]:
            respell(path, spelling)
        reads = row_reads(monkeypatch)
        assert outcome(gd.load_dataset, paths) == clean
        assert reads == []

    # A first line that is not exactly the header (leading blank lines, a
    # no-break space in it) or a lone CR sends a README-size file to the row
    # reader, which must load the same arrays as the reference.
    @pytest.mark.parametrize("spelling", ["lone-cr", "non-ascii", "blank-lines"])
    def test_benchmark_sized_other_files_take_row_path(self, tmp_path, monkeypatch, spelling):
        paths = written_dataset(tmp_path, n_roads=10, intervals=(5, 10, 15), days=28, seed=3)
        for path in paths[1:]:
            respell(path, spelling)
        reads = row_reads(monkeypatch)
        loaded = outcome(gd.load_dataset, paths)
        assert isinstance(loaded[0], int)
        assert loaded == outcome(reference.load_dataset, paths)
        assert reads == ["s.csv", "c.csv"]

    def test_row_reader_converts_each_distinct_cell_once(self):
        converted = []
        values, first = gd._each_cell(lambda text: converted.append(text) or int(text), ["+1", "+2", "+1", "+1"])
        assert (converted, values.tolist(), first) == (["+1", "+2"], [1, 2, 1, 1], 4)

    # One changed cell (context.csv row 3, day_of_week) in a file as written:
    # loadtxt takes what it parses as int() does, and the file goes to the
    # row reader for a cell it refuses or for any non-ASCII byte.
    @pytest.mark.parametrize("cell,row_path", [
        ("+3", False), (" 3", False), ("\xa03", True), ("-0", False), ("1" * 19, False),
        ("3_0", True), ("\u0663", True), ("9" * 19, True), ("1e3", True), ("\x1c3", True), ("3#", True), ("x", True),
    ])
    def test_cell_picks_the_path(self, tmp_path, monkeypatch, cell, row_path):
        paths = written_dataset(tmp_path)
        corrupt(paths[2], "text", 3, 4, 0, cell)
        reads = row_reads(monkeypatch)
        assert outcome(gd.load_dataset, paths) == outcome(reference.load_dataset, paths)
        assert reads == (["c.csv"] if row_path else [])

    # numpy 2.4's loadtxt reads some supplementary-plane cells as integers
    # (the code point less 48) and crashes on others; the row reader refuses
    # both, naming the cell.
    def test_supplementary_plane_cell_is_not_an_integer(self, tmp_path):
        paths = written_dataset(tmp_path)
        corrupt(paths[2], "text", 3, 1, 0, "\U00020005")
        message = f"{paths[2]}: row 5: field 'slot_index' is not an integer: '\U00020005'"
        assert outcome(gd.load_dataset, paths) == outcome(reference.load_dataset, paths) == ("SchemaError", message)

    def test_cell_that_crashed_loadtxt_is_refused(self, tmp_path):
        # In child processes, so that a crash fails this test, not the whole
        # run.  What loadtxt made of this cell varied between processes (a
        # crash, a misread or a refusal), so five children load the files.
        paths = written_dataset(tmp_path)
        corrupt(paths[1], "text", 3, 0, 0, "\U000f0000")
        code = ("import sys\nfrom mcan import graphdata as gd\ntry:\n    gd.load_dataset(*sys.argv[1:])\n"
                "except Exception as exc:\n    print(type(exc).__name__, exc)")
        src = str(Path(gd.__file__).resolve().parents[1])
        children = [subprocess.Popen([sys.executable, "-c", code, *map(str, paths)], stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, encoding="utf-8", env={**os.environ, "PYTHONPATH": src})
                    for _ in range(5)]
        name, message = outcome(reference.load_dataset, paths)
        assert message.endswith("row 5: field 'road_id' is not an integer: " + repr("\U000f0000"))
        for child in children:
            out, err = child.communicate()
            assert (child.returncode, out) == (0, f"{name} {message}\n"), err


class TestCsvFormat:
    # The corrupted series line is file line 4 (header, slots 0 and 1, then 2).
    @pytest.mark.parametrize("join,blank_lines_before", [
        pytest.param("\n".join, 0, id="LF"),
        pytest.param("\r\n".join, 0, id="CRLF"),
        pytest.param("\r".join, 0, id="CR"),
        pytest.param("\r\n\r\n".join, 3, id="blank-lines"),
    ])
    def test_line_endings_and_blank_lines(self, tmp_path, join, blank_lines_before):
        paths = written_dataset(tmp_path)
        clean = outcome(gd.load_dataset, paths)
        for path in paths[1:]:
            path.write_text(join(path.read_text().splitlines()) + "\n", newline="")
        assert outcome(gd.load_dataset, paths) == clean
        data = [line for line in paths[1].read_text().splitlines() if line]
        data[3] = "0,2,fast"
        paths[1].write_text(join(data) + "\n", newline="")
        row = 4 + blank_lines_before
        message = f"{paths[1]}: row {row}: field 'speed_kmh' is not a number: 'fast'"
        assert outcome(gd.load_dataset, paths) == ("SchemaError", message)
        assert outcome(reference.load_dataset, paths) == ("SchemaError", message)

    @pytest.mark.parametrize("name", ["s.csv", "c.csv"])
    def test_header_only_file_refused_without_warning(self, tmp_path, name):
        paths = written_dataset(tmp_path)
        path = tmp_path / name
        path.write_text(path.read_text().splitlines()[0] + "\r\n", newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = outcome(gd.load_dataset, paths)
        assert loaded[0] == "MissingDataError"
        assert loaded == outcome(reference.load_dataset, paths)

    def test_quoted_cell_is_not_an_integer(self, tmp_path):
        paths = written_dataset(tmp_path)
        lines = paths[1].read_text().splitlines()
        lines[3] = '0,"2",' + lines[3].split(",")[2]
        paths[1].write_text("\n".join(lines) + "\n")
        message = r"s\.csv: row 4: field 'slot_index' is not an integer: '\"2\"'"
        with pytest.raises(SchemaError, match=message):
            gd.load_dataset(*paths)

    def test_integer_beyond_64_bits_named(self, tmp_path):
        paths = written_dataset(tmp_path)
        lines = paths[2].read_text().splitlines()
        lines[5] = "0,4,99999999999999999999,0,0"
        paths[2].write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=r"c\.csv: row 6: field 'weather_code' is outside the 64-bit"):
            gd.load_dataset(*paths)

    def test_duplicate_context_row_rejected(self, tmp_path):
        # Kept silently before: the last row won, and weather 7 made the model
        # expect eight weather codes.
        paths = written_dataset(tmp_path)
        text = paths[2].read_text()
        paths[2].write_text(text + "0,3,7,0,0\r\n", newline="")
        row = len(text.splitlines()) + 1
        with pytest.raises(SchemaError, match=rf"c\.csv: row {row}: duplicate slot 3 for road 0"):
            gd.load_dataset(*paths)
