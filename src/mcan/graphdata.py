"""Road graph, heterogeneous speed series, channel windows, and dataset files.

Series alignment convention: every series starts at midnight of day 0, so the
daily slot of index ``t`` is ``t % slots_per_day`` and no timestamp arithmetic
is needed anywhere.  A road observing every ``T`` minutes has
``1440 / T`` slots per day and seven times that per week.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, MissingDataError, SchemaError

MINUTES_PER_DAY = 1440
MINUTES_PER_WEEK = 7 * MINUTES_PER_DAY


# ---------------------------------------------------------------------------
# Domain types


@dataclass
class RoadSegment:
    """Static attributes of one road segment (graph node)."""

    id: int
    length_m: float
    road_type: int
    lanes: int
    traffic_lights: int
    interval_minutes: int

    def __post_init__(self):
        if self.interval_minutes <= 0 or MINUTES_PER_DAY % self.interval_minutes != 0:
            raise SchemaError(
                f"node {self.id}: interval_minutes={self.interval_minutes} "
                f"must be positive and divide {MINUTES_PER_DAY}"
            )

    @property
    def slots_per_day(self) -> int:
        return MINUTES_PER_DAY // self.interval_minutes

    @property
    def slots_per_week(self) -> int:
        return 7 * self.slots_per_day


@dataclass
class RoadGraph:
    """Undirected road graph with dense node ids."""

    nodes: list[RoadSegment]
    edges: list[tuple[int, int]]
    _adjacency: list[set[int]] = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.nodes)
        ids = [node.id for node in self.nodes]
        if sorted(ids) != list(range(n)):
            raise SchemaError(f"node ids must be unique and dense in [0, {n}), got {sorted(ids)}")
        self.nodes.sort(key=lambda node: node.id)
        seen = set()
        adjacency = [set() for _ in range(n)]
        normalized = []
        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n):
                raise SchemaError(f"edge ({a}, {b}) references an unknown node")
            if a == b:
                raise SchemaError(f"self-loop edge on node {a}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise SchemaError(f"duplicate edge {key}")
            seen.add(key)
            normalized.append(key)
            adjacency[a].add(b)
            adjacency[b].add(a)
        self.edges = sorted(normalized)
        self._adjacency = adjacency

    @property
    def size(self) -> int:
        return len(self.nodes)

    def neighbors(self, node: int) -> set[int]:
        return self._adjacency[node]


@dataclass
class SpeedSeries:
    """Regularly spaced speed observations for one road."""

    road_id: int
    start_slot: int  # slot of day 0 the series begins at (always 0 here)
    values: np.ndarray  # km/h, one value per interval

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        finite = np.isfinite(self.values)
        if not finite.all():
            slot = int(np.flatnonzero(~finite)[0])
            raise SchemaError(f"road {self.road_id}: non-finite speed value at slot {slot}")
        if np.any(self.values < 0):
            raise SchemaError(f"road {self.road_id}: negative speed value")

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class TemporalInputs:
    """Recent / daily-periodic / weekly-periodic history windows for one sample."""

    recent_speed: np.ndarray
    recent_trend: np.ndarray
    recent_deviation: np.ndarray
    recent_average: np.ndarray
    daily_speed: np.ndarray
    daily_trend: np.ndarray
    daily_deviation: np.ndarray
    weekly_speed: np.ndarray
    weekly_trend: np.ndarray
    weekly_deviation: np.ndarray


@dataclass
class ContextFeatures:
    """Static road descriptors plus the per-slot dynamic factor codes."""

    static: np.ndarray  # length_km, one-hot road type, lanes, traffic lights
    weather: np.ndarray  # int code per slot
    holiday: np.ndarray  # 0/1 per slot
    day_of_week: np.ndarray  # 0..6 per slot


@dataclass
class TrafficDataset:
    """A loaded (or generated) graph with one series and context per road."""

    graph: RoadGraph
    series: list[SpeedSeries]
    contexts: list[ContextFeatures]
    span_minutes: int
    weather_code_count: int
    road_type_count: int

    @property
    def days(self) -> int:
        return self.span_minutes // MINUTES_PER_DAY


# ---------------------------------------------------------------------------
# Channel derivation


def compute_trend(values) -> np.ndarray:
    """First differences: output[t-1] = values[t] - values[t-1]."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 2:
        raise MissingDataError(f"trend needs at least 2 observations, got {len(values)}")
    return np.diff(values)


def compute_daily_average(values, slots_per_day: int) -> np.ndarray:
    """Per-slot mean over whole days; the span must be a multiple of slots_per_day."""
    values = np.asarray(values, dtype=np.float64)
    if slots_per_day < 1:
        raise ConfigError(f"slots_per_day must be >= 1, got {slots_per_day}")
    if len(values) == 0 or len(values) % slots_per_day != 0:
        raise MissingDataError(
            f"daily average needs whole days: length {len(values)} "
            f"is not a positive multiple of {slots_per_day}"
        )
    return values.reshape(-1, slots_per_day).mean(axis=0)


def compute_deviation(values, daily_average) -> np.ndarray:
    """Deviation from the same daily slot's historical average."""
    values = np.asarray(values, dtype=np.float64)
    daily_average = np.asarray(daily_average, dtype=np.float64)
    if len(daily_average) < 1:
        raise MissingDataError("daily average must have at least one slot")
    slots = np.arange(len(values)) % len(daily_average)
    return values - daily_average[slots]


# ---------------------------------------------------------------------------
# Graph queries


def k_hop_neighbors(graph: RoadGraph, node: int, hops: int) -> list[set[int]]:
    """Nodes at shortest-path distance exactly 1..hops from ``node``."""
    if not 0 <= node < graph.size:
        raise MissingDataError(f"node {node} is not in the graph (N={graph.size})")
    if hops < 1:
        raise ConfigError(f"hop count must be >= 1, got {hops}")
    layers: list[set[int]] = []
    visited = {node}
    frontier = {node}
    for _ in range(hops):
        frontier = {n for cur in frontier for n in graph.neighbors(cur)} - visited
        visited |= frontier
        layers.append(set(frontier))
    return layers


# ---------------------------------------------------------------------------
# Temporal input windows


def recent_indices(t, steps: int) -> np.ndarray:
    """The ``steps`` indices before ``t``; a ``(B,)`` array of times gives ``(B, steps)``."""
    return np.asarray(t)[..., None] + np.arange(-steps, 0)


def periodic_indices(t, steps: int, period: int) -> np.ndarray:
    """Indices ``t - steps * period, ..., t - period``; batched like :func:`recent_indices`."""
    return np.asarray(t)[..., None] + (np.arange(steps) - steps) * period


def channel_window(values, daily_average: np.ndarray, idx: np.ndarray, channel: str) -> np.ndarray:
    """Gather one channel's values at ``idx`` of any shape (trend additionally
    reads idx-1).  Raises naming the channel when ``idx`` reaches too far back."""
    idx = np.asarray(idx)
    if idx.size and idx.min() < (1 if channel == "trend" else 0):
        raise MissingDataError(f"{channel} window reaches index {idx.min()}, not enough history")
    if channel == "speed":
        return np.asarray(values[idx], dtype=np.float64)
    if channel == "trend":
        return np.asarray(values[idx], dtype=np.float64) - np.asarray(values[idx - 1], dtype=np.float64)
    if channel == "deviation":
        slots = idx % len(daily_average)
        return np.asarray(values[idx], dtype=np.float64) - daily_average[slots]
    raise ConfigError(f"unknown channel {channel!r}")


def build_temporal_inputs(
    values,
    daily_average: np.ndarray,
    t,
    recent_steps: int,
    daily_steps: int,
    weekly_steps: int,
    slots_per_day: int,
) -> TemporalInputs:
    """Assemble the three history windows ending just before index ``t``.

    ``t`` is one time (windows of shape ``(L,)``) or a ``(B,)`` array of times
    (windows of shape ``(B, L)``).  Only indices strictly below ``t`` are ever
    read (trend additionally reads one step further back).  Raises naming the
    branch that lacks history and the earliest time.
    """
    branches = {
        "recent": recent_indices(t, recent_steps),
        "daily": periodic_indices(t, daily_steps, slots_per_day),
        "weekly": periodic_indices(t, weekly_steps, 7 * slots_per_day),
    }
    for name, idx in branches.items():
        # zero steps means that branch is disabled (ablations); skip it
        if idx.size and idx.min() < 1:  # trend at index u reads u-1
            raise MissingDataError(
                f"{name} branch lacks history at t={np.min(t)}: needs index {idx.min()}, minimum is 1"
            )
    windows = {
        f"{name}_{channel}": channel_window(values, daily_average, idx, channel)
        for name, idx in branches.items()
        for channel in ("speed", "trend", "deviation")
    }
    return TemporalInputs(**windows, recent_average=daily_average[branches["recent"] % slots_per_day])


# ---------------------------------------------------------------------------
# Synthetic dataset generation


@dataclass
class GeneratorConfig:
    """Knobs for the synthetic road-network generator."""

    n_roads: int = 4
    edge_density: float = 0.5
    intervals: tuple[int, ...] = (5, 10, 15)
    days: int = 7
    coupling: float = 0.0
    coupling_lag_minutes: int = 0  # neighbor state propagates with this delay
    noise: float = 0.0  # amplitude of the slow congestion-event process
    obs_noise: float = 0.0  # iid measurement noise per observation
    weekly_amplitude: float = 0.0
    weather_impact: float = 0.0  # scales the per-code speed offsets

    def validate(self) -> None:
        if self.n_roads <= 0:
            raise ConfigError(f"n_roads must be positive, got {self.n_roads}")
        if not self.intervals:
            raise ConfigError("intervals menu must not be empty")
        for t in self.intervals:
            if t <= 0 or MINUTES_PER_DAY % t != 0:
                raise ConfigError(f"interval {t} must be positive and divide {MINUTES_PER_DAY}")
        if self.days < 1:
            raise ConfigError(f"days must be >= 1, got {self.days}")
        if not 0.0 <= self.edge_density <= 1.0:
            raise ConfigError(f"edge_density must be in [0, 1], got {self.edge_density}")
        if self.coupling < 0 or self.noise < 0 or self.obs_noise < 0:
            raise ConfigError("coupling and noise levels must be non-negative")
        if self.coupling_lag_minutes < 0:
            raise ConfigError("coupling_lag_minutes must be non-negative")


WEATHER_EFFECT = np.array([0.0, -1.0, -3.0])  # clear / cloudy / rainy, km/h


def _ou_process(rng: np.random.Generator, n: int, amplitude: float, tau_minutes: float = 90.0) -> np.ndarray:
    """Zero-mean Ornstein-Uhlenbeck path on the minute grid, stationary sd = amplitude."""
    if amplitude == 0.0:
        return np.zeros(n)
    rho = math.exp(-1.0 / tau_minutes)
    scale = amplitude * math.sqrt(1.0 - rho * rho)
    shocks = rng.standard_normal(n) * scale
    out = np.empty(n)
    state = rng.standard_normal() * amplitude
    for i in range(n):
        state = rho * state + shocks[i]
        out[i] = state
    return out


def generate_synthetic(config: GeneratorConfig, seed: int) -> TrafficDataset:
    """Deterministic synthetic dataset: daily sinusoid per road, optional weekly
    modulation, congestion events, 1-hop spatial coupling, and observation noise."""
    config.validate()
    rng = np.random.default_rng(seed)
    n = config.n_roads

    menu = list(config.intervals)
    assignment = [menu[i % len(menu)] for i in range(n)]
    intervals = [assignment[i] for i in rng.permutation(n)]

    nodes = [
        RoadSegment(
            id=i,
            length_m=float(np.round(rng.uniform(100.0, 1200.0), 1)),
            road_type=int(rng.integers(0, 4)),
            lanes=int(rng.integers(1, 5)),
            traffic_lights=int(rng.integers(0, 4)),
            interval_minutes=intervals[i],
        )
        for i in range(n)
    ]
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < config.edge_density]
    graph = RoadGraph(nodes, edges)

    total_minutes = config.days * MINUTES_PER_DAY
    minutes = np.arange(total_minutes, dtype=np.float64)

    base = np.empty((n, total_minutes))
    for i in range(n):
        mean = rng.uniform(30.0, 55.0)
        amp = rng.uniform(8.0, 16.0)
        phase = rng.uniform(0.0, MINUTES_PER_DAY)
        wphase = rng.uniform(0.0, MINUTES_PER_WEEK)
        signal = mean - amp * np.sin(2.0 * np.pi * (minutes - phase) / MINUTES_PER_DAY)
        if config.weekly_amplitude:
            signal = signal + config.weekly_amplitude * np.sin(
                2.0 * np.pi * (minutes - wphase) / MINUTES_PER_WEEK
            )
        base[i] = signal + _ou_process(rng, total_minutes, config.noise)

    # Shared weather path on the hourly grid, applied to every road.
    hours = total_minutes // 60
    weather_hourly = np.empty(hours, dtype=np.int64)
    state = 0
    for h in range(hours):
        if rng.random() < 0.15:
            state = int(rng.integers(0, 3))
        weather_hourly[h] = state
    weather_minutely = np.repeat(weather_hourly, 60)
    if config.weather_impact:
        base += config.weather_impact * WEATHER_EFFECT[weather_minutely]

    coupled = base.copy()
    if config.coupling > 0.0:
        lag = config.coupling_lag_minutes
        lag_idx = np.maximum(np.arange(total_minutes) - lag, 0)
        for i in range(n):
            neigh = sorted(graph.neighbors(i))
            if neigh:
                coupled[i] = base[i] + config.coupling * base[neigh][:, lag_idx].mean(axis=0)

    holidays = set()
    for day in range(config.days):
        if rng.random() < 1.0 / 14.0:
            holidays.add(day)

    series = []
    contexts = []
    for i in range(n):
        step = intervals[i]
        slot_minutes = np.arange(0, total_minutes, step)
        values = coupled[i][slot_minutes]
        if config.obs_noise > 0.0:
            values = values + rng.standard_normal(len(values)) * config.obs_noise
        values = np.maximum(values, 0.0)
        series.append(SpeedSeries(road_id=i, start_slot=0, values=values))
        days_of_slots = slot_minutes // MINUTES_PER_DAY
        contexts.append(
            ContextFeatures(
                static=np.array([]),  # assembled after vocab sizes are known
                weather=weather_minutely[slot_minutes].copy(),
                holiday=np.array([1 if d in holidays else 0 for d in days_of_slots], dtype=np.int64),
                day_of_week=(days_of_slots % 7).astype(np.int64),
            )
        )

    dataset = TrafficDataset(
        graph=graph,
        series=series,
        contexts=contexts,
        span_minutes=total_minutes,
        weather_code_count=len(WEATHER_EFFECT),
        road_type_count=4,
    )
    _assemble_static_features(dataset)
    return dataset


def _assemble_static_features(dataset: TrafficDataset) -> None:
    for node, ctx in zip(dataset.graph.nodes, dataset.contexts):
        one_hot = np.zeros(dataset.road_type_count)
        one_hot[node.road_type] = 1.0
        ctx.static = np.concatenate(
            [[node.length_m / 1000.0], one_hot, [float(node.lanes), float(node.traffic_lights)]]
        )


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
        SpeedSeries(road_id=0, start_slot=0, values=values_a),
        SpeedSeries(road_id=1, start_slot=0, values=values_b),
        slots_per_day,
    )


# ---------------------------------------------------------------------------
# File formats


def write_dataset(dataset: TrafficDataset, graph_path, series_path, context_path) -> None:
    """Write the three dataset files; output is byte-stable for a fixed dataset."""
    graph_doc = {
        "nodes": [
            {
                "id": node.id,
                "length_m": node.length_m,
                "road_type": node.road_type,
                "lanes": node.lanes,
                "traffic_lights": node.traffic_lights,
                "interval_minutes": node.interval_minutes,
            }
            for node in dataset.graph.nodes
        ],
        "edges": [list(edge) for edge in dataset.graph.edges],
    }
    Path(graph_path).write_text(json.dumps(graph_doc, indent=2, sort_keys=True) + "\n")

    with open(series_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["road_id", "slot_index", "speed_kmh"])
        for s in dataset.series:
            for slot, value in enumerate(s.values):
                writer.writerow([s.road_id, slot, repr(float(value))])

    with open(context_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["road_id", "slot_index", "weather_code", "holiday_flag", "day_of_week"])
        for road_id, ctx in enumerate(dataset.contexts):
            for slot in range(len(ctx.weather)):
                writer.writerow(
                    [road_id, slot, int(ctx.weather[slot]), int(ctx.holiday[slot]), int(ctx.day_of_week[slot])]
                )


def _parse_int(row_no: int, field_name: str, raw: str, path) -> int:
    try:
        return int(raw)
    except ValueError:
        raise SchemaError(f"{path}: row {row_no}: field {field_name!r} is not an integer: {raw!r}") from None


def _parse_float(row_no: int, field_name: str, raw: str, path) -> float:
    try:
        return float(raw)
    except ValueError:
        raise SchemaError(f"{path}: row {row_no}: field {field_name!r} is not a number: {raw!r}") from None


def load_graph(graph_path) -> RoadGraph:
    try:
        doc = json.loads(Path(graph_path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{graph_path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise SchemaError(f"{graph_path}: expected an object with 'nodes' and 'edges' arrays")
    nodes = []
    for k, entry in enumerate(doc["nodes"]):
        for key in ("id", "length_m", "road_type", "lanes", "traffic_lights", "interval_minutes"):
            if key not in entry:
                raise SchemaError(f"{graph_path}: node entry {k}: missing field {key!r}")
        nodes.append(
            RoadSegment(
                id=int(entry["id"]),
                length_m=float(entry["length_m"]),
                road_type=int(entry["road_type"]),
                lanes=int(entry["lanes"]),
                traffic_lights=int(entry["traffic_lights"]),
                interval_minutes=int(entry["interval_minutes"]),
            )
        )
    edges = [(int(a), int(b)) for a, b in doc["edges"]]
    return RoadGraph(nodes, edges)


def _load_rows(path, expected_header: list[str]) -> list[tuple[int, list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(no, row) for no, row in enumerate(reader, start=1) if row]
    if not rows:
        raise SchemaError(f"{path}: empty file")
    header_no, header = rows[0]
    if [h.strip() for h in header] != expected_header:
        raise SchemaError(f"{path}: row {header_no}: expected header {expected_header}, got {header}")
    for no, row in rows[1:]:
        if len(row) != len(expected_header):
            raise SchemaError(f"{path}: row {no}: expected {len(expected_header)} fields, got {len(row)}")
    return rows[1:]


def load_dataset(graph_path, series_path, context_path) -> TrafficDataset:
    """Load and cross-validate the three dataset files."""
    graph = load_graph(graph_path)
    n = graph.size

    per_road_speeds: dict[int, dict[int, float]] = {}
    for no, row in _load_rows(series_path, ["road_id", "slot_index", "speed_kmh"]):
        road = _parse_int(no, "road_id", row[0], series_path)
        slot = _parse_int(no, "slot_index", row[1], series_path)
        speed = _parse_float(no, "speed_kmh", row[2], series_path)
        if not 0 <= road < n:
            raise SchemaError(f"{series_path}: row {no}: road_id {road} not in graph")
        if not math.isfinite(speed):
            raise SchemaError(f"{series_path}: row {no}: field 'speed_kmh' is not finite: {row[2]!r}")
        if speed < 0:
            raise SchemaError(f"{series_path}: row {no}: negative speed {speed}")
        slots = per_road_speeds.setdefault(road, {})
        if slot in slots:
            raise SchemaError(f"{series_path}: row {no}: duplicate slot {slot} for road {road}")
        slots[slot] = speed

    missing = [i for i in range(n) if i not in per_road_speeds]
    if missing:
        raise MissingDataError(f"{series_path}: roads without any series: {missing}")

    span = None
    series = []
    for i in range(n):
        slots = per_road_speeds[i]
        count = len(slots)
        if sorted(slots) != list(range(count)):
            raise SchemaError(f"{series_path}: road {i}: slot indices must be contiguous from 0")
        road_span = count * graph.nodes[i].interval_minutes
        if span is None:
            span = road_span
        elif road_span != span:
            raise SchemaError(
                f"{series_path}: road {i}: {count} rows at interval "
                f"{graph.nodes[i].interval_minutes} min covers {road_span} min, "
                f"inconsistent with {span} min for earlier roads"
            )
        series.append(SpeedSeries(road_id=i, start_slot=0, values=np.array([slots[s] for s in range(count)])))
    if span is None or span % MINUTES_PER_DAY != 0:
        raise SchemaError(f"{series_path}: observation span {span} min is not whole days")

    per_road_ctx: dict[int, dict[int, tuple[int, int, int]]] = {}
    for no, row in _load_rows(
        context_path, ["road_id", "slot_index", "weather_code", "holiday_flag", "day_of_week"]
    ):
        road = _parse_int(no, "road_id", row[0], context_path)
        slot = _parse_int(no, "slot_index", row[1], context_path)
        weather = _parse_int(no, "weather_code", row[2], context_path)
        holiday = _parse_int(no, "holiday_flag", row[3], context_path)
        dow = _parse_int(no, "day_of_week", row[4], context_path)
        if not 0 <= road < n:
            raise SchemaError(f"{context_path}: row {no}: road_id {road} not in graph")
        if weather < 0:
            raise SchemaError(f"{context_path}: row {no}: weather_code must be >= 0")
        if holiday not in (0, 1):
            raise SchemaError(f"{context_path}: row {no}: holiday_flag must be 0 or 1")
        if not 0 <= dow <= 6:
            raise SchemaError(f"{context_path}: row {no}: day_of_week must be in 0..6")
        per_road_ctx.setdefault(road, {})[slot] = (weather, holiday, dow)

    contexts = []
    max_weather = 0
    for i in range(n):
        rows = per_road_ctx.get(i)
        expected = len(series[i])
        if rows is None:
            raise MissingDataError(f"{context_path}: road {i} has no context rows")
        if sorted(rows) != list(range(expected)):
            raise SchemaError(
                f"{context_path}: road {i}: context slots must match the series (0..{expected - 1})"
            )
        weather = np.array([rows[s][0] for s in range(expected)], dtype=np.int64)
        max_weather = max(max_weather, int(weather.max()))
        contexts.append(
            ContextFeatures(
                static=np.array([]),
                weather=weather,
                holiday=np.array([rows[s][1] for s in range(expected)], dtype=np.int64),
                day_of_week=np.array([rows[s][2] for s in range(expected)], dtype=np.int64),
            )
        )

    dataset = TrafficDataset(
        graph=graph,
        series=series,
        contexts=contexts,
        span_minutes=span,
        weather_code_count=max_weather + 1,
        road_type_count=max(node.road_type for node in graph.nodes) + 1,
    )
    _assemble_static_features(dataset)
    return dataset
