"""Road graph (with its hop layers, cached per hop count), heterogeneous speed
series and context codes, channel windows, and dataset files.

Series alignment convention: every series starts at midnight of day 0, so the
daily slot of index ``t`` is ``t % slots_per_day`` and no timestamp arithmetic
is needed anywhere.  A road observing every ``T`` minutes has
``1440 / T`` slots per day and seven times that per week.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
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


@dataclass
class RoadGraph:
    """Undirected road graph with dense node ids."""

    nodes: list[RoadSegment]
    edges: list[tuple[int, int]]
    _adjacency: list[set[int]] = field(init=False, repr=False)
    _hop_layers: dict[int, list[list[set[int]]]] = field(
        init=False, repr=False, compare=False, default_factory=dict)

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

    def hop_layers(self, hops: int) -> list[list[set[int]]]:
        """:func:`k_hop_neighbors` of every road, computed once per hop count."""
        if hops not in self._hop_layers:
            self._hop_layers[hops] = [k_hop_neighbors(self, road, hops) for road in range(self.size)]
        return self._hop_layers[hops]


@dataclass
class SpeedSeries:
    """Regularly spaced speed observations for one road."""

    road_id: int
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
class ContextFeatures:
    """The per-slot dynamic factor codes of one road."""

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


def compute_daily_average(values, slots_per_day: int, days=slice(None)) -> np.ndarray:
    """Per-slot mean over the days ``days`` selects (all by default) of a whole-day span."""
    values = np.asarray(values, dtype=np.float64)
    if slots_per_day < 1:
        raise ConfigError(f"slots_per_day must be >= 1, got {slots_per_day}")
    if len(values) == 0 or len(values) % slots_per_day != 0:
        raise MissingDataError(
            f"daily average needs whole days: length {len(values)} "
            f"is not a positive multiple of {slots_per_day}"
        )
    return values.reshape(-1, slots_per_day)[days].mean(axis=0)


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


def branch_indices(t, branch: str, steps: int, slots_per_day: int) -> np.ndarray:
    """The ``steps`` indices that history branch ``branch`` reads before ``t``:
    the slots just before it (``recent``), or the same slot of each of the
    previous ``steps`` days (``daily``) or weeks (``weekly``).  A ``(B,)``
    array of times gives ``(B, steps)``."""
    period = {"recent": 1, "daily": slots_per_day, "weekly": 7 * slots_per_day}[branch]
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


def build_temporal_inputs(values, daily_average: np.ndarray, t, branches: dict[str, int],
                          slots_per_day: int) -> dict[str, np.ndarray]:
    """The history branches ``{name: steps}`` (``ModelConfig.branches``)
    ending just before index ``t``, by name: ``recent`` stacks speed, trend,
    deviation and daily average as ``(..., steps, 4)``; ``daily`` and
    ``weekly`` stack speed, trend and deviation as ``(..., steps, 3)``.

    ``t`` is one time or a ``(B,)`` array of times.  Only indices strictly
    below ``t`` are ever read (trend additionally reads one step further
    back).  Raises naming the branch that lacks history and the earliest time.
    """
    out = {}
    for name, steps in branches.items():
        idx = branch_indices(t, name, steps, slots_per_day)
        if idx.size and idx.min() < 1:  # trend at index u reads u-1
            raise MissingDataError(
                f"{name} branch lacks history at t={np.min(t)}: needs index {idx.min()}, minimum is 1"
            )
        columns = [channel_window(values, daily_average, idx, ch) for ch in ("speed", "trend", "deviation")]
        if name == "recent":
            columns.append(daily_average[idx % slots_per_day])
        out[name] = np.stack(columns, axis=-1)
    return out


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
        series.append(SpeedSeries(road_id=i, values=values))
        days_of_slots = slot_minutes // MINUTES_PER_DAY
        contexts.append(
            ContextFeatures(
                weather=weather_minutely[slot_minutes].copy(),
                holiday=np.array([1 if d in holidays else 0 for d in days_of_slots], dtype=np.int64),
                day_of_week=(days_of_slots % 7).astype(np.int64),
            )
        )

    return TrafficDataset(
        graph=graph,
        series=series,
        contexts=contexts,
        span_minutes=total_minutes,
        weather_code_count=len(WEATHER_EFFECT),
        road_type_count=4,
    )


# ---------------------------------------------------------------------------
# File formats
#
# series.csv and context.csv are plain comma-separated text: an exact header,
# then one line per (road, slot), cells split at every comma with no quoting,
# numbers in Python ``int``/``float`` syntax.  numpy's C ``loadtxt`` reads an
# ASCII file whose first line is the header; any other file, and any file it
# refuses, is read row by row with ``int()``/``float()``.  Each rule is
# checked on whole arrays, and a failure names the earliest offending file
# line (1-based, blank lines counted) as a row-by-row reader would.

SERIES_HEADER = ["road_id", "slot_index", "speed_kmh"]
CONTEXT_HEADER = ["road_id", "slot_index", "weather_code", "holiday_flag", "day_of_week"]
NODE_FIELDS = {"id": int, "length_m": float, "road_type": int, "lanes": int,
               "traffic_lights": int, "interval_minutes": int}


def read_text(path, error: type = SchemaError) -> str:
    """The text of ``path`` read as UTF-8 (LF, CRLF and CR line ends become
    ``"\\n"``); bytes that are not UTF-8 raise ``error`` naming the file and
    the byte offset of the first one."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # read() decodes the whole file in one call
        raise error(f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
                    f"at offset {exc.start}") from None


def write_dataset(dataset: TrafficDataset, graph_path, series_path, context_path) -> None:
    """Write the three dataset files; output is byte-stable for a fixed dataset."""
    graph_doc = {
        "nodes": [{key: getattr(node, key) for key in NODE_FIELDS} for node in dataset.graph.nodes],
        "edges": [list(edge) for edge in dataset.graph.edges],
    }
    Path(graph_path).write_text(json.dumps(graph_doc, indent=2, sort_keys=True) + "\n")

    with open(series_path, "w", newline="") as fh:
        fh.write(",".join(SERIES_HEADER) + "\r\n")
        for s in dataset.series:
            fh.writelines(f"{s.road_id},{slot},{value!r}\r\n" for slot, value in enumerate(s.values.tolist()))

    with open(context_path, "w", newline="") as fh:
        fh.write(",".join(CONTEXT_HEADER) + "\r\n")
        for road_id, ctx in enumerate(dataset.contexts):
            codes = zip(ctx.weather.tolist(), ctx.holiday.tolist(), ctx.day_of_week.tolist())
            fh.writelines(f"{road_id},{slot},{w},{h},{d}\r\n" for slot, (w, h, d) in enumerate(codes))


def field_kind(f) -> type:
    """The JSON kind of config dataclass field ``f``, read from its default:
    ``list`` for a tuple or frozenset, ``int`` for ``None`` (an optional
    count or index), otherwise the default's type."""
    if isinstance(f.default, (tuple, frozenset)):
        return list
    return int if f.default is None else type(f.default)


def typed_value(value, kind: type, what: str):
    """``value`` if it is a ``kind``: ``int`` (not a boolean), ``float`` (any
    finite number), ``bool`` or ``list`` (of strings); otherwise a SchemaError
    saying ``what`` must be one."""
    if kind is bool or isinstance(value, bool):
        ok = kind is bool and isinstance(value, bool)
    elif kind is float:  # exact for ints too: 10**400 is no float64
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    elif kind is int:
        ok = isinstance(value, int)
    else:
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    if not ok:
        expected = {int: "an integer", float: "a finite number", bool: "a boolean",
                    list: "a list of strings"}[kind]
        raise SchemaError(f"{what} must be {expected}, got {value!r}")
    return value


def load_graph(graph_path) -> RoadGraph:
    try:
        doc = json.loads(read_text(graph_path))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{graph_path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or not all(isinstance(doc.get(key), list) for key in ("nodes", "edges")):
        raise SchemaError(f"{graph_path}: expected an object with 'nodes' and 'edges' arrays")
    nodes = []
    for k, entry in enumerate(doc["nodes"]):
        if not isinstance(entry, dict):
            raise SchemaError(f"{graph_path}: node entry {k}: expected an object, got {entry!r}")
        for key in NODE_FIELDS:
            if key not in entry:
                raise SchemaError(f"{graph_path}: node entry {k}: missing field {key!r}")
        nodes.append(RoadSegment(**{
            key: kind(typed_value(entry[key], kind, f"{graph_path}: node entry {k}: field {key!r}"))
            for key, kind in NODE_FIELDS.items()
        }))
    edges = []
    for k, edge in enumerate(doc["edges"]):
        if not (isinstance(edge, list) and len(edge) == 2
                and all(isinstance(v, int) and not isinstance(v, bool) for v in edge)):
            raise SchemaError(
                f"{graph_path}: edge entry {k}: expected a pair of integer node ids, got {edge!r}"
            )
        edges.append(tuple(edge))
    return RoadGraph(nodes, edges)


def _read_columns(path, header: list[str], kinds) -> tuple[list[np.ndarray], list]:
    """Each data column converted by its kind (``int`` into int64, ``float``
    into float64; rows from a column's first refused cell on are
    unspecified), and one row check per column with a refused cell (see
    :func:`_raise_earliest`).

    A file :func:`_loadtxt_takes` goes to ``np.loadtxt``, which then takes
    only cells ``int()``/``float()`` take, with the same values, and skips
    blank lines; any other file, and one it refuses for any reason (a cell
    such as ``3_0``, a field count, a byte that is not UTF-8), is read by
    :func:`_read_rows`."""
    if _loadtxt_takes(path, header):
        dtype = [(name, np.int64 if kind is int else np.float64) for name, kind in zip(header, kinds)]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a file with only the header
                table = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, skiprows=1,
                                   encoding="utf-8", ndmin=1)
            return [table[name] for name in header], []
        except ValueError:
            pass
    return _read_rows(path, header, kinds)


def _loadtxt_takes(path, header: list[str]) -> bool:
    """Whether ``path``'s first line is the header, ending in LF or CRLF, and
    every byte is ASCII but none of the separators 0x1c-0x1f, which
    ``loadtxt`` strips from a cell as spaces (as ``str.isspace`` counts
    them) but ``int()`` and ``float()`` refuse.  numpy 2.4's ``loadtxt``
    misreads some non-ASCII cells (a supplementary-plane character as an
    integer) and crashes on others."""
    data = Path(path).read_bytes()
    head = ",".join(header).encode()
    return (data.startswith((head + b"\n", head + b"\r\n")) and data.isascii()
            and not any(sep in data for sep in b"\x1c\x1d\x1e\x1f"))


def _lines(path) -> list[tuple[int, str]]:
    """The 1-based number and text of each non-blank line of ``path`` (the
    header, then the data rows); lines end in LF, CRLF or CR."""
    return [(no, line) for no, line in enumerate(read_text(path).split("\n"), 1) if line]


def _read_rows(path, header: list[str], kinds) -> tuple[list[np.ndarray], list]:
    """:func:`_read_columns` one row at a time: the first non-blank line is
    the header (spaces around a name ignored), every data row must have one
    cell per name, and each column goes through :func:`_each_cell`."""
    lines = _lines(path)
    if not lines:
        raise SchemaError(f"{path}: empty file")
    (no, first), *lines = lines
    got = first.split(",")
    if [h.strip() for h in got] != header:
        raise SchemaError(f"{path}: row {no}: expected header {header}, got {got}")
    rows = [line.split(",") for _, line in lines]
    for (no, _), cells in zip(lines, rows):
        if len(cells) != len(header):
            raise SchemaError(f"{path}: row {no}: expected {len(header)} fields, got {len(cells)}")
    columns, checks = [], []
    for j, (name, kind) in enumerate(zip(header, kinds)):
        values, first = _each_cell(kind, [cells[j] for cells in rows])
        columns.append(values)
        if first < len(values):
            checks.append(([first], lambda i, cells, n=name, j=j, k=kind: _refusal(n, cells[j], k)))
    return columns, checks


def _each_cell(kind: type, cells: list[str]) -> tuple[np.ndarray, int]:
    """``kind`` of each cell, as int64 or float64, converting each distinct
    cell once, and the first row ``kind`` refuses or 64 bits cannot hold,
    ``len(cells)`` if none."""
    values = np.zeros(len(cells), np.int64 if kind is int else np.float64)
    converted = {}
    for i, cell in enumerate(cells):
        try:
            value = converted.get(cell)
            if value is None:
                value = converted[cell] = kind(cell)
            values[i] = value
        except (ValueError, OverflowError):
            return values, i
    return values, len(cells)


def _refusal(name: str, raw: str, kind: type) -> str:
    try:
        kind(raw)
    except ValueError:
        return f"field {name!r} is not {'an integer' if kind is int else 'a number'}: {raw!r}"
    return f"field {name!r} is outside the 64-bit integer range: {raw!r}"


def _raise_earliest(path, checks: list) -> None:
    """``checks`` pairs, in the order one row is checked, the indices of the
    data rows a rule refuses with that rule's message for a row index and
    that row's cells; raise a SchemaError for the earliest refused row,
    naming its file line.  Only then is the file read again, for the line's
    number and cells."""
    firsts = [(int(np.min(rows)), k) for k, (rows, _) in enumerate(checks) if len(rows)]
    if firsts:
        i, k = min(firsts)
        no, line = _lines(path)[i + 1]
        raise SchemaError(f"{path}: row {no}: {checks[k][1](i, line.split(','))}")


def _repeats(road: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """Indices of the rows whose (road, slot) an earlier row already has."""
    if np.all((road[1:] > road[:-1]) | ((road[1:] == road[:-1]) & (slot[1:] > slot[:-1]))):
        return np.empty(0, dtype=np.int64)  # keys strictly increase, as written
    order = np.lexsort((slot, road))  # stable: equal keys stay in file order
    road, slot = road[order], slot[order]
    return order[1:][(road[1:] == road[:-1]) & (slot[1:] == slot[:-1])]


def _per_road(values: np.ndarray, positions: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """``values`` placed at ``positions`` and split into one array per road."""
    out = np.empty_like(values)
    out[positions] = values
    return np.split(out, np.cumsum(counts)[:-1])


def load_dataset(graph_path, series_path, context_path) -> TrafficDataset:
    """Load and cross-validate the three dataset files."""
    graph = load_graph(graph_path)
    n = graph.size
    intervals = np.array([node.interval_minutes for node in graph.nodes], dtype=np.int64)

    (road, slot, speed), refused = _read_columns(series_path, SERIES_HEADER, (int, int, float))
    _raise_earliest(series_path, refused + [
        (np.flatnonzero((road < 0) | (road >= n)), lambda i, _: f"road_id {road[i]} not in graph"),
        (np.flatnonzero(~np.isfinite(speed)), lambda i, cells: f"field 'speed_kmh' is not finite: {cells[2]!r}"),
        (np.flatnonzero(speed < 0), lambda i, _: f"negative speed {float(speed[i])}"),
        (_repeats(road, slot), lambda i, _: f"duplicate slot {slot[i]} for road {road[i]}"),
    ])
    counts = np.bincount(road, minlength=n)
    missing = np.flatnonzero(counts == 0).tolist()
    if missing:
        raise MissingDataError(f"{series_path}: roads without any series: {missing}")
    # Slots are distinct per road, so they are 0..count-1 iff none is outside.
    gapped = np.bincount(road[(slot < 0) | (slot >= counts[road])], minlength=n) > 0
    spans = counts * intervals
    bad = np.flatnonzero(gapped | (spans != spans[:1]))
    if bad.size:
        i = bad[0]
        if gapped[i]:
            raise SchemaError(f"{series_path}: road {i}: slot indices must be contiguous from 0")
        raise SchemaError(
            f"{series_path}: road {i}: {counts[i]} rows at interval {intervals[i]} min covers "
            f"{spans[i]} min, inconsistent with {spans[0]} min for earlier roads"
        )
    span = int(spans[0]) if n else None
    if span is None or span % MINUTES_PER_DAY != 0:
        raise SchemaError(f"{series_path}: observation span {span} min is not whole days")
    starts = np.cumsum(counts) - counts
    series = [
        SpeedSeries(road_id=i, values=values)
        for i, values in enumerate(_per_road(speed, starts[road] + slot, counts))
    ]

    (road, slot, weather, holiday, dow), refused = _read_columns(context_path, CONTEXT_HEADER, (int,) * 5)
    _raise_earliest(context_path, refused + [
        (np.flatnonzero((road < 0) | (road >= n)), lambda i, _: f"road_id {road[i]} not in graph"),
        (np.flatnonzero(weather < 0), lambda i, _: "weather_code must be >= 0"),
        (np.flatnonzero((holiday != 0) & (holiday != 1)), lambda i, _: "holiday_flag must be 0 or 1"),
        (np.flatnonzero((dow < 0) | (dow > 6)), lambda i, _: "day_of_week must be in 0..6"),
        (_repeats(road, slot), lambda i, _: f"duplicate slot {slot[i]} for road {road[i]}"),
    ])
    present = np.bincount(road, minlength=n)
    outside = np.bincount(road[(slot < 0) | (slot >= counts[road])], minlength=n) > 0
    bad = np.flatnonzero((present != counts) | outside)
    if bad.size:
        i = bad[0]
        if present[i] == 0:
            raise MissingDataError(f"{context_path}: road {i} has no context rows")
        raise SchemaError(
            f"{context_path}: road {i}: context slots must match the series (0..{counts[i] - 1})"
        )
    positions = starts[road] + slot
    contexts = [
        ContextFeatures(weather=w, holiday=h, day_of_week=d)
        for w, h, d in zip(*(_per_road(codes, positions, counts) for codes in (weather, holiday, dow)))
    ]
    return TrafficDataset(
        graph=graph,
        series=series,
        contexts=contexts,
        span_minutes=span,
        weather_code_count=int(weather.max()) + 1,
        road_type_count=max(node.road_type for node in graph.nodes) + 1,
    )
