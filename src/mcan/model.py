"""Full prediction model: three spatial-correlation channels, three temporal
LSTMs, contextual encoders, attention fusion, prediction heads, and the
training loss.

The fused components are named: one per measurement channel
(``ModelConfig.channels``), one per temporal branch
(``ModelConfig.branches``), then ``static`` and ``dynamic``.  Parameters,
inputs and :func:`fusion_components` are keyed by those names, in that
order; an ablation drops its names.

Samples are (road, time-index) pairs.  A sample at index ``t`` reads history
strictly before ``t`` and predicts the speeds at ``t .. t+H-1``; the trend and
deviation channels additionally supervise their value at ``t`` itself.
:func:`read_spans` tabulates those ranges once from the dataset's graph, for
eligibility and the leak filter.  A batch of samples of any target roads is one
:class:`GroupInputs` and one forward graph; a single sample is a batch of one
row, whose context factors are gathered from the dataset at its own indices.
"""

from __future__ import annotations

import base64
import json
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import graphdata as gd
from . import hsc as hsc_mod
from . import nnlayers as nn
from .autodiff import DiffValue
from .errors import ConfigError, MissingDataError, SchemaError, ShapeMismatch
from .hsc import ChannelInputs, HscParams
from .nnlayers import AttentionParams, Dropout, FnnParams, LstmStack

ABLATION_FLAGS = ("ntr", "nde", "nd", "nw", "nemb")
ABLATION_NAMES = ("ntr", "nde", "ntr-nde", "nd", "nw", "nd-nw", "nemb")


def parse_ablations(names) -> frozenset[str]:
    """Expand ablation names (including the combined forms) into flag sets."""
    flags: set[str] = set()
    for name in names:
        parts = name.split("-") if name in ABLATION_NAMES else [name]
        if name not in ABLATION_NAMES or any(p not in ABLATION_FLAGS for p in parts):
            raise ConfigError(
                f"unknown ablation flag {name!r}; valid flags: {', '.join(ABLATION_NAMES)}"
            )
        flags.update(parts)
    return frozenset(flags)


@dataclass(frozen=True)
class ArchitectureConfig:
    """Architecture knobs and loss weights, declared once for
    :class:`ModelConfig` and ``trainer.TrainConfig``."""

    horizon: int = 6
    recent_steps: int = 6
    daily_steps: int = 4
    weekly_steps: int = 2
    embed_len: int = 12
    hops: int = 2
    filters: int = 8
    cpa_order: int = 5
    gcn_order: int = 5
    hidden_size: int = 36
    lstm_layers: int = 3
    fnn_layers: int = 3
    alpha: float = 0.2
    beta: float = 0.2


@dataclass(frozen=True)
class ModelConfig(ArchitectureConfig):
    """Architecture knobs plus the dataset-derived encoder widths."""

    ablations: frozenset[str] = frozenset()
    weather_code_count: int = 3
    road_type_count: int = 4

    def validate(self) -> None:
        for name in ("horizon", "recent_steps", "embed_len", "hops", "filters",
                     "cpa_order", "gcn_order", "hidden_size", "lstm_layers", "fnn_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.daily_steps < 0 or self.weekly_steps < 0:
            raise ConfigError("daily_steps and weekly_steps must be >= 0")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("loss weights alpha and beta must be >= 0")
        unknown = set(self.ablations) - set(ABLATION_FLAGS)
        if unknown:
            raise ConfigError(f"unknown ablation flags {sorted(unknown)}")

    @property
    def use_trend(self) -> bool:
        return "ntr" not in self.ablations

    @property
    def use_deviation(self) -> bool:
        return "nde" not in self.ablations

    @property
    def use_embedding(self) -> bool:
        return "nemb" not in self.ablations

    def channels(self) -> list[str]:
        out = ["speed"]
        if self.use_trend:
            out.append("trend")
        if self.use_deviation:
            out.append("deviation")
        return out

    def branches(self) -> dict[str, int]:
        """``{name: steps}`` of the enabled temporal branches, in fusion order."""
        steps = {"recent": self.recent_steps, "daily": self.daily_steps, "weekly": self.weekly_steps}
        ablated = {"daily": "nd", "weekly": "nw"}
        return {name: n for name, n in steps.items() if n > 0 and ablated.get(name) not in self.ablations}

    @property
    def static_width(self) -> int:
        return static_vector_width(self.road_type_count)

    @property
    def dynamic_width(self) -> int:
        return dynamic_factors_width(self.weather_code_count)


@dataclass
class McanParams:
    """Complete learnable state.  The spatial channels and temporal branches
    are keyed by name, ``config.channels()`` and ``config.branches()`` in that
    order; disabled ones hold no parameters.  Every leaf's ``data`` and
    ``grad`` are views of the ``theta`` and ``grad`` vectors, in
    :func:`named_parameters` order."""

    config: ModelConfig
    hsc: dict[str, HscParams]
    msc_heads: dict[str, FnnParams]
    temporal: dict[str, LstmStack]
    context_static: FnnParams
    context_dynamic: LstmStack
    fusion: AttentionParams
    output_head: FnnParams
    theta: np.ndarray = field(init=False, repr=False)
    grad: np.ndarray = field(init=False, repr=False)


def init_mcan(config: ModelConfig, rng: np.random.Generator) -> McanParams:
    config.validate()
    hidden = config.hidden_size
    fnn_hidden = [hidden] * (config.fnn_layers - 1)
    hsc: dict[str, HscParams] = {}
    msc_heads: dict[str, FnnParams] = {}
    for channel in config.channels():
        hsc[channel] = hsc_mod.init_hsc(
            rng,
            embed_len=config.embed_len,
            filters=config.filters,
            cpa_order=config.cpa_order,
            gcn_order=config.gcn_order,
            hidden_size=hidden,
            lstm_layers=config.lstm_layers,
            fnn_hidden=fnn_hidden,
            out_width=1,
            use_embedding=config.use_embedding,
        )
        head_in = 1 if channel == "speed" else 2
        msc_heads[channel] = nn.init_fnn(rng, head_in, fnn_hidden, hidden)
    params = McanParams(
        config=config,
        hsc=hsc,
        msc_heads=msc_heads,
        temporal={name: nn.init_lstm_stack(rng, 4 if name == "recent" else 3, hidden, config.lstm_layers)
                  for name in config.branches()},
        context_static=nn.init_fnn(rng, config.static_width, fnn_hidden, hidden),
        context_dynamic=nn.init_lstm_stack(rng, config.dynamic_width, hidden, config.lstm_layers),
        fusion=nn.init_attention(rng, hidden, hidden),
        output_head=nn.init_fnn(rng, hidden, fnn_hidden, config.horizon),
    )
    params.theta, params.grad = ad.pack([p for _, p in named_parameters(params)])
    return params


def _lstm_parameters(prefix: str, stack: LstmStack):
    for k, cell in enumerate(stack.cells):
        yield f"{prefix}.{k}.w", cell.w


def _fnn_parameters(prefix: str, params: FnnParams):
    for k, layer in enumerate(params.layers):
        yield f"{prefix}.{k}.weight", layer.weight
        yield f"{prefix}.{k}.bias", layer.bias


def named_parameters(params: McanParams):
    """Deterministic (name, value) walk over every learnable leaf."""
    for channel in params.config.channels():
        h = params.hsc[channel]
        base = f"hsc_{channel}"
        if h.cpa is not None:
            yield f"{base}.cpa.coefficients", h.cpa.coefficients
        yield f"{base}.gcn.correlation", h.gcn.correlation
        yield f"{base}.gcn.kernel", h.gcn.kernel
        yield from _lstm_parameters(f"{base}.lstm_self", h.lstm_self)
        yield from _lstm_parameters(f"{base}.lstm_neigh", h.lstm_neigh)
        yield from _fnn_parameters(f"{base}.head", h.head)
        yield from _fnn_parameters(f"msc_{channel}_head", params.msc_heads[channel])
    for name, stack in params.temporal.items():
        yield from _lstm_parameters(f"lstm_{name}", stack)
    yield from _fnn_parameters("context_static", params.context_static)
    yield from _lstm_parameters("context_dynamic", params.context_dynamic)
    yield "fusion.projection", params.fusion.projection
    yield "fusion.query", params.fusion.query
    yield from _fnn_parameters("output_head", params.output_head)


def first_nonfinite(params: McanParams, grads: bool = False) -> str | None:
    """Name of the first leaf in :func:`named_parameters` order holding a
    non-finite value (with ``grads``, ``"grad of <name>"`` when only its
    gradient does), or None."""
    for name, p in named_parameters(params):
        if not np.isfinite(p.data).all():
            return name
        if grads and not np.isfinite(p.grad).all():
            return f"grad of {name}"
    return None


# ---------------------------------------------------------------------------
# Data view: what fitting produced for a dataset


@dataclass
class DataView:
    """A dataset's (optionally normalized) speeds, frozen per-slot daily
    averages in the same space, and the stats that undo the normalization."""

    dataset: gd.TrafficDataset
    values: list[np.ndarray]
    ybar: list[np.ndarray]
    means: np.ndarray
    stds: np.ndarray

    @property
    def graph(self) -> gd.RoadGraph:
        return self.dataset.graph

    def slots_per_day(self, road: int) -> int:
        return self.graph.nodes[road].slots_per_day

    def interval(self, road: int) -> int:
        return self.graph.nodes[road].interval_minutes

    def denormalize(self, road: int, values: np.ndarray) -> np.ndarray:
        return values * self.stds[road] + self.means[road]


def build_view(
    dataset: gd.TrafficDataset,
    means: np.ndarray | None = None,
    stds: np.ndarray | None = None,
    ybar: list[np.ndarray] | None = None,
    days=slice(None),
) -> DataView:
    """Raw view by default.  The trainer passes fitted normalization stats
    and ``days``, the training-day mask the frozen daily averages are taken
    over; a checkpoint's view passes its stored ``ybar`` instead.  ``ybar``
    entries are in the same (normalized) space as the transformed values."""
    n = dataset.graph.size
    if means is None:
        means = np.zeros(n)
    if stds is None:
        stds = np.ones(n)
    values = [(s.values - means[i]) / stds[i] for i, s in enumerate(dataset.series)]
    if ybar is None:
        ybar = [
            gd.compute_daily_average(values[i], dataset.graph.nodes[i].slots_per_day, days)
            for i in range(n)
        ]
    return DataView(dataset=dataset, values=values, ybar=ybar,
                    means=np.asarray(means, dtype=np.float64), stds=np.asarray(stds, dtype=np.float64))


# ---------------------------------------------------------------------------
# Read spans: the one statement of what a sample reads


def read_spans(dataset: gd.TrafficDataset, config: ModelConfig, road: int) -> np.ndarray:
    """The span table of the samples ``(road, t)``: one ``(j, a, b, first,
    last)`` int64 row per index range of road ``j`` that a sample reads or
    predicts, inclusive from ``hour_window_end(t, a, b) + first`` to
    ``+ last`` (:func:`hsc.hour_window_end`, with ``a`` the target road's
    interval and ``b`` road j's).  The rows are the targets, the recent
    block, each daily and weekly point, and each involved road's past-hour
    window, every read range with the predecessor its trend reads."""
    nodes = dataset.graph.nodes
    own = nodes[road].interval_minutes
    rows = [(road, own, own, 0, config.horizon - 1)]
    for name, steps in config.branches().items():
        points = gd.branch_indices(0, name, steps, nodes[road].slots_per_day)
        # the recent slots are one contiguous run, each periodic point its own
        runs = [points] if name == "recent" else points[:, None]
        rows += [(road, own, own, run[0] - 1, run[-1]) for run in runs]
    for j in sorted({road}.union(*dataset.graph.hop_layers(config.hops)[road])):
        b = nodes[j].interval_minutes
        rows.append((j, own, b, -hsc_mod.hour_window_length(b) - 1, -1))
    return np.array(rows, dtype=np.int64)


def eligible_times(dataset: gd.TrafficDataset, config: ModelConfig, road: int) -> np.ndarray:
    """Sample times whose every read span lies inside its road's series: the
    intersection of each span's in-series times
    (:func:`hsc.hour_window_end_times`).  The target span starts at ``t``
    and ends ``horizon - 1`` later, so the result lies inside the road's
    own series."""
    j, a, b, first, last = read_spans(dataset, config, road).T
    lengths = np.array([len(dataset.series[r]) for r in j])
    start, stop = hsc_mod.hour_window_end_times(-first, lengths - 1 - last, a, b)
    return np.arange(start.max(), stop.min())


# ---------------------------------------------------------------------------
# Batched input assembly


@dataclass
class GroupInputs:
    """Stacked model inputs for samples ``(roads[i], times[i])``, grouped by
    the target road's interval class, then by road; ``positions[i]`` is row
    i's place in the samples given to :func:`assemble_group`.  ``channels``
    and ``temporal`` hold the enabled channels and branches by name."""

    roads: np.ndarray
    times: np.ndarray
    positions: np.ndarray
    channels: dict[str, ChannelInputs]
    prev_speed: np.ndarray  # (B, 1)
    ybar_at_t: np.ndarray  # (B, 1)
    temporal: dict[str, np.ndarray]  # config.branches(): (B, steps, 4) recent, (B, steps, 3) others
    static: np.ndarray  # (B, static_width)
    dynamic: np.ndarray  # (B, recent_steps, dynamic_width)
    target_speed: np.ndarray  # (B, horizon)
    target_trend: np.ndarray | None  # (B, 1)
    target_deviation: np.ndarray | None  # (B, 1)

    def take(self, rows: np.ndarray) -> GroupInputs:
        """The rows ``rows`` of every input, in that order."""
        return _zip_inputs(lambda arrays: arrays[0][rows], [self])


def _zip_inputs(fn, parts: list):
    """``fn`` of each list of corresponding arrays in nested inputs (None stays None)."""
    first = parts[0]
    if first is None:
        return None
    if is_dataclass(first):
        return type(first)(**{f.name: _zip_inputs(fn, [getattr(p, f.name) for p in parts])
                              for f in fields(first)})
    if isinstance(first, dict):
        return {k: _zip_inputs(fn, [p[k] for p in parts]) for k in first}
    return fn(parts)


def _stack_rows(arrays: list[np.ndarray]) -> np.ndarray:
    """Concatenate along rows, zero-padding raw windows and neighbor slots to
    the widest part."""
    shape = np.max([a.shape for a in arrays], axis=0)
    shape[0] = sum(len(a) for a in arrays)
    out = np.zeros(shape, dtype=np.result_type(*arrays))
    start = 0
    for a in arrays:
        out[(slice(start, start + len(a)),) + tuple(slice(0, n) for n in a.shape[1:])] = a
        start += len(a)
    return out


def assemble_group(view: DataView, config: ModelConfig, roads, times) -> GroupInputs:
    """Stack every input of the samples ``(roads[i], times[i])`` (one road
    stands for all), reordered stably by interval class and road.  Each
    road's index sets are one ``(B_r, L)`` array and each channel one gather."""
    times = np.asarray(times, dtype=int)
    roads = np.broadcast_to(np.asarray(roads, dtype=int), times.shape)
    intervals = np.array([view.interval(r) for r in range(view.graph.size)])
    order = np.lexsort((roads, intervals[roads]))
    cuts = np.flatnonzero(np.diff(roads[order])) + 1
    parts = [_assemble_road(view, config, int(roads[rows[0]]), times[rows], rows)
             for rows in np.split(order, cuts)]
    return parts[0] if len(parts) == 1 else _zip_inputs(_stack_rows, parts)


def static_vector_width(road_type_count: int) -> int:
    """Width of :func:`static_vector`: length, one-hot road type, lanes, traffic lights."""
    return 1 + road_type_count + 2


def dynamic_factors_width(weather_code_count: int) -> int:
    """Width of :func:`dynamic_factors`: one-hot weather, holiday, slot of day,
    one-hot day of week."""
    return weather_code_count + 1 + 1 + 7


def static_vector(node: gd.RoadSegment, road_type_count: int) -> np.ndarray:
    """A road's static factors: length in km, one-hot road type, lanes and
    traffic lights."""
    out = np.zeros(static_vector_width(road_type_count))
    out[[0, -2, -1]] = node.length_m / 1000.0, node.lanes, node.traffic_lights
    out[1 + node.road_type] = 1.0
    return out


def dynamic_factors(ctx: gd.ContextFeatures, idx: np.ndarray, slots_per_day: int,
                    weather_code_count: int) -> np.ndarray:
    """The dynamic factors of a road's slots ``idx`` (any shape), one row per
    slot: one-hot weather (codes past the last clipped to it), holiday flag,
    slot of day over slots per day, one-hot day of week."""
    flat, rows = idx.ravel(), np.arange(idx.size)
    out = np.zeros((idx.size, dynamic_factors_width(weather_code_count)))
    out[rows, np.minimum(ctx.weather[flat], weather_code_count - 1)] = 1.0
    out[:, weather_code_count] = ctx.holiday[flat]
    out[:, weather_code_count + 1] = (flat % slots_per_day) / slots_per_day
    out[rows, weather_code_count + 2 + ctx.day_of_week[flat]] = 1.0
    return out.reshape(idx.shape + out.shape[1:])


def _assemble_road(view: DataView, config: ModelConfig, road: int, times: np.ndarray,
                   positions: np.ndarray) -> GroupInputs:
    dataset = view.dataset
    values = view.values[road]
    ybar = view.ybar[road]
    spd = view.slots_per_day(road)
    interval = view.interval(road)

    temporal = gd.build_temporal_inputs(values, ybar, times, config.branches(), spd)
    channels = config.channels()
    batch, c = len(times), config.embed_len

    def windows(j: int) -> dict[str, np.ndarray]:
        idx = hsc_mod.hour_window_indices(times, interval, view.interval(j))
        return {ch: gd.channel_window(view.values[j], view.ybar[j], idx, ch) for ch in channels}

    def spread(w: np.ndarray) -> np.ndarray:
        return hsc_mod.spread_windows(w, c, config.use_embedding)

    target = windows(road)
    layers = [sorted(layer) for layer in dataset.graph.hop_layers(config.hops)[road]]
    slots = (len(layers), max(map(len, layers)))  # (K, N): hop k's neighbors first in row k
    slot_lengths = np.zeros(slots, dtype=int)
    hops = {ch: np.zeros((batch,) + slots + (c,)) for ch in channels}
    for k, layer in enumerate(layers):
        for n, j in enumerate(layer):
            slot_lengths[k, n] = hsc_mod.hour_window_length(view.interval(j))
            for ch, w in windows(j).items():
                hops[ch][:, k, n] = spread(w)
    hop_lengths = np.tile(slot_lengths, (batch, 1, 1))
    inputs = {
        ch: ChannelInputs(
            windows=target[ch],
            lengths=np.full(batch, target[ch].shape[1]),
            target=spread(target[ch]),
            hops=hops[ch],
            hop_lengths=hop_lengths,
        )
        for ch in channels
    }

    horizon_idx = times[:, None] + np.arange(config.horizon)[None, :]
    if horizon_idx.max() >= len(values):
        raise MissingDataError(
            f"road {road}: sample at t={times.max()} needs {config.horizon} future values"
        )
    recent = gd.branch_indices(times, "recent", config.recent_steps, spd)
    targets = {ch: gd.channel_window(values, ybar, times, ch)[:, None] for ch in channels}
    return GroupInputs(
        roads=np.full(batch, road),
        times=times,
        positions=positions,
        channels=inputs,
        prev_speed=values[times - 1].reshape(-1, 1),
        ybar_at_t=ybar[times % spd].reshape(-1, 1),
        temporal=temporal,
        static=np.tile(static_vector(dataset.graph.nodes[road], dataset.road_type_count), (batch, 1)),
        dynamic=dynamic_factors(dataset.contexts[road], recent, spd, dataset.weather_code_count),
        target_speed=values[horizon_idx],
        target_trend=targets.get("trend"),
        target_deviation=targets.get("deviation"),
    )


# ---------------------------------------------------------------------------
# Forward passes


def fusion_components(params: McanParams, gi: GroupInputs, drop: Dropout | None = None):
    """The enabled fusion components by name, in fusion order (channels,
    temporal branches, static, dynamic), plus the raw channel outputs that
    the loss reads."""
    config = params.config
    components: dict[str, DiffValue] = {}
    outputs: dict[str, DiffValue] = {}
    for ch in config.channels():
        outputs[ch] = hsc_mod.hsc_forward_batch(params.hsc[ch], gi.channels[ch], drop)
        given = {"trend": gi.prev_speed, "deviation": gi.ybar_at_t}.get(ch)
        head_in = [outputs[ch]] if given is None else [outputs[ch], given]
        components[ch] = nn.fnn_forward(params.msc_heads[ch], head_in, drop)
    for name, steps in config.branches().items():
        got = gi.temporal[name].shape[1] if name in gi.temporal else 0
        if got != steps:
            raise ShapeMismatch(f"{name} input has {got} steps, expected {steps}")
        components[name] = nn.lstm_sequence(params.temporal[name], gi.temporal[name].transpose(1, 0, 2), drop)
    components["static"] = nn.fnn_forward(params.context_static, [gi.static], drop)
    components["dynamic"] = nn.lstm_sequence(params.context_dynamic, gi.dynamic.transpose(1, 0, 2), drop)
    return components, outputs


def forward_group(params: McanParams, gi: GroupInputs, drop: Dropout | None = None):
    """Batched forward: returns (speed (B,H), trend (B,1)|None, deviation (B,1)|None)."""
    components, channel_outputs = fusion_components(params, gi, drop)
    fused = nn.attention_fuse(params.fusion, list(components.values()))
    speed = nn.fnn_forward(params.output_head, [fused], drop)
    return speed, channel_outputs.get("trend"), channel_outputs.get("deviation")


# ---------------------------------------------------------------------------
# Loss


def loss_batch(
    speed_pred: DiffValue,
    speed_target: np.ndarray,
    trend_pred: DiffValue | None,
    trend_target: np.ndarray | None,
    deviation_pred: DiffValue | None,
    deviation_target: np.ndarray | None,
    alpha: float,
    beta: float,
) -> DiffValue:
    """Squared speed error plus weighted trend/deviation terms, summed over
    the batch, as one node."""
    if speed_pred.data.shape != np.shape(speed_target):
        raise ShapeMismatch(
            f"loss: speed prediction {speed_pred.data.shape} vs target {np.shape(speed_target)}"
        )
    terms = [(speed_pred, speed_target, None)]  # (prediction, target, weight)
    for pred, target, weight, name in (
        (trend_pred, trend_target, alpha, "trend"),
        (deviation_pred, deviation_target, beta, "deviation"),
    ):
        if pred is None:
            continue
        if target is None or pred.data.shape != np.shape(target):
            raise ShapeMismatch(f"loss: {name} prediction/target length mismatch")
        terms.append((pred, target, weight))
    errors = [pred.data - np.asarray(target, dtype=np.float64) for pred, target, _ in terms]
    total = np.sum(errors[0] * errors[0])
    for error, (_, _, weight) in zip(errors[1:], terms[1:]):
        total = total + np.sum(error * error) * weight

    def backward(g):
        for error, (pred, _, weight) in zip(errors, terms):
            ad._accumulate(pred, (g if weight is None else g * weight) * 2.0 * error)

    return ad._node(np.asarray(total), tuple(pred for pred, _, _ in terms), backward)


# ---------------------------------------------------------------------------
# Checkpoints


CHECKPOINT_VERSION = 4


def save_checkpoint(path, params: McanParams, means: np.ndarray, stds: np.ndarray,
                    ybar: list[np.ndarray], extra_config: dict | None = None) -> None:
    """Write the checkpoint: the config echo, the ``[name, shape]`` index of
    :func:`named_parameters`, ``theta`` as the base64 of its little-endian
    float64 bytes, and the fitted normalization and daily-average state."""
    config = params.config
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "config": {
            **{f.name: getattr(config, f.name) for f in fields(ModelConfig)},
            "ablations": sorted(config.ablations),
            **(extra_config or {}),
        },
        "parameters": _parameter_index(params),
        "theta": base64.b64encode(params.theta.astype("<f8", copy=False).tobytes()).decode("ascii"),
        "state": {
            "mean": np.asarray(means).tolist(),
            "std": np.asarray(stds).tolist(),
            "daily_average": {str(road): y.tolist() for road, y in enumerate(ybar)},
        },
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _parameter_index(params: McanParams) -> list:
    """``[name, shape]`` of every leaf, in :func:`named_parameters` order: the
    slices of ``theta``."""
    return [[name, list(p.data.shape)] for name, p in named_parameters(params)]


def _entry(mapping, key: str, path, where: str = ""):
    """``mapping[key]``, or a SchemaError naming the missing checkpoint key."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise SchemaError(f"{path}: checkpoint is missing key {where + key!r}")
    return mapping[key]


def config_entry(cfg, key: str, kind: type, path):
    """``cfg[key]`` of a checkpoint's config echo, checked to be a ``kind`` by
    :func:`graphdata.typed_value`; a SchemaError names the key otherwise."""
    return gd.typed_value(_entry(cfg, key, path, "config."), kind,
                          f"{path}: checkpoint key 'config.{key}'")


def _numbers(mapping, key: str, path, where: str) -> np.ndarray:
    """``mapping[key]`` as float64, or a SchemaError naming the checkpoint key
    unless it is a flat list of numbers that float64 can hold."""
    value = _entry(mapping, key, path, where)
    if not (isinstance(value, list)
            and all(type(v) is float or (type(v) is int and abs(v) <= sys.float_info.max) for v in value)):
        raise SchemaError(f"{path}: checkpoint key {where + key!r} must be a flat list of numbers")
    return np.asarray(value, dtype=np.float64)


def load_checkpoint(path):
    """Returns (params, means, stds, ybar, config echo dict).

    Every key the loader reads is checked first; a missing or wrongly typed
    one, a config echo that ``ModelConfig.validate`` refuses, a parameter
    index other than the echo's, or a ``theta`` that is not the base64 of
    exactly its float64 values raises :class:`SchemaError` naming the file.
    """
    try:
        doc = json.loads(gd.read_text(path))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid checkpoint JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: checkpoint must be a JSON object")
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise SchemaError(
            f"{path}: unsupported checkpoint format version {doc.get('format_version')}"
        )
    cfg = _entry(doc, "config", path)
    values = {f.name: config_entry(cfg, f.name, gd.field_kind(f), path) for f in fields(ModelConfig)}
    config = ModelConfig(**{**values, "ablations": frozenset(values["ablations"])})
    try:
        params = init_mcan(config, np.random.default_rng(0))
    except ConfigError as exc:
        raise SchemaError(f"{path}: invalid checkpoint config: {exc}") from None
    index = _entry(doc, "parameters", path)
    if not isinstance(index, list):
        raise SchemaError(f"{path}: checkpoint key 'parameters' must be a list of [name, shape] pairs")
    # compared as JSON text, where 1, 1.0 and true differ
    pairs = zip_longest(map(json.dumps, index), map(json.dumps, _parameter_index(params)), fillvalue="absent")
    for k, (got, want) in enumerate(pairs):
        if got != want:
            raise SchemaError(f"{path}: checkpoint key 'parameters' entry {k} is {got}, expected {want}")
    try:
        raw = base64.b64decode(_entry(doc, "theta", path), validate=True)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: checkpoint key 'theta' is not a base64 string: {exc}") from None
    if len(raw) != 8 * params.theta.size:
        raise SchemaError(f"{path}: checkpoint key 'theta' holds {len(raw)} bytes, expected "
                          f"{8 * params.theta.size} ({params.theta.size} float64 values)")
    params.theta[:] = np.frombuffer(raw, dtype="<f8")
    if not np.isfinite(params.theta).all():
        raise SchemaError(f"{path}: parameter {first_nonfinite(params)!r} has a non-finite value")
    state = _entry(doc, "state", path)
    means, stds = (_numbers(state, key, path, "state.") for key in ("mean", "std"))
    if len(stds) != len(means):
        raise SchemaError(f"{path}: checkpoint key 'state.std' has {len(stds)} entries, "
                          f"'state.mean' has {len(means)}")
    daily = _entry(state, "daily_average", path, "state.")
    ybar = [_numbers(daily, str(road), path, "state.daily_average.") for road in range(len(means))]
    scaler = {"state.mean": means, "state.std": stds,
              **{f"state.daily_average.{road}": y for road, y in enumerate(ybar)}}
    for key, values in scaler.items():
        if not np.isfinite(values).all():
            raise SchemaError(f"{path}: checkpoint key {key!r} has a non-finite value")
    if np.any(stds <= 0):
        raise SchemaError(f"{path}: checkpoint key 'state.std' has a value <= 0")
    return params, means, stds, ybar, cfg
