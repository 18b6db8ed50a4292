"""Scalar references the tests compare the vectorised program against.

``load_dataset`` here reads ``series.csv`` and ``context.csv`` the way the
loader used to, one ``csv.reader`` row and one ``int()``/``float()`` call at a
time, and raises the first error in file order.  ``graphdata.load_dataset``
must return bit-identical arrays and raise the same exception type and
message on every input this reader splits the same way (no quotes).

``sample_footprint`` enumerates, index by index, the history a sample reads;
the fold leak filter built on ``model.read_spans`` must agree with it.
``eligible_times`` evaluates each row of the ``read_spans`` table at every
time of a road, where ``model.eligible_times`` inverts each row in closed
form; ``historical_average_baseline`` predicts one sample at a time, where
``trainer.historical_average_baseline`` gathers each road's samples at once;
``dynamic_feature_matrix`` tabulates a road's dynamic factors over its whole
series and ``static_features`` spells out its static vector, where
``model.dynamic_factors`` and ``model.static_vector`` build one batch's rows.
Each pair must agree exactly.

``multifold_correlation_report`` computes the correlation curves one
wall-clock slot at a time, from ``same_slot_series`` and a one-pair
``pearson`` (None where undefined), and ``dominant_measurement_shares`` picks
each slot's dominant measurement in a loop; ``analysis`` gathers every slot's
windows at once and takes a row-wise coefficient, and must give the same
values bit for bit, with nan where the loop gives None, and the same shares.

``chebyshev_features``, ``correlation_scores`` and ``kernel_response`` compose
the CPA series and one GCN hop from elementary autodiff ops, one neighbor at a
time; ``hsc.gcn_hop_features``, applied to all hops at once, and
``hsc.embed_windows`` must match them, hop by hop, by value and by gradient.

``lstm_cell`` evaluates the LSTM cell equations in plain numpy, reading gate
k's input, recurrent and bias rows from the cell's matrix;
``nnlayers.lstm_step``, the program's one cell, must match it.
``lstm_layer_gradients`` is the backpropagation through time of
``nnlayers.lstm_layer`` with every factor computed inside the time loop; the
layer's backward, which hoists the factors the recurrence does not feed, must
give bit-identical gradients.

The elementary autodiff ops live here, not in ``mcan.autodiff``: ``add``,
``multiply``, ``matmul``, ``take``, ``sigmoid``, ``tanh``, ``subtract``,
``reshape``, ``square``, ``vsum`` and ``softmax``, each one node made by
``autodiff._node``.  No model layer uses them.  From them and
``autodiff.concat``, ``lstm_step`` composes the cell gate by gate, from the
row ``[h | x | 1]`` and the cell's ``[w_h; w_x; b]`` matrix (a chain of it
is the twin of ``nnlayers.lstm_layer``), and ``fnn_forward`` (its column
blocks joined by ``concat``), ``attention_fuse``, ``lstm_sequence`` (the final
state taken from the whole top sequence) and ``loss_batch`` compose each of
the model's fused nodes op by op (``dropout`` as a multiply by its mask); each
fused node must equal its composition bit for bit, in value and in every leaf
gradient.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from mcan import analysis as an
from mcan import autodiff as ad
from mcan import graphdata as gd
from mcan import hsc
from mcan import model as md
from mcan import nnlayers as nn
from mcan import trainer as tr
from mcan.autodiff import DiffValue
from mcan.errors import ConfigError, MissingDataError, SchemaError, ShapeMismatch

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def _parse_int(row_no: int, field_name: str, raw: str, path) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise SchemaError(f"{path}: row {row_no}: field {field_name!r} is not an integer: {raw!r}") from None
    if not INT64_MIN <= value <= INT64_MAX:
        raise SchemaError(f"{path}: row {row_no}: field {field_name!r} is outside the 64-bit integer range: "
                          f"{raw!r}")
    return value


def _parse_float(row_no: int, field_name: str, raw: str, path) -> float:
    try:
        return float(raw)
    except ValueError:
        raise SchemaError(f"{path}: row {row_no}: field {field_name!r} is not a number: {raw!r}") from None


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


def load_dataset(graph_path, series_path, context_path) -> gd.TrafficDataset:
    """Row-by-row twin of :func:`mcan.graphdata.load_dataset`."""
    graph = gd.load_graph(graph_path)
    n = graph.size

    per_road_speeds: dict[int, dict[int, float]] = {}
    for no, row in _load_rows(series_path, gd.SERIES_HEADER):
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
        values = np.array([slots[s] for s in range(count)])
        series.append(gd.SpeedSeries(road_id=i, values=values))
    if span is None or span % gd.MINUTES_PER_DAY != 0:
        raise SchemaError(f"{series_path}: observation span {span} min is not whole days")

    per_road_ctx: dict[int, dict[int, tuple[int, int, int]]] = {}
    for no, row in _load_rows(context_path, gd.CONTEXT_HEADER):
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
        slots = per_road_ctx.setdefault(road, {})
        if slot in slots:
            raise SchemaError(f"{context_path}: row {no}: duplicate slot {slot} for road {road}")
        slots[slot] = (weather, holiday, dow)

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
            gd.ContextFeatures(
                weather=weather,
                holiday=np.array([rows[s][1] for s in range(expected)], dtype=np.int64),
                day_of_week=np.array([rows[s][2] for s in range(expected)], dtype=np.int64),
            )
        )

    return gd.TrafficDataset(
        graph=graph,
        series=series,
        contexts=contexts,
        span_minutes=span,
        weather_code_count=max_weather + 1,
        road_type_count=max(node.road_type for node in graph.nodes) + 1,
    )


def static_features(node: gd.RoadSegment, road_type_count: int) -> np.ndarray:
    """A road's static factor vector, written out entry by entry."""
    out = [node.length_m / 1000.0] + [1.0 if k == node.road_type else 0.0 for k in range(road_type_count)]
    return np.array(out + [float(node.lanes), float(node.traffic_lights)])


def dynamic_feature_matrix(ctx: gd.ContextFeatures, slots_per_day: int,
                           weather_code_count: int) -> np.ndarray:
    """The dynamic factors of every slot of a road's whole series, one row per
    slot: the table ``model.dynamic_factors`` gathers rows of per batch."""
    count = len(ctx.weather)
    out = np.zeros((count, weather_code_count + 1 + 1 + 7))
    codes = np.minimum(ctx.weather, weather_code_count - 1)
    out[np.arange(count), codes] = 1.0
    out[:, weather_code_count] = ctx.holiday
    out[:, weather_code_count + 1] = (np.arange(count) % slots_per_day) / slots_per_day
    out[np.arange(count), weather_code_count + 2 + ctx.day_of_week] = 1.0
    return out


def sample_footprint(dataset: gd.TrafficDataset, config: md.ModelConfig, road: int,
                     t: int) -> dict[int, np.ndarray]:
    """All history indices a sample reads, per road (targets excluded)."""
    nodes = dataset.graph.nodes
    spd = nodes[road].slots_per_day
    # the recent slots, and the same slot of each previous day and week read
    period = {"recent": 1, "daily": spd, "weekly": 7 * spd}
    own = [t - period[name] * np.arange(1, steps + 1) for name, steps in config.branches().items()]
    footprint: dict[int, np.ndarray] = {}
    interval = nodes[road].interval_minutes
    involved = {road} | set().union(*gd.k_hop_neighbors(dataset.graph, road, config.hops))
    for j in sorted(involved):
        idx = hsc.hour_window_indices(t, interval, nodes[j].interval_minutes)
        parts = [idx]
        if j == road:
            parts.extend(own)
            parts.append(np.array([t - 1]))
        merged = np.unique(np.concatenate(parts))
        # the trend gather also touches each index's predecessor
        footprint[j] = np.unique(np.concatenate([merged, merged - 1]))
    return footprint


def eligible_times(dataset: gd.TrafficDataset, config: md.ModelConfig, road: int) -> np.ndarray:
    """Every sample time whose read spans all lie inside their series: each
    row of the span table evaluated at every time of the road, the full scan
    that ``model.eligible_times`` solves in closed form."""
    times = np.arange(len(dataset.series[road]))
    inside = np.ones(len(times), dtype=bool)
    for j, a, b, first, last in md.read_spans(dataset, config, road):
        end = hsc.hour_window_end(times, a, b)
        inside &= (end + first >= 0) & (end + last < len(dataset.series[j]))
    return times[inside]


def historical_average_baseline(dataset: gd.TrafficDataset, fold, horizon: int, samples=None):
    """Per-sample twin of ``trainer.historical_average_baseline``."""
    mask = tr.training_day_mask(dataset, fold)
    averages = [series.values.reshape(-1, node.slots_per_day)[mask].mean(axis=0)
                for series, node in zip(dataset.series, dataset.graph.nodes)]
    split = samples if samples is not None else fold.test
    truth = np.empty((len(split), horizon))
    preds = np.empty((len(split), horizon))
    for row, (road, t) in enumerate(split):
        spd = dataset.graph.nodes[road].slots_per_day
        idx = np.arange(t, t + horizon)
        truth[row] = dataset.series[road].values[idx]
        preds[row] = averages[road][idx % spd]
    return tr.compute_metrics(truth, preds)


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


def multifold_correlation_report(series_a: gd.SpeedSeries, series_b: gd.SpeedSeries, interval_a: int,
                                 interval_b: int, measurements, window_days: int,
                                 wall_range=None) -> list[an.CorrelationSeries]:
    """``analysis.multifold_correlation_report`` one wall-clock slot at a
    time: each shared slot's two same-slot series and their :func:`pearson`,
    None where either holds a nan or is constant."""
    span = min(len(series_a) * interval_a, len(series_b) * interval_b)
    measurements = an.check_request(measurements, window_days, wall_range, span)
    stride = math.lcm(interval_a, interval_b)
    spd_a = gd.MINUTES_PER_DAY // interval_a
    spd_b = gd.MINUTES_PER_DAY // interval_b
    start, end = wall_range or (0, None)
    end = span if end is None else end
    walls = np.arange(-(-max(window_days * gd.MINUTES_PER_DAY, start) // stride) * stride, end, stride)
    report = []
    for m in measurements:
        ma = an._measurement_series(series_a, spd_a, m)
        mb = an._measurement_series(series_b, spd_b, m)
        values: list[float | None] = []
        for wall in walls:
            vec_a = same_slot_series(ma, int(wall) // interval_a, window_days, spd_a)
            vec_b = same_slot_series(mb, int(wall) // interval_b, window_days, spd_b)
            if np.isnan(vec_a).any() or np.isnan(vec_b).any():
                values.append(None)
            else:
                values.append(pearson(vec_a, vec_b))
        report.append(an.CorrelationSeries(series_a.road_id, series_b.road_id, m, walls.copy(), values))
    return report


def dominant_measurement_shares(report) -> dict[str, float]:
    """``analysis.dominant_measurement_shares`` slot by slot over curves whose
    values are lists holding None where undefined."""
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


def lstm_cell(p, x, h_prev, c_prev) -> tuple[np.ndarray, np.ndarray]:
    """One straight-line cell update ``(h, c)``; gate k (order i, f, o, c)
    reads its input rows ``w[k, H:-1]``, recurrent rows ``w[k, :H]`` and bias
    row ``w[k, -1]``."""
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    w, hidden = p.w.data, p.hidden_size
    pre = [x @ w[k, hidden:-1] + h_prev @ w[k, :hidden] + w[k, -1] for k in range(4)]
    i, f, o = (sig(v) for v in pre[:3])
    c = i * np.tanh(pre[3]) + f * c_prev
    return o * np.tanh(c), c


def lstm_step(params: nn.LstmParams, x, h_prev, c_prev) -> tuple[DiffValue, DiffValue]:
    """Composed twin of ``nnlayers.lstm_step``: one cell update ``(h, c)``
    from unprojected ``(B, in)`` inputs, one gate at a time, gate k the row
    ``[h_prev | x | 1]`` times ``take(w, k)`` of the cell's matrix."""
    hx = ad.concat([h_prev, x, np.ones((len(ad._lift(x).data), 1))], axis=1)
    pre = [matmul(hx, take(params.w, k)) for k in range(4)]
    gate_i, gate_f, gate_o = (sigmoid(p) for p in pre[:3])
    c_new = add(multiply(gate_i, tanh(pre[3])), multiply(gate_f, c_prev))
    return multiply(gate_o, tanh(c_new)), c_new


def lstm_layer_gradients(params: nn.LstmParams, x: np.ndarray, g: np.ndarray, last: bool = False):
    """Backpropagation through time of one ``nnlayers.lstm_layer`` as it was
    written before its factors were hoisted out of the time loop: the
    gradients ``(w, x)`` of a layer over the ``(T, B, in)`` input
    ``x``, given the gradient ``g`` of its ``(T, B, H)`` output, or with
    ``last`` of its final ``(B, H)`` state.  The forward repeats the taped
    layer's: ``nnlayers.lstm_step`` per step on the rows ``[h | x_t | 1]``,
    and the matrix's gradient is one GEMM of those rows."""
    steps, batch, width = x.shape
    hidden = params.hidden_size
    w_x, w_h = params.w.data[:, hidden:-1], params.w.data[:, :hidden]
    w = nn.lstm_weights(params)
    acts = np.empty((steps, 4, batch, hidden))
    tanh_c = np.empty((steps, batch, hidden))
    h_seq = np.zeros((steps + 1, batch, hidden))
    c_seq = np.zeros((steps + 1, batch, hidden))
    rows = np.empty((steps, batch, hidden + width + 1))
    with np.errstate(over="ignore"):
        for t in range(steps):
            rows[t] = np.concatenate([h_seq[t], x[t], np.ones((batch, 1))], axis=1)
            nn.lstm_step(w, rows[t], c_seq[t], acts[t], h_seq[t + 1], c_seq[t + 1], tanh_c[t])
    if last:
        g_last, g = g, np.zeros((steps, batch, hidden))
        g[-1] = g_last
    d_pre = np.empty((4, steps, batch, hidden))
    w_h_t = w_h.transpose(0, 2, 1)
    dh_next = np.zeros((batch, hidden))
    dc_next = np.zeros((batch, hidden))
    for t in reversed(range(steps)):
        gate_i, gate_f, gate_o, cand = acts[t]
        dh = g[t] + dh_next
        dc = dh * gate_o * (1.0 - tanh_c[t] * tanh_c[t]) + dc_next
        d_pre[0, t] = dc * cand * gate_i * (1.0 - gate_i)
        d_pre[1, t] = dc * c_seq[t] * gate_f * (1.0 - gate_f)
        d_pre[2, t] = dh * tanh_c[t] * gate_o * (1.0 - gate_o)
        d_pre[3, t] = dc * gate_i * (1.0 - cand * cand)
        dc_next = dc * gate_f
        if t > 0:
            dh_next = np.matmul(d_pre[:, t], w_h_t).sum(axis=0)
    d_flat = d_pre.reshape(4, steps * batch, hidden)
    dx = np.matmul(d_flat, w_x.transpose(0, 2, 1)).sum(axis=0).reshape(steps, batch, width)
    return rows.reshape(steps * batch, -1).T @ d_flat, dx


def unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> DiffValue:
    a, b = ad._lift(a), ad._lift(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeMismatch(f"add: incompatible shapes {a.shape} and {b.shape}") from None

    def backward(g):
        ad._accumulate(a, unbroadcast(g, a.data.shape))
        ad._accumulate(b, unbroadcast(g, b.data.shape))

    return ad._node(data, (a, b), backward)


def multiply(a, b) -> DiffValue:
    a, b = ad._lift(a), ad._lift(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeMismatch(f"multiply: incompatible shapes {a.shape} and {b.shape}") from None

    def backward(g):
        ad._accumulate(a, unbroadcast(g * b.data, a.data.shape))
        ad._accumulate(b, unbroadcast(g * a.data, b.data.shape))

    return ad._node(data, (a, b), backward)


def matmul(a, b) -> DiffValue:
    """Matrix product for 1-D/2-D operands (inner dimensions must agree)."""
    a, b = ad._lift(a), ad._lift(b)
    if a.data.ndim not in (1, 2) or b.data.ndim not in (1, 2):
        raise ShapeMismatch(f"matmul: operands must be 1-D or 2-D, got {a.shape} @ {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError:
        raise ShapeMismatch(f"matmul: incompatible shapes {a.shape} @ {b.shape}") from None

    def backward(g):
        av, bv = a.data, b.data
        if av.ndim == 2 and bv.ndim == 2:
            ad._accumulate(a, g @ bv.T)
            ad._accumulate(b, av.T @ g)
        elif av.ndim == 2 and bv.ndim == 1:
            ad._accumulate(a, np.outer(g, bv))
            ad._accumulate(b, av.T @ g)
        elif av.ndim == 1 and bv.ndim == 2:
            ad._accumulate(a, bv @ g)
            ad._accumulate(b, np.outer(av, g))
        else:
            ad._accumulate(a, g * bv)
            ad._accumulate(b, g * av)

    return ad._node(data, (a, b), backward)


def take(a, key) -> DiffValue:
    """Indexing/slicing with gradient scatter-add on the way back."""
    a = ad._lift(a)
    data = a.data[key]

    def backward(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, key, g)
        ad._accumulate(a, buf)

    return ad._node(np.array(data), (a,), backward)


def sigmoid(a) -> DiffValue:
    a = ad._lift(a)
    with np.errstate(over="ignore"):
        data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        ad._accumulate(a, g * data * (1.0 - data))

    return ad._node(data, (a,), backward)


def tanh(a) -> DiffValue:
    a = ad._lift(a)
    data = np.tanh(a.data)

    def backward(g):
        ad._accumulate(a, g * (1.0 - data * data))

    return ad._node(data, (a,), backward)


def chebyshev_features(x: DiffValue, order: int) -> list[DiffValue]:
    """Differentiable T_1(x)..T_order(x) via the recurrence; x must lie in [-1, 1]."""
    if order < 1:
        raise ConfigError(f"chebyshev order must be >= 1, got {order}")
    feats = [x]
    if order >= 2:
        feats.append(subtract(multiply(square(x), 2.0), 1.0))
    for _ in range(2, order):
        feats.append(subtract(multiply(multiply(x, feats[-1]), 2.0), feats[-2]))
    return feats


def transpose(a) -> DiffValue:
    """The 2-D transpose as an autodiff node, for ``correlation_scores``."""
    a = ad._lift(a)
    if a.data.ndim != 2:
        raise ShapeMismatch(f"transpose: expected a 2-D value, got {a.shape}")

    def backward(g):
        ad._accumulate(a, g.T)

    return ad._node(a.data.T.copy(), (a,), backward)


def correlation_scores(params: hsc.GcnParams, target_emb: DiffValue, neighbor_emb: DiffValue) -> DiffValue:
    """Sigmoid bilinear scores u = sigma(e_i' M_f e_j) for every filter: (B, filters)."""
    batch = target_emb.data.shape[0]
    c = params.correlation.data.shape[1]
    mixed = matmul(neighbor_emb, transpose(params.correlation))  # (B, F*c)
    mixed = reshape(mixed, (batch, params.filters, c))
    target3 = reshape(target_emb, (batch, 1, c))
    return sigmoid(vsum(multiply(mixed, target3), axis=2))


def kernel_response(params: hsc.GcnParams, scores: DiffValue) -> DiffValue:
    """f(u) = sum_l z_l T_l(2u - 1) per filter, summed over the kernel orders."""
    mapped = subtract(multiply(scores, 2.0), 1.0)
    out = None
    for l, feat in enumerate(chebyshev_features(mapped, params.order)):
        term = multiply(feat, take(params.kernel, (slice(None), l)))
        out = term if out is None else add(out, term)
    return out


def subtract(a, b) -> DiffValue:
    a, b = ad._lift(a), ad._lift(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeMismatch(f"subtract: incompatible shapes {a.shape} and {b.shape}") from None

    def backward(g):
        ad._accumulate(a, unbroadcast(g, a.data.shape))
        ad._accumulate(b, unbroadcast(-g, b.data.shape))

    return ad._node(data, (a, b), backward)


def reshape(a, shape) -> DiffValue:
    a = ad._lift(a)
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeMismatch(f"reshape: cannot view {a.shape} as {shape}") from None

    def backward(g):
        ad._accumulate(a, g.reshape(a.data.shape))

    return ad._node(data, (a,), backward)


def square(a) -> DiffValue:
    a = ad._lift(a)

    def backward(g):
        ad._accumulate(a, g * 2.0 * a.data)

    return ad._node(a.data * a.data, (a,), backward)


def vsum(a, axis=None, keepdims: bool = False) -> DiffValue:
    a = ad._lift(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            ad._accumulate(a, np.broadcast_to(g, a.data.shape).copy())
        else:
            expanded = g if keepdims else np.expand_dims(g, axis)
            ad._accumulate(a, np.broadcast_to(expanded, a.data.shape).copy())

    return ad._node(np.asarray(data), (a,), backward)


def softmax(a, axis: int = -1) -> DiffValue:
    a = ad._lift(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        ad._accumulate(a, (g - inner) * data)

    return ad._node(data, (a,), backward)


def dropout(x: DiffValue, drop) -> DiffValue:
    """``x`` times one mask draw, as an elementwise multiply (identity
    without ``drop``)."""
    mask = None if drop is None else ad.dropout_mask(x.data.shape, drop.rate, drop.rng)
    return x if mask is None else multiply(x, mask)


def fnn_forward(params: nn.FnnParams, blocks, drop=None) -> DiffValue:
    """Composed twin of ``nnlayers.fnn_forward``: the column blocks joined
    by a ``concat`` node unless there is one, then the layers op by op."""
    blocks = [ad._lift(b) for b in blocks]
    x = blocks[0] if len(blocks) == 1 else ad.concat(blocks, axis=1)
    width = x.data.shape[-1]
    if width != params.input_size:
        raise ShapeMismatch(f"fnn_forward: input width {width} != expected {params.input_size}")
    out = x
    for k, layer in enumerate(params.layers):
        out = add(matmul(out, layer.weight), layer.bias)
        if k < len(params.layers) - 1:
            out = dropout(sigmoid(out), drop)
    return out


def attention_parts(params: nn.AttentionParams, components):
    """The projected components and the softmax weights, composed."""
    projected = [matmul(c, params.projection) for c in components]
    scores = [reshape(matmul(p, params.query), (-1, 1)) for p in projected]
    return projected, softmax(ad.concat(scores, axis=1), axis=-1)


def attention_fuse(params: nn.AttentionParams, components) -> DiffValue:
    """Composed twin of ``nnlayers.attention_fuse``."""
    projected, weights = attention_parts(params, components)
    out = None
    for k, p in enumerate(projected):
        term = multiply(p, take(weights, (slice(None), slice(k, k + 1))))
        out = term if out is None else add(out, term)
    return out


def lstm_sequence(stack: nn.LstmStack, inputs, drop=None) -> DiffValue:
    """Composed twin of ``nnlayers.lstm_sequence``: every layer's whole
    hidden sequence, then the final state as a ``take``."""
    seq = inputs
    for depth, cell in enumerate(stack.cells):
        if depth > 0:
            seq = dropout(seq, drop)
        seq = nn.lstm_layer(cell, seq)
    return take(seq, -1)


def loss_batch(speed_pred, speed_target, trend_pred, trend_target, deviation_pred,
               deviation_target, alpha: float, beta: float) -> DiffValue:
    """Composed twin of ``model.loss_batch``."""
    total = vsum(square(subtract(speed_pred, ad.constant(speed_target))))
    for pred, target, weight in ((trend_pred, trend_target, alpha),
                                 (deviation_pred, deviation_target, beta)):
        if pred is not None:
            term = vsum(square(subtract(pred, ad.constant(target))))
            total = add(total, multiply(term, weight))
    return total
