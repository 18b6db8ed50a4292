"""Heterogeneous spatial correlation model for one measurement channel.

Pipeline per target road: embed every involved road's past-hour channel window
into a shared length (raw values spread by the replace rule, gaps filled by a
learnable Chebyshev approximation), aggregate 1..h hop neighbors through
correlation-kernel graph convolution filters, encode the hop-feature sequence
and the target's own window with two LSTM stacks, and emit the channel output
through a fully connected head.

Each non-empty hop is one autodiff node (:func:`gcn_hop`): a batched bilinear
score over all of the hop's neighbors, the Chebyshev kernel and the sum over
neighbors, with a hand-written backward pass.  :func:`correlation_scores` and
:func:`_kernel_response` compose the same arithmetic one neighbor at a time
and serve as the tests' reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import graphdata as gd
from . import nnlayers as nn
from .autodiff import DiffValue
from .errors import ConfigError, MissingDataError, ShapeMismatch
from .nnlayers import CpaParams, Dropout, FnnParams, LstmStack

CHANNELS = ("speed", "trend", "deviation")


# ---------------------------------------------------------------------------
# Embedding: the replace rule plus CPA gap filling


def embedding_positions(length: int, embed_len: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Raw and fill positions for spreading ``length`` observations over
    ``embed_len`` slots; returns (raw_positions, fill_positions, spacing).

    Raw observation m lands at position m * (spacing + 1).  A single
    observation is placed at position 0 (the consistent limit of the rule).
    """
    if length < 1:
        raise MissingDataError("cannot embed an empty window")
    if length > embed_len:
        raise ConfigError(f"window length {length} exceeds embedding length {embed_len}")
    spacing = (embed_len - length) // (length - 1) if length >= 2 else embed_len - 1
    raw = np.arange(length) * (spacing + 1)
    mask = np.zeros(embed_len, dtype=bool)
    mask[raw] = True
    fill = np.flatnonzero(~mask)
    return raw, fill, spacing


def _fill_arguments(fill_positions: np.ndarray, embed_len: int) -> np.ndarray:
    # CPA argument j / c, affinely mapped onto the Chebyshev domain [-1, 1].
    return 2.0 * (fill_positions / embed_len) - 1.0


@dataclass
class EmbeddedVector:
    """A fixed-length embedding; mask marks positions holding raw observations."""

    values: np.ndarray
    filled_mask: np.ndarray  # True where the value is a CPA fill


def embed_series(x, embed_len: int, cpa: CpaParams) -> EmbeddedVector:
    """Embed one channel window (length 1..embed_len) into ``embed_len`` slots."""
    x = np.asarray(x, dtype=np.float64)
    dv = embed_windows(x.reshape(1, -1), embed_len, cpa)
    raw, fill, _ = embedding_positions(len(x), embed_len)
    mask = np.zeros(embed_len, dtype=bool)
    mask[fill] = True
    return EmbeddedVector(values=dv.data[0].copy(), filled_mask=mask)


def embed_windows(windows: np.ndarray, embed_len: int, cpa: CpaParams) -> DiffValue:
    """Differentiable batched embedding: ``(B, L)`` raw windows to ``(B, embed_len)``."""
    windows = np.asarray(windows, dtype=np.float64)
    raw, fill, _ = embedding_positions(windows.shape[1], embed_len)
    raw_dv = ad.constant(windows)
    if len(fill) == 0:
        return raw_dv
    basis = nn.chebyshev_basis(_fill_arguments(fill, embed_len), cpa.order)  # (order, n_fill)
    fill_dv = ad.matmul(ad.constant(basis.T), cpa.coefficients)  # (n_fill,)
    return ad.interleave_columns(raw_dv, fill_dv, raw, fill, embed_len)


def nearest_grid_indices(length: int, embed_len: int) -> np.ndarray:
    """For the no-embedding ablation: nearest raw observation per grid slot.

    Grid slot j sits at fraction (j + 1) / embed_len of the window; raw
    observation m at fraction (m + 1) / length.
    """
    grid_times = (np.arange(embed_len) + 1.0) / embed_len
    nearest = np.rint(grid_times * length - 1.0).astype(int)
    return np.clip(nearest, 0, length - 1)


def copy_windows_to_grid(windows: np.ndarray, embed_len: int) -> DiffValue:
    windows = np.asarray(windows, dtype=np.float64)
    idx = nearest_grid_indices(windows.shape[1], embed_len)
    return ad.constant(windows[:, idx])


# ---------------------------------------------------------------------------
# Correlation-kernel graph convolution


@dataclass
class GcnParams:
    """Per-filter correlation matrices and Chebyshev kernel coefficients.

    ``correlation`` stacks the filters' square matrices vertically:
    ``correlation.data.reshape(filters, embed_len, embed_len)[f]`` is filter f.
    """

    correlation: DiffValue  # (filters * embed_len, embed_len)
    kernel: DiffValue  # (filters, order)
    filters: int
    hops: int
    embed_len: int

    @property
    def order(self) -> int:
        return self.kernel.data.shape[1]


def init_gcn(rng, embed_len: int, filters: int, order: int, hops: int) -> GcnParams:
    return GcnParams(
        correlation=ad.parameter(ad.xavier_uniform(rng, (filters * embed_len, embed_len))),
        kernel=ad.parameter(ad.xavier_uniform(rng, (filters, order))),
        filters=filters,
        hops=hops,
        embed_len=embed_len,
    )


def correlation_scores(params: GcnParams, target_emb: DiffValue, neighbor_emb: DiffValue) -> DiffValue:
    """Sigmoid bilinear scores u = sigma(e_i' M_f e_j) for every filter: (B, filters).

    Composed from elementary ops for one neighbor; the forward pass runs
    :func:`gcn_hop` instead, and the tests hold it to this.
    """
    batch = target_emb.data.shape[0]
    c = params.embed_len
    mixed = ad.matmul(neighbor_emb, ad.transpose(params.correlation))  # (B, F*c)
    mixed = ad.reshape(mixed, (batch, params.filters, c))
    target3 = ad.reshape(target_emb, (batch, 1, c))
    return ad.sigmoid(ad.vsum(ad.multiply(mixed, target3), axis=2))


def _kernel_response(params: GcnParams, scores: DiffValue) -> DiffValue:
    """f(u) = sum_l z_l T_l(2u - 1) per filter, summed over the kernel orders.

    Composed reference for :func:`gcn_hop`, kept for the tests.
    """
    mapped = ad.subtract(ad.multiply(scores, 2.0), 1.0)
    feats = nn.chebyshev_features(mapped, params.order)
    out = None
    for l, feat in enumerate(feats):
        term = ad.multiply(feat, params.kernel[:, l])
        out = term if out is None else ad.add(out, term)
    return out


def gcn_hop(params: GcnParams, target_emb: DiffValue, neighbors: list[DiffValue]) -> DiffValue:
    """One hop's aggregated feature, sum_j f(u_ij), as a single autodiff node: (B, filters).

    Scores every neighbor with one batched bilinear product, maps them
    through the Chebyshev kernel and sums over neighbors, in the order
    :func:`correlation_scores` and :func:`_kernel_response` compose it, so
    the values are bit-identical.  The backward pass runs the derivative
    recurrence T'_l = 2 T_{l-1} + 2x T'_{l-1} - T'_{l-2} and reaches
    ``correlation``, ``kernel`` and every embedding that needs a gradient.
    """
    if not neighbors:
        raise ShapeMismatch("gcn_hop: a hop needs at least one neighbor")
    batch, c = target_emb.data.shape
    filters, order = params.filters, params.order
    target = target_emb.data
    emb = np.stack([e.data for e in neighbors])  # (N, B, c)
    corr_t = params.correlation.data.T.copy()  # (c, F*c)
    kernel = params.kernel.data  # (F, order)
    mixed = np.matmul(emb, corr_t).reshape(len(neighbors), batch, filters, c)
    with np.errstate(over="ignore"):
        scores = 1.0 / (1.0 + np.exp(-(mixed * target[:, None, :]).sum(axis=3)))  # (N, B, F)
    mapped = scores * 2.0 - 1.0
    basis = nn.chebyshev_basis(mapped, order)  # (order, N, B, F)
    response = basis[0] * kernel[:, 0]
    for l in range(1, order):
        response = response + basis[l] * kernel[:, l]
    total = response[0]
    for r in response[1:]:
        total = total + r

    def backward(g):
        slopes = [np.ones_like(mapped)]  # T'_1 .. T'_order at the mapped scores
        if order >= 2:
            slopes.append(4.0 * mapped)
        for l in range(2, order):
            slopes.append(2.0 * basis[l - 1] + 2.0 * mapped * slopes[-1] - slopes[-2])
        d_mapped = sum(slope * kernel[:, l] for l, slope in enumerate(slopes))
        d_scores = g * d_mapped * 2.0 * scores * (1.0 - scores)  # (N, B, F)
        d_mixed = d_scores[..., None] * target[:, None, :]  # (N, B, F, c)
        ad._accumulate(params.kernel, (g * basis).sum(axis=(1, 2)).T)
        ad._accumulate(params.correlation, d_mixed.reshape(-1, filters * c).T @ emb.reshape(-1, c))
        if target_emb._needs:
            ad._accumulate(target_emb, (d_scores[..., None] * mixed).sum(axis=(0, 2)))
        if any(e._needs for e in neighbors):
            d_emb = d_mixed.reshape(len(neighbors), batch, filters * c) @ corr_t.T
            for e, d in zip(neighbors, d_emb):
                ad._accumulate(e, d)

    return ad._node(total, (params.correlation, params.kernel, target_emb, *neighbors), backward)


def gcn_hop_features(
    params: GcnParams,
    target_emb: DiffValue,
    hop_embeddings: list[list[DiffValue]],
) -> list[DiffValue]:
    """Aggregate each hop's neighbors into a (B, filters) feature; empty hops are zero."""
    batch = target_emb.data.shape[0]
    return [
        gcn_hop(params, target_emb, neighbors) if neighbors
        else ad.constant(np.zeros((batch, params.filters)))
        for neighbors in hop_embeddings
    ]


def gcn_aggregate(
    graph: gd.RoadGraph,
    embeddings: dict[int, EmbeddedVector | np.ndarray],
    params: GcnParams,
    target: int,
) -> list[np.ndarray]:
    """Hop-feature sequence for one target road, evaluated to numpy arrays."""
    layers = gd.k_hop_neighbors(graph, target, params.hops)
    needed = {target} | set().union(*layers)
    missing = sorted(road for road in needed if road not in embeddings)
    if missing:
        raise MissingDataError(f"gcn_aggregate: missing embeddings for roads {missing}")

    def as_dv(road):
        e = embeddings[road]
        values = e.values if isinstance(e, EmbeddedVector) else np.asarray(e, dtype=np.float64)
        if values.shape != (params.embed_len,):
            raise MissingDataError(
                f"gcn_aggregate: road {road} embedding has shape {values.shape}, "
                f"expected ({params.embed_len},)"
            )
        return ad.constant(values.reshape(1, -1))

    hop_embs = [[as_dv(road) for road in sorted(layer)] for layer in layers]
    features = gcn_hop_features(params, as_dv(target), hop_embs)
    return [f.data[0].copy() for f in features]


# ---------------------------------------------------------------------------
# Past-hour channel windows


def hour_window_length(interval_minutes: int) -> int:
    """Observations a road contributes from the past hour (at least one)."""
    return max(1, 60 // interval_minutes)


def hour_window_indices(t, target_interval: int, road_interval: int) -> np.ndarray:
    """Indices of ``road``'s past-hour window for a sample anchored at the
    target road's slot ``t`` (wall-clock alignment, flooring to the road's
    last completed slot).  A ``(B,)`` array of times gives ``(B, L)``."""
    local_t = (np.asarray(t) * target_interval) // road_interval
    return local_t[..., None] + np.arange(-hour_window_length(road_interval), 0)


# ---------------------------------------------------------------------------
# Full HSC model


@dataclass
class HscParams:
    """One channel's spatial-correlation model; ``cpa`` is None under the
    no-embedding ablation."""

    channel: str
    cpa: CpaParams | None
    gcn: GcnParams
    lstm_self: LstmStack
    lstm_neigh: LstmStack
    head: FnnParams


def init_hsc(
    rng,
    channel: str,
    embed_len: int,
    hops: int,
    filters: int,
    cpa_order: int,
    gcn_order: int,
    hidden_size: int,
    lstm_layers: int,
    fnn_hidden: list[int],
    out_width: int,
    use_embedding: bool = True,
) -> HscParams:
    if channel not in CHANNELS:
        raise ConfigError(f"unknown channel {channel!r}, expected one of {CHANNELS}")
    cpa = CpaParams(ad.parameter(ad.xavier_uniform(rng, (cpa_order,)))) if use_embedding else None
    return HscParams(
        channel=channel,
        cpa=cpa,
        gcn=init_gcn(rng, embed_len, filters, gcn_order, hops),
        lstm_self=nn.init_lstm_stack(rng, 1, hidden_size, lstm_layers),
        lstm_neigh=nn.init_lstm_stack(rng, filters, hidden_size, lstm_layers),
        head=nn.init_fnn(rng, 2 * hidden_size, fnn_hidden, out_width),
    )


def embed_channel_windows(params: HscParams, windows: np.ndarray) -> DiffValue:
    if params.cpa is None:
        return copy_windows_to_grid(windows, params.gcn.embed_len)
    return embed_windows(windows, params.gcn.embed_len, params.cpa)


def hsc_forward_batch(
    params: HscParams,
    target_windows: np.ndarray,
    hop_neighbor_windows: list[dict[int, np.ndarray]],
    drop: Dropout | None = None,
) -> DiffValue:
    """Batched channel prediction.

    ``target_windows`` is ``(B, L_target)``; ``hop_neighbor_windows[k]`` maps
    each hop-(k+1) neighbor road to its ``(B, L_road)`` windows.
    """
    target_emb = embed_channel_windows(params, target_windows)
    hop_embs = [
        [embed_channel_windows(params, win) for _, win in sorted(neighbors.items())]
        for neighbors in hop_neighbor_windows
    ]
    hop_features = gcn_hop_features(params.gcn, target_emb, hop_embs)
    h_neigh = nn.lstm_sequence(params.lstm_neigh, hop_features, drop)
    h_self = nn.lstm_sequence(params.lstm_self, target_windows.T[:, :, None], drop)
    joined = ad.concat([h_neigh, h_self], axis=1)
    return nn.fnn_forward(params.head, joined, drop)


def hsc_forward(
    params: HscParams,
    target_window,
    neighbor_windows: dict[int, np.ndarray],
    graph: gd.RoadGraph,
    target: int,
) -> DiffValue:
    """Single-sample channel prediction for ``target``; neighbor windows are
    keyed by road id and grouped into hops from the graph."""
    layers = gd.k_hop_neighbors(graph, target, params.gcn.hops)
    hop_windows = []
    for layer in layers:
        missing = sorted(road for road in layer if road not in neighbor_windows)
        if missing:
            raise MissingDataError(f"hsc_forward: missing windows for neighbor roads {missing}")
        hop_windows.append(
            {road: np.asarray(neighbor_windows[road], dtype=np.float64).reshape(1, -1) for road in layer}
        )
    target_windows = np.asarray(target_window, dtype=np.float64).reshape(1, -1)
    out = hsc_forward_batch(params, target_windows, hop_windows)
    return ad.reshape(out, (-1,))
