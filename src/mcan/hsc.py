"""Heterogeneous spatial correlation model for one measurement channel.

Pipeline for a batch of samples: embed every involved road's past-hour
channel window into a shared length (raw values spread by the replace rule,
gaps filled by a learnable Chebyshev polynomial approximation, the CPA),
aggregate 1..h hop neighbors through correlation-kernel graph convolution
filters, encode the hop-feature sequence and the target's own window with two
LSTM stacks, and emit the channel output through a fully connected head.

A batch mixes target roads, and the hop is an array axis: the neighbors of
all K hops are one padded ``(K, N_max, B, embed_len)`` tensor with a ``(K,
N_max, B)`` mask, embedded by one node (:func:`embed_windows`, the CPA as
``R + A @ coefficients`` with ``A`` from :func:`fill_basis`) and aggregated
by one (:func:`gcn_hop_features`, with a hand-written backward pass) into
the ``(K, B, filters)`` hop sequence.  The aggregation scores each slot's
bilinear form ``e_i' M_f e_j`` target first: ``e_i' M_f`` for every row and
filter is one GEMM, its product with the neighbors one batched matmul over
rows, so no ``(K·N_max, B, filters, embed_len)`` tensor is built, forward
or backward.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import autodiff as ad
from . import nnlayers as nn
from .autodiff import DiffValue
from .errors import ConfigError, MissingDataError
from .nnlayers import CpaParams, Dropout, FnnParams, LstmStack


# ---------------------------------------------------------------------------
# Embedding: the replace rule plus CPA gap filling


@cache
def embedding_positions(length: int, embed_len: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Raw and fill positions for spreading ``length`` observations over
    ``embed_len`` slots; returns (raw_positions, fill_positions, spacing),
    cached, with read-only arrays.

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
    raw.flags.writeable = fill.flags.writeable = False
    return raw, fill, spacing


def _fill_arguments(fill_positions: np.ndarray, embed_len: int) -> np.ndarray:
    # CPA argument j / c, affinely mapped onto the Chebyshev domain [-1, 1].
    return 2.0 * (fill_positions / embed_len) - 1.0


def nearest_grid_indices(length: int, embed_len: int) -> np.ndarray:
    """For the no-embedding ablation: nearest raw observation per grid slot.

    Grid slot j sits at fraction (j + 1) / embed_len of the window; raw
    observation m at fraction (m + 1) / length.
    """
    grid_times = (np.arange(embed_len) + 1.0) / embed_len
    nearest = np.rint(grid_times * length - 1.0).astype(int)
    return np.clip(nearest, 0, length - 1)


def spread_windows(windows, embed_len: int, use_embedding: bool = True) -> np.ndarray:
    """``(..., L)`` windows on the ``embed_len`` grid: the raw values at their
    replace-rule positions and zeros at the fill positions (``R`` of the
    embedding), or, under the no-embedding ablation, the nearest raw value in
    every slot.  A window longer than ``embed_len`` has no replace-rule
    placement: it spreads to zeros, and :func:`embed_windows` refuses it."""
    windows = np.asarray(windows, dtype=np.float64)
    length = windows.shape[-1]
    if not use_embedding:
        return windows[..., nearest_grid_indices(length, embed_len)]
    out = np.zeros(windows.shape[:-1] + (embed_len,))
    if length <= embed_len:
        out[..., embedding_positions(length, embed_len)[0]] = windows
    return out


@cache
def fill_basis(embed_len: int, order: int) -> np.ndarray:
    """``A`` of the embedding per window length: ``A[L]`` is ``(embed_len,
    order)``, T_1..T_order at each fill position's CPA argument and zero at
    the raw positions; ``A[0]``, a padding slot, is zero throughout."""
    table = np.zeros((embed_len + 1, embed_len, order))
    for length in range(1, embed_len + 1):
        fill = embedding_positions(length, embed_len)[1]
        table[length, fill] = nn.chebyshev_basis(_fill_arguments(fill, embed_len), order).T
    table.flags.writeable = False
    return table


def embed_windows(spread: np.ndarray, lengths: np.ndarray, cpa: CpaParams) -> DiffValue:
    """Embeddings ``R + A @ coefficients`` as one node: the CPA fill is linear
    in the coefficients, so windows of every length embed at once.  ``spread``
    (..., embed_len) is ``R``; ``lengths`` gives each window's length, 0 for
    a padding slot, whose ``A`` is zero."""
    embed_len = spread.shape[-1]
    if lengths.size and lengths.max() > embed_len:
        raise ConfigError(f"window length {lengths.max()} exceeds embedding length {embed_len}")
    basis = fill_basis(embed_len, cpa.order)
    coefficients = cpa.coefficients
    fills = basis @ coefficients.data  # (embed_len + 1, embed_len): the fill of each length

    def backward(g):
        # the gradient of each length's fill: its windows' rows summed in
        # order, one bincount over (length, slot) cells
        cells = (lengths[..., None] * embed_len + np.arange(embed_len)).reshape(-1)
        per_length = np.bincount(cells, weights=g.reshape(-1), minlength=fills.size).reshape(fills.shape)
        ad._accumulate(coefficients, np.tensordot(per_length, basis, axes=2))

    return ad._node(spread + fills[lengths], (coefficients,), backward)


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

    @property
    def filters(self) -> int:
        return self.kernel.data.shape[0]

    @property
    def order(self) -> int:
        return self.kernel.data.shape[1]


def init_gcn(rng, embed_len: int, filters: int, order: int) -> GcnParams:
    return GcnParams(
        correlation=ad.parameter(ad.xavier_uniform(rng, (filters * embed_len, embed_len))),
        kernel=ad.parameter(ad.xavier_uniform(rng, (filters, order))),
    )


def gcn_hop_features(params: GcnParams, target_emb: DiffValue, neighbors: DiffValue,
                     mask: np.ndarray) -> DiffValue:
    """Every hop's feature sum_j f(u_ij) as a single autodiff node: (K, B,
    filters), one ``(B, filters)`` feature per hop.

    ``neighbors`` is ``(K, N, B, c)``, hop k's neighbors in the padded slots
    ``neighbors[k]``; ``mask`` ``(K, N, B)`` marks the slots that hold one,
    and the others add nothing to the sum or to any gradient, whatever they
    hold, so a hop without a neighbor in any row gives zeros.  A slot's
    filter scores are u = sigma(e_i' M_f e_j) and its response sum_l z_l
    T_l(2u - 1); the backward pass runs T'_l = 2 T_{l-1} + 2x T'_{l-1} -
    T'_{l-2}.

    The ``K·N`` slots of all hops are scored as one slot axis and summed per
    hop.  The bilinear form contracts the target first: ``tq[b, f] = e_b'
    M_f`` for every filter is one ``(B, c) @ (c, F·c)`` GEMM, and the scores
    of all slots one batched ``(B, K·N, c) @ (B, c, F)`` matmul, so no
    ``(K·N, B, F, c)`` tensor is formed.  The backward runs the same
    contractions in reverse: ``d_tq = d_scores' @ e_j`` batched over rows,
    then one GEMM each for the correlation and target gradients and one
    batched matmul ``d_scores @ tq`` for the neighbors'.
    """
    hops, width, batch, c = neighbors.data.shape
    slots = hops * width
    filters, order = params.filters, params.order
    keep = np.asarray(mask, dtype=bool).reshape(slots, batch, 1)
    target = target_emb.data
    emb = np.where(keep, neighbors.data.reshape(slots, batch, c), 0.0)  # (K·N, B, c)
    # (c, F*c): column block f is M_f, so target @ corr_blocks stacks e_b' M_f
    corr_blocks = params.correlation.data.reshape(filters, c, c).transpose(1, 0, 2).reshape(c, filters * c)
    kernel = params.kernel.data  # (F, order)
    tq = (target @ corr_blocks).reshape(batch, filters, c)
    # written row by row into a (K·N, B, F) array, so that the elementwise
    # Chebyshev code below runs on contiguous memory
    bilinear = np.empty((slots, batch, filters))
    np.matmul(emb.swapaxes(0, 1), tq.transpose(0, 2, 1), out=bilinear.swapaxes(0, 1))
    with np.errstate(over="ignore"):
        scores = 1.0 / (1.0 + np.exp(-bilinear))  # (K·N, B, F)
    mapped = scores * 2.0 - 1.0
    basis = nn.chebyshev_basis(mapped, order)  # (order, K·N, B, F)
    response = basis[0] * kernel[:, 0]
    for l in range(1, order):
        response = response + basis[l] * kernel[:, l]
    total = np.where(keep, response, 0.0).reshape(hops, width, batch, filters).sum(axis=1)

    def backward(g):
        g = np.where(keep.reshape(hops, width, batch, 1), g[:, None], 0.0).reshape(slots, batch, filters)
        slopes = [np.ones_like(mapped)]  # T'_1 .. T'_order at the mapped scores
        if order >= 2:
            slopes.append(4.0 * mapped)
        for l in range(2, order):
            slopes.append(2.0 * basis[l - 1] + 2.0 * mapped * slopes[-1] - slopes[-2])
        d_mapped = sum(slope * kernel[:, l] for l, slope in enumerate(slopes))
        d_scores = (g * d_mapped * 2.0 * scores * (1.0 - scores)).swapaxes(0, 1)  # (B, K·N, F)
        d_tq = np.matmul(d_scores.transpose(0, 2, 1), emb.swapaxes(0, 1)).reshape(batch, filters * c)
        # the kernel's gradient sum over slots of g T_l, one matvec per filter
        per_filter = basis.reshape(order, slots * batch, filters).transpose(2, 0, 1)  # (F, order, K·N·B)
        ad._accumulate(params.kernel, (per_filter @ g.reshape(-1, filters).T[..., None])[..., 0])
        d_blocks = (target.T @ d_tq).reshape(c, filters, c).transpose(1, 0, 2)
        ad._accumulate(params.correlation, d_blocks.reshape(filters * c, c))
        if target_emb._needs:
            ad._accumulate(target_emb, d_tq @ corr_blocks.T)
        if neighbors._needs:
            ad._accumulate(neighbors, np.matmul(d_scores, tq).swapaxes(0, 1).reshape(neighbors.data.shape))

    return ad._node(total, (params.correlation, params.kernel, target_emb, neighbors), backward)


# ---------------------------------------------------------------------------
# Past-hour channel windows


def hour_window_length(interval_minutes: int) -> int:
    """Observations a road contributes from the past hour (at least one)."""
    return max(1, 60 // interval_minutes)


def hour_window_end(t, target_interval: int, road_interval: int) -> np.ndarray:
    """One past the last index of ``road``'s past-hour window for a sample
    anchored at the target road's slot ``t`` (wall-clock alignment, flooring
    to the road's last completed slot)."""
    return (np.asarray(t) * target_interval) // road_interval


def hour_window_end_times(lo, hi, target_interval, road_interval) -> tuple[np.ndarray, np.ndarray]:
    """The times ``[start, stop)`` whose :func:`hour_window_end` lies in
    ``[lo, hi]`` (integer arrays), its inverse: ``floor(t·a/b) >= lo`` from
    ``t = ceil(lo·b/a)`` on, and ``<= hi`` before ``t = ceil((hi + 1)·b/a)``."""
    return -(-lo * road_interval // target_interval), -(-(hi + 1) * road_interval // target_interval)


def hour_window_indices(t, target_interval: int, road_interval: int) -> np.ndarray:
    """Indices of ``road``'s past-hour window, the :func:`hour_window_length`
    slots before :func:`hour_window_end`.  A ``(B,)`` array of times gives
    ``(B, L)``."""
    end = hour_window_end(t, target_interval, road_interval)
    return end[..., None] + np.arange(-hour_window_length(road_interval), 0)


# ---------------------------------------------------------------------------
# Full HSC model


@dataclass
class HscParams:
    """One channel's spatial-correlation model; ``cpa`` is None under the
    no-embedding ablation."""

    cpa: CpaParams | None
    gcn: GcnParams
    lstm_self: LstmStack
    lstm_neigh: LstmStack
    head: FnnParams


def init_hsc(
    rng,
    embed_len: int,
    filters: int,
    cpa_order: int,
    gcn_order: int,
    hidden_size: int,
    lstm_layers: int,
    fnn_hidden: list[int],
    out_width: int,
    use_embedding: bool = True,
) -> HscParams:
    cpa = CpaParams(ad.parameter(ad.xavier_uniform(rng, (cpa_order,)))) if use_embedding else None
    return HscParams(
        cpa=cpa,
        gcn=init_gcn(rng, embed_len, filters, gcn_order),
        lstm_self=nn.init_lstm_stack(rng, 1, hidden_size, lstm_layers),
        lstm_neigh=nn.init_lstm_stack(rng, filters, hidden_size, lstm_layers),
        head=nn.init_fnn(rng, 2 * hidden_size, fnn_hidden, out_width),
    )


def embed_channel_windows(params: HscParams, spread: np.ndarray, lengths: np.ndarray) -> DiffValue:
    """The channel's embeddings of spread windows (constants under ``nemb``)."""
    return ad.constant(spread) if params.cpa is None else embed_windows(spread, lengths, params.cpa)


@dataclass
class ChannelInputs:
    """One channel's HSC inputs for B rows that may target different roads:
    raw target windows (B, L_max), zero-padded on the right, their
    ``lengths`` (B,) and their spread (:func:`spread_windows`) ``target``
    (B, c); spread neighbor windows ``hops`` (B, K, N, c), one slot per
    neighbor of each of the K hops, and their lengths ``hop_lengths`` (B, K,
    N), 0 marking a padding slot."""

    windows: np.ndarray
    lengths: np.ndarray
    target: np.ndarray
    hops: np.ndarray
    hop_lengths: np.ndarray


def hsc_forward_batch(params: HscParams, inputs: ChannelInputs,
                      drop: Dropout | None = None) -> DiffValue:
    """Batched channel prediction, (B, out_width).  All hops' neighbors embed
    as one node and aggregate as one, whose ``(K, B, filters)`` output the
    neighbor LSTM reads as its sequence.  The self LSTM reads raw windows,
    whose length is the target's interval class, so it runs once per run of
    rows of equal length; its outputs concatenate in row order."""
    target_emb = embed_channel_windows(params, inputs.target, inputs.lengths)
    lengths = inputs.hop_lengths.transpose(1, 2, 0)  # (K, N, B)
    neighbors = embed_channel_windows(params, inputs.hops.transpose(1, 2, 0, 3), lengths)
    hop_features = gcn_hop_features(params.gcn, target_emb, neighbors, lengths > 0)  # (K, B, filters)
    h_neigh = nn.lstm_sequence(params.lstm_neigh, hop_features, drop)
    bounds = [0] + (np.flatnonzero(np.diff(inputs.lengths)) + 1).tolist() + [len(inputs.lengths)]
    h_self = [
        nn.lstm_sequence(params.lstm_self, inputs.windows[a:b, :inputs.lengths[a]].T[:, :, None], drop)
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    h_self = h_self[0] if len(h_self) == 1 else ad.concat(h_self, axis=0)
    return nn.fnn_forward(params.head, [h_neigh, h_self], drop)
