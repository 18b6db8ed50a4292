"""Differentiable building blocks: Chebyshev features, LSTM, FNN, attention fusion.

Every forward function takes ``(batch, dim)`` rows; a single sample is a
batch of one.  Parameters are plain dataclasses holding
:class:`~mcan.autodiff.DiffValue` leaves; ``model.init_mcan`` makes them views
of one parameter vector, which the optimizer updates, and the
``named_parameters`` walk names them for the checkpoint.

An LSTM cell is one leaf: the ``[w_h; w_x; b]`` matrix of its gates,
stacked.  Each LSTM layer runs over its whole sequence as one autodiff node
(:func:`lstm_layer`) that negates the sigmoid gates' matrices once per call
(:func:`lstm_weights`) and calls :func:`lstm_step`, the one implementation of
the cell update, once per time step on plain arrays, which it updates in
place: one GEMM of the row ``[h | x | 1]`` by that matrix, then the
activations.  Its backward pass through time is written out by hand.
A fully connected network (:func:`fnn_forward`), which takes its input as a
list of column blocks, and the attention fusion (:func:`attention_fuse`) are
one node each as well.  Each fused node runs the numpy operations of the
elementary ops it replaces, in the same order, and its backward the same
gradient arithmetic, so values and gradients equal the compositions in
``tests/reference.py`` (a chain of ``reference.lstm_step`` for a layer) bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiffValue
from .errors import ConfigError, ShapeMismatch


@dataclass
class Dropout:
    """Active-dropout context threaded through forward passes during training."""

    rate: float
    rng: np.random.Generator


# ---------------------------------------------------------------------------
# Chebyshev polynomial features (first kind, orders 1..K, no constant term)


def chebyshev_basis(x, order: int) -> np.ndarray:
    """Values T_1(x)..T_order(x); inputs are clamped to [-1, 1].

    For array input the result has the order axis first: shape
    ``(order,) + x.shape``.
    """
    if order < 1:
        raise ConfigError(f"chebyshev order must be >= 1, got {order}")
    x = np.clip(np.asarray(x, dtype=np.float64), -1.0, 1.0)
    out = np.empty((order,) + x.shape, dtype=np.float64)
    out[0] = x
    if order >= 2:
        out[1] = 2.0 * x * x - 1.0
    for l in range(2, order):
        out[l] = 2.0 * x * out[l - 1] - out[l - 2]
    return out


@dataclass
class CpaParams:
    """Learnable coefficients of a truncated Chebyshev approximation."""

    coefficients: DiffValue  # (order,)

    @property
    def order(self) -> int:
        return self.coefficients.data.shape[0]


# ---------------------------------------------------------------------------
# LSTM


@dataclass
class LstmParams:
    """Weights of one LSTM cell as the ``(4, H + in + 1, H)`` matrix its step
    multiplies the row ``[h | x | 1]`` by, stacked in gate order i, f, o
    (sigmoid gates), c (tanh candidate): gate k's recurrent rows are
    ``w[k, :H]``, its input rows ``w[k, H:-1]`` and its bias row
    ``w[k, -1]``."""

    w: DiffValue  # (4, H + in + 1, H)

    @property
    def hidden_size(self) -> int:
        return self.w.data.shape[2]

    @property
    def input_size(self) -> int:
        return self.w.data.shape[1] - self.hidden_size - 1


@dataclass
class LstmStack:
    """Stacked LSTM layers; layer k feeds its hidden sequence to layer k+1."""

    cells: list[LstmParams]


def init_lstm(rng: np.random.Generator, input_size: int, hidden_size: int) -> LstmParams:
    """Xavier-uniform weights drawn gate by gate (input, then recurrent
    matrix) into their row blocks; zero bias rows."""
    w = np.zeros((4, hidden_size + input_size + 1, hidden_size))
    for gate in w:
        gate[hidden_size:-1] = ad.xavier_uniform(rng, (input_size, hidden_size))
        gate[:hidden_size] = ad.xavier_uniform(rng, (hidden_size, hidden_size))
    return LstmParams(ad.parameter(w))


def init_lstm_stack(rng, input_size: int, hidden_size: int, layers: int) -> LstmStack:
    cells = [init_lstm(rng, input_size if k == 0 else hidden_size, hidden_size) for k in range(layers)]
    return LstmStack(cells)


def lstm_weights(params: LstmParams) -> np.ndarray:
    """A copy of the cell's matrix with the i, f and o gates negated, so the
    product of the row ``[h | x | 1]`` by it holds ``-z`` for the sigmoid
    gates and ``z`` for the candidate.  A sign flip is exact."""
    w = params.w.data.copy()
    w[:3] *= -1.0
    return w


def lstm_step(w, hx, c_prev, acts, h, c, tanh_c) -> None:
    """One LSTM cell update on arrays, in place, as :func:`lstm_layer` runs it
    per time step: one GEMM of the ``(B, H + in + 1)`` row ``hx = [h_prev |
    x | 1]`` by the :func:`lstm_weights` matrix ``w`` into the caller's (4,
    B, H) ``acts``, which then hold the four gate activations, and the new
    state in its (B, H) ``h``, ``c`` and ``tanh_c`` (``tanh(c)``); ``c_prev``
    is the (B, H) cell state before the step.  No output may overlap an
    input.  The caller enters ``np.errstate(over="ignore")``: ``exp`` of a
    large ``-z`` overflows to a gate of exactly 0.  The ufuncs write through
    ``out=`` in the order ``reference.lstm_step`` composes them, so the
    values equal it bit for bit."""
    np.matmul(hx, w, out=acts)
    gates = acts[:3]  # sigmoid: 1 / (1 + exp(-z)), from -z
    np.exp(gates, out=gates)
    np.add(1.0, gates, out=gates)
    np.divide(1.0, gates, out=gates)
    np.tanh(acts[3], out=acts[3])
    gate_i, gate_f, gate_o, cand = acts
    np.multiply(gate_f, c_prev, out=tanh_c)
    np.multiply(gate_i, cand, out=c)
    np.add(c, tanh_c, out=c)
    np.tanh(c, out=tanh_c)
    np.multiply(gate_o, tanh_c, out=h)


def lstm_layer(params: LstmParams, inputs, last: bool = False) -> DiffValue:
    """One LSTM layer over a whole sequence as a single autodiff node.

    ``inputs`` is a ``(T, B, in)`` DiffValue, such as the output of the
    layer below, or a ``(T, B, in)`` array (a sequence of T per-step ``(B,
    in)`` arrays is one); the result is the ``(T, B, H)`` hidden sequence
    from zero initial states, or with ``last`` only its final ``(B, H)``
    state.

    Each step is one GEMM (the gate fusion of Appleyard et al.,
    arXiv:1604.01946): :func:`lstm_step` multiplies the row ``[h_{t-1} | x_t
    | 1]`` by the cell's matrix, its sigmoid gates negated once per call
    (:func:`lstm_weights`), so the input projection, the bias and the
    sigmoid's negation happen inside it.  The rows live in one ``(rows, B, H
    + in + 1)`` buffer ``hx`` whose ones column is set once: row t holds ``[h
    before step t | x_t | 1]``, and each step writes its ``h`` into the h
    columns of the next row.  BLAS sees the per-gate ``(B, K) @ (K, H)``
    products of a cell composed from elementary ops, so the values equal a
    chain of ``reference.lstm_step`` bit for bit.

    One time loop serves both uses; whether the node records a backward
    (:func:`autodiff._records`) decides what is kept.  A taped layer's
    ``hx`` has a row per step and one more, with the x columns filled once,
    and its ``(T, B, H)`` output is their h columns (a strided view).  It
    also keeps every step's gate activations, cell state and ``tanh(c)`` for
    the backpropagation through time written out below.  That backward
    computes the factors the recurrence does not feed (``1 - sigma`` of the
    i, f and o gates, ``1 - cand^2`` and ``1 - tanh(c)^2``) once for the
    whole sequence, runs each step's products in their former order into
    preallocated ``(B, H)`` buffers, and accumulates the matrix's gradient
    from one GEMM of the kept rows, so it equals that of the loop that
    computed every factor per step (``reference.lstm_layer_gradients``) bit
    for bit.  Otherwise (inside :func:`~mcan.autodiff.no_tape`) the layer
    keeps one gate and ``tanh(c)`` slot and two-slot rings of rows, into
    which it copies each ``x_t``, and of ``c``; a layer below another copies
    each step's ``h`` into its ``(T, B, H)`` output.  Its memory beyond its
    output does not grow with T.
    """
    node = (inputs,) if isinstance(inputs, DiffValue) else ()  # an array input makes no node
    x = inputs.data if node else np.asarray(inputs, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != params.input_size:
        raise ShapeMismatch(
            f"lstm_layer: input of shape {x.shape} does not have width {params.input_size}"
        )
    steps, batch, width = x.shape
    hidden = params.hidden_size
    w = lstm_weights(params)
    parents = (params.w,) + node
    taped = ad._records(parents)
    rows = steps + 1 if taped else 2  # hx[t % rows], c_seq[t % rows]: the row and cell state before step t
    kept = rows - 1  # acts[t % kept], tanh_c[t % kept]: step t's gates and tanh(c)
    acts = np.empty((kept, 4, batch, hidden))
    tanh_c = np.empty((kept, batch, hidden))
    c_seq = np.zeros((rows, batch, hidden))
    hx = np.empty((rows, batch, hidden + width + 1))
    hx[0, :, :hidden] = 0.0
    hx[:, :, -1] = 1.0
    if taped:
        hx[:steps, :, hidden:-1] = x
    h_seq = None if taped or last else np.empty((steps, batch, hidden))
    with np.errstate(over="ignore"):
        for t in range(steps):
            if not taped:
                hx[t % rows, :, hidden:-1] = x[t]
            lstm_step(w, hx[t % rows], c_seq[t % rows], acts[t % kept],
                      hx[(t + 1) % rows, :, :hidden], c_seq[(t + 1) % rows], tanh_c[t % kept])
            if h_seq is not None:
                h_seq[t] = hx[(t + 1) % rows, :, :hidden]

    def backward(g):
        if last:  # the sequence's gradient is zero before its final state
            g_last, g = g, np.zeros((steps, batch, hidden))
            g[-1] = g_last
        # the factors the recurrence does not feed, for every step at once
        sigmoid_rest = 1.0 - acts[:, :3]  # (T, 3, B, H): 1 - sigma of the i, f and o gates
        cand_slope = 1.0 - acts[:, 3] * acts[:, 3]
        tanh_slope = 1.0 - tanh_c * tanh_c
        d_pre = np.empty((4, steps, batch, hidden))
        w_h_t = params.w.data[:, :hidden].transpose(0, 2, 1)
        dh, dc = np.empty((batch, hidden)), np.empty((batch, hidden))
        dh_next, dc_next = np.zeros((batch, hidden)), np.zeros((batch, hidden))
        d_mixed = np.empty((4, batch, hidden))
        for t in reversed(range(steps)):
            gate_i, gate_f, gate_o, cand = acts[t]
            d_i, d_f, d_o, d_cand = d_pre[:, t]
            rest_i, rest_f, rest_o = sigmoid_rest[t]
            np.add(g[t], dh_next, out=dh)
            np.multiply(dh, gate_o, out=dc)  # dc = dh * o * (1 - tanh(c)^2) + dc_next
            np.multiply(dc, tanh_slope[t], out=dc)
            np.add(dc, dc_next, out=dc)
            np.multiply(dc, cand, out=d_i)  # d_i = dc * cand * i * (1 - i)
            np.multiply(d_i, gate_i, out=d_i)
            np.multiply(d_i, rest_i, out=d_i)
            np.multiply(dc, c_seq[t], out=d_f)  # d_f = dc * c_prev * f * (1 - f)
            np.multiply(d_f, gate_f, out=d_f)
            np.multiply(d_f, rest_f, out=d_f)
            np.multiply(dh, tanh_c[t], out=d_o)  # d_o = dh * tanh(c) * o * (1 - o)
            np.multiply(d_o, gate_o, out=d_o)
            np.multiply(d_o, rest_o, out=d_o)
            np.multiply(dc, gate_i, out=d_cand)  # d_cand = dc * i * (1 - cand^2)
            np.multiply(d_cand, cand_slope[t], out=d_cand)
            np.multiply(dc, gate_f, out=dc_next)
            if t > 0:  # dh_next = the gates' d_pre @ w_h', summed in gate order
                np.matmul(d_pre[:, t], w_h_t, out=d_mixed)
                np.add(d_mixed[0], d_mixed[1], out=dh_next)
                np.add(dh_next, d_mixed[2], out=dh_next)
                np.add(dh_next, d_mixed[3], out=dh_next)
        d_flat = d_pre.reshape(4, steps * batch, hidden)
        # unnegated: d_pre is the gradient of z
        ad._accumulate(params.w, hx[:steps].reshape(steps * batch, -1).T @ d_flat)
        if node and inputs._needs:
            dx = np.matmul(d_flat, params.w.data[:, hidden:-1].transpose(0, 2, 1)).sum(axis=0)
            ad._accumulate(inputs, dx.reshape(steps, batch, width))

    if last:
        return ad._node(hx[steps % rows, :, :hidden].copy(), parents, backward)
    return ad._node(hx[1:, :, :hidden] if taped else h_seq, parents, backward)


def lstm_sequence(stack: LstmStack, inputs, drop: Dropout | None = None) -> DiffValue:
    """Run a stacked LSTM over a sequence of inputs; returns the final hidden state.

    ``inputs`` is a ``(T, batch, dim)`` array or DiffValue, or a sequence of
    T per-step ``(batch, dim)`` arrays; the initial hidden and cell states
    are zero.  Each layer is one :func:`lstm_layer` node, the top one giving
    its final state only.  Dropout, when active, is applied to the hidden
    sequence between layers as one ``(T, B, H)`` mask, which draws the same
    random numbers as one ``(B, H)`` mask per step.
    """
    if len(inputs.data if isinstance(inputs, DiffValue) else inputs) == 0:
        raise ShapeMismatch("lstm_sequence: empty input sequence")
    seq = inputs
    for depth, cell in enumerate(stack.cells):
        if depth > 0 and drop is not None:
            seq = ad.dropout(seq, drop.rate, drop.rng)
        seq = lstm_layer(cell, seq, last=depth == len(stack.cells) - 1)
    return seq


# ---------------------------------------------------------------------------
# Fully connected network


@dataclass
class FnnLayer:
    weight: DiffValue  # (in, out)
    bias: DiffValue  # (out,)


@dataclass
class FnnParams:
    layers: list[FnnLayer]

    @property
    def input_size(self) -> int:
        return self.layers[0].weight.data.shape[0]


def init_fnn(rng, input_size: int, hidden_sizes: list[int], output_size: int) -> FnnParams:
    """Sigmoid hidden layers followed by an identity output layer."""
    sizes = [input_size] + list(hidden_sizes) + [output_size]
    return FnnParams([
        FnnLayer(ad.parameter(ad.xavier_uniform(rng, (n_in, n_out))), ad.parameter(np.zeros(n_out)))
        for n_in, n_out in zip(sizes[:-1], sizes[1:])
    ])


def fnn_forward(params: FnnParams, blocks, drop: Dropout | None = None) -> DiffValue:
    """Chained affine layers on ``(B, in)`` rows given as a list of column
    blocks, joined in order as :func:`~mcan.autodiff.concat` joins them;
    sigmoid hidden activations, each followed by a dropout draw when ``drop``
    is given, and an identity output.  One node, whose backward reaches every
    layer's leaves and, with its columns of the input gradient, every block
    that requires one."""
    blocks = [ad._lift(b) for b in blocks]
    try:
        x = np.concatenate([b.data for b in blocks], axis=1)
    except ValueError:
        raise ShapeMismatch(f"fnn_forward: column blocks of shapes {[b.shape for b in blocks]} "
                            "do not join") from None
    if x.ndim != 2 or x.shape[1] != params.input_size:
        raise ShapeMismatch(f"fnn_forward: column blocks join to shape {x.shape}, "
                            f"expected width {params.input_size}")
    bounds = np.cumsum([0] + [b.data.shape[1] for b in blocks])
    needs_input = any(b._needs for b in blocks)
    depth = len(params.layers)
    inputs, acts, masks = [], [], []  # per layer: its input; per hidden layer: activation, mask
    out = x
    for k, layer in enumerate(params.layers):
        inputs.append(out)
        out = out @ layer.weight.data + layer.bias.data
        if k < depth - 1:
            with np.errstate(over="ignore"):
                out = 1.0 / (1.0 + np.exp(-out))
            acts.append(out)
            masks.append(None if drop is None else ad.dropout_mask(out.shape, drop.rate, drop.rng))
            if masks[-1] is not None:
                out = out * masks[-1]

    def backward(g):
        for k in reversed(range(depth)):
            layer = params.layers[k]
            if k < depth - 1:
                if masks[k] is not None:
                    g = g * masks[k]
                g = g * acts[k] * (1.0 - acts[k])
            ad._accumulate(layer.bias, g.sum(axis=0))
            g_in = g @ layer.weight.data.T if k > 0 or needs_input else None
            ad._accumulate(layer.weight, inputs[k].T @ g)
            g = g_in
        for block, start, stop in zip(blocks, bounds, bounds[1:]):
            if block._needs:
                ad._accumulate(block, np.ascontiguousarray(g[:, start:stop]))

    leaves = tuple(leaf for layer in params.layers for leaf in (layer.weight, layer.bias))
    return ad._node(out, leaves + tuple(blocks), backward)


# ---------------------------------------------------------------------------
# Attention fusion


@dataclass
class AttentionParams:
    """Shared projection plus a learned query scoring each component."""

    projection: DiffValue  # (in, out)
    query: DiffValue  # (out,)


def init_attention(rng, input_size: int, output_size: int) -> AttentionParams:
    return AttentionParams(
        projection=ad.parameter(ad.xavier_uniform(rng, (input_size, output_size))),
        query=ad.parameter(ad.xavier_uniform(rng, (output_size,))),
    )


def _attention_parts(params: AttentionParams, components):
    """The lifted components, each one's projection ``c P`` and the softmax
    weights ``(B, k)`` of the scores ``c P q``."""
    if len(components) == 0:
        raise ShapeMismatch("attention_fuse: no components to fuse")
    components = [ad._lift(c) for c in components]
    projected = [c.data @ params.projection.data for c in components]
    scores = np.concatenate([(p @ params.query.data).reshape(-1, 1) for p in projected], axis=1)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return components, projected, e / e.sum(axis=-1, keepdims=True)


def attention_weights(params: AttentionParams, components) -> np.ndarray:
    """Softmax weights the fusion assigns to each component (for inspection)."""
    return _attention_parts(params, components)[2]


def attention_fuse(params: AttentionParams, components) -> DiffValue:
    """Dot-product attention over projected components: their sum weighted by
    the softmax of their scores, as one node."""
    components, projected, weights = _attention_parts(params, components)
    out = projected[0] * weights[:, 0:1]
    for k in range(1, len(projected)):
        out = out + projected[k] * weights[:, k:k + 1]

    def backward(g):
        g_weights = np.zeros(weights.shape)
        for k, p in enumerate(projected):
            g_weights[:, k:k + 1] += (g * p).sum(axis=1, keepdims=True)
        g_scores = (g_weights - (g_weights * weights).sum(axis=-1, keepdims=True)) * weights
        for k, (c, p) in enumerate(zip(components, projected)):  # the leaves' sums in component order
            g_score = np.ascontiguousarray(g_scores[:, k])
            g_p = g * weights[:, k:k + 1] + np.outer(g_score, params.query.data)
            ad._accumulate(params.query, p.T @ g_score)
            if c._needs:
                ad._accumulate(c, g_p @ params.projection.data.T)
            ad._accumulate(params.projection, c.data.T @ g_p)

    return ad._node(out, (params.projection, params.query, *components), backward)
