"""Differentiable building blocks: Chebyshev features, LSTM, FNN, attention fusion.

Every forward function takes ``(batch, dim)`` rows; a single sample is a
batch of one.  Parameters are plain dataclasses holding
:class:`~mcan.autodiff.DiffValue` leaves; ``model.init_mcan`` makes them views
of one parameter vector, which the optimizer updates, and the
``named_parameters`` walk names them for the checkpoint.

Each LSTM layer runs over its whole sequence as one autodiff node
(:func:`lstm_layer`) with a hand-written backward pass through time; the
composed :func:`lstm_step` stays as the reference the tests check it
against, by value and by finite differences.
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

    def apply(self, x: DiffValue) -> DiffValue:
        return ad.dropout(x, self.rate, self.rng)


def _maybe_drop(x: DiffValue, drop: Dropout | None) -> DiffValue:
    return drop.apply(x) if drop is not None and drop.rate > 0.0 else x


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
    """Weights of one LSTM cell (one matrix per gate, as in the cell equations)."""

    w_ix: DiffValue
    w_ih: DiffValue
    w_fx: DiffValue
    w_fh: DiffValue
    w_ox: DiffValue
    w_oh: DiffValue
    w_cx: DiffValue
    w_ch: DiffValue
    b_i: DiffValue
    b_f: DiffValue
    b_o: DiffValue
    b_c: DiffValue

    @property
    def hidden_size(self) -> int:
        return self.w_ih.data.shape[0]

    @property
    def input_size(self) -> int:
        return self.w_ix.data.shape[0]


@dataclass
class LstmStack:
    """Stacked LSTM layers; layer k feeds its hidden sequence to layer k+1."""

    cells: list[LstmParams]

    @property
    def hidden_size(self) -> int:
        return self.cells[-1].hidden_size


def init_lstm(rng: np.random.Generator, input_size: int, hidden_size: int) -> LstmParams:
    def w(n_in):
        return ad.parameter(ad.xavier_uniform(rng, (n_in, hidden_size)))

    def b():
        return ad.parameter(np.zeros(hidden_size))

    return LstmParams(
        w_ix=w(input_size), w_ih=w(hidden_size),
        w_fx=w(input_size), w_fh=w(hidden_size),
        w_ox=w(input_size), w_oh=w(hidden_size),
        w_cx=w(input_size), w_ch=w(hidden_size),
        b_i=b(), b_f=b(), b_o=b(), b_c=b(),
    )


def init_lstm_stack(rng, input_size: int, hidden_size: int, layers: int) -> LstmStack:
    cells = [init_lstm(rng, input_size if k == 0 else hidden_size, hidden_size) for k in range(layers)]
    return LstmStack(cells)


def lstm_step(params: LstmParams, x, h_prev, c_prev) -> tuple[DiffValue, DiffValue]:
    """One LSTM cell update: three sigmoid gates, tanh candidate, new state.

    Composed from elementary ops, one gate at a time.  Training and
    evaluation run :func:`lstm_layer` instead; this is the readable form of
    the cell equations that the tests hold the fused layer to.
    """
    x, h_prev, c_prev = (ad._lift(v) for v in (x, h_prev, c_prev))
    if x.data.shape[1] != params.input_size:
        raise ShapeMismatch(
            f"lstm_step: input width {x.data.shape[1]} != expected {params.input_size}"
        )
    gate_i = ad.sigmoid(ad.matmul(x, params.w_ix) + ad.matmul(h_prev, params.w_ih) + params.b_i)
    gate_f = ad.sigmoid(ad.matmul(x, params.w_fx) + ad.matmul(h_prev, params.w_fh) + params.b_f)
    gate_o = ad.sigmoid(ad.matmul(x, params.w_ox) + ad.matmul(h_prev, params.w_oh) + params.b_o)
    candidate = ad.tanh(ad.matmul(x, params.w_cx) + ad.matmul(h_prev, params.w_ch) + params.b_c)
    c_new = gate_i * candidate + gate_f * c_prev
    h_new = gate_o * ad.tanh(c_new)
    return h_new, c_new


def lstm_layer(params: LstmParams, inputs) -> DiffValue:
    """One LSTM layer over a whole sequence as a single autodiff node.

    ``inputs`` is either the ``(T, B, in)`` output of the layer below or a
    sequence of T per-step ``(B, in)`` values (arrays or DiffValues); the
    result is the ``(T, B, H)`` hidden sequence from zero initial states.

    The four gates' weights are stacked so one batched matmul projects every
    step's input and one per step mixes in the previous hidden state (the
    gate fusion of Appleyard et al., arXiv:1604.01946).  BLAS still sees the
    per-gate ``(B, in) @ (in, H)`` products of :func:`lstm_step`, and each
    step adds and activates in its order, so the values equal those of a
    chain of cell updates bit for bit.  Backpropagation through time is
    written out below and reaches the 12 gate leaves and every input that
    requires a gradient.
    """
    if isinstance(inputs, DiffValue):
        x = inputs.data
        sources = [(inputs, slice(None))] if inputs._needs else []
    else:
        x = np.stack([s.data if isinstance(s, DiffValue) else np.asarray(s, dtype=np.float64)
                      for s in inputs])
        sources = [(s, t) for t, s in enumerate(inputs) if isinstance(s, DiffValue) and s._needs]
    if x.ndim != 3 or x.shape[2] != params.input_size:
        raise ShapeMismatch(
            f"lstm_layer: input of shape {x.shape} does not have width {params.input_size}"
        )
    steps, batch, width = x.shape
    hidden = params.hidden_size
    # Gate order i, f, o (sigmoid), then the tanh candidate c.
    leaves = (params.w_ix, params.w_fx, params.w_ox, params.w_cx,
              params.w_ih, params.w_fh, params.w_oh, params.w_ch,
              params.b_i, params.b_f, params.b_o, params.b_c)
    w_x = np.stack([p.data for p in leaves[0:4]])  # (4, in, H)
    w_h = np.stack([p.data for p in leaves[4:8]])  # (4, H, H)
    bias = np.stack([p.data for p in leaves[8:12]])[:, None, :]  # (4, 1, H)
    x_proj = np.matmul(x[:, None], w_x)  # (T, 4, B, H)

    acts = np.empty((steps, 4, batch, hidden))
    h_seq = np.zeros((steps + 1, batch, hidden))  # h_seq[t] is the state before step t
    c_seq = np.zeros((steps + 1, batch, hidden))
    tanh_c = np.empty((steps, batch, hidden))
    for t in range(steps):
        pre = x_proj[t] + np.matmul(h_seq[t], w_h) + bias
        with np.errstate(over="ignore"):
            acts[t, :3] = 1.0 / (1.0 + np.exp(-pre[:3]))
        acts[t, 3] = np.tanh(pre[3])
        gate_i, gate_f, gate_o, cand = acts[t]
        c_seq[t + 1] = gate_i * cand + gate_f * c_seq[t]
        tanh_c[t] = np.tanh(c_seq[t + 1])
        h_seq[t + 1] = gate_o * tanh_c[t]

    def backward(g):
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
        x_flat = x.reshape(steps * batch, width)
        h_flat = h_seq[:-1].reshape(steps * batch, hidden)
        grads = (list(x_flat.T @ d_flat) + list(h_flat.T @ d_flat)
                 + list(d_flat.sum(axis=1)))
        for leaf, grad in zip(leaves, grads):
            ad._accumulate(leaf, grad)
        if sources:
            dx = np.matmul(d_flat, w_x.transpose(0, 2, 1)).sum(axis=0)
            dx = dx.reshape(steps, batch, width)
            for source, where in sources:
                ad._accumulate(source, dx[where].reshape(source.data.shape))

    return ad._node(h_seq[1:], leaves + tuple(s for s, _ in sources), backward)


def lstm_sequence(stack: LstmStack, inputs, drop: Dropout | None = None) -> DiffValue:
    """Run a stacked LSTM over a sequence of inputs; returns the final hidden state.

    ``inputs`` is a sequence of per-step ``(batch, dim)`` values (a
    ``(T, batch, dim)`` array is one); the initial hidden and cell states
    are zero.  Each layer is one :func:`lstm_layer` node.  Dropout, when
    active, is applied to the hidden sequence between layers as one
    ``(T, B, H)`` mask, which draws the same random numbers as one ``(B, H)``
    mask per step.
    """
    if len(inputs) == 0:
        raise ShapeMismatch("lstm_sequence: empty input sequence")
    seq = inputs
    for depth, cell in enumerate(stack.cells):
        if depth > 0:
            seq = _maybe_drop(seq, drop)
        seq = lstm_layer(cell, seq)
    return seq[-1]


# ---------------------------------------------------------------------------
# Fully connected network


@dataclass
class FnnLayer:
    weight: DiffValue  # (in, out)
    bias: DiffValue  # (out,)
    activation: str  # "sigmoid" or "identity"


@dataclass
class FnnParams:
    layers: list[FnnLayer]

    @property
    def input_size(self) -> int:
        return self.layers[0].weight.data.shape[0]

    @property
    def output_size(self) -> int:
        return self.layers[-1].weight.data.shape[1]


def init_fnn(rng, input_size: int, hidden_sizes: list[int], output_size: int) -> FnnParams:
    """Sigmoid hidden layers followed by an identity output layer."""
    sizes = [input_size] + list(hidden_sizes) + [output_size]
    layers = []
    for k in range(len(sizes) - 1):
        act = "identity" if k == len(sizes) - 2 else "sigmoid"
        layers.append(FnnLayer(
            weight=ad.parameter(ad.xavier_uniform(rng, (sizes[k], sizes[k + 1]))),
            bias=ad.parameter(np.zeros(sizes[k + 1])),
            activation=act,
        ))
    return FnnParams(layers)


def fnn_forward(params: FnnParams, x, drop: Dropout | None = None) -> DiffValue:
    """Chained affine layers; sigmoid hidden activations, identity output."""
    x = x if isinstance(x, DiffValue) else ad.constant(x)
    width = x.data.shape[-1]
    if width != params.input_size:
        raise ShapeMismatch(f"fnn_forward: input width {width} != expected {params.input_size}")
    out = x
    for k, layer in enumerate(params.layers):
        out = ad.matmul(out, layer.weight) + layer.bias
        if layer.activation == "sigmoid":
            out = ad.sigmoid(out)
            out = _maybe_drop(out, drop)
        elif layer.activation != "identity":
            raise ConfigError(f"unknown activation {layer.activation!r}")
    return out


# ---------------------------------------------------------------------------
# Attention fusion


@dataclass
class AttentionParams:
    """Shared projection plus a learned query scoring each component."""

    projection: DiffValue  # (in, out)
    query: DiffValue  # (out,)

    @property
    def output_size(self) -> int:
        return self.projection.data.shape[1]


def init_attention(rng, input_size: int, output_size: int) -> AttentionParams:
    return AttentionParams(
        projection=ad.parameter(ad.xavier_uniform(rng, (input_size, output_size))),
        query=ad.parameter(ad.xavier_uniform(rng, (output_size,))),
    )


def _attention_parts(params: AttentionParams, components):
    if len(components) == 0:
        raise ShapeMismatch("attention_fuse: no components to fuse")
    projected = [ad.matmul(c, params.projection) for c in components]
    scores = [ad.reshape(ad.matmul(p, params.query), (-1, 1)) for p in projected]
    weights = ad.softmax(ad.concat(scores, axis=1), axis=-1)  # (batch, k)
    return projected, weights


def attention_weights(params: AttentionParams, components) -> np.ndarray:
    """Softmax weights the fusion assigns to each component (for inspection)."""
    _, weights = _attention_parts(params, components)
    return weights.data


def attention_fuse(params: AttentionParams, components) -> DiffValue:
    """Dot-product attention over projected components: weighted sum by softmax scores."""
    projected, weights = _attention_parts(params, components)
    out = None
    for k, p in enumerate(projected):
        term = ad.multiply(p, weights[:, k : k + 1])
        out = term if out is None else ad.add(out, term)
    return out
