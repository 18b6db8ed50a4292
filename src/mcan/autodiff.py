"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`DiffValue` wraps a numpy array together with a gradient slot and a
recorded backward rule.  The model's layers are each one node made by
:func:`_node` with a hand-written backward rule; joining values with
:func:`concat` and :func:`dropout` produces an acyclic computation graph, and
calling :meth:`DiffValue.backward` on a scalar result fills ``grad`` on every
node that requires it.  Everything is double precision so analytic gradients
can be verified against central finite differences at tight tolerances.

These three are the only node makers: the engine has no elementary ops and
``DiffValue`` no arithmetic operators.  The elementary ops that the tests
compose reference forms of each fused node from live in
``tests/reference.py``.

Inside :func:`no_tape` the ops compute the same values but record no
parents and no backward rule, so each op's inputs and the arrays its backward
would read are freed as soon as the forward moves past them, and an LSTM
layer does not fill those arrays at all; ``backward`` refuses to run there.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, McanError, ShapeMismatch

Array = np.ndarray

_taping = True  # False inside no_tape()


class DiffValue:
    """One node of the computation graph: value, gradient, backward rule."""

    __slots__ = ("data", "grad", "requires_grad", "_needs", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._needs = requires_grad
        self._parents: tuple[DiffValue, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Reverse pass from a scalar-shaped node; accumulates into leaf grads."""
        if not _taping:
            raise McanError("backward called inside autodiff.no_tape(), where no graph is recorded")
        if self.data.size != 1:
            raise ShapeMismatch(f"backward requires a scalar loss, got shape {self.data.shape}")
        # Iterative topological order; graphs here can be deeper than the
        # Python recursion limit (long LSTM chains).
        topo: list[DiffValue] = []
        visited: set[int] = set()
        stack: list[tuple[DiffValue, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        _accumulate(self, np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"DiffValue(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data) -> DiffValue:
    return DiffValue(data, requires_grad=False)


def parameter(data) -> DiffValue:
    return DiffValue(data, requires_grad=True)


def _lift(x) -> DiffValue:
    return x if isinstance(x, DiffValue) else constant(x)


def _accumulate(node: DiffValue, g: Array) -> None:
    if not node._needs:
        return
    if g.shape != node.data.shape:
        raise ShapeMismatch(f"gradient shape {g.shape} != value shape {node.data.shape}")
    if node.grad is None:
        node.grad = g.copy()
    else:
        node.grad += g


@contextmanager
def no_tape():
    """Scope in which ops record no graph, for forwards nothing will
    differentiate: the values are unchanged, the memory a backward pass would
    need is not kept, and :meth:`DiffValue.backward` raises.  Ops that size
    their buffers by :func:`_records` do not even allocate it: an LSTM layer
    keeps two states instead of its whole sequence.  The scope is
    process-wide, not per thread; the previous state returns on exit, also
    when the body raises."""
    global _taping
    previous, _taping = _taping, False
    try:
        yield
    finally:
        _taping = previous


def _records(parents) -> bool:
    """Whether a node over ``parents`` records its backward rule: outside
    :func:`no_tape` and with a parent that requires a gradient.  A fused op
    keeps the arrays its backward reads only when this holds."""
    return _taping and any(p._needs for p in parents)


def _node(data: Array, parents: tuple[DiffValue, ...], backward) -> DiffValue:
    out = DiffValue(data)
    if _records(parents):
        out._needs = True
        out._parents = parents
        out._backward = backward
    return out


def concat(values, axis: int = 0) -> DiffValue:
    vals = [_lift(v) for v in values]
    if not vals:
        raise ShapeMismatch("concat: empty input list")
    try:
        data = np.concatenate([v.data for v in vals], axis=axis)
    except ValueError:
        raise ShapeMismatch(
            f"concat: incompatible shapes {[v.shape for v in vals]} along axis {axis}"
        ) from None
    sizes = [v.data.shape[axis] for v in vals]

    def backward(g):
        offset = 0
        for v, size in zip(vals, sizes):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + size)
            _accumulate(v, np.ascontiguousarray(g[tuple(index)]))
            offset += size

    return _node(data, tuple(vals), backward)


def dropout_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator) -> Array | None:
    """Inverted-dropout multipliers: 0 for a dropped element, 1/(1-rate) for
    a survivor, so evaluation is identity; None at rate 0, which draws
    nothing."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return None
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def dropout(x: DiffValue, rate: float, rng: np.random.Generator) -> DiffValue:
    """``x`` times one :func:`dropout_mask` draw, as one node."""
    mask = dropout_mask(x.data.shape, rate, rng)
    if mask is None:
        return x

    def backward(g):
        _accumulate(x, g * mask)

    return _node(x.data * mask, (x,), backward)


def pack(leaves: list[DiffValue]) -> tuple[Array, Array]:
    """Pack the leaves, in order, into one value vector ``theta`` and one
    zeroed ``grad`` vector; each leaf's ``data`` and ``grad`` become views of
    its slice.  Rebinding a packed leaf's ``data`` or ``grad`` detaches it."""
    theta = np.concatenate([p.data.reshape(-1) for p in leaves])
    grad = np.zeros_like(theta)
    offset = 0
    for p in leaves:
        shape, end = p.data.shape, offset + p.data.size
        p.data, p.grad = theta[offset:end].reshape(shape), grad[offset:end].reshape(shape)
        offset = end
    return theta, grad


@dataclass
class AdamState:
    """Adam optimizer state of one parameter vector."""

    learning_rate: float = 0.0001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: Array | None = None
    v: Array | None = None


def adam_step(theta: Array, grad: Array, state: AdamState) -> None:
    """Adam with bias correction (Kingma & Ba, arXiv:1412.6980), in place on
    the vector ``theta`` from the same-shape ``grad``."""
    if grad.shape != theta.shape:
        raise ShapeMismatch(f"adam_step: grad shape {grad.shape} != param shape {theta.shape}")
    if state.m is None:
        state.m, state.v = np.zeros_like(theta), np.zeros_like(theta)
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    state.m = b1 * state.m + (1.0 - b1) * grad
    state.v = b2 * state.v + (1.0 - b2) * (grad * grad)
    m_hat = state.m / (1.0 - b1 ** state.step)
    v_hat = state.v / (1.0 - b2 ** state.step)
    theta -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> Array:
    """Xavier/Glorot uniform initialization for a weight matrix."""
    fan_in = shape[0]
    fan_out = shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
