"""Tests for the reverse-mode autodiff engine and the Adam optimizer, and for
the elementary ops in ``tests/reference.py`` that the other tests compose
references from."""

import numpy as np
import pytest

import reference
from conftest import finite_difference, relative_gradient_error
from mcan import autodiff as ad
from mcan.errors import ConfigError, McanError, ShapeMismatch


def test_sigmoid_at_zero():
    assert reference.sigmoid(ad.constant(0.0)).item() == 0.5


def test_tanh_at_zero():
    assert reference.tanh(ad.constant(0.0)).item() == 0.0


def test_matmul_hand_value():
    # [[1,2],[3,4]] @ [[1],[1]] = [[3],[7]]
    a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    b = ad.constant([[1.0], [1.0]])
    out = reference.matmul(a, b)
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_error_names_op():
    a = ad.constant(np.ones((2, 3)))
    b = ad.constant(np.ones((2, 3)))
    with pytest.raises(ShapeMismatch, match="matmul"):
        reference.matmul(a, b)


def test_add_shape_error():
    with pytest.raises(ShapeMismatch, match="add"):
        reference.add(ad.constant(np.ones(3)), ad.constant(np.ones(4)))


def test_backward_square():
    x = ad.parameter(3.0)
    loss = reference.square(x)
    loss.backward()
    assert loss.item() == 9.0
    assert x.grad == pytest.approx(6.0)


def test_backward_sigmoid_at_zero():
    x = ad.parameter(0.0)
    loss = reference.sigmoid(x)
    loss.backward()
    assert x.grad == pytest.approx(0.25)


def test_backward_requires_scalar():
    x = ad.parameter(np.ones(3))
    with pytest.raises(ShapeMismatch, match="scalar"):
        reference.multiply(x, 2.0).backward()


def test_backward_refused_inside_no_tape():
    x = ad.parameter(3.0)
    loss = reference.square(x)
    with ad.no_tape():
        with pytest.raises(McanError, match="no_tape"):
            loss.backward()
    assert x.grad is None
    loss.backward()
    assert x.grad == pytest.approx(6.0)


def test_backward_idempotent_after_zero_grad():
    x = ad.parameter(2.0)

    def run():
        x.grad = None
        loss = reference.square(reference.sigmoid(x))
        loss.backward()
        return float(x.grad)

    assert run() == run()


def test_value_used_twice_accumulates_both_paths():
    # loss = x*x + 3x -> dloss/dx = 2x + 3
    x = ad.parameter(1.5)
    loss = reference.add(reference.multiply(x, x), reference.multiply(x, 3.0))
    loss.backward()
    assert x.grad == pytest.approx(2 * 1.5 + 3)

    numeric = finite_difference(
        lambda: reference.add(reference.multiply(x, x), reference.multiply(x, 3.0)).item(), x
    )
    assert relative_gradient_error(np.asarray(x.grad), numeric) < 1e-6


def test_three_layer_composite_matches_finite_differences():
    rng = np.random.default_rng(7)
    w1 = ad.parameter(rng.normal(size=(4, 5)))
    b1 = ad.parameter(rng.normal(size=5))
    w2 = ad.parameter(rng.normal(size=(5, 3)))
    b2 = ad.parameter(rng.normal(size=3))
    w3 = ad.parameter(rng.normal(size=(3, 1)))
    x = ad.constant(rng.normal(size=(2, 4)))

    def forward():
        h1 = reference.tanh(reference.add(reference.matmul(x, w1), b1))
        h2 = reference.sigmoid(reference.add(reference.matmul(h1, w2), b2))
        return reference.vsum(reference.square(reference.matmul(h2, w3)))

    loss = forward()
    loss.backward()
    for p in (w1, b1, w2, b2, w3):
        numeric = finite_difference(lambda: forward().item(), p)
        assert relative_gradient_error(p.grad, numeric) < 1e-4


def test_broadcast_add_gradient():
    rng = np.random.default_rng(3)
    m = ad.parameter(rng.normal(size=(4, 3)))
    b = ad.parameter(rng.normal(size=3))

    def forward():
        return reference.vsum(reference.square(reference.add(m, b)))

    forward().backward()
    for p in (m, b):
        numeric = finite_difference(lambda: forward().item(), p)
        assert relative_gradient_error(p.grad, numeric) < 1e-5


def test_concat_take_reshape_gradients():
    rng = np.random.default_rng(11)
    a = ad.parameter(rng.normal(size=(2, 3)))
    b = ad.parameter(rng.normal(size=(2, 2)))

    def forward():
        joined = ad.concat([a, b], axis=1)
        picked = reference.take(joined, (slice(None), [0, 2, 4]))
        return reference.vsum(reference.square(reference.reshape(picked, (6,))))

    forward().backward()
    for p in (a, b):
        numeric = finite_difference(lambda: forward().item(), p)
        assert relative_gradient_error(p.grad, numeric) < 1e-5


@pytest.mark.parametrize("key", [-1, (slice(None), slice(1, 2)), (Ellipsis, 0), (1, None), [0, 2, 0]])
def test_take_gradient_adds_into_picked_elements(key):
    # A basic key picks each element at most once, an integer list may pick
    # one twice; either way the gradient equals the scatter-add, bit for bit.
    rng = np.random.default_rng(17)
    a = ad.parameter(rng.normal(size=(3, 4)))
    picked = reference.take(a, key)
    g = rng.normal(size=picked.data.shape)
    reference.vsum(reference.multiply(picked, g)).backward()
    expected = np.zeros(a.data.shape)
    np.add.at(expected, key, g)
    assert a.grad.tobytes() == expected.tobytes()


def test_softmax_rows_are_probability_vectors():
    rng = np.random.default_rng(5)
    x = ad.constant(rng.normal(scale=8.0, size=(50, 7)))
    y = reference.softmax(x, axis=-1).data
    assert np.all(y > 0)
    assert np.abs(y.sum(axis=-1) - 1.0).max() < 1e-12


def test_softmax_gradient():
    rng = np.random.default_rng(9)
    x = ad.parameter(rng.normal(size=(3, 4)))
    weights = rng.normal(size=(3, 4))

    def forward():
        return reference.vsum(reference.multiply(reference.softmax(x, axis=-1), weights))

    forward().backward()
    numeric = finite_difference(lambda: forward().item(), x)
    assert relative_gradient_error(x.grad, numeric) < 1e-5


def test_vsum_axis_gradients():
    rng = np.random.default_rng(13)
    x = ad.parameter(rng.normal(size=(3, 4, 2)))

    def forward():
        return reference.vsum(reference.square(reference.vsum(x, axis=2)))

    forward().backward()
    numeric = finite_difference(lambda: forward().item(), x)
    assert relative_gradient_error(x.grad, numeric) < 1e-5


def test_pack_makes_leaves_views():
    leaves = [ad.parameter(2.0), ad.parameter(np.arange(6.0).reshape(2, 3)),
              ad.parameter(np.array([7.0]))]
    theta, grad = ad.pack(leaves)
    assert np.array_equal(theta, [2.0, 0, 1, 2, 3, 4, 5, 7.0])
    assert np.array_equal(grad, np.zeros(8))
    assert [p.data.shape for p in leaves] == [p.grad.shape for p in leaves] == [(), (2, 3), (1,)]
    reference.vsum(reference.multiply(leaves[1], 3.0)).backward()
    assert np.array_equal(grad, [0, 3, 3, 3, 3, 3, 3, 0])
    theta += 1.0
    assert float(leaves[0].data) == 3.0 and leaves[1].data[1, 2] == 6.0


def test_engine_makes_nodes_only_through_fused_ops():
    # The model's layers are fused nodes.  An elementary op or an operator
    # on the production path would bring back thousands of tiny nodes per
    # step; the tests compose theirs from tests/reference.py.
    assert [op for op in ("add", "multiply", "matmul", "take", "sigmoid", "tanh") if hasattr(ad, op)] == []
    operators = ("__add__", "__radd__", "__iadd__", "__sub__", "__rsub__", "__isub__", "__mul__",
                 "__rmul__", "__imul__", "__matmul__", "__rmatmul__", "__truediv__", "__rtruediv__",
                 "__pow__", "__neg__", "__pos__", "__abs__", "__getitem__")
    assert [name for name in operators if hasattr(ad.DiffValue, name)] == []


class TestAdam:
    def test_first_step_unit_gradient(self):
        # m_hat = v_hat = 1 after one step with g = 1, so the update is
        # -lr / (1 + eps) which is within 1e-9 of -lr.
        theta = np.zeros(4)
        state = ad.AdamState(learning_rate=0.0001)
        ad.adam_step(theta, np.ones(4), state)
        assert np.abs(theta - (-0.0001)).max() < 1e-9
        assert state.step == 1

    def test_zero_gradient_is_fixed_point(self):
        p = ad.parameter(np.array([1.0, -2.0]))
        unreached = ad.parameter(np.array([3.0]))  # a parameter the loss does not reach
        theta, grad = ad.pack([p, unreached])
        before = theta.copy()
        state = ad.AdamState()
        ad.adam_step(theta, grad, state)
        assert np.array_equal(theta, before)
        reference.vsum(reference.square(p)).backward()
        ad.adam_step(theta, grad, state)
        assert not np.array_equal(p.data, before[:2])
        assert np.array_equal(unreached.data, before[2:])

    def test_two_steps_constant_gradient_monotone(self):
        # Constant g: both steps move opposite to sign(g); hand-evaluating the
        # formulas gives m_hat = g, v_hat = g^2 each step, so each update is
        # close to -lr * sign(g).
        for g_sign in (1.0, -1.0):
            theta = np.zeros(1)
            grad = np.full(1, g_sign)
            state = ad.AdamState(learning_rate=0.01)
            ad.adam_step(theta, grad, state)
            first = theta.copy()
            ad.adam_step(theta, grad, state)
            assert state.step == 2
            assert np.sign(first[0]) == -g_sign
            assert np.sign(theta[0] - first[0]) == -g_sign


class TestDropout:
    def test_gradient_is_the_mask(self):
        x = ad.parameter(np.arange(1.0, 7.0).reshape(2, 3))
        out = ad.dropout(x, 0.5, np.random.default_rng(3))
        mask = ad.dropout_mask(x.data.shape, 0.5, np.random.default_rng(3))
        assert out.data.tobytes() == (x.data * mask).tobytes()
        reference.vsum(out).backward()
        assert x.grad.tobytes() == mask.tobytes()

    def test_rate_zero_is_identity(self):
        x = ad.constant(np.arange(5.0))
        rng = np.random.default_rng(0)
        assert np.array_equal(ad.dropout(x, 0.0, rng).data, x.data)

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigError):
            ad.dropout(ad.constant(np.ones(3)), 1.0, np.random.default_rng(0))

    def test_survivor_fraction_concentrates(self):
        rng = np.random.default_rng(42)
        x = ad.constant(np.ones(100_000))
        out = ad.dropout(x, 0.5, rng)
        survivors = np.count_nonzero(out.data) / out.data.size
        assert 0.49 <= survivors <= 0.51
        # Inverted scaling: survivors are exactly 1 / (1 - rate).
        assert np.allclose(out.data[out.data != 0], 2.0)
