"""Tests for Chebyshev/CPA features, LSTM, FNN, and attention fusion."""

import contextlib
import functools
import tracemalloc

import numpy as np
import pytest

import reference
from conftest import finite_difference, relative_gradient_error
from mcan import autodiff as ad
from mcan import hsc
from mcan import nnlayers as nn
from mcan.errors import ShapeMismatch


class TestChebyshev:
    def test_at_one_all_ones(self):
        assert np.array_equal(nn.chebyshev_basis(1.0, 4), np.ones(4))

    def test_order_two_hand_value(self):
        assert np.allclose(nn.chebyshev_basis(0.5, 2), [0.5, -0.5])

    def test_order_three_recurrence_value(self):
        # T_3(0.5) = 2*0.5*T_2(0.5) - T_1(0.5) = 2*0.5*(-0.5) - 0.5 = -1.0
        assert np.allclose(nn.chebyshev_basis(0.5, 3), [0.5, -0.5, -1.0])

    def test_matches_cosine_identity(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(-1.0, 1.0, size=500)
        basis = nn.chebyshev_basis(x, 8)
        for l in range(1, 9):
            expected = np.cos(l * np.arccos(x))
            assert np.abs(basis[l - 1] - expected).max() < 1e-9

    def test_recurrence_identity_random_points(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(-1.0, 1.0, size=200)
        basis = nn.chebyshev_basis(x, 8)
        for l in range(2, 8):
            # T_{l+1} - 2x T_l + T_{l-1} == 0
            residual = basis[l] - 2.0 * x * basis[l - 1] + basis[l - 2]
            assert np.abs(residual).max() < 1e-12

    def test_out_of_range_clamped(self):
        assert np.array_equal(nn.chebyshev_basis(3.0, 3), nn.chebyshev_basis(1.0, 3))
        assert np.array_equal(nn.chebyshev_basis(-7.0, 3), nn.chebyshev_basis(-1.0, 3))

    def test_diffvalue_path_matches_numpy_path(self):
        rng = np.random.default_rng(29)
        x = rng.uniform(-1.0, 1.0, size=(4, 3))
        feats = reference.chebyshev_features(ad.constant(x), 6)
        basis = nn.chebyshev_basis(x, 6)
        for l in range(6):
            assert np.allclose(feats[l].data, basis[l], atol=1e-14)


class TestCpa:
    """The CPA fill of the embedding, ``A @ coefficients`` (``hsc.fill_basis``
    holds ``A``), at fill position j of a length-1 window on a grid of c
    slots: sum_l v_l T_l(2j/c - 1)."""

    def embed(self, coefficients, embed_len):
        cpa = nn.CpaParams(ad.parameter(np.asarray(coefficients, dtype=np.float64)))
        return cpa, hsc.embed_windows(np.zeros((1, embed_len)), np.array([1]), cpa)

    def test_first_coefficient_picks_linear_term(self):
        # on a 20-slot grid, positions 2, 9 and 14 map to -0.8, -0.1 and 0.4
        _, out = self.embed([1.0, 0.0, 0.0, 0.0, 0.0], 20)
        for j, x in ((2, -0.8), (9, -0.1), (14, 0.4)):
            assert out.data[0, j] == pytest.approx(x)

    def test_zero_coefficients_give_zero(self):
        _, out = self.embed(np.zeros(5), 12)
        assert np.array_equal(out.data, np.zeros((1, 12)))

    def test_two_term_hand_value(self):
        # 0.5*T_1(x) + 0.5*T_2(x) at x = -0.5, 0, 0.5 (positions 1..3 of 4):
        # 0.5*(-0.5) + 0.5*(-0.5) = -0.5, 0 + 0.5*(-1) = -0.5, 0.5*0.5 + 0.5*(-0.5) = 0
        _, out = self.embed([0.5, 0.5], 4)
        assert out.data[0, 1:] == pytest.approx([-0.5, -0.5, 0.0])

    def test_gradient_wrt_coefficients_is_basis(self):
        cpa, out = self.embed([0.3, -0.2, 0.7], 10)
        pick = np.zeros((1, 10))
        pick[0, 8] = 1.0  # position 8 maps to 0.6
        reference.vsum(reference.multiply(out, pick)).backward()
        assert np.allclose(cpa.coefficients.grad, nn.chebyshev_basis(0.6, 3))

    def test_gradient_wrt_input(self):
        # the differentiable series sum_l v_l T_l(x) over chebyshev_features
        v = np.array([0.3, -0.2, 0.7, 0.1])
        x = ad.parameter(np.array(0.4))

        def forward():
            terms = [reference.multiply(f, c) for f, c in zip(reference.chebyshev_features(x, len(v)), v)]
            return functools.reduce(reference.add, terms)

        forward().backward()
        numeric = finite_difference(lambda: forward().item(), x)
        assert relative_gradient_error(x.grad, numeric) < 1e-6


def zero_lstm(input_size, hidden_size):
    return nn.LstmParams(ad.parameter(np.zeros((4, hidden_size + input_size + 1, hidden_size))))


def cell_step(p, x, h_prev, c_prev):
    """``nn.lstm_step`` on the row ``[h_prev | x | 1]`` and the stacked
    weights, writing into fresh output arrays: the new ``(h, c)``."""
    h, c, tanh_c = (np.empty(np.shape(h_prev)) for _ in range(3))
    hx = np.concatenate([h_prev, x, np.ones((len(x), 1))], axis=1)
    with np.errstate(over="ignore"):
        nn.lstm_step(nn.lstm_weights(p), hx, c_prev, np.empty((4,) + h.shape), h, c, tanh_c)
    return h, c


class TestLstm:
    def test_init_stacks_per_gate_draws(self):
        # The gates' matrices are drawn one by one in the order w_ix, w_ih,
        # w_fx, w_fh, w_ox, w_oh, w_cx, w_ch, so a seed gives the network it
        # gave when every matrix was its own leaf: gate k's recurrent rows
        # are w[k, :H], its input rows w[k, H:-1] and its bias row w[k, -1].
        p = nn.init_lstm(np.random.default_rng(7), 3, 5)
        rng = np.random.default_rng(7)
        per_gate = {}
        for gate in "ifoc":
            per_gate[f"w_{gate}x"] = ad.xavier_uniform(rng, (3, 5))
            per_gate[f"w_{gate}h"] = ad.xavier_uniform(rng, (5, 5))
        assert p.w.data.shape == (4, 9, 5)
        assert (p.input_size, p.hidden_size) == (3, 5)
        for k, gate in enumerate("ifoc"):
            assert np.array_equal(p.w.data[k, 5:-1], per_gate[f"w_{gate}x"])
            assert np.array_equal(p.w.data[k, :5], per_gate[f"w_{gate}h"])
        assert np.array_equal(p.w.data[:, -1], np.zeros((4, 5)))

    def test_zero_parameters_zero_state(self):
        p = zero_lstm(3, 4)
        h, c = cell_step(p, np.zeros((1, 3)), np.zeros((1, 4)), np.zeros((1, 4)))
        assert np.array_equal(h, np.zeros((1, 4)))
        assert np.array_equal(c, np.zeros((1, 4)))

    def test_saturated_forget_gate_preserves_cell(self):
        p = zero_lstm(2, 3)
        p.w.data[1, -1] = 30.0  # forget gate bias
        c_prev = np.array([[0.7, -1.2, 2.0]])
        _, c = cell_step(p, np.ones((1, 2)), np.zeros((1, 3)), c_prev)
        assert np.abs(c - c_prev).max() < 1e-6

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = nn.init_lstm(rng, 3, 5)
            p.w.data[:, -1] = rng.normal(size=(4, 5))
            x = rng.normal(size=(1, 3))
            h_prev = rng.normal(size=(1, 5))
            c_prev = rng.normal(size=(1, 5))
            h, c = cell_step(p, x, h_prev, c_prev)
            h_ref, c_ref = reference.lstm_cell(p, x, h_prev, c_prev)
            assert np.abs(h - h_ref).max() < 1e-12
            assert np.abs(c - c_ref).max() < 1e-12

    def test_hidden_is_bounded_by_one(self):
        rng = np.random.default_rng(37)
        p = nn.init_lstm(rng, 4, 6)
        h = np.zeros((1, 6))
        c = np.zeros((1, 6))
        for _ in range(50):
            h, c = cell_step(p, rng.normal(scale=5.0, size=(1, 4)), h, c)
            assert np.abs(h).max() <= 1.0

    def test_sequence_length_one_equals_single_step(self):
        rng = np.random.default_rng(41)
        p = nn.init_lstm(rng, 2, 3)
        x = rng.normal(size=(1, 2))
        h_seq = nn.lstm_sequence(nn.LstmStack([p]), [x])
        h_step, _ = cell_step(p, x, np.zeros((1, 3)), np.zeros((1, 3)))
        assert np.array_equal(h_seq.data, h_step)

    def test_zero_parameters_any_sequence_is_zero(self):
        stack = nn.LstmStack([zero_lstm(2, 3)])
        rng = np.random.default_rng(43)
        out = nn.lstm_sequence(stack, [rng.normal(size=(1, 2)) for _ in range(5)])
        assert np.array_equal(out.data, np.zeros((1, 3)))

    def test_stack_output_width(self):
        rng = np.random.default_rng(47)
        stack = nn.init_lstm_stack(rng, 4, 36, 3)
        out = nn.lstm_sequence(stack, [rng.normal(size=(1, 4)) for _ in range(3)])
        assert out.data.shape == (1, 36)

    def test_empty_sequence_rejected(self):
        rng = np.random.default_rng(53)
        stack = nn.init_lstm_stack(rng, 2, 3, 1)
        with pytest.raises(ShapeMismatch, match="empty"):
            nn.lstm_sequence(stack, [])

    def test_input_width_mismatch_rejected(self):
        rng = np.random.default_rng(59)
        p = nn.init_lstm(rng, 3, 4)
        with pytest.raises(ShapeMismatch, match="width"):
            nn.lstm_sequence(nn.LstmStack([p]), [np.zeros((1, 5))])

    def test_batched_matches_vector_rows(self):
        rng = np.random.default_rng(61)
        stack = nn.init_lstm_stack(rng, 3, 4, 2)
        seq = [rng.normal(size=(5, 3)) for _ in range(4)]
        batched = nn.lstm_sequence(stack, seq)
        for row in range(5):
            single = nn.lstm_sequence(stack, [s[row:row + 1] for s in seq])
            assert np.abs(batched.data[row] - single.data[0]).max() < 1e-12

    def test_gradient_check(self):
        rng = np.random.default_rng(67)
        stack = nn.init_lstm_stack(rng, 2, 3, 2)
        seq = [rng.normal(size=(2, 2)) for _ in range(3)]

        def forward():
            return reference.vsum(reference.square(nn.lstm_sequence(stack, seq)))

        forward().backward()
        # every entry, so all four gates' row blocks of each cell
        for p in [cell.w for cell in stack.cells]:
            numeric = finite_difference(lambda: forward().item(), p)
            assert relative_gradient_error(p.grad, numeric) < 1e-4


class TestFnn:
    def test_identity_network(self):
        layers = [nn.FnnLayer(ad.parameter(np.eye(3)), ad.parameter(np.zeros(3)))]
        params = nn.FnnParams(layers)
        x = np.array([[1.0, -2.0, 0.5]])
        assert np.array_equal(nn.fnn_forward(params, [x]).data, x)

    def test_constant_network_returns_bias(self):
        bias = np.array([2.0, -1.0])
        layers = [nn.FnnLayer(ad.parameter(np.zeros((3, 2))), ad.parameter(bias))]
        params = nn.FnnParams(layers)
        assert np.array_equal(nn.fnn_forward(params, [np.ones((1, 3))]).data, bias[None])

    def test_hand_set_two_by_two(self):
        w1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        w2 = np.array([[1.0, 0.0], [1.0, 1.0]])
        params = nn.FnnParams([
            nn.FnnLayer(ad.parameter(w1), ad.parameter(np.zeros(2))),
            nn.FnnLayer(ad.parameter(w2), ad.parameter(np.zeros(2))),
        ])
        x = np.array([[0.5, -0.5]])
        hidden = 1.0 / (1.0 + np.exp(-(x @ w1)))
        expected = hidden @ w2
        assert np.allclose(nn.fnn_forward(params, [x]).data, expected, atol=1e-14)

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(71)
        params = nn.init_fnn(rng, 4, [3], 2)
        with pytest.raises(ShapeMismatch, match="width"):
            nn.fnn_forward(params, [np.zeros((1, 5))])

    def test_gradient_check(self):
        rng = np.random.default_rng(73)
        params = nn.init_fnn(rng, 3, [4], 2)
        x = rng.normal(size=(2, 3))

        def forward():
            return reference.vsum(reference.square(nn.fnn_forward(params, [x])))

        forward().backward()
        for layer in params.layers:
            for p in (layer.weight, layer.bias):
                numeric = finite_difference(lambda: forward().item(), p)
                assert relative_gradient_error(p.grad, numeric) < 1e-4


    @pytest.mark.parametrize("hidden", [[], [4], [4, 3]])
    @pytest.mark.parametrize("rate", [0.0, 0.4])
    def test_finite_difference_every_parent(self, hidden, rate):
        rng = np.random.default_rng(74 + len(hidden))
        params = nn.init_fnn(rng, 3, hidden, 2)
        for layer in params.layers:
            layer.bias.data[:] = rng.normal(size=layer.bias.data.shape)
        x = ad.parameter(rng.normal(size=(5, 3)))
        weights = rng.normal(size=(5, 2))

        def forward():  # the same dropout masks on every call
            drop = nn.Dropout(rate, np.random.default_rng(7)) if rate else None
            return reference.vsum(reference.multiply(nn.fnn_forward(params, [x], drop), weights))

        forward().backward()
        for p in [x] + [leaf for layer in params.layers for leaf in (layer.weight, layer.bias)]:
            numeric = finite_difference(lambda: forward().item(), p)
            assert relative_gradient_error(p.grad, numeric) < 1e-6

    @pytest.mark.parametrize("hidden", [[], [4], [4, 3]])
    @pytest.mark.parametrize("rate", [0.0, 0.4])
    def test_bit_identical_to_composed_layers(self, hidden, rate):
        def run(fnn_forward):
            rng = np.random.default_rng(75)
            params = nn.init_fnn(rng, 3, hidden, 2)
            x = ad.parameter(rng.normal(size=(6, 3)))
            drop = nn.Dropout(rate, np.random.default_rng(7)) if rate else None
            out = fnn_forward(params, [x], drop)
            reference.vsum(reference.multiply(out, rng.normal(size=(6, 2)))).backward()
            leaves = [leaf for layer in params.layers for leaf in (layer.weight, layer.bias)]
            return [a.tobytes() for a in [out.data, x.grad] + [leaf.grad for leaf in leaves]]

        assert run(nn.fnn_forward) == run(reference.fnn_forward)


# Column blocks of a 6-wide FNN input: their widths, and which of them are
# constant numpy arrays (the rest are leaves that take a gradient).
BLOCK_CASES = [([6], ()), ([6], (0,)), ([2, 4], ()), ([2, 4], (1,)), ([1, 3, 2], (0,)), ([3, 1, 2], (1,))]


def column_blocks(rng, widths, constant, rows):
    return [rng.normal(size=(rows, w)) if k in constant else ad.parameter(rng.normal(size=(rows, w)))
            for k, w in enumerate(widths)]


class TestFnnColumnBlocks:
    @pytest.mark.parametrize("widths,constant", BLOCK_CASES)
    def test_finite_difference_each_block(self, widths, constant):
        rng = np.random.default_rng(76 + len(widths))
        params = nn.init_fnn(rng, 6, [4], 2)
        blocks = column_blocks(rng, widths, constant, 5)
        weights = rng.normal(size=(5, 2))

        def forward():  # the same dropout masks on every call
            drop = nn.Dropout(0.3, np.random.default_rng(7))
            return reference.vsum(reference.multiply(nn.fnn_forward(params, blocks, drop), weights))

        forward().backward()
        leaves = [leaf for layer in params.layers for leaf in (layer.weight, layer.bias)]
        for p in leaves + [b for b in blocks if isinstance(b, ad.DiffValue)]:
            numeric = finite_difference(lambda: forward().item(), p)
            assert relative_gradient_error(p.grad, numeric) < 1e-6

    @pytest.mark.parametrize("widths,constant", BLOCK_CASES)
    def test_constant_block_gets_no_gradient(self, widths, constant):
        rng = np.random.default_rng(77)
        params = nn.init_fnn(rng, 6, [4], 2)
        blocks = column_blocks(rng, widths, constant, 3)
        out = nn.fnn_forward(params, blocks)
        reference.vsum(out).backward()
        lifted = out._parents[-len(blocks):]
        for k, block in enumerate(blocks):
            if k in constant:
                assert lifted[k].data is block and lifted[k].grad is None
            else:
                assert lifted[k] is block and block.grad.shape == block.data.shape

    @pytest.mark.parametrize("widths,constant", BLOCK_CASES)
    @pytest.mark.parametrize("rate", [0.0, 0.4])
    def test_bit_identical_to_concat_then_composed(self, widths, constant, rate):
        # The first block also reaches the loss directly, as a channel output
        # does: its gradient is the same sum of two terms either way.
        def run(fnn_forward):
            rng = np.random.default_rng(78)
            params = nn.init_fnn(rng, 6, [4, 3], 2)
            blocks = column_blocks(rng, widths, constant, 6)
            drop = nn.Dropout(rate, np.random.default_rng(7)) if rate else None
            out = fnn_forward(params, blocks, drop)
            total = reference.add(reference.vsum(reference.multiply(out, rng.normal(size=(6, 2)))),
                                  reference.vsum(reference.multiply(blocks[0], rng.normal(size=(6, widths[0])))))
            total.backward()
            leaves = [leaf for layer in params.layers for leaf in (layer.weight, layer.bias)]
            leaves += [b for b in blocks if isinstance(b, ad.DiffValue)]
            return [a.tobytes() for a in [out.data] + [p.grad for p in leaves]]

        assert run(nn.fnn_forward) == run(reference.fnn_forward)

    @pytest.mark.parametrize("widths", [[7], [2, 3], [1, 3, 4]])
    def test_joined_width_mismatch_names_it(self, widths):
        params = nn.init_fnn(np.random.default_rng(79), 6, [4], 2)
        with pytest.raises(ShapeMismatch, match=rf"join to shape \(2, {sum(widths)}\), expected width 6"):
            nn.fnn_forward(params, [np.zeros((2, w)) for w in widths])

    def test_blocks_with_other_row_counts_rejected(self):
        params = nn.init_fnn(np.random.default_rng(80), 6, [4], 2)
        with pytest.raises(ShapeMismatch, match="do not join"):
            nn.fnn_forward(params, [np.zeros((2, 4)), np.zeros((3, 2))])


class TestAttention:
    def test_single_component_gets_weight_one(self):
        rng = np.random.default_rng(79)
        params = nn.init_attention(rng, 4, 3)
        comp = rng.normal(size=(1, 4))
        fused = nn.attention_fuse(params, [comp])
        assert np.allclose(fused.data, comp @ params.projection.data, atol=1e-14)
        assert np.allclose(nn.attention_weights(params, [comp]), [[1.0]])

    def test_identical_components_split_evenly(self):
        rng = np.random.default_rng(83)
        params = nn.init_attention(rng, 4, 4)
        comp = rng.normal(size=(1, 4))
        weights = nn.attention_weights(params, [comp, comp])
        assert np.allclose(weights, [[0.5, 0.5]], atol=1e-14)

    def test_scores_ln2_zero_weights(self):
        # Scores [ln 2, 0] -> softmax [2/3, 1/3].
        proj = ad.parameter(np.eye(1))
        query = ad.parameter(np.array([1.0]))
        params = nn.AttentionParams(proj, query)
        weights = nn.attention_weights(params, [np.array([[np.log(2.0)]]), np.array([[0.0]])])
        assert np.abs(weights - [[2.0 / 3.0, 1.0 / 3.0]]).max() < 1e-12

    def test_weights_form_probability_vector(self):
        rng = np.random.default_rng(89)
        params = nn.init_attention(rng, 5, 4)
        comps = [rng.normal(size=(1, 5)) for _ in range(6)]
        weights = nn.attention_weights(params, comps)
        assert np.all(weights > 0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(97)
        params = nn.init_attention(rng, 5, 4)
        comps = [rng.normal(size=(1, 5)) for _ in range(4)]
        perm = [2, 0, 3, 1]
        w = nn.attention_weights(params, comps)[0]
        w_perm = nn.attention_weights(params, [comps[i] for i in perm])[0]
        assert np.allclose(w_perm, w[perm], atol=1e-14)

    def test_empty_component_list_rejected(self):
        rng = np.random.default_rng(101)
        params = nn.init_attention(rng, 3, 3)
        with pytest.raises(ShapeMismatch, match="components"):
            nn.attention_fuse(params, [])

    def test_batched_matches_vector_rows(self):
        rng = np.random.default_rng(103)
        params = nn.init_attention(rng, 3, 3)
        comps = [rng.normal(size=(4, 3)) for _ in range(3)]
        fused = nn.attention_fuse(params, comps)
        for row in range(4):
            single = nn.attention_fuse(params, [c[row:row + 1] for c in comps])
            assert np.abs(fused.data[row] - single.data[0]).max() < 1e-12

    def test_gradient_check(self):
        rng = np.random.default_rng(107)
        params = nn.init_attention(rng, 3, 3)
        comps = [rng.normal(size=(2, 3)) for _ in range(3)]

        def forward():
            return reference.vsum(reference.square(nn.attention_fuse(params, comps)))

        forward().backward()
        for p in (params.projection, params.query):
            numeric = finite_difference(lambda: forward().item(), p)
            assert relative_gradient_error(p.grad, numeric) < 1e-4


    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_finite_difference_every_parent(self, count):
        # components that take a gradient, plus one constant component
        rng = np.random.default_rng(108 + count)
        params = nn.init_attention(rng, 3, 4)
        comps = [ad.parameter(rng.normal(size=(2, 3))) for _ in range(count)]
        constant = rng.normal(size=(2, 3))
        weights = rng.normal(size=(2, 4))

        def forward():
            return reference.vsum(reference.multiply(nn.attention_fuse(params, comps + [constant]), weights))

        forward().backward()
        for p in [params.projection, params.query] + comps:
            numeric = finite_difference(lambda: forward().item(), p)
            assert relative_gradient_error(p.grad, numeric) < 1e-6

    @pytest.mark.parametrize("count", [1, 3, 8])
    def test_bit_identical_to_composed_ops(self, count):
        def run(attention_fuse):
            rng = np.random.default_rng(113)
            params = nn.init_attention(rng, 4, 4)
            comps = [ad.parameter(rng.normal(size=(6, 4))) for _ in range(count)]
            out = attention_fuse(params, comps)
            reference.vsum(reference.multiply(out, rng.normal(size=(6, 4)))).backward()
            grads = [params.projection.grad, params.query.grad] + [c.grad for c in comps]
            return [a.tobytes() for a in [out.data] + grads]

        assert run(nn.attention_fuse) == run(reference.attention_fuse)

    def test_weights_are_the_fused_softmax(self):
        rng = np.random.default_rng(117)
        params = nn.init_attention(rng, 4, 4)
        comps = [rng.normal(size=(3, 4)) for _ in range(4)]
        _, composed = reference.attention_parts(params, comps)
        assert nn.attention_weights(params, comps).tobytes() == composed.data.tobytes()


def step_chain(stack, steps, drop=None):
    """Reference for the fused layers: the composed ``reference.lstm_step``
    chained over time, layer by layer, with one ``ad.dropout`` draw per step
    between layers.  A ``(T, B, in)`` DiffValue is read one ``take`` per step."""
    if isinstance(steps, ad.DiffValue):
        steps = [reference.take(steps, t) for t in range(steps.shape[0])]
    steps = [s if isinstance(s, ad.DiffValue) else ad.constant(s) for s in steps]
    shape = steps[0].data.shape[:-1]
    for depth, cell in enumerate(stack.cells):
        h = ad.constant(np.zeros(shape + (cell.hidden_size,)))
        c = ad.constant(np.zeros(shape + (cell.hidden_size,)))
        outputs = []
        for x in steps:
            h, c = reference.lstm_step(cell, x, h, c)
            outputs.append(h)
        if depth < len(stack.cells) - 1 and drop is not None:
            outputs = [ad.dropout(o, drop.rate, drop.rng) for o in outputs]
        steps = outputs
    return h


def random_stack(rng, input_size, hidden_size, layers):
    stack = nn.init_lstm_stack(rng, input_size, hidden_size, layers)
    for cell in stack.cells:
        cell.w.data[:, -1] = rng.normal(size=cell.w.data[:, -1].shape)
    return stack


class TestLstmLayer:
    @pytest.mark.parametrize("steps,batch,width,hidden,layers", [
        (1, 1, 1, 1, 1), (1, 5, 3, 4, 1), (6, 1, 4, 5, 1), (12, 13, 1, 16, 1),
        (4, 7, 3, 6, 2), (5, 3, 12, 4, 3), (2, 130, 4, 16, 2),
    ])
    def test_matches_step_chain(self, steps, batch, width, hidden, layers):
        rng = np.random.default_rng(1000 + steps * batch + layers)
        stack = random_stack(rng, width, hidden, layers)
        seq = [rng.normal(size=(batch, width)) for _ in range(steps)]
        fused = nn.lstm_sequence(stack, seq)
        assert np.abs(fused.data - step_chain(stack, seq).data).max() < 1e-12

    @pytest.mark.parametrize("steps,layers", [(1, 1), (5, 2), (3, 3)])
    def test_single_row_inputs_match_step_chain(self, steps, layers):
        # one sample as a single (1, width) row per step
        rng = np.random.default_rng(109 + steps)
        stack = random_stack(rng, 3, 4, layers)
        seq = [rng.normal(size=(1, 3)) for _ in range(steps)]
        fused = nn.lstm_sequence(stack, seq)
        assert fused.data.shape == (1, 4)
        assert np.abs(fused.data - step_chain(stack, seq).data).max() < 1e-12

    def test_layer_returns_every_hidden_state(self):
        rng = np.random.default_rng(113)
        cell = random_stack(rng, 2, 3, 1).cells[0]
        seq = [rng.normal(size=(4, 2)) for _ in range(5)]
        hidden = nn.lstm_layer(cell, seq)
        assert hidden.data.shape == (5, 4, 3)
        h = c = np.zeros((4, 3))
        for t, x in enumerate(seq):
            h_dv, c_dv = reference.lstm_step(cell, x, h, c)
            h, c = h_dv.data, c_dv.data
            assert np.abs(hidden.data[t] - h).max() < 1e-12

    def test_forward_only_top_layer_memory_does_not_grow_with_steps(self):
        # A no_tape layer keeps one gate and tanh(c) slot and rings of two
        # rows and two c states, so a top layer's peak memory is about the
        # same at T = 48 as at T = 6, and so is a layer's below another less
        # its (T, B, H) output; a taped layer keeps every step for its
        # backward.
        rng = np.random.default_rng(151)
        cell = random_stack(rng, 4, 16, 1).cells[0]

        def peak(steps, scope, last=True):
            x = ad.constant(rng.normal(size=(steps, 256, 4)))
            tracemalloc.start()
            try:
                with scope():
                    out = nn.lstm_layer(cell, x, last=last)
                return tracemalloc.get_traced_memory()[1] - (0 if last else out.data.nbytes)
            finally:
                tracemalloc.stop()

        assert peak(48, ad.no_tape) <= 1.25 * peak(6, ad.no_tape)
        assert peak(48, ad.no_tape, last=False) <= 1.25 * peak(6, ad.no_tape, last=False)
        assert peak(48, contextlib.nullcontext) > 4 * peak(6, contextlib.nullcontext)

    def test_layer_rejects_wrong_width(self):
        rng = np.random.default_rng(127)
        cell = nn.init_lstm(rng, 3, 4)
        with pytest.raises(ShapeMismatch, match="width"):
            nn.lstm_layer(cell, [np.zeros((2, 5))])

    def test_same_seed_same_dropout(self):
        # One (T, B, H) mask per layer boundary draws the same random stream
        # as one (B, H) mask per step, so seeded training runs keep theirs.
        rng = np.random.default_rng(131)
        stack = random_stack(rng, 3, 5, 2)
        seq = [rng.normal(size=(6, 3)) for _ in range(4)]
        fused = nn.lstm_sequence(stack, seq, nn.Dropout(0.4, np.random.default_rng(7)))
        chain = step_chain(stack, seq, nn.Dropout(0.4, np.random.default_rng(7)))
        assert np.array_equal(fused.data, chain.data)

    def test_finite_difference_every_parent(self):
        rng = np.random.default_rng(137)
        stack = random_stack(rng, 2, 3, 2)
        seq = ad.parameter(rng.normal(size=(3, 2, 2)))
        weights = rng.normal(size=(2, 3))

        def forward():
            return reference.vsum(reference.multiply(nn.lstm_sequence(stack, seq), weights))

        forward().backward()
        parents = [cell.w for cell in stack.cells] + [seq]
        for p in parents:
            numeric = finite_difference(lambda: forward().item(), p)
            assert relative_gradient_error(p.grad, numeric) < 1e-6

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_final_state_bit_identical_to_taking_it(self, layers):
        # The top layer gives its final state itself; taking it from the
        # whole sequence gives the same value and gradients, dropout included.
        def run(lstm_sequence):
            rng = np.random.default_rng(138)
            stack = random_stack(rng, 3, 4, layers)
            seq = ad.parameter(rng.normal(size=(5, 2, 3)))
            out = lstm_sequence(stack, seq, nn.Dropout(0.3, np.random.default_rng(9)))
            reference.vsum(reference.multiply(out, rng.normal(size=(2, 4)))).backward()
            leaves = [cell.w for cell in stack.cells]
            return [a.tobytes() for a in [out.data] + [p.grad for p in leaves + [seq]]]

        assert run(nn.lstm_sequence) == run(reference.lstm_sequence)

    def test_finite_difference_sequence_input(self):
        # A layer above the first reads the (T, B, in) output of the one below.
        rng = np.random.default_rng(139)
        cell = random_stack(rng, 3, 2, 1).cells[0]
        below = ad.parameter(rng.normal(size=(4, 2, 3)))
        weights = rng.normal(size=(4, 2, 2))

        def forward():
            return reference.vsum(reference.multiply(nn.lstm_layer(cell, below), weights))

        forward().backward()
        for p in [below, cell.w]:
            numeric = finite_difference(lambda: forward().item(), p)
            assert relative_gradient_error(p.grad, numeric) < 1e-6

    @pytest.mark.parametrize("width", [1, 12])
    @pytest.mark.parametrize("last", [False, True])
    def test_finite_difference_every_leaf_and_input(self, width, last):
        # The matrix's gradient is one GEMM of the rows [h | x | 1], while
        # the forward reads the sigmoid gates' columns negated.
        rng = np.random.default_rng(171 + width + 2 * last)
        cell = random_stack(rng, width, 3, 1).cells[0]
        x = ad.parameter(rng.normal(size=(4, 2, width)))
        weights = rng.normal(size=(2, 3) if last else (4, 2, 3))

        def forward():
            return reference.vsum(reference.multiply(nn.lstm_layer(cell, x, last=last), weights))

        forward().backward()
        for p in [cell.w, x]:
            numeric = finite_difference(lambda: forward().item(), p)
            assert relative_gradient_error(p.grad, numeric) < 1e-6

    @pytest.mark.parametrize("width,layers", [(1, 1), (4, 3)])
    def test_forward_only_equals_taped_forward(self, width, layers):
        # Under no_tape every layer copies each x_t into a two-slot ring of
        # rows, and a layer below copies each step's h into its output for
        # the layer above; the taped layers fill every row at once.
        rng = np.random.default_rng(173 + layers)
        stack = random_stack(rng, width, 16, layers)
        seq = rng.normal(size=(12, 512, width))
        taped = nn.lstm_sequence(stack, seq)
        with ad.no_tape():
            forward_only = nn.lstm_sequence(stack, seq)
        assert taped._backward is not None and forward_only._backward is None
        assert np.array_equal(forward_only.data, taped.data)

    @pytest.mark.parametrize("last", [False, True])
    def test_forward_only_makes_one_matmul_per_step(self, monkeypatch, last):
        # The input projection, the bias and the recurrent product are one
        # GEMM per step; a separate projection would add calls.
        rng = np.random.default_rng(179)
        cell = random_stack(rng, 1, 16, 1).cells[0]
        x = rng.normal(size=(12, 512, 1))
        matmul, calls = np.matmul, []

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        with ad.no_tape():
            nn.lstm_layer(cell, x, last=last)
        assert calls == [(512, 18)] * 12

    @pytest.mark.parametrize("steps,batch,width,hidden", [
        (1, 1, 1, 1), (1, 6, 4, 3), (5, 1, 12, 4), (6, 7, 1, 1), (4, 9, 4, 16), (3, 130, 12, 5),
    ])
    @pytest.mark.parametrize("last", [False, True])
    def test_backward_bit_identical_to_loop_oracle(self, steps, batch, width, hidden, last):
        # Hoisting the recurrence-free factors out of the time loop and
        # writing through out= keep every product in the loop's order.
        rng = np.random.default_rng(157 + 7 * steps + batch + width + hidden)
        cell = random_stack(rng, width, hidden, 1).cells[0]
        x = ad.parameter(rng.normal(size=(steps, batch, width)))
        g = rng.normal(size=(batch, hidden) if last else (steps, batch, hidden))
        reference.vsum(reference.multiply(nn.lstm_layer(cell, x, last=last), g)).backward()
        expected = reference.lstm_layer_gradients(cell, x.data, g, last)
        for got, want in zip([cell.w, x], expected):
            assert np.array_equal(got.grad, want)

    @pytest.mark.parametrize("layers,width", [(2, 1), (3, 4), (2, 12)])
    def test_stacked_backward_bit_identical_to_loop_oracle(self, layers, width):
        # per-step inputs, each layer's input gradient the gradient of the
        # layer below
        rng = np.random.default_rng(163 + layers + width)
        stack = random_stack(rng, width, 5, layers)
        seq = ad.parameter(rng.normal(size=(4, 6, width)))
        g = rng.normal(size=(6, 5))
        reference.vsum(reference.multiply(nn.lstm_sequence(stack, seq), g)).backward()
        inputs = [seq.data]
        for cell in stack.cells[:-1]:
            inputs.append(nn.lstm_layer(cell, inputs[-1]).data)
        for depth in reversed(range(layers)):
            cell = stack.cells[depth]
            d_w, g = reference.lstm_layer_gradients(cell, inputs[depth], g, last=depth == layers - 1)
            assert np.array_equal(cell.w.grad, d_w)
        assert np.array_equal(seq.grad, g)

    def test_gradients_match_step_chain(self):
        rng = np.random.default_rng(149)
        stack = random_stack(rng, 3, 4, 2)
        seq = ad.parameter(rng.normal(size=(4, 5, 3)))
        parents = [cell.w for cell in stack.cells] + [seq]
        grads = []
        for run in (nn.lstm_sequence, step_chain):
            for p in parents:
                p.grad = None
            reference.vsum(reference.square(run(stack, seq))).backward()
            grads.append([p.grad.copy() for p in parents])
        for fused, chain in zip(*grads):
            assert np.abs(fused - chain).max() <= 1e-12 * max(1.0, np.abs(chain).max())
