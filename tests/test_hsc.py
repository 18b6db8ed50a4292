"""Tests for the embedding replace rule, correlation-kernel GCN, and HSC forward."""

import tracemalloc
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import finite_difference, probe_indices, relative_gradient_error
from mcan import autodiff as ad
from mcan import graphdata as gd
from mcan import hsc
from mcan import nnlayers as nn
from mcan.errors import ConfigError, MissingDataError


def make_cpa(coeffs):
    return nn.CpaParams(ad.parameter(np.asarray(coeffs, dtype=np.float64)))


class TestEmbeddingPositions:
    def test_six_into_twelve(self):
        raw, fill, spacing = hsc.embedding_positions(6, 12)
        assert spacing == 1
        assert np.array_equal(raw, [0, 2, 4, 6, 8, 10])
        assert np.array_equal(fill, [1, 3, 5, 7, 9, 11])

    def test_three_into_twelve(self):
        raw, fill, spacing = hsc.embedding_positions(3, 12)
        assert spacing == 4
        assert np.array_equal(raw, [0, 5, 10])
        assert len(fill) == 9

    def test_full_resolution_identity_placement(self):
        raw, fill, spacing = hsc.embedding_positions(12, 12)
        assert spacing == 0
        assert np.array_equal(raw, np.arange(12))
        assert len(fill) == 0

    def test_single_value_at_position_zero(self):
        raw, fill, _ = hsc.embedding_positions(1, 8)
        assert np.array_equal(raw, [0])
        assert np.array_equal(fill, np.arange(1, 8))

    def test_too_long_window_rejected(self):
        with pytest.raises(ConfigError, match="exceeds"):
            hsc.embedding_positions(13, 12)

    def test_empty_window_rejected(self):
        with pytest.raises(MissingDataError):
            hsc.embedding_positions(0, 12)

    def test_positions_strictly_increasing_and_in_range(self):
        for c in range(1, 25):
            for length in range(1, c + 1):
                raw, fill, spacing = hsc.embedding_positions(length, c)
                assert np.all(np.diff(raw) > 0)
                assert raw[-1] < c
                if length >= 2:
                    assert np.array_equal(raw, np.arange(length) * (spacing + 1))


class TestEmbedSeries:
    def test_raw_values_round_trip_bit_exact(self):
        rng = np.random.default_rng(3)
        cpa = make_cpa(rng.normal(size=5))
        for c, length in ((12, 6), (12, 3), (12, 12), (7, 1), (24, 11)):
            x = rng.uniform(0, 50, size=length)
            emb = hsc.embed_windows(hsc.spread_windows(x[None], c), np.array([length]), cpa).data[0]
            raw, fill, _ = hsc.embedding_positions(length, c)
            assert np.array_equal(emb[raw], x)
            # the fill basis reaches every fill position and no raw one
            basis = hsc.fill_basis(c, cpa.order)[length]
            assert not basis[raw].any()
            assert basis[fill].any(axis=1).all()

    def test_fill_values_are_cpa_of_mapped_position(self):
        cpa = make_cpa([1.0, 0.0, 0.0])
        x = np.array([5.0, 9.0, 13.0])
        emb = hsc.embed_windows(hsc.spread_windows(x[None], 12), np.array([3]), cpa).data[0]
        fill = hsc.embedding_positions(len(x), 12)[1]
        # coefficients pick T_1, so the fill equals the mapped argument 2*(j/12)-1
        assert np.allclose(emb[fill], 2.0 * (fill / 12.0) - 1.0, atol=1e-14)

    def test_gradient_flows_to_cpa_coefficients(self):
        cpa = make_cpa([0.2, -0.3, 0.4])
        windows = np.array([[1.0, 2.0, 3.0]])

        def forward():
            return reference.vsum(reference.square(hsc.embed_windows(hsc.spread_windows(windows, 9),
                                                                     np.array([3]), cpa)))

        forward().backward()
        numeric = finite_difference(lambda: forward().item(), cpa.coefficients)
        assert relative_gradient_error(cpa.coefficients.grad, numeric) < 1e-5

    def test_time_consistency_across_intervals(self):
        # Two roads observing the same hour at different rates: observations
        # taken at the same wall-clock minute land within spacing+1 slots.
        c = 12
        for t_fine, t_coarse in ((5, 10), (5, 15), (10, 30), (5, 30)):
            len_fine = 60 // t_fine
            len_coarse = 60 // t_coarse
            raw_fine, _, _ = hsc.embedding_positions(len_fine, c)
            raw_coarse, _, spacing = hsc.embedding_positions(len_coarse, c)
            for m in range(len_coarse):
                wall = (m + 1) * t_coarse
                if wall % t_fine:
                    continue
                m_fine = wall // t_fine - 1
                assert abs(int(raw_coarse[m]) - int(raw_fine[m_fine])) <= spacing + 1


class TestEmbedWindows:
    """The batched embedding R + A @ coefficients over padded slots."""

    def lengths_and_spread(self, rng, c=6):
        # (N=3, B=4) slots: mixed lengths, padding (0), and an all-padding row
        lengths = np.array([[3, 6, 1, 0], [2, 0, 4, 0], [0, 0, 5, 0]])
        spread = np.zeros(lengths.shape + (c,))
        for idx in np.ndindex(lengths.shape):
            if lengths[idx]:
                spread[idx] = hsc.spread_windows(rng.normal(size=lengths[idx]), c)
        return lengths, spread

    def test_equals_per_window_embedding_and_leaves_padding_alone(self):
        rng = np.random.default_rng(41)
        cpa = make_cpa(rng.normal(size=4))
        lengths, spread = self.lengths_and_spread(rng)
        spread[lengths == 0] = rng.normal(size=((lengths == 0).sum(), 6))  # garbage
        out = hsc.embed_windows(spread, lengths, cpa).data
        for idx in np.ndindex(lengths.shape):
            if lengths[idx]:
                raw = spread[idx][hsc.embedding_positions(lengths[idx], 6)[0]]
                alone = hsc.embed_windows(hsc.spread_windows(raw[None], 6), lengths[idx][None],
                                          cpa).data[0]
                assert np.abs(out[idx] - alone).max() < 1e-14
            else:
                assert np.array_equal(out[idx], spread[idx])

    def test_finite_difference_with_padded_slots(self):
        rng = np.random.default_rng(43)
        cpa = make_cpa(rng.normal(size=4))
        lengths, spread = self.lengths_and_spread(rng)
        weights = rng.normal(size=spread.shape)

        def forward():
            embedded = hsc.embed_windows(spread, lengths, cpa)
            return reference.vsum(reference.multiply(reference.square(embedded), weights))

        forward().backward()
        numeric = finite_difference(lambda: forward().item(), cpa.coefficients)
        assert relative_gradient_error(cpa.coefficients.grad, numeric) < 1e-6

    def test_window_longer_than_grid_rejected(self):
        # assembly spreads such a window to zeros; the embedding refuses it
        spread = hsc.spread_windows(np.ones((2, 12)), 6)
        assert not spread.any()
        with pytest.raises(ConfigError, match="window length 12 exceeds embedding length 6"):
            hsc.embed_windows(spread, np.array([12, 12]), make_cpa([0.1, 0.2]))

    def test_fill_basis_is_zero_at_raw_positions_and_padding(self):
        table = hsc.fill_basis(12, 5)
        assert not table[0].any()
        for length in range(1, 13):
            raw, fill, _ = hsc.embedding_positions(length, 12)
            assert not table[length, raw].any()
            assert np.array_equal(
                table[length, fill],
                nn.chebyshev_basis(2.0 * fill / 12 - 1.0, 5).T,
            )


class TestNearestGrid:
    def test_full_length_is_identity(self):
        assert np.array_equal(hsc.nearest_grid_indices(12, 12), np.arange(12))

    def test_half_length_doubles(self):
        idx = hsc.nearest_grid_indices(6, 12)
        assert idx[0] == 0 and idx[-1] == 5
        assert np.all(np.diff(idx) >= 0)
        rng = np.random.default_rng(0)
        win = rng.normal(size=(2, 6))
        grid = hsc.spread_windows(win, 12, use_embedding=False)
        assert np.array_equal(grid, win[:, idx])


def single_filter_gcn(matrix, kernel):
    matrix = np.asarray(matrix, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    return hsc.GcnParams(
        correlation=ad.parameter(matrix.copy()),
        kernel=ad.parameter(kernel.reshape(1, -1).copy()),
    )


class TestGcn:
    def test_zero_matrix_single_neighbor_hand_value(self):
        # u = sigmoid(0) = 0.5, mapped argument 0, T_1(0) = 0, kernel [1,0,0,0,0]
        params = single_filter_gcn(np.zeros((4, 4)), [1.0, 0.0, 0.0, 0.0, 0.0])
        rng = np.random.default_rng(1)
        target, neighbor = rng.normal(size=4), rng.normal(size=4)
        features = hsc.gcn_hop_features(params, ad.constant(target[None]),
                                        ad.constant(neighbor[None, None, None]), np.ones((1, 1, 1), bool))
        assert features.data.shape == (1, 1, 1)  # (K, B, filters)
        assert features.data[0, 0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_full_formula_hand_evaluation(self):
        rng = np.random.default_rng(7)
        matrix = rng.normal(size=(3, 3))
        kernel = rng.normal(size=4)
        params = single_filter_gcn(matrix, kernel)
        e = {i: rng.normal(size=3) for i in range(3)}
        neighbors = ad.constant(np.stack([e[1], e[2]])[None, :, None])  # (K=1, N=2, B=1, c)
        features = hsc.gcn_hop_features(params, ad.constant(e[0][None]), neighbors,
                                        np.ones((1, 2, 1), bool))
        expected = 0.0
        for j in (1, 2):
            u = 1.0 / (1.0 + np.exp(-(e[0] @ matrix @ e[j])))
            basis = nn.chebyshev_basis(2.0 * u - 1.0, 4)
            expected += kernel @ basis
        assert features.data[0, 0, 0] == pytest.approx(expected, abs=1e-12)

    def test_no_neighbors_all_zero(self):
        params = single_filter_gcn(np.ones((3, 3)), [0.5, 0.5])
        empty = ad.constant(np.zeros((2, 0, 1, 3)))  # two hops, no slot
        features = hsc.gcn_hop_features(params, ad.constant(np.ones((1, 3))), empty, np.zeros((2, 0, 1), bool))
        assert np.array_equal(features.data, np.zeros((2, 1, 1)))

    def test_two_identical_neighbors_double_single(self):
        rng = np.random.default_rng(11)
        params = single_filter_gcn(rng.normal(size=(3, 3)), rng.normal(size=3))
        shared = rng.normal(size=3)
        target = ad.constant(rng.normal(size=(1, 3)))

        def hop(*neighbors):
            stacked = ad.constant(np.stack(neighbors)[None, :, None])  # (K=1, N, B=1, c)
            mask = np.ones((1, len(neighbors), 1), bool)
            return hsc.gcn_hop_features(params, target, stacked, mask).data[0, 0, 0]

        assert hop(shared, shared.copy()) == pytest.approx(2.0 * hop(shared), rel=1e-12)

    def test_permutation_invariant_within_hop(self):
        rng = np.random.default_rng(13)
        params = hsc.init_gcn(rng, 4, 3, 3)
        target = ad.constant(rng.normal(size=(2, 4)))
        neighbors = rng.normal(size=(2, 4, 2, 4))
        mask = np.ones((2, 4, 2), dtype=bool)
        out1 = hsc.gcn_hop_features(params, target, ad.constant(neighbors), mask).data
        perm = ad.constant(neighbors[:, [2, 0, 3, 1]])
        out2 = hsc.gcn_hop_features(params, target, perm, mask).data
        assert np.allclose(out1, out2, atol=1e-12)

    def test_scores_strictly_inside_unit_interval(self):
        # sigmoid keeps every Chebyshev argument inside (-1, 1): no clamping.
        rng = np.random.default_rng(17)
        params = hsc.init_gcn(rng, 5, 4, 3)
        target = ad.constant(rng.normal(scale=3.0, size=(6, 5)))
        neighbor = ad.constant(rng.normal(scale=3.0, size=(6, 5)))
        u = reference.correlation_scores(params, target, neighbor).data
        assert np.all(u > 0.0) and np.all(u < 1.0)
        assert np.all(np.abs(2.0 * u - 1.0) < 1.0)


def tiny_hsc(rng, out_width=2, use_embedding=True):
    return hsc.init_hsc(
        rng,
        embed_len=6,
        filters=2,
        cpa_order=3,
        gcn_order=3,
        hidden_size=4,
        lstm_layers=1,
        fnn_hidden=[5],
        out_width=out_width,
        use_embedding=use_embedding,
    )


def line3_graph(intervals=(10, 20, 30)):
    nodes = [gd.RoadSegment(i, 1.0, 0, 1, 0, intervals[i]) for i in range(3)]
    return gd.RoadGraph(nodes, [(0, 1), (1, 2)])


def single_forward(params, target_window, neighbor_windows, graph, target, hop_count=2):
    """One sample's channel prediction for ``target`` through the batched
    forward (B = 1); neighbor windows are keyed by road id and grouped into
    ``hop_count`` hops from the graph."""
    c, use_embedding = params.gcn.correlation.data.shape[1], params.cpa is not None
    layers = [sorted(layer) for layer in gd.k_hop_neighbors(graph, target, hop_count)]
    hops = np.zeros((1, len(layers), max(map(len, layers)), c))
    hop_lengths = np.zeros(hops.shape[:3], dtype=int)
    for k, layer in enumerate(layers):
        for n, road in enumerate(layer):
            neighbor = np.asarray(neighbor_windows[road], dtype=np.float64)
            hops[0, k, n] = hsc.spread_windows(neighbor, c, use_embedding)
            hop_lengths[0, k, n] = len(neighbor)
    window = np.asarray(target_window, dtype=np.float64).reshape(1, -1)
    inputs = hsc.ChannelInputs(window, np.array([window.shape[1]]),
                               hsc.spread_windows(window, c, use_embedding), hops, hop_lengths)
    return reference.reshape(hsc.hsc_forward_batch(params, inputs), (-1,))


class TestHscForward:
    def test_zero_network_outputs_head_bias(self):
        rng = np.random.default_rng(19)
        params = tiny_hsc(rng)
        for stack in (params.lstm_self, params.lstm_neigh):
            for cell in stack.cells:
                cell.w.data[:] = 0.0
        for layer in params.head.layers:
            layer.weight.data[:] = 0.0
            layer.bias.data[:] = 0.0
        graph = line3_graph()
        windows = {1: np.arange(1.0, 4.0), 2: np.arange(1.0, 3.0)}
        out = single_forward(params, np.arange(1.0, 7.0), windows, graph, 0)
        assert np.array_equal(out.data, np.zeros(2))

    def test_isolated_target_depends_only_on_self_window(self):
        rng = np.random.default_rng(23)
        params = tiny_hsc(rng)
        graph = gd.RoadGraph([gd.RoadSegment(0, 1.0, 0, 1, 0, 10)], [])
        win_a = np.arange(1.0, 7.0)
        out_a = single_forward(params, win_a, {}, graph, 0)
        out_b = single_forward(params, win_a.copy(), {}, graph, 0)
        assert np.array_equal(out_a.data, out_b.data)
        out_c = single_forward(params, win_a + 1.0, {}, graph, 0)
        assert not np.array_equal(out_a.data, out_c.data)

    def test_gradient_check_all_parameter_groups(self):
        rng = np.random.default_rng(29)
        params = tiny_hsc(rng)
        graph = line3_graph()
        target_window = rng.uniform(0, 1, size=6)
        neighbor_windows = {1: rng.uniform(0, 1, size=3), 2: rng.uniform(0, 1, size=2)}

        def forward():
            out = single_forward(params, target_window, neighbor_windows, graph, 0)
            return reference.vsum(reference.square(out))

        forward().backward()
        cell_s = params.lstm_self.cells[0]
        cell_n = params.lstm_neigh.cells[0]
        # Up to 12 entries of each leaf; of an LSTM cell's matrix, 4 in each
        # gate's input, recurrent and bias rows.
        probes = [
            ("cpa", params.cpa.coefficients, 12),
            ("correlation", params.gcn.correlation, 12),
            ("kernel", params.gcn.kernel, 12),
            ("self.w", cell_s.w, 4), ("neigh.w", cell_n.w, 4),
            ("head.0.weight", params.head.layers[0].weight, 12),
            ("head.1.bias", params.head.layers[1].bias, 12),
        ]
        for name, p, count in probes:
            idx = probe_indices(name, p, count)
            numeric = finite_difference(lambda: forward().item(), p, indices=idx)
            assert relative_gradient_error(p.grad, numeric, indices=idx) < 1e-4

    def test_no_embedding_ablation_has_no_cpa(self):
        rng = np.random.default_rng(31)
        params = tiny_hsc(rng, use_embedding=False)
        assert params.cpa is None
        graph = line3_graph()
        out = single_forward(params, rng.uniform(0, 1, 6),
                              {1: rng.uniform(0, 1, 3), 2: rng.uniform(0, 1, 2)}, graph, 0)
        assert out.data.shape == (2,)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(37)
        params = tiny_hsc(rng)
        graph = line3_graph()
        targets = rng.uniform(0, 1, size=(3, 6))
        neigh1 = rng.uniform(0, 1, size=(3, 3))
        neigh2 = rng.uniform(0, 1, size=(3, 2))
        inputs = hsc.ChannelInputs(
            windows=targets, lengths=np.full(3, 6), target=hsc.spread_windows(targets, 6),
            hops=np.stack([hsc.spread_windows(neigh1, 6), hsc.spread_windows(neigh2, 6)], axis=1)[:, :, None],
            hop_lengths=np.tile([[3], [2]], (3, 1, 1)),
        )
        batched = hsc.hsc_forward_batch(params, inputs)
        for b in range(3):
            single = single_forward(params, targets[b], {1: neigh1[b], 2: neigh2[b]}, graph, 0)
            assert np.abs(batched.data[b] - single.data).max() < 1e-12


class TestHourWindows:
    def test_window_length_floor(self):
        assert hsc.hour_window_length(5) == 12
        assert hsc.hour_window_length(30) == 2
        assert hsc.hour_window_length(36) == 1

    def test_wall_clock_alignment(self):
        # Target at 10-minute slots, neighbor at 30 minutes: sample at t=9
        # (minute 90) sees the neighbor's slots before minute 90.
        idx = hsc.hour_window_indices(9, 10, 30)
        assert np.array_equal(idx, [1, 2])

    def test_channel_window_values(self):
        values = np.array([10.0, 12.0, 11.0, 15.0])
        avg = np.array([10.0, 13.0])
        idx = np.array([2, 3])
        assert np.array_equal(gd.channel_window(values, avg, idx, "speed"), [11.0, 15.0])
        assert np.array_equal(gd.channel_window(values, avg, idx, "trend"), [-1.0, 4.0])
        assert np.array_equal(gd.channel_window(values, avg, idx, "deviation"), [1.0, 2.0])

    def test_trend_window_needs_previous_index(self):
        values = np.arange(4.0)
        with pytest.raises(MissingDataError, match="trend"):
            gd.channel_window(values, np.array([0.0]), np.array([0, 1]), "trend")


def composed_hop(params, target, neighbors, mask=None):
    """Reference for one hop: per-neighbor scores and kernel response, one
    ``(B, c)`` neighbor at a time from the ``(N, B, c)`` stack, each response
    multiplied by its slots' ``(N, B)`` mask when one is given; None when
    the hop has no slot."""
    total = None
    for n in range(neighbors.data.shape[0]):
        emb = reference.take(neighbors, n)
        scores = reference.correlation_scores(params, target, emb)
        response = reference.kernel_response(params, scores)
        if mask is not None:
            response = reference.multiply(response, mask[n, :, None].astype(np.float64))
        total = response if total is None else reference.add(total, response)
    return total


def composed_hops(params, target, neighbors, mask=None):
    """Reference for the merged node: :func:`composed_hop` applied hop by hop
    to the ``(K, N, B, c)`` stack and its ``(K, N, B)`` mask, the hops'
    ``(B, filters)`` features stacked into ``(K, B, filters)``; a hop
    without a slot is a zero constant."""
    hops, _, batch, _ = neighbors.data.shape
    features = []
    for k in range(hops):
        hop = composed_hop(params, target, reference.take(neighbors, k), None if mask is None else mask[k])
        features.append(ad.constant(np.zeros((1, batch, params.filters))) if hop is None
                        else reference.reshape(hop, (1, batch, params.filters)))
    return ad.concat(features, axis=0)


class TestGcnHopFeatures:
    @pytest.mark.parametrize("order", [1, 2, 5])
    @pytest.mark.parametrize("count", [1, 4])
    def test_matches_composed_path(self, order, count):
        rng = np.random.default_rng(200 + 10 * order + count)
        params = hsc.init_gcn(rng, 6, 3, order)
        target = ad.constant(rng.normal(scale=2.0, size=(5, 6)))
        neighbors = ad.constant(rng.normal(scale=2.0, size=(2, count, 5, 6)))
        fused = hsc.gcn_hop_features(params, target, neighbors, np.ones((2, count, 5), dtype=bool))
        assert fused.data.shape == (2, 5, 3)
        assert np.abs(fused.data - composed_hops(params, target, neighbors).data).max() < 1e-12

    def test_all_masked_hop_gives_zero_features_and_no_gradient(self):
        # hops 0 and 2 hold garbage in every slot, all masked; hop 1 is real
        rng = np.random.default_rng(211)
        params = hsc.init_gcn(rng, 4, 2, 3)
        target = ad.parameter(rng.normal(size=(3, 4)))
        neighbors = ad.parameter(rng.normal(scale=50.0, size=(3, 2, 3, 4)))
        mask = np.zeros((3, 2, 3), dtype=bool)
        mask[1, 0] = True
        features = hsc.gcn_hop_features(params, target, neighbors, mask)
        assert np.array_equal(features.data[[0, 2]], np.zeros((2, 3, 2)))
        hop = composed_hop(params, target, reference.take(neighbors, (1, slice(0, 1))))
        assert np.abs(features.data[1] - hop.data).max() < 1e-12
        reference.vsum(reference.take(features, [0, 2])).backward()
        for p in [params.correlation, params.kernel, target, neighbors]:
            assert not p.grad.any()

    @pytest.mark.parametrize("order", [1, 2, 5])
    def test_finite_difference_every_parent(self, order):
        rng = np.random.default_rng(223 + order)
        params = hsc.init_gcn(rng, 3, 2, order)
        target = ad.parameter(rng.normal(size=(2, 3)))
        neighbors = ad.parameter(rng.normal(size=(2, 3, 2, 3)))
        mask = np.ones((2, 3, 2), dtype=bool)
        weights = rng.normal(size=(2, 2, 2))

        def forward():
            return reference.vsum(reference.multiply(hsc.gcn_hop_features(params, target, neighbors, mask),
                                                     weights))

        forward().backward()
        for p in [params.correlation, params.kernel, target, neighbors]:
            numeric = finite_difference(lambda: forward().item(), p)
            assert relative_gradient_error(p.grad, numeric) < 1e-6

    def test_gradients_match_composed_path(self):
        rng = np.random.default_rng(227)
        params = hsc.init_gcn(rng, 5, 3, 5)
        target = ad.parameter(rng.normal(size=(4, 5)))
        neighbors = ad.parameter(rng.normal(size=(2, 3, 4, 5)))
        mask = np.ones((2, 3, 4), dtype=bool)
        parents = [params.correlation, params.kernel, target, neighbors]
        grads = []
        for run in (lambda *a: hsc.gcn_hop_features(*a, mask), composed_hops):
            for p in parents:
                p.grad = None
            reference.vsum(reference.square(run(params, target, neighbors))).backward()
            grads.append([p.grad.copy() for p in parents])
        for fused, composed in zip(*grads):
            assert np.abs(fused - composed).max() <= 1e-12 * max(1.0, np.abs(composed).max())

    @settings(max_examples=60, deadline=timedelta(seconds=10), derandomize=True)
    @given(st.integers(1, 3), st.integers(0, 8), st.integers(1, 40), st.integers(1, 5), st.integers(2, 13),
           st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_matches_composed_path_with_random_masks(self, hops, count, batch, filters, c, order, seed):
        # values and all four parents' gradients; padded slots hold other
        # values, one row is all padding and one hop has every slot masked
        rng = np.random.default_rng(seed)
        params = hsc.init_gcn(rng, c, filters, order)
        target = ad.parameter(rng.normal(size=(batch, c)))
        neighbors = ad.parameter(rng.normal(size=(hops, count, batch, c)))
        mask = rng.random((hops, count, batch)) < rng.uniform(0.2, 1.0)
        mask[:, :, rng.integers(batch)] = False
        mask[rng.integers(hops)] = False
        parents = [params.correlation, params.kernel, target, neighbors]
        outputs, grads = [], []
        for run in (hsc.gcn_hop_features, composed_hops):
            for p in parents:
                p.grad = None
            out = run(params, target, neighbors, mask)
            reference.vsum(reference.square(out)).backward()
            outputs.append(out.data)
            grads.append([np.zeros(p.data.shape) if p.grad is None else p.grad.copy() for p in parents])
        assert outputs[0].shape == (hops, batch, filters)
        assert np.abs(outputs[0] - outputs[1]).max() < 1e-12
        for fused, composed in zip(*grads):  # with N = 0 the neighbors' are empty
            assert np.abs(fused - composed).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(composed).max(initial=0.0))
        assert not grads[0][3][~mask].any()

    def test_taped_hop_memory_stays_near_its_inputs(self):
        # The contraction forms no (K·N, B, F, c) tensor: a forward and
        # backward at K=2, N=4, B=64, F=4, c=64 peaks well below 8 neighbor
        # arrays (the (K·N, B, F, c) products alone were 4 each).
        rng = np.random.default_rng(239)
        params = hsc.init_gcn(rng, 64, 4, 3)
        target = ad.parameter(rng.normal(size=(64, 64)))
        neighbors = ad.parameter(rng.normal(size=(2, 4, 64, 64)))
        mask = rng.random((2, 4, 64)) < 0.8
        tracemalloc.start()
        try:
            reference.vsum(hsc.gcn_hop_features(params, target, neighbors, mask)).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * neighbors.data.nbytes

    def masked_case(self, rng):
        # K=2 hops of N=3 slots, B=4 rows; row 3 is all padding, rows 1-2 are
        # partly padded, and hop 1 pads slots that hop 0 fills
        mask = np.array([[[1, 1, 1, 0], [1, 0, 1, 0], [1, 0, 0, 0]],
                         [[1, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]], dtype=bool)
        neighbors = rng.normal(size=(2, 3, 4, 3))
        neighbors[~mask] = rng.normal(scale=50.0, size=((~mask).sum(), 3))  # garbage
        return mask, neighbors

    @pytest.mark.parametrize("order", [1, 3])
    def test_masked_finite_difference_every_parent(self, order):
        rng = np.random.default_rng(231 + order)
        params = hsc.init_gcn(rng, 3, 2, order)
        target = ad.parameter(rng.normal(size=(4, 3)))
        mask, values = self.masked_case(rng)
        neighbors = ad.parameter(values)
        weights = rng.normal(size=(2, 4, 2))

        def forward():
            return reference.vsum(reference.multiply(hsc.gcn_hop_features(params, target, neighbors, mask),
                                                     weights))

        forward().backward()
        for p in [params.correlation, params.kernel, target, neighbors]:
            numeric = finite_difference(lambda: forward().item(), p)
            assert relative_gradient_error(p.grad, numeric) < 1e-6
        assert not neighbors.grad[~mask].any()
        assert not target.grad[3].any()

    def test_masked_slots_equal_dropping_them(self):
        rng = np.random.default_rng(233)
        params = hsc.init_gcn(rng, 3, 2, 4)
        target = ad.constant(rng.normal(size=(4, 3)))
        mask, values = self.masked_case(rng)
        out = hsc.gcn_hop_features(params, target, ad.constant(values), mask).data
        assert np.array_equal(out[:, 3], np.zeros((2, 2)))  # an all-padding row is zero
        for k in range(2):
            for b in range(3):
                kept = ad.constant(values[k][mask[k, :, b], b][None, :, None])  # (1, kept, 1, c)
                alone = hsc.gcn_hop_features(params, reference.take(target, slice(b, b + 1)), kept,
                                             np.ones(kept.shape[:3], bool))
                assert np.abs(out[k, b] - alone.data[0, 0]).max() < 1e-12

    def test_constant_embeddings_get_no_gradient(self):
        # Under the no-embedding ablation the windows are constants: only the
        # filter parameters take a gradient.
        rng = np.random.default_rng(229)
        params = hsc.init_gcn(rng, 4, 2, 3)
        target = ad.constant(rng.normal(size=(3, 4)))
        neighbors = ad.constant(rng.normal(size=(2, 2, 3, 4)))
        reference.vsum(hsc.gcn_hop_features(params, target, neighbors, np.ones((2, 2, 3), dtype=bool))).backward()
        assert target.grad is None and neighbors.grad is None
        assert params.correlation.grad is not None and params.kernel.grad is not None
