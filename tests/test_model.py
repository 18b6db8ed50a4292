"""Tests for the assembled prediction model: channels, fusion, loss, checkpoints."""

import contextlib
import dataclasses
import json
import re
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import (finite_difference, group_input_arrays, probe_indices,
                      relative_gradient_error, single_row)
from mcan import autodiff as ad
from mcan import graphdata as gd
from mcan import model as md
from mcan import nnlayers as nn
from mcan import trainer as tr
from mcan.errors import ConfigError, MissingDataError, SchemaError, ShapeMismatch


def small_config(**overrides):
    base = dict(
        horizon=2,
        recent_steps=3,
        daily_steps=1,
        weekly_steps=1,
        embed_len=6,
        hops=2,
        filters=2,
        cpa_order=3,
        gcn_order=3,
        hidden_size=5,
        lstm_layers=1,
        fnn_layers=2,
        alpha=0.2,
        beta=0.2,
        weather_code_count=3,
        road_type_count=4,
    )
    base.update(overrides)
    return md.ModelConfig(**base)


def small_dataset(seed=1, n_roads=4, days=9):
    config = gd.GeneratorConfig(
        n_roads=n_roads, edge_density=0.7, intervals=(20, 30, 60), days=days,
        coupling=0.3, noise=1.5, obs_noise=0.3, weekly_amplitude=2.0, weather_impact=1.0,
    )
    return gd.generate_synthetic(config, seed=seed)


@pytest.fixture(scope="module")
def dataset():
    return small_dataset()


@pytest.fixture(scope="module")
def view(dataset):
    return md.build_view(dataset)


@pytest.fixture(scope="module")
def mixed_view():
    """Five z-scored roads in three interval classes (20, 30 and 60 min).
    Roads 3 and 4 form their own component, so their second hop is empty
    while road 1's first hop has two neighbors: a road-mixed batch pads
    both neighbor axes and the raw target windows."""
    dataset = small_dataset(n_roads=5)
    graph = gd.RoadGraph(list(dataset.graph.nodes), [(0, 1), (1, 2), (3, 4)])
    dataset = dataclasses.replace(dataset, graph=graph)
    assert {node.interval_minutes for node in graph.nodes} == {20, 30, 60}
    means = np.array([s.values.mean() for s in dataset.series])
    stds = np.array([s.values.std() for s in dataset.series])
    return md.build_view(dataset, means=means, stds=stds)


def mixed_samples(view, config, per_road=4, seed=71):
    """``per_road`` random eligible samples of every road, shuffled together."""
    rng = np.random.default_rng(seed)
    samples = [(road, int(t)) for road in range(view.graph.size)
               for t in rng.choice(md.eligible_times(view, config, road), per_road, replace=False)]
    pairs = np.array(samples)[rng.permutation(len(samples))]
    return pairs[:, 0], pairs[:, 1]


class TestAblationParsing:
    def test_combined_names_expand(self):
        assert md.parse_ablations(["ntr-nde"]) == frozenset({"ntr", "nde"})
        assert md.parse_ablations(["nd-nw", "nemb"]) == frozenset({"nd", "nw", "nemb"})

    def test_unknown_flag_lists_valid_ones(self):
        with pytest.raises(ConfigError, match="ntr-nde"):
            md.parse_ablations(["bogus"])


@st.composite
def eligibility_cases(draw):
    """A small random graph and interval menu, a model config, and a seed."""
    weekly_steps = draw(st.integers(0, 1))
    daily_steps = draw(st.integers(0, 1))
    generator = gd.GeneratorConfig(
        n_roads=draw(st.integers(1, 4)),
        edge_density=draw(st.sampled_from([0.3, 0.7, 1.0])),
        intervals=tuple(draw(st.lists(st.sampled_from([5, 10, 15, 20, 30, 60]), min_size=1,
                                      max_size=3, unique=True))),
        days=(7 * weekly_steps if weekly_steps else daily_steps) + draw(st.integers(0, 2)) + 1,
    )
    config = small_config(
        recent_steps=draw(st.integers(1, 8)), daily_steps=daily_steps, weekly_steps=weekly_steps,
        horizon=draw(st.integers(1, 4)), hops=draw(st.integers(1, 2)), embed_len=12,
        ablations=frozenset(draw(st.sets(st.sampled_from(md.ABLATION_FLAGS)))),
    )
    return generator, config, draw(st.integers(0, 2**16))


@st.composite
def span_cases(draw):
    """Like :func:`eligibility_cases`, with longer reaches, the daily and
    weekly branches also off by flag, intervals above an hour or not
    dividing it, and series that may be too short for any sample."""
    weekly_steps = draw(st.integers(0, 2))
    daily_steps = draw(st.integers(0, 3))
    generator = gd.GeneratorConfig(
        n_roads=draw(st.integers(1, 4)),
        edge_density=draw(st.sampled_from([0.3, 0.7, 1.0])),
        intervals=tuple(draw(st.lists(st.sampled_from([5, 10, 15, 20, 30, 45, 60, 90, 120, 160]),
                                      min_size=1, max_size=3, unique=True))),
        days=draw(st.integers(1, 7 * weekly_steps + daily_steps + 2)),
    )
    config = small_config(
        recent_steps=draw(st.integers(1, 40)), daily_steps=daily_steps, weekly_steps=weekly_steps,
        horizon=draw(st.integers(1, 40)), hops=draw(st.integers(1, 2)), embed_len=12,
        ablations=frozenset(draw(st.sets(st.sampled_from(("nd", "nw", "ntr"))))),
    )
    return generator, config, draw(st.integers(0, 2**16))


class TestEligibility:
    @settings(max_examples=30, deadline=timedelta(seconds=10), derandomize=True)
    @given(eligibility_cases())
    def test_eligible_exactly_when_assembly_succeeds(self, case):
        # Black-box form of the eligibility rule: a time is eligible exactly
        # when its one-row group assembles, and assembly refuses every other
        # time with MissingDataError.  Without the trend channel, eligibility
        # still asks for each hour window's trend predecessor, one slot more
        # than assembly reads, so there it need only imply assembly.
        generator, config, seed = case
        view = md.build_view(gd.generate_synthetic(generator, seed))
        rng = np.random.default_rng(seed)
        for road in range(view.graph.size):
            length = len(view.values[road])
            eligible = md.eligible_times(view, config, road)
            edges = [0, length] if len(eligible) == 0 else [eligible[0], eligible[-1] + 1]
            probes = {int(t) for edge in edges for t in range(edge - 3, edge + 3)}
            probes |= set(rng.integers(0, length, size=4).tolist())
            for t in sorted(t for t in probes if 0 <= t < length):
                try:
                    md.assemble_group(view, config, [road], [t])
                    assembles = True
                except MissingDataError:
                    assembles = False
                if config.use_trend:
                    assert assembles == (t in eligible), (road, t)
                else:
                    assert assembles or t not in eligible, (road, t)

    @settings(max_examples=100, deadline=timedelta(seconds=10), derandomize=True)
    @given(span_cases())
    def test_closed_form_matches_full_scan(self, case):
        generator, config, seed = case
        view = md.build_view(gd.generate_synthetic(generator, seed))
        for road in range(view.graph.size):
            got = md.eligible_times(view, config, road)
            expected = reference.eligible_times(view, config, road)
            assert got.dtype == expected.dtype and np.array_equal(got, expected), road

    @pytest.mark.parametrize("overrides", [dict(weekly_steps=1), dict(horizon=25), dict(recent_steps=24)])
    def test_series_too_short_gives_no_times(self, overrides):
        view = md.build_view(gd.generate_synthetic(gd.GeneratorConfig(n_roads=2, intervals=(60,), days=1), 0))
        config = small_config(**{"weekly_steps": 0, "daily_steps": 0, **overrides})
        for road in range(2):
            assert len(reference.eligible_times(view, config, road)) == 0
            assert md.eligible_times(view, config, road).dtype == np.int64
            assert len(md.eligible_times(view, config, road)) == 0

    def test_eligible_times_have_full_history_and_future(self, dataset, view):
        config = small_config()
        for road in range(dataset.graph.size):
            times = md.eligible_times(view, config, road)
            assert len(times) > 0
            spd = view.slots_per_day(road)
            assert times[0] >= config.weekly_steps * 7 * spd + 1
            assert times[-1] + config.horizon <= len(view.values[road])

    def test_footprint_stays_before_t(self, dataset, view):
        config = small_config()
        rng = np.random.default_rng(3)
        for road in range(dataset.graph.size):
            times = md.eligible_times(view, config, road)
            for t in rng.choice(times, size=3):
                foot = reference.sample_footprint(view, config, road, int(t))
                wall = int(t) * view.interval(road)
                for j, idx in foot.items():
                    assert idx.min() >= 0
                    assert (idx.max() + 1) * view.interval(j) <= wall


class TestAssembly:
    @pytest.mark.parametrize("ablations", [frozenset(), frozenset({"ntr", "nd"}),
                                           frozenset({"nde", "nw"})])
    def test_batched_equals_stacked_single_rows(self, view, ablations):
        config = small_config(ablations=ablations)
        rng = np.random.default_rng(47)
        for road in range(view.graph.size):
            times = rng.permutation(md.eligible_times(view, config, road))[:9]
            batched = md.assemble_group(view, config, np.full(len(times), road), times)
            rows = [dict(group_input_arrays(md.assemble_group(view, config, [road], [t])))
                    for t in times]
            assert np.array_equal(batched.positions, np.arange(len(times)))
            for name, x in group_input_arrays(batched):
                if name == "positions":
                    continue
                if x is None:
                    assert all(r[name] is None for r in rows), name
                    continue
                stacked = np.concatenate([r[name] for r in rows])
                assert (x.dtype, x.shape) == (stacked.dtype, stacked.shape), name
                assert x.tobytes() == stacked.tobytes(), name

    @pytest.mark.parametrize("ablations", [frozenset(), frozenset({"nemb"})])
    def test_road_mixed_rows_equal_single_rows_plus_zero_padding(self, mixed_view, ablations):
        config = small_config(ablations=ablations)
        roads, times = mixed_samples(mixed_view, config)
        batched = md.assemble_group(mixed_view, config, roads, times)
        intervals = [mixed_view.interval(r) for r in batched.roads]
        assert intervals == sorted(intervals)  # grouped by interval class
        assert sorted(batched.positions.tolist()) == list(range(len(roads)))
        assert np.array_equal(batched.roads, roads[batched.positions])
        assert np.array_equal(batched.times, times[batched.positions])
        for row, pos in enumerate(batched.positions):
            single = dict(group_input_arrays(
                md.assemble_group(mixed_view, config, [roads[pos]], [times[pos]])))
            for name, x in group_input_arrays(batched):
                if name == "positions" or x is None:
                    assert name == "positions" or single[name] is None, name
                    continue
                got, ref = np.array(x[row]), single[name][0]
                corner = tuple(slice(0, n) for n in ref.shape)  # narrower rows are zero-padded
                assert got[corner].tobytes() == ref.tobytes(), name
                got[corner] = 0
                assert not got.any(), name

    def test_too_early_time_names_branch_and_t(self, view):
        config = small_config()
        road = 0
        first = int(md.eligible_times(view, config, road)[0])
        early = config.weekly_steps * 7 * view.slots_per_day(road) - 2
        with pytest.raises(MissingDataError, match=f"weekly branch lacks history at t={early}"):
            md.assemble_group(view, config, road, [first, early, first + 1])

    def test_too_early_time_names_channel(self, view):
        # no temporal branch reaches back past the hour window here
        config = small_config(recent_steps=1, ablations=frozenset({"nd", "nw"}))
        road = int(np.argmin([view.interval(r) for r in range(view.graph.size)]))
        with pytest.raises(MissingDataError, match="speed window reaches index -"):
            md.assemble_group(view, config, road, [2, 30])


class TestForward:
    def test_group_batch_matches_per_sample(self, dataset, view):
        config = small_config()
        params = md.init_mcan(config, np.random.default_rng(5))
        roads = np.repeat(np.arange(dataset.graph.size), 3)
        times = np.concatenate([md.eligible_times(view, config, r)[:3]
                                for r in range(dataset.graph.size)])
        gi = md.assemble_group(view, config, roads, times)
        speed, trend, dev = md.forward_group(params, gi)
        for k, pos in enumerate(gi.positions):
            row = md.forward_group(params, single_row(view, config, int(roads[pos]), int(times[pos])))
            for single, batched in zip(row, (speed, trend, dev)):
                assert single.data.shape == (1,) + batched.data.shape[1:]
                assert np.abs(single.data[0] - batched.data[k]).max() < 1e-12

    def test_deterministic_in_evaluation_mode(self, dataset, view):
        config = small_config()
        params = md.init_mcan(config, np.random.default_rng(7))
        gi = single_row(view, config, road=1)
        a = md.forward_group(params, gi)
        b = md.forward_group(params, gi)
        assert np.array_equal(a[0].data, b[0].data)
        assert np.array_equal(a[1].data, b[1].data)

    def test_horizon_one_gives_single_scalar(self, dataset, view):
        config = small_config(horizon=1)
        params = md.init_mcan(config, np.random.default_rng(9))
        speed, _, _ = md.forward_group(params, single_row(view, config))
        assert speed.data.shape == (1, 1)

    def test_component_count_with_all_ablations(self, dataset, view):
        config = small_config(ablations=frozenset({"ntr", "nde", "nd", "nw"}))
        params = md.init_mcan(config, np.random.default_rng(11))
        road = 0
        t = int(md.eligible_times(view, config, road)[0])
        gi = md.assemble_group(view, config, [road], [t])
        components, _ = md.fusion_components(params, gi)
        assert len(components) == 4  # speed channel, recent, two context summaries

    def test_full_model_component_count(self, dataset, view):
        config = small_config()
        params = md.init_mcan(config, np.random.default_rng(13))
        road = 0
        t = int(md.eligible_times(view, config, road)[0])
        gi = md.assemble_group(view, config, [road], [t])
        components, _ = md.fusion_components(params, gi)
        assert len(components) == 8  # 3 channels + 3 temporal + 2 context

    def test_ablations_shed_parameters(self):
        full = md.init_mcan(small_config(), np.random.default_rng(1))
        cut = md.init_mcan(
            small_config(ablations=frozenset({"ntr", "nde", "nd", "nw"})),
            np.random.default_rng(1),
        )
        assert cut.theta.size < full.theta.size
        nemb = md.init_mcan(small_config(ablations=frozenset({"nemb"})), np.random.default_rng(1))
        assert nemb.theta.size < full.theta.size

    def test_end_to_end_gradients_match_finite_differences(self, dataset):
        # z-scored view: keeps the loss surface small enough for the
        # finite-difference oracle's precision at step 1e-5
        config = small_config()
        means = np.array([s.values.mean() for s in dataset.series])
        stds = np.array([s.values.std() for s in dataset.series])
        view = md.build_view(dataset, means=means, stds=stds)
        params = md.init_mcan(config, np.random.default_rng(17))
        road = 0
        t = int(md.eligible_times(view, config, road)[0])
        gi = md.assemble_group(view, config, [road], [t])

        def forward():
            speed, trend, dev = md.forward_group(params, gi)
            return md.loss_batch(
                speed, gi.target_speed, trend, gi.target_trend, dev, gi.target_deviation,
                config.alpha, config.beta,
            )

        forward().backward()
        rng = np.random.default_rng(19)
        for name, p in md.named_parameters(params):
            idx = probe_indices(name, p, 3, rng)
            numeric = finite_difference(lambda: forward().item(), p, indices=idx)
            err = relative_gradient_error(p.grad, numeric, indices=idx)
            assert err < 1e-4, f"gradient mismatch for {name}: {err}"

    def test_gradient_reaches_previous_speed_column(self, dataset, view):
        # The trend head's first-layer rows for the concatenated previous-speed
        # input must receive gradient.
        config = small_config()
        params = md.init_mcan(config, np.random.default_rng(23))
        road = 0
        t = int(md.eligible_times(view, config, road)[0])
        gi = md.assemble_group(view, config, [road], [t])
        speed, trend, dev = md.forward_group(params, gi)
        total = md.loss_batch(speed, gi.target_speed, trend, gi.target_trend,
                              dev, gi.target_deviation, config.alpha, config.beta)
        total.backward()
        w = params.msc_heads["trend"].layers[0].weight
        assert w.grad is not None
        assert np.abs(w.grad[1]).max() > 0  # row 1 multiplies the previous speed


class TestFusedNodes:
    @pytest.mark.parametrize("ablations", [()] + [(name,) for name in md.ABLATION_NAMES])
    def test_bit_identical_to_composed_references(self, mixed_view, monkeypatch, ablations):
        # One training step's loss, speed forecast, every leaf gradient and
        # dropout draw count, with the fused FNNs, attention fusion, final
        # LSTM states and loss or with their compositions.
        config = small_config(ablations=md.parse_ablations(ablations), lstm_layers=2, fnn_layers=3)
        gi = md.assemble_group(mixed_view, config, *mixed_samples(mixed_view, config))

        def step(loss_batch):
            params = md.init_mcan(config, np.random.default_rng(83))
            drop = nn.Dropout(0.3, np.random.default_rng(89))
            speed, trend, dev = md.forward_group(params, gi, drop)
            total = loss_batch(speed, gi.target_speed, trend, gi.target_trend, dev, gi.target_deviation,
                               config.alpha, config.beta)
            total.backward()
            return [np.asarray(a).tobytes() for a in (total.data, speed.data, params.grad, drop.rng.random())]

        fused = step(md.loss_batch)
        monkeypatch.setattr(nn, "fnn_forward", reference.fnn_forward)
        monkeypatch.setattr(nn, "attention_fuse", reference.attention_fuse)
        monkeypatch.setattr(nn, "lstm_sequence", reference.lstm_sequence)
        assert fused == step(reference.loss_batch)


def readme_shape_group():
    """The README train.json model, initialised, and one batch of 128 rows
    on a graph of README shape (10 roads at 5, 10 and 15 minutes)."""
    generator = gd.GeneratorConfig(n_roads=10, edge_density=0.4, intervals=(5, 10, 15), days=16,
                                   coupling=0.5, noise=4.0, obs_noise=1.0, weekly_amplitude=3.0,
                                   weather_impact=1.0)
    dataset = gd.generate_synthetic(generator, seed=7)
    config = tr.TrainConfig(horizon=6, hidden_size=16, lstm_layers=1, fnn_layers=2,
                            filters=4).model_config(dataset)
    view = md.build_view(dataset)
    roads, times = mixed_samples(view, config, per_road=13)
    gi = md.assemble_group(view, config, roads[:128], times[:128])
    assert len(np.unique(gi.channels["speed"].lengths)) == 3
    return md.init_mcan(config, np.random.default_rng(3)), gi


def readme_shape_step():
    """One training step's loss, backward run, for :func:`readme_shape_group`
    with dropout."""
    params, gi = readme_shape_group()
    config = params.config
    speed, trend, dev = md.forward_group(params, gi, nn.Dropout(0.1, np.random.default_rng(5)))
    total = md.loss_batch(speed, gi.target_speed, trend, gi.target_trend, dev, gi.target_deviation,
                          config.alpha, config.beta)
    total.backward()
    return total


def rule_name(node):
    """The op that made ``node``: the function its backward rule is local to."""
    return node._backward.__qualname__.split(".")[0]


def test_readme_shape_step_has_at_most_38_nodes():
    # Each layer, FNN, the attention fusion and the loss is one node, not a
    # chain of elementary ones; a channel's hops embed as one node and
    # aggregate as one; and the FNNs join their input columns themselves:
    # the only concat nodes left join a channel's self-LSTM outputs
    # row-wise, one per channel.
    seen, stack, rules = set(), [readme_shape_step()], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node._backward is not None:
                rules.append(node)
            stack.extend(node._parents)
    assert len(rules) <= 38
    assert sum(rule_name(node) == "gcn_hop_features" for node in rules) == 3
    joins = [node for node in rules if rule_name(node) == "concat"]
    assert len(joins) == 3
    for node in joins:
        assert all(rule_name(p) == "lstm_layer" for p in node._parents)
        assert node.shape == (128, 16) and sum(p.shape[0] for p in node._parents) == 128


def test_readme_shape_step_runs_the_cell_once_per_layer_step(monkeypatch):
    # The 16 LSTMs of a README-shape step (self and neighbour per channel,
    # the self ones once per interval class, recent, daily, weekly and
    # dynamic context) run nn.lstm_step once per layer and time step, so
    # the benchmark's nnlayers.lstm_step_calls counts real cell updates.
    steps, layer_lengths = [], []
    lstm_step, lstm_layer = nn.lstm_step, nn.lstm_layer

    def counted_step(*args):
        steps.append(1)
        return lstm_step(*args)

    def measured_layer(params, inputs, last=False):
        layer_lengths.append(len(inputs.data if isinstance(inputs, ad.DiffValue) else inputs))
        return lstm_layer(params, inputs, last)

    monkeypatch.setattr(nn, "lstm_step", counted_step)
    monkeypatch.setattr(nn, "lstm_layer", measured_layer)
    readme_shape_step()
    assert len(layer_lengths) == 16
    assert len(steps) == sum(layer_lengths) == 90


def test_forward_only_runs_the_cell_as_often_as_taped(monkeypatch):
    # Under no_tape the layers keep two states instead of their sequences,
    # but still run nn.lstm_step once per layer and time step.
    counts = []
    lstm_step = nn.lstm_step

    def counted_step(*args):
        counts[-1] += 1
        return lstm_step(*args)

    monkeypatch.setattr(nn, "lstm_step", counted_step)
    params, gi = readme_shape_group()
    for scope in (contextlib.nullcontext, ad.no_tape):
        counts.append(0)
        with scope():
            md.forward_group(params, gi, None)
    assert counts == [90, 90]


def batch_loss(params, gi):
    """Eval-mode outputs of one forward over ``gi`` and its loss, backward run."""
    config = params.config
    speed, trend, dev = md.forward_group(params, gi)
    md.loss_batch(speed, gi.target_speed, trend, gi.target_trend, dev, gi.target_deviation,
                  config.alpha, config.beta).backward()
    return [None if v is None else v.data for v in (speed, trend, dev)]


def gradients(params):
    return {name: p.grad.copy() for name, p in md.named_parameters(params)}


class TestRoadMixedForward:
    @pytest.mark.parametrize("ablations", [()] + [(name,) for name in md.ABLATION_NAMES])
    def test_mixed_batch_equals_one_road_at_a_time(self, mixed_view, ablations):
        config = small_config(ablations=md.parse_ablations(ablations), lstm_layers=2)
        params = md.init_mcan(config, np.random.default_rng(73))
        roads, times = mixed_samples(mixed_view, config)
        gi = md.assemble_group(mixed_view, config, roads, times)
        assert len(np.unique(gi.channels["speed"].lengths)) == 3
        assert not gi.channels["speed"].hop_lengths[:, 1].any(axis=1).all()  # a row without 2-hop neighbors

        # one fusion order: channels, temporal branches, static, dynamic
        branches = {"nd": ["recent", "weekly"], "nw": ["recent", "daily"],
                    "nd-nw": ["recent"]}.get("".join(ablations), ["recent", "daily", "weekly"])
        assert list(config.branches()) == branches
        components, _ = md.fusion_components(params, gi)
        assert list(components) == config.channels() + branches + ["static", "dynamic"]
        assert list(params.temporal) == branches and list(gi.temporal) == branches
        lstm_prefixes = [name.split(".")[0] for name, _ in md.named_parameters(params)
                         if name.startswith("lstm_")]
        assert list(dict.fromkeys(lstm_prefixes)) == [f"lstm_{b}" for b in branches]

        params.grad.fill(0.0)
        mixed = batch_loss(params, gi)
        mixed_grads = gradients(params)
        params.grad.fill(0.0)
        per_road = [np.full_like(out, np.nan) if out is not None else None for out in mixed]
        for road in range(mixed_view.graph.size):
            sub = md.assemble_group(mixed_view, config, road, times[roads == road])
            rows = [np.flatnonzero((gi.roads == road) & (gi.times == t))[0] for t in sub.times]
            for out, part in zip(per_road, batch_loss(params, sub)):
                if out is not None:
                    out[rows] = part
        for got, ref in zip(mixed, per_road):
            assert (got is None) == (ref is None)
            if got is not None:
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        for name, ref in gradients(params).items():
            assert np.abs(mixed_grads[name] - ref).max() <= 1e-10 * np.abs(ref).max(), name

    @pytest.mark.parametrize("ablations", [(), ("nemb",)])
    def test_garbage_in_padded_slots_changes_nothing(self, mixed_view, ablations):
        config = small_config(ablations=md.parse_ablations(ablations))
        params = md.init_mcan(config, np.random.default_rng(79))
        gi = md.assemble_group(mixed_view, config, *mixed_samples(mixed_view, config))
        params.grad.fill(0.0)
        clean = batch_loss(params, gi)
        clean_grads = gradients(params)

        dirty = gi.take(np.arange(len(gi.times)))  # a copy
        cross_hop = 0
        for inputs in dirty.channels.values():
            beyond = np.arange(inputs.windows.shape[1]) >= inputs.lengths[:, None]
            inputs.windows[beyond] = np.nan
            padding = inputs.hop_lengths == 0  # (B, K, N)
            inputs.hops[padding] = np.nan
            # slots padded in one hop of a row and filled in another
            cross_hop += int((padding & ~padding.all(axis=1, keepdims=True)).sum())
        assert cross_hop > 0
        params.grad.fill(0.0)
        for got, ref in zip(batch_loss(params, dirty), clean):
            assert (got is None and ref is None) or np.array_equal(got, ref)
        for name, ref in gradients(params).items():
            assert np.array_equal(clean_grads[name], ref), name


class TestMsc:
    def test_only_speed_channel_under_double_ablation(self, dataset, view):
        config = small_config(ablations=md.parse_ablations(["ntr-nde"]))
        params = md.init_mcan(config, np.random.default_rng(29))
        components, outputs = md.fusion_components(params, single_row(view, config))
        assert set(outputs) == {"speed"}
        assert "trend" not in components and "deviation" not in components

    def test_zero_networks_give_zero_features(self, dataset, view):
        config = small_config()
        params = md.init_mcan(config, np.random.default_rng(31))
        for head in params.msc_heads.values():
            for layer in head.layers:
                layer.weight.data[:] = 0.0
                layer.bias.data[:] = 0.0
        components, _ = md.fusion_components(params, single_row(view, config))
        for ch in config.channels():
            vec = components[ch]
            # zero weights make every head output its (zero) bias, but hidden
            # sigmoid layers put the output through the zero weight matrix too
            assert np.array_equal(vec.data, np.zeros((1, config.hidden_size)))


class TestMtc:
    def test_double_temporal_ablation_keeps_recent_only(self, dataset, view):
        config = small_config(ablations=md.parse_ablations(["nd-nw"]))
        params = md.init_mcan(config, np.random.default_rng(37))
        gi = single_row(view, config)
        assert set(gi.temporal) == {"recent"}
        components, _ = md.fusion_components(params, gi)
        assert "recent" in components and "daily" not in components and "weekly" not in components

    def test_wrong_recent_length_rejected(self, dataset, view):
        config = small_config()
        params = md.init_mcan(config, np.random.default_rng(41))
        t = int(md.eligible_times(view, config, 0)[0])
        short = small_config(recent_steps=config.recent_steps - 1)
        gi = single_row(view, short, t=t)
        assert gi.temporal["recent"].shape == (1, config.recent_steps - 1, 4)
        with pytest.raises(ShapeMismatch, match="recent input has 2 steps, expected 3"):
            md.forward_group(params, gi)


class TestContext:
    def test_road_type_changes_static_summary(self, view):
        config = small_config()
        params = md.init_mcan(config, np.random.default_rng(43))
        static_a = np.array([0.5, 1, 0, 0, 0, 2, 1], dtype=np.float64)
        static_b = static_a.copy()
        static_b[1:5] = [0, 1, 0, 0]  # different one-hot road type
        dyn = np.zeros((config.recent_steps, config.dynamic_width))
        sum_a = md.fusion_components(params, single_row(view, config, static=static_a[None],
                                                        dynamic=dyn[None]))[0]["static"]
        sum_b = md.fusion_components(params, single_row(view, config, static=static_b[None],
                                                        dynamic=dyn[None]))[0]["static"]
        assert not np.allclose(sum_a.data, sum_b.data)

    def test_holiday_flip_changes_dynamic_summary(self, view):
        config = small_config()
        params = md.init_mcan(config, np.random.default_rng(47))
        rng = np.random.default_rng(49)
        dyn = rng.uniform(0, 1, size=(config.recent_steps, config.dynamic_width))
        flipped = dyn.copy()
        flipped[:, config.weather_code_count] = 1.0 - flipped[:, config.weather_code_count]
        static = np.zeros((1, config.static_width))
        d1 = md.fusion_components(params, single_row(view, config, static=static,
                                                     dynamic=dyn[None]))[0]["dynamic"]
        d2 = md.fusion_components(params, single_row(view, config, static=static,
                                                     dynamic=flipped[None]))[0]["dynamic"]
        assert not np.allclose(d1.data, d2.data)


def row(*values):
    """A B = 1 prediction of ``values``."""
    return ad.constant([values])


class TestLoss:
    def test_perfect_predictions_zero(self):
        out = md.loss_batch(row(3.0, 4.0), np.array([[3.0, 4.0]]), row(0.5), np.array([[0.5]]),
                            row(-1.0), np.array([[-1.0]]), 0.2, 0.2)
        assert out.item() == 0.0

    def test_weight_collapse_reduces_to_speed_error(self):
        out = md.loss_batch(row(1.0, 2.0), np.zeros((1, 2)), row(9.0), np.zeros((1, 1)),
                            row(9.0), np.zeros((1, 1)), 0.0, 0.0)
        assert out.item() == pytest.approx(5.0)

    def test_hand_computed_value(self):
        # residuals: speed [1, -1], trend [2], deviation [3] with weights 0.2
        out = md.loss_batch(row(2.0, 1.0), np.array([[1.0, 2.0]]), row(2.0), np.zeros((1, 1)),
                            row(3.0), np.zeros((1, 1)), 0.2, 0.2)
        assert out.item() == pytest.approx(4.6)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch, match="speed"):
            md.loss_batch(row(1.0, 2.0), np.array([[1.0]]), None, None, None, None, 0.2, 0.2)

    def test_loss_nonnegative_random(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            speed, trend, deviation = rng.normal(size=3), rng.normal(size=1), rng.normal(size=1)
            out = md.loss_batch(row(*speed), rng.normal(size=(1, 3)), row(*trend),
                                rng.normal(size=(1, 1)), row(*deviation), rng.normal(size=(1, 1)),
                                0.2, 0.2)
            assert out.item() >= 0.0


def loss_inputs(ablations, seed=61):
    """``loss_batch`` arguments: random (B, 3) speed and (B, 1) trend and
    deviation predictions, as parameters, and targets; None for an ablated
    channel's pair."""
    flags = md.parse_ablations(ablations)
    rng = np.random.default_rng(seed)
    args = []
    for width, flag in ((3, None), (1, "ntr"), (1, "nde")):
        pred, target = ad.parameter(rng.normal(size=(4, width))), rng.normal(size=(4, width))
        args += [None, None] if flag in flags else [pred, target]
    return args + [0.3, 0.7]


class TestFusedLoss:
    @pytest.mark.parametrize("ablations", [(), ("ntr",), ("nde",), ("ntr-nde",)])
    def test_finite_difference_every_prediction(self, ablations):
        args = loss_inputs(ablations)
        md.loss_batch(*args).backward()
        for pred in args[0:6:2]:
            if pred is not None:
                numeric = finite_difference(lambda: md.loss_batch(*args).item(), pred)
                assert relative_gradient_error(pred.grad, numeric) < 1e-6

    @pytest.mark.parametrize("ablations", [(), ("ntr",), ("nde",), ("ntr-nde",)])
    def test_bit_identical_to_composed_ops(self, ablations):
        def run(loss_batch):
            args = loss_inputs(ablations)
            total = loss_batch(*args)
            total.backward()
            return [a.tobytes() for a in [total.data] + [p.grad for p in args[0:6:2] if p is not None]]

        assert run(md.loss_batch) == run(reference.loss_batch)


class TestFusionWeights:
    def test_removing_component_renormalizes_rest(self):
        rng = np.random.default_rng(59)
        params = nn.init_attention(rng, 4, 4)
        comps = [rng.normal(size=(1, 4)) for _ in range(5)]
        w_full = nn.attention_weights(params, comps)[0]
        w_cut = nn.attention_weights(params, comps[:-1])[0]
        assert np.allclose(w_cut, w_full[:-1] / (1.0 - w_full[-1]), atol=1e-12)
        assert w_cut.sum() == pytest.approx(1.0, abs=1e-12)


def assert_leaves_view_vectors(params):
    """Every named leaf's ``data`` and ``grad`` read their own slice of
    ``params.theta`` and ``params.grad``, the slices tiling each vector in
    ``named_parameters`` order."""
    for vector, of in ((params.theta, lambda p: p.data), (params.grad, lambda p: p.grad)):
        saved = vector.copy()
        vector[:] = np.arange(vector.size)
        offset = 0
        for name, p in md.named_parameters(params):
            leaf = of(p)
            assert leaf.shape == p.data.shape and np.shares_memory(leaf, vector), name
            assert np.array_equal(leaf.reshape(-1), np.arange(offset, offset + leaf.size)), name
            offset += leaf.size
        assert offset == vector.size
        vector[:] = saved


class TestParameterVector:
    @pytest.mark.parametrize("ablations", [(), ("ntr-nde", "nd", "nemb")])
    def test_leaves_are_views_after_init(self, ablations):
        params = md.init_mcan(small_config(ablations=md.parse_ablations(ablations)),
                              np.random.default_rng(3))
        assert not params.grad.any()
        assert_leaves_view_vectors(params)

    def test_leaves_are_views_after_load(self, tmp_path, view):
        params = md.init_mcan(small_config(), np.random.default_rng(5))
        path = tmp_path / "checkpoint.json"
        md.save_checkpoint(path, params, np.zeros(4), np.ones(4), view.ybar)
        loaded = md.load_checkpoint(path)[0]
        assert np.array_equal(loaded.theta, params.theta)
        assert_leaves_view_vectors(loaded)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path, dataset, view):
        config = small_config()
        params = md.init_mcan(config, np.random.default_rng(61))
        means = np.array([1.0, 2.0, 3.0, 4.0])
        stds = np.array([1.5, 2.5, 3.5, 4.5])
        ybar = [view.ybar[i] for i in range(dataset.graph.size)]
        path = tmp_path / "checkpoint.json"
        md.save_checkpoint(path, params, means, stds, ybar, {"note_key": 7})
        loaded, m2, s2, y2, cfg = md.load_checkpoint(path)
        assert cfg["note_key"] == 7
        assert np.array_equal(m2, means)
        assert np.array_equal(s2, stds)
        for a, b in zip(y2, ybar):
            assert np.array_equal(a, b)
        originals = dict(md.named_parameters(params))
        for name, p in md.named_parameters(loaded):
            assert np.array_equal(p.data, originals[name].data), name
        gi = single_row(view, config)
        a, _, _ = md.forward_group(params, gi)
        b, _, _ = md.forward_group(loaded, gi)
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("keys,named", [
        (("config", "hops"), "config.hops"),
        (("config",), "config"),
        (("parameters",), "parameters"),
        (("theta",), "theta"),
        (("state", "std"), "state.std"),
        (("state", "daily_average", "2"), "state.daily_average.2"),
    ])
    def test_missing_key_names_it(self, tmp_path, view, keys, named):
        params = md.init_mcan(small_config(), np.random.default_rng(67))
        path = tmp_path / "checkpoint.json"
        md.save_checkpoint(path, params, np.zeros(4), np.ones(4), view.ybar)
        doc = json.loads(path.read_text())
        holder = doc
        for key in keys[:-1]:
            holder = holder[key]
        del holder[keys[-1]]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"missing key '{named}'"):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [
        ("hops", "2"), ("hidden_size", 5.0), ("horizon", True), ("alpha", "0.2"),
        ("beta", None), ("alpha", float("nan")), ("ablations", "nd"), ("ablations", [1]),
    ])
    def test_wrongly_typed_config_names_key(self, tmp_path, view, key, value):
        params = md.init_mcan(small_config(), np.random.default_rng(67))
        path = tmp_path / "checkpoint.json"
        md.save_checkpoint(path, params, np.zeros(4), np.ones(4), view.ybar)
        doc = json.loads(path.read_text())
        doc["config"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"'config.{key}' must be"):
            md.load_checkpoint(path)

    def test_integer_loss_weight_accepted(self, tmp_path, view):
        params = md.init_mcan(small_config(), np.random.default_rng(67))
        path = tmp_path / "checkpoint.json"
        md.save_checkpoint(path, params, np.zeros(4), np.ones(4), view.ybar)
        doc = json.loads(path.read_text())
        doc["config"]["alpha"] = 1
        path.write_text(json.dumps(doc))
        assert md.load_checkpoint(path)[0].config.alpha == 1

    def test_truncated_theta_rejected(self, tmp_path, view):
        params = md.init_mcan(small_config(), np.random.default_rng(71))
        path = tmp_path / "checkpoint.json"
        md.save_checkpoint(path, params, np.zeros(4), np.ones(4), view.ybar)
        doc = json.loads(path.read_text())
        doc["theta"] = doc["theta"][:-8]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=re.escape(f"{path}: checkpoint key 'theta' holds")):
            md.load_checkpoint(path)

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text("[1, 2]")
        with pytest.raises(SchemaError, match="JSON object"):
            md.load_checkpoint(path)
