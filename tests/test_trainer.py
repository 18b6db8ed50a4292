"""Tests for normalization, fold splitting, training, metrics, and the baseline."""

import dataclasses
import os
import platform
import subprocess
import sys
import tracemalloc
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import assert_same_group_inputs
from mcan import autodiff as ad
from mcan import graphdata as gd
from mcan import hsc
from mcan import model as md
from mcan import trainer as tr
from mcan.errors import ConfigError, MissingDataError, TrainingDivergence


def tiny_dataset(seed=3, days=16, n_roads=2, **overrides):
    config = gd.GeneratorConfig(
        n_roads=n_roads, edge_density=1.0, intervals=(60,), days=days,
        coupling=0.2, noise=1.0, obs_noise=0.3, weekly_amplitude=1.5, weather_impact=1.0,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return gd.generate_synthetic(config, seed=seed)


def tiny_train_config(**overrides):
    base = dict(
        epochs=2, batch_size=32, learning_rate=0.002, dropout=0.0,
        alpha=0.2, beta=0.2, recent_steps=3, daily_steps=1, weekly_steps=1,
        horizon=2, folds=5, seed=11, embed_len=4, hops=1, filters=2,
        cpa_order=3, gcn_order=3, hidden_size=4, lstm_layers=1, fnn_layers=1,
        max_train_samples=48,
    )
    base.update(overrides)
    return tr.TrainConfig(**base)


@pytest.fixture(scope="module")
def dataset():
    return tiny_dataset()


@pytest.fixture(scope="module")
def model_config(dataset):
    return tiny_train_config().model_config(dataset)


def interval(dataset, road):
    return dataset.graph.nodes[road].interval_minutes


class TestNormalization:
    def test_round_trip_exact(self, dataset):
        scaler = tr.normalize_fit(dataset, np.ones(dataset.days, dtype=bool))
        values = dataset.series[0].values
        view = md.build_view(dataset, means=scaler.means, stds=scaler.stds)
        back = view.denormalize(0, view.values[0])
        assert np.abs(back - values).max() < 1e-12

    def test_transformed_training_mean_is_zero(self, dataset):
        scaler = tr.normalize_fit(dataset, np.ones(dataset.days, dtype=bool))
        view = md.build_view(dataset, means=scaler.means, stds=scaler.stds)
        for z in view.values:
            assert abs(z.mean()) < 1e-9

    def test_constant_series_fallback(self):
        dataset = tiny_dataset(days=2, noise=0.0, obs_noise=0.0, coupling=0.0,
                               weekly_amplitude=0.0, weather_impact=0.0)
        dataset.series[0].values[:] = 25.0
        scaler = tr.normalize_fit(dataset, np.ones(dataset.days, dtype=bool))
        assert scaler.stds[0] == 1.0
        z = md.build_view(dataset, means=scaler.means, stds=scaler.stds).values[0]
        assert np.array_equal(z, np.zeros_like(z))


class TestKfold:
    def test_blocks_partition_eligible_samples(self, dataset, model_config):
        folds = tr.kfold_split(dataset, model_config, 5, seed=1)
        roads, times = tr._eligible_arrays(dataset, model_config)
        eligible = set(zip(roads.tolist(), times.tolist()))
        test_union = set()
        for fold in folds:
            block = set(fold.test)
            assert not (block & test_union)
            test_union |= block
        assert test_union == eligible

    def test_equal_block_sizes_when_divisible(self, dataset, model_config):
        roads, _ = tr._eligible_arrays(dataset, model_config)
        k = 5
        folds = tr.kfold_split(dataset, model_config, k, seed=1)
        sizes = [len(f.test) for f in folds]
        assert sum(sizes) == len(roads)
        assert max(sizes) - min(sizes) <= 1

    def test_same_seed_same_partition(self, dataset, model_config):
        a = tr.kfold_split(dataset, model_config, 4, seed=9)
        b = tr.kfold_split(dataset, model_config, 4, seed=9)
        for fa, fb in zip(a, b):
            assert fa.test == fb.test and fa.train == fb.train

    def test_too_many_folds_rejected(self, dataset, model_config):
        with pytest.raises(MissingDataError, match="folds"):
            tr.kfold_split(dataset, model_config, 10_000, seed=0)

    def test_contiguous_test_blocks_in_time(self, dataset, model_config):
        folds = tr.kfold_split(dataset, model_config, 5, seed=1)
        walls = [sorted(t * interval(dataset, r) for r, t in fold.test) for fold in folds]
        for earlier, later in zip(walls, walls[1:]):
            assert earlier[-1] <= later[0]

    def test_no_training_sample_touches_test_window(self, dataset, model_config):
        # instrumented leakage check: every index a training sample reads or
        # predicts lies outside the fold's test wall-clock window
        folds = tr.kfold_split(dataset, model_config, 5, seed=1)
        for fold in folds[:2] + folds[-1:]:
            lo, hi = fold.test_wall
            for road, t in fold.train[::7]:
                target_walls = np.arange(t, t + model_config.horizon) * interval(dataset, road)
                assert not np.any((target_walls >= lo) & (target_walls <= hi))
                for j, idx in reference.sample_footprint(dataset, model_config, road, t).items():
                    walls = idx * interval(dataset, j)
                    assert not np.any((walls >= lo) & (walls <= hi))

    @staticmethod
    def _footprint_touches(dataset, config, road, t, window):
        walls = [np.arange(t, t + config.horizon) * interval(dataset, road)]
        walls += [idx * interval(dataset, j)
                  for j, idx in reference.sample_footprint(dataset, config, road, t).items()]
        return any(np.any((w >= window[0]) & (w <= window[1])) for w in walls)

    def test_fast_filter_matches_footprint_oracle(self, dataset, model_config):
        # the span-based filter agrees with enumerating the footprint, for
        # every eligible time of the road at once
        rng = np.random.default_rng(23)
        eligible_roads, eligible_times = tr._eligible_arrays(dataset, model_config)
        for _ in range(200):
            pick = rng.integers(len(eligible_roads))
            road, t = int(eligible_roads[pick]), int(eligible_times[pick])
            wall = int(t * interval(dataset, road))
            width = int(rng.integers(60, 3000))
            lo = wall + int(rng.integers(-30000, 3000))
            window = (lo, lo + width)
            times = md.eligible_times(dataset, model_config, road)
            spans = md.read_spans(dataset, model_config, road)
            fast = tr._touches_window(dataset, road, spans, times, *window)
            row = int(np.flatnonzero(times == t)[0])
            assert bool(fast[row]) == self._footprint_touches(dataset, model_config, road, t, window), \
                (road, t, window)

    def test_filter_at_span_edges_matches_footprint_oracle(self):
        # windows that start or end on a span's first or last wall-clock
        # minute, or one minute either side, on roads of 15, 45 and 90 min;
        # each window is at least one interval wide, so it holds a minute of
        # every span it overlaps
        dataset = tiny_dataset(n_roads=4, intervals=(15, 45, 90))
        config = tiny_train_config(hops=2).model_config(dataset)
        rng = np.random.default_rng(29)
        for road in range(dataset.graph.size):
            times = md.eligible_times(dataset, config, road)
            spans = md.read_spans(dataset, config, road)
            for t in rng.choice(times, 3, replace=False):
                _, a, b, first, last = spans.T
                end = hsc.hour_window_end(t, a, b)
                edges = np.concatenate([(end + first) * b, (end + last) * b])
                for edge in rng.choice(edges, 6, replace=False):
                    for shift in (-1, 0, 1):
                        width = int(rng.integers(90, 400))
                        for window in ((edge + shift, edge + shift + width),
                                       (edge + shift - width, edge + shift)):
                            fast = tr._touches_window(dataset, road, spans, times, *window)
                            row = int(np.flatnonzero(times == t)[0])
                            assert bool(fast[row]) == self._footprint_touches(dataset, config, road, int(t),
                                                                              window), (road, t, window)

    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("k", [2, 5])
    def test_selected_fold_equals_fold_of_full_split(self, dataset, model_config, k, shuffled):
        full = tr.kfold_split(dataset, model_config, k, seed=4, shuffled=shuffled)
        for i in range(k):
            (one,) = tr.kfold_split(dataset, model_config, k, seed=4, shuffled=shuffled,
                                    indices=[i])
            assert one.index == i
            assert one.train == full[i].train and one.test == full[i].test
            assert one.test_wall == full[i].test_wall

    def test_selected_fold_out_of_range_rejected(self, dataset, model_config):
        with pytest.raises(ConfigError, match="fold index"):
            tr.kfold_split(dataset, model_config, 5, seed=1, indices=[5])

    def test_shuffled_folds_partition_without_filtering(self, dataset, model_config):
        folds = tr.kfold_split(dataset, model_config, 5, seed=1, shuffled=True)
        roads, _ = tr._eligible_arrays(dataset, model_config)
        for fold in folds:
            assert len(fold.train) + len(fold.test) == len(roads)
            assert fold.test_wall is None


class TestTrainingDayMasks:
    def test_masks_exclude_test_days_only(self, dataset, model_config):
        folds = tr.kfold_split(dataset, model_config, 5, seed=1)
        fold = folds[2]
        mask = tr.training_day_mask(dataset, fold)
        lo, hi = fold.test_wall
        assert mask.shape == (dataset.days,)
        for day in range(dataset.days):
            day_lo, day_hi = day * 1440, (day + 1) * 1440 - 1
            overlaps = day_hi >= lo and day_lo <= hi
            assert mask[day] == (not overlaps)

    @pytest.mark.parametrize("wall,kept", [((1440, 2879), [0, 2, 3]), ((1439, 2880), [3]),
                                           ((1440, 1440), [0, 2, 3]), (None, [0, 1, 2, 3])])
    def test_window_edges_at_midnight(self, dataset, wall, kept):
        fold = tr.Fold(index=0, train=[], test=[], test_wall=wall)
        mask = tr.training_day_mask(dataclasses.replace(dataset, span_minutes=4 * 1440), fold)
        assert np.flatnonzero(mask).tolist() == kept

    def test_window_over_every_day_refused(self, dataset):
        fold = tr.Fold(index=3, train=[], test=[], test_wall=(0, dataset.span_minutes))
        with pytest.raises(MissingDataError, match="fold 3: the test window leaves no training days"):
            tr.fitted_view(dataset, fold)


class TestMetrics:
    def test_perfect_predictions(self):
        truth = np.array([[1.0, 2.0], [3.0, 4.0]])
        report = tr.compute_metrics(truth, truth.copy())
        assert (report.mae, report.mape_pct, report.rmse) == (0.0, 0.0, 0.0)

    def test_hand_computed_values(self):
        truth = np.array([[1.0, 2.0]])
        pred = np.array([[2.0, 4.0]])
        report = tr.compute_metrics(truth, pred)
        assert report.mae == pytest.approx(1.5)
        assert report.mape_pct == pytest.approx(100.0)
        assert report.rmse == pytest.approx(np.sqrt(2.5))
        assert report.rmse == pytest.approx(1.5811, abs=1e-4)

    def test_zero_truth_excluded_from_mape_only(self):
        truth = np.array([[0.0, 2.0]])
        pred = np.array([[1.0, 3.0]])
        report = tr.compute_metrics(truth, pred)
        assert report.mae == pytest.approx(1.0)
        assert report.mape_pct == pytest.approx(50.0)
        assert report.mape_count == 1

    def test_invariant_to_sample_ordering(self):
        rng = np.random.default_rng(3)
        truth = rng.uniform(1, 50, size=(40, 3))
        pred = truth + rng.normal(size=(40, 3))
        a = tr.compute_metrics(truth, pred)
        perm = rng.permutation(40)
        b = tr.compute_metrics(truth[perm], pred[perm])
        assert a.mae == pytest.approx(b.mae, abs=1e-12)
        assert a.rmse == pytest.approx(b.rmse, abs=1e-12)
        assert a.mape_pct == pytest.approx(b.mape_pct, abs=1e-12)

    def test_empty_split_rejected(self):
        with pytest.raises(MissingDataError):
            tr.compute_metrics(np.empty((0, 2)), np.empty((0, 2)))


class TestTrain:
    def test_shared_model_fields_have_equal_defaults(self):
        # TrainConfig and ModelConfig inherit the architecture knobs from one
        # dataclass, so the CLI keys and perfbench's flat keyword arguments
        # stay in TrainConfig and the defaults cannot drift apart
        shared = tr.TrainConfig().model_fields()
        assert len(shared) == 15
        assert md.ModelConfig(**shared) == md.ModelConfig()

    def test_negative_seed_refused(self, dataset):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -3"):
            tr.train(dataset, tiny_train_config(seed=-3))

    def test_single_batch_single_epoch_one_adam_step(self, dataset):
        config = tiny_train_config(epochs=1, batch_size=64, max_train_samples=20)
        result = tr.train(dataset, config)
        assert result.adam_steps == 1
        assert len(result.history) == 1

    def test_same_seed_identical_history(self, dataset):
        config = tiny_train_config(epochs=2, dropout=0.3)
        a = tr.train(dataset, config)
        b = tr.train(dataset, config)
        assert a.history == b.history
        for (name, pa), (_, pb) in zip(md.named_parameters(a.params),
                                       md.named_parameters(b.params)):
            assert np.array_equal(pa.data, pb.data), name

    def test_loss_decreases_on_smoke_run(self, dataset):
        config = tiny_train_config(epochs=12, learning_rate=0.01, max_train_samples=24)
        result = tr.train(dataset, config)
        assert all(np.isfinite(result.history))
        assert result.history[-1] < result.history[0]

    def test_loss_moving_average_non_increasing_on_overfit_oracle(self):
        # smooth descent on the overfitting oracle dataset: the 5-epoch moving
        # average of the training loss never increases
        dataset = gd.generate_synthetic(
            gd.GeneratorConfig(n_roads=2, edge_density=1.0, intervals=(36,), days=5,
                               coupling=0.3, noise=0.0, obs_noise=0.0),
            seed=1,
        )
        config = tr.TrainConfig(
            epochs=80, batch_size=64, learning_rate=0.002, dropout=0.0,
            recent_steps=4, daily_steps=1, weekly_steps=2, horizon=3,
            folds=5, seed=3, ablations=("nw",), embed_len=6, hops=1, filters=2,
            cpa_order=3, gcn_order=3, hidden_size=12, lstm_layers=1, fnn_layers=2,
            max_train_samples=64,
        )
        result = tr.train(dataset, config)
        history = np.asarray(result.history)
        assert np.all(np.isfinite(history))
        moving = np.convolve(history, np.ones(5) / 5.0, mode="valid")
        assert np.all(np.diff(moving) <= 1e-9)

    def test_nan_data_aborts_with_diagnostic(self):
        bad = tiny_dataset(seed=5)
        bad.series[0].values[200] = np.nan
        with pytest.raises(TrainingDivergence, match="non-finite"):
            tr.train(bad, tiny_train_config(epochs=1))

    def test_nonfinite_parameter_after_update_names_leaf(self, dataset, monkeypatch):
        config = tiny_train_config(epochs=1, batch_size=64, max_train_samples=20)  # one step
        offset = 0
        for name, p in md.named_parameters(md.init_mcan(config.model_config(dataset),
                                                        np.random.default_rng(0))):
            if name == "fusion.query":
                break
            offset += p.data.size
        adam_step = ad.adam_step

        def poisoned(theta, grad, state):
            adam_step(theta, grad, state)
            theta[offset + 1] = np.nan

        monkeypatch.setattr(ad, "adam_step", poisoned)
        with pytest.raises(TrainingDivergence,
                           match=r"^non-finite parameter after update: fusion\.query$"):
            tr.train(dataset, config)

    def test_evaluate_result_on_test_fold(self, dataset):
        config = tiny_train_config(epochs=1)
        result = tr.train(dataset, config)
        view, _ = tr.fitted_view(dataset, result.fold)
        report = tr.evaluate(result.params, view, result.fold.test)
        assert report.sample_count == len(result.fold.test)
        assert np.isfinite(report.rmse)
        assert report.per_step_rmse.shape == (config.horizon,)


def per_leaf_adam(leaves, state, learning_rate, b1=0.9, b2=0.999, eps=1e-8):
    """Adam as one update per leaf, from each leaf's own ``grad`` (zero where
    None): the reference for the vector update."""
    if not state:
        state.update(step=0, m=[np.zeros_like(p.data) for p in leaves],
                     v=[np.zeros_like(p.data) for p in leaves])
    grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in leaves]
    state["step"] += 1
    bias1 = 1.0 - b1 ** state["step"]
    bias2 = 1.0 - b2 ** state["step"]
    m, v = state["m"], state["v"]
    for i, (p, g) in enumerate(zip(leaves, grads)):
        m[i] = b1 * m[i] + (1.0 - b1) * g
        v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
        m_hat = m[i] / bias1
        v_hat = v[i] / bias2
        p.data -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)


class TestVectorAdam:
    def test_bit_identical_to_per_leaf_loop(self, dataset, model_config):
        fold = tr.kfold_split(dataset, model_config, 5, seed=1, indices=[4])[0]
        view, _ = tr.fitted_view(dataset, fold)
        gi = tr.SampleCache(view, model_config, fold.train[:24]).table
        params = md.init_mcan(model_config, np.random.default_rng(31))
        reference = md.init_mcan(model_config, np.random.default_rng(31))
        leaves = [p for _, p in md.named_parameters(reference)]
        state, ref_state = ad.AdamState(learning_rate=0.01), {}
        drop = md.Dropout(0.3, np.random.default_rng(37))
        ref_drop = md.Dropout(0.3, np.random.default_rng(37))
        for _ in range(3):
            loss = tr._adam_step(params, state, gi, drop)
            for p in leaves:
                p.grad = None
            speed, trend, dev = md.forward_group(reference, gi, ref_drop)
            ref_loss = md.loss_batch(speed, gi.target_speed, trend, gi.target_trend,
                                     dev, gi.target_deviation, model_config.alpha,
                                     model_config.beta)
            ref_loss.backward()
            per_leaf_adam(leaves, ref_state, 0.01)
            assert loss == ref_loss.item()
            assert params.theta.tobytes() == reference.theta.tobytes()
        assert state.step == ref_state["step"] == 3
        assert not np.array_equal(params.theta, md.init_mcan(model_config,
                                                              np.random.default_rng(31)).theta)


def taped_predictions(params, view, samples, batch_size):
    """``predict_samples``'s loop with the tape on: each chunk's graph is
    recorded, and ``speed`` keeps it alive while the next chunk's is built."""
    truth = np.empty((len(samples), params.config.horizon))
    preds = np.empty((len(samples), params.config.horizon))
    pairs = np.asarray(samples, dtype=int).reshape(-1, 2)
    for start in range(0, len(pairs), batch_size):
        chunk = pairs[start : start + batch_size]
        gi = md.assemble_group(view, params.config, chunk[:, 0], chunk[:, 1])
        speed, _, _ = md.forward_group(params, gi, None)
        rows, roads = start + gi.positions, gi.roads[:, None]
        truth[rows] = view.denormalize(roads, gi.target_speed)
        preds[rows] = view.denormalize(roads, speed.data)
    return truth, preds


class TestTapeFreePrediction:
    @pytest.fixture(scope="class")
    def setup(self, dataset):
        config = tiny_train_config(hidden_size=16, embed_len=6, filters=4, hops=2)
        mc = config.model_config(dataset)
        fold = tr.kfold_split(dataset, mc, 5, seed=1, indices=[4])[0]
        view, _ = tr.fitted_view(dataset, fold)
        params = md.init_mcan(mc, np.random.default_rng(41))
        samples = fold.train[::-1][:64] + fold.test[:64]  # two chunks of 64, roads mixed
        return params, view, samples, fold

    def test_bit_identical_to_taped_forwards(self, setup):
        params, view, samples, _ = setup
        truth, preds = tr.predict_samples(params, view, samples, batch_size=64)
        ref_truth, ref_preds = taped_predictions(params, view, samples, batch_size=64)
        assert truth.tobytes() == ref_truth.tobytes()
        assert preds.tobytes() == ref_preds.tobytes()

    @pytest.fixture(scope="class")
    def mixed(self):
        """A 3-road graph at 30 and 60 minutes, its fitted view and 600
        samples with roads and interval classes mixed, so that a 512-row
        chunk is full and is followed by a partial one."""
        dataset = tiny_dataset(n_roads=3, intervals=(30, 60))
        config = tiny_train_config(hidden_size=8, embed_len=6, filters=4, hops=2)
        fold = tr.kfold_split(dataset, config.model_config(dataset), 5, seed=1,
                              indices=[4])[0]
        view, _ = tr.fitted_view(dataset, fold)
        return dataset, view, fold.train[::-1][:520] + fold.test[:80]

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("ablations", [()] + [(name,) for name in md.ABLATION_NAMES])
    def test_bit_identical_over_depths_ablations_and_chunks(self, mixed, layers, ablations):
        # The forward-only LSTM layers keep two states instead of their whole
        # sequences; predictions stay those of taped forwards, chunk by chunk.
        dataset, view, samples = mixed
        config = tiny_train_config(hidden_size=8, embed_len=6, filters=4, hops=2, lstm_layers=layers,
                                   ablations=ablations).model_config(dataset)
        params = md.init_mcan(config, np.random.default_rng(47))
        for batch_size, count in ((1, 8), (64, len(samples)), (512, len(samples))):
            got = tr.predict_samples(params, view, samples[:count], batch_size=batch_size)
            want = taped_predictions(params, view, samples[:count], batch_size=batch_size)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], batch_size

    def test_forward_in_scope_records_no_graph(self, setup):
        params, view, samples, _ = setup
        pairs = np.asarray(samples[:16])
        with ad.no_tape():
            gi = md.assemble_group(view, params.config, pairs[:, 0], pairs[:, 1])
            outputs = md.forward_group(params, gi, None)
        for out in outputs:
            assert out._parents == () and out._backward is None and not out._needs
        taped = md.forward_group(params, gi, None)
        assert all(out._parents and out._backward is not None for out in taped)

    def test_scope_restored_after_error_inside(self, setup):
        params, view, _, fold = setup
        with pytest.raises(MissingDataError, match="lacks history at t=0"):
            tr.predict_samples(params, view, [(0, 0)])
        fresh = md.init_mcan(params.config, np.random.default_rng(43))
        gi = tr.SampleCache(view, params.config, fold.train[:16]).table
        tr._adam_step(fresh, ad.AdamState(learning_rate=0.01), gi, None)
        assert np.count_nonzero(fresh.grad) > fresh.grad.size // 2

    def test_sample_array_equals_pairs_and_empty_array_refused(self, setup, dataset):
        params, view, samples, fold = setup
        as_pairs = tr.predict_samples(params, view, samples)
        as_array = tr.predict_samples(params, view, np.asarray(samples))
        assert [a.tobytes() for a in as_array] == [a.tobytes() for a in as_pairs]
        empty = np.empty((0, 2), dtype=int)
        for call in (lambda: tr.predict_samples(params, view, empty), lambda: tr.evaluate(params, view, empty),
                     lambda: tr.historical_average_baseline(dataset, fold, params.config.horizon, empty)):
            with pytest.raises(MissingDataError, match="no samples to evaluate"):
                call()

    def test_peak_memory_at_most_half_of_taped(self, setup):
        params, view, samples, _ = setup

        def peak(predict):
            tracemalloc.start()
            try:
                predict(params, view, samples, batch_size=64)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(tr.predict_samples) <= 0.5 * peak(taped_predictions)


REFAULTS = """
import resource, sys
import numpy as np
if sys.argv[1] == "mcan":
    import mcan
def faults(blocks=80):  # 8 MB in blocks below glibc's default mmap threshold
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    kept = [np.ones(100_000 // 8) for _ in range(blocks)]
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
faults()
print(faults())
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap is kept on glibc only")
def test_freed_chunk_memory_is_not_faulted_in_again():
    # A chunk's forward arrays, once freed, stay on the heap for the next
    # chunk; without mcan, glibc returns them and the next chunk faults
    # every page in again.
    def refaults(imports):
        done = subprocess.run([sys.executable, "-c", REFAULTS, imports], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        return int(done.stdout)

    assert refaults("numpy") > 1000
    assert refaults("mcan") < 100


class TestBaseline:
    def test_exactly_periodic_data_gives_zero_error(self):
        dataset = tiny_dataset(days=16, noise=0.0, obs_noise=0.0, coupling=0.0,
                               weekly_amplitude=0.0, weather_impact=0.0)
        mc = tiny_train_config().model_config(dataset)
        fold = tr.kfold_split(dataset, mc, 5, seed=1)[-1]
        report = tr.historical_average_baseline(dataset, fold, mc.horizon)
        assert report.mae == pytest.approx(0.0, abs=1e-9)
        assert report.rmse == pytest.approx(0.0, abs=1e-9)
        assert report.mape_pct == pytest.approx(0.0, abs=1e-9)

    def test_constant_speed_dataset_gives_zero_error(self):
        dataset = tiny_dataset(days=16, noise=0.0, obs_noise=0.0, coupling=0.0,
                               weekly_amplitude=0.0, weather_impact=0.0)
        for s in dataset.series:
            s.values[:] = 33.0
        mc = tiny_train_config().model_config(dataset)
        fold = tr.kfold_split(dataset, mc, 5, seed=1)[-1]
        report = tr.historical_average_baseline(dataset, fold, mc.horizon)
        assert report.rmse == 0.0

    @pytest.mark.parametrize("fold_index", [0, 2, 4])
    def test_bit_identical_to_per_sample_reference(self, fold_index):
        dataset = tiny_dataset(days=16, n_roads=4, intervals=(30, 60, 120))
        mc = tiny_train_config(horizon=3).model_config(dataset)
        (fold,) = tr.kfold_split(dataset, mc, 5, seed=1, indices=[fold_index])
        for samples in (None, fold.train, fold.test[::-3], np.asarray(fold.test[::-3])):
            got = tr.historical_average_baseline(dataset, fold, mc.horizon, samples)
            expected = reference.historical_average_baseline(dataset, fold, mc.horizon, samples)
            for field in dataclasses.fields(tr.MetricsReport):
                a, b = getattr(got, field.name), getattr(expected, field.name)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name

    def test_rmse_converges_to_noise_sd(self):
        # periodic signal plus iid N(0, sigma^2): the baseline's RMSE estimates
        # sigma as the test sample count grows
        sigma = 2.0
        dataset = tiny_dataset(days=100, n_roads=2, noise=0.0, obs_noise=sigma,
                               coupling=0.0, weekly_amplitude=0.0, weather_impact=0.0)
        mc = tiny_train_config().model_config(dataset)
        fold = tr.kfold_split(dataset, mc, 5, seed=1)[-1]
        report = tr.historical_average_baseline(dataset, fold, mc.horizon)
        assert report.sample_count * mc.horizon > 1500
        assert abs(report.rmse - sigma) / sigma < 0.10


@st.composite
def leak_cases(draw):
    """A small random graph, interval menu and model config, a fold pick and a seed."""
    weekly_steps = draw(st.integers(0, 1))
    daily_steps = draw(st.integers(0, 2))
    generator = gd.GeneratorConfig(
        n_roads=draw(st.integers(2, 4)),
        edge_density=draw(st.sampled_from([0.3, 0.7, 1.0])),
        intervals=tuple(draw(st.lists(st.sampled_from([5, 10, 15, 30]), min_size=1, max_size=3,
                                      unique=True))),
        days=(7 * weekly_steps if weekly_steps else daily_steps) + draw(st.integers(4, 5)),
        coupling=0.3, obs_noise=1.0, weekly_amplitude=1.0, weather_impact=1.0,
    )
    config = tiny_train_config(
        recent_steps=draw(st.integers(1, 4)), daily_steps=daily_steps,
        weekly_steps=weekly_steps, horizon=draw(st.integers(1, 3)), hops=draw(st.integers(1, 2)),
        ablations=tuple(draw(st.lists(st.sampled_from(md.ABLATION_FLAGS), max_size=2,
                                      unique=True))),
        folds=draw(st.integers(3, 5)),
    )
    return generator, config, draw(st.integers(0, 4)), draw(st.integers(0, 2**16))


class TestLeakProperty:
    @settings(max_examples=20, deadline=timedelta(seconds=10), derandomize=True)
    @given(leak_cases())
    def test_test_window_values_never_reach_training(self, case):
        # Black-box form of the leak-free claim: rewrite every value whose
        # wall-clock minute lies in the fold's test window; nothing training
        # sees (scaler, daily averages, any training sample's inputs or
        # targets) may change by a single bit.
        generator, config, fold_pick, seed = case
        clean = gd.generate_synthetic(generator, seed)
        perturbed = gd.generate_synthetic(generator, seed)
        mc = config.model_config(clean)
        (fold,) = tr.kfold_split(clean, mc, config.folds, seed,
                                 indices=[fold_pick % config.folds])
        lo, hi = fold.test_wall
        rng = np.random.default_rng(seed)
        for road, s in enumerate(perturbed.series):
            walls = np.arange(len(s)) * perturbed.graph.nodes[road].interval_minutes
            inside = (walls >= lo) & (walls <= hi)
            s.values[inside] += rng.uniform(1.0, 10.0, size=inside.sum())
        assert not np.array_equal(clean.series[fold.test[0][0]].values,
                                  perturbed.series[fold.test[0][0]].values)
        (again,) = tr.kfold_split(perturbed, mc, config.folds, seed,
                                  indices=[fold.index])
        assert again.train == fold.train and again.test == fold.test

        view_a, scaler_a = tr.fitted_view(clean, fold)
        view_b, scaler_b = tr.fitted_view(perturbed, fold)
        assert scaler_a.means.tobytes() == scaler_b.means.tobytes()
        assert scaler_a.stds.tobytes() == scaler_b.stds.tobytes()
        for ya, yb in zip(view_a.ybar, view_b.ybar):
            assert ya.tobytes() == yb.tobytes()
        by_road: dict[int, list[int]] = {}
        for road, t in fold.train:
            by_road.setdefault(road, []).append(t)
        for road, times in by_road.items():
            assert_same_group_inputs(md.assemble_group(view_a, mc, road, times),
                                     md.assemble_group(view_b, mc, road, times))
