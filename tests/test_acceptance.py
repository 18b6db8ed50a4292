"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The heavy scenarios (criteria 5-7) drive the real CLI and trainer on synthetic
datasets sized for a desk-scale run; every tolerance is pinned here.
"""

import json
import time

import numpy as np
import pytest

import planted
import reference
from conftest import finite_difference, probe_indices, relative_gradient_error
from mcan import analysis as an
from mcan import autodiff as ad
from mcan import cli
from mcan import graphdata as gd
from mcan import hsc
from mcan import model as md
from mcan import nnlayers as nn
from mcan import trainer as tr


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: end-to-end gradient integrity on a 4-node graph


def test_criterion_1_gradient_integrity():
    started = time.time()
    gen = gd.GeneratorConfig(n_roads=4, edge_density=0.7, intervals=(20, 30, 60), days=9,
                             coupling=0.3, noise=1.5, obs_noise=0.3, weekly_amplitude=2.0,
                             weather_impact=1.0)
    dataset = gd.generate_synthetic(gen, seed=1)
    means = np.array([s.values.mean() for s in dataset.series])
    stds = np.array([s.values.std() for s in dataset.series])
    view = md.build_view(dataset, means=means, stds=stds)
    config = md.ModelConfig(
        horizon=2, recent_steps=3, daily_steps=1, weekly_steps=1, embed_len=6,
        hops=2, filters=2, cpa_order=3, gcn_order=3, hidden_size=5, lstm_layers=1,
        fnn_layers=2, alpha=0.2, beta=0.2,
        weather_code_count=dataset.weather_code_count,
        road_type_count=dataset.road_type_count,
    )
    params = md.init_mcan(config, np.random.default_rng(17))
    road = 0
    t = int(md.eligible_times(dataset, config, road)[0])
    gi = md.assemble_group(view, config, road, [t])

    def forward():
        speed, trend, dev = md.forward_group(params, gi)
        return md.loss_batch(speed, gi.target_speed, trend, gi.target_trend,
                             dev, gi.target_deviation, config.alpha, config.beta)

    forward().backward()
    groups_checked = set()
    worst = 0.0
    rng = np.random.default_rng(19)
    for name, p in md.named_parameters(params):
        idx = probe_indices(name, p, 4, rng)
        numeric = finite_difference(lambda: forward().item(), p, indices=idx)
        err = relative_gradient_error(p.grad, numeric, indices=idx)
        assert err < 1e-4, f"gradient mismatch for {name}: {err:.2e}"
        worst = max(worst, err)
        groups_checked.add(name.split(".")[0])
    elapsed = time.time() - started
    expected_groups = {
        "hsc_speed", "hsc_trend", "hsc_deviation", "msc_speed_head", "msc_trend_head",
        "msc_deviation_head", "lstm_recent", "lstm_daily", "lstm_weekly",
        "context_static", "context_dynamic", "fusion", "output_head",
    }
    assert groups_checked == expected_groups
    report("criterion 1 (gradient integrity)", elapsed < 120.0 and worst < 1e-4,
           f"worst relative error {worst:.2e} over {len(groups_checked)} parameter groups "
           f"in {elapsed:.1f}s (< 120s)")


# ---------------------------------------------------------------------------
# Criterion 2: embedding placement, exhaustive over 1 <= L <= c <= 24


def test_criterion_2_embedding_correctness():
    started = time.time()
    rng = np.random.default_rng(2)
    cpa = nn.CpaParams(ad.parameter(rng.normal(size=5)))
    for c in range(1, 25):
        for length in range(1, c + 1):
            raw, fill, spacing = hsc.embedding_positions(length, c)
            if length >= 2:
                assert np.array_equal(raw, np.arange(length) * (spacing + 1))
            else:
                assert np.array_equal(raw, [0])
            assert np.all(np.diff(raw) > 0) or length == 1
            assert raw[-1] < c
            x = rng.uniform(0, 60, size=length)
            emb = hsc.embed_windows(hsc.spread_windows(x[None], c), np.array([length]), cpa)
            assert np.array_equal(emb.data[0, raw], x)  # bit-exact round trip
            # the CPA fills exactly the fill positions
            filled = hsc.fill_basis(c, cpa.order)[length].any(axis=1)
            assert np.array_equal(np.flatnonzero(filled), fill)
    elapsed = time.time() - started
    report("criterion 2 (embedding correctness)", elapsed < 1.0,
           f"exhaustive (L, c) sweep up to c=24 in {elapsed * 1000:.0f}ms (< 1s)")


# ---------------------------------------------------------------------------
# Criterion 3: Chebyshev basis against the cosine identity


def test_criterion_3_chebyshev_oracle():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, size=10_000)
    basis = nn.chebyshev_basis(x, 8)
    worst = 0.0
    for l in range(1, 9):
        worst = max(worst, float(np.abs(basis[l - 1] - np.cos(l * np.arccos(x))).max()))
    report("criterion 3 (chebyshev oracle)", worst < 1e-9,
           f"max |T_l(x) - cos(l arccos x)| = {worst:.2e} over 10^4 points, l <= 8")


# ---------------------------------------------------------------------------
# Criterion 4: LSTM step against a straight-line evaluation


def test_criterion_4_lstm_oracle():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        p = nn.init_lstm(rng, 4, 6)
        p.w.data[:, -1] = rng.normal(size=(4, 6))
        x = rng.normal(size=(1, 4))
        h_prev = rng.normal(size=(1, 6))
        c_prev = rng.normal(size=(1, 6))
        # the production cell, on the row [h | x | 1] and the stacked weights
        # lstm_layer gives it, writing into the output arrays the caller passes
        h, c, tanh_c = np.empty((1, 6)), np.empty((1, 6)), np.empty((1, 6))
        hx = np.concatenate([h_prev, x, np.ones((1, 1))], axis=1)
        nn.lstm_step(nn.lstm_weights(p), hx, c_prev, np.empty((4, 1, 6)), h, c, tanh_c)
        h_ref, c_ref = reference.lstm_cell(p, x, h_prev, c_prev)
        worst = max(worst, float(np.abs(h - h_ref).max()), float(np.abs(c - c_ref).max()))
    report("criterion 4 (lstm oracle)", worst < 1e-12,
           f"max deviation {worst:.2e} over 100 random instances")


# ---------------------------------------------------------------------------
# Criterion 5: overfit a 2-road, 200-step dataset (via the CLI)


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("overfit")
    data_cfg = tmp / "gen.json"
    data_cfg.write_text(json.dumps({
        "n_roads": 2, "edge_density": 1.0, "intervals": [36], "days": 5,
        "coupling": 0.3, "noise": 0.0, "obs_noise": 0.0, "seed": 1,
        "output_dir": str(tmp / "data"),
    }))
    assert cli.main(["generate", "--config", str(data_cfg)]) == 0
    train_cfg = tmp / "train.json"
    train_cfg.write_text(json.dumps({
        "graph_path": str(tmp / "data" / "graph.json"),
        "series_path": str(tmp / "data" / "series.csv"),
        "context_path": str(tmp / "data" / "context.csv"),
        "output_dir": str(tmp / "run"),
        "epochs": 500, "batch_size": 64, "learning_rate": 0.02, "dropout": 0.0,
        "recent_steps": 4, "daily_steps": 1, "weekly_steps": 2, "horizon": 3,
        "folds": 5, "seed": 3, "ablations": ["nw"], "embed_len": 6, "hops": 1,
        "filters": 2, "cpa_order": 3, "gcn_order": 3, "hidden_size": 16,
        "lstm_layers": 1, "fnn_layers": 2,
    }))
    started = time.time()
    assert cli.main(["train", "--config", str(train_cfg)]) == 0
    elapsed = time.time() - started
    rows = (tmp / "run" / "loss_history.csv").read_text().splitlines()[1:]
    history = [float(line.split(",")[1]) for line in rows]
    return tmp, history, elapsed


def test_criterion_5_overfit(overfit_run):
    tmp, history, elapsed = overfit_run
    # the 2-road series hold exactly 200 observations each
    dataset = gd.load_dataset(tmp / "data" / "graph.json", tmp / "data" / "series.csv",
                              tmp / "data" / "context.csv")
    assert [len(s) for s in dataset.series] == [200, 200]
    ratio = history[-1] / history[0]
    report("criterion 5 (overfit)", len(history) == 500 and ratio < 0.01 and elapsed < 300.0,
           f"500-epoch loss ratio {ratio:.5f} (< 0.01) in {elapsed:.0f}s (< 300s)")


def test_criterion_5b_memorized_checkpoint_evaluation(overfit_run):
    # the CLI evaluation of the memorized training split reports a near-zero error
    tmp, _, _ = overfit_run
    eval_cfg = tmp / "eval.json"
    eval_cfg.write_text(json.dumps({
        "graph_path": str(tmp / "data" / "graph.json"),
        "series_path": str(tmp / "data" / "series.csv"),
        "context_path": str(tmp / "data" / "context.csv"),
        "checkpoint_path": str(tmp / "run" / "checkpoint.json"),
        "output_dir": str(tmp / "eval"), "eval_split": "train",
    }))
    assert cli.main(["evaluate", "--config", str(eval_cfg)]) == 0
    rows = (tmp / "eval" / "metrics.csv").read_text().splitlines()[1:]
    mae = next(float(r.split(",")[2]) for r in rows if r.startswith("mae,all,"))
    report("criterion 5b (memorized checkpoint)", mae < 0.1,
           f"training-split MAE {mae:.4f} km/h (< 0.1)")


# ---------------------------------------------------------------------------
# Criteria 6 and 7: learning on a 10-road heterogeneous dataset


LEARNING_SEEDS = (1, 2, 3)


def _learning_dataset(seed: int) -> gd.TrafficDataset:
    gen = gd.GeneratorConfig(
        n_roads=10, edge_density=0.4, intervals=(5, 10, 15), days=28,
        coupling=0.5, coupling_lag_minutes=20, noise=4.0, obs_noise=1.0,
        weekly_amplitude=3.0, weather_impact=1.0,
    )
    return gd.generate_synthetic(gen, seed=100 + seed)


def _learning_config(seed: int, ablations=()) -> tr.TrainConfig:
    return tr.TrainConfig(
        epochs=24, batch_size=128, learning_rate=0.004, dropout=0.1,
        recent_steps=6, daily_steps=4, weekly_steps=2, horizon=6,
        folds=5, seed=10 + seed, ablations=ablations, embed_len=12, hops=2,
        filters=4, cpa_order=5, gcn_order=5, hidden_size=16, lstm_layers=1,
        fnn_layers=2, max_train_samples=1024,
    )


@pytest.fixture(scope="module")
def learning_runs():
    started = time.time()
    outcomes = []
    for seed in LEARNING_SEEDS:
        dataset = _learning_dataset(seed)
        per_variant = {}
        for label, ablations in (("full", ()), ("ntr-nde", ("ntr-nde",))):
            result = tr.train(dataset, _learning_config(seed, ablations))
            rng = np.random.default_rng(5)
            test = result.fold.test
            if len(test) > 800:
                keep = sorted(rng.choice(len(test), 800, replace=False))
                test = [result.fold.test[i] for i in keep]
            view = md.build_view(dataset, means=result.scaler.means,
                                 stds=result.scaler.stds, ybar=result.ybar)
            per_variant[label] = tr.evaluate(result.params, view, test)
            if label == "full":
                baseline = tr.historical_average_baseline(dataset, result.fold, 6, test)
        outcomes.append({
            "seed": seed,
            "full": per_variant["full"],
            "ablated": per_variant["ntr-nde"],
            "baseline": baseline,
        })
    return outcomes, time.time() - started


def test_criterion_6_learning(learning_runs):
    outcomes, elapsed = learning_runs
    passes = []
    details = []
    for o in outcomes:
        beats = o["full"].rmse <= 0.9 * o["baseline"].rmse
        degraded = o["ablated"].rmse > o["full"].rmse
        passes.append(beats and degraded)
        details.append(
            f"seed {o['seed']}: RMSE {o['full'].rmse:.3f} vs HA {o['baseline'].rmse:.3f} "
            f"({'ok' if beats else 'miss'}), ablated {o['ablated'].rmse:.3f} "
            f"({'worse' if degraded else 'not worse'})"
        )
    majority = sum(passes) >= 2
    report("criterion 6 (learning test)", majority and elapsed < 1800.0,
           f"{sum(passes)}/3 seeds pass in {elapsed:.0f}s (< 1800s); " + "; ".join(details))


def test_criterion_7_horizon_degradation(learning_runs):
    outcomes, _ = learning_runs
    mean_steps = np.mean([o["full"].per_step_rmse for o in outcomes], axis=0)
    ok = all(mean_steps[s + 1] >= 0.95 * mean_steps[s] for s in range(len(mean_steps) - 1))
    report("criterion 7 (horizon degradation)", ok,
           f"mean per-step RMSE {np.round(mean_steps, 3).tolist()} non-decreasing within 5%")


# ---------------------------------------------------------------------------
# Criterion 8: multi-fold correlation demonstration on planted-pair data


def test_criterion_8_multifold_correlation():
    a, b, _ = planted.generate_planted_pair(seed=8, days=40)
    curves = an.multifold_correlation_report(a, b, 5, 5, ["speed", "trend"], window_days=30)
    shares = an.dominant_measurement_shares(curves)
    ok = shares["speed"] >= 0.2 and shares["trend"] >= 0.2
    report("criterion 8 (multi-fold correlation)", ok,
           f"dominant-measurement shares: speed {shares['speed']:.2f}, "
           f"trend {shares['trend']:.2f} (each >= 0.20)")


# ---------------------------------------------------------------------------
# Criterion 9: metrics oracle


def test_criterion_9_metrics_oracle():
    out = tr.compute_metrics(np.array([[1.0, 2.0]]), np.array([[2.0, 4.0]]))
    ok = (
        abs(out.mae - 1.5) < 1e-9
        and abs(out.mape_pct - 100.0) < 1e-9
        and abs(out.rmse - np.sqrt(2.5)) < 1e-9
    )
    report("criterion 9 (metrics oracle)", ok,
           f"MAE {out.mae}, MAPE {out.mape_pct}%, RMSE {out.rmse:.6f} "
           f"(expected 1.5, 100, {np.sqrt(2.5):.6f})")


# ---------------------------------------------------------------------------
# Criterion 10: byte-identical reruns of generate / correlate / train / evaluate / predict


def test_criterion_10_determinism(tmp_path):
    def run_all(tag):
        base = tmp_path / tag
        gen_cfg = tmp_path / f"gen_{tag}.json"
        gen_cfg.write_text(json.dumps({
            "n_roads": 3, "edge_density": 1.0, "intervals": [30, 60], "days": 16,
            "coupling": 0.3, "noise": 1.0, "obs_noise": 0.3, "weekly_amplitude": 1.5,
            "weather_impact": 1.0, "seed": 5, "output_dir": str(base / "data"),
        }))
        assert cli.main(["generate", "--config", str(gen_cfg)]) == 0
        data_paths = {key: str(base / "data" / name) for key, name in (
            ("graph_path", "graph.json"), ("series_path", "series.csv"),
            ("context_path", "context.csv"))}
        corr_cfg = tmp_path / f"corr_{tag}.json"
        corr_cfg.write_text(json.dumps({
            **data_paths, "output_dir": str(base / "corr"),
            "road_a": 0, "road_b": 1, "window_days": 7,
        }))
        assert cli.main(["correlate", "--config", str(corr_cfg)]) == 0
        train_cfg = tmp_path / f"train_{tag}.json"
        train_cfg.write_text(json.dumps({
            **data_paths,
            "output_dir": str(base / "run"),
            "epochs": 2, "batch_size": 32, "learning_rate": 0.002, "dropout": 0.4,
            "recent_steps": 3, "daily_steps": 1, "weekly_steps": 1, "horizon": 2,
            "folds": 5, "seed": 7, "embed_len": 4, "hops": 1, "filters": 2,
            "cpa_order": 3, "gcn_order": 3, "hidden_size": 4, "lstm_layers": 1,
            "fnn_layers": 1, "max_train_samples": 32,
        }))
        assert cli.main(["train", "--config", str(train_cfg)]) == 0
        eval_cfg = tmp_path / f"eval_{tag}.json"
        eval_cfg.write_text(json.dumps({
            **data_paths,
            "checkpoint_path": str(base / "run" / "checkpoint.json"),
            "output_dir": str(base / "eval"),
        }))
        assert cli.main(["evaluate", "--config", str(eval_cfg)]) == 0
        assert cli.main(["predict", "--config", str(eval_cfg), "--set", f"output_dir={base / 'pred'}",
                         "--set", "predict_count=3"]) == 0
        return base

    a = run_all("a")
    b = run_all("b")
    compared = []
    for rel in ("data/graph.json", "data/series.csv", "data/context.csv", "corr/correlations.csv",
                "run/checkpoint.json", "run/loss_history.csv", "eval/metrics.csv",
                "pred/predictions.csv"):
        same = (a / rel).read_bytes() == (b / rel).read_bytes()
        compared.append((rel, same))
    ok = all(same for _, same in compared)
    report("criterion 10 (determinism)", ok,
           "byte-identical reruns: " + ", ".join(f"{rel} {'ok' if same else 'DIFFERS'}"
                                                 for rel, same in compared))
