"""End-to-end CLI tests: config handling, exit codes, artifacts, determinism."""

import base64
import dataclasses
import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import planted
from mcan import analysis as an
from mcan import cli
from mcan import graphdata as gd
from mcan import model as md


def write_config(path, **keys):
    path.write_text(json.dumps(keys, indent=1, sort_keys=True))
    return str(path)


def generate_args(tmp_path, out_name="data", **overrides):
    keys = dict(
        n_roads=3, edge_density=1.0, intervals=[30, 60], days=16,
        coupling=0.3, noise=1.0, obs_noise=0.3, weekly_amplitude=1.5,
        weather_impact=1.0, seed=5, output_dir=str(tmp_path / out_name),
    )
    keys.update(overrides)
    return ["generate", "--config", write_config(tmp_path / f"{out_name}.json", **keys)]


def train_args(tmp_path, data_dir, out_name="run", **overrides):
    keys = dict(
        graph_path=str(data_dir / "graph.json"),
        series_path=str(data_dir / "series.csv"),
        context_path=str(data_dir / "context.csv"),
        output_dir=str(tmp_path / out_name),
        epochs=2, batch_size=32, learning_rate=0.002, dropout=0.0,
        recent_steps=3, daily_steps=1, weekly_steps=1, horizon=2,
        folds=5, seed=7, embed_len=4, hops=1, filters=2, cpa_order=3,
        gcn_order=3, hidden_size=4, lstm_layers=1, fnn_layers=1,
        max_train_samples=32,
    )
    keys.update(overrides)
    return ["train", "--config", write_config(tmp_path / f"{out_name}.json", **keys)]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli_data")
    assert cli.main(generate_args(tmp_path)) == 0
    return tmp_path / "data"


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, data_dir):
    tmp_path = tmp_path_factory.mktemp("cli_train")
    assert cli.main(train_args(tmp_path, data_dir)) == 0
    return tmp_path / "run"


class TestGenerate:
    def test_writes_loadable_files(self, data_dir):
        dataset = gd.load_dataset(data_dir / "graph.json", data_dir / "series.csv",
                                  data_dir / "context.csv")
        assert dataset.graph.size == 3

    def test_fixed_seed_identical_files(self, tmp_path):
        assert cli.main(generate_args(tmp_path, "a", seed=9)) == 0
        assert cli.main(generate_args(tmp_path, "b", seed=9)) == 0
        for name in ("graph.json", "series.csv", "context.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_missing_required_key_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path / "bad.json", output_dir=str(tmp_path / "x"))
        assert cli.main(["generate", "--config", config]) == 1
        assert "n_roads" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path / "bad.json", n_roads=2,
                              output_dir=str(tmp_path / "x"), typo_key=1)
        assert cli.main(["generate", "--config", config]) == 1
        assert "typo_key" in capsys.readouterr().err

    def test_usage_error_without_command(self):
        assert cli.main([]) == 1

    def test_coupling_lag_matches_generator(self, tmp_path):
        args = generate_args(tmp_path, "lag") + ["--set", "coupling_lag_minutes=20"]
        assert cli.main(args) == 0
        expected = gd.generate_synthetic(gd.GeneratorConfig(
            n_roads=3, edge_density=1.0, intervals=(30, 60), days=16, coupling=0.3,
            coupling_lag_minutes=20, noise=1.0, obs_noise=0.3, weekly_amplitude=1.5,
            weather_impact=1.0,
        ), seed=5)
        names = ("graph.json", "series.csv", "context.csv")
        gd.write_dataset(expected, *(tmp_path / name for name in names))
        for name in names:
            assert (tmp_path / "lag" / name).read_bytes() == (tmp_path / name).read_bytes()

    @pytest.mark.parametrize("intervals", ['["a"]', "[true]", "[30, 2.5]"])
    def test_non_integer_interval_is_usage_error(self, tmp_path, capsys, intervals):
        args = generate_args(tmp_path) + ["--set", f"intervals={intervals}"]
        assert cli.main(args) == 1
        assert "config key 'intervals' must be int" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()


class TestTrain:
    def test_writes_checkpoint_and_history(self, trained_dir):
        assert (trained_dir / "checkpoint.json").exists()
        history = (trained_dir / "loss_history.csv").read_text().splitlines()
        assert history[0] == "epoch,loss"
        assert len(history) == 3  # header + 2 epochs

    def test_deterministic_rerun(self, tmp_path, data_dir):
        assert cli.main(train_args(tmp_path, data_dir, "r1")) == 0
        assert cli.main(train_args(tmp_path, data_dir, "r2")) == 0
        for name in ("checkpoint.json", "loss_history.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_unknown_ablation_flag_lists_valid(self, tmp_path, data_dir, capsys):
        args = train_args(tmp_path, data_dir, "bad") + ["--ablate", "nope"]
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert "ntr-nde" in err and "nemb" in err

    def test_ablate_flag_shrinks_model(self, tmp_path, data_dir):
        args = train_args(tmp_path, data_dir, "ab") + ["--ablate", "ntr-nde", "--ablate", "nw"]
        assert cli.main(args) == 0
        doc = json.loads((tmp_path / "ab" / "checkpoint.json").read_text())
        assert doc["config"]["ablations"] == ["nde", "ntr", "nw"]
        assert not any(name.startswith("hsc_trend") for name, _ in doc["parameters"])

    @pytest.mark.parametrize("horizon, vanished", [(500, True), (6, False)])
    def test_interval_class_without_training_sample_is_named(self, tmp_path, capsys, horizon, vanished):
        # 21 days of 5- and 120-min roads: 500 steps ahead is 41.7 days of a
        # 120-min road, so at horizon 500 that class has no eligible sample
        assert cli.main(generate_args(tmp_path, n_roads=2, intervals=[5, 120], days=21)) == 0
        args = train_args(tmp_path, tmp_path / "data", epochs=1, horizon=horizon, embed_len=12)
        assert cli.main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("final training loss") != vanished
        assert ("interval class 120 min: no training sample" in lines) == vanished
        assert not any("interval class 5 min" in line for line in lines)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_sample_cap_below_one_is_usage_error(self, tmp_path, data_dir, capsys, cap):
        args = train_args(tmp_path, data_dir, "cap") + ["--set", f"max_train_samples={cap}"]
        assert cli.main(args) == 1
        assert f"max_train_samples must be >= 1, got {cap}" in capsys.readouterr().err
        assert not (tmp_path / "cap").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("hidden_size", "0", "hidden_size must be >= 1, got 0"),
        ("daily_steps", "-1", "daily_steps and weekly_steps must be >= 0"),
        ("alpha", "-1.0", "loss weights alpha and beta must be >= 0"),
        ("hops", "0", "hops must be >= 1, got 0"),
        ("ablations", '["zz"]', "unknown ablation flag 'zz'"),
    ])
    def test_bad_model_key_is_usage_error_before_reading(self, tmp_path, capsys, key, value,
                                                         message):
        args = train_args(tmp_path, tmp_path / "nowhere", "bad") + ["--set", f"{key}={value}"]
        assert cli.main(args) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_checkpoint_echo_key_set(self, trained_dir):
        doc = json.loads((trained_dir / "checkpoint.json").read_text())
        run_keys = {"folds", "fold_index", "fold_seed", "shuffled_folds", "epochs", "batch_size",
                    "learning_rate", "dropout", "max_train_samples", "edges", "span_minutes"}
        model_keys = {f.name for f in dataclasses.fields(md.ModelConfig)}
        assert set(doc["config"]) == model_keys | run_keys
        assert (doc["config"]["fold_index"], doc["config"]["fold_seed"]) == (4, 7)

    def test_max_test_samples_is_unknown_key(self, tmp_path, data_dir, capsys):
        args = train_args(tmp_path, data_dir, "cap") + ["--set", "max_test_samples=-7"]
        assert cli.main(args) == 1
        assert "unknown config keys for 'train': max_test_samples" in capsys.readouterr().err

    def test_missing_input_file_is_runtime_error(self, tmp_path, capsys):
        args = train_args(tmp_path, tmp_path / "nowhere", "gone")
        assert cli.main(args) == 2

    def test_non_finite_speed_is_runtime_error(self, tmp_path, data_dir, capsys):
        bad = tmp_path / "bad_data"
        bad.mkdir()
        for name in ("graph.json", "context.csv"):
            (bad / name).write_bytes((data_dir / name).read_bytes())
        lines = (data_dir / "series.csv").read_text().splitlines()
        road, slot, _ = lines[5].split(",")
        lines[5] = f"{road},{slot},nan"
        (bad / "series.csv").write_text("\n".join(lines) + "\n")
        assert cli.main(train_args(tmp_path, bad, "nan_run")) == 2
        err = capsys.readouterr().err
        assert "series.csv: row 6: field 'speed_kmh' is not finite" in err

    def test_duplicate_context_row_is_runtime_error(self, tmp_path, data_dir, capsys):
        bad = tmp_path / "dup_data"
        bad.mkdir()
        for name in ("graph.json", "series.csv"):
            (bad / name).write_bytes((data_dir / name).read_bytes())
        lines = (data_dir / "context.csv").read_text().splitlines()
        (bad / "context.csv").write_text("\n".join(lines + ["0,3,7,0,0"]) + "\n")
        assert cli.main(train_args(tmp_path, bad, "dup_run")) == 2
        err = capsys.readouterr().err
        assert f"context.csv: row {len(lines) + 1}: duplicate slot 3 for road 0" in err, err
        assert not (tmp_path / "dup_run").exists()

    @pytest.mark.parametrize("edit,message", [
        pytest.param(lambda doc: doc["nodes"][1].update(interval_minutes="x"),
                     "node entry 1: field 'interval_minutes' must be an integer, got 'x'", id="string"),
        pytest.param(lambda doc: doc["nodes"][0].update(length_m=None),
                     "node entry 0: field 'length_m' must be a finite number, got None", id="null"),
        pytest.param(lambda doc: doc.update(edges=[[0]]),
                     "edge entry 0: expected a pair of integer node ids, got [0]", id="short-edge"),
        pytest.param(lambda doc: doc["nodes"].append(5),
                     "node entry 3: expected an object, got 5", id="bare-node"),
        pytest.param(lambda doc: doc["nodes"][0].update(id=0.5),
                     "node entry 0: field 'id' must be an integer, got 0.5", id="float-id"),
        pytest.param(lambda doc: doc["nodes"][2].update(length_m=10**400),
                     "node entry 2: field 'length_m' must be a finite number, got 1000", id="huge-length"),
    ])
    def test_malformed_graph_field_is_runtime_error(self, tmp_path, data_dir, capsys, edit, message):
        bad = tmp_path / "bad_graph"
        bad.mkdir()
        for name in ("series.csv", "context.csv"):
            (bad / name).write_bytes((data_dir / name).read_bytes())
        doc = json.loads((data_dir / "graph.json").read_text())
        edit(doc)
        (bad / "graph.json").write_text(json.dumps(doc))
        assert cli.main(train_args(tmp_path, bad, "graph_run")) == 2
        err = capsys.readouterr().err
        assert f"{bad / 'graph.json'}: {message}" in err, err
        assert "Traceback" not in err


class TestNullValues:
    @pytest.mark.parametrize("command,key", [
        ("generate", "days"), ("generate", "n_roads"), ("generate", "intervals"),
        ("generate", "seed"), ("generate", "output_dir"),
        ("train", "epochs"), ("train", "learning_rate"), ("train", "ablations"),
        ("train", "shuffled_folds"), ("train", "seed"), ("train", "graph_path"),
    ])
    def test_null_is_usage_error_naming_key(self, tmp_path, data_dir, capsys, command, key):
        args = generate_args(tmp_path, "out") if command == "generate" else train_args(tmp_path, data_dir, "out")
        assert cli.main(args + ["--set", f"{key}=null"]) == 1
        assert f"config key {key!r} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["generate", "train", "evaluate"])
    def test_negative_seed_is_usage_error_before_reading(self, tmp_path, capsys, command):
        missing = tmp_path / "missing"
        if command == "generate":
            args = generate_args(tmp_path, "out")
        elif command == "train":
            args = train_args(tmp_path, missing, "out")
        else:
            args = ["evaluate", "--set", "max_eval_samples=5", "--config", write_config(
                tmp_path / "eval.json", graph_path=str(missing / "graph.json"),
                series_path=str(missing / "series.csv"), context_path=str(missing / "context.csv"),
                checkpoint_path=str(missing / "checkpoint.json"), output_dir=str(tmp_path / "out"))]
        assert cli.main(args + ["--seed", "-1"]) == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["correlate", "predict"])
    def test_seed_is_unknown_key_where_nothing_is_drawn(self, tmp_path, capsys, command):
        missing = tmp_path / "missing"
        keys = dict(graph_path=str(missing / "graph.json"), series_path=str(missing / "series.csv"),
                    context_path=str(missing / "context.csv"), output_dir=str(tmp_path / "out"))
        if command == "correlate":
            keys.update(road_a=0, road_b=1, window_days=7)
        else:
            keys.update(checkpoint_path=str(missing / "checkpoint.json"))
        config = write_config(tmp_path / f"{command}.json", **keys)
        assert cli.main([command, "--config", config, "--set", "seed=5"]) == 1
        assert f"unknown config keys for {command!r}: seed;" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["correlate", "predict"])
    def test_seed_option_is_not_offered_where_nothing_is_drawn(self, tmp_path, capsys, command):
        keys = dict(graph_path="g.json", series_path="s.csv", context_path="c.csv",
                    output_dir=str(tmp_path / "out"), road_a=0, road_b=1, window_days=7)
        if command == "predict":
            keys = {**keys, "checkpoint_path": "ck.json"}
            del keys["road_a"], keys["road_b"], keys["window_days"]
        config = write_config(tmp_path / f"{command}.json", **keys)
        assert cli.main([command, "--help"]) == 0
        assert "--seed" not in capsys.readouterr().out
        assert cli.main([command, "--config", config, "--seed", "5"]) == 1
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["generate", "correlate", "evaluate", "predict"])
    def test_ablate_option_only_on_train(self, capsys, command):
        assert cli.main([command, "--help"]) == 0
        assert "--ablate" not in capsys.readouterr().out
        assert cli.main([command, "--ablate", "nw"]) == 1
        assert "unrecognized arguments: --ablate nw" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["fold_index", "max_train_samples"])
    def test_null_means_default_for_optional_train_keys(self, tmp_path, data_dir, key):
        args = train_args(tmp_path, data_dir, "null")
        if key == "max_train_samples":  # the whole training fold: keep it small
            args += ["--set", "epochs=1", "--set", "folds=8"]
        assert cli.main(args + ["--set", f"{key}=null"]) == 0
        doc = json.loads((tmp_path / "null" / "checkpoint.json").read_text())
        assert doc["config"][key] == (None if key == "max_train_samples" else doc["config"]["folds"] - 1)

    def test_null_cap_evaluates_whole_split(self, tmp_path, data_dir, trained_dir, capsys):
        config = write_config(
            tmp_path / "eval_null.json",
            graph_path=str(data_dir / "graph.json"),
            series_path=str(data_dir / "series.csv"),
            context_path=str(data_dir / "context.csv"),
            checkpoint_path=str(trained_dir / "checkpoint.json"),
            output_dir=str(tmp_path / "eval_null"),
            max_eval_samples=None,
        )
        assert cli.main(["evaluate", "--config", config]) == 0
        assert "test split:" in capsys.readouterr().out


class TestNonFiniteValues:
    # The float keys follow the finite rule of graphdata.typed_value: NaN, an
    # infinity or an integer beyond float64 is refused before any file is read.
    @pytest.mark.parametrize("command,key", [
        ("generate", "noise"), ("generate", "edge_density"), ("generate", "weather_impact"),
        ("train", "alpha"), ("train", "beta"), ("train", "learning_rate"), ("train", "dropout"),
    ])
    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "int-1e400"])
    @pytest.mark.parametrize("given_in", ["set", "file"])
    def test_non_finite_float_is_usage_error_before_reading(self, tmp_path, capsys, command, key, text,
                                                            given_in):
        value = json.loads(text)
        overrides = {key: value} if given_in == "file" else {}
        args = (generate_args(tmp_path, "out", **overrides) if command == "generate"
                else train_args(tmp_path, tmp_path / "missing", "out", **overrides))
        if given_in == "set":
            args += ["--set", f"{key}={text}"]
        assert cli.main(args) == 1
        assert f"config key {key!r} must be a finite number, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestIntegerRange:
    # The integer keys follow the CSV loader's 64-bit rule: a number no int64
    # holds, integral float or int, is refused before any file is read.
    @pytest.mark.parametrize("command,key", [
        ("generate", "days"), ("generate", "n_roads"), ("train", "epochs"), ("train", "hidden_size"),
    ])
    @pytest.mark.parametrize("text", ["1e30", "1" + "0" * 400, "-1" + "0" * 400],
                             ids=["1e30", "int-1e400", "int-minus-1e400"])
    @pytest.mark.parametrize("given_in", ["set", "file"])
    def test_beyond_int64_is_usage_error_before_reading(self, tmp_path, capsys, command, key, text, given_in):
        value = json.loads(text)
        overrides = {key: value} if given_in == "file" else {}
        args = (generate_args(tmp_path, "out", **overrides) if command == "generate"
                else train_args(tmp_path, tmp_path / "missing", "out", **overrides))
        if given_in == "set":
            args += ["--set", f"{key}={text}"]
        assert cli.main(args) == 1
        assert capsys.readouterr().err == (f"error: config key {key!r} is outside the 64-bit integer range, "
                                           f"got {value!r}\n")
        assert not (tmp_path / "out").exists()


class TestEvaluate:
    def test_metrics_table_and_summary(self, tmp_path, data_dir, trained_dir, capsys):
        config = write_config(
            tmp_path / "eval.json",
            graph_path=str(data_dir / "graph.json"),
            series_path=str(data_dir / "series.csv"),
            context_path=str(data_dir / "context.csv"),
            checkpoint_path=str(trained_dir / "checkpoint.json"),
            output_dir=str(tmp_path / "eval"),
        )
        assert cli.main(["evaluate", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "RMSE" in out
        lines = (tmp_path / "eval" / "metrics.csv").read_text().splitlines()
        assert lines[0] == "metric,horizon_step,value"
        metrics = {tuple(line.split(",")[:2]) for line in lines[1:]}
        assert ("mae", "all") in metrics and ("rmse", "2") in metrics

    def test_train_split_evaluation(self, tmp_path, data_dir, trained_dir):
        config = write_config(
            tmp_path / "eval_train.json",
            graph_path=str(data_dir / "graph.json"),
            series_path=str(data_dir / "series.csv"),
            context_path=str(data_dir / "context.csv"),
            checkpoint_path=str(trained_dir / "checkpoint.json"),
            output_dir=str(tmp_path / "eval_train"),
            eval_split="train", max_eval_samples=20,
        )
        assert cli.main(["evaluate", "--config", config]) == 0

    @pytest.mark.parametrize("cap", [0, -1])
    def test_sample_cap_below_one_is_usage_error(self, tmp_path, data_dir, trained_dir, capsys,
                                                 cap):
        config = write_config(
            tmp_path / "eval_cap.json",
            graph_path=str(data_dir / "graph.json"),
            series_path=str(data_dir / "series.csv"),
            context_path=str(data_dir / "context.csv"),
            checkpoint_path=str(trained_dir / "checkpoint.json"),
            output_dir=str(tmp_path / "eval_cap"),
        )
        args = ["evaluate", "--config", config, "--set", f"max_eval_samples={cap}"]
        assert cli.main(args) == 1
        assert f"max_eval_samples must be >= 1, got {cap}" in capsys.readouterr().err
        assert not (tmp_path / "eval_cap").exists()

    def test_bad_split_name_usage_error(self, tmp_path, data_dir, trained_dir, capsys):
        config = write_config(
            tmp_path / "eval_bad.json",
            graph_path=str(data_dir / "graph.json"),
            series_path=str(data_dir / "series.csv"),
            context_path=str(data_dir / "context.csv"),
            checkpoint_path=str(trained_dir / "checkpoint.json"),
            output_dir=str(tmp_path / "eval_bad"),
            eval_split="validation",
        )
        assert cli.main(["evaluate", "--config", config]) == 1

    def test_malformed_checkpoint_is_runtime_error(self, tmp_path, data_dir, trained_dir, capsys):
        doc = json.loads((trained_dir / "checkpoint.json").read_text())
        del doc["config"]["hops"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        config = write_config(
            tmp_path / "eval_broken.json",
            graph_path=str(data_dir / "graph.json"),
            series_path=str(data_dir / "series.csv"),
            context_path=str(data_dir / "context.csv"),
            checkpoint_path=str(broken),
            output_dir=str(tmp_path / "eval_broken"),
        )
        assert cli.main(["evaluate", "--config", config]) == 2
        assert "missing key 'config.hops'" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("hops", "2"), ("fold_index", 4.0),
                                           ("fold_index", 9), ("shuffled_folds", 0),
                                           ("folds", 1), ("fold_seed", -5)])
    def test_wrongly_typed_checkpoint_is_runtime_error(self, tmp_path, data_dir, trained_dir,
                                                        capsys, key, value):
        doc = json.loads((trained_dir / "checkpoint.json").read_text())
        doc["config"][key] = value
        broken = tmp_path / "typed.json"
        broken.write_text(json.dumps(doc))
        config = write_config(
            tmp_path / "eval_typed.json",
            graph_path=str(data_dir / "graph.json"),
            series_path=str(data_dir / "series.csv"),
            context_path=str(data_dir / "context.csv"),
            checkpoint_path=str(broken),
            output_dir=str(tmp_path / "eval_typed"),
        )
        assert cli.main(["evaluate", "--config", config]) == 2
        assert f"'config.{key}' must be" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("ablations", ["zz"], "unknown ablation flags ['zz']"),
        ("hidden_size", 0, "hidden_size must be >= 1, got 0"),
        ("horizon", -1, "horizon must be >= 1, got -1"),
        ("daily_steps", -2, "daily_steps and weekly_steps must be >= 0"),
        ("alpha", -1.0, "loss weights alpha and beta must be >= 0"),
    ], ids=["ablations", "hidden_size", "horizon", "daily_steps", "alpha"])
    def test_invalid_checkpoint_config_is_runtime_error(self, tmp_path, data_dir, trained_dir,
                                                        capsys, key, value, message):
        doc = json.loads((trained_dir / "checkpoint.json").read_text())
        doc["config"][key] = value
        broken = tmp_path / "invalid.json"
        broken.write_text(json.dumps(doc))
        assert run_on(tmp_path, "evaluate", data_dir, broken, "out") == 2
        assert f"error: {broken}: invalid checkpoint config: {message}" in capsys.readouterr().err

    def test_format_version_3_is_runtime_error(self, tmp_path, data_dir, trained_dir, capsys):
        # A version-3 file spells out each parameter's values as JSON numbers.
        doc = version_3(json.loads((trained_dir / "checkpoint.json").read_text()))
        assert "theta" not in doc and doc["parameters"]["lstm_recent.0.w"]["values"]
        old = tmp_path / "v3.json"
        old.write_text(json.dumps(doc))
        assert run_on(tmp_path, "evaluate", data_dir, old, "out") == 2
        assert f"{old}: unsupported checkpoint format version 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_format_version_2_is_runtime_error(self, tmp_path, data_dir, trained_dir, capsys):
        # A version-2 file stores each LSTM cell as three stacked leaves.
        doc = version_3(json.loads((trained_dir / "checkpoint.json").read_text()))
        stored = split_lstm_matrices(doc["parameters"])
        assert "lstm_recent.0.w_h" in stored and "lstm_recent.0.w" not in stored
        doc["format_version"] = 2
        old = tmp_path / "v2.json"
        old.write_text(json.dumps(doc))
        assert run_on(tmp_path, "evaluate", data_dir, old, "out") == 2
        assert f"{old}: unsupported checkpoint format version 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_format_version_1_is_runtime_error(self, tmp_path, data_dir, trained_dir, capsys):
        # A version-1 file stores each LSTM cell as 12 per-gate leaves.
        doc = version_3(json.loads((trained_dir / "checkpoint.json").read_text()))
        stored = split_lstm_matrices(doc["parameters"])
        for name in [n for n in stored if n.rsplit(".", 1)[1] in ("w_x", "w_h", "b")]:
            entry = stored.pop(name)
            stacked = np.reshape(entry["values"], entry["shape"])
            prefix, leaf = name.rsplit(".", 1)
            for k, gate in enumerate("ifoc"):
                gate_name = f"b_{gate}" if leaf == "b" else f"w_{gate}{leaf[-1]}"
                stored[f"{prefix}.{gate_name}"] = {"shape": list(stacked[k].shape),
                                                   "values": stacked[k].reshape(-1).tolist()}
        assert "lstm_recent.0.w_ch" in stored and "lstm_recent.0.w_h" not in stored
        doc["format_version"] = 1
        old = tmp_path / "v1.json"
        old.write_text(json.dumps(doc))
        assert run_on(tmp_path, "evaluate", data_dir, old, "out") == 2
        assert f"{old}: unsupported checkpoint format version 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_checkpoint_without_shuffled_folds_is_runtime_error(self, tmp_path, data_dir, trained_dir,
                                                                capsys):
        doc = json.loads((trained_dir / "checkpoint.json").read_text())
        del doc["config"]["shuffled_folds"]
        broken = tmp_path / "unshuffled.json"
        broken.write_text(json.dumps(doc))
        assert run_on(tmp_path, "evaluate", data_dir, broken, "out") == 2
        assert f"{broken}: checkpoint is missing key 'config.shuffled_folds'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestPredict:
    def test_rows_per_sample_match_horizon(self, tmp_path, data_dir, trained_dir):
        config = write_config(
            tmp_path / "pred.json",
            graph_path=str(data_dir / "graph.json"),
            series_path=str(data_dir / "series.csv"),
            context_path=str(data_dir / "context.csv"),
            checkpoint_path=str(trained_dir / "checkpoint.json"),
            output_dir=str(tmp_path / "pred"),
            predict_count=2,
        )
        assert cli.main(["predict", "--config", config]) == 0
        lines = (tmp_path / "pred" / "predictions.csv").read_text().splitlines()
        assert lines[0] == "road_id,t,step,speed_kmh"
        rows = [line.split(",") for line in lines[1:]]
        # horizon 2, 2 times per road, 3 roads
        assert len(rows) == 3 * 2 * 2
        by_sample = {}
        for road, t, step, _ in rows:
            by_sample.setdefault((road, t), []).append(int(step))
        assert all(sorted(steps) == [1, 2] for steps in by_sample.values())

    def test_deterministic_rerun(self, tmp_path, data_dir, trained_dir):
        for name in ("p1", "p2"):
            config = write_config(
                tmp_path / f"{name}.json",
                graph_path=str(data_dir / "graph.json"),
                series_path=str(data_dir / "series.csv"),
                context_path=str(data_dir / "context.csv"),
                checkpoint_path=str(trained_dir / "checkpoint.json"),
                output_dir=str(tmp_path / name),
            )
            assert cli.main(["predict", "--config", config]) == 0
        assert (tmp_path / "p1" / "predictions.csv").read_bytes() == \
            (tmp_path / "p2" / "predictions.csv").read_bytes()

    def test_unknown_road_is_usage_error_before_checkpoint(self, tmp_path, data_dir, capsys):
        args = ["predict", "--config", write_config(
            tmp_path / "pred_road.json",
            graph_path=str(data_dir / "graph.json"),
            series_path=str(data_dir / "series.csv"),
            context_path=str(data_dir / "context.csv"),
            checkpoint_path=str(tmp_path / "missing.json"),
            output_dir=str(tmp_path / "pred_road"),
        ), "--set", "predict_road=99"]
        assert cli.main(args) == 1
        assert "road 99 is not in the graph (N=3)" in capsys.readouterr().err
        assert not (tmp_path / "pred_road").exists()

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_is_usage_error_before_reading(self, tmp_path, data_dir, capsys, count):
        missing = tmp_path / "missing.json"
        assert run_on(tmp_path, "predict", data_dir, missing, "out") == 2  # the file is absent
        capsys.readouterr()
        config = write_config(
            tmp_path / "pred_count.json",
            graph_path=str(data_dir / "graph.json"),
            series_path=str(data_dir / "series.csv"),
            context_path=str(data_dir / "context.csv"),
            checkpoint_path=str(missing),
            output_dir=str(tmp_path / "pred_count"),
            predict_count=count,
        )
        assert cli.main(["predict", "--config", config]) == 1
        assert f"predict_count must be >= 1, got {count}" in capsys.readouterr().err


def theta_slices(doc):
    """A version-4 checkpoint's ``theta`` decoded into a writable float64
    array, and each parameter's slice of it by name."""
    theta = np.frombuffer(base64.b64decode(doc["theta"]), "<f8").copy()
    sizes = [math.prod(shape) for _, shape in doc["parameters"]]
    ends = np.cumsum(sizes).tolist()
    return theta, {name: slice(end - size, end) for (name, _), size, end in zip(doc["parameters"], sizes, ends)}


def encode_theta(doc, theta):
    """``doc`` with ``theta`` stored as its base64 ``theta`` block."""
    doc["theta"] = base64.b64encode(np.asarray(theta, "<f8").tobytes()).decode("ascii")
    return doc


def plant_in_theta(doc, name, value):
    """``doc`` with the first value of parameter ``name`` set to ``value``."""
    theta, where = theta_slices(doc)
    theta[where[name].start] = value
    return encode_theta(doc, theta)


def version_3(doc):
    """A version-4 checkpoint as version 3 wrote it: ``parameters`` maps each
    name to its shape and its values as JSON numbers, and there is no
    ``theta`` block."""
    theta, where = theta_slices(doc)
    doc["parameters"] = {name: {"shape": shape, "values": theta[where[name]].tolist()}
                         for name, shape in doc.pop("parameters")}
    del doc["theta"]
    doc["format_version"] = 3
    return doc


def split_lstm_matrices(stored):
    """``stored`` version-3 checkpoint parameters with each LSTM cell's ``w``
    matrix replaced by its stacked ``w_x``, ``w_h`` and ``b`` row blocks, as a
    version-2 file names them."""
    for name in [n for n in stored if n.endswith(".w")]:
        entry = stored.pop(name)
        w = np.reshape(entry["values"], entry["shape"])
        hidden = w.shape[2]
        for leaf, block in (("w_x", w[:, hidden:-1]), ("w_h", w[:, :hidden]), ("b", w[:, -1])):
            stored[f"{name[:-2]}.{leaf}"] = {"shape": list(block.shape), "values": block.reshape(-1).tolist()}
    return stored


def run_on(tmp_path, command, data, checkpoint, name):
    config = write_config(
        tmp_path / f"{name}.json",
        graph_path=str(data / "graph.json"),
        series_path=str(data / "series.csv"),
        context_path=str(data / "context.csv"),
        checkpoint_path=str(checkpoint),
        output_dir=str(tmp_path / name),
    )
    return cli.main([command, "--config", config])


class TestCheckpointFitsDataset:
    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_other_sampling_interval_is_runtime_error(self, tmp_path, trained_dir, capsys, command):
        # the same graph regenerated with every road at 60 minutes: the
        # 30-minute roads' 48-slot daily averages meet 24-slot days
        assert cli.main(generate_args(tmp_path, "data60", intervals=[60])) == 0
        code = run_on(tmp_path, command, tmp_path / "data60", trained_dir / "checkpoint.json", "out")
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(r"road \d+ has 48 daily-average slots in the checkpoint "
                         r"but 24 slots per day in the dataset", err), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_other_road_count_is_runtime_error(self, tmp_path, trained_dir, capsys, command):
        # the 4-road graph of the same generator seed
        assert cli.main(generate_args(tmp_path, "four", n_roads=4)) == 0
        checkpoint = trained_dir / "checkpoint.json"
        code = run_on(tmp_path, command, tmp_path / "four", checkpoint, "out")
        assert code == 2
        err = capsys.readouterr().err
        assert f"{checkpoint}: checkpoint was trained on 3 roads but the dataset has 4" in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_fewer_weather_codes_is_runtime_error(self, tmp_path, data_dir, trained_dir, capsys,
                                                  command):
        data = tmp_path / "calm"
        data.mkdir()
        for name in ("graph.json", "series.csv"):
            (data / name).write_bytes((data_dir / name).read_bytes())
        header, *rows = (data_dir / "context.csv").read_text().splitlines()
        column = header.split(",").index("weather_code")
        calm = [",".join("0" if k == column else v for k, v in enumerate(row.split(",")))
                for row in rows]
        (data / "context.csv").write_text("\n".join([header] + calm) + "\n")
        trained = json.loads((trained_dir / "checkpoint.json").read_text())["config"]
        code = run_on(tmp_path, command, data, trained_dir / "checkpoint.json", "out")
        assert code == 2
        err = capsys.readouterr().err
        assert (f"'config.weather_code_count' is {trained['weather_code_count']} "
                f"but the dataset has 1") in err, err


    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("change,key,trained,given", [
        ({"edge_density": 0.3}, "edges", "[[0, 1], [0, 2], [1, 2]]", "[[1, 2]]"),
        ({"days": 17}, "span_minutes", "23040", "24480"),
    ])
    def test_other_edges_or_span_is_runtime_error(self, tmp_path, trained_dir, capsys, command,
                                                   change, key, trained, given):
        # the same seed keeps every road's interval and the code counts
        assert cli.main(generate_args(tmp_path, "other", **change)) == 0
        code = run_on(tmp_path, command, tmp_path / "other", trained_dir / "checkpoint.json", "out")
        assert code == 2
        err = capsys.readouterr().err
        assert f"'config.{key}' is {trained} but the dataset has {given}" in err, err
        assert not (tmp_path / "out").exists()

    def test_checkpoint_without_graph_keys_is_runtime_error(self, tmp_path, data_dir, trained_dir,
                                                            capsys):
        doc = json.loads((trained_dir / "checkpoint.json").read_text())
        del doc["config"]["edges"]
        (tmp_path / "old.json").write_text(json.dumps(doc))
        assert run_on(tmp_path, "evaluate", data_dir, tmp_path / "old.json", "out") == 2
        assert "checkpoint is missing key 'config.edges'" in capsys.readouterr().err


class TestCheckpointValuesFinite:
    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("edit,message", [
        pytest.param(lambda doc: plant_in_theta(doc, "fusion.query", float("nan")),
                     "parameter 'fusion.query' has a non-finite value", id="parameter-nan"),
        pytest.param(lambda doc: doc["state"]["mean"].__setitem__(1, float("nan")),
                     "checkpoint key 'state.mean' has a non-finite value", id="mean-nan"),
        pytest.param(lambda doc: doc["state"]["std"].__setitem__(2, float("inf")),
                     "checkpoint key 'state.std' has a non-finite value", id="std-inf"),
        pytest.param(lambda doc: doc["state"]["std"].__setitem__(0, 0.0),
                     "checkpoint key 'state.std' has a value <= 0", id="std-zero"),
        pytest.param(lambda doc: doc["state"]["daily_average"]["2"].__setitem__(5, float("-inf")),
                     "checkpoint key 'state.daily_average.2' has a non-finite value", id="daily-inf"),
        pytest.param(lambda doc: doc["state"]["std"].pop(),
                     "checkpoint key 'state.std' has 2 entries, 'state.mean' has 3", id="std-short"),
        pytest.param(lambda doc: doc["state"].__setitem__("std", 1.0),
                     "checkpoint key 'state.std' must be a flat list of numbers", id="std-scalar"),
        pytest.param(lambda doc: doc["state"].__setitem__("mean", [[m] for m in doc["state"]["mean"]]),
                     "checkpoint key 'state.mean' must be a flat list of numbers", id="mean-nested"),
        pytest.param(lambda doc: doc["state"]["daily_average"].__setitem__(
                         "0", [[y] for y in doc["state"]["daily_average"]["0"]]),
                     "checkpoint key 'state.daily_average.0' must be a flat list of numbers", id="daily-nested"),
        pytest.param(lambda doc: doc["state"]["daily_average"].__setitem__("0", "abc"),
                     "checkpoint key 'state.daily_average.0' must be a flat list of numbers", id="daily-text"),
        pytest.param(lambda doc: doc["parameters"][-3].__setitem__(1, [5]),
                     "checkpoint key 'parameters' entry 34 is [\"fusion.query\", [5]], "
                     "expected [\"fusion.query\", [4]]", id="index-shape"),
        pytest.param(lambda doc: doc["parameters"].pop(-3),
                     "checkpoint key 'parameters' entry 34 is [\"output_head.0.weight\", [4, 2]], "
                     "expected [\"fusion.query\", [4]]", id="index-missing"),
        pytest.param(lambda doc: doc.__setitem__("theta", 1.5),
                     "checkpoint key 'theta' is not a base64 string", id="theta-number"),
        pytest.param(lambda doc: doc.__setitem__("theta", doc["theta"][:-4] + "A*A="),
                     "checkpoint key 'theta' is not a base64 string", id="theta-invalid"),
        pytest.param(lambda doc: encode_theta(doc, theta_slices(doc)[0][:-1]),
                     "checkpoint key 'theta' holds 12248 bytes, expected 12256 (1532 float64 values)",
                     id="theta-short"),
        pytest.param(lambda doc: encode_theta(doc, np.append(theta_slices(doc)[0], 0.5)),
                     "checkpoint key 'theta' holds 12264 bytes, expected 12256 (1532 float64 values)",
                     id="theta-long"),
    ])
    def test_non_finite_value_is_runtime_error(self, tmp_path, data_dir, trained_dir, capsys,
                                               command, edit, message):
        doc = json.loads((trained_dir / "checkpoint.json").read_text())
        edit(doc)
        broken = tmp_path / "nonfinite.json"
        broken.write_text(json.dumps(doc))
        assert run_on(tmp_path, command, data_dir, broken, "out") == 2
        assert f"{broken}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCorrelate:
    def test_prints_dominant_measurement_shares(self, tmp_path, capsys):
        # the planted pair: speed correlation dominates the first half of the
        # day, trend correlation the second
        dataset = gd.generate_synthetic(gd.GeneratorConfig(n_roads=2, intervals=(5,), days=40), seed=1)
        dataset.series[0].values, dataset.series[1].values = (
            s.values for s in planted.generate_planted_pair(seed=13, days=40)[:2])
        paths = [tmp_path / name for name in ("graph.json", "series.csv", "context.csv")]
        gd.write_dataset(dataset, *paths)
        config = write_config(tmp_path / "corr.json", graph_path=str(paths[0]), series_path=str(paths[1]),
                              context_path=str(paths[2]), output_dir=str(tmp_path / "corr"),
                              road_a=0, road_b=1, window_days=30, measurements=["speed", "trend"])
        assert cli.main(["correlate", "--config", config]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == str(tmp_path / "corr" / "correlations.csv")
        assert [line.split()[:2] for line in lines[1:]] == [["dominant", "speed"], ["dominant", "trend"]]
        shares = [float(line.split()[2]) for line in lines[1:]]
        assert min(shares) >= 0.2 and sum(shares) == pytest.approx(1.0, abs=1e-3)
        loaded = gd.load_dataset(*paths)
        report = an.multifold_correlation_report(*loaded.series, 5, 5, ["speed", "trend"], window_days=30)
        assert lines[1:] == [f"dominant {m} {v:.4f}" for m, v in an.dominant_measurement_shares(report).items()]
        assert [p.name for p in (tmp_path / "corr").iterdir()] == ["correlations.csv"]

    def test_writes_table(self, tmp_path, data_dir):
        config = write_config(
            tmp_path / "corr.json",
            graph_path=str(data_dir / "graph.json"),
            series_path=str(data_dir / "series.csv"),
            context_path=str(data_dir / "context.csv"),
            output_dir=str(tmp_path / "corr"),
            road_a=0, road_b=1, window_days=7,
            measurements=["speed", "trend", "deviation"],
        )
        assert cli.main(["correlate", "--config", config]) == 0
        lines = (tmp_path / "corr" / "correlations.csv").read_text().splitlines()
        assert lines[0] == "time_slot,measurement,correlation"
        measurements = {line.split(",")[1] for line in lines[1:]}
        assert measurements == {"speed", "trend", "deviation"}
        for line in lines[1:]:
            field = line.split(",")[2]
            if field:
                assert -1.0 <= float(field) <= 1.0

    @pytest.mark.parametrize("key, value, message", [
        ("window_days", "0", "window_days must be >= 1, got 0"),
        ("measurements", "[]", "measurements must name at least one measurement"),
        ("measurements", '["speed","speed"]', "measurements lists 'speed' twice"),
    ])
    def test_table_less_request_is_usage_error_before_reading(self, tmp_path, capsys, key, value,
                                                              message):
        missing = tmp_path / "nowhere"
        config = write_config(
            tmp_path / "corr.json",
            graph_path=str(missing / "graph.json"),
            series_path=str(missing / "series.csv"),
            context_path=str(missing / "context.csv"),
            output_dir=str(tmp_path / "corr"),
            road_a=0, road_b=1, window_days=7,
        )
        assert cli.main(["correlate", "--config", config]) == 2  # the files are absent
        capsys.readouterr()
        assert cli.main(["correlate", "--config", config, "--set", f"{key}={value}"]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "corr").exists()

    @pytest.mark.parametrize("overrides, message", [
        (["wall_start=-5"], "wall_start must be >= 0, got -5"),
        (["wall_start=-5", "wall_end=100000000"], "wall_start must be >= 0, got -5"),
        (["wall_start=30000", "wall_end=20000"], "wall_start 30000 must be below wall_end 20000"),
        (["wall_end=0"], "wall_start 0 must be below wall_end 0"),
    ])
    def test_empty_wall_range_is_usage_error_before_reading(self, tmp_path, capsys, overrides, message):
        missing = tmp_path / "nowhere"
        config = write_config(
            tmp_path / "corr.json",
            graph_path=str(missing / "graph.json"),
            series_path=str(missing / "series.csv"),
            context_path=str(missing / "context.csv"),
            output_dir=str(tmp_path / "corr"),
            road_a=0, road_b=1, window_days=7,
        )
        sets = [arg for override in overrides for arg in ("--set", override)]
        assert cli.main(["correlate", "--config", config, *sets]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "corr").exists()

    def test_wall_end_within_the_history_window_is_usage_error_before_reading(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        config = write_config(
            tmp_path / "corr.json",
            graph_path=str(missing / "graph.json"),
            series_path=str(missing / "series.csv"),
            context_path=str(missing / "context.csv"),
            output_dir=str(tmp_path / "corr"),
            road_a=0, road_b=1, window_days=7,
        )
        assert cli.main(["correlate", "--config", config, "--set", "wall_end=100"]) == 1
        assert ("wall_end 100 ends before any minute with window_days=7 days of history: "
                "the first is minute 10080") in capsys.readouterr().err
        assert not (tmp_path / "corr").exists()

    def test_wall_range_between_shared_slots_is_usage_error(self, tmp_path, capsys, data_dir):
        graph = gd.load_graph(data_dir / "graph.json")
        stride = math.lcm(graph.nodes[0].interval_minutes, graph.nodes[1].interval_minutes)
        start, end = 7 * gd.MINUTES_PER_DAY + 1, 7 * gd.MINUTES_PER_DAY + stride - 1
        config = write_config(
            tmp_path / "corr.json",
            graph_path=str(data_dir / "graph.json"),
            series_path=str(data_dir / "series.csv"),
            context_path=str(data_dir / "context.csv"),
            output_dir=str(tmp_path / "corr"),
            road_a=0, road_b=1, window_days=7, wall_start=start, wall_end=end,
        )
        assert cli.main(["correlate", "--config", config]) == 1
        assert (f"wall_start {start} to wall_end {end} holds no minute that is a multiple of {stride}, "
                "the shared stride") in capsys.readouterr().err
        assert not (tmp_path / "corr").exists()

    def test_wall_range_inside_the_data_span(self, tmp_path, capsys, data_dir):
        span = 16 * gd.MINUTES_PER_DAY  # generate_args' days
        config = write_config(
            tmp_path / "corr.json",
            graph_path=str(data_dir / "graph.json"),
            series_path=str(data_dir / "series.csv"),
            context_path=str(data_dir / "context.csv"),
            output_dir=str(tmp_path / "corr"),
            road_a=0, road_b=1, window_days=7,
        )
        assert cli.main(["correlate", "--config", config, "--set", f"wall_end={span + 1}"]) == 1
        assert f"wall_end {span + 1} is past the data span of {span} minutes" in capsys.readouterr().err
        assert cli.main(["correlate", "--config", config, "--set", f"wall_start={span}"]) == 1
        assert f"wall_start {span} must be below wall_end {span}" in capsys.readouterr().err
        assert not (tmp_path / "corr").exists()
        assert cli.main(["correlate", "--config", config, "--set", f"wall_end={span}"]) == 0
        full = (tmp_path / "corr" / "correlations.csv").read_bytes()
        assert cli.main(["correlate", "--config", config]) == 0
        assert (tmp_path / "corr" / "correlations.csv").read_bytes() == full

    def test_seed_flag_overrides_config(self, tmp_path):
        # --set and --seed are honored: a different seed changes the dataset
        assert cli.main(generate_args(tmp_path, "s1", seed=1)) == 0
        args = generate_args(tmp_path, "s2", seed=1)
        assert cli.main(args + ["--seed", "2"]) == 0
        assert (tmp_path / "s1" / "series.csv").read_bytes() != \
            (tmp_path / "s2" / "series.csv").read_bytes()

    def test_set_override(self, tmp_path):
        args = generate_args(tmp_path, "o1")
        assert cli.main(args + ["--set", "days=8"]) == 0
        dataset = gd.load_dataset(tmp_path / "o1" / "graph.json",
                                  tmp_path / "o1" / "series.csv",
                                  tmp_path / "o1" / "context.csv")
        assert dataset.days == 8


def with_byte(source, target, offset, byte=0xE9):
    """Copy ``source`` to ``target`` with the byte at ``offset`` replaced."""
    data = bytearray(source.read_bytes())
    data[offset] = byte
    target.write_bytes(bytes(data))
    return target


class TestNonUtf8Input:
    @pytest.mark.parametrize("name", ["graph.json", "series.csv", "context.csv"])
    def test_data_file_is_runtime_error(self, tmp_path, data_dir, capsys, name):
        bad = tmp_path / "latin1_data"
        bad.mkdir()
        for other in ("graph.json", "series.csv", "context.csv"):
            (bad / other).write_bytes((data_dir / other).read_bytes())
        with_byte(data_dir / name, bad / name, 62)
        assert cli.main(train_args(tmp_path, bad, "latin1_run")) == 2
        err = capsys.readouterr().err
        assert f"error: {bad / name}: not UTF-8 text: byte 0xe9 at offset 62" in err, err
        assert not (tmp_path / "latin1_run").exists()

    def test_checkpoint_is_runtime_error(self, tmp_path, data_dir, trained_dir, capsys):
        broken = with_byte(trained_dir / "checkpoint.json", tmp_path / "latin1.json", 40)
        assert run_on(tmp_path, "evaluate", data_dir, broken, "latin1_eval") == 2
        assert f"error: {broken}: not UTF-8 text: byte 0xe9 at offset 40" in capsys.readouterr().err

    def test_config_file_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "gen.json"
        write_config(config, n_roads=2, output_dir=str(tmp_path / "gen"))
        with_byte(config, config, 5)
        assert cli.main(["generate", "--config", str(config)]) == 1
        assert f"error: {config}: not UTF-8 text: byte 0xe9 at offset 5" in capsys.readouterr().err
        assert not (tmp_path / "gen").exists()


def readme_outputs_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "readme_outputs.py"
    spec = importlib.util.spec_from_file_location("readme_outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_readme_outputs_against_lists_every_differing_file(monkeypatch, capsys):
    tool = readme_outputs_tool()
    src = str(Path(cli.__file__).resolve().parents[1])

    def checkpoint(theta, index=None):
        doc = {"format_version": 4, "state": {"mean": [0.5]}}
        if index is not None:
            doc["parameters"] = index
        return json.dumps(encode_theta(doc, theta), indent=1, sort_keys=True).encode()

    # base64 text holds digit runs; only decoded do the two blocks compare value by value
    theta = np.random.default_rng(0).normal(size=40)
    nudged = theta.copy()
    nudged[17] *= 1 + 1e-13
    # indexed checkpoints pair theta by name: the same parameters listed in
    # another order compare equal, and a parameter only one lists is named
    index = [["w", [2, 3]], ["b", [3]], ["q", [1]]]
    parts = {name: theta[start:stop] for name, start, stop in (("w", 0, 6), ("b", 6, 9), ("q", 9, 10))}
    reordered = [index[2], index[0], index[1]]
    runs = iter([{"a.csv": b"x,1\n", "b.json": b"[0.5, 2]", "c.csv": b"3", "e.csv": b"y,1.0,7\n",
                  "f.json": checkpoint(theta), "g.json": checkpoint(theta[:10], index),
                  "h.json": checkpoint(theta[:10], index)},
                 {"a.csv": b"x,1\n", "b.json": b"[0.5]", "d.csv": b"4", "e.csv": b"y,1.0000000000001,7\n",
                  "f.json": checkpoint(nudged),
                  "g.json": checkpoint(np.concatenate([parts[name] for name, _ in reordered]), reordered),
                  "h.json": checkpoint(np.concatenate([parts["w"], parts["b"], [7.0, 8.0]]),
                                       index[:2] + [["z", [2]]])}])
    monkeypatch.setattr(tool, "outputs", lambda tree: next(runs))
    assert tool.main([src, "--against", src]) == 1
    short = {content: tool.digest(content)[:8] for content in (b"[0.5, 2]", b"[0.5]", b"3", b"4")}
    lines = capsys.readouterr().out.splitlines()[7:]  # after the first tree's 7 digests
    assert lines[:3] == [
        f"differs: b.json  {short[b'[0.5, 2]']} != {short[b'[0.5]']}",
        f"differs: c.csv  {short[b'3']} != absent",
        f"differs: d.csv  absent != {short[b'4']}",
    ]
    # planted 1e-13 changes: same count of numbers, so each line says by how much
    for line, name, count in zip(lines[3:], ("e.csv", "f.json"), (2, 42)):
        planted = re.fullmatch(rf"differs: {re.escape(name)}  \w{{8}} != \w{{8}}  "
                               rf"\(largest relative difference (\S+) over {count} numbers\)", line)
        assert planted and float(planted[1]) == pytest.approx(1e-13, rel=0.01), line
    assert re.fullmatch(r"differs: g\.json  \w{8} != \w{8}  \(largest relative difference 0\.0e\+00 over 12 numbers\)",
                        lines[5]), lines[5]
    assert re.fullmatch(r"differs: h\.json  \w{8} != \w{8}  \(largest relative difference 0\.0e\+00 over 11 numbers\)"
                        r"  \(parameters: q only in the first tree, z only in the other tree\)", lines[6]), lines[6]
    assert len(lines) == 7
    same = {"a.csv": b"x,1\n"}
    monkeypatch.setattr(tool, "outputs", lambda tree: same)
    assert tool.main([src, "--against", src]) == 0
    assert tool.main([src]) == 0
