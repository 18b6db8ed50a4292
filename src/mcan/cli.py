"""Command-line pipeline: generate, correlate, train, evaluate, predict.

One JSON config file per run plus command-line overrides; every command is
reproducible from its config and seed, writes only under the output directory,
and never mutates its inputs.  Exit codes: 0 success, 1 usage/config error,
2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import analysis as an
from . import graphdata as gd
from . import model as md
from . import trainer as tr
from .errors import ConfigError, McanError, SchemaError

GENERATOR_KEYS = {f.name: gd.field_kind(f) for f in fields(gd.GeneratorConfig)}
TRAIN_KEYS = {f.name: gd.field_kind(f) for f in fields(tr.TrainConfig)}
# JSON null leaves a key unset only where unset means something: a TrainConfig
# field that defaults to None, or evaluate's sample cap
NULLABLE_KEYS = {f.name for f in fields(tr.TrainConfig) if f.default is None} | {"max_eval_samples"}
PATH_KEYS = {"graph_path": str, "series_path": str, "context_path": str,
             "checkpoint_path": str, "output_dir": str}
COMMAND_KEYS = {
    "generate": {**GENERATOR_KEYS, "seed": int, "output_dir": str},
    "correlate": {
        **PATH_KEYS, "road_a": int, "road_b": int,
        "measurements": list, "window_days": int, "wall_start": int, "wall_end": int,
    },
    "train": {**PATH_KEYS, **TRAIN_KEYS},
    "evaluate": {**PATH_KEYS, "seed": int, "eval_split": str, "max_eval_samples": int},
    "predict": {**PATH_KEYS, "predict_count": int, "predict_road": int},
}
REQUIRED_KEYS = {
    "generate": ("n_roads", "output_dir"),
    "correlate": ("graph_path", "series_path", "context_path", "output_dir",
                  "road_a", "road_b", "window_days"),
    "train": ("graph_path", "series_path", "context_path", "output_dir"),
    "evaluate": ("graph_path", "series_path", "context_path", "checkpoint_path", "output_dir"),
    "predict": ("graph_path", "series_path", "context_path", "checkpoint_path", "output_dir"),
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(gd.read_text(path, ConfigError))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"--set expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def _typed(key: str, value, kind: type):
    """``value`` as a ``kind`` (integral numbers count as ints, booleans as
    neither ints nor floats), or a ConfigError naming ``key``."""
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if kind is int and isinstance(value, (int, float)) and not isinstance(value, bool) \
            and float(value).is_integer():
        return int(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
    return value


def _validated(command: str, config: dict) -> dict:
    allowed = COMMAND_KEYS[command]
    unknown = sorted(set(config) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown config keys for {command!r}: {', '.join(unknown)}; "
            f"valid keys: {', '.join(sorted(allowed))}"
        )
    for key in REQUIRED_KEYS[command]:
        if key not in config:
            raise ConfigError(f"{command!r} requires config key {key!r}")
    for key, kind in allowed.items():
        if key not in config or (config[key] is None and key in NULLABLE_KEYS):
            continue
        config[key] = _typed(key, config[key], kind)
        if key == "intervals":
            config[key] = [_typed(key, v, int) for v in config[key]]
    if config.get("seed", 0) < 0:
        raise ConfigError(f"seed must be >= 0, got {config['seed']}")
    return config


def _out_dir(config: dict) -> Path:
    out = Path(config["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dataset(config: dict) -> gd.TrafficDataset:
    return gd.load_dataset(config["graph_path"], config["series_path"], config["context_path"])


def _given(config: dict, keys: dict) -> dict:
    """The entries of ``config`` named in ``keys``, JSON lists as tuples, as
    keyword arguments for the config dataclass that ``keys`` was read from."""
    return {key: tuple(config[key]) if isinstance(config[key], list) else config[key]
            for key in keys if key in config}


def _known_roads(dataset: gd.TrafficDataset, roads):
    """``roads``, or a ConfigError naming the first that is not in the graph."""
    for road in roads:
        if not 0 <= road < dataset.graph.size:
            raise ConfigError(f"road {road} is not in the graph (N={dataset.graph.size})")
    return roads


def cmd_generate(config: dict) -> int:
    gen = gd.GeneratorConfig(**_given(config, GENERATOR_KEYS))
    dataset = gd.generate_synthetic(gen, seed=config.get("seed", 0))
    out = _out_dir(config)
    paths = (out / "graph.json", out / "series.csv", out / "context.csv")
    gd.write_dataset(dataset, *paths)
    for path in paths:
        print(path)
    return 0


def cmd_correlate(config: dict) -> int:
    wall_range = None
    if "wall_start" in config or "wall_end" in config:
        wall_range = (config.get("wall_start", 0), config.get("wall_end"))
    measurements = an.check_request(config.get("measurements", an.MEASUREMENTS), config["window_days"],
                                    wall_range)
    dataset = _dataset(config)
    road_a, road_b = _known_roads(dataset, (config["road_a"], config["road_b"]))
    report = an.multifold_correlation_report(
        dataset.series[road_a],
        dataset.series[road_b],
        dataset.graph.nodes[road_a].interval_minutes,
        dataset.graph.nodes[road_b].interval_minutes,
        measurements,
        config["window_days"],
        wall_range,
    )
    out = _out_dir(config) / "correlations.csv"
    an.write_correlation_table(out, report)
    print(out)
    for measurement, share in an.dominant_measurement_shares(report).items():
        print(f"dominant {measurement} {share:.4f}")
    return 0


def _graph_echo(dataset: gd.TrafficDataset) -> dict:
    """The dataset's edges and span, as ``train`` records them in the checkpoint."""
    return {"edges": sorted([a, b] for a, b in dataset.graph.edges),
            "span_minutes": dataset.span_minutes}


def cmd_train(config: dict) -> int:
    train_config = tr.TrainConfig(**_given(config, TRAIN_KEYS))
    train_config.validate()  # fail fast, before the dataset is read
    dataset = _dataset(config)
    result = tr.train(dataset, train_config)
    # the run keys the model config does not hold; the seed is the fold seed
    echo = {key: getattr(train_config, key) for key in TRAIN_KEYS
            if not hasattr(result.model_config, key)}
    echo.update(fold_seed=echo.pop("seed"), fold_index=result.fold.index, **_graph_echo(dataset))
    out = _out_dir(config)
    checkpoint = out / "checkpoint.json"
    md.save_checkpoint(checkpoint, result.params, result.scaler.means, result.scaler.stds,
                       result.ybar, extra_config=echo)
    history = out / "loss_history.csv"
    lines = ["epoch,loss"] + [f"{e + 1},{repr(v)}" for e, v in enumerate(result.history)]
    history.write_text("\n".join(lines) + "\n")
    print(checkpoint)
    print(history)
    print(f"final training loss {result.history[-1]:.6g} after {result.adam_steps} steps")
    trained = {dataset.graph.nodes[road].interval_minutes for road, _ in result.fold.train}
    for minutes in sorted({node.interval_minutes for node in dataset.graph.nodes} - trained):
        print(f"interval class {minutes} min: no training sample")
    return 0


def _fitting_checkpoint(config: dict, dataset: gd.TrafficDataset):
    """``md.load_checkpoint`` of the configured path, refused before any
    forward unless its road count, every road's slots per day (the length of
    its daily averages), the context code counts, the edges and the span
    match ``dataset``."""
    path = config["checkpoint_path"]
    params, means, stds, ybar, cfg = md.load_checkpoint(path)
    if len(means) != dataset.graph.size:
        raise SchemaError(f"{path}: checkpoint was trained on {len(means)} roads but the dataset "
                          f"has {dataset.graph.size}")
    for road, node in enumerate(dataset.graph.nodes):
        if len(ybar[road]) != node.slots_per_day:
            raise SchemaError(f"{path}: road {road} has {len(ybar[road])} daily-average slots in the "
                              f"checkpoint but {node.slots_per_day} slots per day in the dataset")
    for key in ("weather_code_count", "road_type_count"):
        if getattr(params.config, key) != getattr(dataset, key):
            raise SchemaError(f"{path}: checkpoint key 'config.{key}' is {getattr(params.config, key)} "
                              f"but the dataset has {getattr(dataset, key)}")
    for key, value in _graph_echo(dataset).items():
        if key not in cfg:
            raise SchemaError(f"{path}: checkpoint is missing key 'config.{key}'")
        if cfg[key] != value:
            raise SchemaError(f"{path}: checkpoint key 'config.{key}' is {cfg[key]} "
                              f"but the dataset has {value}")
    return params, means, stds, ybar, cfg


def _rebuild_fold(dataset: gd.TrafficDataset, params: md.McanParams, cfg: dict,
                  path="checkpoint") -> tr.Fold:
    view = md.build_view(dataset)
    folds, seed, index = (md.config_entry(cfg, key, int, path)
                          for key in ("folds", "fold_seed", "fold_index"))
    shuffled = md.config_entry(cfg, "shuffled_folds", bool, path)
    if folds < 2:
        raise SchemaError(f"{path}: checkpoint key 'config.folds' must be >= 2, got {folds}")
    if seed < 0:
        raise SchemaError(f"{path}: checkpoint key 'config.fold_seed' must be >= 0, got {seed}")
    if not 0 <= index < folds:
        raise SchemaError(f"{path}: checkpoint key 'config.fold_index' must be in [0, {folds}), got {index}")
    return tr.kfold_split(view, params.config, folds, seed, shuffled, [index])[0]


def cmd_evaluate(config: dict) -> int:
    split_name = config.get("eval_split", "test")
    if split_name not in ("test", "train"):
        raise ConfigError(f"eval_split must be 'test' or 'train', got {split_name!r}")
    cap = config.get("max_eval_samples")
    if cap is not None and cap < 1:
        raise ConfigError(f"max_eval_samples must be >= 1, got {cap}")
    dataset = _dataset(config)
    params, means, stds, ybar, cfg = _fitting_checkpoint(config, dataset)
    fold = _rebuild_fold(dataset, params, cfg, config["checkpoint_path"])
    samples = fold.test if split_name == "test" else fold.train
    if cap is not None and len(samples) > cap:
        keep = np.random.default_rng(config.get("seed", 0)).choice(len(samples), cap, replace=False)
        samples = np.asarray(samples)[np.sort(keep)]
    view = md.build_view(dataset, means=means, stds=stds, ybar=ybar)
    report = tr.evaluate(params, view, samples)
    out = _out_dir(config) / "metrics.csv"
    lines = ["metric,horizon_step,value"]
    for name, value in (("mae", report.mae), ("mape", report.mape_pct), ("rmse", report.rmse)):
        lines.append(f"{name},all,{repr(value)}")
    for step in range(params.config.horizon):
        lines.append(f"mae,{step + 1},{repr(float(report.per_step_mae[step]))}")
        lines.append(f"rmse,{step + 1},{repr(float(report.per_step_rmse[step]))}")
    out.write_text("\n".join(lines) + "\n")
    print(out)
    print(
        f"{split_name} split: {report.sample_count} samples, "
        f"MAE {report.mae:.4f} km/h, MAPE {report.mape_pct:.2f}%, RMSE {report.rmse:.4f} km/h"
    )
    return 0


def cmd_predict(config: dict) -> int:
    count = config.get("predict_count", 1)
    if count < 1:
        raise ConfigError(f"predict_count must be >= 1, got {count}")
    dataset = _dataset(config)
    roads = _known_roads(dataset, [config["predict_road"]] if "predict_road" in config
                         else range(dataset.graph.size))
    params, means, stds, ybar, _ = _fitting_checkpoint(config, dataset)
    view = md.build_view(dataset, means=means, stds=stds, ybar=ybar)
    lines = ["road_id,t,step,speed_kmh"]
    for road in roads:
        times = md.eligible_times(view, params.config, road)[-count:]
        if len(times) == 0:
            raise McanError(f"road {road} has no eligible prediction times")
        truth, preds = tr.predict_samples(params, view, np.column_stack([np.full(len(times), road), times]))
        for row, t in enumerate(times):
            for step in range(params.config.horizon):
                lines.append(f"{road},{int(t)},{step + 1},{repr(float(preds[row, step]))}")
    out = _out_dir(config) / "predictions.csv"
    out.write_text("\n".join(lines) + "\n")
    print(out)
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "correlate": cmd_correlate,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "predict": cmd_predict,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcan",
        description="Traffic speed prediction on road graphs with heterogeneous sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} step")
        p.add_argument("--config", help="JSON config file for this run")
        if "seed" in COMMAND_KEYS[name]:
            p.add_argument("--seed", type=int, help="override the config seed")
        if "ablations" in COMMAND_KEYS[name]:
            p.add_argument("--ablate", action="append", default=[],
                           help=f"ablation flag ({', '.join(md.ABLATION_NAMES)}); repeatable")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a single config key; repeatable")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        config = _load_config(args.config)
        for item in args.set:
            key, value = _parse_override(item)
            config[key] = value
        if getattr(args, "seed", None) is not None:
            config["seed"] = args.seed
        if getattr(args, "ablate", None):
            existing = list(config.get("ablations", []))
            config["ablations"] = existing + [a for a in args.ablate if a not in existing]
        config = _validated(args.command, config)
        return COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (McanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
