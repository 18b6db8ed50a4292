"""Workload preparation and measurement for the mcan benchmark.

``run.py`` starts this file in fresh processes, one after the other:

    python3 perfbench/workloads.py prepare --workload W --seed N --dir D [--smoke]
    python3 perfbench/workloads.py measure --workload W --seed N --dir D \
        --seconds S --trace 0|1 [--smoke]

``prepare`` generates the dataset files (and, for evaluation, the checkpoint)
from the seed; nothing in it is timed.  ``measure`` drives the program's own
entry points on those files in a closed loop: one caller, one process, the
next iteration only after the previous one returned.  It prints one JSON
result as its last line of output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
# The checkout's own program, never an installed copy.
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import mcan  # noqa: E402
from mcan import cli  # noqa: E402
from mcan import graphdata as gd  # noqa: E402
from mcan import model as md  # noqa: E402
from mcan import trainer as tr  # noqa: E402
from mcan.errors import McanError  # noqa: E402

import tracing  # noqa: E402

if Path(mcan.__file__).resolve().parent != ROOT / "src" / "mcan":
    raise SystemExit(f"benchmark: imported mcan from {mcan.__file__}, not from the checkout")

# The README ``gen.json`` shape (the seed comes from the benchmark).
GENERATOR = dict(
    n_roads=10, edge_density=0.4, intervals=(5, 10, 15), days=28,
    coupling=0.5, coupling_lag_minutes=20, noise=4.0, obs_noise=1.0,
    weekly_amplitude=3.0, weather_impact=1.0,
)
# The README ``train.json`` model and optimizer settings.
README_TRAIN = dict(
    batch_size=128, learning_rate=0.004, dropout=0.1, horizon=6, folds=5,
    hidden_size=16, lstm_layers=1, fnn_layers=2, filters=4,
)
# Smoke size: the same code paths on a graph and history small enough that
# all workloads finish in seconds.
SMOKE_GENERATOR = {**GENERATOR, "n_roads": 4, "days": 16}
SMOKE_TRAIN = dict(max_train_samples=32, batch_size=16, hidden_size=4, filters=2)

DATA_FILES = ("graph.json", "series.csv", "context.csv")
# Forward and backward work per sample grow with the road's hop neighbours,
# and the random graph alone moves their total by about 15 % between seeds
# (quartile spread), more than a regression bound.  So the input size is
# fixed: the generator seed is the first of ``1000 * seed + k`` whose graph
# has a neighbour load (see ``neighbour_load``) within 2 % of a typical value
# (the median over generator seeds is about 16750); everything else varies
# with the seed.
NEIGHBOUR_LOAD = 16900
NEIGHBOUR_LOAD_TOLERANCE = 0.02


@dataclass(frozen=True)
class Workload:
    kind: str  # "train" or "eval"
    train: dict = field(default_factory=dict)  # TrainConfig fields

    def train_config(self, seed: int, smoke: bool) -> tr.TrainConfig:
        fields = {**self.train, **(SMOKE_TRAIN if smoke else {})}
        return tr.TrainConfig(seed=seed, **fields)


# Training sizes keep one training call to a few seconds, so a run repeats it
# (set-up included) several times; two epochs let the loss check compare
# the last epoch with the first.  train-paper keeps every other TrainConfig
# default but takes the README learning rate: at the default 1e-4 two short
# epochs do not reliably lower the loss, and the rate does not change the
# work a step does.
WORKLOADS = {
    "train-readme": Workload("train", {**README_TRAIN, "epochs": 2, "max_train_samples": 640}),
    "train-paper": Workload("train", {"epochs": 2, "max_train_samples": 256,
                                      "learning_rate": README_TRAIN["learning_rate"]}),
    "eval-readme": Workload("eval", README_TRAIN),
}
EVAL_PROBES = 16  # samples re-predicted one per call
EVAL_COMPARE_PER_ROAD = 64  # samples per road compared loaded vs in-memory


def data_paths(work: Path) -> list[Path]:
    return [work / name for name in DATA_FILES]


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def fold_echo(config: tr.TrainConfig) -> dict:
    """The checkpoint's config echo that ``mcan evaluate`` rebuilds the fold from."""
    return {
        "folds": config.folds,
        "fold_index": config.folds - 1 if config.fold_index is None else config.fold_index,
        "fold_seed": config.seed,
        "shuffled_folds": config.shuffled_folds,
    }


def in_memory_model(dataset: gd.TrafficDataset, config: tr.TrainConfig):
    """Untrained README-shape parameters, the held-out fold and its fitted view."""
    params = md.init_mcan(config.model_config(dataset), np.random.default_rng(config.seed))
    fold = cli._rebuild_fold(dataset, params, fold_echo(config))
    view, scaler = tr.fitted_view(dataset, fold)
    return params, fold, view, scaler


def neighbour_load(graph: gd.RoadGraph, hops: int = 2) -> int:
    """Samples per day times (1 + roads within ``hops``), summed over roads."""
    return sum(
        node.slots_per_day * (1 + sum(len(layer) for layer in gd.k_hop_neighbors(graph, r, hops)))
        for r, node in enumerate(graph.nodes)
    )


def generator_seed(seed: int) -> int:
    # The graph is drawn before the series, so a one-day dataset has the same graph.
    probe = gd.GeneratorConfig(**{**GENERATOR, "days": 1})
    for candidate in range(1000 * seed, 1000 * seed + 1000):
        load = neighbour_load(gd.generate_synthetic(probe, candidate).graph)
        if abs(load / NEIGHBOUR_LOAD - 1.0) <= NEIGHBOUR_LOAD_TOLERANCE:
            return candidate
    raise SystemExit(f"benchmark: no graph of the reference size for seed {seed}")


def prepare(name: str, seed: int, smoke: bool, work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    if smoke:
        dataset = gd.generate_synthetic(gd.GeneratorConfig(**SMOKE_GENERATOR), seed)
    else:
        dataset = gd.generate_synthetic(gd.GeneratorConfig(**GENERATOR), generator_seed(seed))
    files = data_paths(work)
    gd.write_dataset(dataset, *files)
    wl = WORKLOADS[name]
    if wl.kind == "eval":
        config = wl.train_config(seed, smoke)
        params, _, view, scaler = in_memory_model(gd.load_dataset(*files), config)
        md.save_checkpoint(work / "checkpoint.json", params, scaler.means, scaler.stds,
                           view.ybar, extra_config=fold_echo(config))
    fingerprint = {path.name: sha256(path) for path in files}
    (work / "fingerprint.json").write_text(json.dumps(fingerprint, indent=1) + "\n")


# ---------------------------------------------------------------------------
# Timed loops


class Tally:
    """Units (steps or requests) attempted and failed over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, exc: Exception) -> None:
        self.failed += 1
        self.errors.append(f"{type(exc).__name__}: {exc}")


def repeat(iterate, budget: float, minimum: int, recorder=None) -> list[dict]:
    """Call ``iterate`` until another call would overrun ``budget`` seconds."""
    records: list[dict] = []
    start = perf_counter()
    while True:
        # Each iteration starts from a collected heap, as a fresh process would.
        gc.collect()
        began = perf_counter()
        if recorder is not None:
            recorder.run = len(records)
        record = iterate(recorder)
        if record is None:  # the iteration failed; the tally has it
            break
        record["wall_s"] = perf_counter() - began
        records.append(record)
        typical = median(r["wall_s"] for r in records)
        if len(records) >= minimum and perf_counter() - start + typical > budget:
            return records
    return records


class TrainLoop:
    """One iteration: load the dataset files, train, write the checkpoint."""

    def __init__(self, wl: Workload, seed: int, smoke: bool, work: Path, tally: Tally):
        self.config = wl.train_config(seed, smoke)
        self.files = data_paths(work)
        self.checkpoint = work / "run" / "checkpoint.json"
        self.checkpoint.parent.mkdir(exist_ok=True)
        self.tally = tally
        self.last = None
        self.histories: list[list[float]] = []
        self.clock: tracing.StepClock | None = None

    def __call__(self, recorder) -> dict | None:
        first_unit = len(recorder.units) if recorder is not None else 0
        start = perf_counter()
        try:
            dataset = gd.load_dataset(*self.files)
            result = tr.train(dataset, self.config)
            md.save_checkpoint(
                self.checkpoint, result.params, result.scaler.means, result.scaler.stds,
                result.ybar, extra_config=fold_echo(self.config),
            )
        except McanError as exc:
            self.tally.attempted += len(self.clock.take()) + 1
            self.tally.fail(exc)
            return None
        end = perf_counter()
        steps = self.clock.take()
        self.tally.attempted += len(steps)
        self.last = result
        self.histories.append(list(result.history))
        samples = self.config.epochs * min(len(result.fold.train), self.config.max_train_samples)
        if recorder is not None:
            for unit in range(first_unit, len(recorder.units)):
                recorder.units[unit] = samples / len(steps)
        return {
            "run_s": end - start,
            "setup_s": steps[0][0] - start,
            "unit_s": [e - s for s, e in steps],
            "loop_s": steps[-1][1] - steps[0][0],
            "samples": samples,
            "checkpoint_bytes": self.checkpoint.stat().st_size,
        }

    def checks(self) -> dict[str, bool]:
        history = self.histories[0] if self.histories else []
        out = {
            "loss_final_finite": bool(history) and bool(np.isfinite(history[-1])),
            "loss_final_below_first_epoch": bool(history) and history[-1] < history[0],
            "same_seed_histories_identical": len(self.histories) >= 2
            and all(h == self.histories[0] for h in self.histories),
        }
        identical = self.last is not None
        if identical:
            params, means, stds, ybar, _ = md.load_checkpoint(self.checkpoint)
            saved = dict(md.named_parameters(self.last.params))
            identical = all(np.array_equal(p.data, saved[name].data)
                            for name, p in md.named_parameters(params))
            identical = identical and np.array_equal(means, self.last.scaler.means) \
                and np.array_equal(stds, self.last.scaler.stds) \
                and all(np.array_equal(a, b) for a, b in zip(ybar, self.last.ybar))
        out["checkpoint_round_trip_bit_identical"] = bool(identical)
        return out

    def extra(self) -> dict:
        if self.last is None:
            return {}
        return {"loss_final": {"value": self.last.history[-1], "unit": "loss"},
                "loss_history": self.histories[0]}


class EvalLoop:
    """One iteration: load files and checkpoint, rebuild the held-out fold as
    ``mcan evaluate`` does, then one request per road through
    ``predict_samples`` and metrics over the whole fold."""

    def __init__(self, wl: Workload, seed: int, smoke: bool, work: Path, tally: Tally):
        self.config = wl.train_config(seed, smoke)
        self.files = data_paths(work)
        self.checkpoint = work / "checkpoint.json"
        self.tally = tally
        self.last = None

    def __call__(self, recorder) -> dict | None:
        start = perf_counter()
        dataset = gd.load_dataset(*self.files)
        params, means, stds, ybar, cfg = md.load_checkpoint(self.checkpoint)
        fold = cli._rebuild_fold(dataset, params, cfg)
        view = md.build_view(dataset, means=means, stds=stds, ybar=ybar)
        setup_end = perf_counter()
        by_road: dict[int, list] = {}
        for sample in fold.test:
            by_road.setdefault(sample[0], []).append(sample)
        unit_s, truth, preds, done = [], [], [], []
        for road in sorted(by_road):
            request = by_road[road]
            self.tally.attempted += 1
            if recorder is not None:
                recorder.begin_unit(len(request))
            began = perf_counter()
            try:
                t, p = tr.predict_samples(params, view, request)
            except McanError as exc:
                self.tally.fail(exc)
                continue
            finally:
                if recorder is not None:
                    recorder.end_unit()
            unit_s.append(perf_counter() - began)
            truth.append(t)
            preds.append(p)
            done.extend(request)
        if not preds:
            return None
        report = tr.compute_metrics(np.concatenate(truth), np.concatenate(preds))
        end = perf_counter()
        self.last = (params, view, fold, done, np.concatenate(preds), report)
        return {
            "run_s": end - start,
            "setup_s": setup_end - start,
            "unit_s": unit_s,
            "loop_s": sum(unit_s),
            "samples": len(done),
            "checkpoint_bytes": self.checkpoint.stat().st_size,
        }

    def checks(self) -> dict[str, bool]:
        if self.last is None:
            return {"predictions_made": False}
        params, view, fold, samples, preds, _ = self.last
        out = {"predictions_finite": bool(np.all(np.isfinite(preds)))}

        dataset = gd.load_dataset(*self.files)
        mem_params, _, mem_view, _ = in_memory_model(dataset, self.config)
        subset = []
        for road in sorted({s[0] for s in fold.test}):
            subset.extend([s for s in fold.test if s[0] == road][:EVAL_COMPARE_PER_ROAD])
        _, loaded = tr.predict_samples(params, view, subset)
        _, in_memory = tr.predict_samples(mem_params, mem_view, subset)
        out["loaded_equals_in_memory_bitwise"] = bool(np.array_equal(loaded, in_memory))

        row_of = {s: i for i, s in enumerate(samples)}
        picks = np.linspace(0, len(samples) - 1, EVAL_PROBES).astype(int)
        close = True
        for i in sorted(set(picks.tolist())):
            _, single = tr.predict_samples(params, view, [samples[i]])
            batched = preds[row_of[samples[i]]]
            close = close and bool(np.all(np.abs(single[0] - batched) <= 1e-9 * np.abs(batched)))
        out["single_sample_matches_batched_1e-9"] = close
        return out

    def extra(self) -> dict:
        if self.last is None:
            return {}
        report = self.last[5]
        return {"eval_mae_kmh": {"value": report.mae, "unit": "km/h"}}


# ---------------------------------------------------------------------------
# Metrics


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the largest value when there are ten or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def samples_per_s(records: list[dict]) -> float:
    return sum(r["samples"] for r in records) / sum(r["loop_s"] for r in records)


def end_to_end(records: list[dict], tally: Tally) -> tuple[dict, dict]:
    units = [u for r in records for u in r["unit_s"]]
    tail_s, tail_pct = tail(units)
    metrics = {
        "run_s": {"value": median(r["run_s"] for r in records), "unit": "s"},
        "setup_s": {"value": median(r["setup_s"] for r in records), "unit": "s"},
        "samples_per_s": {"value": samples_per_s(records), "unit": "1/s"},
        "step_ms_p50": {"value": 1e3 * median(units), "unit": "ms"},
        "step_ms_tail": {"value": 1e3 * tail_s, "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB",
        },
        "ops_failed_share": {"value": tally.failed / max(tally.attempted, 1), "unit": "share"},
    }
    detail = {
        "step_ms_tail_percentile": tail_pct,
        "units_timed": len(units),
        "iterations": len(records),
        "run_s_all": [r["run_s"] for r in records],
        "setup_s_all": [r["setup_s"] for r in records],
    }
    return metrics, detail


def per_layer(rec: tracing.Recorder, traced: list[dict], untraced: list[dict]) -> dict:
    tables = rec.totals()
    runs = range(len(traced))
    empty = {"time": {}, "self": {}, "calls": {}, "setup": {}}

    def unit_ms(span, kind="time"):
        return 1e3 * rec.unit_median(tables.get(span, empty)[kind])

    def unit_calls(span):
        return float(rec.unit_median(tables.get(span, empty)["calls"]))

    def setup_ms(span):
        setup = tables.get(span, empty)["setup"]
        return 1e3 * median(setup.get(r, 0.0) for r in runs)

    def unit_count(key):
        return float(median(rec.count(key, u) for u in rec.units)) if rec.units else 0.0

    nodes = sum(rec.count("autodiff.nodes", u) for u in rec.units)
    elements = sum(rec.count("autodiff.elements", u) for u in rec.units)
    samples = sum(rec.units.values())
    splits = rec.count("trainer.fold_splits", None)
    built = rec.count("trainer.folds_built", None)
    lstm = rec.lstm_ms_by_caller()
    values = {
        "graphdata.load_dataset_ms": (setup_ms("graphdata.load_dataset"), "ms"),
        "trainer.kfold_split_ms": (setup_ms("trainer.kfold_split"), "ms"),
        "trainer.folds_used_share": (splits / built if built else 0.0, "share"),
        "trainer.fitted_view_ms": (setup_ms("trainer.fitted_view"), "ms"),
        "trainer.sample_cache_ms": (setup_ms("trainer.sample_cache"), "ms"),
        "trainer.batch_groups_ms": (unit_ms("trainer.batch_groups"), "ms"),
        "trainer.predict_samples_self_ms": (unit_ms("trainer.predict_samples", "self"), "ms"),
        "model.assemble_group_ms": (unit_ms("model.assemble_group"), "ms"),
        "model.assemble_group_calls": (unit_calls("model.assemble_group"), "count"),
        "model.forward_group_ms": (unit_ms("model.forward_group"), "ms"),
        "model.forward_groups_per_step": (unit_calls("model.forward_group"), "count"),
        "model.loss_batch_ms": (unit_ms("model.loss_batch"), "ms"),
        "model.save_checkpoint_ms": (setup_ms("model.save_checkpoint"), "ms"),
        "model.checkpoint_bytes": (float(median(r["checkpoint_bytes"] for r in traced)), "B"),
        "model.load_checkpoint_ms": (setup_ms("model.load_checkpoint"), "ms"),
        "hsc.embed_ms": (unit_ms("hsc.embed"), "ms"),
        "hsc.gcn_ms": (unit_ms("hsc.gcn"), "ms"),
        "hsc.channel_self_ms": (unit_ms("hsc.channel", "self"), "ms"),
        "nnlayers.lstm_sequence_ms.hsc": (lstm["hsc"], "ms"),
        "nnlayers.lstm_sequence_ms.model": (lstm["model"], "ms"),
        "nnlayers.lstm_step_calls": (unit_count("nnlayers.lstm_step"), "count"),
        "nnlayers.fnn_forward_ms": (unit_ms("nnlayers.fnn_forward"), "ms"),
        "nnlayers.attention_fuse_ms": (unit_ms("nnlayers.attention_fuse"), "ms"),
        "autodiff.backward_ms": (unit_ms("autodiff.backward"), "ms"),
        "autodiff.adam_step_ms": (unit_ms("autodiff.adam_step"), "ms"),
        "autodiff.nodes_per_step": (unit_count("autodiff.nodes"), "count"),
        "autodiff.elements_per_node": (elements / nodes if nodes else 0.0, "count"),
        "autodiff.nodes_per_sample": (nodes / samples if samples else 0.0, "count"),
        "tracing.overhead_share": (1.0 - samples_per_s(traced) / samples_per_s(untraced), "share"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


def span_table(rec: tracing.Recorder) -> dict:
    """Per span name: median per-unit inclusive and self ms, calls per unit,
    and median set-up ms per run."""
    runs = sorted({span[5] for span in rec.spans})
    out = {}
    for name, tables in sorted(rec.totals().items()):
        out[name] = {
            "unit_ms": 1e3 * rec.unit_median(tables["time"]),
            "unit_self_ms": 1e3 * rec.unit_median(tables["self"]),
            "unit_calls": rec.unit_median(tables["calls"]),
            "setup_ms": 1e3 * median(tables["setup"].get(r, 0.0) for r in runs) if runs else 0.0,
        }
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_THREADS")},
        "machine": platform.machine(),
    }


def measure(name: str, seed: int, smoke: bool, work: Path, seconds: float, trace: bool,
            trace_out: Path | None) -> dict:
    wl = WORKLOADS[name]
    tally = Tally()
    loop = (TrainLoop if wl.kind == "train" else EvalLoop)(wl, seed, smoke, work, tally)
    # Training checks that two same-seed calls give the same losses.
    minimum = 2 if wl.kind == "train" else 1
    # A traced run first measures a third of its time untraced, for
    # tracing.overhead_share; the per-layer figures come from the rest.
    untraced_s = seconds / 3.0 if trace else seconds
    with tracing.Patches() as patches:
        if wl.kind == "train":
            loop.clock = tracing.StepClock()
            loop.clock.install(patches)
        untraced = repeat(loop, untraced_s, 1 if trace else minimum)
    recorder = tracing.Recorder() if trace else None
    traced = []
    if trace and untraced:
        with tracing.Patches() as patches:
            recorder.install(patches)
            if wl.kind == "train":
                # Installed last, so a step opens before its first span starts.
                loop.clock = tracing.StepClock(recorder)
                loop.clock.install(patches)
            traced = repeat(loop, seconds - untraced_s, 1, recorder)
    result = {"workload": name, "seed": seed, "trace": int(trace), "smoke": smoke}
    if untraced and (traced or not trace):
        metrics, detail = end_to_end(untraced, tally)
        result["end_to_end"] = metrics
        result["detail"] = detail
        if trace:
            result["per_layer"] = per_layer(recorder, traced, untraced)
            result["spans"] = span_table(recorder)
            result["absent"] = recorder.absent
            if trace_out is not None:
                trace_out.parent.mkdir(parents=True, exist_ok=True)
                trace_out.write_text(json.dumps(recorder.dump()))
    checks = loop.checks() if untraced else {"ran": False}
    result.update(
        checks=checks,
        correct=all(checks.values()) and tally.failed == 0,
        attempted=tally.attempted,
        failed=tally.failed,
        errors=tally.errors[:5],
        extra=loop.extra(),
        environment=environment(),
        fingerprint=json.loads((work / "fingerprint.json").read_text()),
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("prepare", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.action == "prepare":
        prepare(args.workload, args.seed, args.smoke, args.dir)
        return 0
    result = measure(args.workload, args.seed, args.smoke, args.dir, args.seconds,
                     bool(args.trace), args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
