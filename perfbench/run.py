"""Benchmark of the mcan reproduction: one command for every workload.

    python3 perfbench/run.py --workload train-readme --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, both modes
    python3 perfbench/run.py --workload all --smoke           # seconds-long self-test

Run it from the root of a checkout: it measures the program in ``src/``.
Each workload run is two fresh processes started one after the other: an
untimed ``prepare`` that writes the seeded inputs, then ``measure``.  BLAS
and OpenMP thread pools are pinned to one thread in both, since every caller
is a single-threaded closed loop over small matrices.  With ``--trace 0`` the
last line holds the end-to-end metrics listed in BENCHMARK.json, with
``--trace 1`` the per-layer ones.  A failed correctness check, a missing
metric or a failed operation exits with a non-zero code.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("train-readme", "train-paper", "eval-readme")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
RUN_LIMIT_S = 170.0  # one workload run, both processes
SMOKE_SECONDS = 1.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"  # string hashing, hence set order, repeats between runs
    return env


def spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None


def call(args: list[str], deadline: float) -> str:
    """Run ``workloads.py`` with ``args`` in a fresh process; its stdout."""
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + args[0])
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), *args], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} did not finish within {RUN_LIMIT_S:.0f} s") from None
    if done.returncode != 0:
        raise BenchError(f"{args[0]} exited with code {done.returncode}")
    return done.stdout


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    deadline = monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT))
    common = ["--workload", name, "--seed", str(seed), "--dir", str(work)]
    if smoke:
        common.append("--smoke")
    tag = f"{name}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    try:
        call(["prepare", *common], deadline)
        lines = call(["measure", *common, "--seconds", str(seconds), "--trace", str(trace),
                      "--trace-out", str(OUT / "traces" / f"{tag}.json")], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = json.loads(lines.strip().splitlines()[-1])
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def selected(result: dict, declared: list[dict], kind: str) -> dict:
    """The metrics BENCHMARK.json declares, checked for presence and unit."""
    got = result.get(kind, {})
    out = {}
    for entry in declared:
        metric = got.get(entry["name"])
        if metric is None or metric["unit"] != entry["unit"]:
            raise BenchError(f"{result['workload']}: metric {entry['name']} ({entry['unit']}) "
                             f"missing or with another unit: {metric}")
        out[entry["name"]] = {"value": metric["value"], "unit": metric["unit"]}
    return out


def report(result: dict, metrics: dict) -> None:
    head = f"== {result['workload']} seed {result['seed']} trace {result['trace']}"
    print(head + ("  (smoke size)" if result["smoke"] else ""))
    shown = dict(metrics)
    if not result["trace"]:
        shown.update({k: v for k, v in result.get("end_to_end", {}).items() if k not in shown})
        shown.update({k: v for k, v in result.get("extra", {}).items() if isinstance(v, dict)})
    for name, metric in shown.items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    detail = result.get("detail", {})
    if detail and not result["trace"]:
        print(f"  step_ms_tail is p{detail['step_ms_tail_percentile']:.1f} of "
              f"{detail['units_timed']} units over {detail['iterations']} iterations")
    for name, ok in result["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    if result.get("absent"):
        print(f"  absent from the program (reported as 0): {', '.join(result['absent'])}")
    for error in result.get("errors", []):
        print(f"  error: {error}")
    print(f"  inputs sha256: " + ", ".join(f"{k} {v[:12]}" for k, v in result["fingerprint"].items()))
    env = result["environment"]
    print(f"  python {env['python']}, numpy {env['numpy']}, {env['blas']}, nproc {env['nproc']}, "
          f"threads {env['threads']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default for "
                             "'all': both, one run each)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and 1 s runs; checks every declared metric is printed")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if not (ROOT / "src" / "mcan" / "__init__.py").is_file():
            raise BenchError(f"no mcan sources under {ROOT / 'src'}; run from a checkout")
        declared = spec()
        seconds = SMOKE_SECONDS if args.smoke else args.seconds or declared["run_seconds"]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        modes = (args.trace,) if args.trace is not None else ((0, 1) if args.workload == "all" else (0,))
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            for trace in modes:
                result = run_workload(name, args.seed, seconds, trace, args.smoke)
                key = "per_layer" if trace else "end_to_end"
                metrics = selected(result, declared[key], key)
                report(result, metrics)
                summary["correct"] = summary["correct"] and result["correct"]
                summary["attempted"] += result["attempted"]
                summary["failed"] += result["failed"]
                prefix = "" if len(names) == 1 and len(modes) == 1 else f"{name}/"
                summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0 if summary["correct"] and summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
