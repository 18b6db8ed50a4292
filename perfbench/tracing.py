"""Step clock and span recorder for the benchmark.

Both work from outside the program: they replace public functions of the
``mcan`` modules by module (or class) attribute with timing wrappers, and put
the originals back on exit.  Calls between functions of one module go through
the module's globals, so they are wrapped too.  A target that the program no
longer has is recorded as absent instead of failing the run.

Spans are kept in memory as ``[name, start, end, parent, unit, run]`` lists:
``parent`` is the index of the enclosing span (-1 at top level), ``unit`` the
step (train) or request (eval) the span belongs to (None during set-up), and
``run`` the workload iteration.
"""

from __future__ import annotations

import functools
import importlib
from statistics import median
from time import perf_counter

# Span name -> attribute path below the ``mcan`` package.
SPAN_TARGETS = {
    "graphdata.load_dataset": "graphdata.load_dataset",
    "trainer.kfold_split": "trainer.kfold_split",
    "trainer.fitted_view": "trainer.fitted_view",
    "trainer.sample_cache": "trainer.SampleCache.__init__",
    "trainer.batch_groups": "trainer.SampleCache.batch_groups",
    "trainer.predict_samples": "trainer.predict_samples",
    "model.assemble_group": "model.assemble_group",
    "model.forward_group": "model.forward_group",
    "model.loss_batch": "model.loss_batch",
    "model.save_checkpoint": "model.save_checkpoint",
    "model.load_checkpoint": "model.load_checkpoint",
    "hsc.embed": "hsc.embed_channel_windows",
    "hsc.gcn": "hsc.gcn_hop_features",
    "hsc.channel": "hsc.hsc_forward_batch",
    "nnlayers.lstm_sequence": "nnlayers.lstm_sequence",
    "nnlayers.fnn_forward": "nnlayers.fnn_forward",
    "nnlayers.attention_fuse": "nnlayers.attention_fuse",
    "autodiff.backward": "autodiff.DiffValue.backward",
    "autodiff.adam_step": "autodiff.adam_step",
}
# Counted, not timed: these run tens of thousands of times per step.
LSTM_STEP_TARGET = "nnlayers.lstm_step"
NODE_TARGET = "autodiff.DiffValue.__init__"
# The training loop's step boundaries, seen from outside ``trainer.train``:
# a step opens at the first of these calls after the previous step closed ...
STEP_START_TARGETS = ("trainer.SampleCache.batch_groups", "model.forward_group")
# ... and closes when the optimizer update returns.
STEP_END_TARGET = "autodiff.adam_step"


def resolve(path: str):
    """(owner, attribute) for a path below ``mcan``, or None when absent."""
    module_name, *rest = path.split(".")
    try:
        owner = importlib.import_module(f"mcan.{module_name}")
    except ImportError:
        return None
    for part in rest[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, rest[-1]):
        return None
    return owner, rest[-1]


class Patches:
    """Context manager that installs wrappers and restores the originals."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def wrap(self, path: str, make_wrapper) -> None:
        found = resolve(path)
        if found is None:
            self.absent.append(path)
            return
        owner, attr = found
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False


class StepClock:
    """Start and end times of each optimizer step inside ``trainer.train``."""

    def __init__(self, recorder: "Recorder | None" = None):
        self.recorder = recorder
        self.steps: list[tuple[float, float]] = []
        self._open: float | None = None

    def install(self, patches: Patches) -> None:
        for path in STEP_START_TARGETS:
            patches.wrap(path, self._starting)
        patches.wrap(STEP_END_TARGET, self._ending)
        if resolve(STEP_END_TARGET) is None or all(resolve(p) is None for p in STEP_START_TARGETS):
            raise RuntimeError("cannot find the training step boundaries in mcan")

    def take(self) -> list[tuple[float, float]]:
        steps, self.steps = self.steps, []
        return steps

    def _starting(self, fn):
        def wrapper(*args, **kwargs):
            if self._open is None:
                self._open = perf_counter()
                if self.recorder is not None:
                    self.recorder.begin_unit()
            return fn(*args, **kwargs)
        return wrapper

    def _ending(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._open is not None:
                self.steps.append((self._open, perf_counter()))
                self._open = None
                if self.recorder is not None:
                    self.recorder.end_unit()
            return out
        return wrapper


class Recorder:
    """In-memory spans and per-unit counters for one traced phase."""

    def __init__(self):
        self.spans: list[list] = []
        self.units: dict[int, int] = {}  # unit id -> samples it covered
        self.unit: int | None = None
        self.run = 0
        self.counts: dict[tuple[str, int | None], int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []

    # -- units ---------------------------------------------------------------

    def begin_unit(self, samples: int = 0) -> None:
        self.unit = len(self.units)
        self.units[self.unit] = samples

    def end_unit(self) -> None:
        self.unit = None

    # -- wrappers ------------------------------------------------------------

    def install(self, patches: Patches) -> None:
        before = len(patches.absent)
        for name, path in SPAN_TARGETS.items():
            patches.wrap(path, functools.partial(self._span, name))
        patches.wrap(SPAN_TARGETS["trainer.kfold_split"], self._folds)
        patches.wrap(LSTM_STEP_TARGET, self._lstm_steps)
        patches.wrap(NODE_TARGET, self._nodes)
        self.absent = patches.absent[before:]

    def _bump(self, key: str, amount: int = 1) -> None:
        k = (key, self.unit)
        self.counts[k] = self.counts.get(k, 0) + amount

    def _folds(self, fn):
        def wrapper(*args, **kwargs):
            folds = fn(*args, **kwargs)
            self._bump("trainer.fold_splits")
            self._bump("trainer.folds_built", len(folds))
            return folds
        return wrapper

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.unit, self.run]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
        return wrapper

    def _lstm_steps(self, fn):
        def wrapper(*args, **kwargs):
            self._bump("nnlayers.lstm_step")
            return fn(*args, **kwargs)
        return wrapper

    def _nodes(self, fn):
        def wrapper(node, *args, **kwargs):
            fn(node, *args, **kwargs)
            self._bump("autodiff.nodes")
            self._bump("autodiff.elements", node.data.size)
        return wrapper

    # -- summaries -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, dict[int, float]]]:
        """Per span name, summed per unit ("time", "self", "calls") and, for
        spans outside any unit, per run ("setup")."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, dict[int, float]]] = {}
        for i, (name, start, end, parent, unit, run) in enumerate(self.spans):
            tables = out.setdefault(name, {"time": {}, "self": {}, "calls": {}, "setup": {}})
            dur = end - start
            if unit is None:
                tables["setup"][run] = tables["setup"].get(run, 0.0) + dur
                continue
            tables["time"][unit] = tables["time"].get(unit, 0.0) + dur
            tables["self"][unit] = tables["self"].get(unit, 0.0) + dur - child[i]
            tables["calls"][unit] = tables["calls"].get(unit, 0) + 1
        return out

    def unit_median(self, table: dict[int, float]) -> float:
        """Median over every unit, counting units without the span as zero."""
        if not self.units:
            return 0.0
        return median(table.get(u, 0.0) for u in self.units)

    def count(self, key: str, unit: int | None) -> int:
        return self.counts.get((key, unit), 0)

    def lstm_ms_by_caller(self) -> dict[str, float]:
        """Median per-unit LSTM time, split by whether an HSC channel called it."""
        by_caller = {"hsc": {}, "model": {}}
        for name, start, end, parent, unit, _ in self.spans:
            if name != "nnlayers.lstm_sequence" or unit is None:
                continue
            caller = "hsc" if parent >= 0 and self.spans[parent][0] == "hsc.channel" else "model"
            bucket = by_caller[caller]
            bucket[unit] = bucket.get(unit, 0.0) + end - start
        return {caller: 1e3 * self.unit_median(t) for caller, t in by_caller.items()}

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "units": self.units,
            "counts": [[k, u, v] for (k, u), v in self.counts.items()],
            "absent": self.absent,
        }
