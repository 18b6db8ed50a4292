"""Training loop, time-series cross validation, normalization, and metrics.

Cross-validation uses contiguous-in-time test blocks: eligible (road, t)
samples are ordered by wall-clock time and cut into k blocks.  For a given
fold, normalization statistics and daily averages are fitted only on days that
do not touch the test block's wall-clock window, and training samples with a
read span (:func:`model.read_spans`, the same spans that decide eligibility)
reaching into that window are dropped, so no test value ever influences
fitting or gradients.  A config flag restores shuffled folds (which inherently
overlap) for parity with conventional shuffled evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import graphdata as gd
from . import hsc
from . import model as md
from .errors import ConfigError, MissingDataError, TrainingDivergence

Sample = tuple[int, int]  # (road id, time index)


@dataclass(frozen=True)
class TrainConfig(md.ArchitectureConfig):
    """Run configuration; defaults follow the reference hyperparameters."""

    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 0.0001
    dropout: float = 0.5
    folds: int = 5
    fold_index: int | None = None  # default: the last (latest) block
    seed: int = 0
    ablations: tuple[str, ...] = ()
    max_train_samples: int | None = None
    shuffled_folds: bool = False

    def validate(self) -> None:
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.max_train_samples is not None and self.max_train_samples < 1:
            raise ConfigError(f"max_train_samples must be >= 1, got {self.max_train_samples}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.fold_index is not None and not 0 <= self.fold_index < self.folds:
            raise ConfigError(f"fold_index must be in [0, {self.folds}), got {self.fold_index}")
        md.ModelConfig(**self.model_fields()).validate()

    def model_fields(self) -> dict:
        """The fields this config shares with ``ModelConfig``, ablation names
        expanded to flags."""
        shared = {f.name: getattr(self, f.name) for f in fields(md.ArchitectureConfig)}
        return {**shared, "ablations": md.parse_ablations(self.ablations)}

    def model_config(self, dataset: gd.TrafficDataset) -> md.ModelConfig:
        return md.ModelConfig(**self.model_fields(), weather_code_count=dataset.weather_code_count,
                              road_type_count=dataset.road_type_count)


# ---------------------------------------------------------------------------
# Folds


@dataclass
class Fold:
    """One train/test partition; the wall-clock window spans the test targets."""

    index: int
    train: list[Sample]
    test: list[Sample]
    test_wall: tuple[int, int] | None  # inclusive minutes; None for shuffled folds


def _eligible_arrays(view: md.DataView, config: md.ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Roads and times of the eligible samples, road-major and time-ascending."""
    times = [md.eligible_times(view, config, road) for road in range(view.graph.size)]
    roads = [np.full(len(t), road, dtype=int) for road, t in enumerate(times)]
    return np.concatenate(roads), np.concatenate(times)


def _samples(roads: np.ndarray, times: np.ndarray) -> list[Sample]:
    return list(zip(roads.tolist(), times.tolist()))


def _touches_window(view: md.DataView, road: int, spans: np.ndarray, times: np.ndarray,
                    lo: int, hi: int) -> np.ndarray:
    """Per time: whether any row of ``spans``, the road's span table
    (:func:`model.read_spans`), has a wall-clock minute in ``[lo, hi]``.
    Index u of road j is at minute ``u·b``, so a span touches the window
    when its ``hour_window_end`` lies from ``ceil(lo/b) - last`` to
    ``floor(hi/b) - first``; those times are marked over the road's slots."""
    j, a, b, first, last = spans.T
    start, stop = hsc.hour_window_end_times(-(-lo // b) - last, hi // b - first, a, b)
    marked = np.zeros(len(view.values[road]), dtype=bool)
    for begin, end in zip(start.clip(0), stop.clip(0)):
        marked[begin:end] = True
    return marked[times]


def kfold_split(view: md.DataView, config: md.ModelConfig, k: int, seed: int,
                shuffled: bool = False, indices=None) -> list[Fold]:
    """k folds whose test blocks partition the eligible samples.

    Contiguous mode orders samples by wall-clock time, cuts k blocks, and
    removes training samples that would read any test-window value.  Shuffled
    mode permutes samples instead and performs no leak filtering.  Only the
    folds named in ``indices`` (default: all k, in order) are built.
    """
    if k < 2:
        raise ConfigError(f"folds must be >= 2, got {k}")
    indices = range(k) if indices is None else list(indices)
    for f in indices:
        if not 0 <= f < k:
            raise ConfigError(f"fold index must be in [0, {k}), got {f}")
    roads, times = _eligible_arrays(view, config)
    if len(roads) < k:
        raise MissingDataError(f"only {len(roads)} eligible samples for {k} folds")
    if shuffled:
        blocks = np.array_split(np.random.default_rng(seed).permutation(len(roads)), k)
        folds = []
        for f in indices:
            in_test = np.zeros(len(roads), dtype=bool)
            in_test[blocks[f]] = True
            folds.append(Fold(index=f, train=_samples(roads[~in_test], times[~in_test]),
                              test=_samples(roads[in_test], times[in_test]), test_wall=None))
        return folds
    spans = [md.read_spans(view, config, road) for road in range(view.graph.size)]
    intervals = np.array([view.interval(r) for r in range(view.graph.size)])
    walls = times * intervals[roads]
    order = np.lexsort((roads, walls))
    roads, times, walls = roads[order], times[order], walls[order]
    blocks = np.array_split(np.arange(len(roads)), k)
    folds = []
    for f in indices:
        block = blocks[f]
        lo = int(walls[block].min())
        hi = int(((times[block] + config.horizon - 1) * intervals[roads[block]]).max())
        keep = np.ones(len(roads), dtype=bool)
        keep[block] = False
        for road, table in enumerate(spans):
            rows = np.flatnonzero(keep & (roads == road))
            keep[rows] = ~_touches_window(view, road, table, times[rows], lo, hi)
        folds.append(Fold(index=f, train=_samples(roads[keep], times[keep]),
                          test=_samples(roads[block], times[block]), test_wall=(lo, hi)))
    return folds


def training_day_mask(dataset: gd.TrafficDataset, fold: Fold) -> np.ndarray:
    """Which whole days are safe to use for fitting: those that do not
    overlap the fold's test wall-clock window (every day when it has none)."""
    if fold.test_wall is None:
        return np.ones(dataset.days, dtype=bool)
    lo, hi = fold.test_wall
    day_lo = np.arange(dataset.days) * gd.MINUTES_PER_DAY
    mask = (day_lo + gd.MINUTES_PER_DAY - 1 < lo) | (day_lo > hi)
    if not mask.any():
        raise MissingDataError(f"fold {fold.index}: the test window leaves no training days to fit on")
    return mask


# ---------------------------------------------------------------------------
# Normalization


@dataclass
class Scaler:
    """Per-road z-score parameters fitted on training data only."""

    means: np.ndarray
    stds: np.ndarray


def normalize_fit(dataset: gd.TrafficDataset, day_mask: np.ndarray) -> Scaler:
    n = dataset.graph.size
    means = np.zeros(n)
    stds = np.ones(n)
    for road in range(n):
        spd = dataset.graph.nodes[road].slots_per_day
        training = dataset.series[road].values[np.repeat(day_mask, spd)]
        means[road] = training.mean()
        std = training.std()
        stds[road] = std if std > 1e-12 else 1.0  # constant series fallback
    return Scaler(means=means, stds=stds)


def fitted_view(dataset: gd.TrafficDataset, fold: Fold) -> tuple[md.DataView, Scaler]:
    mask = training_day_mask(dataset, fold)
    scaler = normalize_fit(dataset, mask)
    view = md.build_view(dataset, means=scaler.means, stds=scaler.stds, days=mask)
    return view, scaler


# ---------------------------------------------------------------------------
# Batch plumbing


class SampleCache:
    """Pre-assembled inputs of a fixed sample set (samples or an ``(N, 2)``
    array of them): one row table, sliced per batch."""

    def __init__(self, view: md.DataView, config: md.ModelConfig, samples: list[Sample] | np.ndarray):
        pairs = np.asarray(samples, dtype=int).reshape(-1, 2)
        self.table = md.assemble_group(view, config, pairs[:, 0], pairs[:, 1])
        self.row_of = np.argsort(self.table.positions)  # table row of each sample index

    def batch_groups(self, indices: np.ndarray) -> md.GroupInputs:
        """The rows of the samples at ``indices`` (positions in the cached
        sample list) as one group, in table order (so grouped by interval
        class)."""
        return self.table.take(np.sort(self.row_of[indices]))


# ---------------------------------------------------------------------------
# Training


@dataclass
class TrainResult:
    params: md.McanParams
    scaler: Scaler
    ybar: list[np.ndarray]
    history: list[float]  # mean per-sample training loss per epoch
    fold: Fold
    adam_steps: int
    model_config: md.ModelConfig


def _first_nonfinite(params: md.McanParams, loss_value: float) -> str:
    return md.first_nonfinite(params, grads=not np.isfinite(loss_value)) or "loss"


def _adam_step(params: md.McanParams, state: ad.AdamState, gi: md.GroupInputs,
               drop: md.Dropout | None) -> float:
    """One forward, backward and Adam update; returns the loss.  The step's
    graph is released on return, before the next one is built."""
    speed, trend, dev = md.forward_group(params, gi, drop)
    total = md.loss_batch(speed, gi.target_speed, trend, gi.target_trend,
                          dev, gi.target_deviation, params.config.alpha, params.config.beta)
    params.grad.fill(0.0)
    total.backward()
    value = total.item()
    if not np.isfinite(value):
        raise TrainingDivergence(
            f"non-finite training loss; first non-finite tensor: {_first_nonfinite(params, value)}"
        )
    ad.adam_step(params.theta, params.grad, state)
    return value


def train(dataset: gd.TrafficDataset, config: TrainConfig) -> TrainResult:
    """Mini-batch Adam training on the configured fold; deterministic per seed."""
    config.validate()
    mc = config.model_config(dataset)
    raw_view = md.build_view(dataset)
    index = config.fold_index if config.fold_index is not None else config.folds - 1
    fold = kfold_split(raw_view, mc, config.folds, config.seed, config.shuffled_folds, [index])[0]
    if not fold.train:
        raise MissingDataError(f"fold {fold.index} has no usable training samples")
    view, scaler = fitted_view(dataset, fold)

    seeds = np.random.SeedSequence(config.seed).spawn(4)
    rng_init = np.random.default_rng(seeds[0])
    rng_shuffle = np.random.default_rng(seeds[1])
    rng_drop = np.random.default_rng(seeds[2])
    rng_subsample = np.random.default_rng(seeds[3])

    train_samples = np.array(fold.train, dtype=np.int64)
    if config.max_train_samples is not None and len(train_samples) > config.max_train_samples:
        keep = rng_subsample.choice(len(train_samples), config.max_train_samples, replace=False)
        train_samples = train_samples[np.sort(keep)]

    params = md.init_mcan(mc, rng_init)
    cache = SampleCache(view, mc, train_samples)
    state = ad.AdamState(learning_rate=config.learning_rate)
    drop = md.Dropout(config.dropout, rng_drop) if config.dropout > 0 else None

    history: list[float] = []
    count = len(train_samples)
    for _ in range(config.epochs):
        order = rng_shuffle.permutation(count)
        epoch_loss = 0.0
        for start in range(0, count, config.batch_size):
            gi = cache.batch_groups(order[start : start + config.batch_size])
            epoch_loss += _adam_step(params, state, gi, drop)
        if not np.isfinite(params.theta).all():
            raise TrainingDivergence(
                f"non-finite parameter after update: {_first_nonfinite(params, epoch_loss)}"
            )
        history.append(epoch_loss / count)
    return TrainResult(
        params=params, scaler=scaler, ybar=view.ybar, history=history,
        fold=fold, adam_steps=state.step, model_config=mc,
    )


# ---------------------------------------------------------------------------
# Metrics and evaluation


@dataclass
class MetricsReport:
    """Denormalized error metrics with a per-horizon-step breakdown."""

    mae: float
    mape_pct: float
    rmse: float
    per_step_mae: np.ndarray
    per_step_rmse: np.ndarray
    sample_count: int
    mape_count: int


def compute_metrics(truth: np.ndarray, predictions: np.ndarray) -> MetricsReport:
    """MAE / MAPE / RMSE over (samples, horizon) arrays in km/h.

    MAPE is computed only over nonzero truths; MAE and RMSE use every value.
    """
    truth = np.asarray(truth, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    if truth.shape != predictions.shape or truth.ndim != 2 or truth.size == 0:
        raise MissingDataError(f"metrics need matching non-empty (samples, horizon) arrays, "
                               f"got {truth.shape} and {predictions.shape}")
    error = predictions - truth
    abs_error = np.abs(error)
    nonzero = truth != 0.0
    mape = float((abs_error[nonzero] / np.abs(truth[nonzero])).mean() * 100.0) if nonzero.any() else 0.0
    return MetricsReport(
        mae=float(abs_error.mean()),
        mape_pct=mape,
        rmse=float(np.sqrt((error * error).mean())),
        per_step_mae=abs_error.mean(axis=0),
        per_step_rmse=np.sqrt((error * error).mean(axis=0)),
        sample_count=truth.shape[0],
        mape_count=int(nonzero.sum()),
    )


def predict_samples(params: md.McanParams, view: md.DataView, samples,
                    batch_size: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """Denormalized (truth, prediction) arrays of shape (samples, horizon),
    rows in the order of ``samples`` (``(road, t)`` pairs or an ``(N, 2)``
    integer array), which run in chunks of ``batch_size``.

    The forwards run inside :func:`autodiff.no_tape`: nothing here takes a
    gradient, so no chunk keeps a backward graph (the GCN scores, say) alive
    past its own forward, and each top LSTM layer keeps two states instead
    of its gate activations and state sequences.  With that state no longer
    growing with the sequence, larger chunks pay the per-chunk Python cost
    less often without leaving cache: on the eval-readme requests (265-808
    samples each, 2-vCPU VM) 512-row chunks ran 26.8k samples/s against
    21.2k at 256 rows (medians of eight alternating rounds)."""
    pairs = np.asarray(samples, dtype=int).reshape(-1, 2)
    if len(pairs) == 0:
        raise MissingDataError("no samples to evaluate")
    truth = np.empty((len(pairs), params.config.horizon))
    preds = np.empty((len(pairs), params.config.horizon))
    with ad.no_tape():
        for start in range(0, len(pairs), batch_size):
            chunk = pairs[start : start + batch_size]
            gi = md.assemble_group(view, params.config, chunk[:, 0], chunk[:, 1])
            speed, _, _ = md.forward_group(params, gi, None)
            rows, roads = start + gi.positions, gi.roads[:, None]
            truth[rows] = view.denormalize(roads, gi.target_speed)
            preds[rows] = view.denormalize(roads, speed.data)
    return truth, preds


def evaluate(params: md.McanParams, view: md.DataView, samples) -> MetricsReport:
    """Evaluation-mode metrics on a sample split, in km/h."""
    truth, preds = predict_samples(params, view, samples)
    return compute_metrics(truth, preds)


def historical_average_baseline(dataset: gd.TrafficDataset, fold: Fold, horizon: int,
                                samples=None) -> MetricsReport:
    """Predict the training-day per-slot mean speed for every horizon step of
    ``samples`` (pairs or an ``(N, 2)`` array; default the fold's test split)."""
    mask = training_day_mask(dataset, fold)
    averages = [gd.compute_daily_average(series.values, node.slots_per_day, mask)
                for series, node in zip(dataset.series, dataset.graph.nodes)]
    pairs = np.asarray(samples if samples is not None else fold.test, dtype=int).reshape(-1, 2)
    if len(pairs) == 0:
        raise MissingDataError("no samples to evaluate")
    steps = pairs[:, 1:] + np.arange(horizon)  # (samples, horizon) series indices
    truth = np.empty(steps.shape)
    preds = np.empty(steps.shape)
    for road in np.unique(pairs[:, 0]):
        rows = pairs[:, 0] == road
        truth[rows] = dataset.series[road].values[steps[rows]]
        preds[rows] = averages[road][steps[rows] % len(averages[road])]
    return compute_metrics(truth, preds)
