"""Metrics, Adam, the training loop, and order-stable evaluation.

Training minimises mean squared error over the forecast horizon only, with
the fused ``mse_loss`` node of ``tensor``; both MSE and MAE are reported.
Model evaluation and the repeat-last baseline
share one scoring loop: it walks the windows of one ``make_windows`` view in
origin order, a batch at a time, and reduces the per-window partial sums in
that order, so the reduction order does not depend on the batch size.  The
forecasts themselves may move in the last bits with the batch size, where a
BLAS picks another GEMM kernel for another row count; at the benchmark shapes
they are bitwise.
``train`` shuffles the windows every epoch from a stream seeded by
``TrainConfig.seed``, at the dropout rate of ``ModelConfig.dropout``, scores
the validation table after every epoch, and keeps the weights of the epoch
with the lowest validation MSE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import TimeSeriesTable, make_windows, write_csv
from .errors import ConfigError, ShapeError, TrainingError
from .model import PatchformerModel
from .params import ParameterStore, Rng, read_only
from .tensor import Tensor, mse_loss, no_grad

__all__ = [
    "mse_loss",
    "mse_metric",
    "mae_metric",
    "AdamState",
    "adam_step",
    "MetricReport",
    "average_reports",
    "evaluate",
    "repeat_last_report",
    "TrainConfig",
    "TraceRow",
    "TrainResult",
    "train",
    "write_loss_trace",
]


def _metric_diff(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"metric shapes differ: {pred.shape} vs {target.shape}")
    return pred - target


def mse_metric(pred: np.ndarray, target: np.ndarray) -> float:
    diff = _metric_diff(pred, target)
    return float(np.mean(diff * diff))


def mae_metric(pred: np.ndarray, target: np.ndarray) -> float:
    return float(np.mean(np.abs(_metric_diff(pred, target))))


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First and second moment estimates keyed by parameter name."""

    lr: float
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def init(cls, params: ParameterStore, lr: float) -> "AdamState":
        if not 0 <= lr < math.inf:
            raise ConfigError(f"learning rate must be finite and non-negative, got {lr}")
        state = cls(lr=lr)
        for name, tensor in params.items():
            state.m[name] = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
        return state


def adam_step(params: ParameterStore, state: AdamState, grads: dict[Tensor, np.ndarray]) -> None:
    """One bias-corrected Adam update from the map ``loss.backward()`` returns."""
    state.step_count += 1
    t = state.step_count
    correct1 = 1.0 - ADAM_BETA1**t
    correct2 = 1.0 - ADAM_BETA2**t
    for name, tensor in params.items():
        grad = grads.get(tensor)
        if grad is None:
            raise TrainingError(f"parameter {name!r} has no gradient in the map")
        m = state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * grad
        v = state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * (grad * grad)
        step = state.lr * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)
        tensor.data = read_only(tensor.data - step)


@dataclass
class MetricReport:
    """Scaled-space forecast errors accumulated over a set of windows."""

    mse: float
    mae: float
    n_windows: int
    n_points: int


def average_reports(reports: list[MetricReport]) -> MetricReport:
    """Unweighted mean of per-run metrics, as used for per-channel averaging."""
    if not reports:
        raise ConfigError("cannot average zero reports")
    return MetricReport(
        mse=float(np.mean([r.mse for r in reports])),
        mae=float(np.mean([r.mae for r in reports])),
        n_windows=sum(r.n_windows for r in reports),
        n_points=sum(r.n_points for r in reports),
    )


def _score(windows: np.ndarray, seq_len: int, predict, batch_size: int = 64) -> MetricReport:
    """Errors of ``predict`` over a ``make_windows`` view, one batch at a time.

    ``predict`` maps a (B, seq_len, C) lookback batch to a forecast that
    broadcasts against the (B, pred_len, C) horizon.  Windows are taken in
    origin order and their per-window sums are reduced in that order, so
    only one batch of errors is held at a time.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be positive, got {batch_size}")
    n = windows.shape[0]
    sse = np.empty(n)
    sae = np.empty(n)
    for start in range(0, n, batch_size):
        batch = windows[start : start + batch_size]
        err = predict(batch[:, :seq_len]) - batch[:, seq_len:]
        sse[start : start + len(batch)] = (err * err).sum(axis=(1, 2))
        sae[start : start + len(batch)] = np.abs(err).sum(axis=(1, 2))
    total = n * windows[0, seq_len:].size
    return MetricReport(
        mse=float(np.add.reduce(sse) / total),
        mae=float(np.add.reduce(sae) / total),
        n_windows=n,
        n_points=total,
    )


def evaluate(
    model: PatchformerModel, table: TimeSeriesTable, batch_size: int = 64
) -> MetricReport:
    """Stride-1 rolling evaluation of every window the table can hold."""
    if table.n_channels != model.cfg.n_channels:
        raise ConfigError(
            f"model expects {model.cfg.n_channels} channels, table has {table.n_channels}"
        )
    windows = make_windows(table, model.cfg.seq_len, model.cfg.pred_len)
    with no_grad():
        return _score(
            windows, model.cfg.seq_len, lambda x: model.forward_batch(x).data, batch_size
        )


def repeat_last_report(
    table: TimeSeriesTable, seq_len: int, pred_len: int
) -> MetricReport:
    """Baseline that repeats each window's final observation across the horizon."""
    windows = make_windows(table, seq_len, pred_len)
    return _score(windows, seq_len, lambda x: x[:, -1:])


@dataclass(frozen=True)
class TrainConfig:
    """Optimisation settings; dropout is the model's own ``ModelConfig.dropout``."""

    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if not 0 <= self.lr < math.inf:
            raise ConfigError(f"learning rate must be finite and non-negative, got {self.lr}")


@dataclass
class TraceRow:
    """Per-epoch training and validation losses."""

    epoch: int
    train_mse: float
    train_mae: float
    val_mse: float
    val_mae: float


@dataclass
class TrainResult:
    trace: list[TraceRow]
    best_epoch: int
    best_state: dict[str, np.ndarray]

    @property
    def initial_train_mse(self) -> float:
        return self.trace[0].train_mse

    @property
    def final_train_mse(self) -> float:
        return self.trace[-1].train_mse


def train(
    model: PatchformerModel,
    train_table: TimeSeriesTable,
    val_table: TimeSeriesTable,
    cfg: TrainConfig,
) -> TrainResult:
    """Adam over shuffled minibatches with per-epoch validation tracking.

    The best snapshot is the one with the lowest validation MSE; a
    non-finite validation MSE is a ``TrainingError``.  The model is left
    holding its final-epoch weights; build the best snapshot from
    ``best_state``.
    """
    windows = make_windows(train_table, model.cfg.seq_len, model.cfg.pred_len)
    adam = AdamState.init(model.store, cfg.lr)
    shuffle_rng = Rng(cfg.seed).child(1)
    dropout_rng = Rng(cfg.seed).child(2)

    trace: list[TraceRow] = []
    best_epoch = -1
    best_val_mse = math.inf
    best_state: dict[str, np.ndarray] = {}
    n = windows.shape[0]
    seq_len = model.cfg.seq_len
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        sum_sq = 0.0
        sum_abs = 0.0
        seen = 0
        for batch_idx, start in enumerate(range(0, n, cfg.batch_size)):
            picked = order[start : start + cfg.batch_size]
            x = windows[picked, :seq_len]
            y = windows[picked, seq_len:]
            pred = model.forward_batch(x, dropout_rng.child(epoch, batch_idx))
            loss = mse_loss(pred, y)
            batch_mse = loss.item()
            if not math.isfinite(batch_mse):
                raise TrainingError(
                    f"training diverged at epoch {epoch} batch {batch_idx}: "
                    f"loss is {batch_mse}"
                )
            adam_step(model.store, adam, loss.backward())
            weight = y.size
            sum_sq += batch_mse * weight
            sum_abs += float(np.abs(pred.data - y).sum())
            seen += weight

        val = evaluate(model, val_table)
        trace.append(TraceRow(epoch, sum_sq / seen, sum_abs / seen, val.mse, val.mae))
        if not math.isfinite(val.mse):
            raise TrainingError(f"validation MSE is {val.mse} after epoch {epoch}")
        if val.mse < best_val_mse:
            best_val_mse = val.mse
            best_epoch = epoch
            best_state = model.store.state_dict()

    return TrainResult(trace=trace, best_epoch=best_epoch, best_state=best_state)


def write_loss_trace(trace: list[TraceRow], path) -> Path:
    """CSV with one train row and one val row per epoch: epoch,split,mse,mae."""
    rows = []
    for row in trace:
        rows.append((row.epoch, "train", row.train_mse, row.train_mae))
        rows.append((row.epoch, "val", row.val_mse, row.val_mae))
    return write_csv(path, ("epoch", "split", "mse", "mae"), rows)
