"""Loss functions, Adam, the training loop, and order-stable evaluation.

Training minimises mean squared error over the forecast horizon only; both
MSE and MAE are reported.  Evaluation accumulates per-window partial sums and
reduces them in origin order, so the reported metrics do not depend on how
windows were batched or shuffled.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import TimeSeriesTable, WindowSample, make_windows
from .errors import ConfigError, ShapeError, TrainingError
from .model import PatchformerModel
from .params import ParameterStore, Rng, read_only
from .tensor import Tensor, no_grad

__all__ = [
    "mse_loss",
    "mse_metric",
    "mae_metric",
    "AdamState",
    "adam_step",
    "MetricReport",
    "average_reports",
    "evaluate",
    "evaluate_windows",
    "repeat_last_report",
    "TrainConfig",
    "TraceRow",
    "TrainResult",
    "train",
    "write_loss_trace",
]


def mse_loss(pred: Tensor, target) -> Tensor:
    """Differentiable mean squared error over every element."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    if pred.shape != target_t.shape:
        raise ShapeError(f"loss shapes differ: {pred.shape} vs {target_t.shape}")
    diff = pred - target_t
    return (diff * diff).mean()


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


@dataclass
class AdamState:
    """First and second moment estimates keyed by parameter name."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def init(
        cls,
        params: ParameterStore,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> "AdamState":
        if lr < 0:
            raise ConfigError(f"learning rate must be non-negative, got {lr}")
        state = cls(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        for name, tensor in params.items():
            state.m[name] = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
        return state


def adam_step(params: ParameterStore, state: AdamState) -> None:
    """One bias-corrected Adam update; consumes and clears the gradients."""
    state.step_count += 1
    t = state.step_count
    correct1 = 1.0 - state.beta1**t
    correct2 = 1.0 - state.beta2**t
    for name, tensor in params.items():
        grad = tensor.grad
        if grad is None:
            raise TrainingError(f"parameter {name!r} has no gradient; run backward first")
        m = state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * grad
        v = state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * (grad * grad)
        step = state.lr * (m / correct1) / (np.sqrt(v / correct2) + state.eps)
        tensor.data = read_only(tensor.data - step)
    params.zero_grads()


@dataclass
class MetricReport:
    """Scaled-space forecast errors accumulated over a set of windows."""

    mse: float
    mae: float
    n_windows: int
    n_points: int

    def as_dict(self) -> dict:
        return {
            "mse": self.mse,
            "mae": self.mae,
            "n_windows": self.n_windows,
            "n_points": self.n_points,
        }


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


def _reduce_partials(
    sse: np.ndarray, sae: np.ndarray, n_windows: int, points_per_window: int
) -> MetricReport:
    total = n_windows * points_per_window
    return MetricReport(
        mse=float(np.add.reduce(sse) / total),
        mae=float(np.add.reduce(sae) / total),
        n_windows=n_windows,
        n_points=total,
    )


def evaluate_windows(
    model: PatchformerModel, windows: list[WindowSample], batch_size: int = 64
) -> MetricReport:
    """Evaluate explicit windows; the result ignores their incoming order."""
    if not windows:
        raise ConfigError("evaluate needs at least one window")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be positive, got {batch_size}")
    ordered = sorted(windows, key=lambda w: w.origin)
    n = len(ordered)
    sse = np.zeros(n)
    sae = np.zeros(n)
    with no_grad():
        for start in range(0, n, batch_size):
            chunk = ordered[start : start + batch_size]
            x = np.stack([w.enc_input for w in chunk])
            y = np.stack([w.target for w in chunk])
            pred = model.forward_batch(x).data
            err = pred - y
            sse[start : start + len(chunk)] = (err * err).sum(axis=(1, 2))
            sae[start : start + len(chunk)] = np.abs(err).sum(axis=(1, 2))
    per_window = ordered[0].target.size
    return _reduce_partials(sse, sae, n, per_window)


def evaluate(
    model: PatchformerModel,
    table: TimeSeriesTable,
    batch_size: int = 64,
    channels: list[str] | None = None,
) -> MetricReport:
    """Stride-1 rolling evaluation of every window the table can hold.

    ``channels`` narrows the table to a named subset first (the simultaneous
    multi-channel scoring mode); the model must match the resulting width.
    """
    if channels is not None:
        table = table.select_channels(channels)
    if table.n_channels != model.cfg.n_channels:
        raise ConfigError(
            f"model expects {model.cfg.n_channels} channels, table has {table.n_channels}"
        )
    windows = make_windows(table, model.cfg.seq_len, model.cfg.pred_len)
    return evaluate_windows(model, windows, batch_size=batch_size)


def repeat_last_report(
    table: TimeSeriesTable, seq_len: int, pred_len: int
) -> MetricReport:
    """Baseline that repeats each window's final observation across the horizon."""
    windows = make_windows(table, seq_len, pred_len)
    n = len(windows)
    sse = np.zeros(n)
    sae = np.zeros(n)
    for i, w in enumerate(windows):
        err = w.last_value[None, :] - w.target
        sse[i] = (err * err).sum()
        sae[i] = np.abs(err).sum()
    return _reduce_partials(sse, sae, n, windows[0].target.size)


@dataclass(frozen=True)
class TrainConfig:
    """Optimisation settings; ``dropout`` overrides the model's rate when set."""

    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-4
    seed: int = 0
    shuffle: bool = True
    dropout: float | None = None
    eval_batch_size: int = 64

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size < 1 or self.eval_batch_size < 1:
            raise ConfigError(
                f"batch sizes must be positive, got {self.batch_size} "
                f"and {self.eval_batch_size}"
            )
        if self.lr < 0:
            raise ConfigError(f"learning rate must be non-negative, got {self.lr}")
        if self.dropout is not None and not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass
class TraceRow:
    """Per-epoch losses; validation fields are NaN when no val table is given."""

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
    final_state: dict[str, np.ndarray]

    @property
    def initial_train_mse(self) -> float:
        return self.trace[0].train_mse

    @property
    def final_train_mse(self) -> float:
        return self.trace[-1].train_mse


def train(
    model: PatchformerModel,
    train_table: TimeSeriesTable,
    val_table: TimeSeriesTable | None,
    cfg: TrainConfig,
) -> TrainResult:
    """Adam over shuffled minibatches with per-epoch validation tracking.

    The best snapshot is the one with the lowest validation MSE (train MSE
    when no validation table is given).  The model is left holding its
    final-epoch weights; use ``best_state`` to restore the best snapshot.
    """
    windows = make_windows(train_table, model.cfg.seq_len, model.cfg.pred_len)
    adam = AdamState.init(model.store, cfg.lr)
    shuffle_rng = Rng(cfg.seed).child(1)
    dropout_rng = Rng(cfg.seed).child(2)

    trace: list[TraceRow] = []
    best_epoch = -1
    best_score = math.inf
    best_state: dict[str, np.ndarray] = {}
    n = len(windows)
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n) if cfg.shuffle else np.arange(n)
        sum_sq = 0.0
        sum_abs = 0.0
        seen = 0
        for batch_idx, start in enumerate(range(0, n, cfg.batch_size)):
            chunk = [windows[i] for i in order[start : start + cfg.batch_size]]
            x = np.stack([w.enc_input for w in chunk])
            y = np.stack([w.target for w in chunk])
            model.store.zero_grads()
            pred = model.forward_batch(
                x,
                training=True,
                rng=dropout_rng.child(epoch, batch_idx),
                dropout_rate=cfg.dropout,
            )
            loss = mse_loss(pred, y)
            batch_mse = loss.item()
            if not math.isfinite(batch_mse):
                raise TrainingError(
                    f"training diverged at epoch {epoch} batch {batch_idx}: "
                    f"loss is {batch_mse}"
                )
            loss.backward()
            adam_step(model.store, adam)
            weight = y.size
            sum_sq += batch_mse * weight
            sum_abs += float(np.abs(pred.data - y).sum())
            seen += weight

        train_mse = sum_sq / seen
        train_mae = sum_abs / seen
        if val_table is not None:
            val = evaluate(model, val_table, batch_size=cfg.eval_batch_size)
            val_mse, val_mae = val.mse, val.mae
            score = val_mse
        else:
            val_mse = val_mae = math.nan
            score = train_mse
        trace.append(TraceRow(epoch, train_mse, train_mae, val_mse, val_mae))
        if score < best_score:
            best_score = score
            best_epoch = epoch
            best_state = model.store.state_dict()

    return TrainResult(
        trace=trace,
        best_epoch=best_epoch,
        best_state=best_state,
        final_state=model.store.state_dict(),
    )


def write_loss_trace(trace: list[TraceRow], path) -> Path:
    """CSV with one train row and one val row per epoch: epoch,split,mse,mae."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "split", "mse", "mae"])
        for row in trace:
            writer.writerow([row.epoch, "train", repr(row.train_mse), repr(row.train_mae)])
            if math.isfinite(row.val_mse) or math.isfinite(row.val_mae):
                writer.writerow([row.epoch, "val", repr(row.val_mse), repr(row.val_mae)])
    return path
