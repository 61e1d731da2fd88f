"""Tests for losses, Adam, evaluation, and the training loop.

The Adam oracle below reimplements the update rule from scratch with plain
numpy scalars, so the optimizer is checked against an independent derivation
rather than against itself.
"""

import csv
import math
import weakref

import numpy as np
import pytest

from patchformer import (
    AdamState,
    MetricReport,
    ModelConfig,
    ParameterStore,
    PatchformerModel,
    Tensor,
    TimeSeriesTable,
    TrainConfig,
    adam_step,
    average_reports,
    evaluate,
    mae_metric,
    make_windows,
    mse_loss,
    mse_metric,
    repeat_last_report,
    train,
    write_loss_trace,
)
from patchformer import training
from patchformer.errors import ConfigError, ShapeError, TrainingError
from patchformer.model import EVAL_ROWS


# -- losses and metrics ----------------------------------------------------------


def test_mse_loss_oracle():
    loss = mse_loss(Tensor(np.array([2.0, 4.0])), np.array([1.0, 2.0]))
    assert loss.item() == 2.5


def test_metric_oracles():
    pred = np.array([2.0, 4.0])
    target = np.array([1.0, 2.0])
    assert mse_metric(pred, target) == 2.5
    assert mae_metric(pred, target) == 1.5


def test_mse_loss_gradient_is_two_diff_over_n():
    pred = Tensor(np.array([2.0, 4.0, 6.0]), requires_grad=True)
    grad = mse_loss(pred, np.array([1.0, 2.0, 3.0])).backward()[pred]
    np.testing.assert_allclose(grad, 2.0 * np.array([1.0, 2.0, 3.0]) / 3.0, atol=1e-15)


def test_mse_loss_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        mse_loss(Tensor(np.ones((2, 3))), np.ones((3, 2)))


# -- Adam ------------------------------------------------------------------------


def test_adam_first_step_moves_by_lr():
    store = ParameterStore(seed=0)
    theta = store.add("theta", np.array([1.0]))
    state = AdamState.init(store, lr=0.1)
    adam_step(store, state, {theta: np.array([1.0])})
    assert abs(theta.data[0] - 0.9) < 1e-8


def test_adam_hundred_step_trajectory_matches_reference(rng_np):
    """Drive one scalar with pre-drawn gradients; compare to a from-scratch loop."""
    grads = rng_np.normal(size=100)
    lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8

    store = ParameterStore(seed=0)
    theta = store.add("theta", np.array([0.5]))
    state = AdamState.init(store, lr=lr)
    ours = []
    for g in grads:
        adam_step(store, state, {theta: np.array([g])})
        ours.append(theta.data[0])

    x, m, v = 0.5, 0.0, 0.0
    reference = []
    for step, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**step)
        v_hat = v / (1 - beta2**step)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
        reference.append(x)

    np.testing.assert_allclose(ours, reference, atol=1e-12)


def test_adam_zero_gradient_keeps_parameter():
    store = ParameterStore(seed=0)
    theta = store.add("theta", np.array([2.0, -3.0]))
    state = AdamState.init(store, lr=0.5)
    for _ in range(3):
        adam_step(store, state, {theta: np.zeros(2)})
    np.testing.assert_array_equal(theta.data, [2.0, -3.0])


def test_adam_requires_gradients():
    store = ParameterStore(seed=0)
    theta = store.add("theta", np.array([1.0]))
    store.add("other", np.array([1.0]))
    state = AdamState.init(store, lr=0.1)
    with pytest.raises(TrainingError, match="other"):
        adam_step(store, state, {theta: np.array([1.0])})


def test_adam_step_leaves_the_gradient_map_unchanged():
    store = ParameterStore(seed=0)
    theta = store.add("theta", np.array([1.0]))
    state = AdamState.init(store, lr=0.1)
    grad = np.array([1.0])
    grads = {theta: grad}
    adam_step(store, state, grads)
    assert list(grads) == [theta] and grads[theta] is grad and grad.tolist() == [1.0]
    # the same map drives a second, identical-gradient step
    adam_step(store, state, grads)
    assert state.step_count == 2 and theta.data[0] < 0.9


def test_adam_rejects_negative_lr():
    store = ParameterStore(seed=0)
    with pytest.raises(ConfigError):
        AdamState.init(store, lr=-0.1)


@pytest.mark.parametrize("lr", [math.nan, math.inf])
def test_adam_rejects_non_finite_lr(lr):
    """The same condition as TrainConfig, for library callers that skip it."""
    store = ParameterStore(seed=0)
    with pytest.raises(ConfigError, match="finite"):
        AdamState.init(store, lr=lr)


# -- evaluation -------------------------------------------------------------------


def sine_table(t=64, channels=1, period=12.0):
    steps = np.arange(t, dtype=np.float64)
    columns = [np.sin(2 * np.pi * steps / period + 0.3 * c) for c in range(channels)]
    return TimeSeriesTable(
        timestamps=[f"{i:05d}" for i in range(t)],
        values=np.stack(columns, axis=1),
        channel_names=[f"c{i}" for i in range(channels)],
    )


def tiny_trained_setup(t=64, channels=1, seed=0):
    cfg = ModelConfig(
        seq_len=24,
        pred_len=8,
        n_channels=channels,
        patch_len=8,
        stride=4,
        d_model=16,
        n_heads=2,
        d_ff=32,
        n_encoder_layers=1,
        n_decoder_layers=1,
        dropout=0.0,
        seed=seed,
    )
    return PatchformerModel.build(cfg), sine_table(t, channels)


def test_evaluate_is_batch_size_independent():
    model, table = tiny_trained_setup()
    windows = make_windows(table, 24, 8)
    one = evaluate(model, table, batch_size=1)
    big = evaluate(model, table, batch_size=len(windows))
    assert one.n_windows == big.n_windows == len(windows)
    np.testing.assert_allclose([one.mse, one.mae], [big.mse, big.mae], atol=1e-12)


def test_evaluate_is_bitwise_batch_size_independent_across_blocks():
    """89 windows of 3 channels: the full batch runs 9 blocks, batch 64 runs 6 then 3.

    Bitwise at this tiny shape, where every block lands on the same GEMM
    kernel as the full batch; other shapes agree to rounding.
    """
    model, table = tiny_trained_setup(t=120, channels=3)
    n_windows = len(make_windows(table, 24, 8))
    assert n_windows * 3 > 4 * EVAL_ROWS
    reports = [evaluate(model, table, batch_size=size) for size in (1, 64, n_windows)]
    assert reports[0] == reports[1] == reports[2]


def test_evaluate_counts_and_jensen_inequality():
    model, table = tiny_trained_setup()
    report = evaluate(model, table)
    assert report.n_windows == 64 - 24 - 8 + 1
    assert report.n_points == report.n_windows * 8
    assert report.mae**2 <= report.mse + 1e-15


def test_evaluate_rejects_width_mismatch():
    model, _ = tiny_trained_setup(channels=1)
    with pytest.raises(ConfigError):
        evaluate(model, sine_table(64, 3))


def test_repeat_last_baseline_oracle():
    table = sine_table(16, 2)
    report = repeat_last_report(table, seq_len=4, pred_len=3)
    windows = make_windows(table, 4, 3)
    per_window = [mse_metric(np.tile(w[3], (3, 1)), w[4:]) for w in windows]
    assert abs(report.mse - np.mean(per_window)) < 1e-12
    assert report.n_windows == len(windows)


def test_average_reports():
    a = MetricReport(mse=1.0, mae=0.5, n_windows=10, n_points=80)
    b = MetricReport(mse=3.0, mae=1.5, n_windows=30, n_points=240)
    avg = average_reports([a, b])
    assert avg.mse == 2.0
    assert avg.mae == 1.0
    assert avg.n_windows == 40
    assert avg.n_points == 320
    with pytest.raises(ConfigError):
        average_reports([])


# -- training loop ----------------------------------------------------------------


def test_train_same_seed_is_bitwise_reproducible():
    results = []
    finals = []
    for _ in range(2):
        model, table = tiny_trained_setup(t=96, seed=4)
        cfg = TrainConfig(epochs=3, batch_size=8, lr=1e-3, seed=4)
        results.append(train(model, table, table, cfg))
        finals.append(model.store.state_dict())
    assert results[0].trace == results[1].trace
    for name in finals[0]:
        np.testing.assert_array_equal(finals[0][name], finals[1][name])


def test_train_zero_lr_keeps_weights_and_metrics():
    model, table = tiny_trained_setup(t=96)
    before = model.store.state_dict()
    cfg = TrainConfig(epochs=3, batch_size=8, lr=0.0, seed=0)
    result = train(model, table, table, cfg)
    after = model.store.state_dict()
    for name in before:
        np.testing.assert_array_equal(before[name], after[name])
    val_losses = [row.val_mse for row in result.trace]
    assert val_losses.count(val_losses[0]) == len(val_losses)


def test_train_reduces_loss_on_sine():
    model, table = tiny_trained_setup(t=96)
    cfg = TrainConfig(epochs=10, batch_size=64, lr=1e-3, seed=0)
    result = train(model, table, table, cfg)
    assert result.final_train_mse < 0.5 * result.initial_train_mse


def test_train_tracks_best_epoch_by_validation():
    model, table = tiny_trained_setup(t=96)
    cfg = TrainConfig(epochs=5, batch_size=16, lr=1e-3, seed=1)
    result = train(model, table, table, cfg)
    vals = [row.val_mse for row in result.trace]
    assert result.best_epoch == int(np.argmin(vals))
    assert set(result.best_state) == set(model.store.state_dict())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_is_reported_with_location():
    # the step size must overflow float64 outright: layer norm re-scales
    # activations and Adam re-scales gradients, so merely large rates stay
    # finite instead of diverging
    model, table = tiny_trained_setup(t=96)
    cfg = TrainConfig(epochs=3, batch_size=8, lr=1e100, seed=0)
    with pytest.raises(TrainingError, match="diverged at epoch 0 batch"):
        train(model, table, table, cfg)


def test_train_holds_one_step_graph_at_a_time(monkeypatch):
    """Every step's graph is gone before the next forward starts, and before validation."""
    model, table = tiny_trained_setup(t=96)
    preds = []  # a weak reference to each step's prediction
    live_at_forward = []  # how many of them are alive as each forward starts

    def loss_noting_pred(pred, target):
        preds.append(weakref.ref(pred.data))
        return mse_loss(pred, target)

    forward_batch = PatchformerModel.forward_batch

    def forward_after_counting(self, x, rng=None):
        live_at_forward.append(sum(ref() is not None for ref in preds))
        return forward_batch(self, x, rng)

    monkeypatch.setattr(training, "mse_loss", loss_noting_pred)
    monkeypatch.setattr(PatchformerModel, "forward_batch", forward_after_counting)
    train(model, table, table, TrainConfig(epochs=2, batch_size=16, lr=1e-3, seed=0))
    # 65 windows: 5 steps of 16 and 2 validation batches of 64 per epoch
    assert len(preds) == 10
    assert live_at_forward == [0] * 14


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(lr=-1.0)


def test_write_loss_trace_format(tmp_path):
    model, table = tiny_trained_setup(t=96)
    cfg = TrainConfig(epochs=2, batch_size=16, lr=1e-3, seed=0)
    result = train(model, table, table, cfg)
    path = write_loss_trace(result.trace, tmp_path / "trace.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "split", "mse", "mae"]
    body = rows[1:]
    assert len(body) == 4  # train and val rows for each of two epochs
    assert [r[1] for r in body] == ["train", "val", "train", "val"]
    assert all(np.isfinite(float(r[2])) for r in body)


# -- optimisation invariant --------------------------------------------------------


def overfit_trace(seed: int, epochs: int, lr: float) -> list[float]:
    """Full-batch training on a short sine, one optimizer step per epoch."""
    cfg = ModelConfig(
        seq_len=24,
        pred_len=8,
        n_channels=1,
        patch_len=8,
        stride=4,
        d_model=16,
        n_heads=2,
        d_ff=32,
        n_encoder_layers=1,
        n_decoder_layers=1,
        dropout=0.0,
        seed=seed,
    )
    model = PatchformerModel.build(cfg)
    table = sine_table(48, 1)
    one_window = table.slice_rows(0, 32)  # only the training loss is read
    cfg = TrainConfig(epochs=epochs, batch_size=64, lr=lr, seed=seed)
    result = train(model, table, one_window, cfg)
    return [row.train_mse for row in result.trace]


def test_loss_decreases_monotonically_after_warmup():
    """Past a 10-step warmup, full-batch loss must fall strictly every step
    for at least 19 of the 20 reference seeds."""
    clean = 0
    worst = []
    for seed in range(20):
        losses = overfit_trace(seed, epochs=200, lr=1e-4)
        tail = losses[10:]
        ok = all(b < a for a, b in zip(tail, tail[1:]))
        clean += ok
        if not ok:
            first_bad = next(
                i + 11 for i, (a, b) in enumerate(zip(tail, tail[1:])) if b >= a
            )
            worst.append((seed, first_bad))
    assert clean >= 19, f"only {clean}/20 seeds decreased cleanly; first violations {worst}"
