"""Acceptance checks, one test per criterion, each printing a PASS/FAIL line.

The two training-based criteria share one desk-scale run through session
fixtures, so the suite trains the reference job twice in total: once for the
learning-signal check and once more to compare against it for determinism.
"""

import re
import time
from dataclasses import replace

import numpy as np
import pytest

from patchformer import (
    AdamState,
    ModelConfig,
    ParameterStore,
    PatchformerModel,
    Tensor,
    TimeSeriesTable,
    adam_step,
    compute_patch_count,
    load_checkpoint,
    mae_metric,
    mse_loss,
    mse_metric,
    patch_grid,
)
from patchformer.cli import RunConfig, main, run_protocol_comparison, run_train
from patchformer.model import LayerNormParams, layer_norm
from patchformer.tensor import softmax_lastdim
from patchformer.training import evaluate


@pytest.fixture
def announce(capsys):
    def _announce(number: int, title: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"{status} criterion {number:>2}: {title}{suffix}")
        assert ok, f"criterion {number}: {title}{suffix}"

    return _announce


def desk_scale_config(out_dir: str) -> RunConfig:
    """The reference recipe shrunk to D=64, d_ff=128 on seeded synthetic data."""
    return RunConfig(
        synth_length=5000,
        synth_channels=5,
        synth_seed=0,
        d_model=64,
        d_ff=128,
        seed=0,
        out_dir=out_dir,
    )


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk_run")
    return run_train(desk_scale_config(str(out)))


@pytest.fixture(scope="session")
def desk_run_repeat(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk_run_repeat")
    return run_train(desk_scale_config(str(out)))


def test_criterion_01_gradient_fidelity(announce, capsys):
    started = time.time()
    exit_code = main(["gradcheck", "--tol", "1e-4"])
    elapsed = time.time() - started
    out = capsys.readouterr().out
    match = re.search(r"max rel err (\S+) vs tol", out)
    max_rel = float(match.group(1)) if match else float("inf")
    ok = exit_code == 0 and max_rel <= 1e-4 and elapsed < 60
    announce(1, "whole-model finite-difference check",
             ok, f"max rel err {max_rel:.3e}, {elapsed:.1f}s")


def test_criterion_02_patch_algebra(announce):
    rng = np.random.default_rng(20240814)
    checked = 0
    for _ in range(200):
        patch_len = int(rng.integers(1, 129))
        stride = int(rng.integers(1, patch_len + 1))
        series_len = int(rng.integers(patch_len, 513))
        x = rng.normal(size=series_len)
        grid = patch_grid(x, patch_len, stride)

        padded = np.concatenate([x, np.full(stride, x[-1])])
        starts = range(0, padded.size - patch_len + 1, stride)
        oracle = np.stack([padded[s : s + patch_len] for s in starts])

        formula = (series_len - patch_len) // stride + 2
        assert len(grid) == formula == len(oracle) == compute_patch_count(series_len, patch_len, stride)
        np.testing.assert_array_equal(grid, oracle)
        checked += 1
    announce(2, "patch count formula vs brute force", checked == 200,
             f"{checked} random geometries, exact")


def test_criterion_03_shape_contract(announce):
    rng = np.random.default_rng(7)
    cases = 0
    for pred_len in (96, 192, 336, 720):
        for channels in (1, 7, 19):
            model = PatchformerModel.build(
                ModelConfig(seq_len=96, pred_len=pred_len, n_channels=channels)
            )
            out = model.forward(rng.normal(size=(96, channels)))
            assert out.shape == (pred_len, channels)
            cases += 1
            del model
    announce(3, "forward emits (O, C) across the horizon grid", cases == 12,
             "O in {96,192,336,720} x C in {1,7,19} at reference defaults")


def test_criterion_04_normalization_invariants(announce):
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(64, 33)) * 30
    sums = softmax_lastdim(Tensor(logits)).data.sum(axis=-1)
    softmax_ok = np.abs(sums - 1.0).max() < 1e-12

    # identity affine; the variance bound needs eps << tolerance * scale since
    # the normalizer divides by (sigma + eps) rather than sigma
    store = ParameterStore(seed=0)
    wide = LayerNormParams.build(store, "wide", 16, eps=1e-5)
    sharp = LayerNormParams.build(store, "sharp", 16, eps=1e-9)
    x_large = rng.normal(size=(12, 16)) * 50.0
    x_unit = rng.normal(size=(12, 16))
    worst_mean = 0.0
    worst_var = 0.0
    for params, x in ((wide, x_large), (sharp, x_unit)):
        out = layer_norm(Tensor(x), params).data
        worst_mean = max(worst_mean, abs(out.mean()))
        worst_var = max(worst_var, abs(out.var() - 1.0))
    norm_ok = worst_mean < 1e-9 and worst_var < 1e-6

    announce(4, "softmax rows sum to 1; layer norm centres and scales",
             softmax_ok and norm_ok,
             f"row-sum err {np.abs(sums - 1.0).max():.1e}, "
             f"mean err {worst_mean:.1e}, var err {worst_var:.1e}")


def test_criterion_05_channel_equivariance(announce):
    cfg = ModelConfig(seq_len=96, pred_len=96, n_channels=7, d_model=64, d_ff=128)
    model = PatchformerModel.build(cfg)
    rng = np.random.default_rng(23)
    x = rng.normal(size=(96, 7))
    base = model.forward(x)
    perms = [np.arange(7)[::-1]] + [rng.permutation(7) for _ in range(3)]
    ok = all(np.array_equal(model.forward(x[:, p]), base[:, p]) for p in perms)
    announce(5, "channel permutation equivariance is bitwise", ok,
             "4 permutations at (96, 7)")


def test_criterion_06_overfit_oracle(announce):
    started = time.time()
    cfg = ModelConfig(
        seq_len=24, pred_len=8, n_channels=1, patch_len=8, stride=4,
        d_model=16, n_heads=2, d_ff=32, n_encoder_layers=1, n_decoder_layers=1,
        dropout=0.0, seed=0,
    )
    model = PatchformerModel.build(cfg)
    steps = np.arange(32, dtype=np.float64)
    wave = np.sin(2 * np.pi * steps / 12.0)
    x = wave[:24].reshape(1, 24, 1)
    y = wave[24:].reshape(1, 8, 1)
    state = AdamState.init(model.store, lr=1e-3)
    final = float("inf")
    for _ in range(500):
        loss = mse_loss(model.forward_batch(x), y)
        adam_step(model.store, state, loss.backward())
        final = loss.item()
        if final < 1e-2:
            break
    elapsed = time.time() - started
    ok = final < 1e-2 and elapsed < 300
    announce(6, "single-sample sine overfit under 500 Adam steps", ok,
             f"train mse {final:.2e}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_07_learning_signal(announce, desk_run):
    model_mse = desk_run.test_report.mse
    baseline_mse = desk_run.baseline_report.mse
    initial = desk_run.result.initial_train_mse
    final = desk_run.result.final_train_mse
    ok = model_mse < baseline_mse and final < 0.5 * initial
    announce(7, "desk-scale run beats repeat-last and halves train loss", ok,
             f"test mse {model_mse:.4f} vs baseline {baseline_mse:.4f}, "
             f"train {initial:.4f} -> {final:.4f}")


@pytest.mark.slow
def test_criterion_08_determinism(announce, desk_run, desk_run_repeat):
    same_trace = desk_run.result.trace == desk_run_repeat.result.trace
    same_reports = (
        desk_run.test_report == desk_run_repeat.test_report
        and desk_run.baseline_report == desk_run_repeat.baseline_report
    )
    announce(8, "re-running the same seed reproduces traces and metrics",
             same_trace and same_reports,
             f"{len(desk_run.result.trace)} trace rows identical")


@pytest.mark.slow
def test_criterion_09_metric_identities(announce, desk_run):
    pred = np.array([1.0, 2.0])
    target = np.array([2.0, 4.0])
    exact = mse_metric(pred, target) == 2.5 and mae_metric(pred, target) == 1.5

    reports = [
        desk_run.test_report,
        desk_run.baseline_report,
    ]
    pairs = [(r.mse, r.mae) for r in reports]
    pairs += [(row.train_mse, row.train_mae) for row in desk_run.result.trace]
    pairs += [(row.val_mse, row.val_mae) for row in desk_run.result.trace]
    jensen = all(mae * mae <= mse * (1 + 1e-12) for mse, mae in pairs)

    announce(9, "hand-derived metric pair exact; mae^2 <= mse on all reports",
             exact and jensen, f"{len(pairs)} (mse, mae) pairs checked")


def test_criterion_10_protocol_plumbing(announce, tmp_path):
    cfg = RunConfig(
        synth_length=600, synth_channels=5, seq_len=32, pred_len=8,
        patch_len=8, stride=4, d_model=16, n_heads=2, d_ff=32,
        epochs=1, batch_size=32, lr=1e-3, seed=0, out_dir=str(tmp_path),
    )
    subset = ("electricity", "gas", "ghg")
    results = run_protocol_comparison(cfg, subset)
    rows = results.rows()
    keys = {(r[1], r[3]) for r in rows}
    expected = {
        ("patchformer", "all_at_once"),
        ("patchformer", "average"),
        ("patchformer", "univariate:electricity"),
        ("patchformer", "univariate:gas"),
        ("patchformer", "univariate:ghg"),
        ("repeat_last", "all_at_once"),
        ("repeat_last", "average"),
    }
    structure_ok = keys == expected and all(r[2] == 8 for r in rows)
    finite_ok = all(np.isfinite(r[4]) and np.isfinite(r[5]) for r in rows)

    by_mode = {(r[1], r[3]): r[4] for r in rows}
    singles = [by_mode[("patchformer", f"univariate:{name}")] for name in subset]
    average_ok = abs(by_mode[("patchformer", "average")] - np.mean(singles)) < 1e-12
    files_ok = (tmp_path / "results.csv").exists() and (tmp_path / "manifest.json").exists()

    announce(10, "all-at-once vs average protocol emits the comparison table",
             structure_ok and finite_ok and average_ok and files_ok,
             f"{len(rows)} rows, average row equals mean of singles")


@pytest.mark.slow
def test_criterion_11_checkpoint_round_trip(announce, desk_run):
    bundle = load_checkpoint(desk_run.best_checkpoint_path)
    direct = evaluate(desk_run.model, desk_run.data.test)
    restored = evaluate(bundle.model, desk_run.data.test)
    ok = direct == restored == desk_run.test_report
    announce(11, "save -> load -> evaluate is bitwise identical", ok,
             f"mse {restored.mse!r} reproduced")
