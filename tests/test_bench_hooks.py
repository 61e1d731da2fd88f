"""The benchmark tracer must still find, and still call, every library name it rebinds.

``bench/spans.py`` times a run by rebinding public names of the library
(module globals and class attributes).  Deleting or renaming one of them, or
changing a signature its wrapper relies on, breaks only traced benchmark
runs, so these tests install the tracer and run a tiny training step and an
evaluation forecast under it, in well under a second.  The last test runs
every workload once at its self-test size, as `bench/run.py` calls it.
"""

import importlib
from pathlib import Path

import numpy as np

from patchformer import (
    AdamState,
    ModelConfig,
    PatchformerModel,
    Rng,
    TimeSeriesTable,
    attention,
    mse_loss,
    training,
)
from patchformer.model import EVAL_ROWS

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def test_bench_tracer_installs_and_restores(monkeypatch):
    spans = load_spans(monkeypatch)
    originals = {
        (training, "evaluate"): vars(training)["evaluate"],
        (attention, "softmax_lastdim"): vars(attention)["softmax_lastdim"],
    }
    with spans.Tracer().installed():
        for (owner, attr), fn in originals.items():
            assert vars(owner)[attr] is not fn
    for (owner, attr), fn in originals.items():
        assert vars(owner)[attr] is fn


def test_bench_tracer_records_a_training_step_and_a_forecast(monkeypatch):
    spans = load_spans(monkeypatch)
    cfg = ModelConfig(
        seq_len=16, pred_len=8, n_channels=2, patch_len=4, stride=2, d_model=8, n_heads=2,
        d_ff=16, dropout=0.1,
    )
    x = np.random.default_rng(0).normal(size=(3, 16, 2))
    tracer = spans.Tracer()
    with tracer.installed():
        model = PatchformerModel.build(cfg)
        grads = mse_loss(model.forward_batch(x, rng=Rng(0)), np.zeros((3, 8, 2))).backward()
        training.adam_step(model.store, AdamState.init(model.store, lr=1e-3), grads)
        model.forward(x[0])
    # the wrappers hand back what the wrapped calls return
    assert set(grads) == {tensor for _, tensor in model.store.items()}
    recorded = set(tracer.names)
    for name in (
        "tensor.dropout", "attention.self_attn", "attention.cross_attn",
        "model.encoder_layer", "model.decoder_layer", "model.layer_norm", "tensor.backward",
        "training.adam", "model.forward",
    ):
        assert name in recorded, name


def test_bench_tracer_records_a_blocked_evaluation(monkeypatch):
    """``evaluate`` under the tracer: one forward per batch, the layers once per block."""
    spans = load_spans(monkeypatch)
    cfg = ModelConfig(
        seq_len=16, pred_len=8, n_channels=3, patch_len=4, stride=2, d_model=8, n_heads=2,
        d_ff=16, n_encoder_layers=1, n_decoder_layers=1,
    )
    values = np.random.default_rng(0).normal(size=(70, 3))
    table = TimeSeriesTable([str(i) for i in range(70)], values, ["a", "b", "c"])
    tracer = spans.Tracer()
    with tracer.installed():
        report = training.evaluate(PatchformerModel.build(cfg), table, batch_size=32)
    assert report.n_windows == 47  # batches of 32 and 15 windows: 96 and 45 series rows
    blocks = sum(-(-rows // EVAL_ROWS) for rows in (96, 45))
    names = tracer.names
    per_block = {"model.encoder_layer": 1, "attention.self_attn": 2, "attention.cross_attn": 1}
    assert names.count("training.evaluate") == 1
    assert names.count("model.forward_batch") == names.count("model.forward_series") == 2
    for name, count in per_block.items():
        assert names.count(name) == blocks * count, name
    series = [i for i, name in enumerate(names) if name == "model.forward_series"]
    layers = [i for i, name in enumerate(names) if name == "model.encoder_layer"]
    assert {tracer.parents[i] for i in layers} == set(series)


def test_every_bench_workload_runs_once_at_the_tiny_size(monkeypatch, tmp_path):
    """Each workload calls the library as the benchmark does, and all its checks pass."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class(workloads.SIZES["tiny"])
        workdir = tmp_path / name
        workdir.mkdir()
        workload.make_inputs(0, workdir)
        checks = workloads.Checks()
        workload.timed(workload.setup(), 0, checks)
        assert checks.attempted > 0 and checks.failed == 0, (name, checks.failures)
