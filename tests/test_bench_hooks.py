"""The benchmark tracer must still find, and still call, every library name it rebinds.

``bench/spans.py`` times a run by rebinding public names of the library
(module globals and class attributes).  Deleting or renaming one of them, or
changing a signature its wrapper relies on, breaks only traced benchmark
runs, so these tests install the tracer and run a tiny training step and an
evaluation forecast under it, in well under a second.
"""

import importlib
from pathlib import Path

import numpy as np

from patchformer import ModelConfig, PatchformerModel, Rng, attention, mse_loss, training

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
        mse_loss(model.forward_batch(x, rng=Rng(0)), np.zeros((3, 8, 2))).backward()
        model.forward(x[0])
    recorded = set(tracer.names)
    for name in (
        "tensor.dropout", "attention.self_attn", "attention.cross_attn",
        "model.encoder_layer", "model.decoder_layer", "tensor.backward", "model.forward",
    ):
        assert name in recorded, name
