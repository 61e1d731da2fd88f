"""Tests for layer norm, feed-forward, the two stacks, and checkpointing."""

import json
import math
import re
import sys
import threading
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from patchformer import (
    ModelConfig,
    ParameterStore,
    PatchformerModel,
    Rng,
    Tensor,
    dropout,
    finite_diff_check,
    load_checkpoint,
    mse_loss,
    no_grad,
    save_checkpoint,
)
from patchformer.errors import ConfigError, DataError, ShapeError
from patchformer.model import (
    EVAL_ROWS,
    DecoderLayerParams,
    EncoderLayerParams,
    FeedForwardParams,
    LayerNormParams,
    decoder_layer,
    encoder_layer,
    feed_forward,
    layer_norm,
)


def make_norm(d_model, eps=1e-5, seed=0):
    store = ParameterStore(seed=seed)
    return store, LayerNormParams.build(store, "norm", d_model, eps)


# -- layer norm ------------------------------------------------------------------


def test_layer_norm_constant_input_returns_beta():
    store, params = make_norm(3)
    out = layer_norm(Tensor(np.full((4, 3), 7.0)), params)
    np.testing.assert_array_equal(out.data, np.zeros((4, 3)))
    params.beta.data = np.array([1.0, 2.0, 3.0])
    out = layer_norm(Tensor(np.full((4, 3), 7.0)), params)
    np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0, 3.0], (4, 1)))


def test_layer_norm_two_by_two_oracle():
    store, params = make_norm(2, eps=1e-5)
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = layer_norm(Tensor(x), params)
    expected = (x - 2.5) / (np.sqrt(1.25) + 1e-5)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_layer_norm_normalises_over_block(rng_np):
    """Mean and variance are taken over the whole (Z, D) block jointly."""
    store, params = make_norm(6, eps=1e-9)
    x = rng_np.normal(loc=3.0, scale=2.5, size=(7, 6))
    out = layer_norm(Tensor(x), params).data
    assert abs(out.mean()) < 1e-9
    assert abs(out.var() - 1.0) < 1e-6


def test_layer_norm_affine_is_per_feature(rng_np):
    store, params = make_norm(4, eps=1e-9)
    params.gamma.data = np.array([1.0, 2.0, 3.0, 4.0])
    params.beta.data = np.array([0.5, 0.0, -0.5, 1.0])
    x = rng_np.normal(size=(5, 4))
    base = (x - x.mean()) / (np.sqrt(x.var()) + 1e-9)
    expected = base * params.gamma.data + params.beta.data
    np.testing.assert_allclose(layer_norm(Tensor(x), params).data, expected, atol=1e-12)


def test_layer_norm_batched_blocks_are_independent(rng_np):
    store, params = make_norm(4)
    x = rng_np.normal(size=(3, 5, 4))
    batched = layer_norm(Tensor(x), params).data
    for i in range(3):
        single = layer_norm(Tensor(x[i]), params).data
        np.testing.assert_allclose(batched[i], single, atol=1e-13)


@pytest.mark.parametrize("rate, training", [(0.3, True), (0.3, False), (0.0, True)])
def test_layer_norm_of_a_residual_draws_its_mask_as_dropout_does(rng_np, rate, training):
    """The sublayer mask comes off the stream where ``dropout(sub, rate, rng)`` takes it."""
    store, params = make_norm(4)
    x, sub = (Tensor(rng_np.normal(size=(2, 3, 4))) for _ in range(2))
    fused_rng, chain_rng = (Rng(5), Rng(5)) if training else (None, None)
    fused = layer_norm(x, params, sub, rate, fused_rng)
    chain = layer_norm(x + dropout(sub, rate, chain_rng), params)
    np.testing.assert_array_equal(fused.data, chain.data)
    if training:
        np.testing.assert_array_equal(fused_rng.random(3), chain_rng.random(3))


def test_layer_norm_rejects_vectors():
    store, params = make_norm(4)
    with pytest.raises(ShapeError):
        layer_norm(Tensor(np.ones(4)), params)


# -- random streams --------------------------------------------------------------


@pytest.mark.parametrize("seed, keys", [(0, ()), (3, (11,)), (7, (1, 2))])
def test_rng_child_is_numpy_pcg64_seeded_by_seed_and_keys(seed, keys):
    rng = Rng(seed).child(*keys)
    reference = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *keys])))
    assert isinstance(rng, np.random.Generator)
    for draw in (
        lambda g: g.random((3, 4)),
        lambda g: g.uniform(-1.0, 1.0, (2, 5)),
        lambda g: g.normal(0.0, 2.0, (7,)),
        lambda g: g.integers(0, 100, (6,)),
        lambda g: g.permutation(9),
    ):
        np.testing.assert_array_equal(draw(rng), draw(reference))


@pytest.mark.parametrize("make", [lambda: Rng(-1), lambda: Rng(0).child(2, -1)])
def test_rng_refuses_a_negative_seed_or_key(make):
    with pytest.raises(ConfigError, match="non-negative"):
        make()


# -- feed-forward ----------------------------------------------------------------


def test_feed_forward_zero_weights_returns_bias(rng_np):
    store = ParameterStore(seed=0)
    params = FeedForwardParams.build(store, "ffn", 4, 8)
    params.w1.data = np.zeros_like(params.w1.data)
    params.w2.data = np.zeros_like(params.w2.data)
    params.b2.data = np.array([1.0, 2.0, 3.0, 4.0])
    out = feed_forward(Tensor(rng_np.normal(size=(5, 4))), params)
    np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0, 3.0, 4.0], (5, 1)))


def test_feed_forward_composition_oracle(rng_np):
    store = ParameterStore(seed=1)
    params = FeedForwardParams.build(store, "ffn", 3, 6)
    x = rng_np.normal(size=(4, 3))
    hidden = np.maximum(x @ params.w1.data + params.b1.data, 0.0)
    expected = hidden @ params.w2.data + params.b2.data
    np.testing.assert_allclose(feed_forward(Tensor(x), params).data, expected, atol=1e-12)


def test_feed_forward_shape(rng_np):
    store = ParameterStore(seed=0)
    params = FeedForwardParams.build(store, "ffn", 4, 16)
    assert feed_forward(Tensor(rng_np.normal(size=(2, 5, 4))), params).shape == (2, 5, 4)


# -- encoder / decoder layers ----------------------------------------------------


def reference_cfg(**overrides):
    base = dict(
        seq_len=16,
        pred_len=8,
        n_channels=2,
        patch_len=4,
        stride=2,
        d_model=8,
        n_heads=2,
        d_ff=16,
        n_encoder_layers=1,
        n_decoder_layers=1,
        dropout=0.0,
        seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def zero_sublayer_weights(params):
    for attn_name in ("attn", "self_attn", "cross_attn"):
        attn = getattr(params, attn_name, None)
        if attn is not None:
            attn.w_out.data = np.zeros_like(attn.w_out.data)
    params.ffn.w2.data = np.zeros_like(params.ffn.w2.data)
    params.ffn.b2.data = np.zeros_like(params.ffn.b2.data)


def test_encoder_layer_with_dead_sublayers_is_double_norm(rng_np):
    cfg = reference_cfg()
    store = ParameterStore(seed=0)
    params = EncoderLayerParams.build(store, "enc", cfg)
    zero_sublayer_weights(params)
    x = rng_np.normal(size=(1, 6, 8))
    out = encoder_layer(Tensor(x), params)
    expected = layer_norm(layer_norm(Tensor(x), params.norm1), params.norm2)
    np.testing.assert_allclose(out.data, expected.data, atol=1e-13)


def test_decoder_layer_uses_memory(rng_np):
    cfg = reference_cfg()
    store = ParameterStore(seed=0)
    params = DecoderLayerParams.build(store, "dec", cfg)
    x = Tensor(rng_np.normal(size=(1, 5, 8)))
    mem_a = Tensor(rng_np.normal(size=(1, 6, 8)))
    mem_b = Tensor(rng_np.normal(size=(1, 6, 8)))
    out_a = decoder_layer(x, mem_a, params).data
    out_b = decoder_layer(x, mem_b, params).data
    assert not np.allclose(out_a, out_b)


def test_decoder_layer_ignores_memory_when_cross_projection_dead(rng_np):
    cfg = reference_cfg()
    store = ParameterStore(seed=0)
    params = DecoderLayerParams.build(store, "dec", cfg)
    params.cross_attn.w_out.data = np.zeros_like(params.cross_attn.w_out.data)
    x = Tensor(rng_np.normal(size=(1, 5, 8)))
    mem_a = Tensor(rng_np.normal(size=(1, 6, 8)))
    mem_b = Tensor(rng_np.normal(size=(1, 6, 8)))
    np.testing.assert_array_equal(
        decoder_layer(x, mem_a, params).data, decoder_layer(x, mem_b, params).data
    )


# -- configuration arithmetic ----------------------------------------------------


def test_reference_geometry_patch_counts():
    cfg = ModelConfig(seq_len=96, pred_len=96, n_channels=7)
    assert cfg.label_len == 48
    assert cfg.decoder_len == 144
    assert cfg.ffn_width == 2048
    from patchformer import compute_patch_count

    assert compute_patch_count(cfg.seq_len, cfg.patch_len, cfg.stride) == 12
    assert compute_patch_count(cfg.decoder_len, cfg.patch_len, cfg.stride) == 18
    # The position table holds max(12, 18) rows; its height depends only on
    # the geometry, so a narrow model shows it without a D=512 build.
    narrow = PatchformerModel.build(replace(cfg, d_model=8, n_heads=2))
    assert narrow.embedding.position.shape[0] == 18


def test_config_validation():
    with pytest.raises(ConfigError):
        reference_cfg(dropout=1.0)
    with pytest.raises(ConfigError):
        reference_cfg(seq_len=3)  # shorter than one patch
    with pytest.raises(ConfigError):
        reference_cfg(n_encoder_layers=0)
    with pytest.raises(ConfigError):
        reference_cfg(pred_len=0)
    with pytest.raises(ConfigError):
        reference_cfg(stride=5)  # wider than the patch
    for d_model, n_heads in ((0, 2), (8, 0), (-8, 2), (6, 4)):
        with pytest.raises(ConfigError, match="multiple of n_heads"):
            reference_cfg(d_model=d_model, n_heads=n_heads)


# -- whole model -----------------------------------------------------------------


def test_forward_output_shape(tiny_model, rng_np):
    x = rng_np.normal(size=(16, 2))
    out = tiny_model.forward(x)
    assert out.shape == (8, 2)
    assert np.all(np.isfinite(out))


def test_forward_rejects_wrong_length(tiny_model, rng_np):
    with pytest.raises(ShapeError):
        tiny_model.forward(rng_np.normal(size=(15, 2)))


def test_empty_batch_is_a_shape_error(tiny_model):
    with pytest.raises(ShapeError, match="non-empty"):
        tiny_model.forward_batch(np.zeros((0, 16, 2)))
    with pytest.raises(ShapeError, match="non-empty"):
        tiny_model.forward_series(np.zeros((0, 16)))


def test_forward_refuses_a_tensor(tiny_model, rng_np):
    """Forwards take raw series; a Tensor is a ShapeError that names the type."""
    x = rng_np.normal(size=(3, 16, 2))
    calls = (
        (tiny_model.forward_series, x[:, :, 0]),
        (tiny_model.forward_batch, x),
        (tiny_model.forward, x[0]),
    )
    for forward, values in calls:
        with pytest.raises(ShapeError, match="got a Tensor"):
            forward(Tensor(values))


EVAL_SHAPE = dict(
    seq_len=96, pred_len=96, n_channels=1, patch_len=16, stride=8, d_model=64,
    n_heads=8, d_ff=128, n_encoder_layers=2, n_decoder_layers=1, seed=0,
)


@pytest.mark.parametrize(
    "shape, rows, atol",
    [
        ({}, 4 * EVAL_ROWS + 10, 0.0),
        (EVAL_SHAPE, 2 * EVAL_ROWS + 1, 0.0),
        ({**EVAL_SHAPE, "pred_len": 24}, 2 * EVAL_ROWS + 1, 1e-12),
    ],
    ids=["tiny", "eval_shape", "short_horizon"],
)
def test_no_grad_forward_runs_in_blocks(tiny_config, rng_np, shape, rows, atol):
    """A no_grad forward runs near-equal blocks of at most EVAL_ROWS rows.

    Rows never mix, so blocking changes only the row count of each GEMM,
    which a BLAS may use to pick its kernel.  At the tiny and the rolling
    evaluation shapes every block and the single pass land on the same
    kernel (OpenBLAS 0.3.31), and the result is bitwise the grad-mode single
    pass; 65 rows split 22/22/21, not 32/32/1, whose 1-row tail would sum
    the 1,152-long head GEMM in another order.  At pred_len 24 the head GEMM
    is short enough that a block may take OpenBLAS's small-matrix kernel
    while the whole pass does not (43 rows against 129 did), so the two are
    held only to rounding.
    """
    model = PatchformerModel.build(replace(tiny_config, **shape))
    x = rng_np.normal(size=(rows, model.cfg.seq_len))
    single = model.forward_series(x).data  # grad mode: one pass
    inner = model._series_pass
    blocks = []

    def counted(part, rng):
        blocks.append(len(part))
        return inner(part, rng)

    model._series_pass = counted
    with no_grad():
        blocked = model.forward_series(x).data
    assert sum(blocks) == rows and len(blocks) > 2
    assert max(blocks) <= EVAL_ROWS and max(blocks) - min(blocks) <= 1
    np.testing.assert_allclose(blocked, single, rtol=0, atol=atol)


def test_forward_batch_matches_forward(tiny_model, rng_np):
    x = rng_np.normal(size=(16, 2))
    single = tiny_model.forward(x)
    batched = tiny_model.forward_batch(x[None]).data[0]
    np.testing.assert_array_equal(batched, single)


def test_forward_runs_all_channels_in_one_pass(rng_np):
    model = PatchformerModel.build(reference_cfg(n_channels=5))
    inner = model.forward_series
    calls = []

    def counted(x, *args, **kwargs):
        calls.append(np.shape(x))
        return inner(x, *args, **kwargs)

    model.forward_series = counted
    out = model.forward(rng_np.normal(size=(16, 5)))
    assert calls == [(5, 16)]
    assert out.shape == (8, 5) and out.flags.c_contiguous


def test_forward_matches_per_channel_reference(tiny_model, rng_np):
    """The folded pass agrees with one forward_series call per channel."""
    x = rng_np.normal(size=(16, 2))
    reference = np.stack(
        [tiny_model.forward_series(x[:, c][None, :]).data[0] for c in range(2)], axis=1
    )
    np.testing.assert_allclose(tiny_model.forward(x), reference, rtol=0, atol=1e-12)


def test_decoder_series_layout(tiny_model):
    x = np.arange(1.0, 17.0)
    dec = tiny_model.decoder_series(x[None, :])[0]
    assert dec.shape == (16,)  # label half plus horizon
    np.testing.assert_array_equal(dec[:8], x[8:])
    np.testing.assert_array_equal(dec[8:], np.zeros(8))


def test_forward_is_deterministic(tiny_model, rng_np):
    x = rng_np.normal(size=(16, 2))
    first = tiny_model.forward(x)
    second = tiny_model.forward(x)
    np.testing.assert_array_equal(first, second)


def test_threads_share_weights_and_return_the_serial_gradients(tiny_config, rng_np):
    """Threads train and evaluate one model at once; each gets what a serial call returns.

    Two threads each run forward and backward on their own input while two
    more evaluate under ``no_grad``: more threads than cores, with a short
    switch interval.  A grad mode shared across threads would leave a
    training graph unrecorded and its gradient map short.
    """
    model = PatchformerModel.build(replace(tiny_config, dropout=0.1))
    inputs = [
        (rng_np.normal(size=(3, 16, 2)), rng_np.normal(size=(3, 8, 2))) for _ in range(2)
    ]

    def train_step(x, y):
        return mse_loss(model.forward_batch(x, Rng(0)), y).backward()

    def evaluate(x):
        with no_grad():
            return model.forward_batch(x).data

    serial = [train_step(x, y) for x, y in inputs] + [evaluate(x) for x, _ in inputs]
    jobs = [lambda i=i: train_step(*inputs[i]) for i in range(2)]
    jobs += [lambda i=i: evaluate(inputs[i][0]) for i in range(2)]
    start = threading.Barrier(len(jobs), timeout=30)
    results = [[] for _ in jobs]

    def run(i):
        start.wait()
        for _ in range(3):
            results[i].append(jobs[i]())

    workers = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for ours, expected in zip(results[:2], serial[:2]):
        assert len(ours) == 3
        for grads in ours:
            assert list(grads) == list(expected)
            assert all(grads[leaf].tobytes() == g.tobytes() for leaf, g in expected.items())
    for ours, expected in zip(results[2:], serial[2:]):
        assert len(ours) == 3 and all(out.tobytes() == expected.tobytes() for out in ours)
    head = model.store["head.weight"]
    assert serial[0][head].tobytes() != serial[1][head].tobytes()


def test_channel_permutation_equivariance(tiny_config, rng_np):
    """Channels never mix: permuting input columns permutes output columns."""
    cfg = reference_cfg(n_channels=5)
    model = PatchformerModel.build(cfg)
    x = rng_np.normal(size=(16, 5))
    perm = np.array([3, 0, 4, 1, 2])
    base = model.forward(x)
    shuffled = model.forward(x[:, perm])
    np.testing.assert_array_equal(shuffled, base[:, perm])


def test_extra_channels_reuse_same_weights(rng_np):
    """A channel's forecast depends only on its own history."""
    cfg_small = reference_cfg(n_channels=2)
    cfg_large = reference_cfg(n_channels=6)
    x = rng_np.normal(size=(16, 6))
    small = PatchformerModel.build(cfg_small).forward(x[:, :2])
    large = PatchformerModel.build(cfg_large).forward(x)
    np.testing.assert_array_equal(large[:, :2], small)


def test_whole_model_gradcheck(tiny_model, rng_np):
    x = rng_np.normal(size=(1, 16, 2))
    y = rng_np.normal(size=(1, 8, 2))

    def loss():
        from patchformer import mse_loss

        return mse_loss(tiny_model.forward_batch(x), y)

    report = finite_diff_check(loss, tiny_model.store, eps=1e-4, tol=1e-4)
    assert report.passed, report.format_lines()[-1]


# -- checkpointing ---------------------------------------------------------------


def save_fitted(model, path, **overrides):
    """``save_checkpoint`` with an identity scaler and channel names that fit ``model``."""
    n = model.cfg.n_channels
    saved = dict(
        scaler_mean=np.zeros(n), scaler_std=np.ones(n),
        channel_names=[f"c{i}" for i in range(n)],
    )
    return save_checkpoint(model, path, **{**saved, **overrides})


def rewrite_checkpoint(path, edit) -> None:
    """Apply ``edit(arrays, meta)`` to a saved checkpoint's arrays and JSON meta, in place."""
    with np.load(path) as bundle:
        arrays = dict(bundle)
    meta = json.loads(str(arrays["meta"]))
    edit(arrays, meta)
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


def rewrite_meta(path, edit) -> None:
    """Apply ``edit`` to the JSON meta entry of a saved checkpoint, in place."""
    rewrite_checkpoint(path, lambda arrays, meta: edit(meta))


def test_checkpoint_round_trip_bit_exact(tiny_model, tmp_path, rng_np):
    x = rng_np.normal(size=(16, 2))
    before = tiny_model.forward(x)
    path = save_checkpoint(
        tiny_model,
        tmp_path / "model.npz",
        scaler_mean=np.array([1.0, 2.0]),
        scaler_std=np.array([3.0, 4.0]),
        channel_names=["a", "b"],
        extra={"note": "round trip"},
    )
    bundle = load_checkpoint(path)
    assert bundle.model.cfg == tiny_model.cfg
    assert bundle.channel_names == ["a", "b"]
    assert bundle.extra == {"note": "round trip"}
    np.testing.assert_array_equal(bundle.scaler_mean, [1.0, 2.0])
    np.testing.assert_array_equal(bundle.scaler_std, [3.0, 4.0])
    for (name_a, t_a), (name_b, t_b) in zip(tiny_model.store.items(), bundle.model.store.items()):
        assert name_a == name_b
        np.testing.assert_array_equal(t_a.data, t_b.data)
    np.testing.assert_array_equal(bundle.model.forward(x), before)


def test_checkpoint_appends_suffix(tiny_model, tmp_path):
    path = save_fitted(tiny_model, tmp_path / "weights")
    assert path.name == "weights.npz"
    assert load_checkpoint(path).channel_names == ["c0", "c1"]


def test_checkpoint_scaler_restores_or_refuses(tiny_model, tmp_path):
    path = save_fitted(
        tiny_model, tmp_path / "model.npz",
        scaler_mean=np.array([1.0, 2.0]), scaler_std=np.array([3.0, 4.0]),
    )
    scaler = load_checkpoint(path).scaler()
    np.testing.assert_array_equal(scaler.inverse(np.zeros((1, 2))), [[1.0, 2.0]])
    # bare weights and config, with no scaler
    bare = save_fitted(tiny_model, tmp_path / "bare.npz")
    for key in ("scaler.mean", "scaler.std"):
        rewrite_checkpoint(bare, lambda arrays, meta: arrays.pop(key))
    with pytest.raises(DataError, match=re.escape(f"{bare}: no scaler state")):
        load_checkpoint(bare)


RETIRED_KEYS = pytest.mark.parametrize("key", ["d_v", "d_k"])


@RETIRED_KEYS
def test_load_checkpoint_reads_null_retired_key(key, tiny_model, tmp_path, rng_np):
    """Format-1 files written while configs had ``d_v`` and ``d_k`` fields store them as null."""
    path = save_fitted(tiny_model, tmp_path / "model.npz")
    rewrite_meta(path, lambda meta: meta["config"].update({key: None}))
    x = rng_np.normal(size=(16, 2))
    np.testing.assert_array_equal(load_checkpoint(path).model.forward(x), tiny_model.forward(x))


def test_load_checkpoint_reads_retired_layer_norm_eps(tiny_model, tmp_path, rng_np):
    """Format-1 files written while configs had a ``layer_norm_eps`` field store it as 1e-05."""
    path = save_fitted(tiny_model, tmp_path / "model.npz")
    rewrite_meta(path, lambda meta: meta["config"].update(layer_norm_eps=1e-05))
    x = rng_np.normal(size=(16, 2))
    np.testing.assert_array_equal(load_checkpoint(path).model.forward(x), tiny_model.forward(x))


@RETIRED_KEYS
def test_load_checkpoint_rejects_narrow_retired_key(key, tiny_model, tmp_path):
    path = save_fitted(tiny_model, tmp_path / "model.npz")
    rewrite_meta(path, lambda meta: meta["config"].update({key: 4}))
    with pytest.raises(DataError, match=f"{key}=4"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda c: c.update(bogus=1), "bogus=1"),
        (lambda c: c.update(seq_len="16"), "seq_len='16'"),
        (lambda c: c.update(dropout="0.1"), "dropout='0.1'"),
        (lambda c: c.update(d_ff=16.5), "d_ff=16.5"),
        (lambda c: c.update(n_heads=True), "n_heads=True"),
        (lambda c: c.update(seq_len=None), "seq_len=None"),
        (lambda c: c.pop("n_channels"), "n_channels"),
        (lambda c: c.update(dropout=1.5), "dropout must be in [0, 1), got 1.5"),
        (lambda c: c.update(layer_norm_eps=math.nan), "layer_norm_eps=nan"),
        (lambda c: c.update(layer_norm_eps=math.inf), "layer_norm_eps=inf"),
        (lambda c: c.update(layer_norm_eps=1e-6), "layer_norm_eps=1e-06"),
    ],
    ids=[
        "unknown-key", "str-int", "str-float", "float-int", "bool-int", "null-int", "missing",
        "dropout-out-of-range", "eps-nan", "eps-inf", "eps-other",
    ],
)
def test_load_checkpoint_rejects_bad_config_entry(edit, named, tiny_model, tmp_path):
    path = save_fitted(tiny_model, tmp_path / "model.npz")
    rewrite_meta(path, lambda meta: edit(meta["config"]))
    with pytest.raises(DataError, match=re.escape(named)):
        load_checkpoint(path)


def test_checkpoint_scaler_must_be_paired(tiny_model, tmp_path):
    for key in ("scaler.mean", "scaler.std"):
        path = save_fitted(tiny_model, tmp_path / "model.npz")
        rewrite_checkpoint(path, lambda arrays, meta: arrays.pop(key))
        with pytest.raises(DataError, match=re.escape(f"{path}: no scaler state")):
            load_checkpoint(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda meta: meta.pop("channel_names"),
        lambda meta: meta.update(channel_names=None),
        lambda meta: meta.update(channel_names="ab"),
        lambda meta: meta.update(channel_names=[1, 2]),
        lambda meta: meta.update(channel_names={"a": 0, "b": 1}),
    ],
    ids=["missing", "null", "string", "numbers", "mapping"],
)
def test_load_checkpoint_requires_a_list_of_channel_names(edit, tiny_model, tmp_path):
    path = save_fitted(tiny_model, tmp_path / "model.npz")
    rewrite_meta(path, edit)
    with pytest.raises(DataError, match=re.escape(f"{path}: channel names must be a list")):
        load_checkpoint(path)


# Every ModelConfig field is a number; zero is a valid dropout and seed.
HOSTILE_NUMBERS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "0": 0, "-1": -1}
HOSTILE_CONFIG_ENTRIES = [
    (f.name, label)
    for f in fields(ModelConfig)
    for label in HOSTILE_NUMBERS
    if (f.name, label) not in {("dropout", "0"), ("seed", "0")}
]


@pytest.mark.parametrize(
    "key, label", HOSTILE_CONFIG_ENTRIES, ids=[f"{k}={v}" for k, v in HOSTILE_CONFIG_ENTRIES]
)
def test_load_checkpoint_refuses_nan_inf_zero_and_negative_config_values(
    key, label, tiny_model, tmp_path
):
    path = save_fitted(tiny_model, tmp_path / "model.npz")
    rewrite_meta(path, lambda meta: meta["config"].update({key: HOSTILE_NUMBERS[label]}))
    with pytest.raises(DataError, match=re.escape(f"{path}: ")):
        load_checkpoint(path)


def test_load_checkpoint_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_checkpoint(tmp_path / "missing.npz")


def test_load_checkpoint_rejects_foreign_npz(tmp_path):
    path = tmp_path / "other.npz"
    np.savez(path, values=np.ones(3))
    with pytest.raises(DataError):
        load_checkpoint(path)


CHANNEL_MISMATCHES = pytest.mark.parametrize(
    "saved, message",
    [
        ({"channel_names": ["a", "b", "c"]}, "3 channel names for a 2-channel model"),
        ({"scaler_mean": np.zeros(1), "scaler_std": np.ones(1)}, r"scaler mean has shape \(1,\)"),
        ({"scaler_mean": np.zeros(2), "scaler_std": np.ones(3)}, r"scaler std has shape \(3,\)"),
    ],
)


@CHANNEL_MISMATCHES
def test_save_checkpoint_rejects_channel_count_mismatch(tiny_model, tmp_path, saved, message):
    path = tmp_path / "model.npz"
    with pytest.raises(DataError, match=message):
        save_fitted(tiny_model, path, **saved)
    assert not path.exists()


@CHANNEL_MISMATCHES
def test_load_checkpoint_rejects_channel_count_mismatch(tiny_model, tmp_path, saved, message):
    # save_checkpoint refuses these, so patch them into a valid file.
    path = save_fitted(tiny_model, tmp_path / "model.npz")

    def patch(arrays, meta):
        meta["channel_names"] = saved.get("channel_names", meta["channel_names"])
        arrays["scaler.mean"] = saved.get("scaler_mean", arrays["scaler.mean"])
        arrays["scaler.std"] = saved.get("scaler_std", arrays["scaler.std"])

    rewrite_checkpoint(path, patch)
    with pytest.raises(DataError, match=message):
        load_checkpoint(path)


def test_build_rejects_state_name_and_shape_mismatch(tiny_model):
    state = tiny_model.store.state_dict()
    renamed = dict(state)
    renamed["bogus"] = renamed.pop(next(iter(renamed)))
    with pytest.raises(ConfigError):
        PatchformerModel.build(tiny_model.cfg, renamed)
    reshaped = dict(state)
    first = next(iter(reshaped))
    reshaped[first] = np.zeros((1, 1, 1))
    with pytest.raises(ShapeError):
        PatchformerModel.build(tiny_model.cfg, reshaped)


def test_build_from_state_keeps_no_given_array(tiny_model):
    state = tiny_model.store.state_dict()
    given = [weakref.ref(values) for values in state.values()]
    built = PatchformerModel.build(tiny_model.cfg, state)
    assert state == {}  # each array is popped out as it is copied
    assert all(ref() is None for ref in given)
    for name, tensor in built.store.items():
        np.testing.assert_array_equal(tensor.data, tiny_model.store[name].data)


def test_load_checkpoint_peak_holds_one_copy_of_the_weights(tmp_path):
    """Each loaded array is dropped as its owned copy is made, so they never all coexist."""
    cfg = ModelConfig(seq_len=96, pred_len=96, n_channels=1, d_model=128)
    path = save_fitted(PatchformerModel.build(cfg), tmp_path / "model.npz")
    tracemalloc.start()
    try:
        model = load_checkpoint(path).model
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    weights = sum(tensor.data.nbytes for _, tensor in model.store.items())
    assert peak <= 1.2 * weights, f"load peak {peak / weights:.2f}x the weight bytes"


def test_load_checkpoint_draws_nothing(tiny_model, tmp_path, rng_np, monkeypatch):
    path = save_fitted(tiny_model, tmp_path / "model.npz")

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint drew a random number")

    for method in ("random", "uniform", "normal", "integers", "permutation"):
        monkeypatch.setattr(Rng, method, refuse)
    restored = load_checkpoint(path).model
    x = rng_np.normal(size=(tiny_model.cfg.seq_len, tiny_model.cfg.n_channels))
    np.testing.assert_array_equal(restored.forward(x), tiny_model.forward(x))


def test_loaded_model_memoises_every_attention_product(tiny_model, tmp_path, rng_np):
    """Loaded arrays are copied into owned, read-only ones, which the memo accepts."""
    model = load_checkpoint(save_fitted(tiny_model, tmp_path / "model.npz")).model
    for _, tensor in model.store.items():
        assert tensor.data.flags.owndata and not tensor.data.flags.writeable
    model.forward(rng_np.normal(size=(model.cfg.seq_len, model.cfg.n_channels)))
    blocks = [layer.attn for layer in model.encoder_layers] + [
        attn for layer in model.decoder_layers for attn in (layer.self_attn, layer.cross_attn)
    ]
    assert all(block._memo is not None for block in blocks)


def test_random_small_configs_build_train_and_round_trip():
    """Seeded fuzz: every small config builds, trains a step, evaluates and reloads."""
    draw = np.random.default_rng(2024)
    built = 0
    while built < 150:
        patch_len = int(draw.integers(1, 7))
        n_heads = int(draw.integers(1, 4))
        raw = dict(
            seq_len=int(draw.integers(1, 25)),
            pred_len=int(draw.integers(1, 13)),
            n_channels=int(draw.integers(1, 4)),
            patch_len=patch_len,
            stride=int(draw.integers(1, patch_len + 1)),
            d_model=n_heads * int(draw.integers(1, 5)),
            n_heads=n_heads,
            d_ff=int(draw.integers(1, 17)) if draw.random() < 0.5 else None,
            n_encoder_layers=int(draw.integers(1, 3)),
            n_decoder_layers=int(draw.integers(1, 3)),
            dropout=float(draw.uniform(0.0, 0.5)),
            seed=int(draw.integers(0, 2**31)),
        )
        try:
            cfg = ModelConfig(**raw)
        except ConfigError:
            continue  # typed: a short series for its patches
        built += 1
        model = PatchformerModel.build(cfg)
        x = draw.normal(size=(2, cfg.seq_len, cfg.n_channels))
        y = draw.normal(size=(2, cfg.pred_len, cfg.n_channels))
        pred = model.forward_batch(x, Rng(cfg.seed).child(1))
        grads = mse_loss(pred, y).backward()
        assert all(tensor in grads for _, tensor in model.store.items()), raw
        forecast = model.forward(x[0])
        assert forecast.shape == (cfg.pred_len, cfg.n_channels) and np.isfinite(forecast).all()
        reloaded = PatchformerModel.build(cfg, model.store.state_dict())
        np.testing.assert_array_equal(reloaded.forward(x[0]), forecast)
