"""Tests for the attention core, one head at a time, and the multi-head wrapper."""

from dataclasses import replace

import numpy as np
import pytest

from patchformer import (
    AdamState,
    AttentionParams,
    ModelConfig,
    ParameterStore,
    PatchformerModel,
    Rng,
    Tensor,
    adam_step,
    finite_diff_check,
    mse_loss,
    multi_head_attention,
    no_grad,
)
from patchformer.errors import ConfigError, ShapeError
from patchformer.tensor import attention_core

from composite_ops import attention_weights, probed


def make_params(d_model: int, n_heads: int, seed=0):
    store = ParameterStore(seed=seed)
    return store, AttentionParams.build(store, "attn", d_model, n_heads)


# -- single-head mechanics -------------------------------------------------------
#
# One head is ``attention_core`` with n_heads=1 on (1, Z, d) operands: the
# third operand plays the value rows.  The weights are the output for
# identity value rows.


def single_head(q, k, v):
    q, k, v = (Tensor(np.asarray(t)[None]) for t in (q, k, v))
    return attention_core(q, k, v, 1).data[0], attention_weights(q, k, 1)[0, 0]


def test_single_key_returns_value_row(rng_np):
    q = rng_np.normal(size=(3, 4))
    k = rng_np.normal(size=(1, 4))
    v = rng_np.normal(size=(1, 6))
    out, _ = single_head(q, k, v)
    np.testing.assert_array_equal(out, np.broadcast_to(v, (3, 6)))


def test_identical_keys_average_values(rng_np):
    q = rng_np.normal(size=(2, 4))
    k = np.tile(rng_np.normal(size=(1, 4)), (5, 1))
    v = rng_np.normal(size=(5, 3))
    out, _ = single_head(q, k, v)
    np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (2, 1)), atol=1e-12)


def test_zero_query_gives_uniform_weights(rng_np):
    q = np.zeros((2, 4))
    k = rng_np.normal(size=(5, 4))
    v = rng_np.normal(size=(5, 3))
    out, weights = single_head(q, k, v)
    np.testing.assert_allclose(weights, np.full((2, 5), 0.2), atol=1e-12)
    np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (2, 1)), atol=1e-12)


def test_weights_are_row_stochastic(rng_np):
    q = rng_np.normal(size=(4, 6)) * 3
    k = rng_np.normal(size=(7, 6)) * 3
    v = rng_np.normal(size=(7, 2))
    _, weights = single_head(q, k, v)
    assert weights.shape == (4, 7)
    assert np.all(weights >= 0)
    np.testing.assert_allclose(weights.sum(axis=-1), np.ones(4), atol=1e-12)


def test_sharp_logits_select_best_key():
    q = np.array([[100.0, 0.0]])
    k = np.array([[1.0, 0.0], [-1.0, 0.0]])
    v = np.array([[5.0], [9.0]])
    out, _ = single_head(q, k, v)
    np.testing.assert_allclose(out, [[5.0]], atol=1e-12)


def test_kv_mismatch_rejected(rng_np):
    q = rng_np.normal(size=(3, 4))
    k = rng_np.normal(size=(5, 4))
    v = rng_np.normal(size=(4, 2))
    with pytest.raises(ShapeError):
        single_head(q, k, v)


def test_qk_width_mismatch_rejected(rng_np):
    q = rng_np.normal(size=(3, 4))
    k = rng_np.normal(size=(5, 6))
    v = rng_np.normal(size=(5, 2))
    with pytest.raises(ShapeError):
        single_head(q, k, v)


# -- permutation structure -------------------------------------------------------


def test_query_permutation_equivariance(rng_np):
    """Reordering queries reorders outputs identically (no causal mask)."""
    q = rng_np.normal(size=(6, 4))
    k = rng_np.normal(size=(5, 4))
    v = rng_np.normal(size=(5, 3))
    perm = rng_np.permutation(6)
    base, _ = single_head(q, k, v)
    shuffled, _ = single_head(q[perm], k, v)
    np.testing.assert_array_equal(shuffled, base[perm])


def test_key_value_permutation_invariance(rng_np):
    """Attention is a set operation over (key, value) pairs."""
    q = rng_np.normal(size=(3, 4))
    k = rng_np.normal(size=(5, 4))
    v = rng_np.normal(size=(5, 3))
    perm = rng_np.permutation(5)
    base, _ = single_head(q, k, v)
    shuffled, _ = single_head(q, k[perm], v[perm])
    np.testing.assert_allclose(shuffled, base, atol=1e-12)


# -- multi-head wrapper ----------------------------------------------------------


def test_config_defaults_and_divisibility():
    store, params = make_params(d_model=8, n_heads=2)
    assert params.w_query.shape == params.w_key.shape == (8, 8)  # two heads, 4 wide
    with pytest.raises(ConfigError):
        ModelConfig(seq_len=16, pred_len=8, n_channels=1, patch_len=4, stride=2,
                    d_model=6, n_heads=4)


def test_multi_head_output_shape(rng_np):
    store, params = make_params(d_model=8, n_heads=2)
    x = Tensor(rng_np.normal(size=(1, 5, 8)))
    assert multi_head_attention(x, x, params).shape == (1, 5, 8)
    xb = Tensor(rng_np.normal(size=(3, 5, 8)))
    assert multi_head_attention(xb, xb, params).shape == (3, 5, 8)


def test_multi_head_zero_projection_gives_zero(rng_np):
    store, params = make_params(d_model=8, n_heads=2)
    params.w_out.data = np.zeros_like(params.w_out.data)
    x = Tensor(rng_np.normal(size=(1, 5, 8)))
    np.testing.assert_array_equal(multi_head_attention(x, x, params).data, np.zeros((1, 5, 8)))


def test_multi_head_matches_manual_per_head_loop(rng_np):
    """The stacked-weight implementation must equal looping over heads."""
    store, params = make_params(d_model=8, n_heads=2, seed=3)
    x_q = rng_np.normal(size=(5, 8))
    x_kv = rng_np.normal(size=(7, 8))
    out = multi_head_attention(Tensor(x_q[None]), Tensor(x_kv[None]), params).data[0]

    d_k, d_v, heads = 4, 8, 2
    per_head = []
    for h in range(heads):
        wq = params.w_query.data[:, h * d_k : (h + 1) * d_k]
        wk = params.w_key.data[:, h * d_k : (h + 1) * d_k]
        wv = params.w_value.data[:, h * d_v : (h + 1) * d_v]
        scores = (x_q @ wq) @ (x_kv @ wk).T / np.sqrt(d_k)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        per_head.append(weights @ (x_kv @ wv))
    manual = np.concatenate(per_head, axis=-1) @ params.w_out.data
    np.testing.assert_allclose(out, manual, atol=1e-12)


def test_multi_head_cross_attends_to_memory(rng_np):
    """Changing the memory must change the output (cross-attention is live)."""
    store, params = make_params(d_model=8, n_heads=2)
    x_q = Tensor(rng_np.normal(size=(1, 4, 8)))
    mem_a = Tensor(rng_np.normal(size=(1, 6, 8)))
    mem_b = Tensor(rng_np.normal(size=(1, 6, 8)))
    out_a = multi_head_attention(x_q, mem_a, params).data
    out_b = multi_head_attention(x_q, mem_b, params).data
    assert not np.allclose(out_a, out_b)


def test_multi_head_gradients(rng_np):
    store, params = make_params(d_model=4, n_heads=2, seed=5)
    x = Tensor(rng_np.normal(size=(1, 3, 4)))
    probe = rng_np.normal(size=(1, 3, 4))

    def loss():
        return probed(multi_head_attention(x, x, params), probe)

    report = finite_diff_check(loss, store, tol=1e-5)
    assert report.passed, report.format_lines()[-1]


# -- folded value-output map ----------------------------------------------------


def no_grad_forward(model, x):
    with no_grad():
        return model.forward_batch(x).data


def loaded_copy(model):
    """A model built from ``model``'s current weights."""
    return PatchformerModel.build(model.cfg, model.store.state_dict())


def windows(rng_np, cfg, batch=3):
    x = rng_np.normal(size=(batch, cfg.seq_len, cfg.n_channels))
    y = rng_np.normal(size=(batch, cfg.pred_len, cfg.n_channels))
    return x, y


def test_memoised_product_follows_adam_step(tiny_model, rng_np):
    x, y = windows(rng_np, tiny_model.cfg)
    no_grad_forward(tiny_model, x)  # memoises every block's product
    state = AdamState.init(tiny_model.store, lr=1e-2)
    adam_step(tiny_model.store, state, mse_loss(tiny_model.forward_batch(x), y).backward())
    np.testing.assert_array_equal(
        no_grad_forward(tiny_model, x), no_grad_forward(loaded_copy(tiny_model), x)
    )


def test_parameter_arrays_reject_in_place_writes(tiny_model, rng_np):
    x, y = windows(rng_np, tiny_model.cfg)
    store = tiny_model.store

    def assert_read_only(store):
        for _, tensor in store.items():
            with pytest.raises(ValueError):
                tensor.data[...] = 0.0

    assert_read_only(store)  # as built
    assert_read_only(loaded_copy(tiny_model).store)
    grads = mse_loss(tiny_model.forward_batch(x), y).backward()
    adam_step(store, AdamState.init(store, lr=1e-2), grads)
    assert_read_only(store)


def test_memo_skips_writable_arrays(rng_np):
    store, params = make_params(d_model=4, n_heads=2)
    x = Tensor(rng_np.normal(size=(1, 3, 4)))
    params.w_out.data = params.w_out.data.copy()  # writable, assigned from outside
    with no_grad():
        multi_head_attention(x, x, params)
        params.w_out.data[...] = 0.0
        out = multi_head_attention(x, x, params).data
    np.testing.assert_array_equal(out, np.zeros((1, 3, 4)))


def test_grad_mode_forward_equals_no_grad_forward(tiny_model, rng_np):
    assert tiny_model.cfg.dropout == 0.0
    x, _ = windows(rng_np, tiny_model.cfg)
    recorded = tiny_model.forward_batch(x, rng=Rng(0)).data
    np.testing.assert_array_equal(recorded, no_grad_forward(tiny_model, x))
    np.testing.assert_array_equal(recorded, no_grad_forward(tiny_model, x))  # memoised


def graph_nodes(loss):
    """Every recorded node reachable from ``loss``."""
    seen, stack, nodes = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._vjp is not None:
            nodes.append(node)
        stack.extend(node._parents)
    return nodes


def test_training_graph_never_projects_values(tiny_model, rng_np):
    """w_value only enters the graph through the folded product, never a GEMM with activations."""
    x, y = windows(rng_np, tiny_model.cfg)
    loss = mse_loss(tiny_model.forward_batch(x, rng=Rng(0)), y)
    w_values = {id(t): name for name, t in tiny_model.store.items() if name.endswith(".w_value")}
    cfg = tiny_model.cfg
    assert len(w_values) == cfg.n_encoder_layers + 2 * cfg.n_decoder_layers
    gemms = [node for node in graph_nodes(loss) if node.op in ("matmul", "linear")]
    assert {node.op for node in gemms} == {"matmul", "linear"}
    for node in gemms:
        assert not any(id(p) in w_values for p in node._parents), node.op
    grads = loss.backward()
    for name in w_values.values():
        grad = grads.get(tiny_model.store[name])
        assert grad is not None and np.any(grad != 0.0), name


TRAINING_OPS = {
    "add", "attention_core", "dropout", "layer_norm", "linear", "matmul",
    "mse_loss", "relu", "reshape", "take", "transpose",
}


def training_ops(cfg, rng_np, batch):
    model = PatchformerModel.build(cfg)
    x, y = windows(rng_np, cfg, batch)
    loss = mse_loss(model.forward_batch(x, rng=Rng(0)), y)
    return [node.op for node in graph_nodes(loss)]


def test_training_graph_uses_one_node_per_norm_and_attention_block(tiny_config, rng_np):
    cfg = replace(tiny_config, dropout=0.1)
    ops = training_ops(cfg, rng_np, batch=3)
    assert ops.count("layer_norm") == 2 * cfg.n_encoder_layers + 3 * cfg.n_decoder_layers
    assert ops.count("attention_core") == cfg.n_encoder_layers + 2 * cfg.n_decoder_layers
    assert ops.count("mse_loss") == 1
    assert set(ops) == TRAINING_OPS
    # the desk recipe: 5 channels at D=64, d_ff=128, in a batch of 4 windows
    desk = ModelConfig(seq_len=96, pred_len=96, n_channels=5, d_model=64, d_ff=128)
    ops = training_ops(desk, rng_np, batch=4)
    assert set(ops) == TRAINING_OPS
    assert len(ops) == 69
    # each sublayer's dropout and residual add run inside its norm; only the
    # two embeddings (encoder and decoder input) record their own
    assert ops.count("add") == ops.count("dropout") == 2
