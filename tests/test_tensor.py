"""Tests for the reverse-mode tensor core.

Every differentiable primitive gets a central-difference comparison on random
seeded inputs, plus hand-computed oracles where a closed form is short enough
to write down.
"""

import math
import warnings

import numpy as np
import pytest

from patchformer import Tensor, concat, dropout, no_grad, pad_last, unfold_windows
from patchformer.errors import ConfigError, ShapeError
from patchformer.params import Rng
from patchformer.tensor import (
    attention_core,
    dropout_mask,
    layer_norm,
    linear,
    matmul,
    reduce_mean,
    reduce_sum,
    relu,
    reshape,
    softmax_lastdim,
    take,
    transpose,
)


def analytic_grad(fn, x0: np.ndarray) -> np.ndarray:
    leaf = Tensor(x0.copy(), requires_grad=True)
    fn(leaf).backward()
    assert leaf.grad is not None, "no gradient reached the leaf"
    return leaf.grad.copy()


def numeric_grad(fn, x0: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x0, dtype=np.float64)
    flat = grad.reshape(-1)
    for i in range(x0.size):
        plus = x0.copy()
        minus = x0.copy()
        plus.reshape(-1)[i] += eps
        minus.reshape(-1)[i] -= eps
        with no_grad():
            flat[i] = (fn(Tensor(plus)).item() - fn(Tensor(minus)).item()) / (2 * eps)
    return grad


def check_primitive(fn, x0: np.ndarray, tol: float = 1e-5):
    a = analytic_grad(fn, x0)
    n = numeric_grad(fn, x0)
    rel = np.abs(a - n) / np.maximum(1e-8, np.abs(a) + np.abs(n))
    assert rel.max() < tol, f"max rel err {rel.max():.3e} exceeds {tol}"


# -- forward oracles -----------------------------------------------------------


def test_matmul_oracle():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Tensor(np.array([[1.0], [1.0]]))
    out = matmul(a, b)
    assert out.data.tolist() == [[3.0], [7.0]]


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_softmax_oracle():
    out = softmax_lastdim(Tensor(np.array([0.0, math.log(3.0)])))
    np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-15)


def test_softmax_uniform_on_ties():
    out = softmax_lastdim(Tensor(np.array([0.0, 0.0])))
    np.testing.assert_array_equal(out.data, [0.5, 0.5])


def test_softmax_survives_large_logits():
    out = softmax_lastdim(Tensor(np.array([1000.0, 1000.0])))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_array_equal(out.data, [0.5, 0.5])


def test_softmax_shift_invariance(rng_np):
    x = rng_np.normal(size=(3, 5))
    base = softmax_lastdim(Tensor(x)).data
    shifted = softmax_lastdim(Tensor(x + 123.456)).data
    np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_softmax_rows_sum_to_one(rng_np):
    x = rng_np.normal(size=(4, 7)) * 10
    out = softmax_lastdim(Tensor(x)).data
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(4), atol=1e-12)


def identity_affine(width: int) -> tuple[Tensor, Tensor]:
    return Tensor(np.ones(width)), Tensor(np.zeros(width))


def test_layer_norm_oracle():
    # mean 2.5 and population variance 1.25
    out = layer_norm(Tensor(np.array([[1.0, 2.0, 3.0, 4.0]])), *identity_affine(4), eps=0.0)
    expected = (np.array([[1.0, 2.0, 3.0, 4.0]]) - 2.5) / np.sqrt(1.25)
    np.testing.assert_array_equal(out.data, expected)


def test_layer_norm_block_statistics(rng_np):
    x = rng_np.normal(size=(2, 3, 4))
    out = layer_norm(Tensor(x), *identity_affine(4), eps=1e-5)
    mean = x.mean(axis=(1, 2), keepdims=True)
    var = x.var(axis=(1, 2), keepdims=True)
    np.testing.assert_allclose(out.data, (x - mean) / (np.sqrt(var) + 1e-5), atol=1e-12)


def test_relu_forward_and_grad():
    x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
    out = relu(x)
    assert out.data.tolist() == [0.0, 0.0, 2.0]
    out.sum().backward()
    assert x.grad.tolist() == [0.0, 0.0, 1.0]


def test_relu_propagates_nan():
    x = Tensor(np.array([np.nan, -1.0, 2.0]), requires_grad=True)
    out = relu(x)
    assert np.isnan(out.data[0])
    assert out.data[1:].tolist() == [0.0, 2.0]
    (out * Tensor(np.array([0.0, 1.0, 1.0]))).sum().backward()
    assert x.grad.tolist() == [0.0, 0.0, 1.0]


def test_reshape_row_major_order():
    t = reshape(Tensor(np.arange(1.0, 7.0)), (2, 3))
    assert t.data.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


def test_pad_last_repeats_final_element():
    t = pad_last(Tensor(np.array([[1.0, 2.0, 3.0]])), 2)
    assert t.data.tolist() == [[1.0, 2.0, 3.0, 3.0, 3.0]]


def test_unfold_windows_oracle():
    t = unfold_windows(Tensor(np.arange(1.0, 7.0)[None, :]), size=3, step=2)
    assert t.data.tolist() == [[[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]]]


def test_concat_axis0():
    out = concat([Tensor(np.ones((1, 2))), Tensor(np.zeros((2, 2)))], axis=0)
    assert out.shape == (3, 2)
    assert out.data[0].tolist() == [1.0, 1.0]


def test_item_rejects_vectors():
    with pytest.raises(ShapeError):
        Tensor(np.ones(3)).item()


# -- backward oracles ----------------------------------------------------------


def test_sum_gradient_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_sum_of_squares_gradient():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    (x * x).sum().backward()
    assert x.grad.tolist() == [2.0, 4.0]


def test_three_op_chain_exact():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = (x * 2.0 + 3.0) ** 2
    y.sum().backward()
    assert x.grad.tolist() == [20.0, 28.0]


def test_broadcast_add_unbroadcasts_grad():
    a = Tensor(np.zeros((2, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    (a + b).sum().backward()
    np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
    np.testing.assert_array_equal(b.grad, np.full(3, 2.0))


def test_detach_blocks_gradient():
    x = Tensor(np.array([3.0]), requires_grad=True)
    (x.detach() * x.detach()).sum().backward()
    assert x.grad is None


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        (x * 2.0).backward()


def test_repeated_backward_accumulates():
    x = Tensor(np.array([2.0]), requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    first = x.grad.copy()
    loss.backward()
    np.testing.assert_array_equal(x.grad, 2 * first)


def test_no_grad_builds_no_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        out = (x * 2.0).sum()
    out.backward()
    assert x.grad is None


def test_shared_node_gradient_adds():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = x * 2.0
    (y + y).sum().backward()
    assert x.grad.tolist() == [4.0]


# -- per-primitive finite differences ------------------------------------------


def test_grad_add_broadcast(rng_np):
    w = rng_np.normal(size=(2, 3))
    check_primitive(lambda t: (t + Tensor(np.arange(3.0))).sum(), w)


def test_grad_sub(rng_np):
    check_primitive(lambda t: (Tensor(np.ones((2, 3))) - t).sum(), rng_np.normal(size=(2, 3)))


def test_grad_mul_broadcast(rng_np):
    w = rng_np.normal(size=(2, 3))
    factor = Tensor(rng_np.normal(size=(3,)))
    check_primitive(lambda t: (t * factor).sum(), w)


def test_grad_div(rng_np):
    w = rng_np.normal(size=(2, 3)) + 5.0
    check_primitive(lambda t: (Tensor(np.ones((2, 3))) / t).sum(), w)


def test_grad_neg_pow(rng_np):
    w = np.abs(rng_np.normal(size=(4,))) + 0.5
    check_primitive(lambda t: ((-t) ** 3).sum(), w)


def test_grad_sqrt(rng_np):
    w = np.abs(rng_np.normal(size=(4,))) + 0.5
    check_primitive(lambda t: t.sqrt().sum(), w)


def test_grad_relu_away_from_kink(rng_np):
    w = rng_np.normal(size=(3, 3))
    w[np.abs(w) < 0.1] = 0.5
    check_primitive(lambda t: t.relu().sum(), w)


def test_grad_matmul_left(rng_np):
    b = Tensor(rng_np.normal(size=(3, 2)))
    check_primitive(lambda t: matmul(t, b).sum(), rng_np.normal(size=(4, 3)))


def test_grad_matmul_right(rng_np):
    a = Tensor(rng_np.normal(size=(4, 3)))
    check_primitive(lambda t: matmul(a, t).sum(), rng_np.normal(size=(3, 2)))


def test_grad_matmul_batched_left(rng_np):
    b = Tensor(rng_np.normal(size=(3, 2)))
    check_primitive(lambda t: matmul(t, b).sum(), rng_np.normal(size=(2, 4, 3)))


def test_grad_matmul_batched_right(rng_np):
    a = Tensor(rng_np.normal(size=(2, 4, 3)))
    check_primitive(lambda t: matmul(a, t).sum(), rng_np.normal(size=(3, 2)))


def test_grad_matmul_both_batched(rng_np):
    b = Tensor(rng_np.normal(size=(2, 3, 2)))
    check_primitive(lambda t: matmul(t, b).sum(), rng_np.normal(size=(2, 4, 3)))


def test_batched_matmul_fold_matches_loop(rng_np):
    a = rng_np.normal(size=(3, 5, 4))
    b = rng_np.normal(size=(4, 2))
    folded = matmul(Tensor(a), Tensor(b)).data
    looped = np.stack([a[i] @ b for i in range(3)])
    np.testing.assert_allclose(folded, looped, atol=1e-13)


def test_grad_reshape_transpose(rng_np):
    w = rng_np.normal(size=(2, 6))
    check_primitive(lambda t: (transpose(reshape(t, (3, 4))) ** 2).sum(), w)


def test_grad_take_slice(rng_np):
    w = rng_np.normal(size=(5, 3))
    check_primitive(lambda t: (take(t, slice(1, 4)) ** 2).sum(), w)


def test_grad_concat(rng_np):
    other = Tensor(rng_np.normal(size=(2, 3)))
    check_primitive(lambda t: (concat([t, other], axis=0) ** 2).sum(), rng_np.normal(size=(2, 3)))


def test_grad_reduce_sum_axis(rng_np):
    w = rng_np.normal(size=(2, 3, 4))
    check_primitive(lambda t: (reduce_sum(t, axis=(0, 2)) ** 2).sum(), w)


def test_grad_reduce_mean(rng_np):
    w = rng_np.normal(size=(3, 4))
    check_primitive(lambda t: (reduce_mean(t, axis=1) ** 2).sum(), w)


def test_grad_layer_norm(rng_np):
    w = rng_np.normal(size=(2, 8))
    probe = Tensor(rng_np.normal(size=(2, 8)))
    check_primitive(lambda t: (layer_norm(t, *identity_affine(8), eps=1e-5) * probe).sum(), w)


def test_grad_softmax(rng_np):
    w = rng_np.normal(size=(3, 5))
    probe = Tensor(rng_np.normal(size=(3, 5)))
    check_primitive(lambda t: (softmax_lastdim(t) * probe).sum(), w)


def test_grad_pad_last(rng_np):
    w = rng_np.normal(size=(2, 5))
    probe = Tensor(rng_np.normal(size=(2, 8)))
    check_primitive(lambda t: (pad_last(t, 3) * probe).sum(), w)


def test_grad_unfold_windows(rng_np):
    w = rng_np.normal(size=(2, 10))
    probe = Tensor(rng_np.normal(size=(2, 4, 4)))
    check_primitive(lambda t: (unfold_windows(t, 4, 2) * probe).sum(), w)


def test_grad_dropout_with_pinned_mask(rng_np):
    w = rng_np.normal(size=(4, 4))

    def fn(t):
        return (dropout(t, 0.5, Rng(7).child(5)) ** 2).sum()

    check_primitive(fn, w)


# -- dropout semantics ----------------------------------------------------------


def test_dropout_identity_when_not_training():
    x = Tensor(np.ones((3, 3)))
    out = dropout(x, 0.5, None)
    assert out is x


def test_dropout_identity_at_rate_zero():
    x = Tensor(np.ones((3, 3)))
    out = dropout(x, 0.0, Rng(0))
    assert out is x


def test_dropout_scales_survivors():
    x = Tensor(np.ones((100, 100)))
    out = dropout(x, 0.5, Rng(0).child(1))
    values = np.unique(out.data)
    assert set(values.tolist()) == {0.0, 2.0}
    assert abs(out.data.mean() - 1.0) < 0.05


def test_dropout_rejects_bad_rate():
    with pytest.raises(ConfigError):
        dropout(Tensor(np.ones(3)), 1.0, Rng(0))
    with pytest.raises(ConfigError):
        dropout(Tensor(np.ones(3)), -0.1, Rng(0))


# -- fused primitives against the composite expressions they replace -------------


def composite_layer_norm(x, gamma, beta, eps):
    mean = reduce_mean(x, (-2, -1), keepdims=True)
    centered = x - mean
    var = reduce_mean(centered * centered, (-2, -1), keepdims=True)
    return (centered / (var.sqrt() + eps)) * gamma + beta


def composite_linear(x, w, b=None):
    out = matmul(x, w)
    return out if b is None else out + b


def composite_attention_core(q, k, x_kv, n_heads, keep):
    b, z_q, width = q.shape
    z_kv, d = k.shape[1], width // n_heads
    q_heads = q.reshape(b, z_q, n_heads, d).transpose((0, 2, 1, 3))
    k_heads = k.reshape(b, z_kv, n_heads, d).transpose((0, 2, 1, 3))
    weights = softmax_lastdim((q_heads @ k_heads.transpose((0, 1, 3, 2))) * (1.0 / math.sqrt(d)))
    if keep is not None:
        weights = weights * Tensor(keep)
    stacked = weights.transpose((0, 2, 1, 3)).reshape(b, z_q * n_heads, z_kv)
    return (stacked @ x_kv).reshape(b, z_q, n_heads * x_kv.shape[-1]), weights


def assert_same_vjp(fused, composite, inputs):
    """Forward values and every input gradient agree to 1e-12."""
    results = []
    for fn in (fused, composite):
        leaves = [Tensor(x.copy(), requires_grad=True) for x in inputs]
        out = fn(*leaves)
        probe = np.random.default_rng(99).normal(size=out.shape)
        (out * Tensor(probe)).sum().backward()
        results.append((out.data, [leaf.grad for leaf in leaves]))
    (out_f, grads_f), (out_c, grads_c) = results
    np.testing.assert_allclose(out_f, out_c, rtol=1e-12, atol=1e-12)
    for gf, gc in zip(grads_f, grads_c):
        np.testing.assert_allclose(gf, gc, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_layer_norm_matches_composite(seed):
    rng = np.random.default_rng(seed)
    lead = tuple(rng.integers(1, 4, size=rng.integers(0, 3)))
    z, d = rng.integers(1, 6, size=2)
    inputs = [
        rng.normal(loc=rng.normal(), scale=rng.uniform(0.1, 5.0), size=(*lead, z, d)),
        rng.normal(size=d),
        rng.normal(size=d),
    ]
    eps = float(rng.choice([1e-5, 1e-9]))
    assert_same_vjp(
        lambda x, g, b: layer_norm(x, g, b, eps),
        lambda x, g, b: composite_layer_norm(x, g, b, eps),
        inputs,
    )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("bias", [False, True])
def test_linear_matches_composite(seed, bias):
    rng = np.random.default_rng(seed)
    lead = tuple(rng.integers(1, 4, size=rng.integers(1, 4)))
    n, m = rng.integers(1, 6, size=2)
    inputs = [rng.normal(size=(*lead, n)), rng.normal(size=(n, m))]
    if bias:
        inputs.append(rng.normal(size=m))
    assert_same_vjp(linear, composite_linear, inputs)


def attention_case(seed: int, with_keep: bool):
    """Random (q, k, x_kv, heads, keep) with Z_q != Z_kv and B = 1 on even seeds."""
    rng = np.random.default_rng(seed)
    b = 1 if seed % 2 == 0 else int(rng.integers(2, 4))
    z_q = int(rng.integers(1, 5))
    z_kv = z_q + int(rng.integers(1, 3))
    heads, d, d_v = (int(v) for v in rng.integers(1, 4, size=3))
    q = rng.normal(size=(b, z_q, heads * d))
    k = rng.normal(size=(b, z_kv, heads * d))
    x_kv = rng.normal(size=(b, z_kv, d_v))
    keep = dropout_mask((b, heads, z_q, z_kv), 0.3, rng) if with_keep else None
    return [q, k, x_kv], heads, keep


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("with_keep", [False, True])
def test_attention_core_matches_composite(seed, with_keep):
    inputs, heads, keep = attention_case(seed, with_keep)
    assert_same_vjp(
        lambda q, k, x: attention_core(q, k, x, heads, keep)[0],
        lambda q, k, x: composite_attention_core(q, k, x, heads, keep)[0],
        inputs,
    )
    fused = attention_core(*map(Tensor, inputs), heads, keep)[1]
    composite = composite_attention_core(*map(Tensor, inputs), heads, keep)[1].data
    np.testing.assert_allclose(fused, composite, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("which", range(3))
def test_grad_layer_norm_each_input(rng_np, which):
    inputs = [rng_np.normal(size=(2, 3, 4)), rng_np.normal(size=4), rng_np.normal(size=4)]
    probe = Tensor(rng_np.normal(size=(2, 3, 4)))

    def fn(t):
        args = [Tensor(x) for x in inputs]
        args[which] = t
        return (layer_norm(*args, eps=1e-5) * probe).sum()

    check_primitive(fn, inputs[which])


def test_layer_norm_constant_block_has_finite_gradients(rng_np):
    """A flat (Z, D) block has std 0; its std term must be 0, not 0 / 0."""
    x = Tensor(np.full((3, 4), 7.0), requires_grad=True)
    probe = Tensor(rng_np.normal(size=(3, 4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        (layer_norm(x, *identity_affine(4), eps=1e-5) * probe).sum().backward()
    assert np.all(np.isfinite(x.grad))
    # with std 0 the block is divided by eps alone, minus its mean
    g = probe.data / 1e-5
    np.testing.assert_allclose(x.grad, g - g.mean(), rtol=1e-12)


@pytest.mark.parametrize("which", range(3))
def test_grad_linear_each_input(rng_np, which):
    inputs = [rng_np.normal(size=(2, 3, 4)), rng_np.normal(size=(4, 5)), rng_np.normal(size=5)]
    probe = Tensor(rng_np.normal(size=(2, 3, 5)))

    def fn(t):
        args = [Tensor(x) for x in inputs]
        args[which] = t
        return (linear(*args) * probe).sum()

    check_primitive(fn, inputs[which])


@pytest.mark.parametrize("which", range(3))
@pytest.mark.parametrize("with_keep", [False, True])
def test_grad_attention_core_each_input(which, with_keep):
    inputs, heads, keep = attention_case(1, with_keep)
    q, _, x_kv = inputs
    probe = Tensor(np.random.default_rng(5).normal(size=(*q.shape[:2], heads * x_kv.shape[2])))

    def fn(t):
        args = [Tensor(x) for x in inputs]
        args[which] = t
        return (attention_core(*args, heads, keep)[0] * probe).sum()

    check_primitive(fn, inputs[which])


def test_fused_primitives_reject_bad_shapes():
    with pytest.raises(ShapeError):
        layer_norm(Tensor(np.ones(4)), *identity_affine(4), eps=1e-5)
    with pytest.raises(ShapeError):
        layer_norm(Tensor(np.ones((2, 4))), *identity_affine(3), eps=1e-5)
    with pytest.raises(ShapeError):
        linear(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 5))))
    with pytest.raises(ShapeError):
        linear(Tensor(np.ones((2, 4))), Tensor(np.ones((4, 5))), Tensor(np.ones(4)))
    q = Tensor(np.ones((1, 2, 6)))
    with pytest.raises(ShapeError):
        attention_core(q, Tensor(np.ones((1, 3, 6))), Tensor(np.ones((1, 3, 4))), 4)
    with pytest.raises(ShapeError):
        attention_core(q, Tensor(np.ones((1, 3, 6))), Tensor(np.ones((1, 2, 4))), 2)
