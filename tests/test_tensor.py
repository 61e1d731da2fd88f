"""Tests for the reverse-mode tensor core.

Every differentiable primitive gets a central-difference comparison on random
seeded inputs, plus hand-computed oracles where a closed form is short enough
to write down.  Scalar losses come from ``probed`` and the finer ops of
``composite_ops``, which the core itself does not carry.
"""

import math
import operator
import threading
import warnings

import numpy as np
import pytest

from patchformer import ParameterStore, Tensor, dropout, finite_diff_check, no_grad, patch_grid
from patchformer.errors import ConfigError, ShapeError
from patchformer.params import Rng
from patchformer.tensor import (
    Mask,
    Masks,
    attention_core,
    feed_forward,
    grad_enabled,
    layer_norm,
    linear,
    matmul,
    mse_loss,
    reshape,
    softmax_lastdim,
    take,
    transpose,
)

from composite_ops import (
    attention_weights,
    composite_feed_forward,
    composite_mse_loss,
    composite_residual_norm,
    div,
    mul,
    probed,
    reduce_mean,
    reduce_sum,
    relu,
    sqrt,
    sub,
)


def analytic_grad(fn, x0: np.ndarray) -> np.ndarray:
    leaf = Tensor(x0.copy(), requires_grad=True)
    grads = fn(leaf).backward()
    assert leaf in grads, "no gradient reached the leaf"
    return grads[leaf]


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


def random_shape(rng, min_ndim: int = 1, max_ndim: int = 3) -> tuple[int, ...]:
    """A seeded shape of ``min_ndim`` to ``max_ndim`` axes, each 2 to 4 long."""
    return tuple(int(n) for n in rng.integers(2, 5, size=rng.integers(min_ndim, max_ndim + 1)))


def check_broadcast_binary(op, b_offset: float = 0.0):
    """Finite differences through both operands of ``op`` at seeded broadcast shapes.

    The second operand has a size-1 axis and, on most seeds, fewer leading
    axes, so its gradient must be summed over both kinds of broadcast axis.
    ``b_offset`` pushes its values that far away from zero.
    """
    for seed in range(6):
        rng = np.random.default_rng(seed)
        full = random_shape(rng, min_ndim=2)
        part = list(full[rng.integers(0, len(full)) :])
        part[rng.integers(len(part))] = 1
        a, b = rng.normal(size=full), rng.normal(size=part)
        b += b_offset * np.sign(b)
        probe = rng.normal(size=full)
        check_primitive(lambda t: probed(op(t, Tensor(b)), probe), a)
        check_primitive(lambda t: probed(op(Tensor(a), t), probe), b)


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


def unit_feed_forward(x: Tensor) -> Tensor:
    """``feed_forward`` of (..., 1) ``x`` with 1x1 unit weights and zero biases: its ReLU."""
    one, zero = Tensor(np.ones((1, 1))), Tensor(np.zeros(1))
    return feed_forward(x, one, zero, one, zero)


def test_feed_forward_relu_forward_and_grad():
    x = Tensor(np.array([[-1.0], [0.0], [2.0]]), requires_grad=True)
    out = unit_feed_forward(x)
    assert out.data.ravel().tolist() == [0.0, 0.0, 2.0]
    assert reduce_sum(out).backward()[x].ravel().tolist() == [0.0, 0.0, 1.0]


def test_feed_forward_propagates_nan():
    x = Tensor(np.array([[np.nan], [-1.0], [2.0]]), requires_grad=True)
    out = unit_feed_forward(x)
    assert np.isnan(out.data[0, 0])
    assert out.data[1:, 0].tolist() == [0.0, 2.0]
    # a gradient reaches every row, but none passes the NaN or the negative entry
    assert probed(out, [1.0, 1.0, 1.0]).backward()[x].ravel().tolist() == [0.0, 0.0, 1.0]


def test_feed_forward_rejects_mismatched_shapes():
    x, w1, b1 = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(4))
    w2, b2 = Tensor(np.ones((4, 5))), Tensor(np.ones(5))
    assert feed_forward(x, w1, b1, w2, b2).shape == (2, 5)
    for args in (
        (Tensor(np.ones((2, 4))), w1, b1, w2, b2),
        (x, w1, Tensor(np.ones(3)), w2, b2),
        (x, w1, b1, Tensor(np.ones((3, 5))), b2),
        (x, w1, b1, w2, Tensor(np.ones(4))),
        (x, Tensor(np.ones(3)), b1, w2, b2),
    ):
        with pytest.raises(ShapeError, match="feed_forward needs"):
            feed_forward(*args)


def test_reshape_row_major_order():
    t = reshape(Tensor(np.arange(1.0, 7.0)), (2, 3))
    assert t.data.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


# Padding and windowing run in numpy before the graph (``patch_grid``); these
# pin the cut that the graph's first op, the patch projection, receives.


def test_pad_last_repeats_final_element():
    # a patch that starts on the last value is filled with copies of it
    grid = patch_grid(np.array([[1.0, 2.0, 3.0]]), 3, 2)
    assert grid[:, -1].tolist() == [[3.0, 3.0, 3.0]]


def test_unfold_windows_oracle():
    grid = patch_grid(np.arange(1.0, 7.0)[None, :], 3, 2)
    assert grid.tolist() == [[[1.0, 2.0, 3.0], [3.0, 4.0, 5.0], [5.0, 6.0, 6.0]]]


def test_item_rejects_vectors():
    with pytest.raises(ShapeError):
        Tensor(np.ones(3)).item()


# -- backward oracles ----------------------------------------------------------


def test_sum_gradient_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    np.testing.assert_array_equal(reduce_sum(x).backward()[x], np.ones((2, 3)))


def test_sum_of_squares_gradient():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    assert reduce_sum(mul(x, x)).backward()[x].tolist() == [2.0, 4.0]


def test_three_op_chain_exact():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    inner = mul(x, 2.0) + Tensor(3.0)
    assert reduce_sum(mul(inner, inner)).backward()[x].tolist() == [20.0, 28.0]


def test_broadcast_add_unbroadcasts_grad():
    a = Tensor(np.zeros((2, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    grads = reduce_sum(a + b).backward()
    np.testing.assert_array_equal(grads[a], np.ones((2, 3)))
    np.testing.assert_array_equal(grads[b], np.full(3, 2.0))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        (x + x).backward()


def test_backward_returns_equal_maps_and_stores_nothing(rng_np):
    # two leaves of one ``add`` receive the same upstream array; the map must
    # hold independent copies, and a second walk must see an untouched graph
    a = Tensor(rng_np.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng_np.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng_np.normal(size=(4, 2)), requires_grad=True)
    loss = probed(linear(relu(a + b), w), rng_np.normal(size=(3, 2)))
    first = loss.backward()
    second = loss.backward()
    assert list(first) == list(second) and set(first) == {a, b, w}
    for leaf in first:
        assert first[leaf].tobytes() == second[leaf].tobytes()
    assert first[a] is not first[b] and not np.shares_memory(first[a], first[b])
    assert not any(hasattr(t, "grad") for t in (a, b, w, loss))


def test_backward_skips_leaves_without_requires_grad():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    c = Tensor(np.array([3.0, 4.0]))
    assert set(reduce_sum(x + c).backward()) == {x}


def test_no_grad_builds_no_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        out = reduce_sum(x + x)
    assert out.backward() == {}


def test_no_grad_in_another_thread_leaves_this_thread_recording(rng_np):
    inside, release = threading.Event(), threading.Event()
    seen = {}

    def hold_no_grad():
        with no_grad():
            seen["enabled"] = grad_enabled()
            inside.set()
            release.wait(timeout=30)
        seen["after"] = grad_enabled()

    w = Tensor(rng_np.normal(size=(3, 2)), requires_grad=True)
    worker = threading.Thread(target=hold_no_grad)
    worker.start()
    try:
        assert inside.wait(timeout=30)
        out = linear(Tensor(rng_np.normal(size=(4, 3))), w)
        recording = grad_enabled()
    finally:
        release.set()
        worker.join(timeout=30)
    assert not worker.is_alive()
    assert seen == {"enabled": False, "after": True}
    assert recording and out._vjp is not None and out.op == "linear"
    assert w in probed(out, rng_np.normal(size=(4, 2))).backward()


def test_shared_node_gradient_adds():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = mul(x, 2.0)
    assert reduce_sum(y + y).backward()[x].tolist() == [4.0]


# -- per-primitive finite differences ------------------------------------------


def test_grad_add_broadcast():
    check_broadcast_binary(lambda a, b: a + b)


def test_grad_sub():
    check_broadcast_binary(sub)


def test_grad_mul_broadcast():
    check_broadcast_binary(mul)


def test_grad_div():
    check_broadcast_binary(div, b_offset=0.5)


def test_grad_sqrt():
    """``sqrt`` of a positive base, at seeded shapes."""
    for seed in range(6):
        rng = np.random.default_rng(seed)
        w = np.abs(rng.normal(size=random_shape(rng))) + 0.5
        probe = rng.normal(size=w.shape)
        check_primitive(lambda t: probed(sqrt(t), probe), w)


def feed_forward_case(seed: int) -> list[np.ndarray]:
    """Random (x, w1, b1, w2, b2) with 0 to 2 leading axes.

    Redrawn until every hidden pre-activation is at least 0.1 from the ReLU
    kink, so a finite-difference step never crosses it.
    """
    rng = np.random.default_rng(seed)
    while True:
        lead = tuple(rng.integers(1, 4, size=rng.integers(0, 3)))
        n, f, m = (int(v) for v in rng.integers(1, 5, size=3))
        inputs = [
            rng.normal(size=(*lead, n)), rng.normal(size=(n, f)), rng.normal(size=f),
            rng.normal(size=(f, m)), rng.normal(size=m),
        ]
        if np.all(np.abs(inputs[0] @ inputs[1] + inputs[2]) >= 0.1):
            return inputs


@pytest.mark.parametrize("which", range(5))
def test_grad_feed_forward_away_from_kink(which):
    """Finite differences through each input of the fused node, at seeded shapes."""
    for seed in range(6):
        inputs = feed_forward_case(seed)
        out_shape = (*inputs[0].shape[:-1], len(inputs[4]))
        probe = np.random.default_rng(seed + 10).normal(size=out_shape)

        def fn(t):
            args = [Tensor(v) for v in inputs]
            args[which] = t
            return probed(feed_forward(*args), probe)

        check_primitive(fn, inputs[which])


def desk_feed_forward_case() -> list[np.ndarray]:
    """The desk widths, D=64 and d_ff=128, over 20 series of 12 tokens."""
    rng = np.random.default_rng(7)
    shapes = [(20, 12, 64), (64, 128), (128,), (128, 64), (64,)]
    return [rng.normal(size=shape) for shape in shapes]


@pytest.mark.parametrize("case", [*(f"seed{seed}" for seed in range(6)), "desk"])
def test_feed_forward_is_bitwise_its_composite(case):
    """``feed_forward`` is ``linear(relu(linear(x, w1, b1)), w2, b2)``, value and VJP."""
    inputs = desk_feed_forward_case() if case == "desk" else feed_forward_case(int(case[4:]))
    results = []
    for fn in (feed_forward, composite_feed_forward):
        leaves = [Tensor(v.copy(), requires_grad=True) for v in inputs]
        out = fn(*leaves)
        grads = probed(out, np.random.default_rng(99).normal(size=out.shape)).backward()
        results.append([out.data] + [grads[leaf] for leaf in leaves])
    for fused, composite in zip(*results):
        np.testing.assert_array_equal(fused, composite)


def check_matmul(batches, which: int):
    """Finite differences through operand ``which`` of ``a @ b`` at seeded shapes.

    ``batches(rng)`` gives the leading (batch) axes of ``a`` and of ``b``.
    """
    for seed in range(6):
        rng = np.random.default_rng(seed)
        a_batch, b_batch = batches(rng)
        m, k, n = random_shape(rng, 3, 3)
        inputs = [rng.normal(size=(*a_batch, m, k)), rng.normal(size=(*b_batch, k, n))]
        probe = rng.normal(size=np.matmul(*inputs).shape)

        def fn(t):
            args = [Tensor(x) for x in inputs]
            args[which] = t
            return probed(matmul(*args), probe)

        check_primitive(fn, inputs[which])


def broadcast_batches(rng):
    """``a`` batched (n1, 1); ``b`` (1, n2), or (n2,) with fewer leading axes."""
    n1, n2 = random_shape(rng, 2, 2)
    return (n1, 1), ((1, n2) if rng.random() < 0.5 else (n2,))


def test_grad_matmul_left():
    check_matmul(lambda rng: ((), ()), 0)


def test_grad_matmul_right():
    check_matmul(lambda rng: ((), ()), 1)


def test_grad_matmul_batched_left():
    check_matmul(lambda rng: (random_shape(rng, 1, 2), ()), 0)


def test_grad_matmul_batched_right():
    check_matmul(lambda rng: (random_shape(rng, 1, 2), ()), 1)


def test_grad_matmul_both_batched():
    for which in (0, 1):
        check_matmul(broadcast_batches, which)


def test_batched_matmul_fold_matches_loop(rng_np):
    a = rng_np.normal(size=(3, 5, 4))
    b = rng_np.normal(size=(4, 2))
    folded = matmul(Tensor(a), Tensor(b)).data
    looped = np.stack([a[i] @ b for i in range(3)])
    np.testing.assert_allclose(folded, looped, atol=1e-13)


def test_grad_reshape_transpose():
    """Reshape to a reordering of the axis lengths, then a seeded transpose."""
    for seed in range(6):
        rng = np.random.default_rng(seed)
        shape = random_shape(rng, 2)
        reordered = tuple(int(n) for n in rng.permutation(shape))
        axes = tuple(int(a) for a in rng.permutation(len(shape)))
        out_shape = tuple(reordered[a] for a in axes)
        probe = rng.normal(size=out_shape)
        w = rng.normal(size=shape)
        check_primitive(lambda t: probed(transpose(reshape(t, reordered), axes), probe), w)


def test_grad_take_slice():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        shape = random_shape(rng)
        # an integer or a stepped slice per axis
        index = tuple(
            int(rng.integers(n)) if rng.random() < 0.3
            else slice(int(rng.integers(n)), n, int(rng.integers(1, 3)))
            for n in shape
        )
        w = rng.normal(size=shape)
        probe = rng.normal(size=w[index].shape)
        check_primitive(lambda t: probed(take(t, index), probe), w)


def check_reduction(reduce):
    """Finite differences through ``reduce`` over seeded axes, with and without keepdims."""
    for seed in range(6):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=random_shape(rng))
        picked = rng.permutation(w.ndim)[: rng.integers(1, w.ndim + 1)]
        # negative axes on odd seeds; a bare int for one axis
        axis = tuple(int(a) - (w.ndim if seed % 2 else 0) for a in picked)
        axis = axis[0] if len(axis) == 1 else axis
        keepdims = bool(rng.integers(2))
        probe = rng.normal(size=reduce(Tensor(w), axis, keepdims).shape)
        check_primitive(lambda t: probed(reduce(t, axis, keepdims), probe), w)


def test_grad_reduce_sum_axis():
    check_reduction(reduce_sum)


def test_grad_reduce_mean():
    check_reduction(reduce_mean)


def test_grad_layer_norm(rng_np):
    w = rng_np.normal(size=(2, 8))
    probe = rng_np.normal(size=(2, 8))
    check_primitive(lambda t: probed(layer_norm(t, *identity_affine(8), eps=1e-5), probe), w)


def test_grad_softmax():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=random_shape(rng))
        probe = rng.normal(size=w.shape)
        check_primitive(lambda t: probed(softmax_lastdim(t), probe), w)


def test_grad_dropout_with_pinned_mask():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=random_shape(rng))
        rate = float(rng.uniform(0.1, 0.7))
        probe = rng.normal(size=w.shape)

        def fn(t):
            return probed(dropout(t, Masks(rate, Rng(7).child(seed))), probe)

        check_primitive(fn, w)


# -- dropout semantics ----------------------------------------------------------


def test_dropout_identity_when_not_training():
    x = Tensor(np.ones((3, 3)))
    out = dropout(x, None)
    assert out is x


def test_dropout_identity_at_rate_zero():
    x = Tensor(np.ones((3, 3)))
    rng = Rng(0)
    out = dropout(x, Masks(0.0, rng))
    assert out is x
    # at rate 0 the stream is left untouched
    np.testing.assert_array_equal(rng.random(3), Rng(0).random(3))


def test_dropout_scales_survivors():
    x = Tensor(np.ones((100, 100)))
    out = dropout(x, Masks(0.5, Rng(0).child(1)))
    values = np.unique(out.data)
    assert set(values.tolist()) == {0.0, 2.0}
    assert abs(out.data.mean() - 1.0) < 0.05


@pytest.mark.parametrize("rate", [0.1, 0.3, 0.9])
def test_mask_keeps_bits_and_rebuilds_the_float_mask_bitwise(rate):
    """``Mask.multiplier()`` is ``(u >= rate) / (1 - rate)`` of the stream's next uniforms."""
    rng, twin = Rng(11), Rng(11)
    shape = (3, 4, 5)
    keep = Masks(rate, rng).draw(shape)
    assert isinstance(keep, Mask) and keep.kept.dtype == np.bool_ and keep.shape == shape
    expected = (twin.random(shape) >= rate) / (1 - rate)
    assert keep.multiplier().tobytes() == expected.tobytes()
    np.testing.assert_array_equal(rng.random(3), twin.random(3))


def test_dropout_rejects_bad_rate():
    with pytest.raises(ConfigError):
        Masks(1.0, Rng(0))
    with pytest.raises(ConfigError):
        Masks(-0.1, Rng(0))


# -- fused primitives against the composite expressions they replace -------------


def composite_layer_norm(x, gamma, beta, eps):
    mean = reduce_mean(x, (-2, -1), keepdims=True)
    centered = sub(x, mean)
    var = reduce_mean(mul(centered, centered), (-2, -1), keepdims=True)
    return mul(div(centered, sqrt(var) + Tensor(eps)), gamma) + beta


def composite_linear(x, w, b=None):
    out = matmul(x, w)
    return out if b is None else out + b


def composite_attention_core(q, k, v, n_heads, keep):
    b, z_q, width = q.shape
    z_kv, d, e = k.shape[1], width // n_heads, v.shape[-1] // n_heads
    q_heads = q.reshape(b, z_q, n_heads, d).transpose((0, 2, 1, 3))
    k_heads = k.reshape(b, z_kv, n_heads, d).transpose((0, 2, 1, 3))
    v_heads = v.reshape(b, z_kv, n_heads, e).transpose((0, 2, 1, 3))
    weights = softmax_lastdim(mul(q_heads @ k_heads.transpose((0, 1, 3, 2)), 1.0 / math.sqrt(d)))
    if keep is not None:
        weights = mul(weights, keep.multiplier())
    return reduce_sum(weights @ v_heads, axis=1), weights


def assert_same_vjp(fused, composite, inputs):
    """Forward values and every input gradient agree to 1e-12."""
    results = []
    for fn in (fused, composite):
        leaves = [Tensor(x.copy(), requires_grad=True) for x in inputs]
        out = fn(*leaves)
        grads = probed(out, np.random.default_rng(99).normal(size=out.shape)).backward()
        results.append((out.data, [grads[leaf] for leaf in leaves]))
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
    """Random (q, k, v, heads, keep) with Z_q != Z_kv and B = 1 on even seeds."""
    rng = np.random.default_rng(seed)
    b = 1 if seed % 2 == 0 else int(rng.integers(2, 4))
    z_q = int(rng.integers(1, 5))
    z_kv = z_q + int(rng.integers(1, 3))
    heads, d, d_v = (int(v) for v in rng.integers(1, 4, size=3))
    q = rng.normal(size=(b, z_q, heads * d))
    k = rng.normal(size=(b, z_kv, heads * d))
    v = rng.normal(size=(b, z_kv, heads * d_v))
    keep = Masks(0.3, rng).draw((b, heads, z_q, z_kv)) if with_keep else None
    return [q, k, v], heads, keep


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("with_keep", [False, True])
def test_attention_core_matches_composite(seed, with_keep):
    inputs, heads, keep = attention_case(seed, with_keep)
    assert_same_vjp(
        lambda q, k, v: attention_core(q, k, v, heads, keep),
        lambda q, k, v: composite_attention_core(q, k, v, heads, keep)[0],
        inputs,
    )
    fused = attention_weights(*map(Tensor, inputs[:2]), heads, keep)
    composite = composite_attention_core(*map(Tensor, inputs), heads, keep)[1].data
    np.testing.assert_allclose(fused, composite, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("which", range(3))
def test_grad_layer_norm_each_input(rng_np, which):
    inputs = [rng_np.normal(size=(2, 3, 4)), rng_np.normal(size=4), rng_np.normal(size=4)]
    probe = rng_np.normal(size=(2, 3, 4))

    def fn(t):
        args = [Tensor(x) for x in inputs]
        args[which] = t
        return probed(layer_norm(*args, eps=1e-5), probe)

    check_primitive(fn, inputs[which])


def residual_norm_case(seed: int, with_keep: bool):
    """Random (x, sub, gamma, beta) with 0 to 2 leading axes, and a rate-0.3 mask or None."""
    rng = np.random.default_rng(seed)
    shape = (*rng.integers(1, 4, size=rng.integers(0, 3)), *rng.integers(1, 5, size=2))
    inputs = [
        rng.normal(loc=rng.normal(), scale=rng.uniform(0.1, 5.0), size=shape),
        rng.normal(size=shape),
        rng.normal(size=shape[-1]),
        rng.normal(size=shape[-1]),
    ]
    keep = Masks(0.3, Rng(seed)).draw(shape) if with_keep else None
    return inputs, keep


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("with_keep", [False, True])
def test_residual_layer_norm_is_bitwise_its_composite(seed, with_keep):
    """``layer_norm(x, ..., sub, keep)`` is ``layer_norm(add(x, dropout(sub)))``, value and VJP."""
    inputs, keep = residual_norm_case(seed, with_keep)
    masks = Masks(0.3, Rng(seed)) if with_keep else None
    results = []
    for fn in (
        lambda x, s, g, b: layer_norm(x, g, b, 1e-5, s, keep),
        lambda x, s, g, b: composite_residual_norm(x, s, g, b, 1e-5, masks),
    ):
        leaves = [Tensor(v.copy(), requires_grad=True) for v in inputs]
        out = fn(*leaves)
        grads = probed(out, np.random.default_rng(99).normal(size=out.shape)).backward()
        results.append([out.data] + [grads[leaf] for leaf in leaves])
    for fused, composite in zip(*results):
        np.testing.assert_array_equal(fused, composite)


@pytest.mark.parametrize("which", range(4))
@pytest.mark.parametrize("with_keep", [False, True])
def test_grad_residual_layer_norm_each_input(which, with_keep):
    for seed in range(4):
        inputs, keep = residual_norm_case(seed, with_keep)
        probe = np.random.default_rng(seed + 10).normal(size=inputs[0].shape)

        def fn(t):
            args = [Tensor(v) for v in inputs]
            args[which] = t
            x, s, g, b = args
            return probed(layer_norm(x, g, b, 1e-5, s, keep), probe)

        check_primitive(fn, inputs[which])


@pytest.mark.parametrize("with_sub, with_keep", [(False, False), (True, False), (True, True)])
def test_layer_norm_passes_finite_diff_check(with_sub, with_keep):
    """Every input as a parameter; without a residual, ``sub`` must get no gradient."""
    inputs, keep = residual_norm_case(5, with_keep)
    store = ParameterStore(seed=0)
    x, s, g, b = (store.add(name, v) for name, v in zip(("x", "sub", "gamma", "beta"), inputs))
    probe = np.random.default_rng(3).normal(size=x.shape)

    def loss():
        return probed(layer_norm(x, g, b, 1e-5, s if with_sub else None, keep), probe)

    report = finite_diff_check(loss, store, eps=1e-6)
    assert report.passed, report.format_lines()


def test_layer_norm_constant_block_has_finite_gradients(rng_np):
    """A flat (Z, D) block has std 0; its std term must be 0, not 0 / 0."""
    x = Tensor(np.full((3, 4), 7.0), requires_grad=True)
    probe = rng_np.normal(size=(3, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        grad = probed(layer_norm(x, *identity_affine(4), eps=1e-5), probe).backward()[x]
    assert np.all(np.isfinite(grad))
    # with std 0 the block is divided by eps alone, minus its mean
    g = probe / 1e-5
    np.testing.assert_allclose(grad, g - g.mean(), rtol=1e-12)


@pytest.mark.parametrize("which", range(3))
def test_grad_linear_each_input(rng_np, which):
    inputs = [rng_np.normal(size=(2, 3, 4)), rng_np.normal(size=(4, 5)), rng_np.normal(size=5)]
    probe = rng_np.normal(size=(2, 3, 5))

    def fn(t):
        args = [Tensor(x) for x in inputs]
        args[which] = t
        return probed(linear(*args), probe)

    check_primitive(fn, inputs[which])


@pytest.mark.parametrize("which", range(3))
@pytest.mark.parametrize("with_keep", [False, True])
def test_grad_attention_core_each_input(which, with_keep):
    inputs, heads, keep = attention_case(1, with_keep)
    q, _, v = inputs
    probe = np.random.default_rng(5).normal(size=(*q.shape[:2], v.shape[2] // heads))

    def fn(t):
        args = [Tensor(x) for x in inputs]
        args[which] = t
        return probed(attention_core(*args, heads, keep), probe)

    check_primitive(fn, inputs[which])


def test_fused_primitives_reject_bad_shapes():
    with pytest.raises(ShapeError):
        layer_norm(Tensor(np.ones(4)), *identity_affine(4), eps=1e-5)
    with pytest.raises(ShapeError):
        layer_norm(Tensor(np.ones((2, 4))), *identity_affine(3), eps=1e-5)
    with pytest.raises(ShapeError):
        layer_norm(Tensor(np.ones((2, 4))), *identity_affine(4), 1e-5, Tensor(np.ones((1, 4))))
    with pytest.raises(ShapeError):  # a mask without a residual to apply it to
        layer_norm(Tensor(np.ones((2, 4))), *identity_affine(4), 1e-5, keep=np.ones((2, 4)))
    with pytest.raises(ShapeError):
        layer_norm(
            Tensor(np.ones((2, 4))), *identity_affine(4), 1e-5, Tensor(np.ones((2, 4))),
            np.ones((1, 4)),
        )
    with pytest.raises(ShapeError):
        linear(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 5))))
    with pytest.raises(ShapeError):
        linear(Tensor(np.ones((2, 4))), Tensor(np.ones((4, 5))), Tensor(np.ones(4)))
    q = Tensor(np.ones((1, 2, 6)))
    with pytest.raises(ShapeError):
        attention_core(q, Tensor(np.ones((1, 3, 6))), Tensor(np.ones((1, 3, 4))), 4)
    with pytest.raises(ShapeError):
        attention_core(q, Tensor(np.ones((1, 3, 6))), Tensor(np.ones((1, 2, 4))), 2)


# -- the fused loss --------------------------------------------------------------


def loss_case(seed: int, transposed: bool):
    """A seeded (leaf, target) pair; ``transposed`` feeds the loss a strided view.

    ``forward_batch`` hands the loss its (B, C, O) output transposed to
    (B, O, C), so that layout is checked along with a contiguous one.
    """
    rng = np.random.default_rng(seed)
    shape = random_shape(rng, min_ndim=3 if transposed else 1)
    leaf = rng.normal(scale=rng.uniform(0.1, 10.0), size=shape)
    target_shape = (shape[0], shape[2], shape[1]) if transposed else shape
    return leaf, rng.normal(size=target_shape)


def loss_and_grad(loss_fn, leaf_values, target, transposed):
    leaf = Tensor(leaf_values.copy(), requires_grad=True)
    pred = transpose(leaf, (0, 2, 1)) if transposed else leaf
    loss = loss_fn(pred, target)
    return loss.data, loss.backward()[leaf]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("transposed", [False, True])
def test_mse_loss_matches_composite_bitwise(seed, transposed):
    leaf, target = loss_case(seed, transposed)
    fused_value, fused_grad = loss_and_grad(mse_loss, leaf, target, transposed)
    value, grad = loss_and_grad(composite_mse_loss, leaf, target, transposed)
    assert fused_value.shape == value.shape == ()
    assert fused_value.tobytes() == value.tobytes()
    assert fused_grad.tobytes() == grad.tobytes()


def test_mse_loss_records_one_node():
    leaf, target = loss_case(0, True)
    pred = transpose(Tensor(leaf, requires_grad=True), (0, 2, 1))
    loss = mse_loss(pred, target)
    assert loss.op == "mse_loss" and loss._parents == (pred,)


def test_grad_mse_loss():
    for seed in range(6):
        leaf, target = loss_case(seed, False)
        check_primitive(lambda t: mse_loss(t, target), leaf)


def test_mse_loss_refuses_bad_inputs():
    with pytest.raises(ShapeError):
        mse_loss(Tensor(np.ones((0, 3))), np.ones((0, 3)))
    with pytest.raises(ShapeError):
        mse_loss(Tensor(np.ones((2, 3))), np.ones((3, 2)))
    with pytest.raises(ShapeError):
        mse_loss(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_operators_take_only_tensors():
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(TypeError):
        x + 1.0
    with pytest.raises(TypeError):
        x @ 1.0


@pytest.mark.parametrize("op", [operator.add, operator.matmul], ids=["add", "matmul"])
def test_ndarray_left_operand_is_refused_without_walking_the_tensor(op, monkeypatch):
    """numpy must hand the operation back at once, not index the Tensor element by element.

    The error names Tensor; ``+`` must not fall back to ndarray's sequence
    concatenation, whose message speaks of ``np.concatenate``.
    """
    import patchformer.tensor as core

    calls = []
    original = core.take
    monkeypatch.setattr(core, "take", lambda a, index: calls.append(index) or original(a, index))
    x = Tensor(np.ones((3, 3)))
    with pytest.raises(TypeError, match="Tensor"):
        op(np.ones((3, 3)), x)
    assert calls == []
