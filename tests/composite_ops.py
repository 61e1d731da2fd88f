"""Fine-grained graph ops for test oracles, and probes for the fused ones.

The tensor core keeps only the ops a model records.  The oracles that pin its
fused primitives are written in finer ops (subtract, multiply, divide, square
root, ReLU, sums and means), defined here on ``tensor._record`` with closed-form
VJPs; ``test_tensor`` checks each against finite differences.  Scalars given
to a binary op are wrapped as constant tensors.
"""

import numpy as np

from patchformer.errors import ShapeError
from patchformer.tensor import (
    Tensor,
    _record,
    _unbroadcast,
    add,
    attention_core,
    dropout,
    layer_norm,
    linear,
)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record(a.data - b.data, (a, b), vjp, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record(a.data * b.data, (a, b), vjp, "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def vjp(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _record(a.data / b.data, (a, b), vjp, "div")


def relu(a: Tensor) -> Tensor:
    """max(x, 0); NaN inputs stay NaN and pass no gradient."""
    data = np.maximum(a.data, 0.0)

    def vjp(g):
        return (g * (data > 0),)

    return _record(data, (a,), vjp, "relu")


def sqrt(a: Tensor) -> Tensor:
    def vjp(g):
        return (g * 0.5 * a.data**-0.5,)

    return _record(a.data**0.5, (a,), vjp, "sqrt")


def _normalize_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    axes = tuple(sorted(a % ndim for a in axis))
    if len(set(axes)) != len(axes):
        raise ShapeError(f"duplicate reduction axes {axis}")
    return axes


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _normalize_axes(axis, a.ndim)

    def vjp(g):
        expanded = g if keepdims or not axes else np.expand_dims(g, axes)
        return (np.broadcast_to(expanded, a.shape).copy(),)

    return _record(a.data.sum(axis=axes, keepdims=keepdims), (a,), vjp, "sum")


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _normalize_axes(axis, a.ndim)
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    if count == 0:
        raise ShapeError(f"mean over empty axes {axes} of shape {a.shape}")
    return mul(reduce_sum(a, axes, keepdims), 1.0 / count)


def composite_mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error as four nodes: subtract, square, sum, scale."""
    if pred.shape != np.shape(target):
        raise ShapeError(f"loss shapes differ: {pred.shape} vs {np.shape(target)}")
    diff = sub(pred, target)
    return reduce_mean(mul(diff, diff))


def composite_residual_norm(x, sub, gamma, beta, eps, masks=None) -> Tensor:
    """A sublayer's end as three nodes: dropout of ``sub``, the residual add, the plain norm."""
    return layer_norm(add(x, dropout(sub, masks)), gamma, beta, eps)


def composite_feed_forward(x, w1, b1, w2, b2) -> Tensor:
    """The feed-forward block as three nodes: linear, ReLU, linear."""
    return linear(relu(linear(x, w1, b1)), w2, b2)


def probed(out: Tensor, probe) -> Tensor:
    """The scalar sum(out * probe), whose gradient reaching ``out`` is exactly ``probe``."""
    return linear(out.reshape(1, -1), Tensor(np.reshape(probe, (-1, 1))))


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


def attention_weights(q: Tensor, k: Tensor, n_heads: int, keep=None) -> np.ndarray:
    """The (B, H, Z_q, Z_kv) weights ``attention_core`` applies, read off its output.

    Head h gets value rows that are the Z_kv identity placed in output block
    h of H, so the core's sum over heads lays the heads' weights side by side.
    """
    b, z_q, _ = q.shape
    z_kv = k.shape[1]
    rows = np.zeros((z_kv, n_heads, n_heads, z_kv))
    for h in range(n_heads):
        rows[:, h, h, :] = np.eye(z_kv)
    v = Tensor(np.broadcast_to(rows.reshape(z_kv, -1), (b, z_kv, rows[0].size)))
    out = attention_core(q, k, v, n_heads, keep).data
    return out.reshape(b, z_q, n_heads, z_kv).transpose((0, 2, 1, 3))
