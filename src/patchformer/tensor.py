"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps a numpy array together with a record of how it was produced.
Calling ``backward()`` on a scalar result walks the recorded graph once in
reverse topological order and returns the gradient of every reachable leaf
whose ``requires_grad`` flag is set, as a map from leaf to array.  Nothing is
stored on any tensor, so a graph can be walked again, and threads that share
weights never write to them.  Grad mode is per thread: ``no_grad`` switches
recording off in the thread that enters it and nowhere else.

All data is kept in float64.  Operations never mutate their inputs, so the
recorded graph stays valid until it is garbage collected with the loss.
Only the ops a model records live here: no general elementwise or reduction
algebra, and no data preparation, which runs in plain numpy before the graph.
Besides ``matmul``, the shape ops, and ``add`` and ``dropout`` (which a
model records only at its embedding), five fused primitives record a whole
block as one graph node with a closed-form VJP: ``linear`` (one folded GEMM
plus bias), ``feed_forward`` (linear, ReLU, linear), ``layer_norm`` (a
sublayer's dropout, residual add and norm over the trailing (Z, D) block),
``attention_core`` (multi-head scores, softmax, dropout, mixing and the sum
over heads) and ``mse_loss``.
The dropout of a training pass comes from one ``Masks``: the rate and the
stream, which hands out each inverted-dropout mask in the order the pass
asks for them, and at rate 0 draws none.  A layer given ``masks=None``
evaluates.  A drawn ``Mask`` holds only the kept bits, one byte per entry;
``dropout``, ``layer_norm`` and ``attention_core`` build its float
multiplier when they apply it and again in their VJPs.  Backward likewise
rebuilds what costs one elementwise pass (the masked attention weights and
the normalised block), so a graph keeps only what it cannot rebuild.
``linear``, ``feed_forward``, ``layer_norm`` and ``mse_loss`` keep the
operation order of the composites they replace, so their values and
gradients are bitwise the same;
``attention_core`` sums over heads inside one GEMM, so it agrees with its
composite to rounding.
No model records ``softmax_lastdim``; profiling and checks look it up.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ShapeError

__all__ = [
    "Mask",
    "Masks",
    "Tensor",
    "no_grad",
    "attention_core",
    "dropout",
    "feed_forward",
    "grad_enabled",
    "layer_norm",
    "linear",
    "mse_loss",
]


class _GradMode(threading.local):
    """Per-thread switch for graph recording; every thread starts with it on."""

    enabled: bool = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Disable graph recording in this thread inside the block."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def grad_enabled() -> bool:
    """Whether this thread records ops for ``backward`` (False inside ``no_grad``)."""
    return _grad_mode.enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` back down to ``shape`` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    squeeze = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and grad.shape[axis] != 1
    )
    if squeeze:
        grad = grad.sum(axis=squeeze, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "requires_grad", "_parents", "_vjp", "op")

    # ``ndarray + Tensor`` and ``ndarray @ Tensor`` raise TypeError at once;
    # without this numpy first walks the Tensor as a nested sequence.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data: np.ndarray = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], Sequence[np.ndarray]] | None = None
        self.op = ""

    # -- bookkeeping ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        tag = f", op={self.op!r}" if self.op else ""
        return f"Tensor(shape={self.shape}{flag}{tag})"

    # -- backward pass ----------------------------------------------------

    def backward(self) -> dict["Tensor", np.ndarray]:
        """d(self)/d(leaf) for every reachable tensor with ``requires_grad``.

        ``self`` must hold exactly one element.  The map is keyed by the
        tensors themselves and holds one fresh array per key; nothing is
        stored on the graph, so calling again returns an equal map.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {self.shape}")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        grads: dict[Tensor, np.ndarray] = {}
        flowing: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            grad = flowing.pop(id(node), None)
            if grad is None:
                continue
            if node.requires_grad:
                grads[node] = grad.copy()
            if node._vjp is None:
                continue
            for parent, piece in zip(node._parents, node._vjp(grad)):
                if not (parent.requires_grad or parent._vjp is not None):
                    continue
                key = id(parent)
                if key in flowing:
                    flowing[key] = flowing[key] + piece
                else:
                    flowing[key] = piece
        return grads

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other) if isinstance(other, Tensor) else NotImplemented

    def __radd__(self, other):
        # Only a non-Tensor left operand gets here.  Returning NotImplemented
        # would let an ndarray fall back to sequence concatenation.
        raise TypeError(f"unsupported operand types for +: {type(other).__name__} and Tensor")

    def __matmul__(self, other):
        return matmul(self, other) if isinstance(other, Tensor) else NotImplemented

    def __getitem__(self, index):
        return take(self, index)

    def reshape(self, *shape: int) -> "Tensor":
        return reshape(self, shape)

    def transpose(self, axes: tuple[int, ...]) -> "Tensor":
        return transpose(self, axes)


def _record(data: np.ndarray, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    out = Tensor(data)
    if _grad_mode.enabled and any(p.requires_grad or p._vjp is not None for p in parents):
        out._parents = parents
        out._vjp = vjp
        out.op = op
    return out


# -- elementwise --------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(data, (a, b), vjp, "add")


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched ``a @ b`` with numpy broadcasting; ``linear`` is the GEMM with weights."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs 2-d or higher operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")

    data = np.matmul(a.data, b.data)

    def vjp(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _record(data, (a, b), vjp, "matmul")


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w + b`` for (..., n) ``x`` and (n, m) ``w``, as one folded GEMM.

    The leading axes of ``x`` fold into the GEMM rows and the bias ``b`` (m,)
    is added in place, so the op records one graph node.
    """
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear needs (..., n) @ (n, m), got {x.shape} @ {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise ShapeError(f"linear bias of shape {b.shape} does not match {w.shape}")
    folded = np.ascontiguousarray(x.data).reshape(-1, x.shape[-1])
    out = folded @ w.data
    if b is not None:
        out += b.data
    data = out.reshape(*x.shape[:-1], w.shape[1])

    def vjp(g):
        flat = np.ascontiguousarray(g).reshape(-1, g.shape[-1])
        gx = (flat @ w.data.T).reshape(x.shape)
        gw = folded.T @ flat
        return (gx, gw) if b is None else (gx, gw, flat.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return _record(data, parents, vjp, "linear")


# -- shape manipulation -------------------------------------------------------


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        data = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}: {exc}") from None

    def vjp(g):
        return (g.reshape(a.shape),)

    return _record(data, (a,), vjp, "reshape")


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    data = np.transpose(a.data, axes)
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return _record(data, (a,), vjp, "transpose")


def take(a: Tensor, index) -> Tensor:
    """Basic (slice/int) indexing; fancy index arrays are not supported."""
    data = a.data[index]

    def vjp(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return _record(data, (a,), vjp, "take")


# -- nonlinearities -----------------------------------------------------------


def softmax_lastdim(a: Tensor) -> Tensor:
    """Softmax over the last axis, stabilised by max subtraction."""
    if a.ndim < 1 or a.shape[-1] < 1:
        raise ShapeError(f"softmax needs a non-empty last axis, got shape {a.shape}")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    out = exp / exp.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return _record(out, (a,), vjp, "softmax")


class Mask:
    """One inverted-dropout mask, stored as its kept bits: one byte per entry.

    ``multiplier()`` builds the float mask, 0 where dropped and
    1 / (1 - rate) elsewhere.  The fused primitives build it when they apply
    the mask and again in their VJPs, so a graph keeps only the bits.
    """

    __slots__ = ("kept", "rate")

    def __init__(self, kept: np.ndarray, rate: float):
        self.kept = kept
        self.rate = rate

    @property
    def shape(self) -> tuple[int, ...]:
        return self.kept.shape

    def multiplier(self) -> np.ndarray:
        return self.kept / (1.0 - self.rate)


class Masks:
    """The inverted-dropout masks of one training pass, drawn in turn from one stream.

    ``rate`` is checked once, here.  ``draw(shape)`` returns the next
    ``Mask``, kept where ``rng.random(shape) >= rate``.  At rate 0 it draws
    nothing from the stream and returns None.
    """

    __slots__ = ("rate", "rng")

    def __init__(self, rate: float, rng):
        self.rate = Masks.check_rate(rate)
        self.rng = rng

    @staticmethod
    def check_rate(rate: float) -> float:
        """``rate`` itself when it is a dropout rate in [0, 1); ``ConfigError`` otherwise."""
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {rate}")
        return rate

    def draw(self, shape: tuple[int, ...]) -> Mask | None:
        if self.rate == 0.0:
            return None
        return Mask(self.rng.random(shape) >= self.rate, self.rate)


def dropout(a: Tensor, masks: Masks | None) -> Tensor:
    """Inverted dropout with the next mask of ``masks``; identity when it draws none."""
    keep = None if masks is None else masks.draw(a.shape)
    if keep is None:
        return a

    def vjp(g):
        return (g * keep.multiplier(),)

    return _record(a.data * keep.multiplier(), (a,), vjp, "dropout")


# -- fused blocks ---------------------------------------------------------------


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``relu(x @ w1 + b1) @ w2 + b2`` for (..., n) ``x``, as one graph node.

    ``w1`` is (n, f) and ``w2`` (f, m).  The ops run in the order of
    ``linear``, ReLU and ``linear``, so value and gradients are bitwise that
    composite's.  The ReLU runs in place on the hidden buffer: a NaN stays
    NaN, and no gradient passes through a NaN or a zero.  Backward keeps
    only the folded input and the post-ReLU hidden.
    """
    if (
        w1.ndim != 2 or w2.ndim != 2 or x.ndim < 1 or x.shape[-1] != w1.shape[0]
        or b1.shape != (w1.shape[1],) or w2.shape[0] != w1.shape[1]
        or b2.shape != (w2.shape[1],)
    ):
        raise ShapeError(
            f"feed_forward needs (..., n) @ (n, f) + (f,), then @ (f, m) + (m,); got "
            f"{x.shape} @ {w1.shape} + {b1.shape}, then @ {w2.shape} + {b2.shape}"
        )
    folded = np.ascontiguousarray(x.data).reshape(-1, x.shape[-1])
    hidden = folded @ w1.data
    hidden += b1.data
    np.maximum(hidden, 0.0, out=hidden)
    out = hidden @ w2.data
    out += b2.data
    data = out.reshape(*x.shape[:-1], w2.shape[1])

    def vjp(g):
        flat = np.ascontiguousarray(g).reshape(-1, g.shape[-1])
        g_hidden = flat @ w2.data.T
        g_hidden *= hidden > 0
        g_x = (g_hidden @ w1.data.T).reshape(x.shape)
        return g_x, folded.T @ g_hidden, g_hidden.sum(axis=0), hidden.T @ flat, flat.sum(axis=0)

    return _record(data, (x, w1, b1, w2, b2), vjp, "feed_forward")


def layer_norm(
    x: Tensor, gamma: Tensor, beta: Tensor, eps: float,
    sub: Tensor | None = None, keep: Mask | None = None,
) -> Tensor:
    """Normalise every trailing (Z, D) block of ``x + sub * keep``, then scale and shift.

    ``sub`` is an optional residual branch of the shape of ``x`` and ``keep``
    an optional dropout ``Mask`` for it; without ``sub`` the block is ``x``
    itself.  Each block is centred on its mean and divided by its population
    standard deviation plus ``eps``; ``gamma`` and ``beta`` are (D,).  The
    sum is formed in the operation order of ``add(x, dropout(sub))``, so the
    value is bitwise that composite's.  One graph node; backward keeps only
    the centred block, the per-block denominators and the mask's bits.  It
    rebuilds the normalised block with the forward's own divide, and passes
    ``gx`` to ``x`` and ``gx`` times the mask's multiplier to ``sub``.
    """
    if x.ndim < 2:
        raise ShapeError(f"layer_norm expects at least 2 dims, got shape {x.shape}")
    if gamma.shape != (x.shape[-1],) or beta.shape != (x.shape[-1],):
        raise ShapeError(
            f"layer_norm affine of shapes {gamma.shape}, {beta.shape} for input {x.shape}"
        )
    if sub is not None and sub.shape != x.shape:
        raise ShapeError(f"layer_norm residual of shape {sub.shape} for input {x.shape}")
    if keep is not None and (sub is None or keep.shape != x.shape):
        raise ShapeError(f"layer_norm dropout mask of shape {keep.shape} for input {x.shape}")
    count = x.shape[-2] * x.shape[-1]
    if count == 0:
        raise ShapeError(f"layer_norm over an empty block, input shape {x.shape}")
    axes = (-2, -1)
    inv_n = 1.0 / count
    if sub is None:
        centered = x.data - x.data.sum(axis=axes, keepdims=True) * inv_n
    else:
        # The residual sum is centred in place: it is needed only centred.
        if keep is None:
            centered = x.data + sub.data
        else:
            centered = keep.multiplier()
            centered *= sub.data
            np.add(x.data, centered, out=centered)
        centered -= centered.sum(axis=axes, keepdims=True) * inv_n
    # The squares are needed only for the std; their buffer takes the output.
    data = centered * centered
    std = (data.sum(axis=axes, keepdims=True) * inv_n) ** 0.5
    denom = std + eps
    np.divide(centered, denom, out=data)
    data *= gamma.data
    data += beta.data

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        normed = centered / denom
        g_normed = g * gamma.data
        # normed = centered / (std + eps) with std = sqrt(mean(centered**2)),
        # and centering subtracts the block mean.
        # A constant block has std 0 and centred values of exactly 0, so its
        # std term is 0 rather than 0 / 0.
        g_denom = -(g_normed * normed).sum(axis=axes, keepdims=True) / denom
        g_std = np.divide(g_denom * inv_n, std, out=np.zeros_like(std), where=std != 0)
        g_centered = g_normed / denom + centered * g_std
        gx = g_centered - g_centered.sum(axis=axes, keepdims=True) * inv_n
        g_sub = () if sub is None else (gx if keep is None else gx * keep.multiplier(),)
        return (gx, *g_sub, (g * normed).sum(axis=lead), g.sum(axis=lead))

    parents = (x, gamma, beta) if sub is None else (x, sub, gamma, beta)
    return _record(data, parents, vjp, "layer_norm")


def attention_core(
    q: Tensor, k: Tensor, v: Tensor, n_heads: int, keep: Mask | None = None
) -> Tensor:
    """Softmax attention of every head, summed over heads, as one graph node.

    Head h scores with columns h*d:(h+1)*d of ``q`` (B, Z_q, H*d) and ``k``
    (B, Z_kv, H*d), scaled by 1/sqrt(d); ``keep`` is an optional dropout
    ``Mask`` (B, H, Z_q, Z_kv) for the softmax weights.  Head h's weights A_h
    mix its value rows V_h, columns h*E:(h+1)*E of ``v`` (B, Z_kv, H*E), and
    the (B, Z_q, E) result is sum_h A_h V_h.

    The weights are stored key-major, (Z_kv, H, Z_q) per series: one batched
    GEMM writes the scores into a transposed view of that buffer, the softmax
    reduces over its leading axis, and the mix is one GEMM per series with
    inner dimension Z_kv*H.  Backward keeps only the softmax weights and the
    mask's bits.  It runs the score gradient first and frees it, and only
    then rebuilds the masked weights for the value gradient.
    """
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise ShapeError(
            f"attention_core needs 3-d operands, got {q.shape}, {k.shape}, {v.shape}"
        )
    b, z_q, width = q.shape
    z_kv = k.shape[1]
    if (
        k.shape != (b, z_kv, width) or v.shape[:2] != (b, z_kv)
        or width % n_heads or v.shape[2] % n_heads
    ):
        raise ShapeError(
            f"attention_core shapes q {q.shape}, k {k.shape}, v {v.shape} "
            f"do not fit {n_heads} heads"
        )
    h, d, e = n_heads, width // n_heads, v.shape[2] // n_heads
    if keep is not None and keep.shape != (b, h, z_q, z_kv):
        raise ShapeError(f"dropout mask of shape {keep.shape}, expected {(b, h, z_q, z_kv)}")
    scale = 1.0 / math.sqrt(d)
    q_heads = q.data.reshape(b, z_q, h, d).transpose((0, 2, 1, 3))
    k_heads = k.data.reshape(b, z_kv, h, d).transpose((0, 2, 1, 3))
    weights = np.empty((b, z_kv, h, z_q))
    np.matmul(k_heads, q_heads.transpose((0, 1, 3, 2)), out=weights.transpose((0, 2, 1, 3)))
    weights *= scale
    weights -= weights.max(axis=1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=1, keepdims=True)
    v_rows = v.data.reshape(b, z_kv * h, e)

    def keep_km() -> np.ndarray:
        """The float mask, key-major as the weights are."""
        return keep.multiplier().transpose((0, 3, 1, 2))

    def stacked() -> np.ndarray:
        """The masked weights, (B, Z_kv*H, Z_q)."""
        applied = weights if keep is None else weights * keep_km()
        return applied.reshape(b, z_kv * h, z_q)

    out = np.matmul(stacked().transpose((0, 2, 1)), v_rows)

    def vjp(g):
        g_w = np.matmul(v_rows, g.transpose((0, 2, 1))).reshape(b, z_kv, h, z_q)
        if keep is not None:
            g_w *= keep_km()
        g_w -= (g_w * weights).sum(axis=1, keepdims=True)
        g_w *= weights
        g_w *= scale
        g_scores = g_w.transpose((0, 2, 1, 3))  # (B, H, Z_kv, Z_q)
        g_q = np.empty((b, z_q, h, d))
        g_k = np.empty((b, z_kv, h, d))
        np.matmul(g_scores.transpose((0, 1, 3, 2)), k_heads, out=g_q.transpose((0, 2, 1, 3)))
        np.matmul(g_scores, q_heads, out=g_k.transpose((0, 2, 1, 3)))
        del g_w, g_scores
        g_v = np.matmul(stacked(), g).reshape(b, z_kv, h * e)
        return g_q.reshape(b, z_q, width), g_k.reshape(b, z_kv, width), g_v

    return _record(out, (q, k, v), vjp, "attention_core")


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error of ``pred`` against the array ``target``, as one graph node.

    The value is ``sum(diff * diff) * (1 / n)`` with ``diff = pred - target``
    and the gradient is ``t + t`` with ``t = (g * (1 / n)) * diff``, in the
    operation order of the composite ``mean(diff * diff)``.
    """
    if isinstance(target, Tensor):
        raise ShapeError("mse_loss takes its target as an array, not a Tensor")
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"loss shapes differ: {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise ShapeError(f"mean squared error of an empty prediction, shape {pred.shape}")
    inv_n = 1.0 / pred.size
    diff = pred.data - target
    data = (diff * diff).sum(axis=tuple(range(diff.ndim))) * inv_n

    def vjp(g):
        t = (g * inv_n) * diff
        return (t + t,)

    return _record(data, (pred,), vjp, "mse_loss")
