"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps a numpy array together with an optional gradient and a record
of how it was produced.  Calling ``backward()`` on a scalar result walks the
recorded graph once in reverse topological order and accumulates gradients
into every reachable tensor whose ``requires_grad`` flag is set.  Gradients
add up across repeated ``backward()`` calls; use ``zero_grad()`` (or
``ParameterStore.zero_grads``) between optimisation steps.

All data is kept in float64.  Operations never mutate their inputs, so the
recorded graph stays valid until it is garbage collected with the loss.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, NumericsError, ShapeError

__all__ = [
    "Tensor",
    "no_grad",
    "concat",
    "dropout",
    "grad_enabled",
    "mean_var",
    "pad_last",
    "unfold_windows",
]


class _GradMode:
    """Process-wide switch for graph recording (single-threaded use)."""

    enabled: bool = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block; useful for evaluation loops."""
    previous = _GradMode.enabled
    _GradMode.enabled = False
    try:
        yield
    finally:
        _GradMode.enabled = previous


def grad_enabled() -> bool:
    """Whether ops are being recorded for ``backward`` (False inside ``no_grad``)."""
    return _GradMode.enabled


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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "op")

    def __init__(self, data, requires_grad: bool = False):
        self.data: np.ndarray = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
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

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def assert_finite(self, context: str = "tensor") -> "Tensor":
        if not np.all(np.isfinite(self.data)):
            raise NumericsError(f"{context} contains NaN or Inf")
        return self

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        tag = f", op={self.op!r}" if self.op else ""
        return f"Tensor(shape={self.shape}{flag}{tag})"

    def __len__(self) -> int:
        if self.ndim == 0:
            raise ShapeError("len() of a 0-d tensor")
        return self.shape[0]

    # -- backward pass ----------------------------------------------------

    def backward(self) -> None:
        """Propagate d(self)/d(ancestor) into ``grad`` of every ancestor.

        ``self`` must hold exactly one element.  Each call adds a fresh pass
        over the same graph, so gradients accumulate until cleared.
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

        flowing: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            grad = flowing.pop(id(node), None)
            if grad is None:
                continue
            if node.requires_grad:
                node.grad = grad.copy() if node.grad is None else node.grad + grad
            if node._vjp is None:
                continue
            for parent, piece in zip(node._parents, node._vjp(grad)):
                if piece is None or not (parent.requires_grad or parent._vjp is not None):
                    continue
                key = id(parent)
                if key in flowing:
                    flowing[key] = flowing[key] + piece
                else:
                    flowing[key] = piece

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return pow_scalar(self, exponent)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __getitem__(self, index):
        return take(self, index)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes: tuple[int, ...] | None = None) -> "Tensor":
        return transpose(self, axes)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_mean(self, axis, keepdims)

    def sqrt(self) -> "Tensor":
        return pow_scalar(self, 0.5)

    def relu(self) -> "Tensor":
        return relu(self)

    def softmax(self) -> "Tensor":
        return softmax_lastdim(self)


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _record(data: np.ndarray, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    out = Tensor(data)
    if _GradMode.enabled and any(p.requires_grad or p._vjp is not None for p in parents):
        out.requires_grad = False
        out._parents = parents
        out._vjp = vjp
        out.op = op
    return out


# -- elementwise arithmetic -------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(data, (a, b), vjp, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record(data, (a, b), vjp, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record(data, (a, b), vjp, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    data = a.data / b.data

    def vjp(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _record(data, (a, b), vjp, "div")


def neg(a: Tensor) -> Tensor:
    return _record(-a.data, (a,), lambda g: (-g,), "neg")


def pow_scalar(a: Tensor, exponent: float) -> Tensor:
    c = float(exponent)
    data = a.data**c

    def vjp(g):
        return (g * c * a.data ** (c - 1.0),)

    return _record(data, (a,), vjp, "pow")


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    data = np.where(mask, a.data, 0.0)

    def vjp(g):
        return (g * mask,)

    return _record(data, (a,), vjp, "relu")


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs 2-d or higher operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")

    if a.ndim > 2 and b.ndim == 2:
        # Stack-times-matrix: fold the leading axes into one GEMM instead of
        # looping per matrix; this keeps the gradient accumulation dense too.
        folded = np.ascontiguousarray(a.data).reshape(-1, a.shape[-1])
        data = (folded @ b.data).reshape(*a.shape[:-1], b.shape[-1])

        def vjp(g):
            flat = np.ascontiguousarray(g).reshape(-1, g.shape[-1])
            ga = (flat @ b.data.T).reshape(a.shape)
            gb = folded.T @ flat
            return ga, gb

        return _record(data, (a, b), vjp, "matmul")

    data = np.matmul(a.data, b.data)

    def vjp(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _record(data, (a, b), vjp, "matmul")


# -- shape manipulation -------------------------------------------------------


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        data = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}: {exc}") from None

    def vjp(g):
        return (g.reshape(a.shape),)

    return _record(data, (a,), vjp, "reshape")


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    data = np.transpose(a.data, axes)
    inverse = None if axes is None else tuple(np.argsort(axes))

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


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [_wrap(p) for p in parts]
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _record(data, tuple(parts), vjp, "concat")


# -- reductions ---------------------------------------------------------------


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
    data = a.data.sum(axis=axes, keepdims=keepdims)

    def vjp(g):
        expanded = g
        if not keepdims:
            expanded = np.expand_dims(g, axes) if axes else g
        return (np.broadcast_to(expanded, a.shape).copy(),)

    return _record(data, (a,), vjp, "sum")


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _normalize_axes(axis, a.ndim)
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    if count == 0:
        raise ShapeError(f"mean over empty axes {axes} of shape {a.shape}")
    return mul(reduce_sum(a, axes, keepdims), Tensor(1.0 / count))


def mean_var(a: Tensor, axis=None, keepdims: bool = False) -> tuple[Tensor, Tensor]:
    """Population mean and variance over the given axes, both differentiable."""
    mean_kept = reduce_mean(a, axis, keepdims=True)
    centered = sub(a, mean_kept)
    var_kept = reduce_mean(mul(centered, centered), axis, keepdims=True)
    if keepdims:
        return mean_kept, var_kept
    axes = _normalize_axes(axis, a.ndim)
    out_shape = tuple(s for i, s in enumerate(a.shape) if i not in axes)
    return reshape(mean_kept, out_shape), reshape(var_kept, out_shape)


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


def dropout(a: Tensor, rate: float, rng, training: bool) -> Tensor:
    """Inverted dropout: active only in training mode, identity otherwise."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return a
    keep = (rng.random(a.shape) >= rate) / (1.0 - rate)

    def vjp(g):
        return (g * keep,)

    return _record(a.data * keep, (a,), vjp, "dropout")


# -- sequence windowing -------------------------------------------------------


def pad_last(a: Tensor, count: int) -> Tensor:
    """Append ``count`` copies of the final element along the last axis."""
    if count < 0:
        raise ShapeError(f"pad count must be non-negative, got {count}")
    if a.ndim < 1 or a.shape[-1] < 1:
        raise ShapeError(f"pad_last needs a non-empty last axis, got shape {a.shape}")
    if count == 0:
        return a
    tail = np.repeat(a.data[..., -1:], count, axis=-1)
    data = np.concatenate([a.data, tail], axis=-1)
    length = a.shape[-1]

    def vjp(g):
        gx = g[..., :length].copy()
        gx[..., -1] += g[..., length:].sum(axis=-1)
        return (gx,)

    return _record(data, (a,), vjp, "pad_last")


def unfold_windows(a: Tensor, size: int, step: int) -> Tensor:
    """Slice the last axis into overlapping windows of ``size`` every ``step``.

    A (..., L) tensor becomes (..., Z, size) with Z = (L - size) // step + 1.
    """
    if size < 1 or step < 1:
        raise ShapeError(f"window size and step must be positive, got {size}, {step}")
    length = a.shape[-1] if a.ndim else 0
    if length < size:
        raise ShapeError(f"series of length {length} is shorter than window size {size}")
    windows = np.lib.stride_tricks.sliding_window_view(a.data, size, axis=-1)
    data = np.ascontiguousarray(windows[..., ::step, :])
    count = data.shape[-2]

    def vjp(g):
        gx = np.zeros_like(a.data)
        for z in range(count):
            start = z * step
            gx[..., start : start + size] += g[..., z, :]
        return (gx,)

    return _record(data, (a,), vjp, "unfold")
