"""Scaled dot-product attention and its multi-head wrapper.

Attention here is always bidirectional: every query row may attend to every
key row, with no causal mask.  Heads are evaluated in one batched pass by
stacking their projection matrices; each head's block of the stacked weight
matrix feeds exactly one slice of the reshaped activations, so the result
matches a head-by-head loop.

The value and output projections are folded into one map per head.  With
attention weights A_h, the output is the reassociated sum
``sum_h A_h (X W_v,h) W_o,h = sum_h (A_h X) (W_v,h W_o,h)``: each head mixes
the raw key/value rows X, and the stacked products W_v,h W_o,h map the merged
heads straight back to model width.  No value projection is ever computed.

In grad mode the product is recorded in the graph on every call, so gradients
reach ``w_value`` and ``w_out``.  Under ``no_grad`` it is memoised on the
``AttentionParams`` and reused while both source arrays are the very objects
it was computed from.  That is safe because parameter arrays are immutable:
every writer in the package (initialisation, ``load_state_dict``, the Adam
step, gradient checking) installs a new read-only array instead of editing
one in place, and an in-place write raises ``ValueError``.  A writable array
assigned to a parameter from outside the package is never memoised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .params import ParameterStore, read_only
from .tensor import Tensor, dropout, grad_enabled, softmax_lastdim

__all__ = [
    "AttentionConfig",
    "AttentionParams",
    "scaled_dot_attention",
    "multi_head_attention",
]


@dataclass(frozen=True)
class AttentionConfig:
    """Head count and projection widths; ``d_k``/``d_v`` default per the model."""

    d_model: int
    n_heads: int
    d_k: int | None = None
    d_v: int | None = None

    def __post_init__(self):
        if self.d_model < 1:
            raise ConfigError(f"d_model must be positive, got {self.d_model}")
        if self.n_heads < 1:
            raise ConfigError(f"n_heads must be positive, got {self.n_heads}")
        if self.d_k is None and self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} is not divisible by n_heads {self.n_heads}; "
                "set d_k explicitly"
            )
        if self.d_k is not None and self.d_k < 1:
            raise ConfigError(f"d_k must be positive, got {self.d_k}")
        if self.d_v is not None and self.d_v < 1:
            raise ConfigError(f"d_v must be positive, got {self.d_v}")

    @property
    def head_dim_k(self) -> int:
        return self.d_k if self.d_k is not None else self.d_model // self.n_heads

    @property
    def head_dim_v(self) -> int:
        # Each head keeps the full model width unless narrowed explicitly.
        return self.d_v if self.d_v is not None else self.d_model


def scaled_dot_attention(
    q: Tensor, k: Tensor, v: Tensor, return_weights: bool = False
):
    """softmax(Q K^T / sqrt(d_k)) V over the last two axes.

    Shapes: q (..., Z_q, d_k), k (..., Z_k, d_k), v (..., Z_k, d_v).
    """
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ShapeError(
            f"attention operands need at least 2 dims, got {q.shape}, {k.shape}, {v.shape}"
        )
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"query width {q.shape[-1]} != key width {k.shape[-1]}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"key rows {k.shape[-2]} != value rows {v.shape[-2]}")
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = (q @ k.transpose(_swap_last_two(k.ndim))) * scale
    weights = softmax_lastdim(scores)
    out = weights @ v
    if return_weights:
        return out, weights
    return out


def _swap_last_two(ndim: int) -> tuple[int, ...]:
    axes = list(range(ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return tuple(axes)


@dataclass
class AttentionParams:
    """Stacked per-head projections plus the shared output map.

    ``w_query``/``w_key`` hold the H head matrices side by side as
    (d_model, H * d_k); ``w_value`` likewise as (d_model, H * d_v);
    ``w_out`` maps the concatenated head outputs (H * d_v) back to d_model.

    Attention only uses ``w_value`` and ``w_out`` through their per-head
    products, stacked as one (H * d_model, d_model) map (see
    ``value_out``).  Outside grad mode the product is memoised here, keyed on
    the identity of the two source arrays.  Parameter arrays are read-only,
    so new values always arrive as new arrays and the memo cannot go stale; a
    writable array assigned from outside the package is never memoised.
    """

    w_query: Tensor
    w_key: Tensor
    w_value: Tensor
    w_out: Tensor
    n_heads: int
    _memo: tuple | None = field(default=None, repr=False, compare=False)

    @classmethod
    def build(cls, store: ParameterStore, prefix: str, cfg: AttentionConfig) -> "AttentionParams":
        d, h = cfg.d_model, cfg.n_heads
        dk, dv = cfg.head_dim_k, cfg.head_dim_v
        return cls(
            w_query=store.weight(f"{prefix}.w_query", (d, h * dk)),
            w_key=store.weight(f"{prefix}.w_key", (d, h * dk)),
            w_value=store.weight(f"{prefix}.w_value", (d, h * dv)),
            w_out=store.weight(f"{prefix}.w_out", (h * dv, d)),
            n_heads=h,
        )

    def value_out(self) -> Tensor:
        """The stacked per-head products W_v,h W_o,h as (H * d_model, d_model)."""
        w_value, w_out = self.w_value.data, self.w_out.data
        memoise = not grad_enabled() and _frozen(w_value) and _frozen(w_out)
        memo = self._memo
        if memoise and memo is not None and memo[0] is w_value and memo[1] is w_out:
            return memo[2]
        h = self.n_heads
        d, d_v = w_value.shape[0], w_out.shape[0] // h
        per_head = self.w_value.reshape(d, h, d_v).transpose((1, 0, 2))
        product = (per_head @ self.w_out.reshape(h, d_v, d)).reshape(h * d, d)
        if memoise:
            # The memo holds the source arrays, so their ids cannot be reused.
            self._memo = (w_value, w_out, product)
            read_only(product.data)
        return product


def _frozen(values: np.ndarray) -> bool:
    """True when nothing can edit ``values`` in place short of unfreezing it."""
    return not values.flags.writeable and values.flags.owndata


def _split_heads(x: Tensor, n_heads: int) -> Tensor:
    """(B, Z, H*d) -> (B, H, Z, d) so heads batch through matmul."""
    b, z, hd = x.shape
    head_dim = hd // n_heads
    return x.reshape(b, z, n_heads, head_dim).transpose((0, 2, 1, 3))


def multi_head_attention(
    x_q: Tensor,
    x_kv: Tensor,
    params: AttentionParams,
    attn_dropout: float = 0.0,
    rng=None,
    training: bool = False,
    return_weights: bool = False,
):
    """Attend per head, concatenate, and map back to model width.

    ``x_q`` and ``x_kv`` are (Z, d_model) or (B, Z, d_model); self-attention
    passes the same tensor for both.  Dropout, when active, is applied to the
    attention weights after the softmax.  Each head's weights mix the raw
    ``x_kv`` rows, and the folded value-output map of ``params.value_out()``
    takes the merged heads back to model width.
    """
    squeeze = x_q.ndim == 2
    if squeeze:
        x_q = x_q.reshape(1, *x_q.shape)
    if x_kv.ndim == 2:
        x_kv = x_kv.reshape(1, *x_kv.shape)
    if x_q.ndim != 3 or x_kv.ndim != 3:
        raise ShapeError(
            f"attention inputs must be (B, Z, d_model), got {x_q.shape} and {x_kv.shape}"
        )
    if x_q.shape[-1] != params.w_query.shape[0]:
        raise ShapeError(
            f"input width {x_q.shape[-1]} != projection width {params.w_query.shape[0]}"
        )

    h = params.n_heads
    q = _split_heads(x_q @ params.w_query, h)
    k = _split_heads(x_kv @ params.w_key, h)

    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = (q @ k.transpose((0, 1, 3, 2))) * scale
    weights = softmax_lastdim(scores)
    if training and attn_dropout > 0.0:
        if rng is None:
            raise ConfigError("attention dropout in training mode needs an rng")
        weights = dropout(weights, attn_dropout, rng, training=True)
    # Every head mixes the same x_kv rows, so the weights of all heads stack
    # query-major into one (Z_q * H, Z_kv) matrix per series.  One GEMM per
    # series then yields the merged (Z_q, H * d_model) head layout directly:
    # only the Z_kv-wide weights are reordered, never the head outputs, and
    # backward has no per-head copy of x_kv to sum.
    b, _, z_q, z_kv = weights.shape
    stacked = weights.transpose((0, 2, 1, 3)).reshape(b, z_q * h, z_kv)
    merged = (stacked @ x_kv).reshape(b, z_q, h * x_kv.shape[-1])
    out = merged @ params.value_out()
    if squeeze:
        out = out.reshape(*out.shape[1:])
        if return_weights:
            weights = weights.reshape(*weights.shape[1:])
    if return_weights:
        return out, weights
    return out
