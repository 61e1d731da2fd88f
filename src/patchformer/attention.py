"""Scaled dot-product attention and its multi-head wrapper.

Attention here is always bidirectional: every query row may attend to every
key row, with no causal mask.  Heads are evaluated in one batched pass by
stacking their projection matrices; each head's block of the stacked weight
matrix feeds exactly one slice of the reshaped activations, so the result
matches a head-by-head loop.  Each head scores with d_model / n_heads columns.

A block records four fused graph nodes: ``linear`` for the query, key and
value projections, then one ``attention_core`` (scores on head views of Q
and K, scaling, softmax and, in a training pass, the dropout mask done in
place, then the mix of each head's value rows, summed over heads).  The mask
is the next one of the pass's ``Masks``; given none, the block evaluates and
applies no mask.  The core keeps only the softmax weights and the mask, as
bits, for backward, which rebuilds the masked weights; no head-split copy of
Q, K or the output is made.  A single head is the ``n_heads=1`` case of the
same core.

The value and output projections are folded into one map per head.  With
attention weights A_h, the output is the reassociated sum
``sum_h A_h (X W_v,h) W_o,h = sum_h A_h (X (W_v,h W_o,h))``: the products
W_v,h W_o,h, side by side, project the key/value rows X once, so each head's
value rows already carry that head's share of the output map, and the core
only mixes and sums them.  Cross-attention thus runs its widest GEMM over the
key rows, of which there are fewer than query rows.

In grad mode the product is recorded in the graph on every call, so gradients
reach ``w_value`` and ``w_out``.  Under ``no_grad`` it is memoised on the
``AttentionParams`` and reused while both source arrays are the very objects
it was computed from.  That is safe because parameter arrays are immutable:
every writer in the package (construction, whether drawn or from saved
arrays, the Adam step, gradient checking) installs a new read-only array that
owns its data instead of editing one in place, and an in-place write raises
``ValueError``.  A writable array, or a view, assigned to a parameter from
outside the package is never memoised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .params import ParameterStore, read_only
# ``dropout`` and ``softmax_lastdim`` are unused here (the core applies both
# inline) but stay module names: bench/spans.py rebinds ``attention.dropout``
# and ``attention.softmax_lastdim`` by looking them up in this module's
# namespace, so a traced run fails with KeyError without them.
from .tensor import (  # noqa: F401
    Masks,
    Tensor,
    attention_core,
    dropout,
    grad_enabled,
    linear,
    softmax_lastdim,
)

__all__ = [
    "AttentionParams",
    "multi_head_attention",
]


@dataclass
class AttentionParams:
    """Stacked per-head projections plus the shared output map.

    ``w_query``/``w_key`` hold the H head matrices, each d_model / H wide,
    side by side as (d_model, d_model); ``w_value`` likewise as
    (d_model, H * d_model); ``w_out`` maps the concatenated head outputs
    (H * d_model) back to d_model.

    Attention only uses ``w_value`` and ``w_out`` through their per-head
    products, side by side as one (d_model, H * d_model) map (see
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
    def build(
        cls, store: ParameterStore, prefix: str, d_model: int, n_heads: int
    ) -> "AttentionParams":
        d, h = d_model, n_heads
        return cls(
            w_query=store.weight(f"{prefix}.w_query", (d, d)),
            w_key=store.weight(f"{prefix}.w_key", (d, d)),
            w_value=store.weight(f"{prefix}.w_value", (d, h * d)),
            w_out=store.weight(f"{prefix}.w_out", (h * d, d)),
            n_heads=h,
        )

    def value_out(self) -> Tensor:
        """The per-head products W_v,h W_o,h side by side, as (d_model, H * d_model)."""
        w_value, w_out = self.w_value.data, self.w_out.data
        memoise = not grad_enabled() and _frozen(w_value) and _frozen(w_out)
        memo = self._memo
        if memoise and memo is not None and memo[0] is w_value and memo[1] is w_out:
            return memo[2]
        h = self.n_heads
        d = w_value.shape[0]
        per_head = self.w_value.reshape(d, h, d).transpose((1, 0, 2))
        product = per_head @ self.w_out.reshape(h, d, d)
        product = product.transpose((1, 0, 2)).reshape(d, h * d)
        if memoise:
            # The memo holds the source arrays, so their ids cannot be reused.
            self._memo = (w_value, w_out, product)
            read_only(product.data)
        return product


def _frozen(values: np.ndarray) -> bool:
    """True when nothing can edit ``values`` in place short of unfreezing it."""
    return not values.flags.writeable and values.flags.owndata


def multi_head_attention(
    x_q: Tensor, x_kv: Tensor, params: AttentionParams, masks: Masks | None = None
) -> Tensor:
    """Attend per head and sum the heads' shares of the output map.

    ``x_q`` and ``x_kv`` are (B, Z, d_model); self-attention passes the same
    tensor for both.  Given ``masks``, the next (B, H, Z_q, Z_kv) mask it
    draws applies to the attention weights after the softmax; without one
    the block evaluates.  The folded
    value-output map of ``params.value_out()`` projects the ``x_kv`` rows to
    per-head value rows already at model width, which each head's weights mix
    and the core sums over heads.
    """
    if x_q.ndim != 3 or x_kv.ndim != 3:
        raise ShapeError(
            f"attention inputs must be (B, Z, d_model), got {x_q.shape} and {x_kv.shape}"
        )
    if x_q.shape[-1] != params.w_query.shape[0]:
        raise ShapeError(
            f"input width {x_q.shape[-1]} != projection width {params.w_query.shape[0]}"
        )

    h = params.n_heads
    shape = (x_q.shape[0], h, x_q.shape[1], x_kv.shape[1])
    keep = None if masks is None else masks.draw(shape)
    q = linear(x_q, params.w_query)
    k = linear(x_kv, params.w_key)
    v = linear(x_kv, params.value_out())
    return attention_core(q, k, v, h, keep)
