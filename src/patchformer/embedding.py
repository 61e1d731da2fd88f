"""Slicing a univariate series into patches and projecting them to model width.

A length-I series is extended with ``stride`` copies of its final value and
then cut into overlapping windows of ``patch_len`` every ``stride`` steps,
giving Z = floor((I - patch_len) / stride) + 2 patch rows.  Each row is
projected by a shared ``linear`` map and offset by a learnable position
vector; the same tables serve every channel, and their shapes give patch_len
and the patch capacity.  ``patch_embed`` is the only patcher: it pads with
``tensor.pad_last`` and cuts with ``tensor.unfold_windows``, both graph ops.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, ConfigError, ShapeError
from .params import ParameterStore
from .tensor import Tensor, linear, pad_last, unfold_windows

__all__ = [
    "EmbeddingParams",
    "compute_patch_count",
    "patch_embed",
]


def compute_patch_count(series_len: int, patch_len: int, stride: int) -> int:
    """Number of patch rows produced for a series of the given length."""
    if patch_len < 1 or not 1 <= stride <= patch_len:
        raise ConfigError(
            f"need 1 <= stride <= patch_len, got stride {stride} and patch_len {patch_len}"
        )
    if series_len < patch_len:
        raise ShapeError(f"series of length {series_len} is shorter than patch_len {patch_len}")
    return (series_len - patch_len) // stride + 2


@dataclass
class EmbeddingParams:
    """Learnable projection and position tables shared by all channels."""

    value_weight: Tensor  # (patch_len, d_model)
    position: Tensor  # (max_patches, d_model)
    stride: int

    @classmethod
    def build(
        cls, store: ParameterStore, prefix: str, patch_len: int, stride: int, d_model: int,
        max_patches: int,
    ) -> "EmbeddingParams":
        return cls(
            value_weight=store.weight(f"{prefix}.value_weight", (patch_len, d_model)),
            position=store.uniform(f"{prefix}.position", (max_patches, d_model), -0.02, 0.02),
            stride=stride,
        )


def patch_embed(x, params: EmbeddingParams) -> Tensor:
    """Embed series (..., I) into patch tokens (..., Z, d_model).

    Differentiable with respect to both the tables and ``x`` when ``x`` is a
    Tensor carrying gradient state.
    """
    xt = x if isinstance(x, Tensor) else Tensor(x)
    if xt.ndim < 1:
        raise ShapeError("patch_embed expects at least a 1-d series")
    patch_len, capacity = params.value_weight.shape[0], params.position.shape[0]
    z = compute_patch_count(xt.shape[-1], patch_len, params.stride)
    if z > capacity:
        raise CapacityError(f"series needs {z} patch positions but the table holds {capacity}")
    padded = pad_last(xt, params.stride)
    grid = unfold_windows(padded, patch_len, params.stride)
    return linear(grid, params.value_weight) + params.position[:z]
