"""Slicing a univariate series into patches and projecting them to model width.

A length-I series is extended with ``stride`` copies of its final value and
then cut into overlapping windows of ``patch_len`` every ``stride`` steps,
giving Z = floor((I - patch_len) / stride) + 2 patch rows.  The cut is data
preparation in numpy (``patch_grid``); the graph starts at the projection.
Each row is projected by a shared ``linear`` map and offset by a learnable
position vector; the same tables serve every channel, and their shapes give
patch_len and the patch capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, ShapeError
from .params import ParameterStore
from .tensor import Tensor, linear

__all__ = [
    "EmbeddingParams",
    "compute_patch_count",
    "patch_embed",
    "patch_grid",
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


def patch_grid(x, patch_len: int, stride: int) -> np.ndarray:
    """Cut series (..., I) into the (..., Z, patch_len) grid that ``patch_embed`` projects."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 1:
        raise ShapeError("patching expects at least a 1-d series")
    compute_patch_count(x.shape[-1], patch_len, stride)
    padded = np.concatenate([x, np.repeat(x[..., -1:], stride, axis=-1)], axis=-1)
    windows = np.lib.stride_tricks.sliding_window_view(padded, patch_len, axis=-1)
    return np.ascontiguousarray(windows[..., ::stride, :])


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
    """Embed series (..., I) into patch tokens (..., Z, d_model)."""
    grid = patch_grid(x, params.value_weight.shape[0], params.stride)
    z, capacity = grid.shape[-2], params.position.shape[0]
    if z > capacity:
        raise CapacityError(f"series needs {z} patch positions but the table holds {capacity}")
    return linear(Tensor(grid), params.value_weight) + params.position[:z]
