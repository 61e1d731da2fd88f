"""Slicing a univariate series into patches and projecting them to model width.

A length-I series is extended with ``stride`` copies of its final value and
then cut into overlapping windows of ``patch_len`` every ``stride`` steps,
giving Z = floor((I - patch_len) / stride) + 2 patch rows.  Each row is
projected by a shared linear map and offset by a learnable position vector;
the same tables serve every channel.  ``patch_embed`` is the only patcher: it
pads with ``tensor.pad_last`` and cuts with ``tensor.unfold_windows``, both
graph ops, so the patches stay differentiable in the series.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, ConfigError, ShapeError
from .params import ParameterStore
from .tensor import Tensor, pad_last, unfold_windows

__all__ = [
    "PatchConfig",
    "EmbeddingParams",
    "compute_patch_count",
    "patch_embed",
]


@dataclass(frozen=True)
class PatchConfig:
    """Patch geometry plus the width and capacity of the embedding tables."""

    patch_len: int
    stride: int
    d_model: int
    max_patches: int

    def __post_init__(self):
        if self.patch_len < 1:
            raise ConfigError(f"patch_len must be positive, got {self.patch_len}")
        if self.stride < 1:
            raise ConfigError(f"stride must be positive, got {self.stride}")
        if self.stride > self.patch_len:
            raise ConfigError(
                f"stride {self.stride} larger than patch_len {self.patch_len} "
                "would drop input values"
            )
        if self.d_model < 1:
            raise ConfigError(f"d_model must be positive, got {self.d_model}")
        if self.max_patches < 1:
            raise ConfigError(f"max_patches must be positive, got {self.max_patches}")


def compute_patch_count(series_len: int, cfg: PatchConfig) -> int:
    """Number of patch rows produced for a series of the given length."""
    if series_len < cfg.patch_len:
        raise ShapeError(
            f"series of length {series_len} is shorter than patch_len {cfg.patch_len}"
        )
    return (series_len - cfg.patch_len) // cfg.stride + 2


@dataclass
class EmbeddingParams:
    """Learnable projection and position tables shared by all channels."""

    value_weight: Tensor  # (patch_len, d_model)
    position: Tensor  # (max_patches, d_model)

    @classmethod
    def build(cls, store: ParameterStore, prefix: str, cfg: PatchConfig) -> "EmbeddingParams":
        return cls(
            value_weight=store.weight(f"{prefix}.value_weight", (cfg.patch_len, cfg.d_model)),
            position=store.uniform(
                f"{prefix}.position", (cfg.max_patches, cfg.d_model), -0.02, 0.02
            ),
        )


def patch_embed(x, params: EmbeddingParams, cfg: PatchConfig) -> Tensor:
    """Embed series (..., I) into patch tokens (..., Z, d_model).

    Differentiable with respect to both the tables and ``x`` when ``x`` is a
    Tensor carrying gradient state.
    """
    xt = x if isinstance(x, Tensor) else Tensor(x)
    if xt.ndim < 1:
        raise ShapeError("patch_embed expects at least a 1-d series")
    z = compute_patch_count(xt.shape[-1], cfg)
    if z > cfg.max_patches:
        raise CapacityError(
            f"series needs {z} patch positions but the table holds {cfg.max_patches}"
        )
    padded = pad_last(xt, cfg.stride)
    grid = unfold_windows(padded, cfg.patch_len, cfg.stride)
    tokens = grid @ params.value_weight
    return tokens + params.position[:z]
