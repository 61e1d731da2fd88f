"""Tests for series patching and the linear patch embedding.

The patch-count arithmetic is checked both against hand-computed values and
against a brute-force enumeration over random geometry, since every later
shape in the model hangs off this one formula.
"""

import numpy as np
import pytest

from patchformer import (
    EmbeddingParams,
    ParameterStore,
    PatchConfig,
    Tensor,
    compute_patch_count,
    pad_last,
    patch_embed,
    unfold_windows,
)
from patchformer.errors import CapacityError, ConfigError, ShapeError


def cfg(patch_len=16, stride=8, d_model=4, max_patches=64):
    return PatchConfig(
        patch_len=patch_len, stride=stride, d_model=d_model, max_patches=max_patches
    )


# -- patch-count oracles ---------------------------------------------------------


def test_patch_count_reference_geometry():
    assert compute_patch_count(96, cfg()) == 12


def test_patch_count_long_lookback():
    assert compute_patch_count(336, cfg()) == 42


def test_patch_count_minimum_series():
    assert compute_patch_count(16, cfg()) == 2


def test_patch_count_rejects_short_series():
    with pytest.raises(ShapeError):
        compute_patch_count(15, cfg())


def test_patch_count_brute_force_property(rng_np):
    """The closed form must equal literally counting windows after padding."""
    for _ in range(200):
        patch_len = int(rng_np.integers(1, 24))
        stride = int(rng_np.integers(1, patch_len + 1))
        series_len = int(rng_np.integers(patch_len, 200))
        geometry = cfg(patch_len=patch_len, stride=stride, max_patches=1000)
        padded = series_len + stride
        counted = len(range(0, padded - patch_len + 1, stride))
        assert compute_patch_count(series_len, geometry) == counted, (
            f"I={series_len} P={patch_len} S={stride}"
        )


# -- slicing ----------------------------------------------------------------------


def patch_grid(x, geometry: PatchConfig) -> np.ndarray:
    """The (Z, patch_len) grid ``patch_embed`` projects: pad, then unfold."""
    padded = pad_last(Tensor(x), geometry.stride)
    return unfold_windows(padded, geometry.patch_len, geometry.stride).data


def test_pad_series_repeats_last_value():
    out = pad_last(Tensor(np.array([1.0, 2.0, 3.0])), 2).data
    assert out.tolist() == [1.0, 2.0, 3.0, 3.0, 3.0]


def test_patch_series_oracle():
    geometry = cfg(patch_len=4, stride=2, max_patches=16)
    grid = patch_grid(np.arange(1.0, 11.0), geometry)
    assert grid.shape == (5, 4) and compute_patch_count(10, geometry) == 5
    assert grid.tolist() == [
        [1.0, 2.0, 3.0, 4.0],
        [3.0, 4.0, 5.0, 6.0],
        [5.0, 6.0, 7.0, 8.0],
        [7.0, 8.0, 9.0, 10.0],
        [9.0, 10.0, 10.0, 10.0],
    ]


def test_patch_series_non_overlapping():
    geometry = cfg(patch_len=2, stride=2, max_patches=16)
    grid = patch_grid(np.arange(1.0, 7.0), geometry)
    assert grid.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [6.0, 6.0]]


def test_patch_series_rejects_short_input():
    geometry = cfg(patch_len=4, stride=2)
    store, params = build_embedding(geometry)
    with pytest.raises(ShapeError):
        compute_patch_count(3, geometry)
    with pytest.raises(ShapeError):
        patch_embed(Tensor(np.ones(3)), params, geometry)


# -- embedding --------------------------------------------------------------------


def build_embedding(geometry, seed=0):
    store = ParameterStore(seed=seed)
    return store, EmbeddingParams.build(store, "embed", geometry)


def test_patch_embed_shape():
    geometry = cfg(patch_len=4, stride=2, d_model=6, max_patches=16)
    store, params = build_embedding(geometry)
    out = patch_embed(Tensor(np.ones(10)), params, geometry)
    assert out.shape == (5, 6)


def test_patch_embed_batched_shape():
    geometry = cfg(patch_len=4, stride=2, d_model=6, max_patches=16)
    store, params = build_embedding(geometry)
    out = patch_embed(Tensor(np.ones((3, 10))), params, geometry)
    assert out.shape == (3, 5, 6)


def test_patch_embed_is_affine_in_input(rng_np):
    """Fixing the weights, the map x -> embed(x) - embed(0) must be linear."""
    geometry = cfg(patch_len=4, stride=2, d_model=6, max_patches=16)
    store, params = build_embedding(geometry)
    x = rng_np.normal(size=10)
    y = rng_np.normal(size=10)

    def run(v):
        return patch_embed(Tensor(v), params, geometry).data

    zero = run(np.zeros(10))
    lhs = run(2.0 * x + 3.0 * y) - zero
    rhs = 2.0 * (run(x) - zero) + 3.0 * (run(y) - zero)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_patch_embed_position_rows_add(rng_np):
    geometry = cfg(patch_len=4, stride=2, d_model=6, max_patches=16)
    store, params = build_embedding(geometry)
    x = rng_np.normal(size=10)
    out = patch_embed(Tensor(x), params, geometry).data
    grid = patch_grid(x, geometry)
    expected = grid @ params.value_weight.data + params.position.data[:5]
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_patch_embed_capacity_error():
    geometry = cfg(patch_len=4, stride=2, d_model=6, max_patches=3)
    store, params = build_embedding(geometry)
    with pytest.raises(CapacityError):
        patch_embed(Tensor(np.ones(10)), params, geometry)


def test_patch_embed_rejects_short_series():
    geometry = cfg(patch_len=8, stride=4, d_model=6, max_patches=16)
    store, params = build_embedding(geometry)
    with pytest.raises(ShapeError):
        patch_embed(Tensor(np.ones(7)), params, geometry)


def test_patch_config_validation():
    with pytest.raises(ConfigError):
        PatchConfig(patch_len=0, stride=1, d_model=4, max_patches=8)
    with pytest.raises(ConfigError):
        PatchConfig(patch_len=4, stride=0, d_model=4, max_patches=8)
    with pytest.raises(ConfigError):
        PatchConfig(patch_len=4, stride=8, d_model=4, max_patches=8)
    with pytest.raises(ConfigError):
        PatchConfig(patch_len=4, stride=2, d_model=0, max_patches=8)
