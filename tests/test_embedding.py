"""Tests for series patching and the linear patch embedding.

The patch-count arithmetic is checked both against hand-computed values and
against a brute-force enumeration over random geometry, since every later
shape in the model hangs off this one formula.
"""

import numpy as np
import pytest

from patchformer import (
    EmbeddingParams,
    ModelConfig,
    ParameterStore,
    compute_patch_count,
    patch_embed,
    patch_grid,
)
from patchformer.errors import CapacityError, ConfigError, ShapeError


# -- patch-count oracles ---------------------------------------------------------


def test_patch_count_reference_geometry():
    assert compute_patch_count(96, 16, 8) == 12


def test_patch_count_long_lookback():
    assert compute_patch_count(336, 16, 8) == 42


def test_patch_count_minimum_series():
    assert compute_patch_count(16, 16, 8) == 2


def test_patch_count_rejects_short_series():
    with pytest.raises(ShapeError):
        compute_patch_count(15, 16, 8)


def test_patch_count_brute_force_property(rng_np):
    """The closed form must equal literally counting windows after padding."""
    for _ in range(200):
        patch_len = int(rng_np.integers(1, 24))
        stride = int(rng_np.integers(1, patch_len + 1))
        series_len = int(rng_np.integers(patch_len, 200))
        padded = series_len + stride
        counted = len(range(0, padded - patch_len + 1, stride))
        assert compute_patch_count(series_len, patch_len, stride) == counted, (
            f"I={series_len} P={patch_len} S={stride}"
        )


# -- slicing ----------------------------------------------------------------------


def test_pad_series_repeats_last_value():
    # padded to [1, 2, 3, 3, 3]: the last patch is the final value and its two copies
    grid = patch_grid(np.array([1.0, 2.0, 3.0]), 3, 2)
    assert grid.tolist() == [[1.0, 2.0, 3.0], [3.0, 3.0, 3.0]]


def test_patch_series_oracle():
    grid = patch_grid(np.arange(1.0, 11.0), 4, 2)
    assert grid.shape == (5, 4) and compute_patch_count(10, 4, 2) == 5
    assert grid.tolist() == [
        [1.0, 2.0, 3.0, 4.0],
        [3.0, 4.0, 5.0, 6.0],
        [5.0, 6.0, 7.0, 8.0],
        [7.0, 8.0, 9.0, 10.0],
        [9.0, 10.0, 10.0, 10.0],
    ]


def test_patch_series_non_overlapping():
    grid = patch_grid(np.arange(1.0, 7.0), 2, 2)
    assert grid.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [6.0, 6.0]]


def test_patch_series_rejects_short_input():
    store, params = build_embedding(patch_len=4, stride=2)
    with pytest.raises(ShapeError):
        compute_patch_count(3, 4, 2)
    with pytest.raises(ShapeError):
        patch_embed(np.ones(3), params)
    with pytest.raises(ShapeError):
        patch_grid(np.ones(3), 4, 2)
    with pytest.raises(ShapeError):
        patch_grid(np.float64(1.0), 1, 1)


# -- embedding --------------------------------------------------------------------


def build_embedding(patch_len=16, stride=8, d_model=4, max_patches=64, seed=0):
    store = ParameterStore(seed=seed)
    return store, EmbeddingParams.build(store, "embed", patch_len, stride, d_model, max_patches)


def test_patch_embed_shape():
    store, params = build_embedding(patch_len=4, stride=2, d_model=6, max_patches=16)
    out = patch_embed(np.ones(10), params)
    assert out.shape == (5, 6)


def test_patch_embed_batched_shape():
    store, params = build_embedding(patch_len=4, stride=2, d_model=6, max_patches=16)
    out = patch_embed(np.ones((3, 10)), params)
    assert out.shape == (3, 5, 6)


def test_patch_embed_is_affine_in_input(rng_np):
    """Fixing the weights, the map x -> embed(x) - embed(0) must be linear."""
    store, params = build_embedding(patch_len=4, stride=2, d_model=6, max_patches=16)
    x = rng_np.normal(size=10)
    y = rng_np.normal(size=10)

    def run(v):
        return patch_embed(v, params).data

    zero = run(np.zeros(10))
    lhs = run(2.0 * x + 3.0 * y) - zero
    rhs = 2.0 * (run(x) - zero) + 3.0 * (run(y) - zero)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_patch_embed_position_rows_add(rng_np):
    store, params = build_embedding(patch_len=4, stride=2, d_model=6, max_patches=16)
    x = rng_np.normal(size=10)
    out = patch_embed(x, params).data
    grid = patch_grid(x, 4, 2)
    expected = grid @ params.value_weight.data + params.position.data[:5]
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_patch_embed_capacity_error():
    store, params = build_embedding(patch_len=4, stride=2, d_model=6, max_patches=3)
    with pytest.raises(CapacityError):
        patch_embed(np.ones(10), params)


def test_patch_embed_rejects_short_series():
    store, params = build_embedding(patch_len=8, stride=4, d_model=6, max_patches=16)
    with pytest.raises(ShapeError):
        patch_embed(np.ones(7), params)


def test_patch_config_validation():
    with pytest.raises(ConfigError):
        compute_patch_count(16, patch_len=0, stride=1)
    with pytest.raises(ConfigError):
        compute_patch_count(16, patch_len=4, stride=0)
    with pytest.raises(ConfigError):
        compute_patch_count(16, patch_len=4, stride=8)
    with pytest.raises(ConfigError):
        ModelConfig(seq_len=16, pred_len=8, n_channels=1, patch_len=4, stride=2, d_model=0)
