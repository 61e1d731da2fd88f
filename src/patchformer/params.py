"""Seeded random streams and named trainable parameters.

All randomness in the package flows through Rng so that a single integer seed
pins down initialisation, shuffling, dropout masks, and synthetic data.
Derived streams come from ``child(...)``, which mixes extra integer keys into
the seed; streams with different keys are statistically independent and a
stream never depends on how much another stream has been consumed.  Seeds
and keys are non-negative integers; a negative one is a ``ConfigError``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor

__all__ = ["Rng", "ParameterStore", "read_only"]


def read_only(values: np.ndarray) -> np.ndarray:
    """Mark ``values`` read-only and return it; every parameter array goes in so.

    A parameter gets new values only as a new array, never by an in-place
    edit, because attention memoises products of its weights on the identity
    of their arrays.  An in-place write raises ``ValueError`` instead of
    leaving such a memo stale.
    """
    values.flags.writeable = False
    return values


class Rng(np.random.Generator):
    """A PCG64 generator seeded by ``[seed, *keys]``, with deterministic child spawning."""

    def __init__(self, seed: int, _keys: tuple[int, ...] = ()):
        self.seed = int(seed)
        if self.seed < 0 or any(k < 0 for k in _keys):
            raise ConfigError(
                f"seeds and stream keys must be non-negative, got {self.seed} and {_keys}"
            )
        self._keys = _keys
        super().__init__(np.random.PCG64(np.random.SeedSequence([self.seed, *_keys])))

    def child(self, *keys: int) -> "Rng":
        """A fresh stream derived from this seed and the given integer keys."""
        return Rng(self.seed, self._keys + tuple(int(k) for k in keys))


class ParameterStore:
    """Insertion-ordered registry of named trainable tensors.

    Creation order is part of the model definition: every initialiser draws
    from the store's own stream, so building the same architecture with the
    same seed reproduces every weight bit for bit.  Given a ``state`` (name to
    array), the initialisers take its arrays instead and draw nothing.  Each
    array is popped out of ``state`` as its copy is made, so a build holds at
    most one given array beside its own; the caller's dict ends up empty.
    Parameter arrays are read-only and own their data (see ``read_only``).
    """

    def __init__(self, seed: int, state: dict[str, np.ndarray] | None = None):
        self.seed = int(seed)
        self.rng = Rng(self.seed).child(0)
        self._entries: dict[str, Tensor] = {}
        self._pending = state

    def __getitem__(self, name: str) -> Tensor:
        if name not in self._entries:
            raise ConfigError(f"unknown parameter {name!r}")
        return self._entries[name]

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._entries.items())

    def names(self) -> list[str]:
        return list(self._entries)

    def total_size(self) -> int:
        return sum(t.size for t in self._entries.values())

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._entries:
            raise ConfigError(f"parameter {name!r} already registered")
        tensor = Tensor(read_only(np.array(data, dtype=np.float64)), requires_grad=True)
        self._entries[name] = tensor
        return tensor

    def _register(self, name: str, shape: tuple[int, ...], draw) -> Tensor:
        """Add the given state's array for ``name``, or else ``draw()``."""
        if self._pending is None:
            return self.add(name, draw())
        if name not in self._pending:
            raise ConfigError(f"no array for parameter {name!r}")
        values = np.asarray(self._pending.pop(name))
        if values.shape != shape or values.dtype.kind not in "biuf":
            raise ShapeError(
                f"parameter {name!r} expects real numbers of shape {shape}, "
                f"got {values.dtype} of shape {values.shape}"
            )
        return self.add(name, values)

    def seal(self) -> None:
        """End a build: refuse arrays that no initialiser took, and drop the state."""
        surplus, self._pending = self._pending, None
        if surplus:
            raise ConfigError(f"arrays for unknown parameters {sorted(surplus)}")

    def weight(self, name: str, shape: tuple[int, ...]) -> Tensor:
        """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) for an (in, out) matrix."""
        if len(shape) < 1 or shape[0] < 1:
            raise ShapeError(f"weight {name!r} needs a positive fan-in, got {shape}")
        bound = 1.0 / float(np.sqrt(shape[0]))
        return self._register(name, shape, lambda: self.rng.uniform(-bound, bound, shape))

    def uniform(self, name: str, shape: tuple[int, ...], low: float, high: float) -> Tensor:
        return self._register(name, shape, lambda: self.rng.uniform(low, high, shape))

    def zeros(self, name: str, shape: tuple[int, ...]) -> Tensor:
        return self._register(name, shape, lambda: np.zeros(shape))

    def ones(self, name: str, shape: tuple[int, ...]) -> Tensor:
        return self._register(name, shape, lambda: np.ones(shape))

    # ``zero_grads`` does nothing (no tensor holds a gradient) and nothing calls
    # it, but bench/spans.py rebinds ``ParameterStore.zero_grads`` by looking it
    # up in this class's namespace, so a traced run fails with KeyError without it.
    def zero_grads(self) -> None:
        pass

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._entries.items()}
