"""Finite-difference verification of backward-pass gradients.

``finite_diff_check`` compares the gradients produced by ``backward()``
against central differences, parameter element by parameter element.  The
loss function is re-evaluated from scratch for every probe, so it must be a
pure function of the parameter values; the checker confirms this up front by
evaluating it twice and requiring bitwise agreement.  Each probe installs a
perturbed read-only copy of the parameter array and the original array object
is put back afterwards, so parameters are never edited in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DeterminismError, NumericsError, ShapeError
from .params import ParameterStore, read_only
from .tensor import Tensor, no_grad

__all__ = ["ParamCheck", "GradCheckReport", "finite_diff_check"]


@dataclass
class ParamCheck:
    """Comparison result for one named parameter."""

    name: str
    max_rel_err: float
    max_abs_err: float
    n_elements: int


@dataclass
class GradCheckReport:
    """Per-parameter relative errors between analytic and numeric gradients."""

    tol: float
    eps: float
    checks: list[ParamCheck] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return max((c.max_rel_err for c in self.checks), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol

    def format_lines(self) -> list[str]:
        width = max((len(c.name) for c in self.checks), default=4)
        lines = [
            f"{c.name:<{width}}  rel_err={c.max_rel_err:.3e}  "
            f"abs_err={c.max_abs_err:.3e}  n={c.n_elements}"
            for c in self.checks
        ]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"{verdict}: max rel err {self.max_rel_err:.3e} vs tol {self.tol:.1e} "
            f"over {sum(c.n_elements for c in self.checks)} elements"
        )
        return lines


def _eval_scalar(loss_fn: Callable[[], Tensor]) -> float:
    value = loss_fn()
    if not isinstance(value, Tensor):
        raise ShapeError("loss function must return a Tensor")
    if value.size != 1:
        raise ShapeError(f"loss function must return a scalar, got shape {value.shape}")
    return float(value.data.reshape(()))


def _perturbed(original: np.ndarray, index: int, delta: float) -> np.ndarray:
    """A read-only copy of ``original`` with flat element ``index`` moved by ``delta``."""
    values = original.copy()
    values.reshape(-1)[index] += delta
    return read_only(values)


def finite_diff_check(
    loss_fn: Callable[[], Tensor],
    params: ParameterStore,
    eps: float = 1e-4,
    tol: float = 1e-5,
    corrupt: str | None = None,
) -> GradCheckReport:
    """Check backward() of ``loss_fn`` against central differences.

    ``corrupt`` names a parameter whose analytic gradient is deliberately
    scaled before comparison; it exists as a negative control so callers can
    confirm the checker actually detects wrong gradients.  ``eps`` and ``tol``
    must be finite and positive.
    """
    for label, value in (("eps", eps), ("tol", tol)):
        if not 0.0 < value < np.inf:
            raise ConfigError(f"{label} must be finite and positive, got {value}")
    with no_grad():
        first = _eval_scalar(loss_fn)
        second = _eval_scalar(loss_fn)
    if not (np.float64(first) == np.float64(second)):
        raise DeterminismError(
            f"loss function is not deterministic: {first!r} != {second!r}"
        )
    if not np.isfinite(first):
        raise NumericsError(f"loss is not finite: {first!r}")

    loss = loss_fn()
    if loss.size != 1:
        raise ShapeError(f"loss function must return a scalar, got shape {loss.shape}")
    grads = loss.backward()
    # A parameter the loss never reaches has a zero gradient.
    analytic = {name: grads.get(t, np.zeros_like(t.data)) for name, t in params.items()}
    if corrupt is not None:
        if corrupt not in analytic:
            raise ShapeError(f"cannot corrupt unknown parameter {corrupt!r}")
        analytic[corrupt] = analytic[corrupt] * 1.5 + 1.0

    def probe() -> float:
        with no_grad():
            return _eval_scalar(loss_fn)

    report = GradCheckReport(tol=tol, eps=eps)
    for name, tensor in params.items():
        original = tensor.data
        numeric = np.zeros(original.size)
        try:
            for i in range(original.size):
                tensor.data = _perturbed(original, i, eps)
                plus = probe()
                tensor.data = _perturbed(original, i, -eps)
                minus = probe()
                numeric[i] = (plus - minus) / (2.0 * eps)
        finally:
            tensor.data = original
        a = analytic[name].reshape(-1)
        denom = np.maximum(1e-8, np.abs(a) + np.abs(numeric))
        rel = np.abs(a - numeric) / denom
        report.checks.append(
            ParamCheck(
                name=name,
                max_rel_err=float(rel.max(initial=0.0)),
                max_abs_err=float(np.abs(a - numeric).max(initial=0.0)),
                n_elements=int(original.size),
            )
        )
    return report
