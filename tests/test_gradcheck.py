"""Tests for the finite-difference gradient checker itself."""

import numpy as np
import pytest

from patchformer import ParameterStore, Tensor, finite_diff_check
from patchformer.errors import DeterminismError, NumericsError
from patchformer.tensor import linear


def sum_of_squares(w: Tensor) -> Tensor:
    return linear(w.reshape(1, -1), w.reshape(-1, 1))


def quadratic_store():
    store = ParameterStore(seed=0)
    store.add("w", np.array([1.0, -2.0, 3.0]))
    return store


def test_quadratic_is_exact_to_fd_accuracy():
    store = quadratic_store()
    w = dict(store.items())["w"]
    report = finite_diff_check(lambda: sum_of_squares(w), store, tol=1e-8)
    assert report.passed
    assert report.max_rel_err < 1e-8


def test_constant_loss_has_zero_gradient():
    store = quadratic_store()
    report = finite_diff_check(lambda: Tensor(np.array(5.0)), store)
    assert report.passed
    assert report.max_rel_err == 0.0
    assert all(check.max_abs_err == 0.0 for check in report.checks)


def test_corrupted_gradient_is_caught():
    store = quadratic_store()
    w = dict(store.items())["w"]
    report = finite_diff_check(lambda: sum_of_squares(w), store, corrupt="w")
    assert not report.passed
    assert [c.name for c in report.checks if c.max_rel_err > report.tol] == ["w"]


def test_nondeterministic_loss_is_rejected():
    store = quadratic_store()
    w = dict(store.items())["w"]
    state = {"calls": 0}

    def flaky():
        state["calls"] += 1
        return sum_of_squares(w) + Tensor(float(state["calls"]))

    with pytest.raises(DeterminismError):
        finite_diff_check(flaky, store)


def test_nonfinite_loss_is_rejected():
    store = quadratic_store()
    with pytest.raises(NumericsError):
        finite_diff_check(lambda: Tensor(np.array(np.inf)), store)


def test_report_lines_name_every_parameter():
    store = ParameterStore(seed=0)
    a = store.add("a", np.array([1.0]))
    b = store.add("b", np.array([2.0, 3.0]))
    report = finite_diff_check(lambda: sum_of_squares(a) + sum_of_squares(b), store)
    lines = report.format_lines()
    assert any("a" in line for line in lines)
    assert any("b" in line for line in lines)
    assert lines[-1].startswith("PASS")


def test_unknown_corrupt_name_is_rejected():
    store = quadratic_store()
    w = dict(store.items())["w"]
    with pytest.raises(Exception):
        finite_diff_check(lambda: sum_of_squares(w), store, corrupt="nope")
