import numpy as np
import pytest

from gradcheck import grad_check


def test_grad_check_passes_on_square():
    def f(x):
        return float(x[0] ** 2), np.array([2.0 * x[0]])

    report = grad_check(f, np.array([3.0]))
    assert report["passed"]
    assert report["analytic"] == pytest.approx([6.0])
    assert report["finite_difference"] == pytest.approx([6.0], rel=1e-6)


def test_grad_check_detects_corrupted_gradient():
    def f(x):
        return float(x[0] ** 2), np.array([2.0 * x[0] + 0.5])  # wrong rule

    assert not grad_check(f, np.array([3.0]))["passed"]
