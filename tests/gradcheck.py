"""Central-difference check of analytic gradients, for the tests of the
autodiff engine (tests/test_tensor.py and acceptance criterion 1)."""

from typing import Callable

import numpy as np


def grad_check(f: Callable[[np.ndarray], tuple], point: np.ndarray,
               step: float = 1e-5, tolerance: float = 1e-4) -> dict:
    """Compare analytic against central-difference gradients, coordinatewise.

    ``f(x)`` must return ``(value, analytic_gradient)`` with value scalar.
    Returns a report dict; never raises on mismatch.
    """
    point = np.asarray(point, dtype=np.float64)
    _, analytic = f(point)
    analytic = np.asarray(analytic, dtype=np.float64)
    fd = np.zeros_like(point)
    flat = point.reshape(-1)
    fd_flat = fd.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi, _ = f(point)
        flat[i] = orig - step
        lo, _ = f(point)
        flat[i] = orig
        fd_flat[i] = (float(hi) - float(lo)) / (2.0 * step)
    denom = np.maximum(np.abs(fd), 1.0)
    rel_err = np.abs(analytic - fd) / denom
    max_err = float(rel_err.max()) if rel_err.size else 0.0
    return {
        "max_rel_error": max_err,
        "passed": max_err <= tolerance,
        "analytic": analytic,
        "finite_difference": fd,
        "tolerance": tolerance,
        "step": step,
    }
