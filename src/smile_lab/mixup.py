"""The mix rule and Beta coefficient sampling.

Convention: mix(u, v, lam) = (1 - lam) * u + lam * v, so lam = 0 returns u.
"""

from __future__ import annotations

import math

import numpy as np


def mix(u: np.ndarray, v: np.ndarray, lam: float) -> np.ndarray:
    return mix_rows(u, v, [lam])[0]


def mix_rows(u: np.ndarray, v: np.ndarray, lams) -> np.ndarray:
    """Row r is (1 - lams[r]) * u + lams[r] * v, all rows in one broadcast;
    at 0 and 1 it is a copy of the endpoint, which keeps a zero's sign."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"mix shape mismatch: {u.shape} vs {v.shape}")
    for lam in lams:
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda out of range: {lam}")
    c = np.array(lams, dtype=np.float64).reshape((-1,) + (1,) * u.ndim)
    rows = (1.0 - c) * u + c * v
    for row, lam in enumerate(lams):
        if lam in (0.0, 1.0):
            rows[row] = v if lam else u
    return rows


def sample_lambda(alpha: float, rng: np.random.Generator) -> float:
    """lam ~ Beta(alpha, alpha) via two Gamma draws."""
    g1 = rng.gamma(alpha, 1.0)
    g2 = rng.gamma(alpha, 1.0)
    if g1 + g2 == 0.0:
        # Both draws underflowed (a small alpha). g1 / (g1 + g2) does not
        # depend on g1 + g2, so two fresh draws keep the law; compare them
        # in log space, with Gamma(alpha) = Gamma(alpha + 1) * U**(1/alpha).
        log_g = [math.log(rng.gamma(alpha + 1.0, 1.0)) for _ in range(2)]
        log_u = [math.log1p(-rng.random()) for _ in range(2)]
        d = log_g[1] - log_g[0] + (log_u[1] - log_u[0]) / alpha  # log g2/g1
        e = math.exp(-abs(d))       # 1 / (1 + exp(d)) without an overflow
        return 1.0 / (1.0 + e) if d < 0 else e / (1.0 + e)
    return float(g1 / (g1 + g2))
