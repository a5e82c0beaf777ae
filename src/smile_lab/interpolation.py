"""Interpolation-loss diagnostics: how linear is a model between samples?

The estimator mixes a random pair at two anchor coefficients d1, d2 and at a
point lam-way between them, then measures how far the model output at the
in-between input falls from the straight line between the anchor outputs,
normalized by the anchor-output distance.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from . import model
from .data import atomic_write

TRAJECTORY_COEFFICIENTS = (0.6, 0.7, 0.8, 0.9, 1.0)


class AllDrawsDegenerate(ValueError):
    """Every sampled draw had anchor outputs closer than ``denom_epsilon``,
    so no distance ratio is defined."""


@dataclass
class ILConfig:
    layer: str = "label"                 # "label" (logits) or "feature"
    delta_low: float = 0.5
    delta_high: float = 1.0
    n_pairs: int = 100
    n_delta_draws: int = 4
    n_lambda_draws: int = 4
    denom_epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.delta_low <= self.delta_high <= 1.0):
            raise ValueError("delta support must lie within [0, 1]")
        if min(self.n_pairs, self.n_delta_draws, self.n_lambda_draws) < 1:
            raise ValueError("draw counts must be >= 1")
        if self.layer not in ("label", "feature"):
            raise ValueError(f"unknown layer {self.layer!r}")


@dataclass
class ILReport:
    mean: float
    std: float
    n_effective: int
    n_degenerate: int
    config: ILConfig


def _mix_rows(x_a: np.ndarray, x_b: np.ndarray, coefs) -> np.ndarray:
    """np.stack([mix(x_a, x_b, c) for c in coefs]) in one broadcast."""
    c = np.array(coefs).reshape((-1,) + (1,) * x_a.ndim)
    batch = (1.0 - c) * x_a + c * x_b
    # mix copies an endpoint input, which keeps the sign of a zero pixel
    for row, coef in enumerate(coefs):
        if coef == 0.0:
            batch[row] = x_a
        elif coef == 1.0:
            batch[row] = x_b
    return batch


def estimate_IL(model_fn: Callable[[np.ndarray], np.ndarray],
                dataset, config: ILConfig,
                rng: np.random.Generator | None = None) -> ILReport:
    """Monte-Carlo estimate of the interpolation loss.

    ``model_fn`` maps a batch of inputs to a batch of output vectors (logits
    or features, per config.layer). ``rng`` may be any object exposing
    ``integers`` and ``uniform`` (a stub enables exhaustive enumeration).
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n = len(dataset)
    if n < 2:
        raise ValueError("need at least two samples")
    ratios: List[float] = []
    n_degenerate = 0
    for _ in range(config.n_pairs):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        x_a, x_b = dataset.inputs[i], dataset.inputs[j]
        for _ in range(config.n_delta_draws):
            d1 = float(rng.uniform(config.delta_low, config.delta_high))
            d2 = float(rng.uniform(config.delta_low, config.delta_high))
            lams = [float(rng.uniform(0.0, 1.0))
                    for _ in range(config.n_lambda_draws)]
            coefs = [d1, d2] + [lam * d1 + (1.0 - lam) * d2 for lam in lams]
            outs = np.asarray(model_fn(_mix_rows(x_a, x_b, coefs)),
                              dtype=np.float64)
            y1, y2 = outs[0], outs[1]
            # ||y_it - (lam*y1 + (1-lam)*y2)|| / ||y1 - y2||; anchors closer
            # than denom_epsilon make every lambda of the draw degenerate
            denom = float(np.linalg.norm(y1 - y2))
            if denom < config.denom_epsilon:
                n_degenerate += len(lams)
                continue
            for y_it, lam in zip(outs[2:], lams, strict=True):
                numer = float(np.linalg.norm(
                    y_it - (lam * y1 + (1.0 - lam) * y2)))
                ratios.append(numer / denom)
    if not ratios:
        raise AllDrawsDegenerate("every sampled pair had coincident outputs")
    arr = np.array(ratios)
    return ILReport(float(arr.mean()), float(arr.std()), len(arr),
                    n_degenerate, config)


def model_output_fn(weights: model.ModelWeights, layer: str):
    """Batch->outputs closure for estimate_IL over trained weights.

    The feature closure keeps each batch's features, read-only, under the
    sha256 of the batch for as long as the closure lives: the label and
    feature estimates of one seed draw the same batches, so logits taken
    as ``model.head_logits`` of this closure's output cost no second
    feature extraction.
    """
    if layer == "feature":
        cache = {}

        def features(x: np.ndarray) -> np.ndarray:
            x = np.ascontiguousarray(x)
            key = (x.shape, x.dtype.str, hashlib.sha256(x).digest())
            if key not in cache:
                feats = model.feature_extract(x, weights)
                feats.setflags(write=False)
                cache[key] = feats
            return cache[key]

        return features
    return lambda x: model.head_logits(model.feature_extract(x, weights),
                                       weights)


def pca_2d(points: np.ndarray):
    """Mean-centered projection onto the top-2 principal directions.

    Sign convention: first nonzero loading of each component is positive.
    Returns (projected (n, 2), explained variance fractions (2,)).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2 or points.shape[1] < 2:
        raise ValueError("need at least 2 points of dimension >= 2")
    centered = points - points.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:2]
    for r in range(comps.shape[0]):
        nonzero = np.flatnonzero(np.abs(comps[r]) > 1e-12)
        if len(nonzero) and comps[r, nonzero[0]] < 0:
            comps[r] = -comps[r]
    eigvals = s ** 2 / (points.shape[0] - 1)
    total_var = centered.var(axis=0, ddof=1).sum()
    explained = (eigvals[:2] / total_var if total_var > 0
                 else np.zeros(min(2, len(eigvals))))
    if len(explained) < 2:
        explained = np.pad(explained, (0, 2 - len(explained)))
    return centered @ comps.T, explained[:2]


@dataclass
class TrajectoryPoint:
    pair_id: int
    lam: float
    x: float
    y: float


def feature_interp_trajectory(
        feature_fn: Callable[[np.ndarray], np.ndarray],
        image_pairs: Sequence[tuple],
        coefficients: Sequence[float] = TRAJECTORY_COEFFICIENTS):
    """Feature-space trajectories of mixed inputs, PCA-projected to 2-D.

    Returns (rows, explained variance fractions); one row per
    (pair, coefficient)."""
    if len(image_pairs) < 1:
        raise ValueError("need at least one image pair")
    if not all(0.0 <= c <= 1.0 for c in coefficients):
        raise ValueError(f"coefficients out of [0, 1]: {coefficients}")
    batch = np.concatenate([_mix_rows(a, b, coefficients)
                            for a, b in image_pairs])
    projected, explained = pca_2d(feature_fn(batch))
    points = itertools.product(range(len(image_pairs)), coefficients)
    rows = [TrajectoryPoint(pair_id, float(lam), float(x), float(y))
            for (pair_id, lam), (x, y) in zip(points, projected, strict=True)]
    return rows, explained


def write_trajectory_csv(rows: List[TrajectoryPoint], path) -> None:
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pair_id", "lambda", "x", "y"])
        for r in rows:
            writer.writerow([r.pair_id, r.lam, repr(r.x), repr(r.y)])
