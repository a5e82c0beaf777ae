"""Interpolation-loss diagnostics: how linear is a model between samples?

The estimator mixes a random pair at two anchor coefficients d1, d2 and at a
point lam-way between them, then measures how far the model output at the
in-between input falls from the straight line between the anchor outputs,
normalized by the anchor-output distance.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import astuple, dataclass
from typing import Callable, List, Sequence

import numpy as np

from . import data, model
from .mixup import mix_rows

TRAJECTORY_COEFFICIENTS = (0.6, 0.7, 0.8, 0.9, 1.0)


class AllDrawsDegenerate(ValueError):
    """Every sampled draw mixed a pair of equal images or gave exactly equal
    anchor outputs, so no distance ratio is defined."""


class ILTooLarge(ValueError):
    """The draws of an estimate would need more memory than is available."""


class NonFiniteIL(ValueError):
    """An anchor-output distance, or the mean or spread of the distance
    ratios, is NaN or Inf: the model's outputs overflowed or were not
    finite."""


@dataclass
class ILConfig:
    delta_low: float = 0.5
    delta_high: float = 1.0
    n_pairs: int = 100
    n_delta_draws: int = 4
    n_lambda_draws: int = 4
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.delta_low <= self.delta_high <= 1.0):
            raise ValueError("delta support must lie within [0, 1]")
        if min(self.n_pairs, self.n_delta_draws, self.n_lambda_draws) < 1:
            raise ValueError("draw counts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class ILReport:
    mean: float
    std: float
    n_effective: int
    n_degenerate: int
    config: ILConfig


def il_bytes(config: ILConfig, image_size: int,
             cached_width: int = 0) -> int:
    """A bound on the memory estimate_IL takes at its peak, besides the
    model's own: a draw's batch of 2 + n_lambda_draws mixed images with the
    two products it is summed from and its coefficients (two Python floats
    and a float64 a row), and every distance ratio, a Python float in a
    growing list and a float64 in its array and in std's deviations.

    A nonzero cached_width adds what a model_output_fn closure of that
    output width keeps over the draws: each draw's batch of outputs, with
    its array header, its key and its dict entry (under 512 bytes)."""
    rows = 2 + config.n_lambda_draws
    n_ratios = config.n_pairs * config.n_delta_draws * config.n_lambda_draws
    cache = (config.n_pairs * config.n_delta_draws
             * (rows * 8 * cached_width + 512) if cached_width else 0)
    return rows * (3 * 8 * image_size + 72) + 56 * n_ratios + cache


@np.errstate(over="ignore", invalid="ignore")
def estimate_IL(model_fn: Callable[[np.ndarray], np.ndarray],
                dataset, config: ILConfig,
                rng: np.random.Generator | None = None) -> ILReport:
    """Monte-Carlo estimate of the interpolation loss.

    ``model_fn`` maps a batch of inputs to a batch of output vectors (logits
    or features). ``rng`` may be any object exposing ``integers`` and
    ``uniform`` (a stub enables exhaustive enumeration).
    numpy's overflow warnings are silenced inside: a non-finite distance
    ends as one NonFiniteIL instead.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n = len(dataset)
    if n < 2:
        raise ValueError("need at least two samples")
    data.check_fits(il_bytes(config, dataset.inputs[0].size), "the IL draws",
                    ILTooLarge)
    ratios: List[float] = []
    n_degenerate = 0
    for _ in range(config.n_pairs):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        x_a, x_b = dataset.inputs[i], dataset.inputs[j]
        same_images = np.array_equal(x_a, x_b)
        for _ in range(config.n_delta_draws):
            d1 = float(rng.uniform(config.delta_low, config.delta_high))
            d2 = float(rng.uniform(config.delta_low, config.delta_high))
            lams = [float(rng.uniform(0.0, 1.0))
                    for _ in range(config.n_lambda_draws)]
            coefs = [d1, d2] + [lam * d1 + (1.0 - lam) * d2 for lam in lams]
            outs = np.asarray(model_fn(mix_rows(x_a, x_b, coefs)),
                              dtype=np.float64)
            y1, y2 = outs[0], outs[1]
            # a draw of equal images or equal anchor outputs has no ratio
            denom = float(np.linalg.norm(y1 - y2))
            if not math.isfinite(denom):
                raise NonFiniteIL(f"anchor outputs {denom} apart")
            if same_images or denom == 0.0:
                n_degenerate += len(lams)
                continue
            for y_it, lam in zip(outs[2:], lams, strict=True):
                numer = float(np.linalg.norm(
                    y_it - (lam * y1 + (1.0 - lam) * y2)))
                ratios.append(numer / denom)
    if not ratios:
        raise AllDrawsDegenerate("every sampled draw mixed equal images or "
                                 "gave equal anchor outputs")
    arr = np.array(ratios)
    mean, std = float(arr.mean()), float(arr.std())
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise NonFiniteIL(f"distance ratios of mean {mean} and std {std}")
    return ILReport(mean, std, len(arr), n_degenerate, config)


def model_output_fn(weights: model.ModelWeights, layer: str):
    """Batch->outputs closure for estimate_IL over trained weights.

    The feature closure keeps each batch's features, read-only, under the
    sha256 of the batch for as long as the closure lives: the label and
    feature estimates of one seed draw the same batches, so logits taken
    as ``model.head_logits`` of this closure's output cost no second
    feature extraction. ``il_bytes`` with a cached_width bounds what it
    keeps.
    """
    if layer != "feature":
        raise ValueError(f"unknown layer {layer!r}: logits are "
                         "model.head_logits of the feature closure")
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


def pca_2d(points: np.ndarray) -> np.ndarray:
    """Mean-centered projection onto the top-2 principal directions.

    Sign convention: first nonzero loading of each component is positive.
    Returns the projected points, (n, 2).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2 or points.shape[1] < 2:
        raise ValueError("need at least 2 points of dimension >= 2")
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:2]
    for r in range(comps.shape[0]):
        nonzero = np.flatnonzero(np.abs(comps[r]) > 1e-12)
        if len(nonzero) and comps[r, nonzero[0]] < 0:
            comps[r] = -comps[r]
    return centered @ comps.T


@dataclass
class TrajectoryPoint:
    pair_id: int
    lam: float
    x: float
    y: float


def feature_interp_trajectory(
        feature_fn: Callable[[np.ndarray], np.ndarray],
        image_pairs: Sequence[tuple]) -> List[TrajectoryPoint]:
    """Feature-space trajectories of mixed inputs, PCA-projected to 2-D.

    Returns one row per (pair, coefficient of TRAJECTORY_COEFFICIENTS)."""
    if len(image_pairs) < 1:
        raise ValueError("need at least one image pair")
    batch = np.concatenate([mix_rows(a, b, TRAJECTORY_COEFFICIENTS)
                            for a, b in image_pairs])
    projected = pca_2d(feature_fn(batch))
    points = itertools.product(range(len(image_pairs)),
                               TRAJECTORY_COEFFICIENTS)
    return [TrajectoryPoint(pair_id, float(lam), float(x), float(y))
            for (pair_id, lam), (x, y) in zip(points, projected, strict=True)]


def write_trajectory_csv(rows: List[TrajectoryPoint], path) -> None:
    data.write_csv(path,
                   [["pair_id", "lambda", "x", "y"], *map(astuple, rows)])
