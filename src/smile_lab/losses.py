"""The five loss terms of the self-distilled mixup objective.

All terms are computed on one shared set of student weight Tensors so a
single backward pass yields the full gradient. Teacher outputs enter as
constants; no gradient ever reaches teacher parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from . import model, tensor as T
from .mixup import mix


@dataclass
class LossWeights:
    fe: float = 0.01
    fc: float = 0.1

    def __post_init__(self):
        if self.fe < 0 or self.fc < 0:
            raise ValueError("loss weights must be >= 0")


@dataclass
class LossBreakdown:
    task: float = 0.0
    mxp: float = 0.0
    fe: float = 0.0
    fc: float = 0.0
    total: float = 0.0


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if len(labels) and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError("label out of range")
    out = np.zeros((len(labels), n_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _mean_row_sumsq(diff: T.Tensor) -> T.Tensor:
    return T.scale(T.sum_of_squares(diff), 1.0 / diff.values.shape[0])


def task_loss(x: np.ndarray, y: np.ndarray,
              student_t: Dict[str, T.Tensor], n_classes: int) -> T.Tensor:
    logits = model.target_logits_t(x, student_t)
    return T.softmax_cross_entropy(logits, T.constant(one_hot(y, n_classes)))


def mixed_ce(logits: T.Tensor, y_i: np.ndarray, y_j: np.ndarray,
             n_classes: int, lam: float) -> T.Tensor:
    """(1 - lam) * CE(logits, y_i) + lam * CE(logits, y_j), the mixup
    cross-entropy; lam = 0 and lam = 1 compute a single CE."""
    loss_i = T.softmax_cross_entropy(logits, T.constant(one_hot(y_i, n_classes)))
    if lam == 0.0:
        return loss_i
    loss_j = T.softmax_cross_entropy(logits, T.constant(one_hot(y_j, n_classes)))
    if lam == 1.0:
        return loss_j
    return T.add(T.scale(loss_i, 1.0 - lam), T.scale(loss_j, lam))


def mixup_loss(x: np.ndarray, y: np.ndarray, student_t: Dict[str, T.Tensor],
               n_classes: int, lam: float, pairing: np.ndarray) -> T.Tensor:
    """Sample-to-label mixup: lam-weighted cross-entropy on mixed inputs."""
    x_mixed = mix(x, x[pairing], lam)
    logits = model.target_logits_t(x_mixed, student_t)
    return mixed_ce(logits, y, y[pairing], n_classes, lam)


def source_label_mixup_loss(x_src: np.ndarray, student_t: Dict[str, T.Tensor],
                            teacher: model.ModelWeights, lam: float,
                            pairing: np.ndarray,
                            compare_space: str = "logits") -> T.Tensor:
    """Source-domain sample-to-label mixup: student source-head output on
    mixed inputs vs the mix of teacher source-head outputs.

    compare_space selects raw logits (default) or softmax probabilities.
    """
    if compare_space not in ("logits", "probs"):
        raise ValueError(f"unknown compare space {compare_space!r}")
    x_mixed = mix(x_src, x_src[pairing], lam)
    student_out = model.source_logits_t(x_mixed, student_t)
    teacher_out = model.source_logits(x_src, teacher)
    if compare_space == "probs":
        student_out = T.softmax(student_out)
        teacher_out = _softmax_rows(teacher_out)
    target = mix(teacher_out, teacher_out[pairing], lam)
    return _mean_row_sumsq(T.subtract(student_out, T.constant(target)))


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def total_objective(student_t: Dict[str, T.Tensor],
                    teacher: model.ModelWeights | None,
                    x_tgt: np.ndarray, y_tgt: np.ndarray,
                    x_src: np.ndarray | None, n_target_classes: int,
                    lam: float, tgt_pairing: np.ndarray,
                    src_pairing: np.ndarray | None,
                    weights: LossWeights, use_mixup: bool,
                    compare_space: str = "logits",
                    lam_src: float | None = None):
    """Task cross-entropy plus, with use_mixup, the triplet regularizer
    L_mxp + gamma_fe * L_fe + gamma_fc * L_fc.

    lam mixes the target batch and lam_src (default lam) the source batch.
    Terms with zero weight are skipped entirely (they contribute neither to
    the value nor the graph), which keeps reduced modes bit-identical to the
    plain-mixup trainer.
    """
    task = task_loss(x_tgt, y_tgt, student_t, n_target_classes)
    breakdown = LossBreakdown(task=float(task.values))
    total = task
    if use_mixup:
        # one forward on the mixed batch feeds both the mixup CE and the
        # feature term
        x_mixed = mix(x_tgt, x_tgt[tgt_pairing], lam)
        student_feats = model.feature_extract_t(x_mixed, student_t)
        logits = T.add(T.matmul(student_feats, student_t["tgt_w"]),
                       student_t["tgt_b"])
        triplet = mixed_ce(logits, y_tgt, y_tgt[tgt_pairing],
                           n_target_classes, lam)
        breakdown.mxp = float(triplet.values)
        if weights.fe > 0:
            teacher_feats = model.feature_extract(x_tgt, teacher)
            target = mix(teacher_feats, teacher_feats[tgt_pairing], lam)
            fe = _mean_row_sumsq(T.subtract(student_feats, T.constant(target)))
            breakdown.fe = float(fe.values)
            triplet = T.add(triplet, T.scale(fe, weights.fe))
        if weights.fc > 0:
            if x_src is None or src_pairing is None:
                raise ValueError("source batch required when gamma_fc > 0")
            fc = source_label_mixup_loss(
                x_src, student_t, teacher, lam if lam_src is None else lam_src,
                src_pairing, compare_space)
            breakdown.fc = float(fc.values)
            triplet = T.add(triplet, T.scale(fc, weights.fc))
        total = T.add(total, triplet)
    breakdown.total = float(total.values)
    return total, breakdown
