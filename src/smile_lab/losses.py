"""The five loss terms of the self-distilled mixup objective.

All terms are computed on one shared set of student weight Tensors, whose
leaves accumulate the gradients of every student pass. Teacher outputs
enter as constants; no gradient ever reaches teacher parameters.
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


def distillation_loss(student_out: T.Tensor, teacher_out: np.ndarray,
                      pairing: np.ndarray, lam: float) -> T.Tensor:
    """Mean over rows of ||student_out - mix(t, t[pairing], lam)||^2 with
    t = teacher_out: the student's output on a mixed input is pulled toward
    the same mix of the teacher's outputs (L_fe on features, L_fc on
    source-head outputs)."""
    target = mix(teacher_out, teacher_out[pairing], lam)
    diff = T.subtract(student_out, T.constant(target))
    return T.scale(T.sum_of_squares(diff), 1.0 / len(target))


def task_loss(x: np.ndarray, y: np.ndarray,
              student_t: Dict[str, T.Tensor], n_classes: int) -> T.Tensor:
    logits = model.head_logits_t(model.feature_extract_t(x, student_t),
                                 student_t, "tgt")
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


def source_label_mixup_loss(x_src: np.ndarray, student_t: Dict[str, T.Tensor],
                            teacher: model.ModelWeights, lam: float,
                            pairing: np.ndarray) -> T.Tensor:
    """Source-domain sample-to-label mixup: student source-head logits on
    mixed inputs vs the mix of teacher source-head logits (a teacher has
    no target head, so head_logits reads its source head)."""
    teacher_out = model.head_logits(model.feature_extract(x_src, teacher),
                                    teacher)
    x_mixed = mix(x_src, x_src[pairing], lam)
    student_out = model.head_logits_t(
        model.feature_extract_t(x_mixed, student_t), student_t, "src")
    return distillation_loss(student_out, teacher_out, pairing, lam)


def _backward_now(loss: T.Tensor) -> float:
    """Backpropagate a loss the caller keeps no reference to; its value."""
    T.backward(loss)
    return float(loss.values)


def mixed_loss(student_t, head, teacher, x, y, n_classes, lam, pairing,
               gamma_fe, breakdown) -> T.Tensor:
    """L_mxp on the ``head`` logits plus gamma_fe * L_fe, one mixed forward
    for both: pretraining's loss ("src") and fine-tuning's mixed pass."""
    teacher_feats = (model.feature_extract(x, teacher) if gamma_fe > 0
                     else None)
    student_feats = model.feature_extract_t(mix(x, x[pairing], lam),
                                            student_t)
    loss = mixed_ce(model.head_logits_t(student_feats, student_t, head),
                    y, y[pairing], n_classes, lam)
    breakdown.mxp = float(loss.values)
    if gamma_fe > 0:
        fe = distillation_loss(student_feats, teacher_feats, pairing, lam)
        breakdown.fe = float(fe.values)
        loss = T.add(loss, T.scale(fe, gamma_fe))
    return loss


def total_objective(student_t: Dict[str, T.Tensor],
                    teacher: model.ModelWeights | None,
                    x_tgt: np.ndarray, y_tgt: np.ndarray,
                    x_src: np.ndarray | None, n_target_classes: int,
                    lam: float | None, tgt_pairing: np.ndarray | None,
                    src_pairing: np.ndarray | None,
                    weights: LossWeights) -> LossBreakdown:
    """Task cross-entropy plus, when lam is not None, the triplet regularizer
    L_mxp + gamma_fe * L_fe + gamma_fc * L_fc, backpropagated into the
    leaves of student_t pass by pass: the clean target batch (task), the
    mixed target batch (L_mxp + gamma_fe * L_fe), then the mixed source
    batch (gamma_fc * L_fc). Each pass's graph is freed before the next
    pass's forward runs, and a pass's teacher call runs before its student
    forward, so no teacher im2col matrix coexists with a student graph.
    Backward from the sum of the three losses visits them in the same order
    with the same seeds, so the leaf gradients have the same bits.

    Returns the breakdown; its total is the objective's value. One lam
    mixes the target and the source batch; x_src and src_pairing are read
    only when lam is not None and weights.fc > 0. Terms with zero weight
    are skipped entirely (they contribute neither to the value nor the
    graph), which keeps reduced modes bit-identical to the plain-mixup
    trainer.
    """
    breakdown = LossBreakdown(task=_backward_now(
        task_loss(x_tgt, y_tgt, student_t, n_target_classes)))
    total = breakdown.task
    if lam is not None:
        triplet = _backward_now(mixed_loss(
            student_t, "tgt", teacher, x_tgt, y_tgt, n_target_classes, lam,
            tgt_pairing, weights.fe, breakdown))
        if weights.fc > 0:
            fc = source_label_mixup_loss(x_src, student_t, teacher, lam,
                                         src_pairing)
            breakdown.fc = float(fc.values)
            triplet += _backward_now(T.scale(fc, weights.fc))
        total += triplet
    breakdown.total = total
    return breakdown
