"""The five loss terms of the self-distilled mixup objective.

All terms are computed on one shared set of student weight Tensors, whose
leaves accumulate the gradients of every student pass. Teacher outputs
enter as constants; no gradient ever reaches teacher parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple

import numpy as np

from . import model, tensor as T
from .mixup import mix


@dataclass
class LossBreakdown:
    task: float = 0.0
    mxp: float = 0.0
    fe: float = 0.0
    fc: float = 0.0
    total: float = 0.0


class CachedTeacher(NamedTuple):
    """A teacher with its features of the target batch already extracted:
    rows of train.train's one extraction of the whole target set per
    teacher, which total_objective passes to L_fe instead of extracting
    the batch again."""
    weights: model.ModelWeights
    tgt_feats: np.ndarray


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


def _ce(logits: T.Tensor, y: np.ndarray) -> T.Tensor:
    """Cross-entropy over the head's classes: the width of logits."""
    return T.softmax_cross_entropy(
        logits, T.constant(one_hot(y, logits.values.shape[1])))


def task_loss(x: np.ndarray, y: np.ndarray,
              student_t: Dict[str, T.Tensor]) -> T.Tensor:
    return _ce(model.head_logits_t(model.feature_extract_t(x, student_t),
                                   student_t, "tgt"), y)


def mixed_ce(logits: T.Tensor, y_i: np.ndarray, y_j: np.ndarray,
             lam: float) -> T.Tensor:
    """(1 - lam) * CE(logits, y_i) + lam * CE(logits, y_j), the mixup
    cross-entropy; lam = 0 and lam = 1 compute a single CE."""
    loss_i = _ce(logits, y_i)
    if lam == 0.0:
        return loss_i
    loss_j = _ce(logits, y_j)
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


def mixed_loss(student_t, head, teacher_feats, x, y, lam, pairing, gamma_fe,
               breakdown) -> T.Tensor:
    """L_mxp on the ``head`` logits plus gamma_fe * L_fe, one mixed forward
    for both: pretraining's loss ("src") and fine-tuning's mixed pass.
    teacher_feats are the teacher's features of x, read only when
    gamma_fe > 0."""
    student_feats = model.feature_extract_t(mix(x, x[pairing], lam),
                                            student_t)
    loss = mixed_ce(model.head_logits_t(student_feats, student_t, head),
                    y, y[pairing], lam)
    breakdown.mxp = float(loss.values)
    if gamma_fe > 0:
        fe = distillation_loss(student_feats, teacher_feats, pairing, lam)
        breakdown.fe = float(fe.values)
        loss = T.add(loss, T.scale(fe, gamma_fe))
    return loss


def total_objective(student_t: Dict[str, T.Tensor],
                    teacher: model.ModelWeights | CachedTeacher | None,
                    x_tgt: np.ndarray, y_tgt: np.ndarray,
                    x_src: np.ndarray | None, lam: float | None,
                    tgt_pairing: np.ndarray | None,
                    src_pairing: np.ndarray | None,
                    gamma_fe: float, gamma_fc: float) -> LossBreakdown:
    """Task cross-entropy plus, when lam is not None, the triplet regularizer
    L_mxp + gamma_fe * L_fe + gamma_fc * L_fc, backpropagated into the
    leaves of student_t pass by pass: the clean target batch (task), the
    mixed target batch (L_mxp + gamma_fe * L_fe), then the mixed source
    batch (gamma_fc * L_fc). Each pass's graph is freed before the next
    pass's forward runs, and a pass's teacher call runs before its student
    forward, so no teacher im2col matrix coexists with a student graph.
    Backward from the sum of the three losses visits them in the same order
    with the same seeds, so the leaf gradients have the same bits.

    A CachedTeacher brings its features of the target batch; with a
    teacher's weights alone, the mixed pass extracts them itself when
    gamma_fe > 0.

    Returns the breakdown; its total is the objective's value. One lam
    mixes the target and the source batch; x_src and src_pairing are read
    only when lam is not None and gamma_fc > 0. Terms with zero weight
    are skipped entirely (they contribute neither to the value nor the
    graph), which keeps reduced modes bit-identical to the plain-mixup
    trainer.
    """
    breakdown = LossBreakdown(task=_backward_now(
        task_loss(x_tgt, y_tgt, student_t)))
    total = breakdown.task
    if lam is not None:
        if isinstance(teacher, CachedTeacher):
            teacher, teacher_feats = teacher
        else:
            teacher_feats = (model.feature_extract(x_tgt, teacher)
                             if gamma_fe > 0 else None)
        triplet = _backward_now(mixed_loss(
            student_t, "tgt", teacher_feats, x_tgt, y_tgt, lam, tgt_pairing,
            gamma_fe, breakdown))
        if gamma_fc > 0:
            fc = source_label_mixup_loss(x_src, student_t, teacher, lam,
                                         src_pairing)
            breakdown.fc = float(fc.values)
            triplet += _backward_now(T.scale(fc, gamma_fc))
        total += triplet
    breakdown.total = total
    return breakdown
