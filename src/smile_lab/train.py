"""Mean teacher-student fine-tuning loop, source pre-training, ablations."""

from __future__ import annotations

import contextlib
import math
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from typing import Callable, Dict, Iterable, List, Sequence

import numpy as np

from . import data, model, tensor as T
from .data import Dataset
from .losses import (CachedTeacher, LossBreakdown, mixed_loss,
                     total_objective)
# mix is unused here; perfbench/tests/test_spans.py wraps train.mix
from .mixup import mix, sample_lambda  # noqa: F401

# Per-mode effective settings: (use_mixup, use_fe_term, use_fc_term, teacher)
_MODE_TABLE = {
    "FT":        (False, False, False, None),
    "D-SMILE":   (True,  False, False, None),
    "M-FE":      (True,  True,  False, "periodic"),
    "M-FC":      (True,  False, True,  "periodic"),
    "SMILE":     (True,  True,  True,  "periodic"),
    "SMILE-noS": (True,  True,  True,  "latest"),
    "SMILE-noT": (True,  True,  True,  "fixed"),
}
MODES = tuple(_MODE_TABLE)


class TrainingDiverged(RuntimeError):
    """A training step produced NaN or Inf (loss, activation or gradient)."""


def _check_step_settings(config) -> None:
    if config.iterations <= 0:
        raise ValueError("iterations must be > 0")
    if not config.lr > 0:
        raise ValueError("lr must be > 0")
    if config.batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not config.alpha > 0:
        raise ValueError("alpha must be > 0")
    if not config.momentum >= 0:
        raise ValueError("momentum must be >= 0")
    if not config.weight_decay >= 0:
        raise ValueError("weight_decay must be >= 0")
    if config.seed < 0:
        raise ValueError("seed must be >= 0")


@dataclass
class TrainConfig:
    lr: float = 0.01
    iterations: int = 1500
    teacher_period: int = 10
    batch_size: int = 32
    gamma_fe: float = 0.01
    gamma_fc: float = 0.1
    alpha: float = 1.0
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_drop_fraction: float = 2.0 / 3.0
    lr_drop_factor: float = 10.0
    mode: str = "SMILE"
    # The squared-norm regularizers are stiff quadratics on unbounded
    # activations; with momentum they can spiral within a few iterations.
    # Global-norm clipping bounds the step without changing directions.
    grad_clip: float = 25.0
    eval_every: int = 100
    seed: int = 0

    def __post_init__(self):
        _check_step_settings(self)
        if not (self.gamma_fe >= 0 and self.gamma_fc >= 0):
            raise ValueError("gamma_fe and gamma_fc must be >= 0")
        if self.teacher_period < 1:
            raise ValueError("teacher period must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.grad_clip >= 0:
            raise ValueError("grad_clip must be >= 0")
        if not self.lr_drop_factor > 0:
            raise ValueError("lr_drop_factor must be > 0")
        # learning_rate_at's rate after the drop: at 0 no step after the
        # drop moves the weights, and at inf the first one diverges
        if not 0 < self.lr / self.lr_drop_factor < math.inf:
            raise ValueError("lr / lr_drop_factor must be > 0 and finite")
        if not self.lr_drop_fraction >= 0:
            raise ValueError("lr_drop_fraction must be >= 0")
        if self.eval_every < 0:
            raise ValueError("eval_every must be >= 0")


@dataclass
class PretrainConfig:
    lr: float = 0.05
    iterations: int = 800
    batch_size: int = 32
    momentum: float = 0.9
    weight_decay: float = 1e-4
    alpha: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_step_settings(self)


@dataclass
class Metrics:
    loss_rows: List[dict] = field(default_factory=list)
    eval_rows: List[dict] = field(default_factory=list)

    def write_csv(self, path) -> None:
        columns = ["iteration", "lr", *(f.name for f in fields(LossBreakdown))]
        accs = ["train_acc", "test_acc"]
        eval_by_iter = {r["iteration"]: r for r in self.eval_rows}
        rows = [columns + accs]
        for row in self.loss_rows:
            ev = eval_by_iter.get(row["iteration"], {})
            rows.append([row[c] for c in columns] + [ev.get(a, "") for a in accs])
        data.write_csv(path, rows)


def accuracy(weights: model.ModelWeights, dataset: Dataset) -> float:
    """Accuracy of the target head, or of the source head of a pretrained
    model (no target head), from one model.feature_extract call on the
    whole set, which runs it in blocks of 2 images."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    logits = model.head_logits(model.feature_extract(dataset.inputs, weights),
                               weights)
    T.check_finite(logits, "evaluation logits")
    return float((logits.argmax(axis=1) == dataset.labels).mean())


def _sample_batch(dataset: Dataset, batch_size: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Indices of a batch drawn without replacement."""
    n = len(dataset)
    return rng.choice(n, size=min(batch_size, n), replace=False)


def _collect_grads(tensors: Dict[str, T.Tensor]) -> Dict[str, np.ndarray]:
    return {name: (t.grad if t.grad is not None else np.zeros_like(t.values))
            for name, t in tensors.items()}


def _training_step(weights: model.ModelWeights,
                   objective: Callable[[Dict[str, T.Tensor]], object],
                   state: Dict[str, np.ndarray], lr: float, momentum: float,
                   weight_decay: float, grad_clip: float = 0.0):
    """One SGD step on weights in place; returns what objective returns.

    ``objective(wt)`` builds the step's graph on the Tensors ``wt`` of the
    weights and backpropagates it into them. Nothing outside the objective
    holds the graph (activations, their gradients, captured im2col
    matrices), so it is freed before the update. A nonzero grad_clip
    rescales the gradients to that global norm when they exceed it.
    """
    wt = model.as_tensors(weights)
    extra = objective(wt)
    grads = _collect_grads(wt)
    if grad_clip:
        norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        if norm > grad_clip:
            factor = grad_clip / norm
            grads = {n: g * factor for n, g in grads.items()}
    T.sgd_step(weights.params, grads, state, lr, momentum, weight_decay)
    return extra


@contextlib.contextmanager
def diverges_at(k: int, phase: str):
    """Re-raise a NonFiniteError from one training step, or from the
    evaluation after iteration k, as TrainingDiverged.

    numpy's overflow warnings are silenced inside the block: a non-finite
    value reaches a finite check and becomes that one error instead.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            yield
    except T.NonFiniteError as exc:
        raise TrainingDiverged(
            f"{phase} diverged at iteration {k}: {exc}") from exc


def pretrain_source(dataset: Dataset, config: PretrainConfig) -> model.ModelWeights:
    """Train the feature extractor plus source head on mixed source batches."""
    if len(dataset) == 0:
        raise ValueError("source dataset is empty")
    h, w, c = dataset.inputs.shape[1:]
    arch = model.Architecture(image_size=h, channels=c,
                              n_source_classes=dataset.n_classes)
    weights = model.init_weights(arch, config.seed)
    state: Dict[str, np.ndarray] = {}
    rng = np.random.default_rng(config.seed)
    for k in range(1, config.iterations + 1):
        idx = _sample_batch(dataset, config.batch_size, rng)
        x, y = dataset.inputs[idx], dataset.labels[idx]
        # Mixup keeps the source model close to linear in-between source
        # samples, which the fine-tuning regularizers assume; a plain-CE
        # source model starts with a huge source-domain penalty.
        lam = sample_lambda(config.alpha, rng)
        pairing = rng.permutation(len(x))

        def objective(wt):
            T.backward(mixed_loss(wt, "src", None, x, y, lam, pairing, 0.0,
                                  LossBreakdown()))

        with diverges_at(k, "pretraining"):
            _training_step(weights, objective, state, config.lr,
                           config.momentum, config.weight_decay)
    return weights


def learning_rate_at(k: int, config: TrainConfig) -> float:
    drop_at = math.ceil(config.iterations * config.lr_drop_fraction)
    return config.lr / config.lr_drop_factor if k >= drop_at else config.lr


def update_teacher(teacher: model.ModelWeights | None,
                   student: model.ModelWeights, k: int,
                   config: TrainConfig) -> model.ModelWeights | None:
    """Teacher refresh at the top of iteration k, before the student step.

    A refresh returns a new snapshot of the k-1 student's FE and source
    head (the teacher carries no target head). The teacher kind is
    config.mode's: a 'latest' teacher refreshes at every iteration, a
    'periodic' one at every multiple of P. A 'fixed' teacher never changes,
    and a mode without a teacher (FT, D-SMILE) returns None.
    """
    teacher_kind = _MODE_TABLE[config.mode][3]
    if teacher_kind is None:
        return None
    if teacher is None or teacher_kind == "fixed":
        return teacher
    period = config.teacher_period if teacher_kind == "periodic" else 1
    if k % period:
        return teacher
    return model.ModelWeights(
        teacher.arch,
        {name: student.params[name].copy() for name in teacher.params})


def train(pretrained: model.ModelWeights, target_train: Dataset,
          source_train: Dataset | None, config: TrainConfig,
          target_test: Dataset | None = None):
    """Fine-tune the student for config.iterations steps; returns
    (student weights, Metrics).

    The student is evaluated after every config.eval_every-th iteration
    (none at 0) and always after the last one, so the last eval row holds
    the run's final accuracy.
    """
    if len(target_train) == 0:
        raise ValueError("target dataset is empty")
    use_mixup, use_fe, use_fc, teacher_kind = _MODE_TABLE[config.mode]
    gamma_fe = config.gamma_fe if use_fe else 0.0
    gamma_fc = config.gamma_fc if use_fc else 0.0
    needs_source = gamma_fc > 0
    if needs_source and (source_train is None or len(source_train) == 0):
        raise ValueError("source dataset required for the source-domain term")

    # the target head fits the target task, not the pretrained model's
    # placeholder class count
    student, teacher = model.init_from_pretrained(model.ModelWeights(
        replace(pretrained.arch, n_target_classes=target_train.n_classes),
        pretrained.params), config.seed)

    # L_fe reads the teacher's features of the target batch. A periodic or
    # fixed teacher's features of the whole target set are extracted once
    # per teacher object, and each batch takes its rows: with 75 target
    # rows and a period of 10, 75 rows per 10 iterations instead of 32 per
    # iteration. A row's features do not depend on the rest of its batch,
    # except that a 1-row batch goes through GEMV in the projection; so a
    # 1-row batch, like the 'latest' teacher that changes every step, keeps
    # the direct extraction of the batch in total_objective.
    cache_teacher_feats = (gamma_fe > 0 and teacher_kind != "latest" and
                           min(config.batch_size, len(target_train)) > 1)
    cached_teacher = cached_feats = None

    rng = np.random.default_rng(config.seed)
    state: Dict[str, np.ndarray] = {}
    metrics = Metrics()

    for k in range(1, config.iterations + 1):
        teacher = update_teacher(teacher, student, k, config)
        lr = learning_rate_at(k, config)

        idx = _sample_batch(target_train, config.batch_size, rng)
        x, y = target_train.inputs[idx], target_train.labels[idx]
        objective_teacher = teacher
        if cache_teacher_feats:
            if cached_teacher is not teacher:
                cached_teacher = teacher
                cached_feats = model.feature_extract(target_train.inputs,
                                                     teacher)
            objective_teacher = CachedTeacher(teacher, cached_feats[idx])
        lam = tgt_pairing = None
        x_src = src_pairing = None
        if use_mixup:
            lam = sample_lambda(config.alpha, rng)
            tgt_pairing = rng.permutation(len(x))
        if needs_source:
            x_src = source_train.inputs[_sample_batch(
                source_train, config.batch_size, rng)]
            src_pairing = rng.permutation(len(x_src))

        def objective(wt):
            return total_objective(wt, objective_teacher, x, y, x_src, lam,
                                   tgt_pairing, src_pairing, gamma_fe,
                                   gamma_fc)

        with diverges_at(k, "training"):
            breakdown = _training_step(student, objective, state, lr,
                                       config.momentum, config.weight_decay,
                                       config.grad_clip)

        metrics.loss_rows.append({"iteration": k, "lr": lr,
                                  **asdict(breakdown)})
        if k == config.iterations or (config.eval_every
                                      and k % config.eval_every == 0):
            with diverges_at(k, "evaluation"):
                row = {"iteration": k,
                       "train_acc": accuracy(student, target_train)}
                if target_test is not None:
                    row["test_acc"] = accuracy(student, target_test)
            metrics.eval_rows.append(row)
    return student, metrics


@dataclass
class AblationRow:
    mode: str
    seed: int
    test_accuracy: float


def run_ablation_suite(pretrained: model.ModelWeights, target_train: Dataset,
                       target_test: Dataset, source_train: Dataset,
                       base_config: TrainConfig, modes: Sequence[str],
                       seeds: Iterable[int]):
    """Train every (mode, seed) cell and aggregate test accuracy per mode.

    Returns (per-run rows, {mode: (mean, std)}).
    """
    seeds = list(seeds)
    rows: List[AblationRow] = []
    for mode in modes:
        for seed in seeds:
            cfg = replace(base_config, mode=mode, seed=seed)
            _, metrics = train(pretrained, target_train, source_train, cfg,
                               target_test)
            rows.append(AblationRow(mode, seed,
                                    metrics.eval_rows[-1]["test_acc"]))
    summary = {}
    for mode in modes:
        accs = np.array([r.test_accuracy for r in rows if r.mode == mode])
        summary[mode] = (float(accs.mean()), float(accs.std()))
    return rows, summary


def write_ablation_csv(rows: List[AblationRow], summary: dict, path) -> None:
    data.write_csv(path, [["mode", "seed", "test_accuracy"],
                          *map(astuple, rows), [], ["mode", "mean", "std"],
                          *([mode, *stats] for mode, stats in summary.items())])
