"""Mean teacher-student fine-tuning loop, source pre-training, ablations."""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Sequence

import numpy as np

from . import model, tensor as T
from .data import Dataset
from .losses import LossWeights, mixed_ce, total_objective
from .mixup import mix, pair_batch, sample_lambda

MODES = ("FT", "D-SMILE", "M-FE", "M-FC", "SMILE", "SMILE-noS", "SMILE-noT")

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


class TrainingDiverged(RuntimeError):
    """A training step produced NaN or Inf (loss, activation or gradient)."""


def _check_step_settings(lr: float, batch_size: int, alpha: float) -> None:
    if not lr > 0:
        raise ValueError("lr must be > 0")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not alpha > 0:
        raise ValueError("alpha must be > 0")


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
    teacher_update: str = "periodic-copy"   # or "ema"
    ema_decay: float = 0.99
    shared_lambda: bool = True
    compare_space: str = "logits"
    # The squared-norm regularizers are stiff quadratics on unbounded
    # activations; with momentum they can spiral within a few iterations.
    # Global-norm clipping bounds the step without changing directions.
    grad_clip: float = 25.0
    eval_every: int = 100
    seed: int = 0

    def __post_init__(self):
        _check_step_settings(self.lr, self.batch_size, self.alpha)
        if self.iterations <= 0:
            raise ValueError("iterations must be > 0")
        if self.teacher_period < 1:
            raise ValueError("teacher period must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.teacher_update not in ("periodic-copy", "ema"):
            raise ValueError(f"unknown teacher update {self.teacher_update!r}")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ValueError("ema_decay must be in [0, 1]")
        if self.compare_space not in ("logits", "probs"):
            raise ValueError(f"unknown compare space {self.compare_space!r}")
        if not self.grad_clip >= 0:
            raise ValueError("grad_clip must be >= 0")


@dataclass
class PretrainConfig:
    lr: float = 0.05
    iterations: int = 800
    batch_size: int = 32
    momentum: float = 0.9
    weight_decay: float = 1e-4
    # Mixup during pre-training keeps the source model close to linear
    # in-between source samples, which the fine-tuning regularizers assume;
    # a plain-CE source model starts with a huge source-domain penalty.
    use_mixup: bool = True
    alpha: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_step_settings(self.lr, self.batch_size, self.alpha)


@dataclass
class Metrics:
    loss_rows: List[dict] = field(default_factory=list)
    eval_rows: List[dict] = field(default_factory=list)

    def write_csv(self, path) -> None:
        eval_by_iter = {r["iteration"]: r for r in self.eval_rows}
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "lr", "task", "mxp", "fe", "fc",
                             "total", "train_acc", "test_acc"])
            for row in self.loss_rows:
                ev = eval_by_iter.get(row["iteration"], {})
                writer.writerow([
                    row["iteration"], repr(row["lr"]),
                    repr(row["task"]), repr(row["mxp"]), repr(row["fe"]),
                    repr(row["fc"]), repr(row["total"]),
                    ev.get("train_acc", ""), ev.get("test_acc", ""),
                ])


def accuracy(weights: model.ModelWeights, dataset: Dataset,
             head: str = "target", batch_size: int = 32) -> float:
    # The training batch size: larger batches (36 MiB of conv2 im2col at
    # 256 rows) made evaluation set the process's peak memory. The logits
    # do not depend on how the rows are batched.
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    logits_fn = model.target_logits if head == "target" else model.source_logits
    correct = 0
    for start in range(0, len(dataset), batch_size):
        x = dataset.inputs[start:start + batch_size]
        y = dataset.labels[start:start + batch_size]
        logits = logits_fn(x, weights)
        T.check_finite(logits, "evaluation logits")
        correct += int((logits.argmax(axis=1) == y).sum())
    return correct / len(dataset)


def _sample_batch(dataset: Dataset, batch_size: int,
                  rng: np.random.Generator):
    n = len(dataset)
    idx = rng.choice(n, size=min(batch_size, n), replace=False)
    return dataset.inputs[idx], dataset.labels[idx]


def _collect_grads(tensors: Dict[str, T.Tensor]) -> Dict[str, np.ndarray]:
    return {name: (t.grad if t.grad is not None else np.zeros_like(t.values))
            for name, t in tensors.items()}


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
    """Train the feature extractor plus source head with plain SGD."""
    if len(dataset) == 0:
        raise ValueError("source dataset is empty")
    h, w, c = dataset.inputs.shape[1:]
    arch = model.Architecture(image_size=h, channels=c,
                              n_source_classes=dataset.n_classes)
    weights = model.init_weights(arch, config.seed)
    state: Dict[str, np.ndarray] = {}
    rng = np.random.default_rng(config.seed)
    for k in range(1, config.iterations + 1):
        x, y = _sample_batch(dataset, config.batch_size, rng)
        with diverges_at(k, "pretraining"):
            wt = model.as_tensors(weights)
            if config.use_mixup:
                lam = sample_lambda(config.alpha, rng)
                pairing = pair_batch(len(x), rng)
                x, y_j = mix(x, x[pairing], lam), y[pairing]
            else:
                lam, y_j = 0.0, y
            loss = mixed_ce(model.source_logits_t(x, wt), y, y_j,
                            dataset.n_classes, lam)
            T.backward(loss)
            T.sgd_step(weights.params, _collect_grads(wt), state, config.lr,
                       config.momentum, config.weight_decay)
    return weights


def learning_rate_at(k: int, config: TrainConfig) -> float:
    drop_at = math.ceil(config.iterations * config.lr_drop_fraction)
    return config.lr / config.lr_drop_factor if k >= drop_at else config.lr


def update_teacher(teacher: model.ModelWeights | None,
                   student: model.ModelWeights, k: int,
                   config: TrainConfig,
                   teacher_kind: str) -> model.ModelWeights | None:
    """Teacher refresh at the top of iteration k, before the student step.

    periodic-copy: snapshot of the k-1 student at every multiple of P.
    ema: exponential average at every iteration (decay 0 tracks the student).
    'latest'/'fixed' teacher kinds override the schedule entirely.
    """
    if teacher is None:
        return None
    if teacher_kind == "fixed":
        return teacher
    if teacher_kind == "latest":
        return _copy_shared(teacher, student)
    if config.teacher_update == "periodic-copy":
        if k % config.teacher_period == 0:
            return _copy_shared(teacher, student)
        return teacher
    # ema
    d = config.ema_decay
    for name in teacher.params:
        teacher.params[name] = d * teacher.params[name] + (1 - d) * student.params[name]
    return teacher


def _copy_shared(teacher: model.ModelWeights,
                 student: model.ModelWeights) -> model.ModelWeights:
    """Copy the student's FE and source head into the teacher (the teacher
    carries no target head)."""
    return model.ModelWeights(
        teacher.arch,
        {name: student.params[name].copy() for name in teacher.params})


def train(pretrained: model.ModelWeights, target_train: Dataset,
          source_train: Dataset | None, config: TrainConfig,
          target_test: Dataset | None = None):
    """Fine-tune the student for config.iterations steps; returns
    (student weights, Metrics)."""
    if len(target_train) == 0:
        raise ValueError("target dataset is empty")
    use_mixup, use_fe, use_fc, teacher_kind = _MODE_TABLE[config.mode]
    eff_weights = LossWeights(fe=config.gamma_fe if use_fe else 0.0,
                              fc=config.gamma_fc if use_fc else 0.0)
    needs_source = eff_weights.fc > 0
    if needs_source and (source_train is None or len(source_train) == 0):
        raise ValueError("source dataset required for the source-domain term")

    student, teacher = model.init_from_pretrained(pretrained, config.seed)
    if teacher_kind is None:
        teacher = None

    rng = np.random.default_rng(config.seed)
    state: Dict[str, np.ndarray] = {}
    metrics = Metrics()
    n_tgt_classes = student.arch.n_target_classes

    for k in range(1, config.iterations + 1):
        teacher = update_teacher(teacher, student, k, config, teacher_kind)
        lr = learning_rate_at(k, config)

        x, y = _sample_batch(target_train, config.batch_size, rng)
        lam = tgt_pairing = lam_src = None
        x_src = src_pairing = None
        if use_mixup:
            lam = sample_lambda(config.alpha, rng)
            tgt_pairing = pair_batch(len(x), rng)
        if needs_source:
            x_src, _ = _sample_batch(source_train, config.batch_size, rng)
            src_pairing = pair_batch(len(x_src), rng)
            if not config.shared_lambda:
                lam_src = sample_lambda(config.alpha, rng)
        with diverges_at(k, "training"):
            wt = model.as_tensors(student)
            total, breakdown = total_objective(
                wt, teacher, x, y, x_src, n_tgt_classes, lam, tgt_pairing,
                src_pairing, eff_weights, use_mixup, config.compare_space,
                lam_src)
            T.backward(total)
            grads = _collect_grads(wt)
            if config.grad_clip:
                norm = np.sqrt(sum(float((g * g).sum())
                                   for g in grads.values()))
                if norm > config.grad_clip:
                    factor = config.grad_clip / norm
                    grads = {n: g * factor for n, g in grads.items()}
            T.sgd_step(student.params, grads, state, lr,
                       config.momentum, config.weight_decay)

        metrics.loss_rows.append({
            "iteration": k, "lr": lr, "task": breakdown.task,
            "mxp": breakdown.mxp, "fe": breakdown.fe, "fc": breakdown.fc,
            "total": breakdown.total,
        })
        if config.eval_every and (k % config.eval_every == 0
                                  or k == config.iterations):
            # the step's graph is dead; free it before the eval batches
            del wt, total, grads
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
    if len(seeds) < 2:
        raise ValueError("need at least two seeds")
    rows: List[AblationRow] = []
    for mode in modes:
        for seed in seeds:
            cfg = replace(base_config, mode=mode, seed=seed)
            weights, _ = train(pretrained, target_train, source_train, cfg,
                               target_test)
            rows.append(AblationRow(mode, seed,
                                    accuracy(weights, target_test)))
    summary = {}
    for mode in modes:
        accs = np.array([r.test_accuracy for r in rows if r.mode == mode])
        summary[mode] = (float(accs.mean()), float(accs.std()))
    return rows, summary


def write_ablation_csv(rows: List[AblationRow], summary: dict, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "seed", "test_accuracy"])
        for r in rows:
            writer.writerow([r.mode, r.seed, repr(r.test_accuracy)])
        writer.writerow([])
        writer.writerow(["mode", "mean", "std"])
        for mode, (m, s) in summary.items():
            writer.writerow([mode, repr(m), repr(s)])
