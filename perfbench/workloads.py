"""The benchmark's workloads.

Each workload builds its inputs from the workload seed in ``setup`` and then
runs as a closed loop with one caller: ``run_pass`` returns only when its
calls into smile_lab have completed. The package receives only the generated
config and inputs. Timed regions cover calls into smile_lab and nothing else;
output checks run outside them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np
# data._rotate imports this on first use; import it before anything is timed
from scipy import ndimage  # noqa: F401

from smile_lab import cli, data, train
from smile_lab.interpolation import ILConfig
# Output checks call these names, bound here before any tracing, so that a
# traced run does not count the checks as work of the pipeline.
from smile_lab.data import load as load_dataset
from smile_lab.model import load_checkpoint

from spans import Span

SUBSAMPLE_RATE = 0.3
CHANCE_ACCURACY = 0.2           # five target classes
# The acceptance config's 800: with 500, some task seeds give a source
# model that fine-tunes no better than chance.
SETUP_PRETRAIN_ITERATIONS = train.PretrainConfig().iterations
FINETUNE_ITERATIONS = 50
PIPELINE_PRETRAIN_ITERATIONS = 40
PIPELINE_TRAIN_ITERATIONS = 10
AFFINE_IL_LIMIT = 1e-6
CONV2D_PER_ITERATION = {"pretrain": 2, "FT": 2, "D-SMILE": 4, "SMILE": 6}


@dataclass
class PassResult:
    """One pass of a workload's loop.

    An operation is one train.train call or one CLI subcommand; ``failures``
    holds one entry per failed operation. ``named`` maps the per-workload
    metric names (``smile_ms_per_iter``, ``diagnose_s``, ...) to (value,
    unit); ``digests`` maps each trained student to its sha256, which must
    not change from pass to pass.
    """
    seconds: float = 0.0        # wall time of the pass's timed calls
    iter_seconds: float = 0.0   # of which in the timed training loop
    iterations: int = 0         # training iterations within iter_seconds
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    named: Dict[str, tuple] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)


def params_sha256(params: Dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name], dtype="<f8").tobytes())
    return h.hexdigest()


def _conv2d_check(stats, expected: float) -> List[str]:
    fwd, bwd = stats["tensor.conv2d"].calls, stats["tensor.conv2d.bwd"].calls
    out = []
    if fwd != expected:
        out.append(f"tensor.conv2d.calls {fwd} != {expected}")
    if bwd != fwd:
        out.append(f"conv2d backward calls {bwd} != forward calls {fwd}")
    return out


def _teacher_check(stats, calls: int, refreshes: int) -> List[str]:
    s = stats["train.update_teacher"]
    out = []
    if s.calls != calls:
        out.append(f"train.update_teacher.calls {s.calls} != {calls}")
    if s.value_sum != refreshes:
        out.append(f"train.teacher_refreshes {s.value_sum} != {refreshes}")
    return out


class Finetune:
    """FT, D-SMILE and SMILE train.train calls, in that order, from
    pretrained weights built at set-up."""

    modes = ("FT", "D-SMILE", "SMILE")

    def __init__(self, seed: int, root: Path):
        self.seed = seed

    def setup(self) -> str:
        spec = data.TaskSpec(seed=self.seed)
        self.source = data.generate_source(spec)
        target_full = data.derive_target(spec)
        self.target_train = data.stratified_subsample(
            target_full, SUBSAMPLE_RATE, self.seed)
        self.target_test = data.test_split(spec, "target")
        self.pretrained = train.pretrain_source(
            self.source, train.PretrainConfig(
                iterations=SETUP_PRETRAIN_ITERATIONS, seed=self.seed))
        return params_sha256(self.pretrained.params)

    def run_pass(self) -> PassResult:
        result = PassResult()
        for mode in self.modes:
            config = train.TrainConfig(mode=mode, seed=self.seed,
                                       iterations=FINETUNE_ITERATIONS)
            start = time.perf_counter()
            student, metrics = train.train(self.pretrained, self.target_train,
                                           self.source, config,
                                           self.target_test)
            seconds = time.perf_counter() - start
            key = mode.replace("-", "").lower()
            accuracy = metrics.eval_rows[-1]["test_acc"]
            result.seconds += seconds
            result.iter_seconds += seconds
            result.iterations += config.iterations
            result.attempted += 1
            result.named[f"{key}_ms_per_iter"] = (
                1000 * seconds / config.iterations, "ms")
            result.named[f"{key}_test_acc"] = (accuracy, "fraction")
            result.digests[mode] = params_sha256(student.params)
            if not accuracy > CHANCE_ACCURACY:
                result.failures.append(
                    f"{mode}: test accuracy {accuracy} is not above chance")
        return result

    def self_checks(self, spans: List[Span], stats, n_passes: int):
        per_iter = sum(CONV2D_PER_ITERATION[m] for m in self.modes)
        out = _conv2d_check(stats, per_iter * FINETUNE_ITERATIONS * n_passes)
        period = train.TrainConfig().teacher_period
        out += _teacher_check(stats,
                              len(self.modes) * FINETUNE_ITERATIONS * n_passes,
                              FINETUNE_ITERATIONS // period * n_passes)
        # train.train calls run the modes in order; without a teacher (FT,
        # D-SMILE) the graph-free path serves evaluation only
        calls = [i for i, s in enumerate(spans)
                 if s.name == "train.train" and s.parent < 0]
        mode_of = {i: self.modes[k % len(self.modes)]
                   for k, i in enumerate(calls)}
        stray = Counter()
        for i, span in enumerate(spans):
            if span.name != "model.feature_extract":
                continue
            names, parent = [], span.parent
            while parent >= 0 and parent not in mode_of:
                names.append(spans[parent].name)
                parent = spans[parent].parent
            mode = mode_of.get(parent)
            if mode != "SMILE" and "train.accuracy" not in names:
                stray[mode] += 1
        for mode, n in stray.items():
            out.append(f"{n} model.feature_extract calls outside "
                       f"train.accuracy in {mode}")
        return out


class PipelineCli:
    """gen-data, pretrain, train, diagnose (twice) and report via cli.main,
    in a fresh output directory for every pass."""

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root

    def setup(self) -> str:
        # the output directory comes from the generated config alone
        os.environ.pop(cli.ENV_OUTPUT_DIR, None)
        return ""

    def steps(self):
        return [
            ("gen-data", ["gen-data", "--csv"]),
            ("pretrain", ["pretrain",
                          f"pretrain.iterations={PIPELINE_PRETRAIN_ITERATIONS}"]),
            ("train", ["train", "train.mode=SMILE",
                       f"train.iterations={PIPELINE_TRAIN_ITERATIONS}"]),
            ("diagnose", ["diagnose", "train.mode=SMILE"]),
            ("diagnose-affine-stub", ["diagnose", "--affine-stub"]),
            ("report", ["report"]),
        ]

    def run_pass(self) -> PassResult:
        out = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=self.root))
        try:
            config = out / "experiment.yaml"
            config.write_text(f"seed: {self.seed}\noutput_dir: {out}\n")
            return self._run_steps(config, out)
        finally:
            shutil.rmtree(out)

    def _run_steps(self, config: Path, out: Path) -> PassResult:
        result = PassResult()
        for name, argv in self.steps():
            stderr = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(["-c", str(config)] + argv)
            seconds = time.perf_counter() - start
            result.seconds += seconds
            result.attempted += 1
            if name == "pretrain":
                result.iter_seconds = seconds
                result.iterations = PIPELINE_PRETRAIN_ITERATIONS
                result.named["pretrain_ms_per_iter"] = (
                    1000 * seconds / PIPELINE_PRETRAIN_ITERATIONS, "ms")
            elif name == "diagnose":
                result.named["diagnose_s"] = (seconds, "s")
            problems = ([f"exit code {code}: {stderr.getvalue().strip()}"]
                        if code != 0 else self._check(name, out, result))
            if problems:
                result.failures.append(f"{name}: " + "; ".join(problems))
        result.named["pipeline_s"] = (result.seconds, "s")
        return result

    def _check(self, step: str, out: Path, result: PassResult) -> List[str]:
        """Problems with the artifacts a step wrote; empty when all reload."""
        try:
            if step == "gen-data":
                for name in ("source_train", "target_train_full",
                             "target_train", "target_test"):
                    if len(load_dataset(out / f"{name}.bin")) == 0:
                        return [f"{name}.bin is empty"]
                    if (out / f"{name}.csv").stat().st_size == 0:
                        return [f"{name}.csv is empty"]
            elif step in ("pretrain", "train"):
                path = out / ("pretrained.ckpt" if step == "pretrain"
                              else "student_SMILE.ckpt")
                weights = load_checkpoint(path)
                if not all(np.isfinite(v).all()
                           for v in weights.params.values()):
                    return [f"{path.name} holds non-finite weights"]
                if step == "train":
                    rows = (out / "metrics_SMILE.csv").read_text().splitlines()
                    if len(rows) != PIPELINE_TRAIN_ITERATIONS + 1:
                        return [f"metrics_SMILE.csv has {len(rows)} lines"]
                    result.digests["student_SMILE.ckpt"] = params_sha256(
                        weights.params)
            elif step.startswith("diagnose"):
                report = json.loads((out / "il_report.json").read_text())
                il = [report[layer]["mean"] for layer in ("label", "feature")]
                if not all(math.isfinite(v) for v in il):
                    return [f"non-finite interpolation loss {il}"]
                if step.endswith("affine-stub") and max(il) > AFFINE_IL_LIMIT:
                    return [f"affine-stub interpolation loss {il} "
                            f"above {AFFINE_IL_LIMIT}"]
                if (out / "pca_traj.csv").stat().st_size == 0:
                    return ["pca_traj.csv is empty"]
            elif step == "report":
                if (out / "summary.txt").stat().st_size == 0:
                    return ["summary.txt is empty"]
        except (OSError, ValueError, KeyError) as exc:
            return [f"{type(exc).__name__}: {exc}"]
        return []

    def self_checks(self, spans: List[Span], stats, n_passes: int):
        per_pass = (CONV2D_PER_ITERATION["SMILE"] * PIPELINE_TRAIN_ITERATIONS
                    + CONV2D_PER_ITERATION["pretrain"]
                    * PIPELINE_PRETRAIN_ITERATIONS)
        out = _conv2d_check(stats, per_pass * n_passes)
        period = train.TrainConfig().teacher_period
        out += _teacher_check(stats, PIPELINE_TRAIN_ITERATIONS * n_passes,
                              PIPELINE_TRAIN_ITERATIONS // period * n_passes)
        for name, _ in self.steps():
            calls = stats[f"cli.{name}"].calls
            if calls != n_passes:
                out.append(f"cli.{name} ran {calls} times, not {n_passes}")
        # every estimate on a checkpoint calls the model once per
        # (pair, delta draw), on 2 anchors plus the lambda draws; the
        # affine-stub estimates call no model_fn
        il = ILConfig()
        per_estimate = Counter()
        for span in spans:
            if span.name == "interpolation.model_fn" and span.parent >= 0 \
                    and spans[span.parent].name == "interpolation.estimate_IL":
                per_estimate[span.parent] += 1
                if span.info != 2 + il.n_lambda_draws:
                    out.append(f"interpolation.model_fn got {span.info} rows")
        expected = [il.n_pairs * il.n_delta_draws] * (2 * n_passes)
        if sorted(per_estimate.values()) != expected:
            out.append(f"interpolation.model_fn calls per estimate "
                       f"{sorted(per_estimate.values())} != {expected}")
        return out


WORKLOADS = {
    "finetune": Finetune,
    "pipeline-cli": PipelineCli,
}
