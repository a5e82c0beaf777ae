import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from smile_lab import cli, data, interpolation, model, train
from smile_lab.config import ExperimentConfig, load_config


FAST_YAML = """\
seed: 0
task:
  samples_per_class: 6
pretrain:
  iterations: 20
train:
  iterations: 6
  batch_size: 8
  eval_every: 0
diagnostics:
  n_pairs: 5
subsample_rate: 0.5
ablation_modes: [FT, D-SMILE]
ablation_seeds: [0, 1]
"""


@pytest.fixture()
def workdir(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(FAST_YAML)
    out = tmp_path / "out"
    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(out))

    def run(*argv):
        code = cli.main(["-c", str(cfg_path), *argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return out, run


def test_gen_data_artifacts(workdir):
    out, run = workdir
    code, stdout, _ = run("gen-data")
    assert code == 0
    for name in ("source_train.bin", "target_train_full.bin",
                 "target_train.bin", "target_test.bin"):
        assert (out / name).exists()
    assert "wrote" in stdout
    # rate 0.5 of 6 per class over 5 classes
    sub = data.load(out / "target_train.bin")
    assert len(sub) == 15


def test_gen_data_refuses_a_task_larger_than_memory(workdir, tmp_path,
                                                    monkeypatch):
    out, run = workdir
    cfg = load_config(tmp_path / "exp.yaml")
    need = data.generation_bytes(cfg.task, cfg.subsample_rate)
    monkeypatch.setattr(data, "available_memory", lambda: need - 1)
    code, _, err = run("gen-data")
    assert code == 1 and not out.exists()
    assert [json.loads(line)["error"] for line in err.splitlines()] == [
        "TaskTooLarge"]
    monkeypatch.setattr(data, "available_memory", lambda: need)
    assert run("gen-data")[0] == 0


def test_generation_bytes_bound_what_gen_data_allocates(workdir, tmp_path):
    from scipy import ndimage    # noqa: F401  imported by the first rotation
    _, run = workdir
    overrides = ["task.image_size=32", "task.samples_per_class=10"]
    cfg = load_config(tmp_path / "exp.yaml", overrides)
    tracemalloc.start()
    try:
        assert run("gen-data", *overrides)[0] == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= data.generation_bytes(cfg.task, cfg.subsample_rate)


def test_seed_override_writes_the_same_data_as_file_seed(
        workdir, tmp_path, monkeypatch, capsys):
    out, run = workdir
    assert run("gen-data", "seed=5")[0] == 0
    cfg_path = tmp_path / "seed5.yaml"
    cfg_path.write_text(FAST_YAML.replace("seed: 0", "seed: 5"))
    from_file = tmp_path / "from_file"
    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(from_file))
    assert cli.main(["-c", str(cfg_path), "gen-data"]) == 0
    capsys.readouterr()
    names = [p.name for p in out.glob("*.bin")]
    assert len(names) == 4
    for name in names:
        assert (out / name).read_bytes() == (from_file / name).read_bytes()
    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(tmp_path / "seed0"))
    assert cli.main(["-c", str(tmp_path / "exp.yaml"), "gen-data"]) == 0
    assert (tmp_path / "seed0" / "source_train.bin").read_bytes() \
        != (out / "source_train.bin").read_bytes()


def test_gen_data_csv_flag(workdir):
    out, run = workdir
    code, _, _ = run("gen-data", "--csv")
    assert code == 0
    assert (out / "target_train.csv").exists()


def test_importing_the_cli_leaves_orjson_unloaded():
    # only gen-data --csv writes through orjson, so no other command pays
    # for its import
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, smile_lab.cli; print('orjson' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_gen_data_idempotent(workdir):
    out, run = workdir
    run("gen-data")
    first = (out / "target_train.bin").read_bytes()
    run("gen-data")
    assert (out / "target_train.bin").read_bytes() == first


def test_pretrain_requires_data(workdir):
    out, run = workdir
    code, _, stderr = run("pretrain")
    assert code == 1
    payload = json.loads(stderr)
    assert payload["error"] == "FileNotFoundError"
    assert "gen-data" in payload["detail"]


def test_full_pipeline(workdir):
    out, run = workdir
    assert run("gen-data")[0] == 0
    code, stdout, _ = run("pretrain")
    assert code == 0
    assert (out / "pretrained.ckpt").exists()

    code, stdout, _ = run("train", "train.mode=FT")
    assert code == 0
    assert (out / "student_FT.ckpt").exists()
    assert (out / "metrics_FT.csv").exists()
    assert "mode=FT" in stdout

    code, stdout, _ = run("diagnose", "train.mode=FT")
    assert code == 0
    assert (out / "pca_traj.csv").exists()
    payload = json.loads((out / "il_report.json").read_text())
    assert set(payload) == {"model", "label", "feature"}
    assert payload["label"]["n_effective"] > 0

    code, stdout, _ = run("report")
    assert code == 0
    assert (out / "summary.txt").exists()
    assert "interpolation loss" in stdout


def test_train_smile_uses_source(workdir):
    out, run = workdir
    run("gen-data")
    run("pretrain")
    code, stdout, _ = run("train", "train.mode=SMILE")
    assert code == 0
    ckpt = model.load_checkpoint(out / "student_SMILE.ckpt")
    assert ckpt.has_target_head


@pytest.mark.parametrize("n_classes", [3, 8])
def test_train_sizes_the_target_head_by_the_target_task(workdir, n_classes):
    out, run = workdir
    run("gen-data", f"task.n_target_classes={n_classes}")
    run("pretrain")
    code, _, stderr = run("train", "train.mode=SMILE")
    assert code == 0, stderr
    student = model.load_checkpoint(out / "student_SMILE.ckpt")
    assert student.arch.n_target_classes == n_classes
    assert student.params["tgt_w"].shape == (32, n_classes)
    assert student.params["tgt_b"].shape == (n_classes,)


def test_ablate_summary(workdir):
    out, run = workdir
    run("gen-data")
    run("pretrain")
    code, stdout, _ = run("ablate", "train.iterations=4")
    assert code == 0
    text = (out / "ablation_summary.csv").read_text()
    assert text.startswith("mode,seed,test_accuracy")
    assert "FT" in stdout and "D-SMILE" in stdout


def test_rate_sweep_reuses_one_pretraining(workdir, tmp_path):
    # the README's rate sweep: gen-data at another rate rewrites
    # source_train.bin with the same bytes and leaves pretrained.ckpt alone,
    # so one pretraining serves every rate's ablate
    out, run = workdir
    assert run("gen-data")[0] == 0 and run("pretrain")[0] == 0
    kept = {name: (out / name).read_bytes()
            for name in ("source_train.bin", "pretrained.ckpt")}
    cfg = load_config(tmp_path / "exp.yaml")
    source = data.generate_source(cfg.task)
    target_full = data.derive_target(cfg.task)
    target_test = data.test_split(cfg.task, "target")
    pretrained = train.pretrain_source(source, cfg.pretrain)
    for rate in (0.3, 1.0):
        assert run("gen-data", f"subsample_rate={rate}")[0] == 0
        assert run("ablate")[0] == 0
        assert {name: (out / name).read_bytes() for name in kept} == kept
        lines = (out / "ablation_summary.csv").read_text().splitlines()
        means = {mode: float(mean) for mode, mean, _ in (
            line.split(",")
            for line in lines[lines.index("mode,mean,std") + 1:])}
        target_train = data.stratified_subsample(target_full, rate,
                                                 cfg.task.seed)
        _, summary = train.run_ablation_suite(
            pretrained, target_train, target_test, source, cfg.train,
            cfg.ablation_modes, cfg.ablation_seeds)
        assert means == {mode: mean for mode, (mean, _) in summary.items()}


def test_diagnose_affine_stub(workdir):
    out, run = workdir
    run("gen-data")
    code, stdout, _ = run("diagnose", "--affine-stub")
    assert code == 0
    payload = json.loads((out / "il_report.json").read_text())
    assert payload["model"] == "affine-stub"
    assert payload["label"]["mean"] <= 1e-6


@pytest.mark.parametrize("overrides", [
    ["task.samples_per_class=4", "diagnostics.n_pairs=6"],
    ["task.samples_per_class=4", "diagnostics.n_pairs=18"],
    ["task.samples_per_class=4", "diagnostics.n_pairs=100"],
    # duplicate images: i != j pairs whose images are equal
    ["task.noise_sigma=0.0"]])
def test_affine_stub_reads_zero_il_with_equal_image_pairs(workdir, overrides):
    # a pair of equal images has anchors apart by rounding alone, which
    # must count as degenerate and not as a ratio of noise to noise
    out, run = workdir
    run("gen-data", *overrides)
    assert run("diagnose", "--affine-stub", *overrides)[0] == 0
    payload = json.loads((out / "il_report.json").read_text())
    for layer in ("label", "feature"):
        assert payload[layer]["n_degenerate"] > 0
        assert payload[layer]["mean"] <= 1e-6


def test_diagnose_explicit_checkpoint(workdir, tmp_path):
    out, run = workdir
    run("gen-data")
    run("pretrain")
    code, _, _ = run("diagnose", "--checkpoint", str(out / "pretrained.ckpt"))
    assert code == 0


def test_diagnose_counts_the_kept_features_against_memory(workdir, tmp_path,
                                                          monkeypatch):
    out, run = workdir
    run("gen-data")
    run("pretrain")
    diagnostics = load_config(tmp_path / "exp.yaml").diagnostics
    size = data.load(out / "target_test.bin").inputs[0].size
    width = model.load_checkpoint(out / "pretrained.ckpt").arch.feature_dim
    argv = ("diagnose", "--checkpoint", str(out / "pretrained.ckpt"))
    # room for the draws, but not for the features the closure keeps
    monkeypatch.setattr(data, "available_memory",
                        lambda: interpolation.il_bytes(diagnostics, size))
    code, _, err = run(*argv)
    assert code == 1 and not (out / "il_report.json").exists()
    assert [json.loads(line)["error"] for line in err.splitlines()] == [
        "ILTooLarge"]
    # the affine stub keeps nothing
    assert run("diagnose", "--affine-stub")[0] == 0
    monkeypatch.setattr(data, "available_memory",
                        lambda: interpolation.il_bytes(diagnostics, size,
                                                       width))
    assert run(*argv)[0] == 0


@pytest.mark.parametrize("damage", ["drop src_b", "append junk"])
def test_diagnose_rejects_a_malformed_checkpoint(workdir, damage):
    out, run = workdir
    run("gen-data")
    run("pretrain")
    bad = out / "bad.ckpt"
    if damage == "drop src_b":
        weights = model.load_checkpoint(out / "pretrained.ckpt")
        del weights.params["src_b"]
        model.save_checkpoint(weights, bad)
    else:
        bad.write_bytes((out / "pretrained.ckpt").read_bytes() + b"junk")
    code, _, stderr = run("diagnose", "--checkpoint", str(bad))
    assert code == 1
    lines = stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "CheckpointError"
    assert not (out / "il_report.json").exists()


def test_report_without_artifacts(workdir):
    _, run = workdir
    code, _, stderr = run("report")
    assert code == 1
    assert json.loads(stderr)["error"] == "FileNotFoundError"


def test_bad_override_fails_before_side_effects(workdir):
    out, run = workdir
    code, _, stderr = run("gen-data", "train.bogus=1")
    assert code == 1
    assert json.loads(stderr)["error"] == "ConfigError"
    assert not out.exists()


def test_float_past_float_range_is_config_error(workdir):
    out, run = workdir
    code, _, stderr = run("gen-data", "train.lr=" + "9" * 400)
    assert code == 1
    lines = stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigError"
    assert not out.exists()


def _assert_diverged(code, stderr):
    assert code == 1
    lines = stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "TrainingDiverged"


def test_train_divergence_is_typed_error(workdir):
    out, run = workdir
    run("gen-data")
    run("pretrain")
    code, _, stderr = run("train", "train.lr=1000.0", "train.grad_clip=0.0",
                          "train.iterations=40")
    _assert_diverged(code, stderr)
    assert not list(out.glob("student_*.ckpt"))
    assert not list(out.glob("metrics_*.csv"))


def test_ablate_divergence_is_typed_error(workdir):
    # the steps stay finite; the final evaluation's logits overflow
    out, run = workdir
    run("gen-data")
    run("pretrain")
    code, _, stderr = run("ablate", "train.iterations=5", "train.lr=1000000.0",
                          "train.grad_clip=0.0", "train.eval_every=0",
                          "ablation_modes=[FT]")
    _assert_diverged(code, stderr)
    assert "evaluation" in json.loads(stderr)["detail"]
    assert not (out / "ablation_summary.csv").exists()


def test_pretrain_divergence_is_typed_error(workdir):
    out, run = workdir
    run("gen-data")
    code, _, stderr = run("pretrain", "pretrain.lr=1000000000.0")
    _assert_diverged(code, stderr)
    assert not (out / "pretrained.ckpt").exists()


def test_bad_config_value(workdir):
    _, run = workdir
    code, _, stderr = run("gen-data", "subsample_rate=2.0")
    assert code == 1
    assert json.loads(stderr)["error"] == "ConfigError"


@pytest.mark.parametrize("old, new", [
    ("subsample_rate: 0.5", "subsample_rate: 0.5\noutput_dir: 5"),
    ("ablation_seeds: [0, 1]", "ablation_seeds: [0, x]")])
def test_bad_top_level_config_value(tmp_path, monkeypatch, capsys, old, new):
    # no output directory from the environment: the config's own is used
    monkeypatch.delenv(cli.ENV_OUTPUT_DIR, raising=False)
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(FAST_YAML.replace(old, new))
    code = cli.main(["-c", str(cfg_path), "gen-data"])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigError"
    assert [p.name for p in tmp_path.iterdir()] == ["exp.yaml"]


def test_output_dir_from_config(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(cli.ENV_OUTPUT_DIR, raising=False)
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(FAST_YAML)
    code = cli.main(["-c", str(cfg_path), "gen-data",
                     "output_dir=artifacts"])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "artifacts" / "source_train.bin").exists()


def test_train_evaluation_blow_up_is_typed_error(workdir):
    # the steps stay finite, the weights reach ~1e246, eval logits overflow
    out, run = workdir
    run("gen-data")
    run("pretrain")
    code, _, stderr = run("train", "train.mode=FT", "train.lr=1000000.0",
                          "train.grad_clip=0.0")
    _assert_diverged(code, stderr)
    assert "evaluation" in json.loads(stderr)["detail"]
    assert not (out / "student_FT.ckpt").exists()
    assert not (out / "metrics_FT.csv").exists()


def test_pretrain_evaluation_blow_up_is_typed_error(workdir, monkeypatch):
    out, run = workdir
    run("gen-data")
    pretrain = train.pretrain_source

    def blown_up(dataset, config):
        weights = pretrain(dataset, config)
        for name in weights.params:
            weights.params[name] *= 1e120
        return weights

    monkeypatch.setattr(train, "pretrain_source", blown_up)
    code, _, stderr = run("pretrain")
    _assert_diverged(code, stderr)
    assert "evaluation" in json.loads(stderr)["detail"]
    assert not (out / "pretrained.ckpt").exists()


def test_train_reports_last_evaluation(workdir, monkeypatch):
    out, run = workdir
    run("gen-data")
    run("pretrain")
    calls = []
    accuracy = train.accuracy
    monkeypatch.setattr(train, "accuracy",
                        lambda *a, **k: calls.append(1) or accuracy(*a, **k))
    # evaluations after iterations 4 and 6, or after 6 alone, on train and
    # test sets
    for eval_every, n_calls in (4, 4), (0, 2):
        calls.clear()
        code, stdout, _ = run("train", "train.mode=FT",
                              f"train.eval_every={eval_every}")
        assert code == 0
        assert len(calls) == n_calls
        last = (out / "metrics_FT.csv").read_text().splitlines()[-1]
        assert f"test accuracy {float(last.split(',')[-1]):.4f}" in stdout


@pytest.mark.parametrize("checkpoint", [None, "pretrained.ckpt"])
def test_diagnose_matches_independent_estimates(workdir, tmp_path, checkpoint):
    out, run = workdir
    run("gen-data")
    run("pretrain")
    run("train", "train.mode=FT")
    argv = ["--checkpoint", str(out / checkpoint)] if checkpoint else []
    code, _, _ = run("diagnose", "train.mode=FT", *argv)
    assert code == 0
    report = json.loads((out / "il_report.json").read_text())
    weights = model.load_checkpoint(out / (checkpoint or "student_FT.ckpt"))
    target_test = data.load(out / "target_test.bin")
    diagnostics = load_config(tmp_path / "exp.yaml").diagnostics
    logits = lambda x: model.head_logits(model.feature_extract(x, weights),
                                         weights)
    for layer, fn in (("label", logits),
                      ("feature", lambda x: model.feature_extract(x, weights))):
        expected = interpolation.estimate_IL(fn, target_test, diagnostics)
        assert report[layer] == dataclasses.asdict(expected)


@pytest.mark.parametrize("argv, estimates", [
    (["--affine-stub"], 1), (["--checkpoint", "{out}/pretrained.ckpt"], 2)],
    ids=["affine-stub", "checkpoint"])
def test_diagnose_estimates_each_distinct_output_once(workdir, monkeypatch,
                                                      argv, estimates):
    # the stub's logits are its features: one estimate is both reports
    out, run = workdir
    run("gen-data")
    run("pretrain")
    calls, estimate_IL = [], interpolation.estimate_IL
    monkeypatch.setattr(interpolation, "estimate_IL",
                        lambda *a: calls.append(1) or estimate_IL(*a))
    assert run("diagnose", *(a.format(out=out) for a in argv))[0] == 0
    assert len(calls) == estimates
    report = json.loads((out / "il_report.json").read_text())
    assert (report["label"] == report["feature"]) == (estimates == 1)


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """An output directory after gen-data with FAST_YAML."""
    root = tmp_path_factory.mktemp("generated")
    (root / "exp.yaml").write_text(FAST_YAML)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(cli.ENV_OUTPUT_DIR, str(root / "out"))
        assert cli.main(["-c", str(root / "exp.yaml"), "gen-data"]) == 0
    return root / "out"


def _snapshot(root):
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


def _one_nan(values):
    """A copy of ``values`` whose first element is NaN."""
    values = np.array(values, dtype=np.float64)
    values.flat[0] = np.nan
    return values


def _initial_weights(name, update):
    """Initial weights of the default architecture, which fits FAST_YAML's
    datasets, with ``update`` applied to parameter ``name``."""
    weights = model.init_weights(model.Architecture(), 0)
    weights.params[name] = update(weights.params[name])
    return weights


# Each row: what to prepare under the run's root ("data" copies the
# generated datasets, "dir" makes a directory, bytes make a file, a Dataset
# is written with data.save and ModelWeights with model.save_checkpoint;
# exp.yaml holds FAST_YAML unless a row prepares it), the argv after
# "-c exp.yaml" with the output directory as {out}, and the error the one
# line names.
@pytest.mark.parametrize("prepare, argv, error", [
    pytest.param({"out": b"a file"}, ["gen-data"], "FileExistsError",
                 id="output-dir-is-a-file"),
    pytest.param({"exp.yaml": "dir"}, ["gen-data"], "IsADirectoryError",
                 id="config-is-a-directory"),
    pytest.param({"exp.yaml": b"seed: 0 # \xff\n"}, ["gen-data"],
                 "ConfigError", id="config-is-not-UTF-8"),
    pytest.param({"out": "data", "out/ckpt": "dir"},
                 ["diagnose", "--checkpoint", "{out}/ckpt"],
                 "IsADirectoryError", id="diagnose-reads-a-directory"),
    pytest.param({"out": "data", "out/pretrained.ckpt": "dir"}, ["train"],
                 "IsADirectoryError", id="train-reads-a-directory"),
    pytest.param({"out": "data", "out/pretrained.ckpt": "dir"}, ["pretrain"],
                 "IsADirectoryError", id="pretrain-writes-over-a-directory"),
    pytest.param({}, ["gen-data", "train.bogus=1"], "ConfigError",
                 id="unknown-override"),
    pytest.param({}, ["pretrain"], "FileNotFoundError", id="missing-dataset"),
    pytest.param({"out": "data", "out/bad.ckpt": b"junk"},
                 ["diagnose", "--checkpoint", "{out}/bad.ckpt"],
                 "CheckpointError", id="malformed-checkpoint"),
    pytest.param({"out": "data", "out/target_test.bin": b"junk"},
                 ["diagnose", "--affine-stub"], "DatasetFormatError",
                 id="malformed-dataset"),
    pytest.param({"out": "data"}, ["pretrain", "pretrain.lr=1000000000.0"],
                 "TrainingDiverged", id="pretraining-diverges"),
    pytest.param({"out": "data", "out/target_test.bin": data.Dataset(
                      np.zeros((2, 16, 16, 1)), np.zeros(2), 5)},
                 ["diagnose", "--affine-stub"], "AllDrawsDegenerate",
                 id="every-IL-draw-degenerate"),
    pytest.param({"out": "data"}, ["pretrain", "pretrain.iterations=0"],
                 "ConfigError", id="pretrain-without-iterations"),
    pytest.param({}, ["gen-data", "train.gamma_fe=-1.0"], "ConfigError",
                 id="negative-loss-weight"),
    # lr / lr_drop_factor underflows to 0, the rate after the drop
    pytest.param({}, ["gen-data", "train.lr=5e-324"], "ConfigError",
                 id="rate-after-the-drop-underflows"),
    pytest.param({}, ["gen-data", "train.lr=1e-300",
                      "train.lr_drop_factor=1e300"], "ConfigError",
                 id="drop-factor-underflows-the-rate"),
    # lr / lr_drop_factor overflows to inf, the rate after the drop
    pytest.param({}, ["gen-data", "train.lr_drop_factor=5e-324"],
                 "ConfigError", id="drop-factor-overflows-the-rate"),
    pytest.param({}, ["gen-data", "train.lr=1e300",
                      "train.lr_drop_factor=1e-300"], "ConfigError",
                 id="rate-after-the-drop-overflows"),
    pytest.param({"out": "data", "out/il_report.json": b"{}"}, ["report"],
                 "ValueError", id="report-reads-an-empty-IL-report"),
    pytest.param({"out": "data", "out/il_report.json": b"[1, 2]"},
                 ["report"], "ValueError", id="report-reads-an-IL-report-list"),
    pytest.param({"out": "data", "out/metrics_FT.csv": b""}, ["report"],
                 "ValueError", id="report-reads-empty-metrics"),
    pytest.param({"out": "data", "out/pretrained.ckpt": model.init_weights(
                      model.Architecture(image_size=4), 0)},
                 ["train"], "CheckpointError",
                 id="train-on-other-images-than-pretrained"),
    pytest.param({"out": "data", "out/pretrained.ckpt": model.init_weights(
                      model.Architecture(n_source_classes=10), 0)},
                 ["ablate"], "CheckpointError",
                 id="ablate-on-other-source-classes-than-pretrained"),
    pytest.param({"out": "data", "out/pretrained.ckpt": model.init_weights(
                      model.Architecture(image_size=8), 0)},
                 ["diagnose", "--checkpoint", "{out}/pretrained.ckpt"],
                 "CheckpointError", id="diagnose-on-other-images-than-model"),
    pytest.param({"out": "data",
                  "out/pretrained.ckpt": _initial_weights("conv1_b", _one_nan)},
                 ["diagnose", "--checkpoint", "{out}/pretrained.ckpt"],
                 "CheckpointError", id="NaN-checkpoint-parameter"),
    pytest.param({"out": "data", "out/target_test.bin": data.Dataset(
                      _one_nan(np.zeros((2, 16, 16, 1))), np.zeros(2), 5)},
                 ["diagnose", "--affine-stub"], "DatasetFormatError",
                 id="NaN-dataset-pixel"),
    pytest.param({"out": "data", "out/pretrained.ckpt": _initial_weights(
                      "proj_w", lambda w: w * 1e300)},
                 ["diagnose", "--checkpoint", "{out}/pretrained.ckpt"],
                 "NonFiniteIL", id="IL-of-overflowing-outputs"),
    pytest.param({"out": "data", "out/pretrained.ckpt": model.init_weights(
                      model.Architecture(feature_dim=1), 0)},
                 ["diagnose", "--checkpoint", "{out}/pretrained.ckpt"],
                 "ValueError", id="trajectory-of-one-feature"),
    *(pytest.param({}, ["gen-data", override], "ConfigError",
                   id=f"negative-{override.partition('=')[0]}")
      for override in ["seed=-1", "task.seed=-5", "pretrain.seed=-1",
                       "train.seed=-1", "diagnostics.seed=-1",
                       "ablation_seeds=[-1, 0]"]),
    pytest.param({}, ["gen-data", "train.shared_lambda=false"], "ConfigError",
                 id="removed-shared-lambda-switch"),
    pytest.param({}, ["gen-data", "pretrain.use_mixup=false"], "ConfigError",
                 id="removed-pretraining-mixup-switch"),
    pytest.param({}, ["gen-data", "train.compare_space=probs"], "ConfigError",
                 id="removed-compare-space-switch"),
    pytest.param({}, ["gen-data", "train.teacher_update=ema"], "ConfigError",
                 id="removed-teacher-update-switch"),
    pytest.param({}, ["gen-data", "train.ema_decay=0.5"], "ConfigError",
                 id="removed-ema-decay-setting"),
    pytest.param({"out": "data"}, ["diagnose", "diagnostics.layer=feature"],
                 "ConfigError", id="diagnose-ignores-a-layer"),
    # refused before any artifact is read: the checkpoint does not exist
    pytest.param({}, ["diagnose", "--checkpoint", "{out}/missing.ckpt",
                      "--affine-stub"], "ValueError",
                 id="diagnose-a-checkpoint-and-the-affine-stub"),
    pytest.param({}, ["gen-data", "ablation_seeds=[0]"], "ConfigError",
                 id="ablation-of-one-seed"),
    # each refused by the dataclass that declares it, before any command
    *(pytest.param({}, ["gen-data", override], "ConfigError", id=override)
      for override in ["train.alpha=0", "pretrain.alpha=0",
                       "train.batch_size=0", "pretrain.batch_size=0",
                       "train.lr=0", "pretrain.lr=0", "train.gamma_fc=-0.1",
                       "subsample_rate=0", "subsample_rate=-0.2",
                       "subsample_rate=1.5"]),
    pytest.param({"out": "data", "out/pretrained.ckpt": model.init_weights(
                      model.Architecture(), 0),
                  "out/source_train.bin": data.Dataset(
                      np.zeros((0, 16, 16, 1)), np.zeros(0), 20)},
                 ["train"], "ValueError", id="SMILE-without-source-samples"),
])
def test_cli_errors_are_one_json_line(generated, tmp_path, monkeypatch, capsys,
                                      prepare, argv, error):
    (tmp_path / "exp.yaml").write_text(FAST_YAML)
    for name, what in prepare.items():
        path = tmp_path / name
        if path.is_file():
            path.unlink()
        if what == "data":
            shutil.copytree(generated, path)
        elif what == "dir":
            path.mkdir()
        elif isinstance(what, data.Dataset):
            data.save(what, path)
        elif isinstance(what, model.ModelWeights):
            model.save_checkpoint(what, path)
        else:
            path.write_bytes(what)
    out = tmp_path / "out"
    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(out))
    before = _snapshot(tmp_path)
    code = cli.main(["-c", str(tmp_path / "exp.yaml"),
                     *(a.format(out=out) for a in argv)])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"] == error
    assert _snapshot(tmp_path) == before


# The CLI contract over generated configs: each subcommand of the pipeline
# exits 0, or exits 1 with exactly one JSON line on stderr and the output
# directory tree as it was before the command. Every numeric config field
# is drawn from boundary values and every list field as empty or with a
# repeated element; the fields come from the config dataclasses, so a new
# field is covered without a change here. Only 0, 1 and -1 are valid ints,
# so no drawn example grows a task, a batch or an iteration count past the
# small base config: each allocates at most a few MB. The explicit large
# ints are a batch, which is capped at its dataset, a task, which gen-data
# refuses before it allocates anything, and an IL draw count, which
# diagnose refuses before its first draw.

# 5e-324 is the smallest positive float
BOUNDARY = ("0", "1", "-1", "5e-324", "1e300")

CHAIN_BASE = ["task.samples_per_class=4", "pretrain.iterations=3",
        "train.iterations=3", "pretrain.batch_size=8", "train.batch_size=8",
        "diagnostics.n_pairs=2", "ablation_modes=[FT, SMILE]",
        "ablation_seeds=[0, 1]"]

CHAIN = (["gen-data", "--csv"], ["pretrain"], ["train"], ["ablate"],
         ["diagnose"], ["diagnose", "--affine-stub"], ["report"])


def _fields():
    """{dotted key: values to draw} for every numeric and list field."""
    cfg = ExperimentConfig()
    out = {}
    for prefix, section in [("", cfg), *(
            (f"{f.name}.", getattr(cfg, f.name))
            for f in dataclasses.fields(cfg)
            if dataclasses.is_dataclass(getattr(cfg, f.name)))]:
        for f in dataclasses.fields(section):
            value = getattr(section, f.name)
            if f.type in ("int", "float"):
                out[prefix + f.name] = BOUNDARY
            elif isinstance(value, list):
                out[prefix + f.name] = ("[]", f"[{value[0]}, {value[0]}]")
    return out


DRAWN_FIELDS = _fields()

drawn_overrides = st.lists(
    st.sampled_from(sorted(DRAWN_FIELDS)), min_size=1, max_size=2,
    unique=True).flatmap(lambda keys: st.tuples(
        *(st.sampled_from(DRAWN_FIELDS[k]) for k in keys)).map(
            lambda values: [f"{k}={v}" for k, v in zip(keys, values)]))


def _run_in_process(argv):
    """(exit code, stderr lines) of one in-process command; a warning
    counts as a stderr line, as it would print there."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, err.getvalue().splitlines() + [
        str(w.message) for w in caught]


def test_every_field_is_drawn():
    assert {"seed", "task.seed", "train.alpha", "pretrain.alpha",
            "ablation_seeds", "ablation_modes"} <= set(DRAWN_FIELDS)


def _chain_errors(drawn):
    """The error each step of CHAIN names under the overrides ``drawn``,
    None for a step that exits 0, after checking the contract of each."""
    errors = []
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as mp:
        root = Path(tmp)
        mp.setenv(cli.ENV_OUTPUT_DIR, str(root / "out"))
        for step in CHAIN:
            before = _snapshot(root)
            code, lines = _run_in_process([*step, *CHAIN_BASE, *drawn])
            assert code in (0, 1), (step, code)
            if code == 1:
                assert len(lines) == 1, (step, lines)
                assert json.loads(lines[0]).keys() == {"error", "detail"}
                assert _snapshot(root) == before, step
            errors.append(None if code == 0 else json.loads(lines[0])["error"])
    return errors


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=drawn_overrides)
# Beta(alpha, alpha) sampling divided 0 by 0 when both Gamma draws
# underflowed, and numpy refused a negative seed after gen-data had
# created the output directory
@example(drawn=["pretrain.alpha=5e-324"])
@example(drawn=["train.alpha=1e-300"])
@example(drawn=["task.seed=-1"])
# the large valid ints, which no draw reaches
@example(drawn=["train.batch_size=1000000"])
@example(drawn=["pretrain.batch_size=1000000"])
@example(drawn=["task.samples_per_class=1000000000"])
@example(drawn=["diagnostics.n_lambda_draws=1000000000"])
@example(drawn=["diagnostics.n_pairs=1000000000"])
# the base's 2 pairs draw no anchor distance of exactly 0, and 18 draw one
# in three of the four estimates: a degenerate draw, not a division by 0
@example(drawn=["diagnostics.n_pairs=18"])
def test_chain_exits_0_or_1_with_one_json_line(drawn):
    _chain_errors(drawn)


@pytest.mark.parametrize("override, errors", [
    ("train.batch_size=1000000", [None] * len(CHAIN)),
    ("pretrain.batch_size=1000000", [None] * len(CHAIN)),
    # every later step misses the datasets, and report every artifact
    ("task.samples_per_class=1000000000",
     ["TaskTooLarge"] + ["FileNotFoundError"] * (len(CHAIN) - 1)),
    # both diagnose steps refuse the IL draws before the first, so no
    # il_report.json is written; report reads the training artifacts
    ("diagnostics.n_lambda_draws=1000000000",
     [None] * 4 + ["ILTooLarge"] * 2 + [None]),
    ("diagnostics.n_pairs=1000000000",
     [None] * 4 + ["ILTooLarge"] * 2 + [None]),
])
def test_large_valid_ints_run_or_are_refused_first(override, errors):
    assert _chain_errors([override]) == errors
