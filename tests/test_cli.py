import dataclasses
import json
import shutil

import numpy as np
import pytest

from smile_lab import cli, data, interpolation, model, train
from smile_lab.config import load_config


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


def test_ablate_summary(workdir):
    out, run = workdir
    run("gen-data")
    run("pretrain")
    code, stdout, _ = run("ablate", "train.iterations=4")
    assert code == 0
    text = (out / "ablation_summary.csv").read_text()
    assert text.startswith("mode,seed,test_accuracy")
    assert "FT" in stdout and "D-SMILE" in stdout


def test_diagnose_affine_stub(workdir):
    out, run = workdir
    run("gen-data")
    code, stdout, _ = run("diagnose", "--affine-stub")
    assert code == 0
    payload = json.loads((out / "il_report.json").read_text())
    assert payload["model"] == "affine-stub"
    assert payload["label"]["mean"] <= 1e-6


def test_diagnose_explicit_checkpoint(workdir, tmp_path):
    out, run = workdir
    run("gen-data")
    run("pretrain")
    code, _, _ = run("diagnose", "--checkpoint", str(out / "pretrained.ckpt"))
    assert code == 0


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
    code, stdout, _ = run("train", "train.mode=FT", "train.eval_every=4")
    assert code == 0
    # evaluations after iterations 4 and 6, on train and test sets
    assert len(calls) == 4
    last = (out / "metrics_FT.csv").read_text().splitlines()[-1].split(",")
    assert f"test accuracy {float(last[-1]):.4f}" in stdout


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
        expected = interpolation.estimate_IL(
            fn, target_test, dataclasses.replace(diagnostics, layer=layer))
        assert report[layer] == dataclasses.asdict(expected)


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


# Each row: what to prepare under the run's root ("data" copies the
# generated datasets, "dir" makes a directory, bytes make a file and a
# Dataset is written with data.save; exp.yaml holds FAST_YAML unless a row
# prepares it), the argv after "-c exp.yaml" with the output directory as
# {out}, and the error the one line names.
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
                      np.zeros((2, 16, 16, 1)), np.zeros(2), 5, "target")},
                 ["diagnose", "--affine-stub"], "AllDrawsDegenerate",
                 id="every-IL-draw-degenerate"),
    pytest.param({"out": "data"}, ["pretrain", "pretrain.iterations=0"],
                 "ConfigError", id="pretrain-without-iterations"),
    pytest.param({}, ["gen-data", "train.gamma_fe=-1.0"], "ConfigError",
                 id="negative-loss-weight"),
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
