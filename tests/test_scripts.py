import importlib.util
from pathlib import Path

import pytest

from smile_lab import data, train
from smile_lab.config import load_config

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_subsample_table_is_the_ablation_suite_means(capsys):
    overrides = ["task.samples_per_class=6", "pretrain.iterations=5",
                 "train.iterations=3", "train.batch_size=8",
                 "train.eval_every=0", "ablation_modes=[FT, D-SMILE]",
                 "ablation_seeds=[0, 1]", "seed=3"]
    rates = [0.5, 1.0]
    _load_script("sweep_subsample").main(
        overrides + ["--rates"] + [str(r) for r in rates])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].split() == ["rate", "FT", "D-SMILE"]

    cfg = load_config(None, overrides)
    source = data.generate_source(cfg.task)
    target_full = data.derive_target(cfg.task)
    target_test = data.test_split(cfg.task)
    pretrained = train.pretrain_source(source, cfg.pretrain)
    for rate, line in zip(rates, lines[2:], strict=True):
        target_train = data.stratified_subsample(target_full, rate,
                                                 cfg.task.seed)
        _, summary = train.run_ablation_suite(
            pretrained, target_train, target_test, source, cfg.train,
            cfg.ablation_modes, cfg.ablation_seeds)
        assert line.split() == [f"{rate:.2f}", f"{summary['FT'][0]:.4f}",
                                f"{summary['D-SMILE'][0]:.4f}"]


def test_pipeline_artifacts_match_golden_digests():
    golden = _load_script("golden_digests")
    lines = golden.DIGESTS_FILE.read_text().splitlines()
    recorded = dict(line[2:].split(": ", 1) for line in lines
                    if line.startswith("# "))
    expected = {name: digest for digest, name in
                (line.split("  ") for line in lines if line[:1] != "#")}
    here = golden.fingerprint()
    differ = sorted(key for key in recorded | here
                    if recorded.get(key) != here.get(key))
    if differ:
        pytest.skip("golden digests were computed with another "
                    + ", ".join(differ))
    digests = golden.artifact_digests()
    changed = sorted(name for name in expected.keys() | digests.keys()
                     if expected.get(name) != digests.get(name))
    assert not changed, f"artifacts whose bytes changed: {changed}"
