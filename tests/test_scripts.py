import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smile_lab
from smile_lab import cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digests(lines):
    return {name: digest for digest, name in
            (line.split("  ") for line in lines if line[:1] != "#")}


def _golden_digests():
    """The recorded digests; skips naming the fingerprint fields in which
    this machine differs from the one that recorded them."""
    golden = _load_script("golden_digests")
    lines = golden.DIGESTS_FILE.read_text().splitlines()
    recorded = dict(line[2:].split(": ", 1) for line in lines
                    if line.startswith("# "))
    here = golden.fingerprint()
    differ = sorted(key for key in recorded | here
                    if recorded.get(key) != here.get(key))
    if differ:
        pytest.skip("golden digests were computed with another "
                    + ", ".join(differ))
    return _digests(lines)


def _env(blas_threads):
    """This environment with this package on the path and the given OpenBLAS
    thread count, which OpenBLAS reads once, when it loads."""
    src = str(Path(smile_lab.__file__).resolve().parent.parent)
    return dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
                PYTHONPATH=os.pathsep.join(
                    filter(None, (src, os.environ.get("PYTHONPATH")))))


def _run(argv, **kwargs):
    proc = subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, **kwargs)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def _changed(expected, digests):
    """'name: recorded -> new' for each artifact whose digest changed, the
    line a change log records for a change by design."""
    return [f"{name}: {expected.get(name)} -> {digests.get(name)}"
            for name in sorted(expected.keys() | digests.keys())
            if expected.get(name) != digests.get(name)]


def test_pipeline_artifacts_match_golden_digests():
    # one BLAS thread, as the benchmark pins it: the run then takes a core,
    # not the machine, when other tests run beside it
    expected = _golden_digests()
    stdout = _run([str(SCRIPTS / "golden_digests.py")], env=_env(1))
    changed = _changed(expected, _digests(stdout.splitlines()))
    assert not changed, "artifacts whose bytes changed:\n" + "\n".join(changed)


def test_smile_artifacts_match_with_two_blas_threads(tmp_path):
    # gen-data, pretrain and one SMILE run at the digest script's config:
    # SMILE makes every kind of forward and backward pass the other modes
    # make, and its metrics come from the graph-free evaluation path
    expected = _golden_digests()
    golden = _load_script("golden_digests")
    (tmp_path / "exp.yaml").write_text(golden.CONFIG)
    env = _env(2)
    env.pop(cli.ENV_OUTPUT_DIR, None)   # the config names the output dir
    for argv in (["gen-data"], ["pretrain"], ["train", "train.mode=SMILE"]):
        _run(["-m", "smile_lab.cli", "-c", "exp.yaml", *argv],
             cwd=tmp_path, env=env)
    names = ("pretrained.ckpt", "student_SMILE.ckpt", "metrics_SMILE.csv")
    digests = {name: golden.sha256(tmp_path / "out" / name) for name in names}
    changed = _changed({name: expected[name] for name in names}, digests)
    assert not changed, "artifacts whose bytes changed:\n" + "\n".join(changed)
