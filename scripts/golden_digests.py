#!/usr/bin/env python3
"""Print sha256 digests of the pipeline's artifacts at a small config.

Runs gen-data --csv, pretrain, train for every fine-tuning mode, ablate and
diagnose through the CLI in a temporary directory, then prints one
``<sha256>  <artifact>`` line for the four dataset CSVs, pretrained.ckpt,
every student_*.ckpt and metrics_*.csv, ablation_summary.csv,
il_report.json and pca_traj.csv. Two source trees that give the same lines
compute the same bytes; a refactor that claims to change no arithmetic
shows it by comparing this output before and after:

    PYTHONPATH=src python3 scripts/golden_digests.py > after.txt
    PYTHONPATH=<checkout>/src python3 scripts/golden_digests.py > before.txt

The output starts with ``# key: value`` lines that fingerprint what the bits
depend on besides the source. ``tests/golden_digests.txt`` holds this
output, computed with one OpenBLAS thread, and ``tests/test_scripts.py``
compares a run of this script with one OpenBLAS thread with it, and the
SMILE artifacts of a shorter run with two. A change that alters results on
purpose rewrites that file:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/golden_digests.py \
        > tests/golden_digests.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from smile_lab import cli, train

DIGESTS_FILE = (Path(__file__).resolve().parent.parent / "tests"
                / "golden_digests.txt")

CONFIG = """\
seed: 0
task:
  samples_per_class: 20
pretrain:
  iterations: 150
train:
  iterations: 40
  batch_size: 16
  eval_every: 20
diagnostics:
  n_pairs: 10
subsample_rate: 0.5
ablation_seeds: [0, 1]
output_dir: out
"""

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprint() -> dict:
    """What the bits depend on besides the source: numpy, its BLAS and the
    CPU that BLAS picks its kernels for."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = {}
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            key = key.strip()
            if key in ("model name", "flags") and key not in cpu:
                cpu[key] = value.strip()
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu_model": cpu.get("model name", "unknown"),
            "cpu_flags": cpu.get("flags", "unknown")}


def _run(argv) -> None:
    # progress lines go to stderr; stdout carries only digests
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(["-c", "exp.yaml", *argv])
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")


def artifact_digests() -> dict:
    """Run the pipeline in a temporary directory; {artifact name: sha256}."""
    # the config names the output directory; keep the environment out of it
    env_out = os.environ.pop(cli.ENV_OUTPUT_DIR, None)
    cwd = os.getcwd()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            # a relative output_dir keeps the temporary path out of
            # il_report.json
            os.chdir(tmp)
            Path("exp.yaml").write_text(CONFIG)
            out = Path("out")
            _run(["gen-data", "--csv"])
            _run(["pretrain"])
            for mode in train.MODES:
                _run(["train", f"train.mode={mode}"])
            _run(["ablate"])
            _run(["diagnose", "train.mode=SMILE"])
            artifacts = [out / "pretrained.ckpt", out / "il_report.json",
                         out / "pca_traj.csv", out / "ablation_summary.csv"]
            artifacts += out.glob("student_*.ckpt")
            artifacts += out.glob("metrics_*.csv")
            artifacts += [out / f"{name}.csv" for name in cli.DATASETS]
            return dict(sorted((p.name, sha256(p)) for p in artifacts))
    finally:
        os.chdir(cwd)
        if env_out is not None:
            os.environ[cli.ENV_OUTPUT_DIR] = env_out


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(
        argv)
    try:
        digests = artifact_digests()
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    for key, value in fingerprint().items():
        print(f"# {key}: {value}")
    for name, digest in digests.items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
