#!/usr/bin/env python3
"""Print sha256 digests of the pipeline's artifacts at a small config.

Runs gen-data --csv, pretrain, train for every fine-tuning mode, ablate
and diagnose through the CLI in a temporary directory, then prints one
``<sha256>  <artifact>`` line for the four dataset CSVs, pretrained.ckpt,
every student_*.ckpt and metrics_*.csv, ablation_summary.csv and
il_report.json. Two source trees that give the same lines compute the same
bytes; a refactor that claims to change no arithmetic shows it by comparing
this output before and after:

    PYTHONPATH=src python3 scripts/golden_digests.py > after.txt
    PYTHONPATH=<checkout>/src python3 scripts/golden_digests.py > before.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

from smile_lab import cli, train

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

DATASETS = ("source_train", "target_train_full", "target_train", "target_test")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    # the config names the output directory; keep the environment out of it
    os.environ.pop(cli.ENV_OUTPUT_DIR, None)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # a relative output_dir keeps the temporary path out of il_report.json
        os.chdir(tmp)
        try:
            Path("exp.yaml").write_text(CONFIG)
            steps = [["gen-data", "--csv"], ["pretrain"]]
            steps += [["train", f"train.mode={mode}"] for mode in train.MODES]
            steps += [["ablate"], ["diagnose", "train.mode=SMILE"]]
            for argv in steps:
                # progress lines go to stderr; stdout carries only digests
                with contextlib.redirect_stdout(sys.stderr):
                    code = cli.main(["-c", "exp.yaml", *argv])
                if code != 0:
                    print(f"{' '.join(argv)} exited {code}", file=sys.stderr)
                    return code
            out = Path("out")
            artifacts = [out / "pretrained.ckpt", out / "il_report.json",
                         out / "ablation_summary.csv"]
            artifacts += out.glob("student_*.ckpt")
            artifacts += out.glob("metrics_*.csv")
            artifacts += [out / f"{name}.csv" for name in DATASETS]
            digests = sorted((p.name, sha256(p)) for p in artifacts)
        finally:
            os.chdir(cwd)
    for name, digest in digests:
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
