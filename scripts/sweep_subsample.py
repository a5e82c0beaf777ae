#!/usr/bin/env python3
"""Sweep the target-data subsampling rate and compare fine-tuning modes.

For each rate, runs the ablation suite over the config's ``ablation_modes``
and ``ablation_seeds`` and prints a table of mean test accuracy, mirroring
the low-data regime the method targets. The config comes from ``-c`` and
dotted overrides, as for ``smile-lab``; overrides come before ``--rates``.
Everything is computed in-process:

    python3 scripts/sweep_subsample.py train.iterations=450 \\
        "ablation_seeds=[0, 1, 2]" --rates 0.15 0.3 0.5
"""

import argparse

from smile_lab import data, train
from smile_lab.config import load_config


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-c", "--config", default=None,
                        help="YAML experiment config")
    parser.add_argument("overrides", nargs="*",
                        help="dotted overrides, e.g. train.iterations=450")
    parser.add_argument("--rates", type=float, nargs="+", required=True)
    args = parser.parse_args(argv)
    cfg = load_config(args.config, args.overrides)

    source = data.generate_source(cfg.task)
    target_full = data.derive_target(cfg.task)
    target_test = data.test_split(cfg.task)
    pretrained = train.pretrain_source(source, cfg.pretrain)
    print(f"pretrained: source acc {train.accuracy(pretrained, source):.3f}")

    header = ["rate"] + cfg.ablation_modes
    print("  ".join(f"{h:>10}" for h in header))
    for rate in args.rates:
        target_train = data.stratified_subsample(target_full, rate,
                                                 cfg.task.seed)
        _, summary = train.run_ablation_suite(
            pretrained, target_train, target_test, source, cfg.train,
            cfg.ablation_modes, cfg.ablation_seeds)
        cells = [f"{rate:>10.2f}"]
        cells += [f"{summary[mode][0]:>10.4f}" for mode in cfg.ablation_modes]
        print("  ".join(cells), flush=True)


if __name__ == "__main__":
    main()
