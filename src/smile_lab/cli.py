"""Command-line pipeline: data generation, training, ablations, diagnostics."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import data, interpolation, model, train
from .config import ExperimentConfig, load_config
from .data import atomic_write

ENV_OUTPUT_DIR = "SMILE_LAB_OUTPUT_DIR"


def _out_dir(cfg: ExperimentConfig) -> Path:
    """The output directory; gen-data alone creates it."""
    return Path(os.environ.get(ENV_OUTPUT_DIR, cfg.output_dir))


DATASETS = ("source_train", "target_train_full", "target_train",
            "target_test")


def _require(path: Path, produced_by: str) -> Path:
    if not path.exists():
        raise FileNotFoundError(
            f"missing artifact {path}; run `{produced_by}` first")
    return path


def _inputs(out: Path, ckpt: Path | None, *names: str):
    """(weights, *datasets): the checkpoint at ``ckpt`` (None when ``ckpt``
    is None) and the named datasets of ``out``. A checkpoint built for other
    images than a dataset holds, or for other source classes than
    source_train, is a CheckpointError."""
    weights = None if ckpt is None else model.load_checkpoint(_require(
        ckpt, "pretrain" if ckpt == out / "pretrained.ckpt" else "train"))
    datasets = [data.load(_require(out / f"{name}.bin", "gen-data"))
                for name in names]
    if weights is None:
        return (None, *datasets)
    arch = weights.arch
    image = (arch.image_size, arch.image_size, arch.channels)
    for name, dataset in zip(names, datasets):
        if dataset.inputs.shape[1:] != image:
            raise model.CheckpointError(
                f"{ckpt} takes images of shape {image}, {name} holds "
                f"{dataset.inputs.shape[1:]}; run `pretrain` again")
        if name == "source_train" and \
                dataset.n_classes != arch.n_source_classes:
            raise model.CheckpointError(
                f"{ckpt} has {arch.n_source_classes} source classes, "
                f"source_train {dataset.n_classes}; run `pretrain` again")
    return (weights, *datasets)


def cmd_gen_data(cfg: ExperimentConfig, args) -> None:
    out = _out_dir(cfg)
    data.check_fits(data.generation_bytes(cfg.task, cfg.subsample_rate),
                    "the datasets", data.TaskTooLarge)
    out.mkdir(parents=True, exist_ok=True)
    source = data.generate_source(cfg.task)
    target_full = data.derive_target(cfg.task)
    target_sub = data.stratified_subsample(target_full, cfg.subsample_rate,
                                           cfg.task.seed)
    target_test = data.test_split(cfg.task, "target")
    for name, dataset in zip(DATASETS, (source, target_full, target_sub,
                                        target_test), strict=True):
        data.save(dataset, out / f"{name}.bin")
        if args.csv:
            data.export_csv(dataset, out / f"{name}.csv")
    print(f"wrote {len(source)} source / {len(target_sub)} target train "
          f"(rate {cfg.subsample_rate}) / {len(target_test)} target test "
          f"samples to {out}")


def cmd_pretrain(cfg: ExperimentConfig, args) -> None:
    out = _out_dir(cfg)
    _, source = _inputs(out, None, "source_train")
    weights = train.pretrain_source(source, cfg.pretrain)
    with train.diverges_at(cfg.pretrain.iterations, "evaluation"):
        acc = train.accuracy(weights, source)
    ckpt = out / "pretrained.ckpt"
    model.save_checkpoint(weights, ckpt)
    print(f"pretrained {cfg.pretrain.iterations} iterations, "
          f"source train accuracy {acc:.4f}, checkpoint {ckpt}")


def cmd_train(cfg: ExperimentConfig, args) -> None:
    out = _out_dir(cfg)
    pretrained, target_train, source_train, target_test = _inputs(
        out, out / "pretrained.ckpt", "target_train", "source_train",
        "target_test")
    student, metrics = train.train(pretrained, target_train, source_train,
                                   cfg.train, target_test)
    acc = metrics.eval_rows[-1]["test_acc"]
    mode = cfg.train.mode
    ckpt = out / f"student_{mode}.ckpt"
    model.save_checkpoint(student, ckpt)
    metrics.write_csv(out / f"metrics_{mode}.csv")
    print(f"trained mode={mode} seed={cfg.train.seed} "
          f"gamma_fe={cfg.train.gamma_fe} gamma_fc={cfg.train.gamma_fc}: "
          f"test accuracy {acc:.4f}, checkpoint {ckpt}")


def cmd_ablate(cfg: ExperimentConfig, args) -> None:
    out = _out_dir(cfg)
    pretrained, target_train, source_train, target_test = _inputs(
        out, out / "pretrained.ckpt", "target_train", "source_train",
        "target_test")
    rows, summary = train.run_ablation_suite(
        pretrained, target_train, target_test, source_train, cfg.train,
        cfg.ablation_modes, cfg.ablation_seeds)
    train.write_ablation_csv(rows, summary, out / "ablation_summary.csv")
    for mode, (m, s) in summary.items():
        print(f"{mode}: {100 * m:.2f} +/- {100 * s:.2f} %")


def _affine_stub_fn(n_inputs: int, seed: int):
    """x -> flat(x) @ w + b, with w (n_inputs, 8) and b (8,) drawn from seed."""
    r = np.random.default_rng(seed)
    w = r.normal(size=(n_inputs, 8))
    b = r.normal(size=8)
    return lambda x: x.reshape(len(x), -1) @ w + b


def cmd_diagnose(cfg: ExperimentConfig, args) -> None:
    out = _out_dir(cfg)
    if args.affine_stub and args.checkpoint:
        raise ValueError("--checkpoint and --affine-stub exclude each other")
    ckpt = None if args.affine_stub else Path(
        args.checkpoint or out / f"student_{cfg.train.mode}.ckpt")
    weights, target_test = _inputs(out, ckpt, "target_test")
    if weights is None:
        label_fn = feature_fn = _affine_stub_fn(
            math.prod(target_test.inputs.shape[1:]), cfg.seed)
    else:
        data.check_fits(interpolation.il_bytes(
            cfg.diagnostics, target_test.inputs[0].size,
            weights.arch.feature_dim), "the IL draws",
            interpolation.ILTooLarge)
        # one feature sweep serves both estimates: they draw the same
        # batches, and the feature closure keeps what it extracted
        feature_fn = interpolation.model_output_fn(weights, "feature")
        label_fn = lambda x: model.head_logits(feature_fn(x), weights)
    reports = {"label": interpolation.estimate_IL(label_fn, target_test,
                                                  cfg.diagnostics)}
    # the stub has no head: its logits are its features, so the label
    # estimate is the feature estimate
    reports["feature"] = reports["label"] if weights is None else \
        interpolation.estimate_IL(feature_fn, target_test, cfg.diagnostics)

    rng = np.random.default_rng(cfg.diagnostics.seed)
    n_pairs = min(4, len(target_test) // 2)
    idx = rng.choice(len(target_test), size=2 * n_pairs, replace=False)
    pairs = [(target_test.inputs[idx[2 * i]], target_test.inputs[idx[2 * i + 1]])
             for i in range(n_pairs)]
    rows = interpolation.feature_interp_trajectory(feature_fn, pairs)
    payload = {"model": "affine-stub" if ckpt is None else str(ckpt),
               **{layer: dataclasses.asdict(r) for layer, r in reports.items()}}
    with atomic_write(out / "il_report.json") as fh:
        fh.write(json.dumps(payload, indent=2))
    interpolation.write_trajectory_csv(rows, out / "pca_traj.csv")
    print(f"label IL {reports['label'].mean:.4f}, "
          f"feature IL {reports['feature'].mean:.4f}; "
          f"wrote il_report.json and pca_traj.csv to {out}")


def cmd_report(cfg: ExperimentConfig, args) -> None:
    out = _out_dir(cfg)
    lines = ["experiment summary", "=" * 40]
    ablation = out / "ablation_summary.csv"
    if ablation.exists():
        lines.append("\ntest accuracy by mode (mean +/- std):")
        lines.extend("  " + line for line in
                     ablation.read_text().strip().splitlines())
    il_path = out / "il_report.json"
    if il_path.exists():
        payload = json.loads(il_path.read_text())
        try:
            lines.append(f"\ninterpolation loss ({payload['model']}):")
            for layer in ("label", "feature"):
                r = payload[layer]
                lines.append(f"  {layer}: {r['mean']:.4f} +/- {r['std']:.4f} "
                             f"(n={r['n_effective']}, "
                             f"degenerate={r['n_degenerate']})")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{il_path} is not an IL report: {exc!r}") from exc
    metrics_files = sorted(out.glob("metrics_*.csv"))
    if metrics_files:
        lines.append("\nfinal loss rows:")
        for path in metrics_files:
            rows = path.read_text().strip().splitlines()
            if len(rows) < 2:
                raise ValueError(f"{path} holds no loss rows")
            lines.append(f"  {path.name}: {rows[-1]}")
    if len(lines) == 2:
        raise FileNotFoundError(
            "no artifacts to report; run the pipeline first")
    text = "\n".join(lines) + "\n"
    with atomic_write(out / "summary.txt") as fh:
        fh.write(text)
    print(text, end="")


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "pretrain": cmd_pretrain,
    "train": cmd_train,
    "ablate": cmd_ablate,
    "diagnose": cmd_diagnose,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smile-lab",
        description="Self-distilled mixup transfer-learning lab.")
    parser.add_argument("-c", "--config", default=None,
                        help="YAML experiment config")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("overrides", nargs="*",
                       help="dotted overrides, e.g. train.mode=SMILE")
        if name == "gen-data":
            p.add_argument("--csv", action="store_true",
                           help="also export datasets as CSV")
        if name == "diagnose":
            p.add_argument("--checkpoint", default=None)
            p.add_argument("--affine-stub", action="store_true",
                           help="diagnose a fixed affine model instead of "
                                "a checkpoint (sanity: IL should be ~0)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        _COMMANDS[args.command](cfg, args)
    except (OSError, ValueError, train.TrainingDiverged) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
