"""Command-line pipeline: data generation, training, ablations, diagnostics."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import data, interpolation, model, train
from .config import ConfigError, ExperimentConfig, apply_overrides, load_config

ENV_OUTPUT_DIR = "SMILE_LAB_OUTPUT_DIR"


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(os.environ.get(ENV_OUTPUT_DIR, cfg.output_dir))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dataset_paths(out: Path) -> dict:
    return {
        "source_train": out / "source_train.bin",
        "target_train_full": out / "target_train_full.bin",
        "target_train": out / "target_train.bin",
        "target_test": out / "target_test.bin",
    }


def _require(path: Path, produced_by: str) -> Path:
    if not path.exists():
        raise FileNotFoundError(
            f"missing artifact {path}; run `{produced_by}` first")
    return path


def cmd_gen_data(cfg: ExperimentConfig, args) -> None:
    out = _out_dir(cfg)
    paths = _dataset_paths(out)
    source = data.generate_source(cfg.task)
    target_full = data.derive_target(cfg.task)
    target_sub = data.stratified_subsample(target_full, cfg.subsample_rate,
                                           cfg.task.seed)
    target_test = data.test_split(cfg.task, "target")
    data.save(source, paths["source_train"])
    data.save(target_full, paths["target_train_full"])
    data.save(target_sub, paths["target_train"])
    data.save(target_test, paths["target_test"])
    if args.csv:
        for name in paths:
            data.export_csv(data.load(paths[name]),
                            paths[name].with_suffix(".csv"))
    print(f"wrote {len(source)} source / {len(target_sub)} target train "
          f"(rate {cfg.subsample_rate}) / {len(target_test)} target test "
          f"samples to {out}")


def cmd_pretrain(cfg: ExperimentConfig, args) -> None:
    out = _out_dir(cfg)
    source = data.load(_require(_dataset_paths(out)["source_train"],
                                "gen-data"))
    weights = train.pretrain_source(source, cfg.pretrain)
    with train.diverges_at(cfg.pretrain.iterations, "evaluation"):
        acc = train.accuracy(weights, source, head="source")
    ckpt = out / "pretrained.ckpt"
    model.save_checkpoint(weights, ckpt)
    print(f"pretrained {cfg.pretrain.iterations} iterations, "
          f"source train accuracy {acc:.4f}, checkpoint {ckpt}")


def cmd_train(cfg: ExperimentConfig, args) -> None:
    out = _out_dir(cfg)
    paths = _dataset_paths(out)
    pretrained = model.load_checkpoint(_require(out / "pretrained.ckpt",
                                                "pretrain"))
    target_train = data.load(_require(paths["target_train"], "gen-data"))
    source_train = data.load(_require(paths["source_train"], "gen-data"))
    target_test = data.load(_require(paths["target_test"], "gen-data"))
    student, metrics = train.train(pretrained, target_train, source_train,
                                   cfg.train, target_test)
    last = metrics.eval_rows[-1] if metrics.eval_rows else {}
    if last.get("iteration") == cfg.train.iterations:
        acc = last["test_acc"]
    else:
        with train.diverges_at(cfg.train.iterations, "evaluation"):
            acc = train.accuracy(student, target_test)
    mode = cfg.train.mode
    ckpt = out / f"student_{mode}.ckpt"
    model.save_checkpoint(student, ckpt)
    metrics.write_csv(out / f"metrics_{mode}.csv")
    print(f"trained mode={mode} seed={cfg.train.seed} "
          f"gamma_fe={cfg.train.gamma_fe} gamma_fc={cfg.train.gamma_fc}: "
          f"test accuracy {acc:.4f}, checkpoint {ckpt}")


def cmd_ablate(cfg: ExperimentConfig, args) -> None:
    out = _out_dir(cfg)
    paths = _dataset_paths(out)
    pretrained = model.load_checkpoint(_require(out / "pretrained.ckpt",
                                                "pretrain"))
    target_train = data.load(_require(paths["target_train"], "gen-data"))
    source_train = data.load(_require(paths["source_train"], "gen-data"))
    target_test = data.load(_require(paths["target_test"], "gen-data"))
    rows, summary = train.run_ablation_suite(
        pretrained, target_train, target_test, source_train, cfg.train,
        cfg.ablation_modes, cfg.ablation_seeds)
    train.write_ablation_csv(rows, summary, out / "ablation_summary.csv")
    for mode, (m, s) in summary.items():
        print(f"{mode}: {100 * m:.2f} +/- {100 * s:.2f} %")


def _affine_stub_fn(out_dim: int = 8, seed: int = 0):
    state = {}  # weights built lazily once the input dimension is known

    def fn(x: np.ndarray) -> np.ndarray:
        flat = x.reshape(len(x), -1)
        if "w" not in state:
            r = np.random.default_rng(seed)
            state["w"] = r.normal(size=(flat.shape[1], out_dim))
            state["b"] = r.normal(size=out_dim)
        return flat @ state["w"] + state["b"]

    return fn


def cmd_diagnose(cfg: ExperimentConfig, args) -> None:
    out = _out_dir(cfg)
    paths = _dataset_paths(out)
    target_test = data.load(_require(paths["target_test"], "gen-data"))
    if args.affine_stub:
        label_fn = feature_fn = _affine_stub_fn(seed=cfg.seed)
        source_name = "affine-stub"
    else:
        ckpt = Path(args.checkpoint) if args.checkpoint \
            else out / f"student_{cfg.train.mode}.ckpt"
        weights = model.load_checkpoint(_require(ckpt, "train"))
        # one feature sweep serves both estimates: they draw the same
        # batches, and the feature closure keeps what it extracted
        feature_fn = interpolation.model_output_fn(weights, "feature")
        label_fn = lambda x: model.head_logits(feature_fn(x), weights)
        source_name = str(ckpt)
    reports = {}
    for layer, fn in (("label", label_fn), ("feature", feature_fn)):
        il_cfg = dataclasses.replace(cfg.diagnostics, layer=layer)
        reports[layer] = interpolation.estimate_IL(fn, target_test, il_cfg)
    payload = {
        "model": source_name,
        "label": json.loads(reports["label"].to_json()),
        "feature": json.loads(reports["feature"].to_json()),
    }
    (out / "il_report.json").write_text(json.dumps(payload, indent=2))

    rng = np.random.default_rng(cfg.diagnostics.seed)
    n_pairs = min(4, len(target_test) // 2)
    idx = rng.choice(len(target_test), size=2 * n_pairs, replace=False)
    pairs = [(target_test.inputs[idx[2 * i]], target_test.inputs[idx[2 * i + 1]])
             for i in range(n_pairs)]
    rows, _ = interpolation.feature_interp_trajectory(feature_fn, pairs)
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
        lines.append(f"\ninterpolation loss ({payload['model']}):")
        for layer in ("label", "feature"):
            r = payload[layer]
            lines.append(f"  {layer}: {r['mean']:.4f} +/- {r['std']:.4f} "
                         f"(n={r['n_effective']}, "
                         f"degenerate={r['n_degenerate']})")
    metrics_files = sorted(out.glob("metrics_*.csv"))
    if metrics_files:
        lines.append("\nfinal loss rows:")
        for path in metrics_files:
            last = path.read_text().strip().splitlines()[-1]
            lines.append(f"  {path.name}: {last}")
    if len(lines) == 2:
        raise FileNotFoundError(
            "no artifacts to report; run the pipeline first")
    text = "\n".join(lines) + "\n"
    (out / "summary.txt").write_text(text)
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
        cfg = load_config(args.config)
        apply_overrides(cfg, args.overrides)
        _COMMANDS[args.command](cfg, args)
    except (ConfigError, FileNotFoundError, ValueError,
            model.CheckpointError, data.DatasetFormatError,
            train.TrainingDiverged) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
