"""What the benchmark measures: workloads, end-to-end metrics with their
regression bounds, and the per-layer metrics derived from a traced run.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/campaign.py`` rewrites it) and a test checks that the
two agree.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from spans import PRIMITIVES, Stats

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = [
    ("finetune",
     "FT, D-SMILE and SMILE train.train calls from one pretrained model: "
     "conv2d backward, the teacher path, the objective and per-step cost; "
     "the named lines split it by mode"),
    ("pipeline-cli",
     "gen-data --csv, pretrain, train, diagnose (also --affine-stub) and "
     "report through cli.main: the only workload with artifact I/O and "
     "batch-6 IL model calls"),
]

# Long enough for a pipeline-cli run to span the host's slow drift; 22 runs
# per workload, plus 4, take about 2700 s of a 3420 s budget at this length.
RUN_SECONDS = 36

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("iter_ms", "ms", "lower", 0.25),
    ("pass_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

CLI_COMMANDS = ("gen-data", "pretrain", "train", "diagnose",
                "diagnose-affine-stub", "report")


def _ms(ns: float) -> float:
    return ns / 1e6


def _per_layer() -> List[Tuple[str, str, Callable]]:
    """(name, unit, fn(stats) -> value summed over the traced operations)."""
    def calls(span):
        return lambda st: st[span].calls

    def total_ms(span):
        return lambda st: _ms(st[span].total_ns)

    def self_ms(span):
        return lambda st: _ms(st[span].self_ns)

    def value_sum(span):
        return lambda st: st[span].value_sum

    out = []
    for p in PRIMITIVES:
        out += [(f"tensor.{p}.calls", "count", calls(f"tensor.{p}")),
                (f"tensor.{p}.fwd_ms", "ms", total_ms(f"tensor.{p}")),
                (f"tensor.{p}.bwd_ms", "ms", total_ms(f"tensor.{p}.bwd"))]
    out += [
        ("tensor.backward.calls", "count", calls("tensor.backward")),
        ("tensor.backward.self_ms", "ms", self_ms("tensor.backward")),
        ("tensor.sgd_step.ms", "ms", total_ms("tensor.sgd_step")),
        ("model.feature_extract_t.calls", "count",
         calls("model.feature_extract_t")),
        ("model.feature_extract_t.self_ms", "ms",
         self_ms("model.feature_extract_t")),
        ("model.feature_extract.calls", "count",
         calls("model.feature_extract")),
        ("model.feature_extract.ms", "ms", total_ms("model.feature_extract")),
        ("model.save_checkpoint.ms", "ms", total_ms("model.save_checkpoint")),
        ("model.save_checkpoint.bytes", "bytes",
         value_sum("model.save_checkpoint")),
        ("model.load_checkpoint.ms", "ms", total_ms("model.load_checkpoint")),
        ("losses.total_objective.calls", "count",
         calls("losses.total_objective")),
        ("losses.total_objective.self_ms", "ms",
         self_ms("losses.total_objective")),
        ("mixup.mix.calls", "count", calls("mixup.mix")),
        ("mixup.mix.ms", "ms", total_ms("mixup.mix")),
        ("train.train.self_ms", "ms", self_ms("train.train")),
        ("train.update_teacher.calls", "count", calls("train.update_teacher")),
        ("train.teacher_refreshes", "count", value_sum("train.update_teacher")),
        ("train.accuracy.calls", "count", calls("train.accuracy")),
        ("train.accuracy.ms", "ms", total_ms("train.accuracy")),
        ("train.pretrain_source.ms", "ms", total_ms("train.pretrain_source")),
        ("interpolation.estimate_IL.calls", "count",
         calls("interpolation.estimate_IL")),
        ("interpolation.estimate_IL.self_ms", "ms",
         self_ms("interpolation.estimate_IL")),
        ("interpolation.model_fn.calls", "count",
         calls("interpolation.model_fn")),
        ("interpolation.pca_2d.ms", "ms", total_ms("interpolation.pca_2d")),
        ("data.generate.ms", "ms", total_ms("data.generate")),
        ("data.save.ms", "ms", total_ms("data.save")),
        ("data.save.bytes", "bytes", value_sum("data.save")),
        ("data.load.ms", "ms", total_ms("data.load")),
        ("data.export_csv.ms", "ms", total_ms("data.export_csv")),
        ("config.load_config.ms", "ms", total_ms("config.load_config")),
        ("config.apply_overrides.ms", "ms",
         total_ms("config.apply_overrides")),
    ]
    for c in CLI_COMMANDS:
        out += [(f"cli.{c}.ms", "ms", total_ms(f"cli.{c}")),
                (f"cli.{c}.exit_code", "code", value_sum(f"cli.{c}"))]
    return out


PER_LAYER_SUMMED = _per_layer()

# Ratios, not divided by the number of operations: name, unit, better.
# The conv2d rate is computed from shapes over measured time.
PER_LAYER_RATIOS = [
    ("tensor.conv2d.gflops_per_s", "GFLOP/s", "higher"),
    ("model.feature_extract.rows_per_call", "rows", "higher"),
    ("interpolation.model_fn.rows_per_call", "rows", "higher"),
    ("trace_overhead_pct", "%", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: Stats, n_ops: int,
                  overhead_pct: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, per traced operation, from aggregated spans."""
    out = {name: (fn(stats) / n_ops, unit)
           for name, unit, fn in PER_LAYER_SUMMED}
    conv_fwd, conv_bwd = stats["tensor.conv2d"], stats["tensor.conv2d.bwd"]
    # forward flops come from shapes; backward does two GEMMs of that size
    conv_flops = conv_fwd.value_sum * (1 + 2 * _ratio(conv_bwd.calls,
                                                      conv_fwd.calls))
    out["tensor.conv2d.gflops_per_s"] = (
        _ratio(conv_flops, conv_fwd.total_ns + conv_bwd.total_ns), "GFLOP/s")
    for span in ("model.feature_extract", "interpolation.model_fn"):
        s = stats[span]
        out[f"{span}.rows_per_call"] = (_ratio(s.value_sum, s.calls), "rows")
    out["trace_overhead_pct"] = (overhead_pct, "%")
    return out


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u, _ in PER_LAYER_SUMMED]
                     + [{"name": n, "unit": u, "better": b}
                        for n, u, b in PER_LAYER_RATIOS],
    }


def write_benchmark_json(path: Path = ROOT / "BENCHMARK.json") -> None:
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
