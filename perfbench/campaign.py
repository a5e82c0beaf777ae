#!/usr/bin/env python3
"""Run every workload untraced and traced, print every metric by name with
its unit and sample count, and write BENCHMARK.json from perfbench/spec.py.

    python3 perfbench/campaign.py --seed 1 --seconds 20 --out results.json

Each run is a separate ``perfbench/run.py`` process; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

REPORTED = ("machine", "named", "metric", "digest", "FAIL")


def run(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=spec.ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return proc.returncode, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec.benchmark_json()["run_seconds"])
    parser.add_argument("--out", type=Path, default=None,
                        help="also write every result line as JSON here")
    args = parser.parse_args()

    spec.write_benchmark_json()
    results, status = {}, 0
    for workload, _ in spec.WORKLOADS:
        for trace in (0, 1):
            code, lines = run(workload, args.seed, args.seconds, trace)
            status |= code
            print(f"== {workload} trace {trace}: exit {code}")
            for line in lines[:-1]:
                if line.startswith(REPORTED):
                    print("  " + line)
            results[f"{workload}/trace{trace}"] = {
                "lines": lines[:-1], "result": json.loads(lines[-1])}
    if args.out:
        args.out.write_text(json.dumps(results, indent=2) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
