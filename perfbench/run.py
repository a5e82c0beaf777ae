#!/usr/bin/env python3
"""Run one benchmark workload against the smile_lab sources of this checkout.

    python3 perfbench/run.py --workload finetune --seed 1 --seconds 36 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run (see perfbench/README.md). Lines before it give the machine,
every metric by name with its unit and sample count, and any failed check.
The exit code is 0 only when every output check and self-check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 2
TRACED_PASSES = 2
IMPORT_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import smile_lab.cli; from scipy import ndimage")


def fresh_import_seconds() -> float:
    """Wall time for a new interpreter to start and import the package."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC)],
                   check=True, cwd=ROOT)
    return time.perf_counter() - start


def blas_threads():
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cpu_ticks():
    """Cumulative (steal, total) ticks of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:]]
    except OSError:
        return None
    return ticks[7], sum(ticks)


def machine(loadavg_start: float, ticks_start) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    ticks_end = cpu_ticks()
    steal_pct = None
    if ticks_start and ticks_end and ticks_end[1] > ticks_start[1]:
        steal_pct = 100 * ((ticks_end[0] - ticks_start[0])
                           / (ticks_end[1] - ticks_start[1]))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "loadavg_1m_start": loadavg_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "cpu_steal_pct": steal_pct,
    }


def run_passes(workload, until: float, minimum: int) -> list:
    """Closed loop: the next pass starts when the previous one returned.
    A pass that raises is a failed operation and reads as None."""
    results = []
    while len(results) < minimum or time.perf_counter() < until:
        try:
            results.append(workload.run_pass())
        except Exception as exc:
            print(f"FAIL pass raised {type(exc).__name__}: {exc}")
            results.append(None)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread: the GEMMs here are small, a second thread saves no
    # wall time but spins on the other core, and its waits on a shared
    # host make timings unsteady. Set before numpy is first imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not (SRC / "smile_lab" / "__init__.py").is_file():
        print(f"no smile_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import smile_lab
    if Path(smile_lab.__file__).resolve().parent != SRC / "smile_lab":
        print(f"imported smile_lab from {smile_lab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spec
    from spans import Tracer, aggregate
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")

    loadavg_start, ticks_start = os.getloadavg()[0], cpu_ticks()
    problems = []

    # -- set-up and measurement alternate: each round times a fresh import
    # and rebuilds the inputs, then runs passes for its share of --seconds,
    # so that set-up and passes sample the shared host's speed across the
    # whole run instead of one stretch of it; one more import ends the run.
    # setup_s is the median import plus the median input build. A traced
    # run traces the first passes of the first round.
    workload = WORKLOADS[args.workload](args.seed % 2 ** 32, ROOT)
    imports, builds, setup_digests, traced, untraced = [], [], set(), [], []
    measured = 0.0
    for round_ in range(SETUP_REPEATS):
        imports.append(fresh_import_seconds())
        start = time.perf_counter()
        setup_digests.add(workload.setup())
        builds.append(time.perf_counter() - start)
        start = time.perf_counter()
        if args.trace and round_ == 0:
            tracer = Tracer()
            with tracer:
                traced = run_passes(workload, 0.0, TRACED_PASSES)
            stats = aggregate(tracer.spans)
            if all(traced):
                problems += [f"self-check: {p}" for p in
                             workload.self_checks(tracer.spans, stats,
                                                  TRACED_PASSES)]
            else:
                problems.append("a traced pass failed")
        share = args.seconds * (round_ + 1) / SETUP_REPEATS - measured
        untraced += run_passes(workload, start + share, 1)
        measured += time.perf_counter() - start
    imports.append(fresh_import_seconds())
    if len(setup_digests) != 1:
        problems.append("set-up is not reproducible: pretrained weights "
                        "differ between repeats")

    # -- output checks: failed operations, and the same student bytes from
    # every pass, traced or not
    passes = traced + untraced
    done = [p for p in passes if p is not None]
    attempted = sum(p.attempted for p in done) + passes.count(None)
    failures = [f for p in done for f in p.failures]
    failed = len(failures) + passes.count(None)
    reference = done[0].digests if done else {}
    for i, p in enumerate(done):
        for name, digest in p.digests.items():
            if digest != reference.get(name):
                problems.append(f"pass {i}: {name} sha256 {digest} differs "
                                f"from the first pass")

    # -- metrics: (value, unit, samples)
    clean = [p for p in untraced if p is not None]
    metrics = {}
    if not clean:
        problems.append("no untraced pass completed")
    elif args.trace:
        overhead = 100 * (
            statistics.median(p.seconds for p in traced) /
            statistics.median(p.seconds for p in clean) - 1)
        metrics = {name: (value, unit, TRACED_PASSES) for name, (value, unit)
                   in spec.layer_metrics(stats, TRACED_PASSES,
                                         overhead).items()}
    else:
        n = len(clean)
        metrics = {
            "setup_s": (statistics.median(imports)
                        + statistics.median(builds), "s", len(builds)),
            "iter_ms": (statistics.median(
                1000 * p.iter_seconds / p.iterations for p in clean), "ms", n),
            "pass_s": (statistics.median(p.seconds for p in clean), "s", n),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        }

    print("machine " + json.dumps(machine(loadavg_start, ticks_start)))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(traced)} traced + {len(untraced)} untraced passes; set-up "
          f"imports {', '.join(f'{t:.4f}' for t in imports)} s, inputs "
          f"{', '.join(f'{t:.4f}' for t in builds)} s")
    for name in sorted({k for p in clean for k in p.named}):
        values = [p.named[name][0] for p in clean if name in p.named]
        unit = next(p.named[name][1] for p in clean if name in p.named)
        print(f"named {name} {statistics.median(values):.6g} {unit} "
              f"n={len(values)}")
    print(f"named error_rate {failed / max(attempted, 1):.6g} fraction "
          f"n={attempted}")
    for name, digest in reference.items():
        print(f"digest {name} sha256 {digest}")
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} {value:.6g} {unit} n={n}")
    for problem in failures + problems:
        print(f"FAIL {problem}")

    correct = not problems and failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
