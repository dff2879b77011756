"""Run one benchmark workload of mcflow and print its metrics.

    python3 perfbench/run.py --workload oracle_flow --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the repository root.  The program is imported from ``src/`` next
to this directory.  A run repeats whole rounds of the workload until
``--seconds`` have passed (at least one round).  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` the public functions of every mcflow module are wrapped
in spans and the JSON object holds the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

WORKLOAD_NAMES = ("oracle_flow", "collapse_pipeline", "check_battery", "curve_flow")
# Set-up is measured several times per run and the median reported.  Half
# of the import probes run before the timed rounds and half after them, so
# that they sample the machine's speed over the whole run.
IMPORT_PROBES = 4  # extra imports of mcflow in child interpreters
SETUP_PROBES = 2  # extra scene builds up to the first trace record (flow workloads)
IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import mcflow, mcflow.cli\n"
    "print(time.perf_counter() - t)\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "step_ms.mean": "ms",
    "step_ms.tail_mean": "ms",
    "peak_rss_mb": "MB",
    "oracle_err": "ratio",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_threads() -> None:
    """One process, BLAS threads capped at the cores this process may use."""
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cores
    os.environ.pop("MCFLOW_THREADS", None)


def tail_mean(samples, lo: float = 0.9, hi: float = 0.98) -> float:
    """Mean of the samples ranked from the ``lo`` to the ``hi`` quantile.

    The slowest tenth without its slowest fifth, at least one sample: the
    few samples that a preemption of this process stretched by tens of
    milliseconds would otherwise make up most of a tail of short steps.
    """
    ranked = sorted(samples)
    a = math.floor(lo * len(ranked))
    b = max(a + 1, math.ceil(hi * len(ranked)))
    return float(sum(ranked[a:b]) / (b - a))


def _import_probe() -> float:
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "mcflow" / "__init__.py").is_file():
        print(f"mcflow sources not found under {SRC}", file=sys.stderr)
        return 2
    _pin_threads()
    import_samples = [_import_probe() for _ in range(IMPORT_PROBES // 2)]

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import mcflow
    import workloads  # numpy, scipy and mcflow.cli come in here

    import_samples.append(time.perf_counter() - start)
    if Path(mcflow.__file__).resolve().parent != SRC / "mcflow":
        print(f"imported mcflow from {mcflow.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import numpy as np

    import checks
    import tracing

    out_dir = OUT / f"{name}-seed{seed}-pid{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(np.random.default_rng(seed), str(out_dir), checks.Faults())
    round_fn = workloads.WORKLOADS[name]
    setup_samples = []
    if name in workloads.FLOW_WORKLOADS:
        setup_samples = [round_fn(ctx, probe=True).setup_s for _ in range(SETUP_PROBES)]

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(mcflow)
        ctx.tracer = tracer
    rounds = []
    begin = time.perf_counter()
    while True:
        with ctx.span("bench.round"):
            rounds.append(round_fn(ctx))
        if time.perf_counter() - begin >= seconds:
            break
    import_samples += [_import_probe() for _ in range(IMPORT_PROBES - IMPORT_PROBES // 2)]

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    steps = sum(r.steps for r in rounds)
    samples = [s for r in rounds for s in r.samples_ms]
    setup_samples += [r.setup_s for r in rounds if r.setup_s is not None]
    print(f"workload {name}  seed {seed}  rounds {len(rounds)}  "
          f"operations attempted {attempted}  failed {failed}  step samples {len(samples)}")
    for fault in ctx.faults.items:
        print(f"CHECK FAILED: {fault}")

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(import_samples) + statistics.median(setup_samples),
            "run_s": statistics.median(r.run_s for r in rounds),
            # Means, not percentiles: the machine runs in fast and slow
            # phases, and a percentile of a run jumps between them.
            "step_ms.mean": float(np.mean(samples)) if samples else 0.0,
            "step_ms.tail_mean": tail_mean(samples) if samples else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "oracle_err": max(r.oracle_err for r in rounds),
        }
        units = END_TO_END_UNITS
    else:
        metrics = tracing.layer_metrics(tracer, len(rounds), steps)
        units = {k: tracing.layer_unit(k) for k in metrics}
        spans_path = OUT / f"spans-{name}-seed{seed}.json"
        tracer.write(str(spans_path))
        print(f"traced run_s {statistics.median(r.run_s for r in rounds):.4f} s  "
              f"spans {len(tracer.spans)} written to {spans_path}")
    for key, value in metrics.items():
        print(f"{key:42s} {value:14.6g} {units[key]}")
    try:
        out_dir.rmdir()
    except OSError:
        pass
    print(json.dumps({
        "correct": not ctx.faults.items,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True,
            text=True,
            check=False,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
