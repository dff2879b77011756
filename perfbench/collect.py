"""Repeat benchmark runs over several seeds and summarise the spread.

    python3 perfbench/collect.py --workloads oracle_flow,curve_flow --seeds 101-110

Each run is ``perfbench/run.py`` in its own process, one after the other.
For every end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json, and
the share of failed operations.  Raw results go to
``.perfbench-out/collect-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    lo, hi = (int(x) for x in text.split("-"))
    return list(range(lo, hi + 1))


def summarise(results: list[dict], bounds: dict) -> list[str]:
    lines = []
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread <= bound / 3 else "  <-- above bound/3"
        lines.append(
            f"  {name:12s} median {med:12.6g}  Q1 {q1:12.6g}  Q3 {q3:12.6g}  "
            f"spread {spread:7.4f}  bound {bound}{flag}"
        )
    shares = {r["failed"] / r["attempted"] for r in results}
    correct = all(r["correct"] for r in results)
    lines.append(f"  failed share {sorted(shares)}  all correct {correct}  runs {len(results)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", required=True, help="a range, e.g. 101-110")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    for workload in args.workloads.split(","):
        results = []
        for seed in _seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            results.append(json.loads(done.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()
            ), flush=True)
        (out_dir / f"collect-{workload}.json").write_text(json.dumps(results))
        print(f"{workload}:")
        print("\n".join(summarise(results, bounds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
