"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

Usage, from the repository root:

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs the benchmark once per seed (first-seed, first-seed+1, ...) with
tracing off and prints how long each run took and, per end-to-end
metric, the median, the quartiles (`statistics.quantiles(values, n=4)`)
and the spread (Q3 - Q1) / median next to the metric's bound.  It also
prints the share of failed operations, which must not change from run
to run.  The raw results are appended to
perfbench/out/spread-<workload>.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    log = BENCH / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        started = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        run_s = time.perf_counter() - started
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        with log.open("a") as f:
            f.write(json.dumps({"seed": seed, "run_s": run_s, **result}) + "\n")
        print(f"seed {seed}: run {run_s:.1f} s, attempted {result['attempted']}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
        ), flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share: {sorted(shares)}  correct: {all(r['correct'] for r in results)}")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        print(
            f"{metric['name']:14s} median {med:.4g} {metric['unit']}  Q1 {q1:.4g}  Q3 {q3:.4g}  "
            f"spread {spread:.3f}  bound {metric['bound']}  "
            f"{'ok' if spread < metric['bound'] / 3 else 'WIDE'}"
        )


if __name__ == "__main__":
    sys.exit(main())
