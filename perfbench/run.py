"""jstretch benchmark: cold-start workloads, checked outputs, outside-in trace.

Usage, from the repository root:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload every workload runs in turn.  A run repeats whole
rounds of the workload, each in a fresh process (perfbench/child.py),
while the measured time of the rounds so far plus one more round fits
in --seconds; there are always at least the workload's MIN_ROUNDS
(workloads.py) rounds.  The first round's outputs are checked; every
later round must reproduce them exactly.

With --trace 0 the end-to-end metrics are reported (medians over the
rounds; set-up also over extra set-up-only processes), with --trace 1
the per-layer metrics of the traced rounds.  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Results and traces are written under perfbench/out/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import MIN_ROUNDS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_ONLY_PER_ROUND = 3
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "slowest_op_s": "s", "peak_rss_mb": "MiB"}


class BenchmarkError(Exception):
    pass


def child(workload, seed, trace, check=0, round_index=0, setup_only=False):
    cmd = [
        sys.executable, "-B", str(BENCH / "child.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--check", str(check), "--round", str(round_index),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} round {round_index} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace):
    rounds = []
    setups = []
    measured = 0.0
    while True:
        r = child(workload, seed, trace, check=int(not rounds), round_index=len(rounds))
        rounds.append(r)
        setups.append(r["setup_s"])
        if not trace:
            # spread over the run, so one slow spell of the machine does not
            # hit every set-up sample
            setups += [
                child(workload, seed, 0, setup_only=True)["setup_s"]
                for _ in range(SETUP_ONLY_PER_ROUND)
            ]
        spent = r["setup_s"] + r["wall_s"]
        measured += spent
        if len(rounds) >= MIN_ROUNDS[workload] and measured + spent > seconds:
            break

    first = rounds[0]
    attempted = failed = 0
    correct = True
    problems = []
    for k, r in enumerate(rounds):
        for i, op in enumerate(r["ops"]):
            attempted += 1
            if k == 0:
                bad = first["failed_checks"][i]
            elif op["fingerprint"] != first["ops"][i]["fingerprint"]:
                bad = ["output differs from round 0"]
            else:
                bad = []
            if op["error"] is not None:
                failed += 1
                problems.append(f"round {k} {op['label']}: {op['error']}")
            elif bad:
                failed += 1
                correct = False
                problems.append(f"round {k} {op['label']}: {', '.join(bad)}")

    if trace:
        # the lower median keeps counts whole; they are equal in every round
        metrics = {
            name: {"value": statistics.median_low(r["layers"][name] for r in rounds), "unit": layer_unit(name)}
            for name in rounds[0]["layers"]
        }
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        for name in ("wall_s", "slowest_op_s", "peak_rss_mb"):
            metrics[name] = {
                "value": statistics.median(r[name] for r in rounds),
                "unit": END_TO_END_UNITS[name],
            }
    for line in problems:
        print(f"[{workload}] FAILED {line}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, len(rounds)


def layer_unit(name):
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name == "lengths.truncations_per_length":
        return "ratio"
    if name.endswith(".max_degree"):
        return "degree"
    return "count"


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, when it is present."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "jstretch" / "__init__.py").is_file():
        print("perfbench: no src/jstretch next to perfbench/", file=sys.stderr)
        sys.exit(2)
    declared = declared_metrics(args.trace)
    results = {}
    for workload in [args.workload] if args.workload else WORKLOADS:
        started = time.perf_counter()
        try:
            result, nrounds = run_workload(workload, args.seed, args.seconds, args.trace)
        except (BenchmarkError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            sys.exit(1)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if declared is not None and got != declared:
            print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(declared))}",
                  file=sys.stderr)
            sys.exit(1)
        OUT.mkdir(exist_ok=True)
        (OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1)
        )
        print(
            f"[{workload}] rounds={nrounds} attempted={result['attempted']} failed={result['failed']} "
            f"correct={result['correct']} in {time.perf_counter() - started:.1f} s"
        )
        for name, m in result["metrics"].items():
            print(f"{workload:20s} {name:42s} {m['value']:.6g} {m['unit']}")
        results[workload] = result
    print(json.dumps(results[args.workload] if args.workload else results))


if __name__ == "__main__":
    main()
