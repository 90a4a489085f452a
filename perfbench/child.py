"""One round of a workload in a fresh process, so every cache starts empty.

Usage (from the repository root; `run.py` starts it):

    python3 -B perfbench/child.py --workload NAME --seed N --trace 0|1
        [--check 0|1] [--round K] [--setup-only]

Prints one JSON object on standard output.  Set-up is importing
`jstretch` and building the workload's cases; then every operation runs
once, timed on its own.  With --check 1 the outputs are checked after
the timed part; with --trace 1 the engine is traced from outside and
the per-layer metrics are added, and the spans are written to
perfbench/out/.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main():
    start = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import jstretch  # noqa: F401  (the import is part of set-up)

    import workloads

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    cases = workloads.build(args.workload)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    ops = workloads.operations(args.workload, cases, args.seed)
    results = []
    timings = []
    errors = []
    wall_start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = (tracer.wrap(op.run, "op") if tracer is not None else op.run)()
            error = None
        except Exception as exc:  # an operation that raises counts as failed
            result = None
            error = f"{type(exc).__name__}: {exc}"
        timings.append(time.perf_counter() - t0)
        results.append(result)
        errors.append(error)
    wall_s = time.perf_counter() - wall_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "slowest_op_s": max(timings),
        "peak_rss_mb": peak_rss_mb,
        "ops": [
            {
                "label": op.label,
                "seconds": t,
                "error": error,
                "fingerprint": op.fingerprint(result) if error is None else None,
            }
            for op, t, result, error in zip(ops, timings, results, errors)
        ],
    }
    if tracer is not None:
        import jstretch.ideals as ideals
        import jstretch.lengths as lengths
        from jstretch.speclab import QUANTITIES

        caches = {
            "ideals._GB_CACHE": len(ideals._GB_CACHE),
            "ideals._OP_CACHE": len(ideals._OP_CACHE),
            "lengths._COLENGTH_CACHE": len(lengths._COLENGTH_CACHE),
            "lengths._LENGTH_CACHE": len(lengths._LENGTH_CACHE),
            "lengths._STAIRCASE_CACHE": len(lengths._STAIRCASE_CACHE),
        }
        out["layers"] = tracing.layer_metrics(tracer, caches, QUANTITIES)
        tracer.write(BENCH / "out" / f"trace-{args.workload}-seed{args.seed}-round{args.round}.tsv.gz")
    if args.check:
        out["failed_checks"] = check(args.workload, args.seed, cases, ops, results, errors)
    print(json.dumps(out))


def check(workload, seed, cases, ops, results, errors):
    """Names of the failed checks, per operation (in operation order)."""
    import checks
    from workloads import speclab_seeds

    failed = [[] for _ in ops]
    if workload == "speclab-stability":
        seeds = speclab_seeds(seed)
        for name in cases:
            picked = {
                op.label.split("/", 1)[1]: (i, results[i])
                for i, op in enumerate(ops)
                if op.label.split("/", 1)[0] == name and errors[i] is None
            }
            verdicts = checks.speclab_checks({q: r for q, (_, r) in picked.items()}, seeds)
            for q, (i, _) in picked.items():
                failed[i] = [n for n, ok in verdicts[q] if not ok]
        return failed
    for i, op in enumerate(ops):
        if errors[i] is None:
            case = results[i][2]
            failed[i] = [n for n, ok in checks.registry_checks(case, results[i], seed) if not ok]
    return failed


if __name__ == "__main__":
    main()
