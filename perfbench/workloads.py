"""The benchmark's workloads: case lists, trial counts and operations.

Each workload is a closed loop with one caller: its operations run one
after another in one process, sharing the engine's caches as a session
does.  An operation is one `run_registry` call or one
`stability_trials` call.

- registry-graded: `run_registry` at five trials over the suite cases
  whose J and relations are graded (noncm-curve r = 3 under the weights
  1, 1, 2).  A global normal form settles every containment there and
  degree-truncated Buchberger runs give every length, so `groebner` and
  `lengths` do the work.
- registry-local: `run_registry` on the inhomogeneous cases
  semigroup-345 and points-p3.  `ideals.contains_locally` falls through
  to length refutation and to element colons by elimination.  points-p3
  runs one trial: five take minutes.
- speclab-stability: `stability_trials` of every quantity on four
  cases, ten seeds each.  One I, many J: each seed samples a fresh
  reduction, so the I side of the caches is reused while the J side
  misses; the registry workloads reuse one J across many invariants.
"""

import hashlib
from dataclasses import dataclass

REGISTRY_TRIALS = 5
SPECLAB_TRIALS = 10

# (registry id, build_case keyword arguments, trials)
GRADED_CASES = (
    ("thickline", {"r": 2}, REGISTRY_TRIALS),
    ("thickline", {"r": 3}, REGISTRY_TRIALS),
    ("thickline", {"r": 4}, REGISTRY_TRIALS),
    ("noncm-curve", {"r": 2}, REGISTRY_TRIALS),
    ("noncm-curve", {"r": 3}, REGISTRY_TRIALS),
    ("mixed-monomial-a", {}, REGISTRY_TRIALS),
    ("mixed-monomial-b", {}, REGISTRY_TRIALS),
    ("quartic-monomial", {}, REGISTRY_TRIALS),
    ("points-p2", {}, REGISTRY_TRIALS),
    ("rn2-mon-a", {}, REGISTRY_TRIALS),
    ("rn2-mon-b", {}, REGISTRY_TRIALS),
    ("rn2-mon-c", {}, REGISTRY_TRIALS),
    ("rn2-mon-wide", {}, REGISTRY_TRIALS),
    ("non-g2", {"t": 0}, REGISTRY_TRIALS),
    ("non-g2", {"t": 1}, REGISTRY_TRIALS),
)

LOCAL_CASES = (
    ("semigroup-345", {}, REGISTRY_TRIALS),
    ("points-p3", {}, 1),
)

SPECLAB_CASES = (
    ("rn2-mon-wide", {}),
    ("mixed-monomial-a", {}),
    ("semigroup-345", {}),
    ("thickline", {"r": 3}),
)

WORKLOADS = ("registry-graded", "registry-local", "speclab-stability")

# Rounds a run makes at least.  A registry-local round is one points-p3
# operation of 20-30 s, so with a single round wall_s and slowest_op_s
# would each rest on one sample of one operation; two rounds spread the
# run's median over twice as long a stretch of the machine's speed drift.
MIN_ROUNDS = {"registry-graded": 1, "registry-local": 2, "speclab-stability": 1}


def label(case_id, kwargs):
    return case_id + "".join(f"[{k}={v}]" for k, v in sorted(kwargs.items()))


def speclab_seeds(seed):
    """Trial seeds of one speclab operation: (seed-1)*T+1 .. seed*T.

    Seed 1 gives 1..T, the seeds `stability_trials` uses by default.
    """
    return tuple(range((seed - 1) * SPECLAB_TRIALS + 1, seed * SPECLAB_TRIALS + 1))


@dataclass
class Operation:
    label: str
    run: object  # () -> result
    fingerprint: object  # result -> str, equal across runs of the same seed


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def build(workload):
    """Set-up: build every case the workload uses, keyed by label."""
    from jstretch.registry import build_case

    specs = {
        "registry-graded": [(cid, kw) for cid, kw, _ in GRADED_CASES],
        "registry-local": [(cid, kw) for cid, kw, _ in LOCAL_CASES],
        "speclab-stability": list(SPECLAB_CASES),
    }[workload]
    return {label(cid, kw): build_case(cid, **kw) for cid, kw in specs}


def operations(workload, cases, seed):
    from jstretch.report import report_to_json

    if workload in ("registry-graded", "registry-local"):
        from jstretch.registry import run_registry

        table = GRADED_CASES if workload == "registry-graded" else LOCAL_CASES

        def registry_fingerprint(result):
            report, diffs, _ = result
            return _digest(report_to_json(report) + repr(diffs))

        return [
            Operation(
                label(cid, kw),
                lambda cid=cid, kw=kw, trials=trials: run_registry(cid, seed=seed, trials=trials, **kw),
                registry_fingerprint,
            )
            for cid, kw, trials in table
        ]

    from jstretch.speclab import QUANTITIES, stability_trials

    def trial_fingerprint(result):
        return _digest(repr((result.values, result.modal, result.stability, result.errors)))

    seeds = speclab_seeds(seed)
    return [
        Operation(
            f"{name}/{quantity}",
            lambda ideal=case.ideal, quantity=quantity: stability_trials(
                ideal, quantity, trials=SPECLAB_TRIALS, seeds=seeds
            ),
            trial_fingerprint,
        )
        for name, case in cases.items()
        for quantity in QUANTITIES
    ]
