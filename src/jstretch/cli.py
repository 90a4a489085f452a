"""Command-line interface.

Subcommands: analyze (run a session file), registry (built-in examples
with golden diffs), speclab (stability trials), fiber (Rees/fiber data).
Exit codes: 0 ok, 2 parse error, 3 computation cap exceeded, 4 golden or
target mismatch.
"""

import argparse
import json
import sys
from dataclasses import asdict

from .errors import CapExceeded, DegreeBoundExceeded, SessionError, UnknownExample
from .fibercone import analytic_spread, gr_presentation, graded_depth
from .errors import NotHomogeneous
from .registry import registry_ids, run_registry
from .report import analyze, render_human, report_to_dict
from .session import SessionConfig, parse_session
from .speclab import QUANTITIES, stability_trials

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_MISMATCH = 4


def _common_flags(sub):
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--char", type=int, default=32003)
    sub.add_argument("--trials", type=int, default=5)
    sub.add_argument("--json", action="store_true")


def build_parser():
    parser = argparse.ArgumentParser(prog="jstretch", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="run the analyze commands of a session file")
    p.add_argument("file")
    _common_flags(p)

    p = subs.add_parser("registry", help="run a built-in example against its golden record")
    p.add_argument("id", help=f"one of: {', '.join(registry_ids())}")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    _common_flags(p)

    p = subs.add_parser("speclab", help="stability trials for a tracked quantity")
    p.add_argument("file")
    p.add_argument("--quantity", required=True, choices=QUANTITIES)
    p.add_argument("--n", type=int, default=2)
    _common_flags(p)

    p = subs.add_parser("fiber", help="Rees/special-fiber data for session ideals")
    p.add_argument("file")
    p.add_argument("--target", default=None, help="session ideal to compare the gr ideal against")
    _common_flags(p)
    return parser


def _load_session(path, args):
    config = SessionConfig(char=args.char, seed=args.seed, trials=args.trials)
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_session(text, config)


def _analyzed_ideals(session):
    names = [cmd.ideal for cmd in session.commands]
    return names if names else list(session.ideals)


def _cmd_analyze(args):
    session = _load_session(args.file, args)
    outputs = []
    for cmd in session.commands:
        ideal = session.ideals[cmd.ideal]
        asserted = session.asserted.get(cmd.ideal)
        report = analyze(ideal, asserted=asserted, seed=cmd.seed, trials=cmd.trials)
        outputs.append((cmd.ideal, report))
    if not outputs:
        print("session contains no analyze command", file=sys.stderr)
        return EXIT_PARSE
    if args.json:
        print(json.dumps({name: report_to_dict(rep) for name, rep in outputs}, indent=2))
    else:
        for name, rep in outputs:
            print(render_human(rep, title=f"ideal {name}"))
    return EXIT_OK


def _cmd_registry(args):
    report, diffs, case = run_registry(
        args.id, r=args.r, t=args.t, seed=args.seed, trials=args.trials, char=args.char
    )
    if args.json:
        payload = {
            "id": case.id,
            "params": case.params,
            "report": report_to_dict(report),
            "diffs": [{"check": n, "expected": repr(e), "got": repr(g)} for n, e, g in diffs],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(render_human(report, title=f"registry {case.id} {case.params}"))
        for name, expected, got in diffs:
            print(f"  MISMATCH {name}: expected {expected!r}, got {got!r}")
    return EXIT_MISMATCH if diffs else EXIT_OK


def _cmd_speclab(args):
    session = _load_session(args.file, args)
    results = {}
    for name in _analyzed_ideals(session):
        results[name] = stability_trials(
            session.ideals[name], args.quantity, trials=args.trials, n=args.n
        )
    if args.json:
        print(json.dumps({k: asdict(v) for k, v in results.items()}, indent=2))
    else:
        for name, rep in results.items():
            print(f"{name}: {rep.quantity} modal={rep.modal} stability={rep.stability:.2f} values={rep.values}")
            for seed, msg in rep.errors:
                print(f"  trial seed {seed} failed: {msg}")
    return EXIT_OK


def _cmd_fiber(args):
    session = _load_session(args.file, args)
    target_gens = None
    if args.target is not None:
        if args.target not in session.ideals:
            print(f"unknown target ideal {args.target!r}", file=sys.stderr)
            return EXIT_PARSE
        target_gens = session.ideals[args.target].generators
    mismatch = False
    payload = {}
    for name in _analyzed_ideals(session):
        if name == args.target:
            continue
        ideal = session.ideals[name]
        spread = analytic_spread(ideal)
        pres = gr_presentation(ideal)
        entry = {
            "analytic_spread": spread,
            "gr_ring": pres.ring.names,
            "gr_defining": [str(g) for g in pres.defining],
            "gr_dimension": pres.dimension(),
        }
        try:
            entry["gr_depth"] = graded_depth(pres, seed=args.seed)
        except NotHomogeneous:
            entry["gr_depth"] = None
        if target_gens is not None:
            if len(session.ideals[args.target].ambient.ring.names) != pres.ring.nvars:
                print("target ideal must live in a ring matching the Rees variables", file=sys.stderr)
                return EXIT_PARSE
            remapped = [pres.ring.from_dict(dict(g.mapping())) for g in target_gens]
            entry["matches_target"] = pres.matches(remapped)
            mismatch = mismatch or not entry["matches_target"]
        payload[name] = entry
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for name, entry in payload.items():
            print(f"ideal {name}:")
            for key, value in entry.items():
                print(f"  {key} = {value}")
    return EXIT_MISMATCH if mismatch else EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = {
        "analyze": _cmd_analyze,
        "registry": _cmd_registry,
        "speclab": _cmd_speclab,
        "fiber": _cmd_fiber,
    }[args.command]
    try:
        return handler(args)
    except SessionError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DegreeBoundExceeded, CapExceeded) as exc:
        print(f"computation cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except UnknownExample as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
