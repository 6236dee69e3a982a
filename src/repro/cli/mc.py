"""``mc explore`` and ``mc certify``: bounded exhaustive model checking.
"""

from __future__ import annotations

import json
import sys

from repro.cli.common import (
    _add_model_arg,
    _add_observability_args,
    _parse_votes,
    _with_observability,
)


def cmd_mc_explore(args) -> int:
    return _with_observability(args, lambda: _cmd_mc_explore(args))


def _cmd_mc_explore(args) -> int:
    from repro.errors import ConfigurationError
    from repro.mc import (
        MCConfig,
        explore,
        render_explore_summary,
        write_violation_artifacts,
    )

    registry = None
    if args.stats:
        from repro.telemetry.registry import enable_telemetry

        registry = enable_telemetry()
        registry.reset()
    t = args.t if args.t is not None else (args.n - 1) // 2
    try:
        config = MCConfig(
            n=args.n,
            t=t,
            K=args.K,
            program=args.variant,
            votes=tuple(args.votes) if args.votes is not None else None,
            seed=args.seed,
            max_cycles=args.max_cycles,
            crash_budget=args.crash_budget,
            delay_budget=args.delay_budget,
            max_late=args.max_late,
            max_skew=args.max_skew,
            order=args.order,
            por=not args.no_por,
            split_depth=args.split_depth,
            max_states=args.max_states,
            stop_on_first=args.first,
            model=args.model if args.model is not None else "realistic",
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = explore(config, workers=args.workers)
    document = report.to_dict()
    if registry is not None:
        document["telemetry"] = registry.snapshot()
    written = []
    if args.artifact_dir and report.violations:
        written = write_violation_artifacts(
            config, report.violations, args.artifact_dir
        )
        document["artifacts"] = [str(path) for path in written]
    if args.json:
        print(json.dumps(document, sort_keys=True))
    else:
        print(render_explore_summary(report))
        if written:
            print(
                f"{len(written)} counterexample artifact(s) written to "
                f"{args.artifact_dir}"
            )
    if args.out:
        from pathlib import Path

        target = Path(args.out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(document, sort_keys=True) + "\n")
        if not args.json:
            print(f"exploration report written to {target}")
    return 1 if report.violations else 0


def cmd_mc_certify(args) -> int:
    from repro.errors import ConfigurationError
    from repro.mc import render_certify_summary, run_certify

    try:
        report = run_certify(args.preset, workers=args.workers)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(render_certify_summary(report))
    if args.out:
        from pathlib import Path

        target = Path(args.out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(report, sort_keys=True) + "\n")
        if not args.json:
            print(f"certify report written to {target}")
    return 0 if report["passed"] else 1



def register(sub) -> None:
    """Add ``mc`` to the top-level subparsers."""
    mc_parser = sub.add_parser(
        "mc",
        help="bounded exhaustive model checking (see: mc explore, mc certify)",
    )
    mc_sub = mc_parser.add_subparsers(dest="mc_command", required=True)
    explore_parser = mc_sub.add_parser(
        "explore",
        help=(
            "exhaust every adversary choice (scheduling, crashes, "
            "withholding) within configured bounds, checking safety at "
            "every state"
        ),
    )
    explore_parser.add_argument(
        "--variant",
        default="commit",
        help=(
            "protocol variant to check: commit (the paper's Protocol 2) "
            "or broken-commit (the planted-bug fixture)"
        ),
    )
    explore_parser.add_argument(
        "--n", type=int, default=3, help="processors per run"
    )
    explore_parser.add_argument(
        "--t", type=int, default=None, help="fault budget (default (n-1)//2)"
    )
    explore_parser.add_argument(
        "--K", type=int, default=2, help="on-time bound"
    )
    explore_parser.add_argument(
        "--votes",
        type=_parse_votes,
        default=None,
        help=(
            "check one vote vector, e.g. 1,0,1 "
            "(default: sweep all 2**n vectors)"
        ),
    )
    explore_parser.add_argument(
        "--seed", type=int, default=0, help="random-tape seed of every run"
    )
    explore_parser.add_argument(
        "--max-cycles",
        type=int,
        default=10,
        help="per-processor step bound (the exploration depth driver)",
    )
    explore_parser.add_argument(
        "--crash-budget",
        type=int,
        default=1,
        help="fail-stop crashes available to the adversary",
    )
    explore_parser.add_argument(
        "--delay-budget",
        type=int,
        default=0,
        help="total withholding steps for guaranteed envelopes",
    )
    explore_parser.add_argument(
        "--max-late",
        type=int,
        default=0,
        help="distinct guaranteed envelopes that may ever be withheld",
    )
    explore_parser.add_argument(
        "--max-skew",
        type=int,
        default=None,
        help=(
            "cap on a processor's clock lead over the slowest running "
            "processor (default: unbounded; only meaningful with "
            "--order free)"
        ),
    )
    explore_parser.add_argument(
        "--order",
        choices=("rr", "free"),
        default="rr",
        help=(
            "stepping order: rr (canonical slowest-first round-robin, "
            "default) or free (adversary picks the next processor; "
            "grows ~20x per cycle — pair with --max-skew and shallow "
            "--max-cycles)"
        ),
    )
    explore_parser.add_argument(
        "--no-por",
        action="store_true",
        help="disable sleep-set partial-order reduction (baseline mode)",
    )
    explore_parser.add_argument(
        "--first",
        action="store_true",
        help="stop at the first violation instead of exhausting the space",
    )
    explore_parser.add_argument(
        "--split-depth",
        type=int,
        default=1,
        help=(
            "DFS depth at which subtrees become parallel engine jobs "
            "(fixed per config, so reports are byte-identical at any "
            "worker count)"
        ),
    )
    explore_parser.add_argument(
        "--max-states",
        type=int,
        default=2_000_000,
        help="per-job arrival valve; exploration truncates instead of hanging",
    )
    explore_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for subtree jobs (default: cpu count via "
            "REPRO_WORKERS/os.cpu_count; 1 forces serial)"
        ),
    )
    explore_parser.add_argument(
        "--artifact-dir",
        default=None,
        help=(
            "write one replay artifact per violated-property class here "
            "(replayable via faults replay, shrinkable via faults shrink)"
        ),
    )
    explore_parser.add_argument(
        "--out", default=None, help="write the exploration report JSON here"
    )
    explore_parser.add_argument(
        "--json",
        action="store_true",
        help="print the full report document instead of the summary",
    )
    explore_parser.add_argument(
        "--stats",
        action="store_true",
        help="embed a telemetry snapshot in the report",
    )
    _add_model_arg(explore_parser)
    _add_observability_args(explore_parser)
    explore_parser.set_defaults(fn=cmd_mc_explore)

    certify_parser = mc_sub.add_parser(
        "certify",
        help=(
            "run a canned certification preset: exhaustive safety sweep "
            "(with and without reduction) plus planted-bug detection "
            "with a campaign-path replay cross-check"
        ),
    )
    certify_parser.add_argument(
        "--preset",
        default="small-commit",
        help="preset name (default: small-commit)",
    )
    certify_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the exploration phases",
    )
    certify_parser.add_argument(
        "--out", default=None, help="write the certify report JSON here"
    )
    certify_parser.add_argument(
        "--json",
        action="store_true",
        help="print the full report document instead of the summary",
    )
    certify_parser.set_defaults(fn=cmd_mc_certify)

