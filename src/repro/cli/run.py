"""``run-commit``, ``replay``, ``experiments`` and ``experiment``: run
Protocol 2 (or a registered experiment) once and print what happened.
"""

from __future__ import annotations

import json
import sys
from typing import TYPE_CHECKING, Sequence

from repro.cli.common import (
    _add_model_arg,
    _add_observability_args,
    _add_sim_core_arg,
    _install_sim_core,
    _install_timing_model,
    _parse_pids,
    _parse_votes,
    _with_observability,
)

if TYPE_CHECKING:
    from repro.adversary.base import Adversary
    from repro.core.api import ProtocolOutcome

#: Adversaries constructible from the command line, by name.
ADVERSARY_CHOICES = ("synchronous", "ontime", "late", "random", "crash")


def build_adversary(
    name: str, K: int, seed: int, crashes: Sequence[int]
) -> Adversary:
    """Construct a CLI-selected adversary."""
    from repro.adversary.base import CrashAt
    from repro.adversary.crash import ScheduledCrashAdversary
    from repro.adversary.random_walk import RandomAdversary
    from repro.adversary.standard import (
        LateMessageAdversary,
        OnTimeAdversary,
        SynchronousAdversary,
    )

    if name == "synchronous":
        return SynchronousAdversary(seed=seed)
    if name == "ontime":
        return OnTimeAdversary(K=K, seed=seed)
    if name == "late":
        return LateMessageAdversary(K=K, seed=seed, late_probability=0.3)
    if name == "random":
        return RandomAdversary(seed=seed)
    if name == "crash":
        plan = [
            CrashAt(pid=pid, cycle=2 + index)
            for index, pid in enumerate(crashes)
        ]
        return ScheduledCrashAdversary(crash_plan=plan, seed=seed)
    raise ValueError(f"unknown adversary {name!r}")


def _print_outcome(outcome: ProtocolOutcome, args) -> None:
    from repro.inspect import (
        render_lanes,
        render_round_chart,
        render_timeline,
        summarize_run,
    )

    run = outcome.run
    print(summarize_run(run))
    decision = outcome.unanimous_decision
    print(f"decision: {decision.name if decision is not None else 'none'}")
    if outcome.terminated:
        print(f"asynchronous rounds: {outcome.decision_round}")
        print(f"decision clock ticks: {outcome.decision_ticks}")
    if args.timeline:
        print()
        print(render_timeline(run, limit=args.limit))
    if args.lanes:
        print()
        print(render_lanes(run, limit=args.limit))
    if args.rounds:
        print()
        print(render_round_chart(run))


def cmd_run_commit(args) -> int:
    return _with_observability(args, lambda: _cmd_run_commit(args))


def _cmd_run_commit(args) -> int:
    from repro.core.api import run_commit
    from repro.engine.executor import set_default_workers

    _install_sim_core(args.sim_core)

    registry = None
    if args.json:
        from repro.telemetry.registry import enable_telemetry

        registry = enable_telemetry()
        registry.reset()
    # A single run-commit invocation is one trial and executes in-process
    # regardless; the flag installs the default for any engine-routed
    # batch this invocation triggers (e.g. via future batch options).
    set_default_workers(args.workers)
    _install_timing_model(args.model)
    adversary = build_adversary(
        args.adversary, K=args.K, seed=args.seed, crashes=args.crashes
    )
    if args.model is not None:
        from repro.models import apply_active_model

        adversary = apply_active_model(adversary, K=args.K, seed=args.seed)
    outcome = run_commit(
        args.votes,
        K=args.K,
        adversary=adversary,
        seed=args.seed,
        max_steps=args.max_steps,
    )
    if args.json:
        from repro.telemetry.summary import run_commit_document

        document = run_commit_document(
            outcome.run,
            params={
                "votes": list(args.votes),
                "K": args.K,
                "adversary": args.adversary,
                "crashes": list(args.crashes),
                "seed": args.seed,
                "max_steps": args.max_steps,
            },
            programs=outcome.programs,
            registry=registry,
        )
        print(json.dumps(document, sort_keys=True))
    else:
        _print_outcome(outcome, args)
    if args.trace_out:
        from repro.telemetry.runio import export_run_jsonl

        trace_path = export_run_jsonl(outcome.run, args.trace_out)
        if not args.json:
            print(f"trace written to {trace_path}")
    if args.save:
        from repro.lowerbound.serialize import save_run

        path = save_run(
            outcome.run,
            args.save,
            tape_seed=args.seed,
            note=f"run-commit votes={args.votes} adversary={args.adversary}",
        )
        if not args.json:
            print(f"schedule saved to {path}")
    return 0 if outcome.consistent else 1


def cmd_replay(args) -> int:
    from repro.core.commit import CommitProgram
    from repro.inspect import summarize_run
    from repro.lowerbound.replay import ScheduleReplayer
    from repro.lowerbound.serialize import load_schedule
    from repro.types import Decision

    schedule, context = load_schedule(args.path)
    n = context["n"]
    t = context["t"]
    votes = args.votes if args.votes is not None else [1] * n
    if len(votes) != n:
        print(
            f"error: schedule was recorded with n={n}, got {len(votes)} votes",
            file=sys.stderr,
        )
        return 2
    programs = [
        CommitProgram(
            pid=pid,
            n=n,
            t=t,
            initial_vote=vote,
            K=context["K"],
            allow_sub_resilience=True,
        )
        for pid, vote in enumerate(votes)
    ]
    replayer = ScheduleReplayer(
        programs,
        K=context["K"],
        t=t,
        seed=context.get("tape_seed", 0),
    )
    replayer.apply(schedule)
    run = replayer.simulation.build_run()
    print(summarize_run(run))
    for pid in range(n):
        decision = run.decisions[pid]
        label = Decision(decision).name if decision is not None else "undecided"
        print(f"  p{pid}: {label}")
    return 0


def cmd_experiments(args) -> int:
    from repro.experiments.registry import EXPERIMENTS

    for experiment_id, info in EXPERIMENTS.items():
        print(f"{experiment_id:>4}  {info.title}")
        print(f"      claim: {info.claim}")
        print(f"      expect: {info.expectation}")
    return 0


def cmd_experiment(args) -> int:
    import time

    from repro.experiments.registry import EXPERIMENTS, run_experiment

    if args.id not in EXPERIMENTS:
        print(
            f"error: unknown experiment {args.id!r}; "
            f"try: {', '.join(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    registry = None
    if args.json:
        from repro.telemetry.registry import enable_telemetry

        registry = enable_telemetry()
        registry.reset()
    workers = args.workers
    if workers is None:
        from repro.engine.executor import default_workers

        workers = default_workers()
    _install_timing_model(args.model)
    start = time.perf_counter()
    table = run_experiment(
        args.id, trials=args.trials, quick=args.quick, workers=workers
    )
    elapsed = time.perf_counter() - start
    if args.json:
        from repro.telemetry.summary import experiment_document

        document = experiment_document(
            args.id, table, seconds=elapsed, registry=registry
        )
        print(json.dumps(document, sort_keys=True))
    else:
        print(table.render())
    return 0



def register(sub) -> None:
    """Add this module's four commands to the top-level subparsers."""
    run_parser = sub.add_parser(
        "run-commit", help="run Protocol 2 once and inspect the run"
    )
    run_parser.add_argument(
        "--votes",
        type=_parse_votes,
        default=[1, 1, 1, 1, 1],
        help="comma-separated initial votes, e.g. 1,1,0,1,1",
    )
    run_parser.add_argument("--K", type=int, default=4, help="on-time bound")
    run_parser.add_argument(
        "--adversary",
        choices=ADVERSARY_CHOICES,
        default="synchronous",
        help="scheduler to run under",
    )
    run_parser.add_argument(
        "--crashes",
        type=_parse_pids,
        default=[],
        help="pids to crash (with --adversary crash), e.g. 3,4",
    )
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--max-steps", type=int, default=50_000)
    run_parser.add_argument(
        "--timeline", action="store_true", help="print the event timeline"
    )
    run_parser.add_argument(
        "--lanes", action="store_true", help="print the per-processor lanes"
    )
    run_parser.add_argument(
        "--rounds", action="store_true", help="print the round chart"
    )
    run_parser.add_argument(
        "--limit", type=int, default=None, help="cap rendered events"
    )
    run_parser.add_argument(
        "--save", default=None, help="save a replayable schedule (JSON path)"
    )
    run_parser.add_argument(
        "--json",
        action="store_true",
        help=(
            "emit a schema-versioned JSON document (metrics, per-phase "
            "counters, telemetry snapshot, full trace) instead of text"
        ),
    )
    run_parser.add_argument(
        "--trace-out",
        default=None,
        help="archive the full run as JSONL (repro.run-trace schema)",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for engine-routed trial batches "
            "(default: cpu count via REPRO_WORKERS/os.cpu_count)"
        ),
    )
    _add_sim_core_arg(run_parser)
    _add_model_arg(run_parser)
    _add_observability_args(run_parser)
    run_parser.set_defaults(fn=cmd_run_commit)

    replay_parser = sub.add_parser(
        "replay", help="replay a saved schedule against fresh processors"
    )
    replay_parser.add_argument("path", help="schedule JSON written by --save")
    replay_parser.add_argument(
        "--votes",
        type=_parse_votes,
        default=None,
        help="override the initial votes (defaults to all-commit)",
    )
    replay_parser.set_defaults(fn=cmd_replay)

    list_parser = sub.add_parser(
        "experiments", help="list the registered experiments"
    )
    list_parser.set_defaults(fn=cmd_experiments)

    experiment_parser = sub.add_parser(
        "experiment", help="run one experiment and print its table"
    )
    experiment_parser.add_argument("id", help="experiment id, e.g. E2")
    experiment_parser.add_argument(
        "--trials", type=int, default=None, help="override the trial count"
    )
    experiment_parser.add_argument(
        "--quick", action="store_true", help="benchmark-sized workload"
    )
    experiment_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the table and telemetry snapshot as JSON",
    )
    experiment_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for the trial batches (default: cpu count "
            "via REPRO_WORKERS/os.cpu_count; 1 forces serial)"
        ),
    )
    _add_model_arg(experiment_parser)
    experiment_parser.set_defaults(fn=cmd_experiment)

