"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run-commit`` — run Protocol 2 once under a chosen adversary and
  print the outcome (optionally a full timeline / lane view / round
  chart), with ``--save`` to persist a replayable schedule,
  ``--trace-out`` to archive the full run as JSONL, and ``--json`` for a
  schema-versioned machine-readable document;
* ``replay`` — re-execute a saved schedule and print the outcome;
* ``experiments`` — list the registered experiments;
* ``experiment`` — run one experiment and print its table (``--json``
  for machine-readable output);
* ``stats`` — print a telemetry registry snapshot (JSON or
  Prometheus-style text) for one or more archived JSONL traces;
* ``faults campaign`` — sweep seeded randomized FaultPlans across the
  simulator and asyncio tracks, check the paper's invariants on every
  trial, and write a machine-readable campaign report; exits 1 on any
  safety violation, 2 (with ``--fail-on-liveness``) on liveness-only
  violations, and cuts per-violation replay artifacts with
  ``--artifact-dir``;
* ``faults replay`` — re-execute a replay artifact
  (``repro.counterexample`` v1) and verify the recorded per-track
  results reproduce byte-identically;
* ``faults shrink`` — minimize a violating trial (from an artifact or
  by scanning a campaign) to a locally-minimal FaultPlan that still
  violates safety;
* ``faults diff`` — run the cross-track differential oracle and report
  semantic divergence between the simulator and the runtime; with
  ``--cores``, compare the reference and fast *execution cores* on
  byte-identical serialized runs instead;
* ``mc explore`` — bounded exhaustive model checking of one protocol
  variant with sleep-set partial-order reduction; exits 1 on any safety
  violation and cuts per-class counterexample artifacts with
  ``--artifact-dir``;
* ``mc certify`` — run a canned certification preset (exhaustive
  safety sweep plus planted-bug detection with replay cross-check) and
  exit 1 unless every phase passes;
* ``trace export`` — convert a span trace recorded with
  ``--trace-spans`` to Chrome trace-event JSON (loadable in Perfetto /
  ``chrome://tracing``) or re-validated span-trace JSONL;
* ``trace summarize`` — print record counts, span kinds, and event
  totals of a span trace;
* ``trace critical-path`` — extract the longest causal message chain
  ending at each decision and attribute the decision round to it.

``run-commit``, ``faults campaign``, and ``mc explore`` accept
``--trace-spans PATH`` (record a causal span trace of the run),
``--serve-metrics PORT`` (serve live ``/metrics`` + ``/healthz`` on a
background thread for the duration of the command), and ``--sim-core
{reference,fast}`` (select the simulation execution core; see
``docs/PERFORMANCE.md``).

The global ``--log-level`` flag configures the ``repro`` logging channel
(see :mod:`repro.telemetry.log`); it must precede the subcommand.
``--version`` prints the package version.

Every command reports through one exit-code scheme, shown in
:data:`EXIT_CODES` (also printed by ``repro --help`` and documented in
``docs/FAULTS.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro import __version__
from repro.adversary.base import Adversary, CrashAt
from repro.adversary.crash import ScheduledCrashAdversary
from repro.adversary.random_walk import RandomAdversary
from repro.adversary.standard import (
    LateMessageAdversary,
    OnTimeAdversary,
    SynchronousAdversary,
)
from repro.core.api import ProtocolOutcome, run_commit
from repro.core.commit import CommitProgram
from repro.sim.coreselect import CORE_NAMES
from repro.inspect import (
    render_lanes,
    render_round_chart,
    render_timeline,
    summarize_run,
)
from repro.types import Decision

#: Adversaries constructible from the command line, by name.
ADVERSARY_CHOICES = ("synchronous", "ontime", "late", "random", "crash")

#: The one exit-code scheme every subcommand reports through.  Shown in
#: ``repro --help`` and mirrored in ``docs/FAULTS.md``.
EXIT_CODES = """\
exit codes (all commands):
  0  success — clean run, verified replay, zero findings, certified
  1  findings — safety violation (faults campaign, mc explore),
     replay mismatch (faults replay), semantic divergence (faults
     diff), minimal plan over --max-entries (faults shrink),
     inconsistent decisions (run-commit), failed phase (mc certify)
  2  usage or input error — bad arguments, unknown experiment or
     preset, unreadable trace/schedule/artifact, liveness-only
     failure under faults campaign --fail-on-liveness
  3  nothing to shrink — faults shrink scanned its plans without
     finding any safety violation
  4  no spans recorded — trace export/summarize/critical-path read a
     valid span-trace file that contains no spans or events (the
     traced command recorded nothing)

repro models commands map onto the same codes:
  0  success — registry listed (models list), atlas swept with the
     reference protocol (protocol2) safe in every model (models atlas)
  1  findings — models atlas observed a safety violation for the
     reference protocol under some timing model
  2  usage or input error — unknown timing model, a model selected on
     a track it has no analogue for, --model with a non-cycle
     adversary (run-commit --adversary random), mc --model without
     --no-por

repro service commands map onto the same codes:
  0  success — node served and halted cleanly (start), request
     acknowledged (submit/kill), status gathered (status)
  1  findings — service status --check found an unreachable node, an
     undecided node, or inconsistent decisions
  2  usage or input error — node index out of range, unreachable
     coordinator (submit), unreadable pidfile or dead process (kill)
"""


def build_adversary(
    name: str, K: int, seed: int, crashes: Sequence[int]
) -> Adversary:
    """Construct a CLI-selected adversary."""
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


def _parse_votes(text: str) -> list[int]:
    try:
        votes = [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"votes must be comma-separated bits, got {text!r}"
        ) from None
    if not votes or any(v not in (0, 1) for v in votes):
        raise argparse.ArgumentTypeError(
            f"votes must be comma-separated bits, got {text!r}"
        )
    return votes


def _parse_pids(text: str) -> list[int]:
    if not text:
        return []
    return [int(v) for v in text.split(",")]


# -- observability plumbing (--trace-spans / --serve-metrics) ----------------


def _start_metrics_server(args):
    """Start the background /metrics endpoint when requested."""
    port = getattr(args, "serve_metrics", None)
    if port is None:
        return None
    from repro.telemetry.registry import enable_telemetry
    from repro.telemetry.server import MetricsServer

    enable_telemetry()
    server = MetricsServer(port=port).start()
    print(
        f"serving metrics on {server.url}/metrics "
        f"(health: {server.url}/healthz)",
        file=sys.stderr,
    )
    return server


def _start_tracing(args):
    """Install a span recorder when --trace-spans was requested."""
    if not getattr(args, "trace_spans", None):
        return None
    from repro.trace.spans import enable_tracing

    return enable_tracing()


def _finish_tracing(recorder, args) -> None:
    """Uninstall the recorder and write the span-trace file."""
    if recorder is None:
        return
    from repro.trace.export import write_span_trace
    from repro.trace.spans import disable_tracing

    disable_tracing()
    path = write_span_trace(recorder, args.trace_spans)
    if not getattr(args, "json", False):
        counts = recorder.counts()
        print(
            f"span trace written to {path} "
            f"({counts['spans']} spans, {counts['events']} events, "
            f"{counts['edges']} edges)"
        )


def _with_observability(args, body) -> int:
    """Run a command body under the requested tracing/metrics plumbing.

    The span trace is written (and the metrics server stopped) even when
    the body raises, so partial traces of failed runs survive.
    """
    server = _start_metrics_server(args)
    recorder = _start_tracing(args)
    try:
        return body()
    finally:
        _finish_tracing(recorder, args)
        if server is not None:
            server.stop()


def _add_observability_args(parser) -> None:
    parser.add_argument(
        "--trace-spans",
        default=None,
        metavar="PATH",
        help=(
            "record a causal span trace (repro.span-trace JSONL) of "
            "this run; analyze with the trace subcommands"
        ),
    )
    parser.add_argument(
        "--serve-metrics",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve live /metrics (Prometheus text) and /healthz on "
            "this port for the duration of the command (0 picks a "
            "free port; implies telemetry)"
        ),
    )


def _print_outcome(outcome: ProtocolOutcome, args) -> None:
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


def _install_sim_core(core: str | None) -> None:
    """Install ``--sim-core`` process-wide (the engine ships the resolved
    core to its workers with every chunk)."""
    if core is not None:
        from repro.sim.coreselect import set_default_sim_core

        set_default_sim_core(core)


def _add_sim_core_arg(parser) -> None:
    parser.add_argument(
        "--sim-core",
        choices=CORE_NAMES,
        default=None,
        dest="sim_core",
        help=(
            "simulation execution core: reference (default) or fast "
            "(byte-identical results, slimmed hot path; engine workers "
            "run the same core)"
        ),
    )


def _install_timing_model(name: str | None) -> None:
    """Install ``--model`` process-wide (the engine ships the resolved
    model to its workers with every chunk)."""
    if name is not None:
        from repro.models import set_default_timing_model

        set_default_timing_model(name)


def _add_model_arg(parser) -> None:
    parser.add_argument(
        "--model",
        default=None,
        metavar="NAME",
        help=(
            "timing model from the zoo (see: repro models list); "
            "default realistic, the paper's model"
        ),
    )


def cmd_run_commit(args) -> int:
    return _with_observability(args, lambda: _cmd_run_commit(args))


def _cmd_run_commit(args) -> int:
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
    from repro.lowerbound.replay import ScheduleReplayer
    from repro.lowerbound.serialize import load_schedule

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


def cmd_models_list(args) -> int:
    from repro.models import model_names, resolve_model

    if args.json:
        print(
            json.dumps(
                [resolve_model(name).describe() for name in model_names()],
                sort_keys=True,
            )
        )
        return 0
    for name in model_names():
        model = resolve_model(name)
        default = " (default)" if name == "realistic" else ""
        print(f"{name}{default} — {model.summary}")
        print(f"    source: {model.source}")
        print(
            f"    tracks: {', '.join(model.tracks)}; "
            f"mc: {'yes' if model.mc_supported else 'no'}"
        )
        if not model.preserves_eventual_delivery:
            print(
                "    drops messages permanently: termination is "
                "degradation data, not a liveness obligation"
            )
        for knob in model.knobs:
            print(f"    knob {knob.name} = {knob.default}: {knob.help}")
    return 0


def cmd_models_atlas(args) -> int:
    return _with_observability(args, lambda: _cmd_models_atlas(args))


def _cmd_models_atlas(args) -> int:
    from repro.models.atlas import (
        AtlasConfig,
        reference_protocol_safe,
        render_atlas,
        run_atlas,
        write_atlas_report,
    )

    _install_sim_core(args.sim_core)
    config = AtlasConfig(
        protocols=tuple(args.protocols.split(",")),
        models=tuple(args.models.split(",")) if args.models else (),
        n=args.n,
        t=args.t,
        K=args.K,
        trials=args.trials,
        base_seed=args.seed,
        max_steps=args.max_steps,
        over_budget_fraction=args.over_budget_fraction,
        all_commit_fraction=args.all_commit_fraction,
    )
    report = run_atlas(config, workers=args.workers)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(render_atlas(report))
    if args.out:
        path = write_atlas_report(report, args.out)
        if not args.json:
            print(f"atlas report written to {path}")
    return 0 if reference_protocol_safe(report) else 1


def cmd_stats(args) -> int:
    from repro.telemetry.registry import MetricsRegistry, get_registry
    from repro.telemetry.runio import import_run_jsonl
    from repro.telemetry.summary import record_run

    if args.traces:
        registry = MetricsRegistry(enabled=True)
        for path in args.traces:
            try:
                run = import_run_jsonl(path)
            except Exception as exc:  # noqa: BLE001 - CLI boundary
                print(f"error: cannot read trace {path}: {exc}", file=sys.stderr)
                return 2
            record_run(run, registry)
    else:
        # No traces: expose whatever the in-process default registry
        # holds (usually empty unless the host process enabled telemetry).
        registry = get_registry()
    if args.format == "prom":
        sys.stdout.write(registry.render_prometheus())
    else:
        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
    return 0


def cmd_faults_campaign(args) -> int:
    return _with_observability(args, lambda: _cmd_faults_campaign(args))


def _cmd_faults_campaign(args) -> int:
    from repro.faults.campaign import (
        CampaignConfig,
        render_campaign_summary,
        run_campaign,
        write_campaign_report,
    )

    _install_sim_core(args.sim_core)
    registry = None
    if args.stats:
        from repro.telemetry.registry import enable_telemetry

        registry = enable_telemetry()
        registry.reset()
    config = CampaignConfig(
        n=args.n,
        t=args.t,
        plans=args.plans,
        base_seed=args.seed,
        tracks=tuple(args.tracks.split(",")),
        K=args.K,
        max_steps=args.max_steps,
        deadline=args.deadline,
        over_budget_fraction=args.over_budget_fraction,
        all_commit_fraction=args.all_commit_fraction,
        recovery_probability=args.recovery_probability,
        program=args.variant,
        txns=args.txns,
        shards=args.shards,
        commit_bias=args.commit_bias,
        model=args.model if args.model is not None else "realistic",
    )
    report = run_campaign(config, workers=args.workers)
    if registry is not None:
        report["telemetry"] = registry.snapshot()
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(render_campaign_summary(report))
    if args.out:
        path = write_campaign_report(report, args.out)
        if not args.json:
            print(f"report written to {path}")
    if args.artifact_dir:
        from repro.counterexample import artifacts_from_report

        written = artifacts_from_report(report, args.artifact_dir)
        if not args.json:
            print(
                f"{len(written)} replay artifact(s) written to "
                f"{args.artifact_dir}"
            )
    if report["summary"]["safety_violations"] > 0:
        return 1
    if args.fail_on_liveness and report["summary"]["liveness_violations"] > 0:
        return 2
    return 0


def cmd_faults_replay(args) -> int:
    from repro.counterexample import verify_replay

    report = verify_replay(args.artifact)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        state = "byte-identical" if report["match"] else "DIVERGED"
        print(f"replay of {args.artifact}: {state}")
        print(f"  violated safety properties: {report['properties']}")
        for track, data in report["tracks"].items():
            if data["match"]:
                print(f"  {track}: match")
            else:
                print(
                    f"  {track}: MISMATCH "
                    f"(keys: {data.get('diverging_keys', '?')})"
                )
    return 0 if report["match"] else 1


def cmd_faults_shrink(args) -> int:
    from repro.counterexample import (
        first_violating_case,
        read_artifact,
        render_shrink_summary,
        shrink_case,
        write_artifact,
    )
    from repro.faults.campaign import CampaignConfig, execute_trial_case

    if args.artifact:
        case, _expected = read_artifact(args.artifact)
    else:
        config = CampaignConfig(
            n=args.n,
            t=args.t,
            plans=args.plans,
            base_seed=args.seed,
            K=args.K,
            all_commit_fraction=args.all_commit_fraction,
            program=args.variant,
        )
        found = first_violating_case(config, workers=args.workers)
        if found is None:
            print(
                f"no safety violation in {config.plans} plans; "
                f"nothing to shrink",
                file=sys.stderr,
            )
            return 3
        case, _result = found
    result = shrink_case(case, workers=args.workers)
    if args.json:
        print(json.dumps(result.to_dict(), sort_keys=True))
    else:
        print(render_shrink_summary(result))
    if args.out:
        minimal_result = execute_trial_case(result.minimal)
        path = write_artifact(result.minimal, minimal_result, args.out)
        if not args.json:
            print(f"minimal replay artifact written to {path}")
    if args.max_entries is not None:
        entries = result.minimal.plan.entry_count
        if entries > args.max_entries:
            print(
                f"minimal plan has {entries} entries "
                f"(> --max-entries {args.max_entries})",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_faults_diff(args) -> int:
    from repro.counterexample import (
        render_core_differential_summary,
        render_differential_summary,
        run_core_differential,
        run_differential,
    )
    from repro.faults.campaign import CampaignConfig

    config = CampaignConfig(
        n=args.n,
        t=args.t,
        plans=args.plans,
        base_seed=args.seed,
        K=args.K,
        max_steps=args.max_steps,
        deadline=args.deadline,
        over_budget_fraction=args.over_budget_fraction,
        all_commit_fraction=args.all_commit_fraction,
        program=args.variant,
    )
    if args.cores:
        report = run_core_differential(config, workers=args.workers)
        summary = render_core_differential_summary(report)
    else:
        report = run_differential(config, workers=args.workers)
        summary = render_differential_summary(report)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(summary)
    if args.out:
        from pathlib import Path

        target = Path(args.out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(report, sort_keys=True) + "\n")
        if not args.json:
            print(f"differential report written to {target}")
    return 0 if report["summary"]["findings"] == 0 else 1


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

    _install_sim_core(args.sim_core)
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


def _load_span_trace(path: str):
    """Read a span trace for the trace subcommands.

    Returns ``(trace, records, exit_code)``; ``trace`` is ``None`` when
    the file is unreadable/invalid (exit 2) or empty (exit 4).
    """
    from repro.errors import AnalysisError
    from repro.telemetry.runio import read_jsonl_records
    from repro.trace.export import trace_from_records

    try:
        records = read_jsonl_records(path)
        trace = trace_from_records(records)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, None, 2
    if trace.empty:
        print(
            f"no spans recorded in {path}: the traced command produced "
            f"no spans or events",
            file=sys.stderr,
        )
        return None, None, 4
    return trace, records, 0


def cmd_trace_export(args) -> int:
    trace, records, code = _load_span_trace(args.trace)
    if trace is None:
        return code
    if args.format == "chrome":
        from repro.trace.export import write_chrome_trace

        path = write_chrome_trace(trace, args.out)
    else:
        from repro.telemetry.runio import write_jsonl_records

        path = write_jsonl_records(records, args.out)
    print(f"{args.format} trace written to {path}")
    return 0


def cmd_trace_summarize(args) -> int:
    trace, _records, code = _load_span_trace(args.trace)
    if trace is None:
        return code
    from repro.trace.export import summarize_trace

    summary = summarize_trace(trace)
    if args.json:
        print(json.dumps(summary, sort_keys=True))
        return 0
    print(
        f"span trace {args.trace}: {summary['spans']} spans, "
        f"{summary['events']} events, {summary['edges']} causal edges"
    )
    print(f"  tracks: {', '.join(summary['tracks'])}")
    for kind, count in summary["spans_by_kind"].items():
        print(f"  spans {kind}: {count}")
    for name, count in summary["events_by_name"].items():
        print(f"  events {name}: {count}")
    if summary["max_decision_round"] is not None:
        print(
            f"  trials: {summary['trials']} "
            f"(max decision round {summary['max_decision_round']})"
        )
    else:
        print(f"  trials: {summary['trials']}")
    return 0


def cmd_trace_critical_path(args) -> int:
    trace, records, code = _load_span_trace(args.trace)
    if trace is None:
        return code
    from repro.trace.critical_path import critical_paths_from_records

    paths = critical_paths_from_records(records)
    if args.json:
        print(
            json.dumps([path.to_dict() for path in paths], sort_keys=True)
        )
        return 0
    if not paths:
        print(
            "no decide events in the trace; nothing to attribute "
            "(was the traced run undecided?)"
        )
        return 0
    for path in paths:
        trial = f"trial {path.trial} " if path.trial is not None else ""
        gap = (
            f", timer gap {path.timer_gap}"
            if path.timer_gap is not None
            else ""
        )
        decision_round = (
            path.decision_round
            if path.decision_round is not None
            else "?"
        )
        print(
            f"{trial}[{path.track}] p{path.pid} decided "
            f"{path.decision!r}: chain of {path.length} hops, "
            f"round span {path.round_span}, "
            f"decision round {decision_round}{gap}"
        )
        if args.hops:
            for hop in path.hops:
                label = (
                    f"r{hop.round}" if hop.round is not None else "r?"
                )
                print(
                    f"    {label} m{hop.message} "
                    f"p{hop.sender} -> p{hop.recipient} "
                    f"(sent {hop.send_time}, delivered "
                    f"{hop.receive_time})"
                )
    round_spans = [p.round_span for p in paths]
    decision_rounds = [
        p.decision_round for p in paths if p.decision_round is not None
    ]
    if decision_rounds:
        print(
            f"run: max chain round span {max(round_spans)}, "
            f"max decision round {max(decision_rounds)}"
        )
    return 0


def cmd_service_start(args) -> int:
    return _with_observability(args, lambda: _cmd_service_start(args))


def _cmd_service_start(args) -> int:
    import asyncio
    import os
    import signal
    from pathlib import Path

    from repro.engine.seeds import SERVICE_NODE_STREAM, derive_keyed
    from repro.service.recovery import NodeConfig
    from repro.service.server import ServiceServer, peer_address
    from repro.service.wal import FileWalStore

    votes = [int(v) for v in args.votes.split(",")]
    n = len(votes)
    if not 0 <= args.node < n:
        print(
            f"error: --node {args.node} out of range for {n} votes",
            file=sys.stderr,
        )
        return 2
    t = args.t if args.t is not None else (n - 1) // 2
    config = NodeConfig(
        pid=args.node,
        n=n,
        t=t,
        K=args.K,
        vote=votes[args.node],
        tape_seed=derive_keyed(args.seed, SERVICE_NODE_STREAM, args.node),
        variant=args.variant,
        multi_txn=args.multi_txn,
        commit_bias=args.commit_bias,
    )
    node_dir = Path(args.data_dir) / f"node{args.node}"
    store = FileWalStore(node_dir)
    peers = [
        peer_address(args.base_port, pid, args.host) for pid in range(n)
    ]
    server = ServiceServer(
        config,
        store,
        peers,
        tick_interval=args.tick_interval,
        fsync=not args.no_fsync,
        hold_for_submit=(args.node == 0 and not args.no_hold),
        snapshot_every=args.snapshot_every,
        seed=args.seed,
    )
    (node_dir / "pid").write_text(f"{os.getpid()}\n")

    async def serve() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, server.halt)
        await server.serve()

    asyncio.run(serve())
    return 0


def cmd_service_submit(args) -> int:
    from repro.errors import ServiceError
    from repro.service.client import submit

    try:
        status = submit(
            args.host, args.port, timeout=args.timeout, txn=args.txn
        )
    except (ServiceError, OSError, TimeoutError) as exc:
        print(
            f"error: submit to {args.host}:{args.port} failed: {exc}",
            file=sys.stderr,
        )
        return 2
    print(json.dumps(status, sort_keys=True))
    return 0


def cmd_service_status(args) -> int:
    from repro.errors import ServiceError
    from repro.service.client import status as node_status

    nodes: list[dict] = []
    for pid in range(args.n):
        port = args.base_port + pid
        try:
            doc = node_status(args.host, port, timeout=args.timeout)
        except (ServiceError, OSError, TimeoutError) as exc:
            doc = {"pid": pid, "unreachable": str(exc)}
        nodes.append(doc)
    print(json.dumps({"nodes": nodes}, sort_keys=True))
    if args.check:
        decisions = {
            doc.get("decision")
            for doc in nodes
            if "unreachable" not in doc
        }
        reachable = sum(1 for doc in nodes if "unreachable" not in doc)
        if (
            reachable < args.n
            or None in decisions
            or len(decisions) != 1
        ):
            return 1
    return 0


def cmd_service_kill(args) -> int:
    import os
    import signal
    from pathlib import Path

    pid_path = Path(args.data_dir) / f"node{args.node}" / "pid"
    try:
        pid = int(pid_path.read_text().strip())
    except FileNotFoundError:
        print(f"node {args.node}: no pidfile at {pid_path}; nothing to kill")
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {pid_path}: {exc}", file=sys.stderr)
        return 2
    signum = signal.SIGKILL if args.signal == "KILL" else signal.SIGTERM
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        # A crashed/killed node leaves its pidfile behind; treat the
        # stale entry as already-dead rather than an error so kill is
        # idempotent in restart scripts.
        pid_path.unlink(missing_ok=True)
        print(
            f"node {args.node}: pid {pid} is not running "
            f"(stale pidfile removed)"
        )
        return 0
    except OSError as exc:
        print(f"error: kill {pid} failed: {exc}", file=sys.stderr)
        return 2
    print(f"sent SIG{args.signal} to node {args.node} (pid {pid})")
    return 0


def cmd_service_load(args) -> int:
    return _with_observability(args, lambda: _cmd_service_load(args))


def _cmd_service_load(args) -> int:
    from repro.errors import ReproError
    from repro.runtime.cluster import TERMINATED
    from repro.service.load import run_load

    if args.txns is not None:
        txns = args.txns
    else:
        txns = max(1, int(args.rate * args.duration))
    try:
        report = run_load(
            txns=txns,
            rate=args.rate,
            shards=args.shards,
            group_size=args.group_size,
            K=args.K,
            seed=args.seed,
            tick_interval=args.tick_interval,
            kills=args.kills,
            commit_bias=args.commit_bias,
            snapshot_every=args.snapshot_every,
            deadline=args.deadline,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = report.to_dict()
    print(json.dumps(doc, indent=2, sort_keys=True))
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    if report.safety_violations or report.outcome != TERMINATED:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.telemetry.log import LOG_LEVELS

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Transaction Commit in a Realistic Fault Model (PODC 1986) — "
            "reproduction toolkit"
        ),
        epilog=EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    parser.add_argument(
        "--log-level",
        choices=sorted(LOG_LEVELS),
        default=None,
        help="configure the repro logging channel (stderr)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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

    stats_parser = sub.add_parser(
        "stats",
        help=(
            "print a telemetry registry snapshot, optionally rebuilt "
            "from archived JSONL traces"
        ),
    )
    stats_parser.add_argument(
        "traces",
        nargs="*",
        help="JSONL traces written by run-commit --trace-out",
    )
    stats_parser.add_argument(
        "--format",
        choices=("json", "prom"),
        default="json",
        help="snapshot format: JSON (default) or Prometheus text",
    )
    stats_parser.set_defaults(fn=cmd_stats)

    faults_parser = sub.add_parser(
        "faults", help="fault-injection tooling (see: faults campaign)"
    )
    faults_sub = faults_parser.add_subparsers(dest="faults_command", required=True)
    campaign_parser = faults_sub.add_parser(
        "campaign",
        help=(
            "sweep seeded randomized FaultPlans across both tracks and "
            "machine-check safety on every trial"
        ),
    )
    campaign_parser.add_argument(
        "--plans", type=int, default=100, help="number of randomized plans"
    )
    campaign_parser.add_argument(
        "--n", type=int, default=5, help="processors per trial"
    )
    campaign_parser.add_argument(
        "--t", type=int, default=None, help="fault budget (default (n-1)//2)"
    )
    campaign_parser.add_argument("--K", type=int, default=4, help="on-time bound")
    campaign_parser.add_argument(
        "--seed", type=int, default=0, help="base seed; plan i uses seed+i"
    )
    campaign_parser.add_argument(
        "--tracks",
        default="sim,runtime",
        help=(
            "comma-separated tracks to run: sim, runtime, service "
            "(service is the crash-recovery track and runs alone)"
        ),
    )
    campaign_parser.add_argument(
        "--max-steps",
        type=int,
        default=20_000,
        help="simulator step horizon per trial",
    )
    campaign_parser.add_argument(
        "--deadline",
        type=float,
        default=8.0,
        help="runtime-track budget per trial, in virtual seconds",
    )
    campaign_parser.add_argument(
        "--over-budget-fraction",
        type=float,
        default=0.25,
        help="fraction of plans drawing more than t crashes",
    )
    campaign_parser.add_argument(
        "--all-commit-fraction",
        type=float,
        default=0.6,
        help="fraction of trials voting all-commit (rest draw random votes)",
    )
    campaign_parser.add_argument(
        "--recovery-probability",
        type=float,
        default=0.0,
        help=(
            "chance that a drawn crash recovers later (crash-recovery "
            "model; requires --tracks service)"
        ),
    )
    campaign_parser.add_argument(
        "--variant",
        default="commit",
        help=(
            "protocol variant to sweep: commit (the paper's Protocol 2) "
            "or broken-commit (the planted-bug fixture)"
        ),
    )
    campaign_parser.add_argument(
        "--txns",
        type=int,
        default=1,
        help=(
            "transactions per trial (multi-transaction workload; "
            "requires --tracks service)"
        ),
    )
    campaign_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "commit groups per trial, n processors each (requires "
            "--tracks service)"
        ),
    )
    campaign_parser.add_argument(
        "--commit-bias",
        type=float,
        default=1.0,
        help=(
            "Bernoulli parameter of derived per-transaction votes "
            "(multi-transaction trials only)"
        ),
    )
    campaign_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for the plan sweep (default: cpu count via "
            "REPRO_WORKERS/os.cpu_count; 1 forces serial)"
        ),
    )
    campaign_parser.add_argument(
        "--out", default=None, help="write the campaign report JSON here"
    )
    campaign_parser.add_argument(
        "--artifact-dir",
        default=None,
        help="write one replay artifact per safety-violating trial here",
    )
    campaign_parser.add_argument(
        "--fail-on-liveness",
        action="store_true",
        help=(
            "exit 2 when liveness (nonblocking) violations occur without "
            "any safety violation (safety still exits 1)"
        ),
    )
    campaign_parser.add_argument(
        "--json",
        action="store_true",
        help="print the full report document instead of the summary",
    )
    campaign_parser.add_argument(
        "--stats",
        action="store_true",
        help="embed a telemetry snapshot in the report",
    )
    _add_sim_core_arg(campaign_parser)
    _add_model_arg(campaign_parser)
    _add_observability_args(campaign_parser)
    campaign_parser.set_defaults(fn=cmd_faults_campaign)

    replay_artifact_parser = faults_sub.add_parser(
        "replay",
        help=(
            "re-execute a replay artifact and verify byte-identical "
            "reproduction of the recorded per-track results"
        ),
    )
    replay_artifact_parser.add_argument(
        "artifact", help="path to a repro.counterexample JSONL artifact"
    )
    replay_artifact_parser.add_argument(
        "--json",
        action="store_true",
        help="print the verification report as JSON",
    )
    replay_artifact_parser.set_defaults(fn=cmd_faults_replay)

    shrink_parser = faults_sub.add_parser(
        "shrink",
        help=(
            "minimize a violating trial to a locally-minimal FaultPlan "
            "that still violates safety"
        ),
    )
    shrink_parser.add_argument(
        "--artifact",
        default=None,
        help="shrink the case pinned in this replay artifact",
    )
    shrink_parser.add_argument(
        "--plans",
        type=int,
        default=50,
        help="without --artifact: scan this many plans for a violation",
    )
    shrink_parser.add_argument(
        "--n", type=int, default=5, help="processors per trial"
    )
    shrink_parser.add_argument(
        "--t", type=int, default=None, help="fault budget (default (n-1)//2)"
    )
    shrink_parser.add_argument("--K", type=int, default=4, help="on-time bound")
    shrink_parser.add_argument(
        "--seed", type=int, default=0, help="base seed; plan i uses seed+i"
    )
    shrink_parser.add_argument(
        "--all-commit-fraction",
        type=float,
        default=0.6,
        help="fraction of trials voting all-commit (rest draw random votes)",
    )
    shrink_parser.add_argument(
        "--variant",
        default="broken-commit",
        help="protocol variant to scan (default: the planted-bug fixture)",
    )
    shrink_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for scanning and candidate probing",
    )
    shrink_parser.add_argument(
        "--out",
        default=None,
        help="write the minimal case as a replay artifact here",
    )
    shrink_parser.add_argument(
        "--max-entries",
        type=int,
        default=None,
        help="exit 1 unless the minimal plan has at most this many entries",
    )
    shrink_parser.add_argument(
        "--json",
        action="store_true",
        help="print the shrink result as JSON",
    )
    shrink_parser.set_defaults(fn=cmd_faults_shrink)

    diff_parser = faults_sub.add_parser(
        "diff",
        help=(
            "run the cross-track differential oracle: every plan on both "
            "the simulator and the runtime, flagging semantic divergence"
        ),
    )
    diff_parser.add_argument(
        "--plans", type=int, default=100, help="number of randomized plans"
    )
    diff_parser.add_argument(
        "--n", type=int, default=5, help="processors per trial"
    )
    diff_parser.add_argument(
        "--t", type=int, default=None, help="fault budget (default (n-1)//2)"
    )
    diff_parser.add_argument("--K", type=int, default=4, help="on-time bound")
    diff_parser.add_argument(
        "--seed", type=int, default=0, help="base seed; plan i uses seed+i"
    )
    diff_parser.add_argument(
        "--max-steps",
        type=int,
        default=20_000,
        help="simulator step horizon per trial",
    )
    diff_parser.add_argument(
        "--deadline",
        type=float,
        default=8.0,
        help="runtime-track budget per trial, in virtual seconds",
    )
    diff_parser.add_argument(
        "--over-budget-fraction",
        type=float,
        default=0.25,
        help="fraction of plans drawing more than t crashes",
    )
    diff_parser.add_argument(
        "--all-commit-fraction",
        type=float,
        default=0.6,
        help="fraction of trials voting all-commit (rest draw random votes)",
    )
    diff_parser.add_argument(
        "--variant",
        default="commit",
        help="protocol variant to sweep (broken-commit to test the oracle)",
    )
    diff_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the plan sweep",
    )
    diff_parser.add_argument(
        "--cores",
        action="store_true",
        help=(
            "compare execution cores instead of tracks: run every "
            "sim-track case on both the reference and fast cores and "
            "require byte-identical serialized runs"
        ),
    )
    diff_parser.add_argument(
        "--out", default=None, help="write the differential report JSON here"
    )
    diff_parser.add_argument(
        "--json",
        action="store_true",
        help="print the full report document instead of the summary",
    )
    diff_parser.set_defaults(fn=cmd_faults_diff)

    service_parser = sub.add_parser(
        "service",
        help=(
            "deployable crash-recovery commit service over TCP "
            "(see: service start, submit, status, kill, load)"
        ),
    )
    service_sub = service_parser.add_subparsers(
        dest="service_command", required=True
    )

    start_parser = service_sub.add_parser(
        "start",
        help=(
            "run one node of the commit service: recover from its WAL "
            "(if any), listen on base-port + node, serve until decided "
            "and halted"
        ),
    )
    start_parser.add_argument(
        "--node", type=int, required=True, help="this node's pid (0 = coordinator)"
    )
    start_parser.add_argument(
        "--votes",
        default="1,1,1,1,1",
        help="comma-separated votes for the whole cluster (length = n)",
    )
    start_parser.add_argument(
        "--t", type=int, default=None, help="fault budget (default (n-1)//2)"
    )
    start_parser.add_argument("--K", type=int, default=4, help="on-time bound")
    start_parser.add_argument(
        "--seed", type=int, default=0, help="cluster seed (same on every node)"
    )
    start_parser.add_argument(
        "--variant",
        default="commit",
        help="protocol variant: commit or broken-commit",
    )
    start_parser.add_argument(
        "--host", default="127.0.0.1", help="listen/peer host"
    )
    start_parser.add_argument(
        "--base-port",
        type=int,
        default=7400,
        help="node p listens on base-port + p",
    )
    start_parser.add_argument(
        "--data-dir",
        required=True,
        help="durable root; this node's WAL lives in <data-dir>/node<p>/",
    )
    start_parser.add_argument(
        "--tick-interval",
        type=float,
        default=0.02,
        help="protocol step granularity in seconds",
    )
    start_parser.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip fsync on WAL appends (testing only)",
    )
    start_parser.add_argument(
        "--no-hold",
        action="store_true",
        help=(
            "start the commit immediately instead of waiting for "
            "`repro service submit` (coordinator only; other nodes "
            "never hold)"
        ),
    )
    start_parser.add_argument(
        "--snapshot-every",
        type=int,
        default=256,
        help="compact the WAL into a snapshot every N steps (0 = never)",
    )
    start_parser.add_argument(
        "--multi-txn",
        action="store_true",
        help=(
            "host many concurrent transactions (lazily created per "
            "txn id) instead of the single default transaction"
        ),
    )
    start_parser.add_argument(
        "--commit-bias",
        type=float,
        default=1.0,
        help=(
            "Bernoulli parameter of derived per-transaction votes "
            "(multi-txn only; 1.0 = always vote yes)"
        ),
    )
    _add_observability_args(start_parser)
    start_parser.set_defaults(fn=cmd_service_start)

    submit_parser = service_sub.add_parser(
        "submit",
        help="release the coordinator's held transaction (start the commit)",
    )
    submit_parser.add_argument("--host", default="127.0.0.1")
    submit_parser.add_argument(
        "--port", type=int, default=7400, help="the coordinator's port"
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=5.0, help="request timeout in seconds"
    )
    submit_parser.add_argument(
        "--txn",
        type=int,
        default=0,
        help=(
            "transaction id to submit to a multi-transaction node "
            "(0 = the node's default held transaction)"
        ),
    )
    submit_parser.set_defaults(fn=cmd_service_submit)

    status_parser = service_sub.add_parser(
        "status",
        help="query every node's decision and incarnation over TCP",
    )
    status_parser.add_argument("--host", default="127.0.0.1")
    status_parser.add_argument(
        "--base-port", type=int, default=7400, help="node p answers on base-port + p"
    )
    status_parser.add_argument(
        "--n", type=int, default=5, help="cluster size (ports probed)"
    )
    status_parser.add_argument(
        "--timeout", type=float, default=2.0, help="per-node timeout in seconds"
    )
    status_parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit 1 unless every node is reachable, decided, and all "
            "decisions agree"
        ),
    )
    status_parser.set_defaults(fn=cmd_service_status)

    kill_parser = service_sub.add_parser(
        "kill",
        help="signal a node process via its <data-dir>/node<p>/pid file",
    )
    kill_parser.add_argument("--node", type=int, required=True)
    kill_parser.add_argument("--data-dir", required=True)
    kill_parser.add_argument(
        "--signal",
        choices=("TERM", "KILL"),
        default="KILL",
        help="TERM halts cleanly; KILL simulates a crash (default)",
    )
    kill_parser.set_defaults(fn=cmd_service_kill)

    load_parser = service_sub.add_parser(
        "load",
        help=(
            "open-loop multi-transaction load run on the virtual clock: "
            "sharded commit groups, optional kill/recover faults, "
            "txn/s + p50/p99 latency report"
        ),
    )
    load_parser.add_argument(
        "--rate",
        type=float,
        default=500.0,
        help="offered arrival rate in transactions per virtual second",
    )
    load_parser.add_argument(
        "--duration",
        type=float,
        default=1.0,
        help="submission window in virtual seconds (txns = rate * duration)",
    )
    load_parser.add_argument(
        "--txns",
        type=int,
        default=None,
        help="exact transaction count (overrides --duration)",
    )
    load_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="independent commit groups (txn i goes to shard i %% shards)",
    )
    load_parser.add_argument(
        "--group-size", type=int, default=5, help="processors per group"
    )
    load_parser.add_argument("--K", type=int, default=4, help="on-time bound")
    load_parser.add_argument("--seed", type=int, default=0)
    load_parser.add_argument(
        "--tick-interval",
        type=float,
        default=0.002,
        help="virtual seconds per protocol step",
    )
    load_parser.add_argument(
        "--kills",
        type=int,
        default=0,
        help="seeded kill/recover faults to inject during the run",
    )
    load_parser.add_argument(
        "--commit-bias",
        type=float,
        default=1.0,
        help="Bernoulli parameter of derived per-transaction votes",
    )
    load_parser.add_argument(
        "--snapshot-every",
        type=int,
        default=32,
        help="node snapshot-compaction period in steps (0 = never)",
    )
    load_parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="virtual-time budget (default: window + recovery tail)",
    )
    load_parser.add_argument(
        "--out",
        default=None,
        help="also write the JSON report to this path (e.g. BENCH_throughput.json)",
    )
    _add_observability_args(load_parser)
    load_parser.set_defaults(fn=cmd_service_load)

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
    _add_sim_core_arg(explore_parser)
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

    models_parser = sub.add_parser(
        "models",
        help=(
            "the timing-model zoo (see: models list, models atlas)"
        ),
    )
    models_sub = models_parser.add_subparsers(
        dest="models_command", required=True
    )
    models_list_parser = models_sub.add_parser(
        "list",
        help=(
            "list registered timing models: semantics, track support, "
            "fast-core whitelist status, and knobs"
        ),
    )
    models_list_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the registry as a JSON array",
    )
    models_list_parser.set_defaults(fn=cmd_models_list)

    atlas_parser = models_sub.add_parser(
        "atlas",
        help=(
            "sweep a protocol battery across the timing-model zoo and "
            "tabulate termination, latency, and machine-checked safety "
            "per (protocol, model) cell"
        ),
    )
    atlas_parser.add_argument(
        "--protocols",
        default="protocol1,protocol2,twopc,threepc",
        help=(
            "comma-separated battery: protocol1, protocol2, twopc, "
            "twopc-block, threepc (default: all four classics)"
        ),
    )
    atlas_parser.add_argument(
        "--models",
        default="",
        help=(
            "comma-separated timing models (default: every registered "
            "model; see repro models list)"
        ),
    )
    atlas_parser.add_argument(
        "--n", type=int, default=5, help="processors per trial"
    )
    atlas_parser.add_argument(
        "--t", type=int, default=None, help="fault budget (default (n-1)//2)"
    )
    atlas_parser.add_argument(
        "--K", type=int, default=4, help="on-time bound"
    )
    atlas_parser.add_argument(
        "--trials",
        type=int,
        default=25,
        help="seeded trials per (protocol, model) cell",
    )
    atlas_parser.add_argument(
        "--seed", type=int, default=0, help="base seed; trial i uses seed+i"
    )
    atlas_parser.add_argument(
        "--max-steps",
        type=int,
        default=6_000,
        help="simulator step horizon per trial",
    )
    atlas_parser.add_argument(
        "--over-budget-fraction",
        type=float,
        default=0.25,
        help="fraction of plans drawing more than t crashes",
    )
    atlas_parser.add_argument(
        "--all-commit-fraction",
        type=float,
        default=0.6,
        help="fraction of trials voting all-commit",
    )
    atlas_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes per cell sweep (default: cpu count via "
            "REPRO_WORKERS/os.cpu_count; 1 forces serial)"
        ),
    )
    atlas_parser.add_argument(
        "--out", default=None, help="write the atlas report JSON here"
    )
    atlas_parser.add_argument(
        "--json",
        action="store_true",
        help="print the full report document instead of the table",
    )
    _add_sim_core_arg(atlas_parser)
    _add_observability_args(atlas_parser)
    atlas_parser.set_defaults(fn=cmd_models_atlas)

    trace_parser = sub.add_parser(
        "trace",
        help="inspect span traces recorded with --trace-spans",
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)

    export_parser = trace_sub.add_parser(
        "export",
        help=(
            "convert a span trace to Chrome trace-event JSON (Perfetto / "
            "chrome://tracing) or re-validated span-trace JSONL"
        ),
    )
    export_parser.add_argument("trace", help="span-trace JSONL (--trace-spans)")
    export_parser.add_argument(
        "--format",
        choices=("chrome", "jsonl"),
        default="chrome",
        help="output format (default: chrome)",
    )
    export_parser.add_argument(
        "--out", required=True, help="output path for the converted trace"
    )
    export_parser.set_defaults(fn=cmd_trace_export)

    summarize_parser = trace_sub.add_parser(
        "summarize",
        help="print record counts, span kinds, and event totals",
    )
    summarize_parser.add_argument(
        "trace", help="span-trace JSONL (--trace-spans)"
    )
    summarize_parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    summarize_parser.set_defaults(fn=cmd_trace_summarize)

    critical_parser = trace_sub.add_parser(
        "critical-path",
        help=(
            "extract the longest causal message chain ending at each "
            "decision and attribute the decision round to it"
        ),
    )
    critical_parser.add_argument(
        "trace", help="span-trace JSONL (--trace-spans)"
    )
    critical_parser.add_argument(
        "--hops",
        action="store_true",
        help="list every send→deliver hop along each chain",
    )
    critical_parser.add_argument(
        "--json", action="store_true", help="emit the paths as JSON"
    )
    critical_parser.set_defaults(fn=cmd_trace_critical_path)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.errors import ConfigurationError

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level is not None:
        from repro.telemetry.log import configure_logging

        configure_logging(args.log_level)
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        # Lazily-resolved knobs (REPRO_SIM_CORE, REPRO_SIM_NUMPY, ...)
        # surface here; follow the usage-error convention.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
