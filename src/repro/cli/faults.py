"""``faults campaign | replay | shrink | diff``: fault-plan sweeps, replay
artifacts, the shrinker and the differential oracles.
"""

from __future__ import annotations

import json
import sys

from repro.cli.common import (
    _add_model_arg,
    _add_observability_args,
    _add_sim_core_arg,
    _install_sim_core,
    _with_observability,
)


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



def register(sub) -> None:
    """Add ``faults`` to the top-level subparsers."""
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

