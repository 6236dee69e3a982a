"""Fault-injection campaigns: sweep seeded FaultPlans across both tracks.

A campaign is a batch of independent trials.  Trial ``i`` derives one
randomized :class:`~repro.faults.plan.FaultPlan` and one vote vector
from ``base_seed + i``, executes the plan on the deterministic
simulator and/or the commit service (a co-hosted cluster on the
virtual-clock loop, so trials are fast and reproducible), and
machine-checks the paper's invariants with the
:class:`~repro.faults.safety.SafetyMonitor`.

Trials fan out through the :mod:`repro.engine` executor, inheriting its
guarantee that results are byte-identical to the serial loop at any
worker count; combined with the virtual clock on the service track the
whole campaign *report* is reproducible from ``(config, base_seed)``
alone — rerun it anywhere and diff the JSON.

The report (``repro.fault-campaign v1``) embeds every plan, so any
violation ever found is replayable: feed the plan dict back through
:meth:`FaultPlan.from_dict` and either track.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any

from repro.adversary.base import CycleAdversary, DeliverAll
from repro.adversary.scripted import ScriptedAdversary
from repro.engine.executor import run_trials
from repro.engine.seeds import (
    CAMPAIGN_SHAPE_STREAM,
    CAMPAIGN_VOTE_STREAM,
    MODEL_TIMING_STREAM,
    derive,
)
from repro.errors import AnalysisError, ConfigurationError
from repro.faults.plan import FaultPlan
from repro.faults.safety import NONTERMINATED, TERMINATED, SafetyMonitor
from repro.faults.sim_compile import compile_to_adversary
from repro.faults.variants import make_programs, resolve_variant
from repro.models import DEFAULT_MODEL, resolve_model
from repro.sim.decisions import (
    CrashDecision,
    Decision,
    decision_from_dict,
    decision_to_dict,
)
from repro.sim.coreselect import SimTrial, run_sim_trial
from repro.telemetry import registry as telemetry
from repro.telemetry.log import get_logger
from repro.trace import spans as trace_spans

_log = get_logger("faults.campaign")

#: Schema tag of the campaign report document.
CAMPAIGN_SCHEMA = "repro.fault-campaign v1"

#: The executable tracks a campaign can sweep.  ``sim`` executes the
#: paper's fail-stop model; ``service`` runs the crash-recovery commit
#: service (durable WALs, kill/restart, replay — :mod:`repro.service`),
#: which executes a fail-stop crash as a kill with no restart and is the
#: only track that accepts plans with ``recover_cycle`` entries.
TRACKS = ("sim", "service")


def _check_tracks(tracks: tuple[str, ...]) -> None:
    for track in tracks:
        if track == "runtime":
            raise ConfigurationError(
                "the fail-stop 'runtime' track was removed: the service "
                "track runs fail-stop plans as kills with no restart; "
                "re-cut this case with --tracks sim,service"
            )
        if track not in TRACKS:
            raise ConfigurationError(
                f"unknown track {track!r}; choose from {TRACKS}"
            )


@dataclass(frozen=True)
class CampaignConfig:
    """Configuration of one fault-injection campaign.

    Attributes:
        n: processors per trial.
        t: fault budget; ``None`` means the optimum ``(n - 1) // 2``.
        plans: number of randomized FaultPlans to sweep.
        base_seed: seed of plan 0; plan ``i`` uses ``base_seed + i``.
        tracks: which tracks each plan runs on.
        K: the protocols' on-time bound.
        max_steps: simulator horizon per trial.
        deadline: service-track budget in *virtual* seconds per trial.
        tick_interval: service node step granularity (seconds per plan
            cycle).
        over_budget_fraction: fraction of trials drawing a plan with
            more than ``t`` crashes (the graceful-degradation regime).
        all_commit_fraction: fraction of trials voting all-COMMIT; the
            rest draw random vote vectors.
        program: protocol variant to run, from
            :data:`repro.faults.variants.PROGRAM_VARIANTS` ("commit" is
            the paper's Protocol 2; "broken-commit" is the planted-bug
            fixture the counterexample pipeline validates against).
        recovery_probability: chance that each drawn crash is a
            kill/recover pair instead of a fail-stop crash.  Nonzero
            values require ``tracks == ("service",)`` — the sim track
            cannot execute recoveries.
        txns: transactions per trial.  ``1`` is the classic
            one-commit campaign; larger values drive an open-loop
            workload of that many transactions through the service
            track's instance multiplexer.  Requires
            ``tracks == ("service",)``.
        shards: commit groups per trial (an open-loop workload); the
            cluster spans ``n * shards`` processors, ``n`` per group, and
            transaction ``i`` lands on shard ``i % shards``.
        commit_bias: Bernoulli parameter of the derived per-transaction
            votes of an open-loop workload (the drawn vote vector is the
            single commit's).
        model: timing model each trial runs under, from the
            :mod:`repro.models` zoo.  ``"realistic"`` (the paper's
            model) compiles plans exactly as before; other models keep
            the plan's crashes and partitions but re-time its links.
    """

    n: int = 5
    t: int | None = None
    plans: int = 100
    base_seed: int = 0
    tracks: tuple[str, ...] = ("sim", "service")
    K: int = 4
    max_steps: int = 20_000
    deadline: float = 8.0
    tick_interval: float = 0.002
    over_budget_fraction: float = 0.25
    all_commit_fraction: float = 0.6
    program: str = "commit"
    recovery_probability: float = 0.0
    txns: int = 1
    shards: int = 1
    commit_bias: float = 1.0
    model: str = DEFAULT_MODEL

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigurationError(f"campaigns need n >= 2, got {self.n}")
        if self.plans <= 0:
            raise ConfigurationError(
                f"need at least one plan, got {self.plans}"
            )
        if not self.tracks:
            raise ConfigurationError("need at least one track")
        _check_tracks(self.tracks)
        if not 0.0 <= self.over_budget_fraction <= 1.0:
            raise ConfigurationError(
                f"over_budget_fraction out of [0, 1]: "
                f"{self.over_budget_fraction}"
            )
        if not 0.0 <= self.all_commit_fraction <= 1.0:
            raise ConfigurationError(
                f"all_commit_fraction out of [0, 1]: "
                f"{self.all_commit_fraction}"
            )
        if not 0.0 <= self.recovery_probability <= 1.0:
            raise ConfigurationError(
                f"recovery_probability out of [0, 1]: "
                f"{self.recovery_probability}"
            )
        if self.recovery_probability > 0.0 and self.tracks != ("service",):
            raise ConfigurationError(
                "recovery_probability > 0 draws kill/recover plans, which "
                "only the service track can execute; use "
                f"tracks=('service',), got {self.tracks!r}"
            )
        if self.txns < 1 or self.shards < 1:
            raise ConfigurationError(
                f"txns and shards must be >= 1, got txns={self.txns}, "
                f"shards={self.shards}"
            )
        if not 0.0 <= self.commit_bias <= 1.0:
            raise ConfigurationError(
                f"commit_bias out of [0, 1]: {self.commit_bias}"
            )
        if (self.txns > 1 or self.shards > 1) and self.tracks != (
            "service",
        ):
            raise ConfigurationError(
                "multi-transaction campaigns (txns > 1 or shards > 1) "
                "run the instance multiplexer, which only the service "
                f"track hosts; use tracks=('service',), got {self.tracks!r}"
            )
        resolve_variant(self.program)
        timing = resolve_model(self.model)
        if self.model != DEFAULT_MODEL:
            unsupported = [
                track for track in self.tracks if track not in timing.tracks
            ]
            if unsupported:
                raise ConfigurationError(
                    f"timing model {self.model!r} has no analogue on "
                    f"tracks {unsupported}; it supports {timing.tracks}"
                )

    @property
    def resolved_t(self) -> int:
        return self.t if self.t is not None else (self.n - 1) // 2

    def to_dict(self) -> dict[str, Any]:
        doc = {
            "n": self.n,
            "t": self.resolved_t,
            "plans": self.plans,
            "base_seed": self.base_seed,
            "tracks": list(self.tracks),
            "K": self.K,
            "max_steps": self.max_steps,
            "deadline": self.deadline,
            "tick_interval": self.tick_interval,
            "over_budget_fraction": self.over_budget_fraction,
            "all_commit_fraction": self.all_commit_fraction,
            "program": self.program,
        }
        # Emitted only when set so pre-service reports stay byte-identical.
        if self.recovery_probability > 0.0:
            doc["recovery_probability"] = self.recovery_probability
        if self.txns > 1 or self.shards > 1:
            doc["txns"] = self.txns
            doc["shards"] = self.shards
            doc["commit_bias"] = self.commit_bias
        if self.model != DEFAULT_MODEL:
            doc["model"] = self.model
        return doc


@dataclass(frozen=True)
class TrialCase:
    """One fully-specified trial: everything needed to re-execute it.

    A campaign *draws* cases from ``(config, seed)``; the counterexample
    pipeline (:mod:`repro.counterexample`) *replays* and *shrinks* them.
    Both paths meet here: a case serializes losslessly via
    :meth:`to_dict`/:meth:`from_dict`, and :func:`execute_trial_case`
    is the single authority on how a case runs on each track — so a
    replayed case exercises exactly the code a campaign trial did.

    Attributes mirror the campaign knobs they are drawn from; ``votes``
    and ``plan`` are pinned values rather than distributions.  A case
    carrying a ``schedule`` (emitted by the model checker in
    :mod:`repro.mc`) pins the *exact* decision sequence of the sim
    track instead of a FaultPlan distribution: the scripted prefix is
    replayed verbatim, then a fair deliver-all fallback completes the
    run so the final state is well-defined.  Scheduled cases are
    sim-only — the decision sequence has no service-track analogue.
    """

    n: int
    t: int
    K: int
    votes: tuple[int, ...]
    plan: FaultPlan
    seed: int
    tracks: tuple[str, ...] = ("sim", "service")
    max_steps: int = 20_000
    deadline: float = 8.0
    tick_interval: float = 0.002
    program: str = "commit"
    schedule: tuple[Decision, ...] | None = None
    txns: int = 1
    shards: int = 1
    commit_bias: float = 1.0
    model: str = DEFAULT_MODEL

    @property
    def open_loop(self) -> bool:
        """Whether this case drives an open-loop workload of transactions
        1, 2, ... instead of the single commit of transaction 0."""
        return self.txns > 1 or self.shards > 1

    def __post_init__(self) -> None:
        if len(self.votes) != self.n:
            raise ConfigurationError(
                f"need one vote per processor: n={self.n}, "
                f"got {len(self.votes)} votes"
            )
        if self.open_loop:
            if self.tracks != ("service",):
                raise ConfigurationError(
                    "multi-transaction cases are service-only, got "
                    f"tracks {self.tracks!r}"
                )
            if self.plan.n != self.n * self.shards:
                raise ConfigurationError(
                    f"a {self.shards}-shard case needs a plan spanning "
                    f"{self.n * self.shards} processors, got "
                    f"plan.n={self.plan.n}"
                )
        _check_tracks(self.tracks)
        if "service" in self.tracks and self.n <= 2 * self.t:
            # With n - t <= t a process's own messages satisfy its waits,
            # so it never blocks; the simulator stops such a run at its
            # step horizon, but a service node chases runnable steps
            # within one pass and the clock never reaches the deadline.
            raise ConfigurationError(
                f"the service track needs n > 2t, got n={self.n}, "
                f"t={self.t}; run sub-resilient cases on the sim track"
            )
        if self.schedule is not None and self.tracks != ("sim",):
            raise ConfigurationError(
                "scheduled cases are sim-only: a scripted decision "
                f"sequence cannot drive tracks {self.tracks!r}"
            )
        if self.plan.has_recoveries and self.tracks != ("service",):
            raise ConfigurationError(
                "the plan schedules crash recoveries, which only the "
                "crash-recovery service track can execute; use "
                f"tracks=('service',), got {self.tracks!r}"
            )
        resolve_variant(self.program)
        timing = resolve_model(self.model)
        if self.model != DEFAULT_MODEL:
            if self.schedule is not None:
                raise ConfigurationError(
                    "scheduled cases pin the exact decision sequence; a "
                    "timing model cannot re-time them — replay them "
                    "under the realistic model"
                )
            unsupported = [
                track for track in self.tracks if track not in timing.tracks
            ]
            if unsupported:
                raise ConfigurationError(
                    f"timing model {self.model!r} has no analogue on "
                    f"tracks {unsupported}; it supports {timing.tracks}"
                )

    @property
    def scheduled_crashes(self) -> int:
        """Crash decisions in the scripted schedule (0 if unscheduled)."""
        if self.schedule is None:
            return 0
        return sum(
            1 for d in self.schedule if isinstance(d, CrashDecision)
        )

    @property
    def within_budget(self) -> bool:
        if self.schedule is not None:
            return self.scheduled_crashes <= self.t
        return self.plan.within_budget(self.t)

    @property
    def expect_termination(self) -> bool:
        if self.schedule is not None:
            # A scripted prefix may starve or withhold arbitrarily; no
            # termination obligation can be read off it.
            return False
        if not resolve_model(self.model).preserves_eventual_delivery:
            # Models that drop messages permanently (round-closed) void
            # the plan's termination analysis: nontermination there is
            # degradation data, not a liveness violation.
            return False
        if self.open_loop:
            # The plan's termination analysis reasons about pid 0 as
            # *the* coordinator; a sharded cluster has one coordinator
            # per group, so only plans where every crash recovers (no
            # group can lose its coordinator for good) carry the
            # obligation over.
            return (
                self.plan.guarantees_termination(self.t)
                and self.plan.permanent_crash_count == 0
            )
        return self.plan.guarantees_termination(self.t)

    def to_dict(self) -> dict[str, Any]:
        doc = {
            "n": self.n,
            "t": self.t,
            "K": self.K,
            "votes": list(self.votes),
            "plan": self.plan.to_dict(),
            "seed": self.seed,
            "tracks": list(self.tracks),
            "max_steps": self.max_steps,
            "deadline": self.deadline,
            "tick_interval": self.tick_interval,
            "program": self.program,
        }
        if self.schedule is not None:
            doc["schedule"] = [decision_to_dict(d) for d in self.schedule]
        if self.open_loop:
            doc["txns"] = self.txns
            doc["shards"] = self.shards
            doc["commit_bias"] = self.commit_bias
        if self.model != DEFAULT_MODEL:
            doc["model"] = self.model
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "TrialCase":
        try:
            schedule = doc.get("schedule")
            return cls(
                n=doc["n"],
                t=doc["t"],
                K=doc["K"],
                votes=tuple(doc["votes"]),
                plan=FaultPlan.from_dict(doc["plan"]),
                seed=doc["seed"],
                tracks=tuple(doc["tracks"]),
                max_steps=doc["max_steps"],
                deadline=doc["deadline"],
                tick_interval=doc["tick_interval"],
                program=doc.get("program", "commit"),
                schedule=(
                    tuple(decision_from_dict(d) for d in schedule)
                    if schedule is not None
                    else None
                ),
                txns=doc.get("txns", 1),
                shards=doc.get("shards", 1),
                commit_bias=doc.get("commit_bias", 1.0),
                model=doc.get("model", DEFAULT_MODEL),
            )
        except (KeyError, TypeError) as exc:
            raise AnalysisError(f"malformed trial case: {doc!r}") from exc

    def replace(self, **changes: Any) -> "TrialCase":
        """A copy with fields replaced (shrink operators use this)."""
        return dataclasses.replace(self, **changes)


def _draw_votes(config: CampaignConfig, seed: int) -> list[int]:
    rng = random.Random(derive(seed, CAMPAIGN_VOTE_STREAM))
    if rng.random() < config.all_commit_fraction:
        return [1] * config.n
    return [rng.randint(0, 1) for _ in range(config.n)]


def _draw_plan(config: CampaignConfig, seed: int) -> FaultPlan:
    shape = random.Random(derive(seed, CAMPAIGN_SHAPE_STREAM))
    over_budget = (
        config.resolved_t < config.n - 1
        and shape.random() < config.over_budget_fraction
    )
    # Multi-transaction trials span shards * n processors; keeping the
    # crash budget at the per-group t means within-budget plans stay
    # within every group's budget no matter where the crashes land.
    return FaultPlan.random(
        n=config.n * config.shards,
        t=config.resolved_t,
        seed=seed,
        K=config.K,
        over_budget=over_budget,
        recovery_probability=config.recovery_probability,
    )


def case_from_config(config: CampaignConfig, seed: int) -> TrialCase:
    """Draw trial ``seed``'s fully-pinned case from a campaign config."""
    return TrialCase(
        n=config.n,
        t=config.resolved_t,
        K=config.K,
        votes=tuple(_draw_votes(config, seed)),
        plan=_draw_plan(config, seed),
        seed=seed,
        tracks=config.tracks,
        max_steps=config.max_steps,
        deadline=config.deadline,
        tick_interval=config.tick_interval,
        program=config.program,
        txns=config.txns,
        shards=config.shards,
        commit_bias=config.commit_bias,
        model=config.model,
    )


def sim_track_adversary(case: TrialCase):
    """The adversary that runs ``case`` on the sim track."""
    if case.schedule is not None:
        # The scripted prefix is the counterexample; the deliver-all
        # fallback (which never consults cycle bookkeeping) completes
        # the run deterministically once the script runs out.
        return ScriptedAdversary(
            case.schedule,
            then=CycleAdversary(seed=case.seed, delivery=DeliverAll()),
        )
    if case.model == DEFAULT_MODEL:
        return compile_to_adversary(case.plan, K=case.K)
    # Non-realistic models own their delivery randomness; seeding it
    # from MODEL_TIMING_STREAM keeps the draw strictly after every
    # historical per-trial stream.
    return resolve_model(case.model).compile_plan(
        case.plan,
        K=case.K,
        seed=derive(case.seed, MODEL_TIMING_STREAM),
    )


def sim_track_record(trial: SimTrial) -> dict[str, Any]:
    """The sim track's result record, whichever core produced it.

    These four fields are all the safety monitor and the report read.
    """
    return {
        "outcome": TERMINATED if trial.terminated else NONTERMINATED,
        "decisions": trial.decisions,
        "crashed": sorted(trial.crashed),
        "events": trial.events,
    }


def run_sim_track(case: TrialCase, core: str | None = None) -> dict[str, Any]:
    """Run ``case`` on the sim track of the resolved core.

    :func:`repro.sim.coreselect.run_sim_trial` picks the fused sweep or
    the reference ``Simulation``; the record is the same either way.
    """
    return sim_track_record(
        run_sim_trial(
            make_programs(case.program, case.n, case.t, case.votes, case.K),
            sim_track_adversary(case),
            case.K,
            case.t,
            case.seed,
            case.max_steps,
            core,
        )
    )


def run_service_track(case: TrialCase) -> dict[str, Any]:
    """Run ``case`` on the service track and check safety per transaction.

    One trial is one cluster (``shards`` commit groups of ``n``) under
    one FaultPlan, deciding the case's workload: the single commit of
    transaction 0, which every member opens from its drawn vote, or an
    open-loop workload of ``case.txns`` transactions.  Agreement and
    validity are properties of one transaction in its group, so each
    submitted transaction gets its own
    :class:`~repro.faults.safety.SafetyMonitor` report (against that
    transaction's votes) and the reports are merged.

    ``decisions`` lists each transaction's decision at each member of
    its group, transaction by transaction: for a single commit, one per
    pid.
    """
    # Imported here (not at module top) so that a sim-only campaign
    # never pays the service subsystem's import cost.
    from repro.service.virtualtime import run_virtual
    from repro.service.cluster import (
        ServiceCluster,
        TxnWorkload,
        shard_configs,
    )
    from repro.service.txn import ShardMap, txn_vote

    if case.open_loop:
        # Submit everything inside the first quarter of the budget so a
        # kill/recover tail still fits before the deadline.
        window = max(case.tick_interval * 4, min(1.0, case.deadline / 4))
        workload = TxnWorkload.open_loop(
            case.txns, case.txns / window, case.tick_interval
        )
    else:
        workload = TxnWorkload.single_commit()
    shard_map = ShardMap(shards=case.shards, group_size=case.n)
    configs = shard_configs(
        case.shards,
        case.n,
        case.t,
        case.K,
        case.seed,
        variant=case.program,
        commit_bias=case.commit_bias,
        votes=case.votes,
    )
    cluster = ServiceCluster(
        configs,
        resolve_model(case.model).service_plan(case.plan, K=case.K),
        seed=case.seed,
        tick_interval=case.tick_interval,
        snapshot_every=32,
        K=case.K,
        workload=workload,
        shard_map=shard_map,
    )
    result = run_virtual(cluster.run(deadline=case.deadline))
    txns_by_pid = {snapshot.pid: snapshot.txns for snapshot in result.nodes}
    pending = {
        txn_id for txn_ids in result.undecided.values() for txn_id in txn_ids
    }
    # In check order, as one monitor reports them (a dict is an ordered set).
    checked: dict[str, None] = {}
    violations: list[dict[str, Any]] = []
    decisions: list[int | None] = []
    agreed_txns = 0
    for txn_id in result.submitted_txns:
        members = list(shard_map.members(shard_map.group_of(txn_id)))
        monitor = SafetyMonitor(
            n=case.n,
            t=case.t,
            votes=[txn_vote(configs[pid], txn_id) for pid in members],
        )
        bits = {
            local: txns_by_pid.get(pid, {}).get(txn_id)
            for local, pid in enumerate(members)
        }
        report = monitor.check(
            decisions=bits,
            crashed={
                local
                for local, pid in enumerate(members)
                if pid in result.permanently_crashed
            },
            terminated=txn_id not in pending,
            expect_termination=case.expect_termination,
            benign=False,
        )
        checked.update(dict.fromkeys(report.checked))
        for violation in report.violations:
            violations.append({**violation.to_dict(), "txn": txn_id})
        decisions.extend(bits.values())
        decided = {bit for bit in bits.values() if bit is not None}
        agreed_txns += len(decided) == 1
    record = {
        "outcome": result.outcome,
        "decisions": decisions,
        # Only *permanent* crashes count as faulty: a killed-and-recovered
        # node rejoined, so safety accounting owes it a decision.
        "crashed": sorted(result.permanently_crashed),
        "recoveries": result.recoveries,
        "transfer_decisions": result.transfer_decisions,
        "bus": dict(result.bus_stats),
        "safety": {
            "checked": list(checked),
            "violations": violations,
            "safety_ok": not any(
                v["property"] != "nonblocking" for v in violations
            ),
            "liveness_ok": not any(
                v["property"] == "nonblocking" for v in violations
            ),
        },
    }
    if case.open_loop:
        # Emitted only for an open-loop workload, like the case's own
        # ``txns``, so single-commit reports keep their form.
        record["txns"] = {
            "submitted": len(result.submitted_txns),
            "decided": agreed_txns,
            "undecided": {
                str(pid): txn_ids
                for pid, txn_ids in sorted(result.undecided.items())
            },
        }
    return record


def execute_trial_case(case: TrialCase) -> dict[str, Any]:
    """Run one pinned case on every configured track and check safety.

    This is the single execution authority shared by campaigns, replay,
    and the shrinker: identical cases produce identical result dicts.
    """
    monitor = SafetyMonitor(n=case.n, t=case.t, votes=list(case.votes))
    tracer = trace_spans.active_recorder()
    trial_span = None
    if tracer is not None:
        # Campaign-track time axis is the trial index (= seed offset);
        # sim and service child spans carry their own time axes.
        trial_span = tracer.begin_span(
            f"trial-{case.seed}",
            kind="trial",
            track="campaign",
            start=case.seed,
            seed=case.seed,
            n=case.n,
            t=case.t,
            K=case.K,
            within_budget=case.within_budget,
        )
    tracks: dict[str, Any] = {}
    for track in case.tracks:
        if track == "service":
            outcome = run_service_track(case)
        else:
            outcome = run_sim_track(case)
            report = monitor.check(
                decisions={
                    pid: bit for pid, bit in enumerate(outcome["decisions"])
                },
                crashed=set(outcome["crashed"]),
                terminated=outcome["outcome"] == TERMINATED,
                expect_termination=case.expect_termination,
                benign=False,
            )
            outcome["safety"] = report.to_dict()
        tracks[track] = outcome
        if telemetry.enabled():
            telemetry.count(
                "campaign_trials_total",
                help="campaign trials executed, by track and outcome",
                track=track,
                outcome=outcome["outcome"],
            )
            for violation in outcome["safety"]["violations"]:
                telemetry.count(
                    "campaign_violations_total",
                    help="safety/liveness violations observed, "
                    "by track and property",
                    track=track,
                    property=violation["property"],
                )
        if tracer is not None:
            for violation in outcome["safety"]["violations"]:
                tracer.point(
                    "violation",
                    track="campaign",
                    time=case.seed,
                    span=trial_span,
                    violated_track=track,
                    property=violation["property"],
                )
    if tracer is not None and trial_span is not None:
        tracer.end_span(
            trial_span,
            case.seed + 1,
            violations=sum(
                len(data["safety"]["violations"]) for data in tracks.values()
            ),
        )
    return {
        "within_budget": case.within_budget,
        "expect_termination": case.expect_termination,
        "tracks": tracks,
    }


def run_campaign_trial(config: CampaignConfig, seed: int) -> dict[str, Any]:
    """Run one seeded plan on every configured track and check safety."""
    case = case_from_config(config, seed)
    result = execute_trial_case(case)
    if telemetry.enabled():
        # Live progress for the /metrics endpoint: counters merge
        # additively when trials fan out to worker processes, and tick
        # in real time on the serial path.
        telemetry.count(
            "campaign_plans_executed_total",
            help="campaign plans completed so far",
        )
    return {
        "seed": seed,
        "plan": case.plan.to_dict(),
        "votes": list(case.votes),
        "within_budget": result["within_budget"],
        "expect_termination": result["expect_termination"],
        "tracks": result["tracks"],
    }


def _summarize(config: CampaignConfig, records: list[dict]) -> dict[str, Any]:
    summary: dict[str, Any] = {
        "trials": len(records),
        "within_budget_trials": sum(
            1 for r in records if r["within_budget"]
        ),
        "over_budget_trials": sum(
            1 for r in records if not r["within_budget"]
        ),
        "safety_violations": 0,
        "liveness_violations": 0,
        "tracks": {},
    }
    for track in config.tracks:
        outcomes = {TERMINATED: 0, NONTERMINATED: 0}
        decisions = {"commit": 0, "abort": 0, "undecided": 0}
        safety_violations = 0
        liveness_violations = 0
        recoveries = 0
        transfer_decisions = 0
        for record in records:
            data = record["tracks"][track]
            outcomes[data["outcome"]] += 1
            bits = {b for b in data["decisions"] if b is not None}
            if not bits:
                decisions["undecided"] += 1
            elif bits == {1}:
                decisions["commit"] += 1
            elif bits == {0}:
                decisions["abort"] += 1
            else:  # pragma: no cover - an agreement violation
                decisions["undecided"] += 1
            for violation in data["safety"]["violations"]:
                if violation["property"] in ("nonblocking",):
                    liveness_violations += 1
                else:
                    safety_violations += 1
            recoveries += data.get("recoveries", 0)
            transfer_decisions += data.get("transfer_decisions", 0)
        track_summary: dict[str, Any] = {
            "outcomes": outcomes,
            "decisions": decisions,
            "safety_violations": safety_violations,
            "liveness_violations": liveness_violations,
        }
        if track == "service":
            track_summary["service"] = {
                "recoveries": recoveries,
                "transfer_decisions": transfer_decisions,
            }
        summary["tracks"][track] = track_summary
        summary["safety_violations"] += safety_violations
        summary["liveness_violations"] += liveness_violations
    return summary


def run_campaign(
    config: CampaignConfig, workers: int | None = None
) -> dict[str, Any]:
    """Run a whole campaign and build its report document.

    The document is deterministic in ``(config, workers-independent)``:
    the engine reassembles trial records in seed order and the virtual
    clock removes wall-clock wobble, so serial and parallel campaigns
    serialize byte-identically.

    With span tracing active the campaign runs serially regardless of
    ``workers`` — recorders live in this process; worker-process spans
    would be lost — and wraps the sweep in one campaign span.
    """
    tracer = trace_spans.active_recorder()
    if tracer is not None and workers != 1:
        _log.info(
            "span tracing active: forcing campaign workers=1 "
            "(requested %r)",
            workers,
        )
        workers = 1
    if telemetry.enabled():
        telemetry.set_gauge(
            "campaign_plans_planned",
            config.plans,
            help="plans this campaign will execute",
        )
    campaign_span = None
    if tracer is not None:
        campaign_span = tracer.begin_span(
            "campaign",
            kind="campaign",
            track="campaign",
            start=config.base_seed,
            plans=config.plans,
            n=config.n,
            program=config.program,
        )
    records = run_trials(
        partial(run_campaign_trial, config),
        trials=config.plans,
        base_seed=config.base_seed,
        workers=workers,
    )
    summary = _summarize(config, records)
    if tracer is not None and campaign_span is not None:
        tracer.end_span(
            campaign_span,
            config.base_seed + config.plans,
            safety_violations=summary["safety_violations"],
            liveness_violations=summary["liveness_violations"],
        )
    return {
        "schema": CAMPAIGN_SCHEMA,
        "config": config.to_dict(),
        "summary": summary,
        "trials": records,
    }


def render_campaign_summary(report: dict[str, Any]) -> str:
    """A short human-readable digest of a campaign report."""
    summary = report["summary"]
    lines = [
        f"fault campaign: {summary['trials']} plans "
        f"({summary['within_budget_trials']} within budget, "
        f"{summary['over_budget_trials']} over budget)",
    ]
    for track, data in summary["tracks"].items():
        outcomes = data["outcomes"]
        decisions = data["decisions"]
        lines.append(
            f"  {track:>7}: {outcomes[TERMINATED]} terminated / "
            f"{outcomes[NONTERMINATED]} nonterminated; "
            f"decisions commit={decisions['commit']} "
            f"abort={decisions['abort']} "
            f"undecided={decisions['undecided']}; "
            f"safety violations={data['safety_violations']}, "
            f"liveness violations={data['liveness_violations']}"
        )
        service = data.get("service")
        if service:
            lines.append(
                f"           service: {service['recoveries']} node "
                f"recoveries, {service['transfer_decisions']} decisions "
                f"adopted via state transfer"
            )
    verdict = (
        "SAFE" if summary["safety_violations"] == 0 else "SAFETY VIOLATED"
    )
    lines.append(
        f"  verdict: {verdict} "
        f"({summary['safety_violations']} safety / "
        f"{summary['liveness_violations']} liveness violations)"
    )
    return "\n".join(lines)


def write_campaign_report(report: dict[str, Any], path: str | Path) -> Path:
    """Serialize a report deterministically (sorted keys, one line)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(report, sort_keys=True) + "\n")
    return target
