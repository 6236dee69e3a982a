"""The bounded exhaustive DFS explorer with sleep-set reduction.

Protocol programs are generators and cannot be copied, so a state is
represented by its *decision path* from the initial configuration and
re-materialised by replaying that prefix on a fresh
:class:`~repro.sim.scheduler.Simulation`.  The DFS hands its live
simulation to the first explored child and replays the prefix only for
later siblings, which halves the replay work.

**Counting.**  ``states_visited`` counts node *arrivals* — each arrival
is one prefix replay plus one fingerprint, i.e. the unit of real work.
With exact deduplication the set of unique states is the same with and
without reduction; what sleep sets save is arrivals (a sleeping
transition is pruned before it is executed at all), so the
POR-vs-baseline comparison the certify presets print and assert is an
arrivals comparison.

**Soundness of the visited set under sleep sets.**  A prior visit of a
state with sleep set ``S`` explored every transition outside ``S``.
Re-arriving with sleep set ``S' ⊇ S`` would explore a subset of that,
so the arrival is skipped only when some stored sleep set is a subset
of the current one; otherwise the current sleep set is stored (and
dominated supersets dropped).  Budgets are folded into the digest, so
states differing only in remaining budget never alias.

**Parallelism.**  The choice tree is cut at ``split_depth`` into
independent subtree jobs fanned out through :mod:`repro.engine`.  The
decomposition is fixed by the config — never by the worker count — and
each job owns a fresh visited set, so reports are byte-identical at
any parallelism (cross-subtree deduplication is traded away for that
determinism).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.engine.executor import run_trials
from repro.errors import AnalysisError
from repro.faults.safety import SafetyMonitor
from repro.faults.variants import make_programs
from repro.mc.choices import (
    Choice,
    TransitionInfo,
    TransitionKey,
    enumerate_choices,
    independent,
    transition_info,
)
from repro.mc.config import MCConfig
from repro.mc.fingerprint import LateKey, state_digest
from repro.models import mcfilter
from repro.sim.decisions import (
    Decision,
    StepDecision,
    decision_from_dict,
    decision_to_dict,
)
from repro.sim.pattern import PatternView
from repro.sim.scheduler import Simulation
from repro.telemetry import registry as telemetry
from repro.telemetry.registry import MetricsRegistry
from repro.trace import spans as trace_spans

#: Schema tag of the exploration report document.
EXPLORE_SCHEMA = "repro.mc-explore v1"


class _InertAdversary:
    """Placeholder adversary: the explorer applies decisions directly."""

    def decide(self, view: PatternView) -> Decision:  # pragma: no cover
        raise AnalysisError(
            "the model checker drives the simulation via apply(); its "
            "adversary slot must never be consulted"
        )


_INERT = _InertAdversary()


@dataclass
class ExploreStats:
    """Search counters for one exploration (or one subtree job).

    Attributes:
        states_visited: node arrivals (replay + fingerprint each) — the
            unit of work sleep-set reduction saves.
        states_expanded: arrivals whose choice set was enumerated and
            explored.
        states_deduped: arrivals skipped because a dominating visit of
            the same fingerprint existed.
        pruned_sleep: child transitions skipped asleep.
        terminal_states: arrivals with every nonfaulty program returned.
        bounded_leaves: non-terminal arrivals with no enabled choice
            (the bounds cut the run here).
        violations: arrivals at which a safety property was violated.
        max_depth: longest decision path reached.
        truncated: the ``max_states`` valve fired somewhere.
    """

    states_visited: int = 0
    states_expanded: int = 0
    states_deduped: int = 0
    pruned_sleep: int = 0
    terminal_states: int = 0
    bounded_leaves: int = 0
    violations: int = 0
    max_depth: int = 0
    truncated: bool = False

    def merge(self, other: "ExploreStats") -> None:
        self.states_visited += other.states_visited
        self.states_expanded += other.states_expanded
        self.states_deduped += other.states_deduped
        self.pruned_sleep += other.pruned_sleep
        self.terminal_states += other.terminal_states
        self.bounded_leaves += other.bounded_leaves
        self.violations += other.violations
        self.max_depth = max(self.max_depth, other.max_depth)
        self.truncated = self.truncated or other.truncated

    def to_dict(self) -> dict[str, Any]:
        return {
            "states_visited": self.states_visited,
            "states_expanded": self.states_expanded,
            "states_deduped": self.states_deduped,
            "pruned_sleep": self.pruned_sleep,
            "terminal_states": self.terminal_states,
            "bounded_leaves": self.bounded_leaves,
            "violations": self.violations,
            "max_depth": self.max_depth,
            "truncated": self.truncated,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ExploreStats":
        return cls(**doc)


@dataclass(frozen=True)
class ViolationRecord:
    """One violating path: everything needed to script it again.

    Attributes:
        votes: the initial vote vector of the violating run.
        properties: sorted safety properties violated at the state.
        schedule: the decision path from the initial configuration.
        terminal: whether the state was terminal when flagged.
        benign: whether the run was classified benign (crash-free, no
            withheld envelopes, every delivery on time).
    """

    votes: tuple[int, ...]
    properties: tuple[str, ...]
    schedule: tuple[Decision, ...]
    terminal: bool
    benign: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "votes": list(self.votes),
            "properties": list(self.properties),
            "schedule": [decision_to_dict(d) for d in self.schedule],
            "terminal": self.terminal,
            "benign": self.benign,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ViolationRecord":
        return cls(
            votes=tuple(doc["votes"]),
            properties=tuple(doc["properties"]),
            schedule=tuple(decision_from_dict(d) for d in doc["schedule"]),
            terminal=doc["terminal"],
            benign=doc["benign"],
        )


@dataclass
class ExploreReport:
    """Merged outcome of one bounded exhaustive exploration."""

    config: MCConfig
    stats: ExploreStats = field(default_factory=ExploreStats)
    violations: list[ViolationRecord] = field(default_factory=list)
    per_votes: list[dict[str, Any]] = field(default_factory=list)

    @property
    def exhaustive(self) -> bool:
        """Whether the whole bounded space was covered (no truncation)."""
        return not self.stats.truncated

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": EXPLORE_SCHEMA,
            "config": self.config.to_dict(),
            "stats": self.stats.to_dict(),
            "violations": [v.to_dict() for v in self.violations],
            "per_votes": self.per_votes,
            "exhaustive": self.exhaustive,
        }


def violation_classes(
    violations: list[ViolationRecord],
) -> set[tuple[str, ...]]:
    """Distinct violated-property combinations, as sorted tuples."""
    return {tuple(sorted(v.properties)) for v in violations}


class _SubtreeExplorer:
    """DFS over one vote vector's choice tree (or a subtree of it)."""

    def __init__(self, config: MCConfig, votes: tuple[int, ...]) -> None:
        self.config = config
        self.votes = votes
        self.monitor = SafetyMonitor(
            n=config.n, t=config.t, votes=list(votes)
        )
        self.visited: dict[bytes, list[frozenset[TransitionKey]]] = {}
        self.stats = ExploreStats()
        self.violations: list[ViolationRecord] = []
        # Pure in config, so charging here always agrees with
        # enumeration (enumerate_choices builds its own copy per call).
        self._classifier = mcfilter.classifier_for(config)

    # -- state materialisation -------------------------------------------

    def fresh_sim(self) -> Simulation:
        config = self.config
        return Simulation(
            programs=make_programs(
                config.program, config.n, config.t, self.votes, config.K
            ),
            adversary=_INERT,
            K=config.K,
            t=config.t,
            seed=config.seed,
            max_steps=config.max_depth_bound + 1,
            telemetry=MetricsRegistry(enabled=False),
        )

    def charge(
        self,
        sim: Simulation,
        decision: Decision,
        delay_spent: int,
        late_keys: frozenset[LateKey],
    ) -> tuple[int, frozenset[LateKey]]:
        """Budgets after ``decision``, computed from the pre-state."""
        if isinstance(decision, StepDecision):
            delivered = set(decision.deliver)
            clock = sim.processes[decision.pid].clock
            for env in sim.buffers[decision.pid]:
                if env.message_id in delivered or not env.guaranteed:
                    continue
                if self._classifier is not None:
                    # Mirror enumerate_choices' classified partition:
                    # model-withheld (DROP/DEFER) envelopes are charged
                    # nothing, FREE envelopes mark lateness only, and
                    # NORMAL/MUST_DELIVER keep the realistic charge.
                    cls = self._classifier.classify(
                        env, decision.pid, clock
                    )
                    if cls in (mcfilter.DROP, mcfilter.DEFER):
                        continue
                    if cls == mcfilter.FREE:
                        late_keys = late_keys | {
                            (env.sender, env.send_clock, decision.pid)
                        }
                        continue
                delay_spent += 1
                late_keys = late_keys | {
                    (env.sender, env.send_clock, decision.pid)
                }
        return delay_spent, late_keys

    def replay(
        self, prefix: tuple[Decision, ...]
    ) -> tuple[Simulation, int, frozenset[LateKey]]:
        """A fresh simulation advanced through ``prefix``, with budgets."""
        sim = self.fresh_sim()
        delay_spent, late_keys = 0, frozenset()
        for decision in prefix:
            delay_spent, late_keys = self.charge(
                sim, decision, delay_spent, late_keys
            )
            sim.apply(decision)
        return sim, delay_spent, late_keys

    # -- arrival processing ----------------------------------------------

    def check_state(
        self,
        sim: Simulation,
        prefix: tuple[Decision, ...],
        late_keys: frozenset[LateKey],
        depth: int,
    ) -> str:
        """Safety-check one arrival; classify it.

        Returns ``"violation"`` (recorded; prune below — agreement and
        abort validity are absorbing, so every descendant violates
        too), ``"terminal"``, or ``"open"``.
        """
        stats = self.stats
        stats.states_visited += 1
        stats.max_depth = max(stats.max_depth, depth)
        if telemetry.enabled():
            # Live progress for the /metrics endpoint (the end-of-run
            # mc_states_total counters only land after the search).
            telemetry.count(
                "mc_states_visited_total",
                help="model-checker node arrivals so far (live)",
            )
            telemetry.set_gauge(
                "mc_frontier_depth",
                depth,
                help="decision-path depth of the current arrival",
            )
        crashed = sim.crashed_pids()
        terminal = sim.all_nonfaulty_done()
        benign = (
            terminal
            and not crashed
            and not late_keys
            and sim.max_delivery_lag(delivered_only=True) <= sim.K
        )
        report = self.monitor.check(
            decisions={
                pid: proc.decision for pid, proc in enumerate(sim.processes)
            },
            crashed=crashed,
            terminated=terminal,
            expect_termination=False,
            benign=benign,
        )
        violated = sorted(
            {v.prop for v in report.violations if v.is_safety}
        )
        if violated:
            stats.violations += 1
            self.violations.append(
                ViolationRecord(
                    votes=self.votes,
                    properties=tuple(violated),
                    schedule=prefix,
                    terminal=terminal,
                    benign=benign,
                )
            )
            return "violation"
        if terminal:
            stats.terminal_states += 1
            return "terminal"
        return "open"

    # -- the DFS ----------------------------------------------------------

    def explore_from(
        self,
        sim: Simulation,
        prefix: tuple[Decision, ...],
        sleep: dict[TransitionKey, TransitionInfo],
        delay_spent: int,
        late_keys: frozenset[LateKey],
        depth: int,
    ) -> None:
        """Explore the subtree below one arrival; consumes ``sim``."""
        config, stats = self.config, self.stats
        if stats.states_visited >= config.max_states:
            stats.truncated = True
            return
        if config.stop_on_first and self.violations:
            return
        if self.check_state(sim, prefix, late_keys, depth) != "open":
            return
        digest = state_digest(sim, delay_spent, late_keys)
        sleep_keys = frozenset(sleep)
        stored = self.visited.get(digest)
        if stored is not None:
            if any(past <= sleep_keys for past in stored):
                stats.states_deduped += 1
                return
            self.visited[digest] = [
                past for past in stored if not sleep_keys <= past
            ] + [sleep_keys]
        else:
            self.visited[digest] = [sleep_keys]
        choices = enumerate_choices(sim, config, delay_spent, late_keys)
        if not choices:
            stats.bounded_leaves += 1
            return
        stats.states_expanded += 1
        self._explore_children(
            sim, prefix, sleep, delay_spent, late_keys, depth, choices
        )

    def _explore_children(
        self,
        sim: Simulation,
        prefix: tuple[Decision, ...],
        sleep: dict[TransitionKey, TransitionInfo],
        delay_spent: int,
        late_keys: frozenset[LateKey],
        depth: int,
        choices: list[Choice],
    ) -> None:
        config, stats = self.config, self.stats
        executed: list[TransitionInfo] = []
        live_sim: Simulation | None = sim
        for choice in choices:
            if config.por and choice.key in sleep:
                stats.pruned_sleep += 1
                continue
            if live_sim is not None:
                child, child_spent, child_late = (
                    live_sim,
                    delay_spent,
                    late_keys,
                )
                live_sim = None
            else:
                child, child_spent, child_late = self.replay(prefix)
            child_spent, child_late = self.charge(
                child, choice.decision, child_spent, child_late
            )
            child.apply(choice.decision)
            info = transition_info(choice, child)
            child_sleep: dict[TransitionKey, TransitionInfo] = {}
            if config.por:
                for candidate in list(sleep.values()) + executed:
                    if independent(candidate, info):
                        child_sleep[candidate.key] = candidate
            self.explore_from(
                child,
                prefix + (choice.decision,),
                child_sleep,
                child_spent,
                child_late,
                depth + 1,
            )
            executed.append(info)

    # -- job splitting -----------------------------------------------------

    def split(self) -> list[tuple[Decision, ...]]:
        """Process the shallow tree; return subtree-root prefixes.

        Arrivals at depth < ``split_depth`` are safety-checked and
        counted here (without deduplication or sleep pruning — the
        shallow tree is tiny and keeping it reduction-free makes the
        POR and baseline decompositions identical); every frontier node
        at ``split_depth`` becomes one independent job.
        """
        jobs: list[tuple[Decision, ...]] = []
        self._split_walk((), 0, jobs)
        return jobs

    def _split_walk(
        self,
        prefix: tuple[Decision, ...],
        depth: int,
        jobs: list[tuple[Decision, ...]],
    ) -> None:
        if depth >= self.config.split_depth:
            jobs.append(prefix)
            return
        sim, delay_spent, late_keys = self.replay(prefix)
        if self.check_state(sim, prefix, late_keys, depth) != "open":
            return
        choices = enumerate_choices(
            sim, self.config, delay_spent, late_keys
        )
        if not choices:
            self.stats.bounded_leaves += 1
            return
        self.stats.states_expanded += 1
        for choice in choices:
            self._split_walk(prefix + (choice.decision,), depth + 1, jobs)


def _explore_job(config_json: str, payloads: tuple[str, ...], index: int) -> str:
    """Engine payload: exhaust one subtree, return its stats and finds.

    Jobs travel as JSON strings (the partial-bound arguments stay small
    and picklable); ``index`` rides the engine's seed slot, exactly the
    shrinker's probing pattern.
    """
    config = MCConfig.from_dict(json.loads(config_json))
    spec = json.loads(payloads[index])
    votes = tuple(spec["votes"])
    prefix = tuple(decision_from_dict(d) for d in spec["prefix"])
    explorer = _SubtreeExplorer(config, votes)
    sim, delay_spent, late_keys = explorer.replay(prefix)
    explorer.explore_from(
        sim, prefix, {}, delay_spent, late_keys, depth=len(prefix)
    )
    return json.dumps(
        {
            "stats": explorer.stats.to_dict(),
            "violations": [v.to_dict() for v in explorer.violations],
        },
        sort_keys=True,
    )


def explore(config: MCConfig, workers: int | None = None) -> ExploreReport:
    """Run one bounded exhaustive exploration; see the module docstring.

    Sweeps every configured vote vector, cuts each vector's tree at
    ``config.split_depth`` into independent subtree jobs, fans the jobs
    through :mod:`repro.engine`, and merges stats and violations in
    job order — the report is identical at any worker count.
    """
    tracer = trace_spans.active_recorder()
    if tracer is not None and workers != 1:
        workers = 1  # recorders live in-process; keep subtree jobs here
    report = ExploreReport(config=config)
    config_json = json.dumps(config.to_dict(), sort_keys=True)
    for vote_index, votes in enumerate(config.vote_vectors()):
        vote_span = None
        if tracer is not None:
            vote_span = tracer.begin_span(
                f"votes-{''.join(str(v) for v in votes)}",
                kind="exploration",
                track="mc",
                start=vote_index,
                votes=list(votes),
            )
        splitter = _SubtreeExplorer(config, votes)
        jobs = splitter.split()
        vote_stats = splitter.stats
        vote_violations = list(splitter.violations)
        if jobs:
            payloads = tuple(
                json.dumps(
                    {
                        "votes": list(votes),
                        "prefix": [decision_to_dict(d) for d in prefix],
                    },
                    sort_keys=True,
                )
                for prefix in jobs
            )
            results = run_trials(
                partial(_explore_job, config_json, payloads),
                trials=len(payloads),
                base_seed=0,
                workers=workers,
            )
            for raw in results:
                data = json.loads(raw)
                vote_stats.merge(ExploreStats.from_dict(data["stats"]))
                vote_violations.extend(
                    ViolationRecord.from_dict(v) for v in data["violations"]
                )
        report.per_votes.append(
            {
                "votes": list(votes),
                "stats": vote_stats.to_dict(),
                "violations": len(vote_violations),
            }
        )
        report.stats.merge(vote_stats)
        report.violations.extend(vote_violations)
        if tracer is not None and vote_span is not None:
            for record in vote_violations:
                tracer.point(
                    "violation",
                    track="mc",
                    time=vote_index,
                    span=vote_span,
                    properties=",".join(record.properties),
                    schedule_length=len(record.schedule),
                )
            tracer.end_span(
                vote_span,
                vote_index + 1,
                states_visited=vote_stats.states_visited,
                states_expanded=vote_stats.states_expanded,
                max_depth=vote_stats.max_depth,
                violations=len(vote_violations),
            )
        if config.stop_on_first and report.violations:
            break
    if telemetry.enabled():
        for kind, value in report.stats.to_dict().items():
            if isinstance(value, bool):
                continue
            telemetry.count(
                "mc_states_total",
                value,
                help="model-checker search counters, by kind",
                kind=kind,
            )
        for record in report.violations:
            telemetry.count(
                "mc_violations_total",
                help="model-checker safety violations, by property set",
                properties=",".join(record.properties),
            )
    return report


def render_explore_summary(report: ExploreReport) -> str:
    """A short human-readable digest of one exploration."""
    stats = report.stats
    config = report.config
    lines = [
        f"mc explore: {config.program} n={config.n} t={config.t} "
        f"K={config.K} (cycles<={config.max_cycles}, "
        f"crashes<={config.crash_budget}, late<={config.max_late}, "
        f"delay<={config.delay_budget}, "
        f"por={'on' if config.por else 'off'})",
        f"  vote vectors swept: {len(report.per_votes)}",
        f"  states visited:  {stats.states_visited} "
        f"(expanded {stats.states_expanded}, "
        f"deduped {stats.states_deduped}, "
        f"sleep-pruned {stats.pruned_sleep})",
        f"  leaves: {stats.terminal_states} terminal / "
        f"{stats.bounded_leaves} bounded; max depth {stats.max_depth}",
    ]
    if stats.truncated:
        lines.append(
            f"  TRUNCATED: the max_states valve "
            f"({config.max_states}) fired — NOT exhaustive"
        )
    if report.violations:
        classes = sorted(violation_classes(report.violations))
        lines.append(
            f"  verdict: VIOLATIONS FOUND — {len(report.violations)} "
            f"violating path(s), classes: "
            f"{['+'.join(c) for c in classes]}"
        )
        first = report.violations[0]
        lines.append(
            f"  first: votes={list(first.votes)} "
            f"properties={list(first.properties)} "
            f"schedule length {len(first.schedule)}"
        )
    else:
        scope = "exhaustively" if report.exhaustive else "partially (truncated)"
        lines.append(
            f"  verdict: SAFE — bounded space covered {scope}, "
            f"0 violations"
        )
    return "\n".join(lines)
