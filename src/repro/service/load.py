"""Open-loop load generation for the multi-transaction commit service.

Drives a sustained submission schedule through a sharded virtual-clock
cluster (:mod:`repro.service.cluster`) and measures what the ROADMAP's
north star asks about: transactions per (virtual) second and the
p50/p99 submission-to-group-decision latency.  The generator is
*open-loop* — arrivals follow the schedule regardless of how far
earlier transactions have progressed — so it measures the service
under offered load rather than a lock-step ping-pong.

Every run is deterministic in ``(txns, rate, shards, seed, plan)``:
virtual time makes the numbers machine-independent, so a throughput
floor can be asserted in CI without flaking on slow runners.  Optional
kill/recover fault injection (:func:`kill_recover_plan`) exercises the
crash-recovery path under load; the report counts per-transaction
agreement violations (always expected to be zero) alongside the
performance numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.engine.seeds import SERVICE_NODE_STREAM, derive_keyed
from repro.faults.plan import CrashFault, FaultPlan
from repro.service.cluster import (
    ServiceCluster,
    TxnWorkload,
    shard_configs,
)
from repro.service.txn import ShardMap
from repro.service.virtualtime import run_virtual
from repro.telemetry import registry as telemetry
from repro.telemetry.log import get_logger

_log = get_logger("service.load")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(round(q * len(ordered) + 0.5))))
    return ordered[rank - 1]


def kill_recover_plan(
    shards: int,
    group_size: int,
    kills: int,
    seed: int,
    window_cycles: int,
    tolerance: int,
) -> FaultPlan:
    """A seeded kill/recover schedule for a load run.

    Draws ``kills`` crash-recovery faults across the cluster, at most
    ``tolerance`` concurrent victims per commit group (the protocol's
    ``t``), each landing inside the submission window and recovering
    within a bounded downtime — the sustained-traffic analogue of the
    campaign's kill/recover schedules.
    """
    total = shards * group_size
    rng = random.Random(derive_keyed(seed, SERVICE_NODE_STREAM, 0x10AD))
    per_group: dict[int, int] = {}
    crashes: list[CrashFault] = []
    attempts = 0
    while len(crashes) < kills and attempts < kills * 20:
        attempts += 1
        pid = rng.randrange(total)
        group = pid // group_size
        if per_group.get(group, 0) >= tolerance:
            continue
        if any(crash.pid == pid for crash in crashes):
            continue
        cycle = rng.randrange(4, max(5, window_cycles))
        recover = cycle + rng.randrange(16, 64)
        crashes.append(
            CrashFault(pid=pid, cycle=cycle, recover_cycle=recover)
        )
        per_group[group] = per_group.get(group, 0) + 1
    return FaultPlan(n=total, crashes=tuple(crashes))


@dataclass
class LoadReport:
    """What one load run measured (all times in virtual seconds)."""

    txns: int
    shards: int
    group_size: int
    offered_rate: float
    seed: int
    kills: int
    outcome: str
    submitted: int
    decided: int
    recoveries: int
    makespan: float
    throughput: float
    p50_latency: float
    p99_latency: float
    mean_latency: float
    safety_violations: int
    undecided: dict[int, list[int]] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "txns": self.txns,
            "shards": self.shards,
            "group_size": self.group_size,
            "offered_rate_txn_per_s": self.offered_rate,
            "seed": self.seed,
            "kills": self.kills,
            "outcome": self.outcome,
            "submitted": self.submitted,
            "decided": self.decided,
            "recoveries": self.recoveries,
            "makespan_s": self.makespan,
            "throughput_txn_per_s": self.throughput,
            "p50_latency_s": self.p50_latency,
            "p99_latency_s": self.p99_latency,
            "mean_latency_s": self.mean_latency,
            "safety_violations": self.safety_violations,
            "undecided": {
                str(pid): txns for pid, txns in sorted(self.undecided.items())
            },
        }


def run_load(
    *,
    txns: int,
    rate: float,
    shards: int = 1,
    group_size: int = 5,
    t: int | None = None,
    K: int = 4,
    seed: int = 0,
    tick_interval: float = 0.002,
    kills: int = 0,
    commit_bias: float = 1.0,
    snapshot_every: int = 32,
    deadline: float | None = None,
    variant: str = "commit",
) -> LoadReport:
    """Run one open-loop load burst on the virtual clock.

    Args:
        txns: transactions to submit.
        rate: offered arrival rate, transactions per virtual second.
        shards: independent commit groups.
        group_size: processors per group.
        t: crash tolerance per group (default ``(group_size - 1) // 2``).
        K: the protocol's coin-list length.
        seed: trial seed (tapes, bus faults, kill schedule).
        tick_interval: virtual seconds per protocol step.
        kills: kill/recover faults to inject during the burst.
        commit_bias: Bernoulli parameter of derived per-txn votes.
        snapshot_every: node snapshot-compaction period in steps.
        deadline: virtual-time budget (default: submission window plus
            a recovery-sized tail).
        variant: hosted protocol program.
    """
    if t is None:
        t = (group_size - 1) // 2
    window_s = txns / rate
    window_cycles = int(window_s / tick_interval) + 1
    if deadline is None:
        deadline = window_s + max(4.0, 512 * tick_interval)
    plan = None
    if kills:
        plan = kill_recover_plan(
            shards, group_size, kills, seed, window_cycles, t
        )
    shard_map = ShardMap(shards=shards, group_size=group_size)
    cluster = ServiceCluster(
        shard_configs(
            shards,
            group_size,
            t,
            K,
            seed,
            variant=variant,
            commit_bias=commit_bias,
        ),
        plan,
        seed=seed,
        tick_interval=tick_interval,
        snapshot_every=snapshot_every,
        K=K,
        workload=TxnWorkload.open_loop(txns, rate, tick_interval),
        shard_map=shard_map,
    )
    result = run_virtual(cluster.run(deadline=deadline))

    latencies = sorted(result.txn_latency.values())
    decided = len(result.txn_latency)
    makespan = 0.0
    if cluster.txn_decided_at and cluster.txn_submitted_at:
        makespan = max(cluster.txn_decided_at.values()) - min(
            cluster.txn_submitted_at.values()
        )
    throughput = decided / makespan if makespan > 0 else 0.0
    violations = sum(
        1
        for values in result.txn_decision_values().values()
        if len(values) > 1
    )
    if telemetry.enabled():
        for latency in latencies:
            telemetry.observe(
                "service_txn_decision_seconds",
                latency,
                help="submission-to-group-decision latency",
                shards=shards,
            )
    report = LoadReport(
        txns=txns,
        shards=shards,
        group_size=group_size,
        offered_rate=rate,
        seed=seed,
        kills=kills,
        outcome=result.outcome,
        submitted=len(result.submitted_txns),
        decided=decided,
        recoveries=result.recoveries,
        makespan=makespan,
        throughput=throughput,
        p50_latency=percentile(latencies, 0.50),
        p99_latency=percentile(latencies, 0.99),
        mean_latency=sum(latencies) / len(latencies) if latencies else 0.0,
        safety_violations=violations,
        undecided=result.undecided,
    )
    _log.info(
        "load: %d txns over %d shard(s) at %.0f txn/s offered -> "
        "%.0f txn/s decided, p50=%.4fs p99=%.4fs, %d violation(s)",
        txns,
        shards,
        rate,
        throughput,
        report.p50_latency,
        report.p99_latency,
        violations,
    )
    return report
