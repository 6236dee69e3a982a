"""Service clusters: co-hosted nodes under kill/recover fault schedules.

The deployable service runs one OS process per node (:mod:`repro.service.server`);
this module hosts a whole cluster inside one event loop so the fault
campaign can run thousands of crash-recovery trials on the virtual clock
(:func:`~repro.runtime.virtualtime.run_virtual`) with no real I/O.

The orchestrator realises a :class:`~repro.faults.plan.FaultPlan` in the
crash-*recovery* model: a :class:`~repro.faults.plan.CrashFault` at
cycle ``c`` cancels the node's tasks (losing all volatile state — the
SIGKILL analogue), and a ``recover_cycle`` builds a *fresh*
:class:`~repro.service.node.ServiceNode` over the same
:class:`~repro.service.wal.WalStore` — the store is the disk that
survives the process.  A crash with no ``recover_cycle`` is the paper's
fail-stop crash: the node is killed and never restarted.  The plan's
link faults reach the bus through :class:`PlanLinkFaults`.  A kill can
also leave a **torn tail** in the
store (a partial record mid-``write``), which the restarted node's WAL
repair must absorb; the orchestrator injects those with seeded
randomness so every campaign exercises the repair path.

Termination here is *service-level*: a node counts as done once it has
a decision, whether its protocol decided locally or the recovery
handshake transferred one.  The run ends when every node not
permanently crashed is done, or at the deadline (``NONTERMINATED``).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field, replace

from repro.engine.seeds import SERVICE_NODE_STREAM, derive_keyed
from repro.errors import ConfigurationError, ServiceError
from repro.faults.plan import FaultPlan
from repro.faults.safety import NONTERMINATED, TERMINATED
from repro.runtime.delays import DelayModel
from repro.runtime.transport import LinkFaultPolicy, LinkVerdict
from repro.service.bus import ServiceBus
from repro.service.node import ServiceNode, ServiceNodeSnapshot
from repro.service.recovery import NodeConfig
from repro.service.txn import DEFAULT_TXN, ShardMap
from repro.service.wal import MemoryWalStore, WalStore, encode_record
from repro.telemetry import registry as telemetry
from repro.telemetry.log import get_logger

_log = get_logger("service.cluster")


class PlanLinkFaults(LinkFaultPolicy):
    """The bus's link policy realising a FaultPlan in event-loop time.

    A dropped copy is really lost (the sender's retry-until-acked loop
    recovers it) and a duplicated one is really delivered twice (the
    receiver dedups it); reorder and per-link delay entries add latency,
    and partition windows sever links.  Cycle windows and holds scale to
    seconds by ``tick_interval``.

    Args:
        plan: the fault schedule.
        tick_interval: seconds per cycle (the node step granularity).
        K: the protocol's on-time bound (scales reorder holds).
    """

    def __init__(
        self, plan: FaultPlan, tick_interval: float = 0.002, K: int = 4
    ) -> None:
        if tick_interval <= 0:
            raise ValueError(
                f"tick_interval must be positive, got {tick_interval}"
            )
        self.plan = plan
        self.tick_interval = tick_interval
        self.K = K

    def verdict(
        self, sender: int, recipient: int, now: float, rng: random.Random
    ) -> LinkVerdict:
        cycle = now / self.tick_interval
        if self.plan.severed(sender, recipient, cycle):
            return LinkVerdict(drop=True)
        loss = self.plan.loss_for(sender, recipient)
        extra_delay = 0.0
        delay = self.plan.delay_for(sender, recipient)
        if delay is not None:
            extra_delay += self.tick_interval * rng.uniform(
                delay.min_cycles, delay.max_cycles
            )
        if loss.reorder and rng.random() < loss.reorder:
            extra_delay += self.tick_interval * rng.uniform(1, self.K)
        drop = bool(loss.drop) and rng.random() < loss.drop
        duplicates = 1 if loss.duplicate and rng.random() < loss.duplicate else 0
        return LinkVerdict(
            drop=drop, duplicates=duplicates, extra_delay=extra_delay
        )


@dataclass(frozen=True)
class TxnSubmission:
    """One scheduled transaction submission (cycle units of the tick)."""

    txn_id: int
    at_cycle: float


@dataclass(frozen=True)
class TxnWorkload:
    """A deterministic submission schedule for a multi-transaction run."""

    submissions: tuple[TxnSubmission, ...]

    @classmethod
    def open_loop(
        cls,
        count: int,
        rate: float,
        tick_interval: float,
        first_txn: int = 1,
    ) -> "TxnWorkload":
        """An open-loop arrival process: ``count`` transactions at a
        fixed ``rate`` (transactions per virtual second), submitted on
        schedule regardless of how far earlier ones have progressed.
        """
        if count < 1:
            raise ConfigurationError(f"need at least one txn, got {count}")
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate}")
        return cls(
            submissions=tuple(
                TxnSubmission(
                    txn_id=first_txn + i,
                    at_cycle=(i / rate) / tick_interval,
                )
                for i in range(count)
            )
        )


def node_configs(
    n: int,
    t: int,
    votes: list[int] | tuple[int, ...],
    K: int,
    seed: int,
    variant: str = "commit",
) -> list[NodeConfig]:
    """One :class:`NodeConfig` per pid, with derived tape seeds."""
    if len(votes) != n:
        raise ConfigurationError(
            f"got {len(votes)} votes for n={n} processors"
        )
    return [
        NodeConfig(
            pid=pid,
            n=n,
            t=t,
            K=K,
            vote=int(vote),
            tape_seed=derive_keyed(seed, SERVICE_NODE_STREAM, pid),
            variant=variant,
        )
        for pid, vote in enumerate(votes)
    ]


def shard_configs(
    shards: int,
    group_size: int,
    t: int,
    K: int,
    seed: int,
    variant: str = "commit",
    commit_bias: float = 1.0,
) -> list[NodeConfig]:
    """Node configs of a sharded multi-transaction cluster.

    ``shards`` independent commit groups of ``group_size`` processors
    each, laid out contiguously on one wire pid space: group ``g`` owns
    wire pids ``[g * group_size, (g + 1) * group_size)`` and its local
    pid 0 coordinates every transaction :class:`ShardMap` assigns to it.
    Tape seeds are keyed by *wire* pid so no two nodes anywhere share a
    random stream.
    """
    shard_map = ShardMap(shards=shards, group_size=group_size)
    configs: list[NodeConfig] = []
    for group in range(shards):
        base = shard_map.base(group)
        for pid in range(group_size):
            configs.append(
                NodeConfig(
                    pid=pid,
                    n=group_size,
                    t=t,
                    K=K,
                    vote=1,
                    tape_seed=derive_keyed(
                        seed, SERVICE_NODE_STREAM, base + pid
                    ),
                    variant=variant,
                    multi_txn=True,
                    base=base,
                    commit_bias=commit_bias,
                )
            )
    return configs


@dataclass
class ServiceClusterResult:
    """Aggregated outcome of one service-cluster run.

    ``nodes`` holds each pid's final observable state (for a killed pid,
    the state of its last life).  ``permanently_crashed`` are the pids a
    plan killed without recovery — the fail-stop subset the safety
    monitor excludes from liveness obligations.

    Multi-transaction runs additionally report, per transaction: the
    submission-to-group-decision latency in virtual seconds
    (``txn_latency``), and — when the run hit its deadline — exactly
    which nodes were still undecided on which transactions
    (``undecided``), so a ``NONTERMINATED`` outcome is attributable
    rather than a bare timeout.
    """

    nodes: list[ServiceNodeSnapshot] = field(default_factory=list)
    outcome: str = TERMINATED
    permanently_crashed: set[int] = field(default_factory=set)
    recoveries: int = 0
    bus_stats: dict[str, int] = field(default_factory=dict)
    submitted_txns: list[int] = field(default_factory=list)
    txn_latency: dict[int, float] = field(default_factory=dict)
    undecided: dict[int, list[int]] = field(default_factory=dict)

    def decisions(self) -> dict[int, int | None]:
        return {s.pid: s.decision for s in self.nodes}

    def decision_values(self) -> set[int]:
        return {s.decision for s in self.nodes if s.decision is not None}

    def txn_decision_values(self) -> dict[int, set[int]]:
        """Per transaction, the set of values any node decided — a
        singleton per key iff the run was agreement-safe."""
        values: dict[int, set[int]] = {}
        for snapshot in self.nodes:
            for txn_id, value in (snapshot.txns or {}).items():
                values.setdefault(txn_id, set()).add(value)
        return values

    @property
    def consistent(self) -> bool:
        return len(self.decision_values()) <= 1

    @property
    def terminated(self) -> bool:
        return self.outcome == TERMINATED


class ServiceCluster:
    """Runs one commit over durable nodes under a kill/recover schedule.

    Args:
        configs: per-pid protocol configs (see :func:`node_configs`).
        plan: fault schedule; crashes become kill(/restart) events and
            link faults apply to every bus transmission.
        seed: trial seed (bus fault draws, torn-tail injection, node
            retransmission jitter).
        tick_interval: seconds per protocol step.
        delay: bus latency model.
        stores: per-pid durable stores; default fresh in-memory stores.
            Pass real :class:`~repro.service.wal.FileWalStore` instances
            to run the same orchestration over disks.
        fsync: WAL fsync policy for the nodes (pointless for memory
            stores, so the default is off; the TCP service syncs).
        snapshot_every: node snapshot-compaction period in steps.
        torn_tail_probability: chance that a kill leaves a partial
            record at the victim's log tail.
        workload: multi-transaction submission schedule; each
            transaction is submitted to its shard's coordinator on
            schedule (waiting out coordinator downtime).
        shard_map: transaction-to-group assignment (defaults to one
            group spanning the whole cluster).
    """

    def __init__(
        self,
        configs: list[NodeConfig],
        plan: FaultPlan | None = None,
        *,
        seed: int = 0,
        tick_interval: float = 0.002,
        delay: DelayModel | None = None,
        stores: list[WalStore] | None = None,
        fsync: bool = False,
        snapshot_every: int = 0,
        torn_tail_probability: float = 0.25,
        K: int = 4,
        workload: TxnWorkload | None = None,
        shard_map: ShardMap | None = None,
    ) -> None:
        if not configs:
            raise ConfigurationError("a cluster needs at least one node")
        self.configs = configs
        self.n = len(configs)
        self.plan = plan if plan is not None else FaultPlan(n=self.n)
        self.seed = seed
        self.tick_interval = tick_interval
        self.fsync = fsync
        self.snapshot_every = snapshot_every
        self.torn_tail_probability = torn_tail_probability
        self.workload = workload
        self.shard_map = shard_map or ShardMap(shards=1, group_size=self.n)
        if self.shard_map.total_pids != self.n:
            raise ConfigurationError(
                f"shard map covers {self.shard_map.total_pids} wire pids "
                f"but the cluster has {self.n} nodes"
            )
        self.submitted_txns: set[int] = set()
        self.unsubmittable: set[int] = set()
        self.txn_submitted_at: dict[int, float] = {}
        self.txn_decided_at: dict[int, float] = {}
        self.stores = (
            stores
            if stores is not None
            else [MemoryWalStore() for _ in configs]
        )
        if len(self.stores) != self.n:
            raise ConfigurationError(
                f"got {len(self.stores)} stores for {self.n} nodes"
            )
        self.bus = ServiceBus(
            n=self.n,
            seed=seed,
            delay=delay,
            link_faults=PlanLinkFaults(
                self.plan, tick_interval=tick_interval, K=K
            ),
        )
        self.nodes: dict[int, ServiceNode] = {}
        self.permanently_crashed: set[int] = set()
        self.recoveries = 0
        self._live: dict[int, list[asyncio.Task]] = {}

    # -- node lifecycle ------------------------------------------------------

    def _spawn(self, pid: int) -> None:
        node = ServiceNode(
            self.configs[pid],
            self.stores[pid],
            self.bus.send,
            tick_interval=self.tick_interval,
            fsync=self.fsync,
            snapshot_every=self.snapshot_every,
            seed=self.seed,
        )
        self.nodes[pid] = node

        async def pump() -> None:
            while True:
                node.deliver(await self.bus.receive(pid))

        self._live[pid] = [
            asyncio.ensure_future(node.run()),
            asyncio.ensure_future(pump()),
        ]

    def _kill(self, pid: int, rng: random.Random) -> None:
        node = self.nodes.get(pid)
        if node is not None:
            node.halt()
        for task in self._live.pop(pid, []):
            task.cancel()
        self.bus.mark_down(pid)
        if rng.random() < self.torn_tail_probability:
            # Simulate a SIGKILL landing mid-append: a partial record at
            # the tail that the next life's WAL repair must discard.
            line = encode_record({"type": "step", "batch": []}).rstrip("\n")
            cut = rng.randint(1, max(1, len(line) - 1))
            self.stores[pid].append_line(line[:cut])
            if telemetry.enabled():
                telemetry.count(
                    "service_torn_tails_injected_total",
                    help="torn WAL tails injected by kill events",
                )

    # -- the run -------------------------------------------------------------

    async def _supervise(self, pid: int) -> None:
        loop = asyncio.get_running_loop()
        start = loop.time()
        rng = random.Random(
            derive_keyed(self.seed, SERVICE_NODE_STREAM, pid, 0xFA11)
        )
        schedule = sorted(
            (c for c in self.plan.crashes if c.pid == pid),
            key=lambda c: c.cycle,
        )
        self._spawn(pid)
        for fault in schedule:
            kill_at = start + fault.cycle * self.tick_interval
            await asyncio.sleep(max(0.0, kill_at - loop.time()))
            self._kill(pid, rng)
            _log.debug("p%d killed at cycle %d", pid, fault.cycle)
            if fault.recover_cycle is None:
                self.permanently_crashed.add(pid)
                return
            recover_at = start + fault.recover_cycle * self.tick_interval
            await asyncio.sleep(max(0.0, recover_at - loop.time()))
            self.bus.mark_up(pid)
            self.recoveries += 1
            self._spawn(pid)
            _log.debug("p%d restarted at cycle %d", pid, fault.recover_cycle)

    # -- multi-transaction traffic ---------------------------------------------

    def _group_members(self, txn_id: int) -> range:
        return self.shard_map.members(self.shard_map.group_of(txn_id))

    async def _drive_workload(self) -> None:
        """Submit the workload on schedule, each transaction to its
        shard's coordinator (waiting out coordinator downtime — the
        submit record is durable, so one accepted submission is enough).
        """
        assert self.workload is not None
        loop = asyncio.get_running_loop()
        start = loop.time()
        for submission in sorted(
            self.workload.submissions, key=lambda s: s.at_cycle
        ):
            target = start + submission.at_cycle * self.tick_interval
            await asyncio.sleep(max(0.0, target - loop.time()))
            await self._submit_txn(submission.txn_id)

    async def _submit_txn(self, txn_id: int) -> None:
        pid = self.shard_map.coordinator(txn_id)
        while True:
            node = self.nodes.get(pid)
            if pid in self._live and node is not None and node.ready:
                try:
                    node.submit_txn(txn_id)
                except ServiceError:
                    # A recovered coordinator already holds the durable
                    # submit record: the transaction is in flight.
                    pass
                self.submitted_txns.add(txn_id)
                self.txn_submitted_at.setdefault(
                    txn_id, asyncio.get_running_loop().time()
                )
                return
            if pid in self.permanently_crashed:
                self.unsubmittable.add(txn_id)
                _log.warning(
                    "txn %d unsubmittable: coordinator p%d is "
                    "permanently crashed",
                    txn_id,
                    pid,
                )
                return
            await asyncio.sleep(self.tick_interval)

    def _note_completions(self, now: float) -> None:
        """Record the first instant every non-crashed member of a
        transaction's group holds a decision for it."""
        for txn_id in self.submitted_txns:
            if txn_id in self.txn_decided_at:
                continue
            members = [
                pid
                for pid in self._group_members(txn_id)
                if pid not in self.permanently_crashed
            ]
            if members and all(
                pid in self._live
                and self.nodes.get(pid) is not None
                and txn_id in self.nodes[pid].decisions()
                for pid in members
            ):
                self.txn_decided_at[txn_id] = now

    def _undecided_map(self) -> dict[int, list[int]]:
        """Which nodes still lack decisions on which transactions —
        the structured content behind a ``NONTERMINATED`` outcome."""
        if self.workload is None:
            return {
                pid: [DEFAULT_TXN]
                for pid in range(self.n)
                if pid not in self.permanently_crashed
                and not (
                    pid in self._live
                    and self.nodes.get(pid) is not None
                    and self.nodes[pid].decision is not None
                )
            }
        pending: dict[int, list[int]] = {}
        for txn_id in sorted(self.submitted_txns):
            for pid in self._group_members(txn_id):
                if pid in self.permanently_crashed:
                    continue
                node = self.nodes.get(pid)
                if (
                    pid not in self._live
                    or node is None
                    or txn_id not in node.decisions()
                ):
                    pending.setdefault(pid, []).append(txn_id)
        return pending

    async def _all_done(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if self.workload is not None:
                self._note_completions(loop.time())
                dispatched = len(self.submitted_txns) + len(
                    self.unsubmittable
                ) == len(self.workload.submissions)
                if dispatched and not self._undecided_map():
                    return
            else:
                done = all(
                    pid in self.permanently_crashed
                    or (
                        pid in self._live
                        and self.nodes[pid].decision is not None
                    )
                    for pid in range(self.n)
                )
                if done:
                    return
            await asyncio.sleep(self.tick_interval)

    async def run(self, deadline: float = 5.0) -> ServiceClusterResult:
        """Run the commit(s) to service-level termination or ``deadline``.

        A deadline expiry is reported as a structured outcome — the
        result's ``undecided`` map names every (node, transaction) pair
        still open — never as a bare ``TimeoutError``.
        """
        supervisors = [
            asyncio.ensure_future(self._supervise(pid))
            for pid in range(self.n)
        ]
        driver = None
        if self.workload is not None:
            driver = asyncio.ensure_future(self._drive_workload())
        undecided: dict[int, list[int]] = {}
        try:
            await asyncio.wait_for(self._all_done(), timeout=deadline)
            outcome = TERMINATED
        except asyncio.TimeoutError:
            outcome = NONTERMINATED
            undecided = self._undecided_map()
            _log.warning(
                "service run hit the %.3fs deadline; undecided: %s",
                deadline,
                {pid: txns for pid, txns in sorted(undecided.items())},
            )
        finally:
            for task in supervisors:
                task.cancel()
            if driver is not None:
                driver.cancel()
            for node in self.nodes.values():
                node.halt()
            for tasks in self._live.values():
                for task in tasks:
                    task.cancel()
            await asyncio.gather(
                *supervisors,
                *([driver] if driver is not None else []),
                *(t for tasks in self._live.values() for t in tasks),
                return_exceptions=True,
            )
        # A node's snapshot is its header; a result also lists decisions.
        snapshots = [
            replace(
                node.snapshot_state(),
                txns=node.decisions() if node.config.multi_txn else None,
            )
            for _pid, node in sorted(self.nodes.items())
        ]
        if telemetry.enabled():
            telemetry.count(
                "service_runs_total", help="service cluster runs", outcome=outcome
            )
        return ServiceClusterResult(
            nodes=snapshots,
            outcome=outcome,
            permanently_crashed=set(self.permanently_crashed),
            recoveries=self.recoveries,
            bus_stats={
                "delivered": self.bus.delivered,
                "dropped": self.bus.dropped,
            },
            submitted_txns=sorted(self.submitted_txns),
            txn_latency={
                txn_id: self.txn_decided_at[txn_id]
                - self.txn_submitted_at[txn_id]
                for txn_id in self.txn_decided_at
                if txn_id in self.txn_submitted_at
            },
            undecided=undecided,
        )
