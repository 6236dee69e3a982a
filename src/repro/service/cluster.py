"""Service clusters: co-hosted nodes under kill/recover fault schedules.

The deployable service runs one OS process per node (:mod:`repro.service.server`);
this module hosts a whole cluster inside one event loop so the fault
campaign can run thousands of crash-recovery trials on the virtual clock
(:func:`~repro.service.virtualtime.run_virtual`) with no real I/O.

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

Termination here is *service-level*: a node is done with a transaction
once it has a decision for it, whether its protocol decided locally or
the recovery handshake transferred one.  The run ends when every member
not permanently crashed is done with every transaction of the workload
(:class:`TxnWorkload`; by default the single commit of transaction 0),
or at the deadline (``NONTERMINATED``).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field, replace

from repro.engine.seeds import SERVICE_NODE_STREAM, derive_keyed
from repro.errors import ConfigurationError, ServiceError
from repro.faults.plan import FaultPlan
from repro.faults.safety import NONTERMINATED, TERMINATED
from repro.service.bus import (
    DelayModel,
    LinkFaultPolicy,
    LinkVerdict,
    ServiceBus,
)
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
    """A deterministic submission schedule.

    Attributes:
        submissions: transactions submitted to their coordinator on
            schedule.
        opening: transactions every member of their group opens when it
            creates its log, before its first step.
    """

    submissions: tuple[TxnSubmission, ...] = ()
    opening: tuple[int, ...] = ()

    @classmethod
    def single_commit(cls) -> "TxnWorkload":
        """The paper's one commit: transaction 0, which every processor
        starts from its vote (:attr:`NodeConfig.vote`)."""
        return cls(opening=(DEFAULT_TXN,))

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
    """One group's :class:`NodeConfig` per pid, with derived tape seeds."""
    return shard_configs(1, n, t, K, seed, variant=variant, votes=votes)


def shard_configs(
    shards: int,
    group_size: int,
    t: int,
    K: int,
    seed: int,
    variant: str = "commit",
    commit_bias: float = 1.0,
    votes: list[int] | tuple[int, ...] | None = None,
) -> list[NodeConfig]:
    """Node configs of a sharded cluster.

    ``shards`` independent commit groups of ``group_size`` processors
    each, laid out contiguously on one wire pid space: group ``g`` owns
    wire pids ``[g * group_size, (g + 1) * group_size)`` and its local
    pid 0 coordinates every transaction :class:`ShardMap` assigns to it.
    Tape seeds are keyed by *wire* pid so no two nodes anywhere share a
    random stream.  ``votes`` are transaction 0's, by local pid (default
    all 1).
    """
    if votes is None:
        votes = [1] * group_size
    if len(votes) != group_size:
        raise ConfigurationError(
            f"got {len(votes)} votes for n={group_size} processors"
        )
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
                    vote=int(votes[pid]),
                    tape_seed=derive_keyed(
                        seed, SERVICE_NODE_STREAM, base + pid
                    ),
                    variant=variant,
                    base=base,
                    commit_bias=commit_bias,
                )
            )
    return configs


@dataclass
class ServiceClusterResult:
    """Aggregated outcome of one service-cluster run.

    ``nodes`` holds each pid's final observable state (for a killed pid,
    the state of its last life), ``txns`` listing its decisions.
    ``permanently_crashed`` are the pids a plan killed without recovery
    — the fail-stop subset the safety monitor excludes from liveness
    obligations.  ``transfer_decisions`` counts the (node, transaction)
    decisions adopted via the recovery handshake.

    Per transaction the result also reports the submission-to-group-
    decision latency in virtual seconds (``txn_latency``), and — when
    the run hit its deadline — exactly which nodes were still undecided
    on which transactions (``undecided``), so a ``NONTERMINATED``
    outcome is attributable rather than a bare timeout.
    """

    nodes: list[ServiceNodeSnapshot] = field(default_factory=list)
    outcome: str = TERMINATED
    permanently_crashed: set[int] = field(default_factory=set)
    recoveries: int = 0
    bus_stats: dict[str, int] = field(default_factory=dict)
    submitted_txns: list[int] = field(default_factory=list)
    txn_latency: dict[int, float] = field(default_factory=dict)
    undecided: dict[int, list[int]] = field(default_factory=dict)
    transfer_decisions: int = 0

    def decisions(self, txn_id: int) -> dict[int, int | None]:
        """Each node's decision for ``txn_id`` (``None``: undecided)."""
        return {s.pid: (s.txns or {}).get(txn_id) for s in self.nodes}

    def decision_values(self) -> set[int]:
        """Every value any node decided, for any transaction."""
        return set().union(*self.txn_decision_values().values())

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
        """No transaction was decided two ways."""
        return all(
            len(values) <= 1 for values in self.txn_decision_values().values()
        )

    @property
    def terminated(self) -> bool:
        return self.outcome == TERMINATED


class ServiceCluster:
    """Runs a workload over durable nodes under a kill/recover schedule.

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
        workload: the transactions to decide (default: the single
            commit of transaction 0); each submission goes to its
            shard's coordinator on schedule (waiting out coordinator
            downtime).
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
        self.workload = (
            workload if workload is not None else TxnWorkload.single_commit()
        )
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
        #: Every node task of every life, killed ones too (see :meth:`run`).
        self._tasks: list[asyncio.Task] = []

    # -- node lifecycle ------------------------------------------------------

    def _spawn(self, pid: int) -> None:
        node = ServiceNode(
            self.configs[pid],
            self.stores[pid],
            self.bus.send,
            tick_interval=self.tick_interval,
            fsync=self.fsync,
            opening=[
                txn_id
                for txn_id in self.workload.opening
                if pid in self._group_members(txn_id)
            ],
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
        self._tasks.extend(self._live[pid])

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

    # -- the workload --------------------------------------------------------

    def _group_members(self, txn_id: int) -> range:
        return self.shard_map.members(self.shard_map.group_of(txn_id))

    async def _drive_workload(self) -> None:
        """Submit the workload on schedule, each transaction to its
        shard's coordinator (waiting out coordinator downtime — the
        submit record is durable, so one accepted submission is enough).
        """
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
            self._note_completions(loop.time())
            dispatched = len(self.submitted_txns) + len(
                self.unsubmittable
            ) == len(self.workload.submissions) + len(self.workload.opening)
            if dispatched and not self._undecided_map():
                return
            await asyncio.sleep(self.tick_interval)

    async def run(self, deadline: float = 5.0) -> ServiceClusterResult:
        """Run the commit(s) to service-level termination or ``deadline``.

        A deadline expiry is reported as a structured outcome — the
        result's ``undecided`` map names every (node, transaction) pair
        still open — never as a bare ``TimeoutError``.

        Raises:
            Exception: the first error a node, pump, supervisor or
                workload task ended with, once every task is torn down.
        """
        started = asyncio.get_running_loop().time()
        for txn_id in self.workload.opening:
            self.submitted_txns.add(txn_id)
            self.txn_submitted_at[txn_id] = started
        supervisors = [
            asyncio.ensure_future(self._supervise(pid))
            for pid in range(self.n)
        ]
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
            driver.cancel()
            for node in self.nodes.values():
                node.halt()
            for tasks in self._live.values():
                for task in tasks:
                    task.cancel()
            ended = await asyncio.gather(
                *supervisors, driver, *self._tasks, return_exceptions=True
            )
        # A node that raised is dead, not blocked: the run fails with its
        # error.  A cancellation (how a run ends and a kill lands) is no
        # ``Exception``.
        for error in ended:
            if isinstance(error, Exception):
                raise error
        # A node's snapshot is its header; a result also lists decisions.
        snapshots = [
            replace(node.snapshot_state(), txns=node.decisions())
            for _pid, node in sorted(self.nodes.items())
        ]
        if telemetry.enabled():
            telemetry.count(
                "service_runs_total", help="service cluster runs", outcome=outcome
            )
            # Instances still open are recorded from each pid's last
            # life, whose replay rebuilt their whole history; a closed
            # one was recorded when its node closed it.
            from repro.telemetry.summary import record_trial

            record_trial(
                telemetry.get_registry(),
                [
                    instance.process.program
                    for node in self.nodes.values()
                    for instance in node.mux.live.values()
                ],
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
            transfer_decisions=sum(
                instance.decision_origin == "transfer"
                for node in self.nodes.values()
                for instance in node.mux.instances.values()
            ),
        )
