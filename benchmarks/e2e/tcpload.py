"""The driver of the three ``tcp3_*`` workloads.

One driver process speaks the public client protocol
(:func:`repro.service.client.request` with ``submit`` and
``state-query`` envelopes) to a three-node cluster started by
:mod:`cluster`.  It keeps one submit connection and one poll connection
open at a time, so what it measures is the service, not the driver's own
fan-out:

* a transaction is **due** at its scheduled time (open loop) or when a
  window slot frees up (closed loop), **submitted** when the coordinator
  (node 0) acknowledges it, and **decided for the client** at the first
  10 ms ``state-query`` poll of the coordinator that lists it;
* open-loop latency runs from the due time, so a stall is charged to
  every transaction that was due during it; closed-loop latency runs
  from the moment the submit was sent;
* after the load all three nodes are polled until each lists every
  submitted transaction; a transaction missing anywhere, or decided
  differently on two nodes, is a failed operation.

Kill schedules SIGKILL a node when the generator reaches a fixed
transaction index; submits that are due while the coordinator is down
are retried until accepted and still timed from their due time.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from cluster import HOST, ClusterError, NodeCluster

from repro.errors import ServiceError
from repro.service.client import request
from repro.service.load import percentile
from repro.service.wire import ServiceEnvelope

POLL_INTERVAL = 0.010
SUBMIT_RETRY_INTERVAL = 0.020
#: Bounded waits after the load: for the client to see every decision,
#: then for every node to list every transaction.
DRAIN_TIMEOUT = 20.0
AGREEMENT_TIMEOUT = 20.0
#: The open-loop latency limit (ms) whose violations are printed as detail.
LATENCY_LIMIT_MS = 250.0
#: A generator later than this (p99, ms) did not offer the stated load.
GEN_LATE_LIMIT_MS = 25.0


@dataclass(frozen=True)
class Kill:
    """SIGKILL ``node`` when the generator reaches ``at`` (a share of the
    planned transactions); restart it ``restart_delay`` seconds later."""

    node: int
    at: float
    restart_delay: float


@dataclass(frozen=True)
class TcpWorkload:
    name: str
    mode: str  # "open" | "closed"
    rate: float = 0.0  # open loop: transactions due per second
    window: int = 0  # closed loop: transactions outstanding
    commit_bias: float = 1.0
    kills: tuple[Kill, ...] = ()
    #: Read node RSS when this many transactions are decided (0: at the end
    #: of the load).  A time-boxed closed loop decides more the faster it
    #: is; memory read at its end would charge a speed-up as a regression.
    rss_after: int = 0


WORKLOADS = {
    "tcp3_open20": TcpWorkload("tcp3_open20", "open", rate=20.0),
    "tcp3_closed16": TcpWorkload("tcp3_closed16", "closed", window=16, rss_after=800),
    "tcp3_killrecover": TcpWorkload(
        "tcp3_killrecover",
        "open",
        rate=10.0,
        commit_bias=0.8,
        kills=(
            Kill(node=2, at=0.10, restart_delay=1.0),
            Kill(node=0, at=0.30, restart_delay=0.0),
            Kill(node=0, at=0.55, restart_delay=0.0),
        ),
    ),
}


def smoke_variant(workload: TcpWorkload) -> TcpWorkload:
    """The same workload with exactly one kill, half-way: the coordinator
    where the workload kills coordinators, participant 2 elsewhere."""
    if workload.kills:
        kill = Kill(node=0, at=0.5, restart_delay=0.0)
    else:
        kill = Kill(node=2, at=0.5, restart_delay=0.2)
    return replace(workload, kills=(kill,))


async def client_request(port: int, envelope: ServiceEnvelope, timeout: float):
    """One request; ``None`` when the node is down, slow or answers garbage."""
    try:
        return await request(HOST, port, envelope, timeout=timeout)
    except (OSError, asyncio.TimeoutError, ServiceError):
        return None


async def query_status(port: int, timeout: float = 1.0) -> dict | None:
    reply = await client_request(
        port, ServiceEnvelope(kind="state-query", sender=-1), timeout
    )
    if reply is None:
        return None
    return reply.body.get("status") or None


def listed_txns(status: dict) -> dict[int, int]:
    """``txn -> decision`` from a status document (JSON keys are strings)."""
    return {int(txn): value for txn, value in (status.get("txns") or {}).items()}


@dataclass
class Restart:
    node: int
    killed_at: float
    exec_at: float = 0.0
    recover_s: float | None = None
    catchup_s: float | None = None
    unavailable_s: float | None = None
    wal_copy: Path | None = None


@dataclass
class LoadRun:
    """State of one load run against one cluster."""

    cluster: NodeCluster
    workload: TcpWorkload
    seconds: float
    due: dict[int, float] = field(default_factory=dict)
    sent: dict[int, float] = field(default_factory=dict)
    acked: dict[int, float] = field(default_factory=dict)
    decided_at: dict[int, float] = field(default_factory=dict)
    client_decision: dict[int, int] = field(default_factory=dict)
    refused: dict[int, str] = field(default_factory=dict)
    submit_ms: list[float] = field(default_factory=list)
    poll_ms: list[float] = field(default_factory=list)
    gen_late_ms: list[float] = field(default_factory=list)
    submit_retries: int = 0
    polls: int = 0
    restarts: list[Restart] = field(default_factory=list)
    rss_mb: float | None = None
    last_status: dict | None = None
    _kills: list[Kill] = field(default_factory=list)
    _coordinator_down: Restart | None = None
    _news: asyncio.Event = field(default_factory=asyncio.Event)
    _stop_polling: bool = False
    _tasks: list[asyncio.Task] = field(default_factory=list)

    # -- the two client connections ------------------------------------------

    async def _poll_loop(self) -> None:
        port = self.cluster.port(0)
        next_poll = time.perf_counter()
        while not self._stop_polling:
            started = time.perf_counter()
            status = await query_status(port)
            now = time.perf_counter()
            if status is not None:
                self.polls += 1
                self.poll_ms.append((now - started) * 1e3)
                self.last_status = status
                fresh = False
                for txn, value in listed_txns(status).items():
                    if txn not in self.decided_at:
                        self.decided_at[txn] = now
                        self.client_decision[txn] = value
                        fresh = True
                if fresh:
                    self._news.set()
                    if (
                        self.rss_mb is None
                        and 0 < self.workload.rss_after <= len(self.decided_at)
                    ):
                        self.rss_mb = self.cluster.largest_rss_mb()
            next_poll = max(next_poll + POLL_INTERVAL, now)
            await asyncio.sleep(max(0.0, next_poll - time.perf_counter()))

    async def _submit(self, txn: int, give_up_at: float) -> None:
        """Submit ``txn`` to the coordinator, retrying while it is down."""
        port = self.cluster.port(0)
        envelope = ServiceEnvelope(kind="submit", sender=-1, body={"txn": txn})
        self.sent[txn] = time.perf_counter()
        while True:
            started = time.perf_counter()
            reply = await client_request(port, envelope, timeout=2.0)
            now = time.perf_counter()
            if reply is not None:
                error = reply.body.get("error")
                # The kill can land between the durable submit record and
                # the ack, so a retry may find the transaction already open.
                if error is None or "duplicate submission" in error or "already decided" in error:
                    self.acked[txn] = now
                    self.submit_ms.append((now - started) * 1e3)
                    if self._coordinator_down is not None:
                        down = self._coordinator_down
                        down.unavailable_s = now - down.killed_at
                        self._coordinator_down = None
                    return
                self.refused[txn] = error
                return
            if now >= give_up_at:
                self.refused[txn] = "never accepted"
                return
            self.submit_retries += 1
            await asyncio.sleep(SUBMIT_RETRY_INTERVAL)

    # -- faults --------------------------------------------------------------

    def _fire_kills(self, progress: float) -> None:
        """SIGKILL every victim whose point in the run has been reached."""
        while self._kills and self._kills[0].at <= progress:
            self._kill(self._kills.pop(0))

    def _kill(self, kill: Kill) -> None:
        self.cluster.sigkill(kill.node)
        restart = Restart(node=kill.node, killed_at=time.perf_counter())
        if self.cluster.traced:
            # Offline replay timing needs the WAL exactly as the victim
            # left it; the copy delays the restart by a few milliseconds,
            # which is why only the traced run pays for it.
            label = f"node{kill.node}-{len(self.restarts)}"
            restart.wal_copy = self.cluster.copy_wal(kill.node, label)
        if kill.node == 0:
            self._coordinator_down = restart
        self.restarts.append(restart)
        self._tasks.append(asyncio.ensure_future(self._restart(kill, restart)))

    async def _restart(self, kill: Kill, restart: Restart) -> None:
        if kill.restart_delay:
            await asyncio.sleep(kill.restart_delay)
        incarnation = sum(1 for r in self.restarts if r.node == kill.node)
        life = self.cluster.spawn(kill.node)
        restart.exec_at = life.started_at
        port = self.cluster.port(kill.node)
        deadline = time.perf_counter() + 60.0
        while time.perf_counter() < deadline:
            if life.popen.poll() is not None:
                raise ClusterError(
                    f"restarted node {kill.node} exited: "
                    f"{self.cluster.stderr_tail(kill.node)}"
                )
            status = await query_status(port)
            now = time.perf_counter()
            if status is not None and status.get("incarnation", 0) >= incarnation:
                if restart.recover_s is None:
                    restart.recover_s = now - restart.exec_at
                if kill.node == 0:
                    return
                # A participant has caught up when it lists everything the
                # coordinator listed at the poller's latest reading.
                wanted = set(listed_txns(self.last_status or {}))
                if wanted <= set(listed_txns(status)):
                    restart.catchup_s = now - restart.exec_at
                    return
            await asyncio.sleep(POLL_INTERVAL)
        raise ClusterError(f"restarted node {kill.node} never recovered")

    # -- generators ----------------------------------------------------------

    async def _open_loop(self, started: float) -> None:
        rate = self.workload.rate
        planned = max(1, int(round(rate * self.seconds)))
        give_up_at = started + self.seconds + DRAIN_TIMEOUT
        for txn in range(1, planned + 1):
            due = started + (txn - 1) / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            # By transaction index, not by the clock: a generator held up
            # by an outage must not fire the next kill into that outage.
            self._fire_kills((txn - 1) / planned)
            self.due[txn] = due
            self.gen_late_ms.append((time.perf_counter() - due) * 1e3)
            await self._submit(txn, give_up_at)

    async def _closed_loop(self, started: float) -> None:
        deadline = started + self.seconds
        give_up_at = deadline + DRAIN_TIMEOUT
        txn = 0
        while time.perf_counter() < deadline:
            self._fire_kills((time.perf_counter() - started) / self.seconds)
            outstanding = len(self.acked) - len(self.decided_at)
            if outstanding >= self.workload.window:
                self._news.clear()
                try:
                    await asyncio.wait_for(
                        self._news.wait(), timeout=deadline - time.perf_counter()
                    )
                except asyncio.TimeoutError:
                    break
                continue
            txn += 1
            self.due[txn] = time.perf_counter()
            await self._submit(txn, give_up_at)

    async def run(self) -> float:
        """Offer the load, wait for the client to see every decision;
        returns the start time of the load."""
        self._kills = sorted(self.workload.kills, key=lambda kill: kill.at)
        poller = asyncio.ensure_future(self._poll_loop())
        started = time.perf_counter()
        try:
            if self.workload.mode == "open":
                await self._open_loop(started)
            else:
                await self._closed_loop(started)
            drain_until = time.perf_counter() + DRAIN_TIMEOUT
            while time.perf_counter() < drain_until:
                if all(txn in self.decided_at for txn in self.acked):
                    break
                await asyncio.sleep(POLL_INTERVAL)
            for task in self._tasks:  # restarts still polling for catch-up
                await asyncio.wait_for(task, timeout=DRAIN_TIMEOUT)
        finally:
            self._stop_polling = True
            for task in self._tasks:
                task.cancel()
            await asyncio.gather(poller, *self._tasks, return_exceptions=True)
        if self.rss_mb is None:
            self.rss_mb = self.cluster.largest_rss_mb()
        return started

    # -- correctness ---------------------------------------------------------

    async def check_agreement(self) -> dict[int, str]:
        """Per-transaction agreement across every node; ``txn -> reason`` of
        each failed operation."""
        failed = dict(self.refused)
        submitted = set(self.acked)
        views: dict[int, dict[int, int]] = {}
        deadline = time.perf_counter() + AGREEMENT_TIMEOUT
        for node in range(self.cluster.n):
            while True:
                status = await query_status(self.cluster.port(node), timeout=2.0)
                if status is not None:
                    views[node] = listed_txns(status)
                    if submitted <= set(views[node]):
                        break
                if time.perf_counter() >= deadline:
                    break
                await asyncio.sleep(0.05)
        for txn in sorted(submitted):
            seen = {node: view.get(txn) for node, view in views.items()}
            values = set(seen.values())
            if len(views) < self.cluster.n or None in values:
                failed[txn] = f"undecided somewhere: {seen}"
            elif len(values) != 1:
                failed[txn] = f"disagreement: {seen}"
            elif self.client_decision.get(txn) not in values:
                failed[txn] = (
                    f"client saw {self.client_decision.get(txn)}, nodes hold {seen}"
                )
        return failed


def load_metrics(run: LoadRun, started: float, failed: dict[int, str]) -> dict:
    """End-to-end numbers and client-side detail of one finished load."""
    good = sorted(
        (txn for txn in run.decided_at if txn in run.acked and txn not in failed),
        key=run.decided_at.__getitem__,
    )
    if not good:
        raise ClusterError(
            f"no transaction was decided on {run.workload.name}: "
            f"{list(failed.items())[:3]}"
        )
    origin = run.due if run.workload.mode == "open" else run.sent
    latency = [(run.decided_at[txn] - origin[txn]) * 1e3 for txn in good]
    first = min(run.sent.values())
    last = run.decided_at[good[-1]]
    # The second half of the decisions: long enough to average over this
    # box's disk, late enough to show what grows with history.
    tail = max(1, len(good) // 2)
    tail_from = run.decided_at[good[-tail - 1]] if tail < len(good) else first
    return {
        "decided": len(good),
        "ops_per_s": len(good) / (last - first),
        "tail_ops_per_s": tail / max(last - tail_from, 1e-9),
        "op_p50_ms": percentile(latency, 0.50),
        "client.op_p90_ms": percentile(latency, 0.90),
        "client.op_p99_ms": percentile(latency, 0.99),
        "latency_samples": len(latency),
        "client.over_250ms_share": 100.0
        * sum(1 for ms in latency if ms > LATENCY_LIMIT_MS)
        / len(latency),
        "load_seconds": last - first,
        "peak_rss_mb": run.rss_mb,
        "client.submit_ms": statistics.fmean(run.submit_ms),
        "client.poll_ms": statistics.fmean(run.poll_ms),
        "client.polls": float(run.polls),
        "client.submit_retries": float(run.submit_retries),
        "client.gen_late_p99_ms": percentile(run.gen_late_ms, 0.99)
        if run.gen_late_ms
        else 0.0,
    }
