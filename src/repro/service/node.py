"""The service node: one durable, restartable commit-protocol process.

A :class:`ServiceNode` wraps the same generator state machine the
simulator drives
(:class:`~repro.sim.process.SimProcess`) in the crash-*recovery* fault
model: everything volatile — the generator, the dedup set, the
retransmission queues — can vanish at any instant (SIGKILL, supervisor
cancellation), and the node's next life rebuilds all of it from the
write-ahead log (:mod:`repro.service.wal`, :mod:`repro.service.recovery`).

The run loop (:meth:`ServiceNode.run`) works in *passes* and follows
two rules.

**Stepping is event-driven.**  A pass begins when an envelope arrives, a
client submits, the node is halted or the tick fires; it absorbs what is
queued (control traffic — acks, state queries — is handled inline and
never logged) and, if there is a batch or an undecided instance, takes a
step: the ``step`` record (the batch is the replay input) is appended
and the batch applied to the state machine.  The tick is never waited
for while some undecided instance is *runnable*, i.e. the wait it armed
at its last step is already satisfied
(:attr:`~repro.service.txn.InstanceMux.runnable`): the pass goes on
taking (empty) steps until none is.  The paper checks a ``wait`` once
per step and counts steps, not timers, and each extra step is a logged
replay input like any other.  One thing makes a pass start later than
it could: a step ticks the clock of *every* open instance, so when
traffic arrives while several are open, what the event loop has already
read is let in first and shares the step (see :meth:`_pump_once`).

**Durability is per pass, not per record.**  A pass appends its submit,
step, decision and transfer records, syncs the log once, and only then
releases what it made visible:

* acknowledgements of the batch's envelopes — an acked envelope is
  durable by construction, so senders may safely forget it;
* every other send: the step's outgoing messages (their
  retry-until-acked loops), state transfers, re-sends;
* replies to clients (the submit acknowledgement, a duplicate-submission
  rejection, a status report), through :meth:`ServiceNode.durable`;
* decisions, to anyone who asks: a pass is synchronous, so no other task
  runs between a decision's append and the sync.

The rule is enforced in one place: while the log holds an unsynced
record nothing is sent (:meth:`ServiceNode._send` holds it for the end
of the pass).  A submission that arrives between passes is appended at
once, wakes the loop, and shares the next pass's sync.

Reliability is node-level on purpose: retransmit state dies with the
process and is regenerated by replay (every outgoing envelope the
previous life produced is resent with its *original* identity; receivers
deduplicate).  While any hosted transaction is undecided the node also
runs the recovery handshake (:meth:`ServiceNode._watch_stalls`):
periodic ``state-query`` broadcasts that name those transactions,
answered by peers with ``state-transfer`` — so it can adopt a decision
the group reached while it was dead, even after senders'
retransmissions stopped mattering.

Every node hosts its transactions by id (:mod:`repro.service.txn`).  A
single commit is transaction 0 opened on every member before its first
step (``opening``), which is where the paper's processor starts: from
its vote.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.engine.seeds import SERVICE_NODE_STREAM, derive_keyed
from repro.errors import ServiceError
from repro.service.recovery import (
    NodeConfig,
    ReplayResult,
    batch_to_record,
    replay,
)
from repro.service.txn import DEFAULT_TXN, InstanceMux, tag_txn
from repro.service.wal import (
    WalStore,
    WriteAheadLog,
    canonical,
    read_snapshot,
    reset_log_after_compaction,
    split_log_suffix,
    write_snapshot,
)
from repro.service.wire import ServiceEnvelope
from repro.telemetry import registry as telemetry
from repro.telemetry.log import get_logger
from repro.trace.spans import active_recorder, node_track

_log = get_logger("service.node")

#: ``send(recipient, envelope, attempt)`` — fire-and-forget transmission.
SendFn = Callable[[int, ServiceEnvelope, int], None]


@dataclass(frozen=True)
class Reliability:
    """Retransmission parameters for lossy links.

    Attributes:
        base_timeout: seconds before the first retransmission.
        max_backoff: cap on the (exponentially growing) timeout.
        jitter: fractional timeout spread; each wait is scaled by a
            factor uniform in ``[1 - jitter, 1 + jitter]``.
        max_retries: retransmission budget per envelope; ``None`` retries
            until acknowledged, a crash, or transport close.
    """

    base_timeout: float = 0.012
    max_backoff: float = 0.2
    jitter: float = 0.4
    max_retries: int | None = None

    def __post_init__(self) -> None:
        if self.base_timeout <= 0:
            raise ValueError(
                f"base_timeout must be positive, got {self.base_timeout}"
            )
        if self.max_backoff < self.base_timeout:
            raise ValueError(
                f"max_backoff {self.max_backoff} below base_timeout "
                f"{self.base_timeout}"
            )
        if not 0 <= self.jitter < 1:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )


@dataclass
class ServiceNodeSnapshot:
    """One node's externally observable state, for results and ``status``.

    The first four fields are the *header*: what
    :meth:`ServiceNode.snapshot_state` fills, at a cost that does not
    grow with the transactions already decided.  ``txns`` (every
    transaction's decision) is added by whoever lists them: the
    in-memory cluster's result, and the TCP server's ``state-query``
    reply, which splices the same map in as text.
    """

    pid: int
    incarnation: int
    steps: int
    wal_records: int
    txns: dict[int, int] | None = None


class ServiceNode:
    """One commit-service process: durable, restartable, self-healing.

    Args:
        config: protocol identity (pinned in the WAL ``init`` record).
        store: the node's durable storage; survives this object.
        send: the transport's transmission hook.
        tick_interval: seconds between steps when nothing else causes
            one (see the module docstring).
        reliability: retransmission parameters (default: first retry
            after 6 ticks, back-off capped at 64 ticks).
        fsync: fsync the WAL once per pass (see
            :class:`~repro.service.wal.WriteAheadLog`).
        opening: transactions this node submits to itself when it
            creates its log, before its first step (a single commit:
            transaction 0 on every member).  A node that recovers finds
            their ``submit`` records in its log.
        snapshot_every: compact the WAL into a snapshot every this many
            steps (``0`` disables snapshots).
        seed: trial seed for retransmission/backoff jitter randomness.
    """

    def __init__(
        self,
        config: NodeConfig,
        store: WalStore,
        send: SendFn,
        *,
        tick_interval: float = 0.002,
        reliability: Reliability | None = None,
        fsync: bool = True,
        opening: Iterable[int] = (),
        snapshot_every: int = 0,
        seed: int = 0,
    ) -> None:
        self.config = config
        self.store = store
        self.wal = WriteAheadLog(store, fsync=fsync)
        self._send_raw = send
        self.tick_interval = tick_interval
        self.reliability = reliability or Reliability(
            base_timeout=6 * tick_interval,
            max_backoff=64 * tick_interval,
            jitter=0.4,
            max_retries=None,
        )
        self.opening = tuple(opening)
        self.snapshot_every = snapshot_every
        self.seed = seed

        self.mux = InstanceMux(config)
        self.incarnation = 0
        self.recovered = False
        self.inbox: deque[ServiceEnvelope] = deque()
        self.done = asyncio.Event()
        self._halted = False
        #: Ends the run loop's wait: an envelope, a submission or halt.
        self._wake = asyncio.Event()
        self._steps = 0
        self._next_seq = 0
        self._applied: set[tuple[int, int, int]] = set()
        self._pending: list[ServiceEnvelope] = []
        self._pending_ids: set[tuple[int, int, int]] = set()
        #: Envelopes a retransmit loop is still sending, by ack key
        #: ``(recipient, incarnation, seq)``: the event the ack sets, and
        #: the envelope for :meth:`peer_returned`.  An entry lives exactly
        #: as long as its loop.
        self._acked: dict[
            tuple[int, int, int], tuple[asyncio.Event, ServiceEnvelope]
        ] = {}
        #: Sends held back, and :meth:`durable` callers waiting, until
        #: the pass's sync.
        self._held: list[tuple[int, ServiceEnvelope, int]] = []
        self._barriers: list[asyncio.Future] = []
        #: The canonical text of every durable-or-about-to-be record, in
        #: order: what the next snapshot stores.
        self._history: list[str] = []
        self._tasks: set[asyncio.Task] = set()
        self._control_attempts = 0
        self._steps_since_snapshot = 0

    # -- identity ------------------------------------------------------------

    @property
    def pid(self) -> int:
        return self.config.pid

    @property
    def wire_pid(self) -> int:
        """This node's transport address (group base + local pid)."""
        return self.config.wire_pid

    def decisions(self) -> dict[int, int]:
        """Effective decisions across every hosted transaction."""
        return self.mux.decisions()

    @property
    def ready(self) -> bool:
        """Whether the node's life has begun (``init``/``recover`` is
        logged), making it safe to append submissions."""
        return bool(self._history)

    def snapshot_state(self) -> ServiceNodeSnapshot:
        """The header (see :class:`ServiceNodeSnapshot`); ``txns`` is
        ``None``."""
        return ServiceNodeSnapshot(
            pid=self.wire_pid,
            incarnation=self.incarnation,
            steps=self._steps,
            wal_records=len(self._history),
        )

    # -- transport-facing hooks ----------------------------------------------

    def deliver(self, envelope: ServiceEnvelope) -> None:
        """Hand one inbound envelope to the node (transport callback)."""
        self.inbox.append(envelope)
        self._wake.set()

    def submit_txn(self, txn_id: int) -> None:
        """Open (or release) transaction ``txn_id`` on this node.

        The submit record is appended and the run loop woken; the
        record is durable after the pass that follows.  Whoever tells a
        client about the outcome, acceptance or rejection, awaits
        :meth:`durable` first.

        Raises:
            ServiceError: on what is not a transaction id (a
                non-negative integer) and on a duplicate submission —
                the transaction was already submitted here, or already
                decided and compacted away.
        """
        if type(txn_id) is not int or txn_id < 0:
            raise ServiceError(f"not a transaction id: {txn_id!r}")
        instance = self.mux.get(txn_id)
        if instance is not None:
            if instance.submitted:
                raise ServiceError(
                    f"duplicate submission of transaction {txn_id} "
                    f"(already open on node {self.wire_pid})"
                )
            if instance.process is None:
                raise ServiceError(
                    f"transaction {txn_id} was already decided "
                    f"({instance.closed_value}) on node {self.wire_pid}"
                )
        self._append(tag_txn(txn_id, {"type": "submit"}))
        self.mux.ensure(txn_id).submitted = True
        self._wake.set()

    async def durable(self) -> None:
        """Return once every record appended so far is synced (at once
        when none is pending): the barrier before a reply to a client.
        Cancelled when the node stops first, as nothing may be said."""
        if not self.wal.unsynced:
            return
        barrier = asyncio.get_running_loop().create_future()
        if self._halted:
            barrier.cancel()  # no pass will run again
        else:
            self._barriers.append(barrier)
        await barrier

    def peer_returned(self, recipient: int) -> None:
        """``recipient`` is reachable again (transport callback): re-send
        every envelope it has not acknowledged, once, now.

        The retransmit loops of those envelopes may be far into their
        back-off (the peer was down); they keep their timers and their
        jitter draws, this only spares the peer the wait.  The TCP
        transport calls it on a peer's hello and on a reconnect; the
        in-memory bus never does.
        """
        resent = 0
        for key, (event, envelope) in self._acked.items():
            if key[0] == recipient and not event.is_set():
                # attempt 1: a retransmission to whoever counts them, and
                # nothing the loop's own attempt numbering depends on.
                self._send(recipient, envelope, 1)
                resent += 1
        if resent and telemetry.enabled():
            telemetry.count(
                "service_peer_return_resends_total",
                amount=resent,
                help="unacked envelopes re-sent because their peer returned",
                pid=self.pid,
            )

    def halt(self) -> None:
        """Make :meth:`run` and every helper task exit at the next check.

        Level-triggered twice over: the flag is checked every pass, and
        the wake event ends the run loop's wait immediately.  The loop
        never waits inside ``asyncio.wait_for``, whose Python 3.11
        version can swallow a cancel that lands in the same event-loop
        pass as its timeout (on the virtual clock, where every wait
        fires exactly on tick boundaries, nearly always).
        """
        self._halted = True
        self._wake.set()

    # -- the lifecycle -------------------------------------------------------

    async def run(self) -> None:
        """Recover (or initialise), then run passes until cancelled.

        A node never "finishes": after deciding it keeps absorbing
        messages, acknowledging duplicates, and answering state queries
        — that serve-only tail is what lets late-recovering peers catch
        up.  The supervisor cancels the task when the cluster is done
        (or when a fault plan kills this node).

        In the serve-only tail the node only steps when a batch actually
        arrived: idle ticks no longer matter to a decided protocol, and
        logging them would append one record per tick — unbounded WAL
        growth — for a server that may run for months.
        """
        try:
            self._start()
            self._commit()
            while not self._halted:
                await self._pump_once()
                if self._halted:
                    break
                if self._pending or not self.mux.idle:
                    self._step()
                    # Each of these crosses one freshly armed wait; a
                    # program arms only as many already-satisfied ones
                    # in a row as the traffic it holds can satisfy.
                    while self.mux.runnable:
                        self._step()
                self._commit()
        finally:
            for task in self._tasks:
                task.cancel()
            for barrier in self._barriers:
                barrier.cancel()
            self.wal.close()

    def _commit(self) -> None:
        """End a pass: one sync for everything it appended, then release
        what it made visible."""
        self.wal.sync()
        held, self._held = self._held, []
        for recipient, envelope, attempt in held:
            self._send_raw(recipient, envelope, attempt)
        barriers, self._barriers = self._barriers, []
        for barrier in barriers:
            if not barrier.done():
                barrier.set_result(None)

    def _start(self) -> None:
        replayed = self._recover_or_init()
        if replayed is not None:
            for recipient, envelope in replayed.outgoing:
                self._track(self._retransmit(recipient, envelope))
        self._track(self._watch_stalls())
        if self.mux.decisions():
            self.done.set()

    def _recover_or_init(self) -> ReplayResult | None:
        read_started = time.perf_counter()
        log_result = self.wal.open_repairing()
        snapshot = read_snapshot(self.store)
        read_ms = (time.perf_counter() - read_started) * 1000
        records: list[dict[str, Any]] = []
        if snapshot is not None:
            suffix, has_marker = split_log_suffix(
                snapshot, log_result.records
            )
            if not has_marker:
                # A kill landed inside the compaction window: the log on
                # disk either is the stale pre-compaction log (every
                # record already inside the snapshot) or lost its marker
                # to a torn tail.  Re-establish the compacted log before
                # appending anything, or the next life would mistake our
                # appends for stale records and discard them.
                reset_log_after_compaction(
                    self.store, snapshot["taken_at_step"]
                )
                if telemetry.enabled():
                    telemetry.count(
                        "wal_compaction_repairs_total",
                        help="compaction windows repaired on recovery",
                        pid=self.pid,
                    )
                _log.warning(
                    "p%d repaired an interrupted snapshot compaction "
                    "(discarded %d stale log record(s))",
                    self.pid,
                    len(log_result.records),
                )
            records.extend(snapshot["records"])
            records.extend(suffix)
        else:
            records.extend(log_result.records)

        if not records:
            self._append({"type": "init", "config": self.config.to_dict()})
            for txn_id in self.opening:
                self._append(tag_txn(txn_id, {"type": "submit"}))
                self.mux.ensure(txn_id).submitted = True
            return None

        loop = asyncio.get_running_loop()
        recorder = active_recorder()
        span = None
        if recorder is not None:
            span = recorder.begin_span(
                f"recover p{self.pid}",
                kind="recovery",
                track=node_track(self.pid),
                start=loop.time(),
                parent=None,
            )
        verify = None
        if snapshot is not None and snapshot["taken_at_step"] > 0:
            verify = (len(snapshot["records"]), snapshot["digest"])
        replay_started = time.perf_counter()
        result = replay(
            records, expect_config=self.config, snapshot_digest=verify
        )
        replay_ms = (time.perf_counter() - replay_started) * 1000
        self.mux = result.mux
        self.incarnation = result.incarnation + 1
        self.recovered = True
        self._applied = result.applied
        self._steps = result.steps
        self._next_seq = 0
        self._history = [canonical(record) for record in result.records]
        self._append({"type": "recover", "incarnation": self.incarnation})
        if telemetry.enabled():
            telemetry.count(
                "node_recoveries_total",
                help="service node restarts recovered from the WAL",
                pid=self.pid,
            )
        _log.info(
            "p%d recovered: incarnation=%d steps=%d undecided=%s "
            "resend=%d torn_tail=%s records=%d read_ms=%.1f replay_ms=%.1f",
            self.pid,
            self.incarnation,
            result.steps,
            result.mux.undecided_txns(),
            len(result.outgoing),
            log_result.torn_tail,
            len(records),
            read_ms,
            replay_ms,
        )
        if recorder is not None and span is not None:
            recorder.end_span(
                span,
                loop.time(),
                incarnation=self.incarnation,
                replayed_steps=result.steps,
                resent=len(result.outgoing),
                torn_tail=log_result.torn_tail,
            )
        return result

    # -- inbound handling ----------------------------------------------------

    async def _pump_once(self) -> None:
        """Wait for a reason to run a pass, then absorb everything queued.

        The wait ends on an envelope, a submission or halt (all set the
        wake event) or on the tick; the tick is immediate when an
        instance is runnable (a recovered one can be; a pass leaves none).

        Traffic that arrives while several instances are undecided waits
        one more turn of the event loop, for whatever else had already
        arrived to be read: every step costs every open instance a tick
        of its 2K-tick waits, so envelopes that can share a step should.
        The turn is a zero-delay timer, which the loop runs after the
        I/O that was ready; no duration is involved.  With one instance
        open there is nobody to charge and the pass starts at once.
        """
        if self._wake.is_set():
            # Set by the last pass's own doing: the loop has not run since.
            share = True
        else:
            due = self.mux.runnable
            await self._woken_within(0 if due else self.tick_interval)
            share = bool(self.inbox) and len(self.mux.undecided_txns()) > 1
        if share:
            self._wake.clear()
            await self._woken_within(0)
        while self.inbox:
            self._absorb(self.inbox.popleft())
        # Cleared last: a submit envelope absorbed above woke the loop for
        # the pass that is already running.
        self._wake.clear()

    async def _woken_within(self, delay: float) -> None:
        tick = asyncio.get_running_loop().call_later(delay, self._wake.set)
        try:
            await self._wake.wait()
        finally:
            tick.cancel()

    def _absorb(self, envelope: ServiceEnvelope) -> None:
        """Take one queued envelope.  Envelopes come off the wire (any
        TCP client can write one), decoded but otherwise unchecked: what
        is wrong with one is dropped here, never raised out of the run
        loop."""
        kind = envelope.kind
        base = self.config.base
        if kind in ("msg", "state-query") and not (
            base <= envelope.sender < base + self.config.n
        ):
            # Both are answered at the sender's address (the ack, the
            # transfer), and only a member of the group has one.
            if telemetry.enabled():
                telemetry.count(
                    "service_foreign_envelopes_total",
                    help="envelopes dropped because no peer sent them",
                    pid=self.wire_pid,
                )
            return
        if kind == "msg":
            identity = envelope.identity
            if identity in self._applied:
                # Already durably applied in a previous step (possibly a
                # previous life): safe to re-ack and drop.
                self._ack(envelope)
                return
            if identity in self._pending_ids:
                return  # duplicate within the current tick
            self._pending_ids.add(identity)
            self._pending.append(envelope)
        elif kind == "ack":
            # Acks come off the wire (any TCP peer can send one), so a
            # malformed body is dropped like an undecodable line rather
            # than allowed to kill the run loop.
            body = envelope.body
            seq = body.get("seq")
            incarnation = body.get("incarnation", 0)
            if isinstance(seq, int) and isinstance(incarnation, int):
                # Only a loop still waiting can be acked: a late, repeated
                # or forged ack must not leave an entry behind.
                waiting = self._acked.get((envelope.sender, incarnation, seq))
                if waiting is not None:
                    waiting[0].set()
        elif kind == "state-query":
            self._send_transfer(envelope.sender, envelope.body.get("txns"))
        elif kind == "state-transfer":
            self._adopt_transfers(envelope)
        elif kind == "submit":
            try:
                self.submit_txn(envelope.body.get("txn", DEFAULT_TXN))
            except ServiceError as exc:
                if telemetry.enabled():
                    telemetry.count(
                        "service_duplicate_submissions_total",
                        help="submissions rejected as duplicates or malformed",
                        pid=self.wire_pid,
                    )
                _log.warning("p%d rejected submission: %s", self.wire_pid, exc)

    def _send_transfer(self, recipient: int, asked: Any) -> None:
        """Hand ``recipient`` the decisions of the transactions named in
        ``asked``: what a stalled peer's query lists
        (:meth:`_watch_stalls`), or the one transaction of a closed-stub
        hit.  A query without such a list gets no reply: no node sends
        one, and a reply listing every decision would grow with history.
        """
        if not isinstance(asked, list) or any(
            type(txn_id) is not int for txn_id in asked
        ):
            return
        instances = map(self.mux.get, asked)
        decided = {
            instance.txn_id: instance.decision
            for instance in instances
            if instance is not None and instance.decision is not None
        }
        self._control_send(
            recipient,
            ServiceEnvelope(
                kind="state-transfer",
                sender=self.wire_pid,
                incarnation=self.incarnation,
                body={
                    "decisions": {
                        str(txn_id): value
                        for txn_id, value in sorted(decided.items())
                    }
                },
            ),
        )

    def _adopt_transfers(self, envelope: ServiceEnvelope) -> None:
        """Adopt a peer's transferred decisions for every *existing*
        live, undecided instance."""
        offered = envelope.body.get("decisions")
        if not isinstance(offered, dict):
            return
        offers: dict[int, int] = {}
        for key, value in offered.items():
            try:
                txn_id = int(key)
            except (TypeError, ValueError):
                continue
            # A decision is a bit; anything else (``None`` for "not
            # decided", or what a stranger wrote) is no offer.
            if type(value) is int and value in (0, 1):
                offers[txn_id] = value
        for txn_id in sorted(offers):
            instance = self.mux.get(txn_id)
            if (
                instance is None
                or instance.process is None
                or instance.decision is not None
            ):
                continue
            value = offers[txn_id]
            self._append(
                tag_txn(
                    txn_id,
                    {"type": "decision", "value": value, "origin": "transfer"},
                )
            )
            self.mux.adopt_transfer(txn_id, value)
            if instance.decided_at is None:
                instance.decided_at = asyncio.get_running_loop().time()
            self.done.set()
            if telemetry.enabled():
                telemetry.count(
                    "service_state_transfers_total",
                    help="decisions adopted via the recovery handshake",
                    pid=self.pid,
                )
            recorder = active_recorder()
            if recorder is not None:
                recorder.point(
                    f"transfer-decide p{self.pid}",
                    track=node_track(self.pid),
                    time=asyncio.get_running_loop().time(),
                    span=None,
                    value=value,
                    source=envelope.sender,
                )
            _log.info(
                "p%d adopted decision %s from p%d via state transfer",
                self.pid,
                value,
                envelope.sender,
            )

    # -- stepping ------------------------------------------------------------

    def _step(self) -> None:
        batch = self._pending
        self._pending = []
        self._pending_ids = set()

        record: dict[str, Any] = {"type": "step"}
        if batch:
            record["batch"] = batch_to_record(batch)
        self._append(record)
        for envelope in batch:
            self._applied.add(envelope.identity)

        base = self.config.base
        effects = self.mux.apply_step(
            [
                (envelope.sender - base, envelope.payload_groups())
                for envelope in batch
            ]
        )
        self._steps += 1

        # Acknowledged once the step record holding them is synced.
        for envelope in batch:
            self._ack(envelope)

        for event in effects.events:
            self._append(event)

        for recipient, groups in effects.outgoing:
            envelope = ServiceEnvelope.msg(
                sender=self.wire_pid,
                incarnation=self.incarnation,
                seq=self._next_seq,
                groups=groups,
            )
            self._next_seq += 1
            self._track(self._retransmit(base + recipient, envelope))

        if effects.newly_decided:
            self._note_decisions(effects.newly_decided)
        for sender, txn_id in effects.closed_hits:
            if sender >= 0:
                # Traffic for a compacted transaction from a peer that
                # may never have seen its decision: hand it over.
                self._send_transfer(base + sender, [txn_id])

        self._steps_since_snapshot += 1
        if (
            self.snapshot_every
            and self._steps_since_snapshot >= self.snapshot_every
        ):
            self._take_snapshot()

    def _note_decisions(
        self, newly_decided: list[tuple[int, int, str]]
    ) -> None:
        now = asyncio.get_running_loop().time()
        for txn_id, value, _origin in newly_decided:
            instance = self.mux.get(txn_id)
            if instance is not None and instance.decided_at is None:
                instance.decided_at = now
            if telemetry.enabled():
                telemetry.count(
                    "service_txn_decisions_total",
                    help="transactions decided by hosted protocol instances",
                    pid=self.wire_pid,
                    decision=value,
                )
        self.done.set()

    def _take_snapshot(self) -> None:
        # Compact decided instances into closed stubs first: the close
        # record makes the demotion durable (replay demotes at the same
        # point), and the stub frees the instance's board and generator
        # while remembering the decision.
        for txn_id in self.mux.closable_txns():
            instance = self.mux.get(txn_id)
            self._append(
                {
                    "type": "close",
                    "txn": txn_id,
                    "value": instance.decision,
                    "origin": instance.decision_origin,
                }
            )
            self.mux.close_txn(txn_id)
            if telemetry.enabled():
                telemetry.count(
                    "service_txns_closed_total",
                    help="decided instances compacted into closed stubs",
                    pid=self.wire_pid,
                )
                # The instance's protocol counters, recorded once:
                # replay rebuilds a closed instance as a stub.
                from repro.telemetry.summary import record_trial

                record_trial(
                    telemetry.get_registry(), [instance.process.program]
                )
        digest = self.mux.digest()
        write_snapshot(
            self.store,
            records=self._history,
            digest=digest,
            taken_at_step=self._steps,
        )
        self._steps_since_snapshot = 0
        _log.debug(
            "p%d snapshot at step %d (%d records compacted)",
            self.pid,
            self._steps,
            len(self._history),
        )

    # -- outbound ------------------------------------------------------------

    def _append(self, record: dict[str, Any]) -> None:
        self._history.append(self.wal.append(record))

    def _send(
        self, recipient: int, envelope: ServiceEnvelope, attempt: int
    ) -> None:
        """Transmit, but never ahead of the log: while a record is
        unsynced the send waits for the end of the pass."""
        if self.wal.unsynced:
            self._held.append((recipient, envelope, attempt))
        else:
            self._send_raw(recipient, envelope, attempt)

    def _ack(self, envelope: ServiceEnvelope) -> None:
        if envelope.sender < 0 or envelope.sender == self.wire_pid:
            return
        self._control_send(
            envelope.sender,
            ServiceEnvelope(
                kind="ack",
                sender=self.wire_pid,
                body={
                    "incarnation": envelope.incarnation,
                    "seq": envelope.seq,
                },
            ),
        )

    def _control_send(
        self, recipient: int, envelope: ServiceEnvelope
    ) -> None:
        # Control envelopes are unsequenced; a per-life attempt counter
        # keeps their (keyed) fault draws distinct from one another.
        self._control_attempts += 1
        self._send(recipient, envelope, self._control_attempts)

    async def _retransmit(
        self, recipient: int, envelope: ServiceEnvelope
    ) -> None:
        """Send ``envelope`` to ``recipient`` until acknowledged.

        Runs until the ack arrives or this node's life ends — a peer
        that is down just keeps costing (capped-backoff) retries, which
        is exactly how a recovered peer catches up on traffic it missed.
        """
        key = (recipient, envelope.incarnation, envelope.seq)
        event = asyncio.Event()
        self._acked[key] = (event, envelope)
        rel = self.reliability
        rng = random.Random(
            derive_keyed(
                self.seed,
                SERVICE_NODE_STREAM,
                self.wire_pid,
                recipient,
                envelope.incarnation,
                envelope.seq,
            )
        )
        timeout = rel.base_timeout
        attempt = 0
        try:
            while not event.is_set() and not self._halted:
                self._send(recipient, envelope, attempt)
                if attempt > 0 and telemetry.enabled():
                    telemetry.count(
                        "service_retransmissions_total",
                        help="service envelope retransmissions",
                        pid=self.pid,
                    )
                attempt += 1
                if rel.max_retries is not None and attempt > rel.max_retries:
                    return
                wait = timeout * (1 + rel.jitter * rng.uniform(-1, 1))
                try:
                    await asyncio.wait_for(event.wait(), timeout=wait)
                except asyncio.TimeoutError:
                    timeout = min(timeout * 2, rel.max_backoff)
        finally:
            del self._acked[key]

    async def _watch_stalls(self) -> None:
        """The recovery handshake, and the liveness backstop.

        Retry-until-acked retransmission covers a peer that missed
        traffic; this covers what it cannot: a node that restarted after
        its group decided, and an undecided transaction whose peers
        decided and compacted their instances before this node ever
        voted.  While any instance is undecided, periodically ask the
        group for the decisions of exactly those transactions — the
        ``state-transfer`` replies settle whatever can be settled, and a
        reply never grows with the transactions already decided.
        """
        rng = random.Random(
            derive_keyed(
                self.seed,
                SERVICE_NODE_STREAM,
                self.wire_pid,
                self.incarnation,
                1,
            )
        )
        rel = self.reliability
        interval = 8 * rel.base_timeout
        while not self._halted:
            await asyncio.sleep(
                interval * (1 + rel.jitter * rng.uniform(-1, 1))
            )
            if self._halted:
                return
            undecided = self.mux.undecided_txns()
            if not undecided:
                continue
            for peer in range(self.config.n):
                if peer != self.pid:
                    self._control_send(
                        peer + self.config.base,
                        ServiceEnvelope(
                            kind="state-query",
                            sender=self.wire_pid,
                            incarnation=self.incarnation,
                            body={"txns": undecided},
                        ),
                    )

    def _track(self, coro) -> None:
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
