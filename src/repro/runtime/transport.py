"""In-memory asyncio transport with delays, crashes, and lossy links.

The transport is the runtime counterpart of the simulator's buffers plus
adversary delivery choices: each node has an inbox queue, sends are
delivered after a sampled delay, and a crashed node neither sends nor
receives.  Unlike the simulator there is no global scheduler — real
concurrency (the asyncio event loop) interleaves the nodes.

Beyond the benign delay models, the transport can host a *lossy* link
layer (see :class:`LinkFaultPolicy`): per-link drop / duplication /
reorder probabilities and partition windows, typically compiled from a
:class:`~repro.faults.plan.FaultPlan`.  To keep the protocols live under
loss, the transport implements the classic reliability pair:

* every envelope carries a per-sender **sequence number** and receivers
  **deduplicate** on ``(sender, seq)``, so duplicated or retransmitted
  copies are invisible to the hosted protocol;
* with a :class:`Reliability` config, unacknowledged envelopes are
  **retransmitted** under a timeout with exponential backoff and jitter
  until acknowledged (acknowledgements traverse the same lossy link in
  the reverse direction), the sender or recipient crashes, or the
  transport closes.

First sends, retransmissions, and fault-injected duplicates are counted
*distinctly* in :class:`TransportStats`.

Transport randomness is **schedule-independent**: every envelope owns a
private generator derived from ``(seed, recipient, seq)`` (see
:func:`repro.engine.seeds.derive_keyed`), and acknowledgements own a
second one.  Concurrent retransmit loops therefore never contend on one
shared generator, so the jitter and verdict streams an envelope sees do
not depend on how the event loop happens to interleave coroutines —
replay artifacts stay byte-identical even if task wakeup order shifts.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from dataclasses import dataclass, fields

from repro.engine.seeds import ACK_STREAM, ENVELOPE_STREAM, derive_keyed
from repro.errors import NodeCrashedError
from repro.runtime.delays import DelayModel, FixedDelay
from repro.runtime.reliability import Reliability
from repro.sim.message import Payload
from repro.telemetry import registry as telemetry
from repro.trace import spans as trace_spans


@dataclass(frozen=True)
class WireMessage:
    """One envelope on the wire: sender, packed payloads, sequence number.

    ``seq`` is unique per sender and identifies the logical envelope
    across retransmissions and duplicate copies.
    """

    sender: int
    payloads: tuple[Payload, ...]
    seq: int = -1


@dataclass(frozen=True)
class LinkVerdict:
    """What the link layer does to one transmission attempt.

    Attributes:
        drop: lose this copy entirely (a retransmission may follow).
        duplicates: extra copies injected beyond the first.
        extra_delay: additional delivery latency in seconds.
    """

    drop: bool = False
    duplicates: int = 0
    extra_delay: float = 0.0


#: The verdict for a clean link: deliver one copy, no extra delay.
CLEAN_LINK = LinkVerdict()


class LinkFaultPolicy:
    """Decides the fate of each transmission attempt on a directed link.

    Implementations must be deterministic given the supplied ``rng`` (the
    transport's private, seeded randomness) so that fault campaigns are
    replayable.  ``now`` is the event-loop clock, letting policies model
    time-windowed behaviour such as transient partitions.
    """

    def verdict(
        self, sender: int, recipient: int, now: float, rng: random.Random
    ) -> LinkVerdict:
        raise NotImplementedError


@dataclass
class TransportStats:
    """Counters the transport maintains for assertions and reports.

    ``sent`` counts *first* sends only; retransmissions and fault-layer
    duplicates are tracked separately so loss-recovery overhead is
    visible rather than folded into the send count.
    """

    sent: int = 0
    delivered: int = 0
    retransmitted: int = 0
    duplicated: int = 0
    duplicates_dropped: int = 0
    dropped_by_faults: int = 0
    acks_dropped: int = 0
    dropped_to_crashed: int = 0
    dropped_from_crashed: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-data view, one entry per counter field."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class AsyncTransport:
    """Delay-injecting, optionally lossy message fabric for ``n`` nodes.

    Args:
        n: number of nodes.
        delay_model: delivery-latency distribution.
        seed: seed of the transport's private randomness.
        faults: link fault policy (drop/duplicate/delay per attempt);
            ``None`` means every transmission attempt succeeds.
        reliability: retransmission config; ``None`` disables
            retransmission (appropriate for loss-free links).
    """

    def __init__(
        self,
        n: int,
        delay_model: DelayModel | None = None,
        seed: int = 0,
        faults: LinkFaultPolicy | None = None,
        reliability: Reliability | None = None,
    ) -> None:
        if n <= 0:
            raise ValueError(f"need at least one node, got n={n}")
        self.n = n
        self.delay_model = delay_model if delay_model is not None else FixedDelay()
        self.seed = seed
        self.rng = random.Random(seed)
        self.faults = faults
        self.reliability = reliability
        self.inboxes: list[asyncio.Queue[WireMessage]] = [
            asyncio.Queue() for _ in range(n)
        ]
        self.crashed: set[int] = set()
        self.closed = False
        self.stats = TransportStats()
        self._pending_tasks: set[asyncio.Task] = set()
        self._seq = itertools.count()
        self._seen: list[set[tuple[int, int]]] = [set() for _ in range(n)]
        self._acked: set[int] = set()
        # Resolved once per transport, like the scheduler's telemetry
        # handle: tracing costs one None-check per send/deliver when off.
        self._tracer = trace_spans.active_recorder()
        self._trace_scope = (
            self._tracer.new_scope() if self._tracer is not None else 0
        )

    def crash(self, pid: int) -> None:
        """Fail-stop a node: all its future traffic is dropped."""
        self.crashed.add(pid)

    def close(self) -> None:
        """Stop the fabric: cancel in-flight deliveries and retransmits."""
        self.closed = True
        for task in list(self._pending_tasks):
            task.cancel()

    def send(self, sender: int, recipient: int, payloads: tuple[Payload, ...]) -> None:
        """Queue delivery of one envelope (plus recovery machinery).

        Raises:
            NodeCrashedError: when the sender has been crashed (its node
                task should already have stopped; this guards bugs).
        """
        if sender in self.crashed:
            raise NodeCrashedError(f"node {sender} is crashed and cannot send")
        if not 0 <= recipient < self.n:
            raise ValueError(f"recipient {recipient} out of range")
        if self.closed:
            return
        seq = next(self._seq)
        self.stats.sent += 1
        if self._tracer is not None:
            self._tracer.send(
                track="runtime",
                key=(self._trace_scope, seq),
                time=asyncio.get_running_loop().time(),
                sender=sender,
                recipient=recipient,
                seq=seq,
            )
        rng = self._envelope_rng(ENVELOPE_STREAM, recipient, seq)
        self._transmit(sender, recipient, payloads, seq, rng)
        if self.reliability is not None:
            self._spawn(
                self._retransmit_loop(sender, recipient, payloads, seq, rng)
            )

    # -- transmission attempts ----------------------------------------------

    def _spawn(self, coro) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        self._pending_tasks.add(task)
        task.add_done_callback(self._task_done)
        if telemetry.enabled():
            telemetry.set_gauge(
                "transport_in_flight",
                len(self._pending_tasks),
                help="transport tasks currently in flight "
                "(deliveries and retransmit loops)",
            )

    def _task_done(self, task: asyncio.Task) -> None:
        self._pending_tasks.discard(task)
        if telemetry.enabled():
            telemetry.set_gauge(
                "transport_in_flight",
                len(self._pending_tasks),
                help="transport tasks currently in flight "
                "(deliveries and retransmit loops)",
            )

    def _envelope_rng(self, stream: int, recipient: int, seq: int) -> random.Random:
        """The private generator of one envelope's randomness stream.

        Keyed by ``(recipient, seq)`` so every envelope (and its
        acknowledgement, under a second stream offset) draws from its own
        generator: the consumption order of one coroutine cannot shift
        the values any other observes, whatever the task interleaving.
        """
        return random.Random(derive_keyed(self.seed, stream, recipient, seq))

    def _link_verdict(
        self, sender: int, recipient: int, rng: random.Random
    ) -> LinkVerdict:
        if self.faults is None:
            return CLEAN_LINK
        now = asyncio.get_running_loop().time()
        return self.faults.verdict(sender, recipient, now, rng)

    def _transmit(
        self,
        sender: int,
        recipient: int,
        payloads: tuple[Payload, ...],
        seq: int,
        rng: random.Random,
    ) -> None:
        """One attempt to move an envelope across the (lossy) link."""
        verdict = self._link_verdict(sender, recipient, rng)
        if verdict.drop:
            self.stats.dropped_by_faults += 1
        else:
            copies = 1 + max(0, verdict.duplicates)
            self.stats.duplicated += copies - 1
            for _ in range(copies):
                delay = self.delay_model.sample(rng) + verdict.extra_delay
                self._spawn(
                    self._deliver_later(sender, recipient, payloads, seq, delay)
                )

    async def _deliver_later(
        self,
        sender: int,
        recipient: int,
        payloads: tuple[Payload, ...],
        seq: int,
        delay: float,
    ) -> None:
        if delay > 0:
            await asyncio.sleep(delay)
        if sender in self.crashed:
            # The sender crashed while the message was in flight; in the
            # fail-stop model in-flight messages may still arrive, but we
            # also allow modelling crash-during-broadcast by dropping.
            # Default behaviour: deliver (the message was already sent).
            pass
        if recipient in self.crashed:
            self.stats.dropped_to_crashed += 1
            return
        if (sender, seq) in self._seen[recipient]:
            self.stats.duplicates_dropped += 1
            return
        self._seen[recipient].add((sender, seq))
        self.stats.delivered += 1
        if self._tracer is not None:
            self._tracer.deliver(
                track="runtime",
                key=(self._trace_scope, seq),
                time=asyncio.get_running_loop().time(),
                sender=sender,
                recipient=recipient,
                seq=seq,
            )
        await self.inboxes[recipient].put(
            WireMessage(sender=sender, payloads=payloads, seq=seq)
        )
        if self.reliability is not None:
            self._send_ack(sender, recipient, seq)

    def _send_ack(self, sender: int, recipient: int, seq: int) -> None:
        """Race an acknowledgement back across the reverse lossy link."""
        rng = self._envelope_rng(ACK_STREAM, recipient, seq)
        verdict = self._link_verdict(recipient, sender, rng)
        if verdict.drop:
            self.stats.acks_dropped += 1
            return
        delay = self.delay_model.sample(rng) + verdict.extra_delay
        asyncio.get_running_loop().call_later(delay, self._acked.add, seq)

    async def _retransmit_loop(
        self,
        sender: int,
        recipient: int,
        payloads: tuple[Payload, ...],
        seq: int,
        rng: random.Random,
    ) -> None:
        """Retransmit ``seq`` under backoff until acked, crash, or close.

        ``rng`` is the envelope's private stream (shared with the first
        transmission attempt), so backoff jitter and retry verdicts are a
        pure function of ``(seed, recipient, seq)`` — concurrent loops
        drawing in any interleaving produce identical streams.
        """
        config = self.reliability
        assert config is not None
        timeout = config.base_timeout
        attempt = 0
        while True:
            jittered = timeout * (1 + config.jitter * rng.uniform(-1, 1))
            await asyncio.sleep(jittered)
            if (
                self.closed
                or seq in self._acked
                or sender in self.crashed
                or recipient in self.crashed
            ):
                return
            if (
                config.max_retries is not None
                and attempt >= config.max_retries
            ):
                return
            attempt += 1
            self.stats.retransmitted += 1
            if telemetry.enabled():
                telemetry.count(
                    "transport_retransmissions_total",
                    help="live retransmission attempts",
                )
            if self._tracer is not None:
                self._tracer.point(
                    "retransmit",
                    track="runtime",
                    time=asyncio.get_running_loop().time(),
                    sender=sender,
                    recipient=recipient,
                    seq=seq,
                    attempt=attempt,
                )
            self._transmit(sender, recipient, payloads, seq, rng)
            timeout = min(timeout * 2, config.max_backoff)

    async def drain(self) -> None:
        """Wait for all in-flight deliveries to settle (test helper).

        With retransmission enabled this waits for the recovery loops
        too, so callers should :meth:`close` first (or crash the peers)
        unless every envelope is expected to be acknowledged.
        """
        while self._pending_tasks:
            await asyncio.gather(*list(self._pending_tasks), return_exceptions=True)

    def record_telemetry(self) -> None:
        """Mirror the stats counters into the telemetry registry."""
        if not telemetry.enabled():
            return
        for name, value in self.stats.as_dict().items():
            if value:
                telemetry.count(
                    "transport_messages_total",
                    value,
                    help="transport envelope counters, by kind",
                    kind=name,
                )
