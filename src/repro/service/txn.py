"""Transaction instances: many concurrent Protocol 2 runs on one node.

The paper's protocol decides a *single* transaction.  A commit service
has to decide a stream of them, so the service layer hosts one protocol
instance per transaction id and multiplexes all of them over the node's
single transport identity:

* **Instances.**  :class:`TxnInstance` wraps one hosted
  :class:`~repro.sim.process.SimProcess` (or, once the transaction is
  durably decided and compacted away, a memory-light *closed stub* that
  remembers only the decision).  Each instance draws its own random
  tape and initial vote from keyed streams off the node's tape seed
  (:func:`txn_tape_seed`, :func:`txn_vote`); transaction 0
  (:data:`~repro.service.wire.DEFAULT_TXN`, a single commit) keeps the
  node's own seed and configured vote, so logs of the v1 service, which
  hosted that one transaction only, replay byte-identically.

* **The multiplexer.**  :class:`InstanceMux` is the single stepping
  authority shared by the live node (:mod:`repro.service.node`) and
  WAL replay (:mod:`repro.service.recovery`): one call of
  :meth:`InstanceMux.apply_step` routes a delivered batch's payload
  groups to their instances, steps every instance that has work, and
  merges the outgoing traffic of all instances into one payload-group
  list per recipient — one envelope per ``(destination, flush)``.
  Because live stepping and replay run the *same* code over the same
  logged inputs, restart-by-replay stays byte-identical per instance
  (the communication-closed-rounds argument: per-instance tagging
  makes the interleaved run analyzable as independent runs).

* **Sharding.**  :class:`ShardMap` statically partitions transaction
  ids across independent coordinator/participant groups laid out on
  one shared transport pid space; group ``g`` owns wire pids
  ``[g * group_size, (g + 1) * group_size)`` and its local pid 0 is
  the coordinator of every transaction the map assigns to ``g``.

Lazy instance creation is protocol-safe: a participant's instance is
created when the first message of that transaction arrives, and every
Protocol 2 message carries the GO payload the participant's opening
wait needs (the coordinator broadcasts GO at its first step and the
protocol piggybacks it thereafter), so a late-created instance starts
its 2K-tick timeout windows from its own local clock.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.engine.seeds import (
    SERVICE_TXN_TAPE_STREAM,
    SERVICE_TXN_VOTE_STREAM,
    derive_keyed,
)
from repro.errors import ServiceError
from repro.faults.variants import resolve_variant
from repro.service.wire import (
    DEFAULT_TXN,
    PayloadGroup,
    decode_groups,
    encode_groups,
)
from repro.sim.message import ReceivedPayload
from repro.sim.payloads import from_wire, to_wire
from repro.sim.process import SimProcess
from repro.sim.tape import RandomTape


# -- sharding ------------------------------------------------------------------


@dataclass(frozen=True)
class ShardMap:
    """Static assignment of transaction ids to commit groups.

    Attributes:
        shards: number of independent commit groups.
        group_size: processors per group (the protocol's ``n``).
    """

    shards: int
    group_size: int

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ServiceError(f"need at least one shard, got {self.shards}")
        if self.group_size < 1:
            raise ServiceError(
                f"need at least one node per group, got {self.group_size}"
            )

    @property
    def total_pids(self) -> int:
        """Wire pids across all groups (the transport's address space)."""
        return self.shards * self.group_size

    def group_of(self, txn_id: int) -> int:
        """The commit group that owns ``txn_id``."""
        return txn_id % self.shards

    def base(self, group: int) -> int:
        """First wire pid of ``group`` (its local pid 0)."""
        return group * self.group_size

    def coordinator(self, txn_id: int) -> int:
        """Wire pid of the coordinator deciding ``txn_id``."""
        return self.base(self.group_of(txn_id))

    def members(self, group: int) -> range:
        """Wire pids of ``group``'s processors."""
        start = self.base(group)
        return range(start, start + self.group_size)

    def group_of_pid(self, wire_pid: int) -> int:
        """The commit group a wire pid belongs to."""
        return wire_pid // self.group_size


# -- per-transaction derivations -----------------------------------------------


def txn_tape_seed(tape_seed: int, txn_id: int) -> int:
    """The random-tape seed of one hosted transaction instance.

    Transaction 0 keeps the node's own tape seed so v1 logs replay
    byte-identically; every other transaction draws an independent
    keyed stream off it.
    """
    if txn_id == DEFAULT_TXN:
        return tape_seed
    return derive_keyed(tape_seed, SERVICE_TXN_TAPE_STREAM, txn_id)


def txn_vote(config: Any, txn_id: int) -> int:
    """The initial vote this node casts for ``txn_id``.

    Transaction 0 uses the configured vote (v1 behaviour); other
    transactions draw a Bernoulli(``commit_bias``) vote from a keyed
    stream, so a workload can mix commit- and abort-leaning traffic
    deterministically per (node, transaction).
    """
    if txn_id == DEFAULT_TXN:
        return config.vote
    bias = getattr(config, "commit_bias", 1.0)
    if bias >= 1.0:
        return 1
    rng = random.Random(
        derive_keyed(config.tape_seed, SERVICE_TXN_VOTE_STREAM, txn_id)
    )
    return 1 if rng.random() < bias else 0


def build_instance_process(config: Any, txn_id: int) -> SimProcess:
    """A fresh process at step 0 hosting ``txn_id`` under ``config``."""
    program_cls = resolve_variant(config.variant)
    program = program_cls(
        pid=config.pid,
        n=config.n,
        t=config.t,
        initial_vote=txn_vote(config, txn_id),
        K=config.K,
        allow_sub_resilience=True,
    )
    return SimProcess(
        program, RandomTape(seed=txn_tape_seed(config.tape_seed, txn_id))
    )


def state_digest(process: SimProcess) -> str:
    """A canonical hash of one instance's observable protocol state.

    Covers the clock, lifecycle status, decision (value and clock), and
    the bulletin board in receipt order — everything the protocol's
    future behaviour depends on besides the (seed-determined) tape.
    """
    board = [
        [entry.sender, to_wire(entry.payload), entry.receive_clock]
        for entry in process.board.entries()
    ]
    doc = {
        "clock": process.clock,
        "status": process.status.name,
        "decision": process.decision,
        "decision_clock": process.decision_clock,
        "board": board,
    }
    body = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


# -- WAL forms of per-transaction data ------------------------------------------


def tag_txn(txn_id: int, record: dict[str, Any]) -> dict[str, Any]:
    """Tag a WAL record with its transaction id.

    Transaction 0 stays untagged, the form the v1 service wrote.
    """
    if txn_id != DEFAULT_TXN:
        record["txn"] = txn_id
    return record


def groups_to_wal(groups: Sequence[PayloadGroup]) -> Any:
    """The WAL form of one batch entry's payload groups.

    A lone transaction-0 group encodes as the v1 payload list; anything
    else encodes as ``{"g": [[txn, payloads], ...]}``, which v1 never
    wrote.
    """
    if len(groups) == 1 and groups[0][0] == DEFAULT_TXN:
        return [to_wire(p) for p in groups[0][1]]
    if not groups:
        return []
    return {"g": encode_groups(groups)}


def wal_to_groups(elem: Any) -> Sequence[PayloadGroup]:
    """Decode a batch entry's payload slot (either WAL form)."""
    if isinstance(elem, dict):
        return decode_groups(elem["g"])
    if elem:
        return ((DEFAULT_TXN, tuple(from_wire(doc) for doc in elem)),)
    return ()


def decision_member(txn_id: int, value: int) -> bytes:
    """One ``"<txn>":<value>`` member of the JSON object a ``state-query``
    reply lists decisions in (JSON keys are strings)."""
    return b'"%d":%d' % (txn_id, value)


# -- instances -------------------------------------------------------------------


@dataclass
class TxnInstance:
    """One transaction's state on one node.

    Either *live* (``process`` is a stepping state machine) or a
    *closed stub* (``process is None``): once a decision is durably
    logged, snapshot compaction demotes the instance to a stub that
    remembers only the decision — its bulletin board and generator are
    freed, and later traffic for the transaction has no protocol
    effect (retransmissions were acknowledged by the step records that
    logged them; a stub hit triggers a targeted state transfer so a
    straggling peer can still settle).
    """

    txn_id: int
    process: SimProcess | None
    vote: int
    transfer_decision: int | None = None
    closed_value: int | None = None
    closed_origin: str | None = None
    submitted: bool = False
    decision_logged: bool = False
    decided_at: float | None = None

    @classmethod
    def open(cls, txn_id: int, config: Any) -> "TxnInstance":
        return cls(
            txn_id=txn_id,
            process=build_instance_process(config, txn_id),
            vote=txn_vote(config, txn_id),
        )

    @classmethod
    def closed(
        cls, txn_id: int, value: int | None, origin: str | None
    ) -> "TxnInstance":
        return cls(
            txn_id=txn_id,
            process=None,
            vote=0,
            closed_value=value,
            closed_origin=origin,
            decision_logged=True,
        )

    @property
    def decision(self) -> int | None:
        """The effective decision: protocol-decided, transferred, or
        remembered by a closed stub."""
        if self.process is not None and self.process.decision is not None:
            return self.process.decision
        if self.transfer_decision is not None:
            return self.transfer_decision
        return self.closed_value

    @property
    def decision_origin(self) -> str | None:
        if self.process is not None and self.process.decision is not None:
            return "process"
        if self.transfer_decision is not None:
            return "transfer"
        return self.closed_origin


@dataclass
class StepEffects:
    """What one multiplexer step produced.

    Attributes:
        outgoing: merged per-recipient payload groups (local pids), in
            deterministic first-appearance order — one envelope each.
        events: derived WAL records (per-transaction decision records),
            in append order.
        newly_decided: ``(txn_id, value, origin)`` per instance that
            reached a decision during this step.
        closed_hits: ``(local_sender, txn_id)`` per payload group that
            was routed to a closed stub.
    """

    outgoing: list[tuple[int, list[PayloadGroup]]] = field(
        default_factory=list
    )
    events: list[dict[str, Any]] = field(default_factory=list)
    newly_decided: list[tuple[int, int, str]] = field(default_factory=list)
    closed_hits: list[tuple[int, int]] = field(default_factory=list)


class InstanceMux:
    """Routes batches to per-transaction instances; the step authority.

    One mux instance backs a live node *and* its WAL replay: both feed
    the same logged step batches through :meth:`apply_step`, so the
    reconstruction is byte-identical per instance by construction.

    Instances are created by a ``submit`` record (on a transaction's
    coordinator, or on every member for a single commit) and by first
    delivery (on participants), and iterate in creation order, which
    the log replays deterministically.
    """

    def __init__(self, config: Any) -> None:
        self.config = config
        #: Every transaction ever hosted: live instance or closed stub.
        self.instances: dict[int, TxnInstance] = {}
        #: The live ones, in creation order (the stepping order).  What a
        #: step, a run-loop pass or a status poll scans: open work, not
        #: history.
        self.live: dict[int, TxnInstance] = {}
        #: The live ones with no effective decision yet, in creation
        #: order: what the run loop asks about on every pass.  ``live``
        #: keeps a decided instance until a snapshot closes it, so the
        #: per-pass questions are not asked of ``live``.  An instance
        #: leaves when :meth:`apply_step` sees its protocol decide or
        #: :meth:`adopt_transfer` hands it a peer's decision.
        self._undecided: dict[int, TxnInstance] = {}
        self._closed_decisions: dict[int, int] = {}
        #: The members of :meth:`decisions_json` for the closed stubs, in
        #: the order they closed.  A closed decision never changes, so
        #: its text is written here once and only ever appended to.
        self._closed_members = bytearray()

    # -- instance management ---------------------------------------------------

    def _create(self, txn_id: int) -> TxnInstance:
        instance = TxnInstance.open(txn_id, self.config)
        self.instances[txn_id] = instance
        self.live[txn_id] = instance
        self._undecided[txn_id] = instance
        return instance

    def get(self, txn_id: int) -> TxnInstance | None:
        return self.instances.get(txn_id)

    def ensure(self, txn_id: int) -> TxnInstance:
        instance = self.instances.get(txn_id)
        if instance is None:
            instance = self._create(txn_id)
        return instance

    def close_txn(self, txn_id: int) -> TxnInstance:
        """Demote a decided instance to a closed stub (frees its state)."""
        live = self.live.pop(txn_id)
        self._undecided.pop(txn_id, None)
        stub = TxnInstance.closed(txn_id, live.decision, live.decision_origin)
        stub.submitted = live.submitted
        stub.decided_at = live.decided_at
        self.instances[txn_id] = stub
        if stub.closed_value is not None:
            self._closed_decisions[txn_id] = stub.closed_value
            if self._closed_members:
                self._closed_members += b","
            self._closed_members += decision_member(txn_id, stub.closed_value)
        return stub

    def adopt_transfer(self, txn_id: int, value: int) -> TxnInstance:
        """Give ``txn_id`` the decision a peer transferred.

        The one way a decision is set from outside a step: the live node
        calls it once the decision record is appended, replay when it
        meets that record.
        """
        instance = self.ensure(txn_id)
        instance.transfer_decision = value
        instance.decision_logged = True
        self._undecided.pop(txn_id, None)
        return instance

    def closable_txns(self) -> list[int]:
        """Instances eligible for compaction into closed stubs: decided,
        with the decision durably logged."""
        return sorted(
            txn_id
            for txn_id, instance in self.live.items()
            if instance.decision is not None and instance.decision_logged
        )

    # -- aggregate views ---------------------------------------------------------

    @property
    def idle(self) -> bool:
        """No instance has protocol work left (idle ticks need no log)."""
        return not self._undecided

    @property
    def runnable(self) -> bool:
        """Some undecided instance would resume at an empty step taken
        now (see :attr:`~repro.sim.process.SimProcess.runnable`)."""
        return any(inst.process.runnable for inst in self._undecided.values())

    def decisions(self) -> dict[int, int]:
        """Every transaction this node has an effective decision for."""
        decided = dict(self._closed_decisions)
        for txn_id, inst in self.live.items():
            if inst.decision is not None:
                decided[txn_id] = inst.decision
        return decided

    def decisions_json(self) -> bytes:
        """:meth:`decisions` as the text of a JSON object, at the cost of
        the open work: the closed stubs' members were encoded when they
        closed (replay closes them again, in the same order), and
        only the decided instances still live are encoded per call.  Those
        are not cached: a live instance's effective decision can still
        pass from ``transfer`` to ``process``.  Keys are in no sorted order.
        """
        members = [self._closed_members] if self._closed_members else []
        members.extend(
            decision_member(txn_id, inst.decision)
            for txn_id, inst in self.live.items()
            if inst.decision is not None
        )
        return b"{%s}" % b",".join(members)

    def undecided_txns(self) -> list[int]:
        """Live instances still awaiting a decision."""
        return sorted(self._undecided)

    def digest(self) -> str:
        """Canonical hash of the whole multiplexer's observable state:
        every instance, closed stubs included, keyed by transaction id."""
        doc: dict[str, Any] = {}
        for txn_id in sorted(self.instances):
            inst = self.instances[txn_id]
            if inst.process is None:
                doc[str(txn_id)] = {
                    "closed": [inst.closed_value, inst.closed_origin]
                }
            else:
                entry: dict[str, Any] = {"state": state_digest(inst.process)}
                if inst.transfer_decision is not None:
                    entry["transfer"] = inst.transfer_decision
                doc[str(txn_id)] = entry
        body = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(body.encode("utf-8")).hexdigest()

    # -- stepping ------------------------------------------------------------------

    def apply_step(
        self, batch: Sequence[tuple[int, Iterable[PayloadGroup]]]
    ) -> StepEffects:
        """Apply one logged step: route the batch, step every instance
        with work, and merge the outgoing traffic.

        Args:
            batch: ``(local_sender, payload_groups)`` per delivered
                envelope, in delivery order.

        An undecided instance steps every call (idle ticks drive its
        timeout machinery), a decided instance steps only when the batch
        delivered payloads to it (absorbing), and a closed stub never
        steps.
        """
        effects = StepEffects()
        delivered: dict[int, list[ReceivedPayload]] = {}
        for sender, groups in batch:
            for txn_id, payloads in groups:
                instance = self.instances.get(txn_id)
                if instance is None:
                    instance = self._create(txn_id)
                if instance.process is None:
                    effects.closed_hits.append((sender, txn_id))
                    continue
                delivered.setdefault(txn_id, []).extend(
                    ReceivedPayload(
                        sender=sender,
                        payload=payload,
                        receive_clock=instance.process.clock + 1,
                    )
                    for payload in payloads
                )
        outgoing: dict[int, list[PayloadGroup]] = {}
        for txn_id, instance in self.live.items():
            process = instance.process
            inbound = delivered.get(txn_id)
            if instance.decision is not None and not inbound:
                continue
            sends = process.on_step(inbound or [])
            for recipient, payloads in sends:
                outgoing.setdefault(recipient, []).append(
                    (txn_id, tuple(payloads))
                )
            if process.decision is not None and not instance.decision_logged:
                instance.decision_logged = True
                del self._undecided[txn_id]
                effects.events.append(
                    tag_txn(
                        txn_id,
                        {
                            "type": "decision",
                            "value": process.decision,
                            "origin": "process",
                        },
                    )
                )
                effects.newly_decided.append(
                    (txn_id, process.decision, "process")
                )
        effects.outgoing = list(outgoing.items())
        return effects
