"""Replay: rebuilding a node's protocol state from its durable records.

The hosted state machines are Python generators
(:class:`~repro.sim.process.SimProcess`), which cannot be serialized
mid-run — so the WAL is a *command log*, not a state dump.  An ``init``
record pins the node configuration (including the tape seed), and each
``step`` record captures one call's replay input: the batch of
delivered envelopes, each envelope's payloads grouped by transaction
(:mod:`repro.service.txn`).  Deterministic re-execution of the same
inputs through the same :class:`~repro.service.txn.InstanceMux` the
live node steps reconstructs every instance byte-for-byte; idle ticks
(empty batches) are logged too because they advance undecided
instances' clocks and hence their timeout machinery.

Replay also regenerates everything volatile that died with the process:

* the **dedup set** — the identities of every envelope the node has
  applied, so a restarted node still rejects duplicates its previous
  life already consumed;
* the **outbox** — every outgoing envelope the previous life produced,
  with its *original* ``(incarnation, seq)`` identity (the replay walks
  ``recover`` records to know which incarnation was live at each step),
  so resending everything after a restart is safe: receivers that
  already applied an envelope drop the retransmission;
* the **service overlay** — decisions adopted via state transfer,
  instances compacted into closed stubs (``close`` records), and which
  transactions were already submitted.

:func:`state_digest` (re-exported from :mod:`repro.service.txn`)
canonicalises one instance's observable state into a hash; snapshots
store the multiplexer-wide digest so recovery can verify the replayed
prefix, and the property tests use it as the byte-identity oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import WalError
from repro.service.txn import (
    DEFAULT_TXN,
    InstanceMux,
    build_instance_process,
    groups_to_wal,
    state_digest,
    wal_to_groups,
)
from repro.service.wire import ServiceEnvelope
from repro.sim.process import SimProcess

__all__ = [
    "NodeConfig",
    "ReplayResult",
    "batch_to_record",
    "build_process",
    "replay",
    "state_digest",
]


@dataclass(frozen=True)
class NodeConfig:
    """Everything that pins one node's protocol behaviour.

    Stored in the ``init`` WAL record so a restart rebuilds the exact
    same program: same variant, same votes, same tape seeds.  The
    multi-transaction fields keep their v1 defaults out of the wire and
    WAL forms (``to_dict`` omits them), so single-transaction init
    records are byte-identical to the pre-multiplexer service's.

    Attributes:
        pid: this node's *local* pid within its commit group.
        n / t / K: the group's protocol parameters.
        vote: the default transaction's initial vote.
        tape_seed: root of this node's per-transaction tape seeds.
        variant: protocol program (see :mod:`repro.faults.variants`).
        multi_txn: host many concurrent transaction instances (lazily
            created) instead of the single eager default instance.
        base: first wire pid of this node's commit group — the offset
            between local protocol pids and transport addresses.
        commit_bias: Bernoulli parameter of derived per-transaction
            votes (:func:`repro.service.txn.txn_vote`).
    """

    pid: int
    n: int
    t: int
    K: int
    vote: int
    tape_seed: int
    variant: str = "commit"
    multi_txn: bool = False
    base: int = 0
    commit_bias: float = 1.0

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "pid": self.pid,
            "n": self.n,
            "t": self.t,
            "K": self.K,
            "vote": self.vote,
            "tape_seed": self.tape_seed,
            "variant": self.variant,
        }
        if self.multi_txn:
            doc["multi_txn"] = True
        if self.base:
            doc["base"] = self.base
        if self.commit_bias != 1.0:
            doc["commit_bias"] = self.commit_bias
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "NodeConfig":
        return cls(
            pid=doc["pid"],
            n=doc["n"],
            t=doc["t"],
            K=doc["K"],
            vote=doc["vote"],
            tape_seed=doc["tape_seed"],
            variant=doc.get("variant", "commit"),
            multi_txn=doc.get("multi_txn", False),
            base=doc.get("base", 0),
            commit_bias=doc.get("commit_bias", 1.0),
        )

    @property
    def wire_pid(self) -> int:
        """This node's transport address (group base + local pid)."""
        return self.base + self.pid


def build_process(config: NodeConfig) -> SimProcess:
    """A fresh process at step 0 for ``config``'s default transaction."""
    return build_instance_process(config, DEFAULT_TXN)


def batch_to_record(delivered: list[ServiceEnvelope]) -> list[list[Any]]:
    """The WAL form of one step's delivered batch.

    Each entry is ``[sender, incarnation, seq, payloads]`` where the
    payload slot uses :func:`repro.service.txn.groups_to_wal` — the v1
    flat payload list for single default-transaction traffic, the
    grouped form otherwise.
    """
    return [
        [
            env.sender,
            env.incarnation,
            env.seq,
            groups_to_wal(env.payload_groups()),
        ]
        for env in delivered
    ]


@dataclass
class ReplayResult:
    """A node's life, rebuilt from its durable records.

    Attributes:
        mux: the replayed instance multiplexer (every transaction's
            state machine, transfer overlay, and closed stubs).
        config: the ``init`` record's configuration.
        incarnation: this life's incarnation (count of ``recover``
            records — the caller appends the new ``recover`` record
            *after* replaying, so the value here is already the live
            one only if the caller logged it before calling).
        steps: protocol steps replayed.
        next_seq: the next unused sequence number of the *current*
            incarnation.
        applied: identities of every envelope ever applied (dedup set).
        outgoing: every ``(wire_recipient, envelope)`` the replayed
            life produced, with original identities, for
            resend-on-recovery.
        submitted_txns: transactions with a ``submit`` record.
    """

    mux: InstanceMux
    config: NodeConfig
    incarnation: int = 0
    steps: int = 0
    next_seq: int = 0
    applied: set[tuple[int, int, int]] = field(default_factory=set)
    outgoing: list[tuple[int, ServiceEnvelope]] = field(default_factory=list)
    submitted_txns: set[int] = field(default_factory=set)

    @property
    def process(self) -> SimProcess | None:
        """The default transaction's state machine (the v1 view)."""
        instance = self.mux.get(DEFAULT_TXN)
        return instance.process if instance is not None else None

    @property
    def transfer_decision(self) -> int | None:
        """The default transaction's transferred decision (v1 view)."""
        instance = self.mux.get(DEFAULT_TXN)
        return instance.transfer_decision if instance is not None else None

    @property
    def submitted(self) -> bool:
        return DEFAULT_TXN in self.submitted_txns

    @property
    def decision(self) -> int | None:
        """The default transaction's effective decision (v1 view)."""
        instance = self.mux.get(DEFAULT_TXN)
        return instance.decision if instance is not None else None

    def decisions(self) -> dict[int, int]:
        """Effective decisions across every replayed transaction."""
        return self.mux.decisions()


def replay(
    records: list[dict[str, Any]],
    expect_config: NodeConfig | None = None,
    verify_digest_at: tuple[int, str] | None = None,
    verify_digest_at_record: tuple[int, str] | None = None,
) -> ReplayResult:
    """Re-execute a record sequence into a live :class:`ReplayResult`.

    Args:
        records: the durable record sequence (snapshot records + log
            suffix, see :func:`repro.service.wal.durable_records`).
        expect_config: when given, the ``init`` record must match it —
            catches a WAL directory wired to the wrong node.
        verify_digest_at: optional ``(step, digest)`` integrity check —
            single-transaction snapshot recovery passes the snapshot's
            recorded digest and replay fails loudly if the replayed
            state diverges at that protocol step.
        verify_digest_at_record: optional ``(record_count, digest)``
            check against the multiplexer-wide digest after exactly
            that many records — multi-transaction snapshots verify
            here because their digest also covers between-step records
            (``close``, transferred decisions).

    Raises:
        WalError: on a record sequence no crash can produce — missing
            or mismatched ``init``, conflicting decision records, or a
            digest mismatch at the checkpoint.
    """
    if not records:
        raise WalError("cannot replay an empty record sequence (no init)")
    first = records[0]
    if first.get("type") != "init":
        raise WalError(
            f"first durable record must be init, got {first.get('type')!r}"
        )
    config = NodeConfig.from_dict(first["config"])
    if expect_config is not None and config != expect_config:
        raise WalError(
            f"WAL init record {config} does not match the expected "
            f"configuration {expect_config}"
        )

    result = ReplayResult(mux=InstanceMux(config), config=config)
    mux = result.mux
    seen_decisions: dict[int, int] = {}

    for index, record in enumerate(records[1:], start=2):
        rtype = record["type"]
        if rtype == "init":
            raise WalError("duplicate init record mid-log")
        if rtype == "step":
            batch = record.get("batch", [])
            local_batch = []
            for sender, incarnation, seq, payloads in batch:
                result.applied.add((sender, incarnation, seq))
                local_batch.append(
                    (sender - config.base, wal_to_groups(payloads))
                )
            effects = mux.apply_step(local_batch)
            result.steps += 1
            for recipient, groups in effects.outgoing:
                envelope = ServiceEnvelope.msg(
                    sender=config.wire_pid,
                    incarnation=result.incarnation,
                    seq=result.next_seq,
                    groups=groups,
                )
                result.next_seq += 1
                result.outgoing.append(
                    (config.base + recipient, envelope)
                )
            if (
                verify_digest_at is not None
                and result.steps == verify_digest_at[0]
            ):
                digest = state_digest(result.process)
                if digest != verify_digest_at[1]:
                    raise WalError(
                        f"replayed state digest {digest} does not match "
                        f"the snapshot digest {verify_digest_at[1]} at "
                        f"step {result.steps}"
                    )
        elif rtype == "recover":
            result.incarnation += 1
            result.next_seq = 0
        elif rtype == "decision":
            txn_id = record.get("txn", DEFAULT_TXN)
            value = record["value"]
            if txn_id in seen_decisions and seen_decisions[txn_id] != value:
                raise WalError(
                    f"conflicting decision records for transaction "
                    f"{txn_id} in one WAL: {seen_decisions[txn_id]} "
                    f"then {value}"
                )
            seen_decisions[txn_id] = value
            if record.get("origin") == "transfer":
                mux.adopt_transfer(txn_id, value)
            else:
                instance = mux.get(txn_id)
                if instance is not None:
                    instance.decision_logged = True
        elif rtype == "close":
            txn_id = record["txn"]
            instance = mux.get(txn_id)
            if instance is None or instance.process is None:
                raise WalError(
                    f"close record for transaction {txn_id} with no "
                    f"live instance to close"
                )
            if instance.decision != record.get("value"):
                raise WalError(
                    f"close record value {record.get('value')} conflicts "
                    f"with the replayed decision {instance.decision} of "
                    f"transaction {txn_id}"
                )
            mux.close_txn(txn_id)
        elif rtype == "submit":
            txn_id = record.get("txn", DEFAULT_TXN)
            mux.ensure(txn_id).submitted = True
            result.submitted_txns.add(txn_id)
        elif rtype in ("vote", "coins", "round"):
            pass  # written by older logs only; replay derives them from steps
        elif rtype == "compact":
            pass  # compaction marker; carries no protocol input
        else:  # pragma: no cover - reader already filters unknown types
            raise WalError(f"unknown record type {rtype!r}")
        if (
            verify_digest_at_record is not None
            and index == verify_digest_at_record[0]
        ):
            digest = mux.digest()
            if digest != verify_digest_at_record[1]:
                raise WalError(
                    f"replayed multiplexer digest {digest} does not "
                    f"match the snapshot digest "
                    f"{verify_digest_at_record[1]} after {index} records"
                )

    for txn_id, value in seen_decisions.items():
        instance = mux.get(txn_id)
        if (
            instance is not None
            and instance.process is not None
            and instance.process.decision is not None
            and instance.process.decision != value
        ):
            raise WalError(
                f"WAL decision record {value} for transaction {txn_id} "
                f"conflicts with the replayed process decision "
                f"{instance.process.decision}"
            )
    return result
