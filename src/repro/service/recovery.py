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

**The v1 reader.**  Logs written before every node hosted transactions
by id (v1) have an ``init`` record without the :data:`FORMAT_MARKER`.
Their node opened transaction 0 at start without logging it, so such a
log replays as its ``init`` followed by a ``submit`` of transaction 0
(:func:`current_form`), and its snapshot stored the bare
:func:`state_digest` of that one instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError, WalError
from repro.service.txn import (
    DEFAULT_TXN,
    InstanceMux,
    groups_to_wal,
    state_digest,
    wal_to_groups,
)
from repro.service.wire import ServiceEnvelope

__all__ = [
    "FORMAT_MARKER",
    "NodeConfig",
    "ReplayResult",
    "batch_to_record",
    "current_form",
    "replay",
    "state_digest",
]

#: The key every ``init`` record's config carries (value ``true``) since
#: each node hosts its transactions by id; a v1 ``init`` lacks it.
FORMAT_MARKER = "multi_txn"


@dataclass(frozen=True)
class NodeConfig:
    """Everything that pins one node's protocol behaviour.

    Stored in the ``init`` WAL record so a restart rebuilds the exact
    same program: same variant, same votes, same tape seeds.  ``to_dict``
    leaves ``base`` and ``commit_bias`` out at their defaults and always
    writes the :data:`FORMAT_MARKER`, which ``from_dict`` ignores.

    Attributes:
        pid: this node's *local* pid within its commit group.
        n / t / K: the group's protocol parameters.
        vote: transaction 0's initial vote (a single commit's).
        tape_seed: root of this node's per-transaction tape seeds.
        variant: protocol program (see :mod:`repro.faults.variants`).
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
            FORMAT_MARKER: True,
        }
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
            base=doc.get("base", 0),
            commit_bias=doc.get("commit_bias", 1.0),
        )

    @property
    def wire_pid(self) -> int:
        """This node's transport address (group base + local pid)."""
        return self.base + self.pid


def current_form(
    records: list[dict[str, Any]],
) -> tuple[list[dict[str, Any]], bool]:
    """``records`` as the current writer would have logged them, and
    whether they were v1.

    A v1 ``init`` (no :data:`FORMAT_MARKER`) gains the marker and is
    followed by the ``submit`` of transaction 0 its node never logged.
    A node keeps the result as its history, so the first snapshot it
    writes of a v1 log is in the current form.
    """
    init = records[0] if records else None
    if (
        not isinstance(init, dict)
        or init.get("type") != "init"
        or not isinstance(init.get("config"), dict)
        or FORMAT_MARKER in init["config"]
    ):
        return records, False
    marked = dict(init, config=dict(init["config"], **{FORMAT_MARKER: True}))
    return [marked, {"type": "submit"}, *records[1:]], True


def batch_to_record(delivered: list[ServiceEnvelope]) -> list[list[Any]]:
    """The WAL form of one step's delivered batch.

    Each entry is ``[sender, incarnation, seq, payloads]`` where the
    payload slot uses :func:`repro.service.txn.groups_to_wal` — the v1
    flat payload list for traffic of transaction 0 alone, the grouped
    form otherwise.
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
        records: the replayed records in the current form
            (:func:`current_form`).
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
    records: list[dict[str, Any]] = field(default_factory=list)
    incarnation: int = 0
    steps: int = 0
    next_seq: int = 0
    applied: set[tuple[int, int, int]] = field(default_factory=set)
    outgoing: list[tuple[int, ServiceEnvelope]] = field(default_factory=list)
    submitted_txns: set[int] = field(default_factory=set)

    def decisions(self) -> dict[int, int]:
        """Effective decisions across every replayed transaction."""
        return self.mux.decisions()


def replay(
    records: list[dict[str, Any]],
    expect_config: NodeConfig | None = None,
    snapshot_digest: tuple[int, str] | None = None,
) -> ReplayResult:
    """Re-execute a record sequence into a live :class:`ReplayResult`.

    Args:
        records: the durable record sequence (snapshot records + log
            suffix, see :func:`repro.service.wal.durable_records`).
        expect_config: when given, the ``init`` record must match it —
            catches a WAL directory wired to the wrong node.
        snapshot_digest: optional ``(record_count, digest)`` of the
            snapshot ``records`` start with, checked after exactly that
            many records.  The digest is the multiplexer's,
            which also covers between-step records (``close``,
            transferred decisions); a v1 snapshot stored the bare
            :func:`state_digest` of transaction 0, which no record
            after the last step changes.

    Raises:
        WalError: on a record sequence no crash can produce — missing
            or mismatched ``init``, conflicting decision records, a
            digest mismatch at the checkpoint, or a record whose body no
            node writes (its checksum only says it was written whole).
    """
    try:
        return _replay(records, expect_config, snapshot_digest)
    except WalError:
        raise
    except (
        ReproError,
        LookupError,
        TypeError,
        ValueError,
        ArithmeticError,
        AttributeError,
    ) as exc:
        raise WalError(f"WAL record cannot be replayed: {exc!r}") from exc


def _replay(
    records: list[dict[str, Any]],
    expect_config: NodeConfig | None,
    snapshot_digest: tuple[int, str] | None,
) -> ReplayResult:
    if not records:
        raise WalError("cannot replay an empty record sequence (no init)")
    records, v1 = current_form(records)
    if snapshot_digest is not None and v1:
        # Counted in the records as written, before the inserted submit.
        count, expected_digest = snapshot_digest
        snapshot_digest = (count + 1, expected_digest)
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

    result = ReplayResult(
        mux=InstanceMux(config), config=config, records=records
    )
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
        if snapshot_digest is not None and index == snapshot_digest[0]:
            if v1:
                digest = state_digest(mux.get(DEFAULT_TXN).process)
            else:
                digest = mux.digest()
            if digest != snapshot_digest[1]:
                raise WalError(
                    f"replayed digest {digest} does not match the "
                    f"snapshot digest {snapshot_digest[1]} after {index} "
                    f"records"
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
