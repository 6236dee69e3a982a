"""Service envelopes as JSON lines.

The deployable service moves the simulator's typed payloads across real
process boundaries (TCP streams, write-ahead logs); each payload's dict
form is its wire form in the payload table (:mod:`repro.sim.payloads`),
which covers every protocol the service can host.  The envelope is the
service-layer unit of transmission: one sender step's payloads plus the
identity that makes retry-until-acked delivery safe.

Envelope identity is the triple ``(sender, incarnation, seq)``:

* ``seq`` counts envelopes per sender *incarnation*;
* ``incarnation`` counts the sender's recoveries, so a restarted node
  can never collide with sequence numbers its previous life consumed —
  receivers deduplicate on the full triple, and the dedup set is
  durable because every applied envelope's identity lands in the
  receiver's write-ahead log (:mod:`repro.service.wal`).

Control kinds (``ack``, ``state-query``, ``state-transfer``, ``submit``)
ride the same envelope format; only ``msg`` envelopes reach the hosted
protocol state machine.

**Multi-transaction envelopes (wire v2).**  A ``msg`` envelope carries
*groups*, ``(txn_id, payloads)`` pairs, one per hosted transaction.  A
lone default-transaction group (:data:`DEFAULT_TXN`) keeps the original
v1 ``payloads`` form, byte for byte; anything else goes under ``txns``,
which v1 never emitted (see :meth:`ServiceEnvelope.msg`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import ServiceError
from repro.sim.message import Payload
from repro.sim.payloads import from_wire, to_wire

#: Envelope kinds the service understands.  ``msg`` carries protocol
#: payloads; the rest are service-layer control traffic.
KINDS = ("msg", "ack", "state-query", "state-transfer", "submit")

#: Longest line (one encoded envelope) a stream reader accepts, passed as
#: ``limit`` wherever the service opens or accepts a connection.  asyncio's
#: default of 64 KiB is reached by a status reply listing some 8000
#: decisions; a reader that meets a longer line closes that connection.
MAX_LINE_BYTES = 1 << 20

#: The transaction id of the original single-transaction service.  A v1
#: envelope or WAL record, which predates transaction ids entirely,
#: always denotes this transaction.
DEFAULT_TXN = 0

#: One transaction's payloads inside an envelope: ``(txn_id, payloads)``.
PayloadGroup = tuple[int, tuple[Payload, ...]]


def encode_groups(groups: Iterable[PayloadGroup]) -> list[list[Any]]:
    """``[[txn, [payload, ...]], ...]``: payload groups as the envelope's
    ``txns`` and the WAL's ``{"g": ...}`` carry them."""
    return [[txn, [to_wire(p) for p in payloads]] for txn, payloads in groups]


def decode_groups(items: Iterable[Any]) -> tuple[PayloadGroup, ...]:
    """The groups of :func:`encode_groups` output, trusting nothing."""
    groups = tuple((txn, tuple(map(from_wire, payloads))) for txn, payloads in items)
    if any(type(txn) is not int for txn, _ in groups):
        raise ServiceError(f"a transaction id is an integer: {items!r}")
    return groups


def _malformed(doc: Any) -> ServiceError:
    return ServiceError(f"malformed envelope: {doc!r}")


@dataclass(frozen=True)
class ServiceEnvelope:
    """One service-layer transmission unit.

    Attributes:
        kind: one of :data:`KINDS`.
        sender: sending node's pid.
        incarnation: sender's recovery count when the envelope was
            first created (identity component, see module docstring).
        seq: per-(sender, incarnation) sequence number; ``-1`` for
            unsequenced control traffic (acks).
        payloads: protocol payloads of the default transaction (the v1
            form; ``msg`` envelopes only).
        groups: per-transaction payload groups (the v2 multi-transaction
            form).  At most one of ``payloads``/``groups`` is set; use
            :meth:`msg` to build outgoing protocol envelopes in normal
            form and :meth:`payload_groups` to read either form.
        body: control data — the acked ``(incarnation, seq)`` pair for
            ``ack``, the transferred state for ``state-transfer``.
    """

    kind: str
    sender: int
    incarnation: int = 0
    seq: int = -1
    payloads: tuple[Payload, ...] = ()
    groups: tuple[PayloadGroup, ...] = ()
    body: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ServiceError(
                f"unknown envelope kind {self.kind!r}; choose from {KINDS}"
            )
        if self.payloads and self.groups:
            raise ServiceError(
                "an envelope carries v1 payloads or v2 groups, never both"
            )

    @property
    def identity(self) -> tuple[int, int, int]:
        """The dedup key ``(sender, incarnation, seq)``."""
        return (self.sender, self.incarnation, self.seq)

    @classmethod
    def msg(
        cls,
        sender: int,
        incarnation: int,
        seq: int,
        groups: Iterable[tuple[int, Iterable[Payload]]],
    ) -> "ServiceEnvelope":
        """An outgoing protocol envelope in wire normal form.

        A single default-transaction group becomes a v1 ``payloads``
        envelope (byte-identical to the pre-multiplexer encoding);
        anything else carries v2 ``groups``.
        """
        normal = tuple(
            (txn, tuple(payloads)) for txn, payloads in groups if payloads
        )
        if len(normal) == 1 and normal[0][0] == DEFAULT_TXN:
            return cls(
                kind="msg",
                sender=sender,
                incarnation=incarnation,
                seq=seq,
                payloads=normal[0][1],
            )
        return cls(
            kind="msg",
            sender=sender,
            incarnation=incarnation,
            seq=seq,
            groups=normal,
        )

    def payload_groups(self) -> tuple[PayloadGroup, ...]:
        """The per-transaction view of this envelope's payloads.

        Reads both wire forms: v1 payloads are the default transaction's
        single group.
        """
        if self.groups:
            return self.groups
        if self.payloads:
            return ((DEFAULT_TXN, self.payloads),)
        return ()

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "kind": self.kind,
            "sender": self.sender,
            "incarnation": self.incarnation,
            "seq": self.seq,
        }
        if self.payloads:
            doc["payloads"] = [to_wire(p) for p in self.payloads]
        if self.groups:
            doc["txns"] = encode_groups(self.groups)
        if self.body:
            doc["body"] = self.body
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ServiceEnvelope":
        """Rebuild an envelope, trusting nothing about ``doc``.

        Lines come off a TCP port anyone can write to, and what this
        returns goes straight into the node's run loop: every field is
        checked for its type here, so the code behind it may rely on
        ``kind`` being a string, ``sender`` / ``incarnation`` / ``seq``
        and every transaction id integers (``bool`` is not one), ``body``
        an object, and every payload what its row of the payload table
        (:mod:`repro.sim.payloads`) requires.

        Raises:
            ServiceError: on anything else.
        """
        if not isinstance(doc, dict):
            raise _malformed(doc)
        kind, body = doc.get("kind"), doc.get("body", {})
        identity = (
            doc.get("sender"),
            doc.get("incarnation", 0),
            doc.get("seq", -1),
        )
        if (
            not isinstance(kind, str)
            or not isinstance(body, dict)
            or any(type(number) is not int for number in identity)
        ):
            raise _malformed(doc)
        sender, incarnation, seq = identity
        try:
            return cls(
                kind=kind,
                sender=sender,
                incarnation=incarnation,
                seq=seq,
                payloads=tuple(from_wire(p) for p in doc.get("payloads", ())),
                groups=decode_groups(doc.get("txns", ())),
                body=body,
            )
        except (KeyError, TypeError, ValueError, ServiceError) as exc:
            raise _malformed(doc) from exc

    def encode(self) -> bytes:
        """One newline-terminated JSON line (the TCP framing)."""
        return (
            json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
            + "\n"
        ).encode("utf-8")

    @classmethod
    def decode(cls, line: bytes | str) -> "ServiceEnvelope":
        """The envelope of one line, or :class:`ServiceError`, never
        anything else, whatever bytes the line holds."""
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            doc = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # Not UTF-8, not JSON, or nested past the parser's depth.
            raise ServiceError(f"undecodable envelope line: {line!r}") from exc
        return cls.from_dict(doc)


def splice_member(line: bytes, key: str, value: bytes) -> bytes:
    """``line`` with the ``null`` of its ``"<key>":null`` member replaced
    by ``value``, JSON text that is already encoded.

    How a reply carries text that was encoded once, when it became
    immutable, instead of values ``json.dumps`` would encode again on
    every call: the sender encodes the envelope with the member set to
    ``None`` and splices the text in.  A reader cannot tell the result
    from a line encoded in one piece, except by the order of the keys
    inside ``value``.

    Raises:
        ServiceError: unless exactly one such member is in ``line``.
    """
    marker = b'"%s":null' % key.encode("utf-8")
    head, found, tail = line.partition(marker)
    if not found or marker in tail:
        raise ServiceError(
            f"cannot splice {key!r}: not exactly one null member in {line!r}"
        )
    return b"".join((head, marker[:-4], value, tail))
