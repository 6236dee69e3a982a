"""The payload table: every protocol payload's dict form, in one place.

The service's wire envelopes (:mod:`repro.service.wire`), its WAL and
state digest (:mod:`repro.service.txn`) and the JSONL run-trace
(:mod:`repro.telemetry.runio`) encode payloads only through this table.
Each :class:`~repro.sim.message.Payload` dataclass has one row: its
run-trace name (the class name, under ``"kind"``), its wire key (under
``"k"``: ``go``, ``vote``, ``stage``, ``decided`` and ``raw``, the forms
the service has always written, and the class name for every other
payload), and a check per field from its annotation: ``int`` (never a
``bool``), ``int | None``, ``tuple[int, ...]`` (a list in the dict
form) or ``Any`` (any JSON value); a row with another annotation fails
to build.  A document with a missing, extra or ill-typed member raises
``ValueError`` or ``KeyError``.  Rows are built on first use, so a
process imports a protocol's messages only when it meets one of them.
"""

from __future__ import annotations

import dataclasses
import importlib
import typing
from typing import Any, Callable

from repro.sim.message import Payload

#: ``(module, class name, wire key)`` per payload dataclass; a wire key
#: of ``None`` is the class name.
PAYLOADS: tuple[tuple[str, str, str | None], ...] = (
    ("repro.core.messages", "GoMessage", "go"),
    ("repro.core.messages", "VoteMessage", "vote"),
    ("repro.core.messages", "StageMessage", "stage"),
    ("repro.core.messages", "DecidedMessage", "decided"),
    ("repro.sim.message", "RawPayload", "raw"),
    ("repro.core.coin_providers", "CoinShare", None),
    ("repro.protocols.messages", "VoteRequest", None),
    ("repro.protocols.messages", "ParticipantVote", None),
    ("repro.protocols.messages", "PreCommit", None),
    ("repro.protocols.messages", "PreCommitAck", None),
    ("repro.protocols.messages", "DecisionAnnouncement", None),
)


#: Per annotation the table knows: the exact types its value may have in
#: a dict form (``None``: any JSON value), and whether it is a tuple of
#: ints, which the dict form writes as a list.
_FORMS: dict[Any, tuple[tuple[type, ...] | None, bool]] = {
    int: ((int,), False),
    int | None: ((int, type(None)), False),
    tuple[int, ...]: ((list,), True),
    Any: (None, False),
}


@dataclasses.dataclass(frozen=True)
class PayloadRow:
    """A payload class, its run-trace name and wire key, and
    ``(field, types, is_tuple)`` per field (see ``_FORMS``)."""

    cls: type[Payload]
    name: str
    key: str
    fields: tuple[tuple[str, tuple[type, ...] | None, bool], ...]

    @classmethod
    def build(cls, payload_cls: type[Payload], key: str | None) -> PayloadRow:
        """Raises ``TypeError`` on an annotation without a check."""
        hints = typing.get_type_hints(payload_cls)
        fields = []
        for field in dataclasses.fields(payload_cls):
            if hints[field.name] not in _FORMS:
                raise TypeError(
                    f"{payload_cls.__name__}.{field.name}: the payload table "
                    f"has no check for {hints[field.name]!r}"
                )
            fields.append((field.name, *_FORMS[hints[field.name]]))
        name = payload_cls.__name__
        return cls(payload_cls, name, key or name, tuple(fields))


#: Where each row's class lives, by ``(module, class name)``, by
#: ``("k", wire key)`` and by ``("kind", class name)``.
_HOMES: dict[tuple[str, str], tuple[str, str, str | None]] = {
    **{home[:2]: home for home in PAYLOADS},
    **{("k", home[2] or home[1]): home for home in PAYLOADS},
    **{("kind", home[1]): home for home in PAYLOADS},
}
#: The rows built so far, by class and by the ``_HOMES`` keys but the first.
_ROWS: dict[Any, PayloadRow] = {}


def _load(home: tuple[str, str, str | None]) -> PayloadRow:
    module, name, key = home
    payload_cls = getattr(importlib.import_module(module), name)
    if payload_cls not in _ROWS:
        row = PayloadRow.build(payload_cls, key)
        _ROWS[payload_cls] = _ROWS["k", row.key] = _ROWS["kind", name] = row
    return _ROWS[payload_cls]


def row_of(payload_cls: type) -> PayloadRow:
    """The row of a payload class; ``TypeError`` if it has none."""
    home = _HOMES.get((payload_cls.__module__, payload_cls.__name__))
    if home is None:
        raise TypeError(f"{payload_cls.__name__} is not in the payload table")
    return _load(home)


def payload_rows() -> tuple[PayloadRow, ...]:
    """Every row, in table order (imports every payload's module)."""
    return tuple(_load(home) for home in PAYLOADS)


def _decoder(tag: str) -> Callable[[Any], Payload]:
    def decode(doc: Any) -> Payload:
        if type(doc) is not dict or type(doc.get(tag)) is not str:
            raise ValueError(f"not a payload with a {tag!r} string: {doc!r}")
        at = (tag, doc[tag])
        row = _ROWS.get(at) or _load(_HOMES[at])
        if len(doc) != len(row.fields) + 1:
            raise ValueError(f"{row.name} has other fields: {doc!r}")
        values = []
        for name, types, is_tuple in row.fields:
            value = doc[name]
            if types is not None and type(value) not in types:
                raise ValueError(f"{row.name}.{name} is ill-typed: {doc!r}")
            if is_tuple:
                if any(type(item) is not int for item in value):
                    raise ValueError(f"{row.name}.{name} is ill-typed: {doc!r}")
                value = tuple(value)
            values.append(value)
        return row.cls(*values)

    return decode


def _encoder(tag: str, label: str) -> Callable[[Payload], dict[str, Any]]:
    def encode(payload: Payload) -> dict[str, Any]:
        row = _ROWS.get(type(payload)) or row_of(type(payload))
        doc = {tag: getattr(row, label)}
        for name, _types, is_tuple in row.fields:
            value = getattr(payload, name)
            doc[name] = list(value) if is_tuple else value
        return doc

    return encode


#: A payload's wire and WAL form, ``{"k": <wire key>, <field>: ...}``.
to_wire = _encoder("k", "key")
#: The payload of a wire form, trusting nothing about it.
from_wire = _decoder("k")
#: A payload's run-trace form, ``{"kind": <class name>, <field>: ...}``.
to_trace = _encoder("kind", "name")
#: The payload of a run-trace form, trusting nothing about it.
from_trace = _decoder("kind")
