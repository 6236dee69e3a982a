"""Unit tests for the service wire codecs: payloads and envelopes."""

import json

import pytest

from repro.core.messages import (
    DecidedMessage,
    GoMessage,
    StageMessage,
    VoteMessage,
)
from repro.errors import ServiceError
from repro.service.wire import (
    ServiceEnvelope,
    payload_from_dict,
    payload_to_dict,
)
from repro.sim.message import RawPayload

PAYLOADS = [
    GoMessage(coins=(1, 0, 1, 1)),
    VoteMessage(vote=1),
    StageMessage(phase=2, stage=1, value=0),
    DecidedMessage(value=1),
    RawPayload(data="ping"),
]


class TestPayloadCodec:
    @pytest.mark.parametrize("payload", PAYLOADS, ids=lambda p: type(p).__name__)
    def test_roundtrip(self, payload):
        assert payload_from_dict(payload_to_dict(payload)) == payload

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError):
            payload_from_dict({"k": "mystery"})


class TestEnvelope:
    def test_roundtrip_with_payloads(self):
        envelope = ServiceEnvelope(
            kind="msg",
            sender=2,
            incarnation=1,
            seq=7,
            payloads=tuple(PAYLOADS),
        )
        assert ServiceEnvelope.decode(envelope.encode()) == envelope

    def test_roundtrip_control_body(self):
        envelope = ServiceEnvelope(
            kind="ack", sender=0, body={"incarnation": 0, "seq": 3}
        )
        again = ServiceEnvelope.decode(envelope.encode())
        assert again.body == {"incarnation": 0, "seq": 3}
        assert again.payloads == ()

    def test_identity_is_sender_incarnation_seq(self):
        envelope = ServiceEnvelope(kind="msg", sender=3, incarnation=2, seq=9)
        assert envelope.identity == (3, 2, 9)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError):
            ServiceEnvelope(kind="gossip", sender=0)

    def test_undecodable_line_rejected(self):
        with pytest.raises(ServiceError):
            ServiceEnvelope.decode(b"not json\n")

    def test_malformed_doc_rejected(self):
        with pytest.raises(ServiceError):
            ServiceEnvelope.decode(b'{"kind": "msg"}\n')

    def test_encoding_is_one_line(self):
        line = ServiceEnvelope(kind="state-query", sender=-1).encode()
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1


#: Payload fields the payloads' own range checks let through: ``true``
#: is in ``(0, 1)`` and ``1.5`` is not below 1.  Each must be refused.
ILL_TYPED_PAYLOADS = [
    {"k": "stage", "phase": True, "stage": 1.5, "value": 1},
    {"k": "stage", "phase": 1, "stage": 1.5, "value": 1},
    {"k": "stage", "phase": 2, "stage": 1, "value": True},
    {"k": "go", "coins": [True, 0]},
    {"k": "go", "coins": "01"},
    {"k": "vote", "vote": 1.0},
    {"k": "decided", "value": False},
]


class TestIllTypedFields:
    @pytest.mark.parametrize("doc", ILL_TYPED_PAYLOADS, ids=repr)
    def test_payload_rejected(self, doc):
        with pytest.raises(ServiceError):
            payload_from_dict(doc)

    @pytest.mark.parametrize("doc", ILL_TYPED_PAYLOADS, ids=repr)
    def test_envelope_carrying_it_is_malformed(self, doc):
        line = json.dumps({"kind": "msg", "sender": 1, "seq": 0, "payloads": [doc]})
        with pytest.raises(ServiceError, match="malformed envelope"):
            ServiceEnvelope.decode(line)

    @pytest.mark.parametrize("txn", [True, "5", 5.0], ids=repr)
    def test_transaction_id_is_not_coerced(self, txn):
        line = json.dumps(
            {
                "kind": "msg",
                "sender": 1,
                "seq": 0,
                "txns": [[txn, [{"k": "vote", "vote": 1}]]],
            }
        )
        with pytest.raises(ServiceError, match="malformed envelope"):
            ServiceEnvelope.decode(line)

    def test_well_typed_fields_still_decode(self):
        line = json.dumps(
            {
                "kind": "msg",
                "sender": 1,
                "seq": 0,
                "txns": [
                    [5, [{"k": "stage", "phase": 2, "stage": 3, "value": None}]]
                ],
            }
        )
        envelope = ServiceEnvelope.decode(line)
        assert envelope.groups == ((5, (StageMessage(phase=2, stage=3, value=None),)),)
