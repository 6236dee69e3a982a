"""Fuzz: whatever arrives on the TCP port is an envelope or is dropped.

Valid lines of every envelope kind are mutated, byte by byte and value
by value, and two things are required of the result:

* ``ServiceEnvelope.decode`` returns an envelope or raises
  ``ServiceError``, nothing else (the server's connection handler and
  the clients catch exactly that);
* every envelope it does return is taken by ``ServiceNode._absorb`` and
  ``ServiceServer._client_request`` without raising, and the node's run
  loop is still stepping afterwards.

Payloads of every class in the payload table round-trip through an
envelope, and a payload broken in any way makes its envelope malformed.

Derandomizing and the example database come from the suite's Hypothesis
profile (``tests/conftest.py``): under the default ``tier1`` profile
every run of the suite draws the same examples.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import (
    DecidedMessage,
    GoMessage,
    StageMessage,
    VoteMessage,
)
from repro.errors import ServiceError
from repro.protocols.messages import ParticipantVote, VoteRequest
from repro.service.server import ServiceServer
from repro.service.virtualtime import run_virtual
from repro.service.wal import MemoryWalStore
from repro.service.wire import KINDS, ServiceEnvelope

from tests.service.test_txn import multi_config
from tests.sim.test_payloads import payloads, refused

PEERS = [("127.0.0.1", 1)] * 3  # never dialled: the node's sends are checked and dropped
PAYLOADS = (
    GoMessage(coins=(1, 0, 1)),
    VoteMessage(vote=1),
    StageMessage(phase=2, stage=1, value=None),
    DecidedMessage(value=0),
)
VALID = [
    ServiceEnvelope.msg(sender=0, incarnation=0, seq=3, groups=[(0, PAYLOADS)]),
    ServiceEnvelope.msg(
        sender=2, incarnation=1, seq=0, groups=[(5, PAYLOADS[:2]), (6, PAYLOADS[2:])]
    ),
    ServiceEnvelope.msg(
        sender=1,
        incarnation=0,
        seq=4,
        groups=[(8, (VoteRequest(), ParticipantVote(vote=0)))],
    ),
    ServiceEnvelope(kind="ack", sender=2, body={"incarnation": 0, "seq": 3}),
    ServiceEnvelope(kind="submit", sender=-1, body={"txn": 9}),
    ServiceEnvelope(kind="submit", sender=-1),
    ServiceEnvelope(kind="state-query", sender=-1),
    ServiceEnvelope(
        kind="state-query", sender=2, incarnation=1, body={"txns": [5, 6]}
    ),
    ServiceEnvelope(
        kind="state-transfer",
        sender=2,
        incarnation=1,
        body={"decision": None, "decisions": {"5": 1, "6": 0}},
    ),
]  # fmt: skip
VALID_LINES = [envelope.encode() for envelope in VALID]

BODY_KEYS = ("txn", "txns", "decision", "decisions", "seq", "incarnation", "5")

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 1 << 40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


def like(value):
    """Values of ``value``'s own type: what a strict decoder lets through."""
    if isinstance(value, bool) or value is None:
        return st.none() | st.booleans() | st.integers(-1, 2)
    if isinstance(value, int):
        return st.integers(-5, 1 << 33)
    if isinstance(value, str):
        keys = ("go", "vote", "stage", "decided", "raw", "VoteRequest", "PreCommit")
        return st.sampled_from(KINDS + keys + ("7",))
    if isinstance(value, list):
        return st.lists(json_values, max_size=3)
    return st.dictionaries(st.sampled_from(BODY_KEYS), json_values, max_size=3)


def value_paths(doc, prefix=()):
    """Every position in a JSON document, as a tuple of keys/indices."""
    yield prefix
    if isinstance(doc, (dict, list)):
        children = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, child in children:
            yield from value_paths(child, prefix + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = replaced(doc[path[0]], path[1:], value)
    return copy


@st.composite
def mutated_lines(draw):
    """A valid line after a few byte edits or value replacements."""
    line = draw(st.sampled_from(VALID_LINES))
    if draw(st.integers(0, 2)):  # two in three: most byte edits are not JSON
        doc = json.loads(line)
        for _ in range(draw(st.integers(1, 3))):
            paths = list(value_paths(doc))
            path = paths[draw(st.integers(1, len(paths) - 1))]
            old = doc
            for key in path:
                old = old[key]
            doc = replaced(doc, path, draw(like(old) | json_values))
        return json.dumps(doc).encode("utf-8") + b"\n"
    data = bytearray(line)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, max(0, len(data) - 1)))
        edit = draw(st.sampled_from(("set", "insert", "delete")))
        if edit == "delete" and data:
            del data[at]
        elif edit == "insert":
            data.insert(at, draw(st.integers(0, 255)))
        elif data:
            data[at] = draw(st.integers(0, 255))
    return bytes(data)


def decoded(line):
    try:
        return ServiceEnvelope.decode(line)
    except ServiceError:
        return None


@settings(max_examples=400, deadline=None)
@given(st.one_of(mutated_lines(), st.binary(max_size=120)))
def test_decode_returns_an_envelope_or_raises_service_error(line):
    envelope = decoded(line)  # any other exception fails the test
    if envelope is not None:
        assert isinstance(envelope.kind, str)
        assert isinstance(envelope.body, dict)
        for number in envelope.identity:
            assert type(number) is int


def test_the_seed_lines_decode_and_near_misses_do_not():
    """(The four lines that once ended a node are sent over a socket in
    ``tests/service/test_server_channels.py``.)"""
    assert [decoded(line) for line in VALID_LINES] == VALID
    for line in (
        b'{"kind":"msg","sender":1,"payloads":[1]}',
        b'{"kind":"msg","sender":true}',
        b'{"kind":"msg","sender":1,"seq":1.0}',
        b'["msg",1]',
        b"[" * 100_000,  # past the JSON parser's depth: RecursionError
    ):
        assert decoded(line + b"\n") is None


groups = st.lists(
    st.tuples(st.integers(0, 9), st.lists(payloads(), min_size=1, max_size=3)),
    min_size=1,
    max_size=3,
)


@given(groups)
def test_payloads_of_every_class_round_trip_in_an_envelope(groups):
    envelope = ServiceEnvelope.msg(sender=1, incarnation=0, seq=2, groups=groups)
    assert ServiceEnvelope.decode(envelope.encode()) == envelope


@given(groups, st.data())
def test_a_broken_payload_makes_its_envelope_malformed(groups, data):
    envelope = ServiceEnvelope.msg(sender=1, incarnation=0, seq=2, groups=groups)
    doc = envelope.to_dict()
    slots = doc["txns"][0][1] if "txns" in doc else doc["payloads"]
    at = data.draw(st.integers(0, len(slots) - 1))
    slots[at] = data.draw(refused(slots[at], "k"))
    with pytest.raises(ServiceError, match="malformed envelope"):
        ServiceEnvelope.decode(json.dumps(doc))


@settings(max_examples=150, deadline=None)
@given(st.lists(mutated_lines(), min_size=1, max_size=6))
def test_what_decodes_is_absorbed_and_the_node_keeps_stepping(lines):
    envelopes = [e for e in map(decoded, lines) if e is not None]
    server = ServiceServer(
        multi_config(pid=1),
        MemoryWalStore(),
        PEERS,
        tick_interval=0.002,
        fsync=False,
        snapshot_every=4,
    )
    node = server.node

    def send(recipient, envelope, attempt):
        # The server's own ``_send`` indexes its channels by recipient.
        assert 0 <= recipient < len(PEERS), f"sent to p{recipient}: no such peer"

    node._send_raw = send

    async def scenario():
        runner = asyncio.ensure_future(node.run())
        await asyncio.sleep(0.001)
        node.submit_txn(77)  # an open instance: the loop has steps to take
        for envelope in envelopes:
            node._absorb(envelope)
            reply = ServiceEnvelope.decode(server._client_request(envelope))
            assert reply.kind in ("ack", "state-transfer")
            node.deliver(envelope)
            await asyncio.sleep(0.003)
        steps = node._steps
        await asyncio.sleep(0.01)
        assert not runner.done(), runner.exception()
        assert node._steps > steps
        node.halt()
        await asyncio.wait_for(runner, timeout=1.0)

    run_virtual(scenario())
