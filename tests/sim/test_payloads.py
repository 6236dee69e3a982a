"""The payload table: coverage, field checks, lazy rows, and the
strategies the wire and run-trace property tests draw from."""

import dataclasses
import importlib
import json
import pkgutil
import subprocess
import sys
import typing
from typing import Any

import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

import repro
from repro.core.messages import GoMessage, VoteMessage
from repro.sim.message import Payload
from repro.sim.payloads import (
    PAYLOADS,
    PayloadRow,
    from_trace,
    from_wire,
    payload_rows,
    row_of,
    to_trace,
    to_wire,
)

ROWS = payload_rows()

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

#: Values of each annotation the table knows, mostly in range.
FIELD_VALUES = {
    int: st.integers(0, 2),
    int | None: st.none() | st.integers(0, 2),
    tuple[int, ...]: st.lists(st.integers(0, 1), max_size=4).map(tuple),
    Any: json_values,
}

#: Values each annotation's check refuses (``Any`` refuses nothing).
ILL_TYPED = {
    int: [True, False, 1.5, "1", None, [1], {}],
    int | None: [True, 1.5, "1", [1], {}],
    tuple[int, ...]: ["01", [True], [1.0], [None], 1, None, {}],
    Any: [],
}


def _hints(row):
    return typing.get_type_hints(row.cls)


@st.composite
def payloads(draw):
    """A payload of any class in the table."""
    row = draw(st.sampled_from(ROWS))
    hints = _hints(row)
    kwargs = {name: draw(FIELD_VALUES[hints[name]]) for name, _, _ in row.fields}
    try:
        return row.cls(**kwargs)
    except ValueError:  # out of the payload's own range
        reject()


@st.composite
def refused(draw, doc, tag):
    """``doc``, one payload's dict form under ``tag``, broken so that
    its decoder must refuse it."""
    row = next(r for r in ROWS if doc[tag] in (r.key, r.name))
    hints = _hints(row)
    typed = [name for name, _, _ in row.fields if ILL_TYPED[hints[name]]]
    edits = ["extra", "tag", "untagged", "not-an-object"]
    if row.fields:
        edits.append("drop")
    if typed:
        edits.append("ill-typed")
    edit = draw(st.sampled_from(edits))
    broken = dict(doc)
    if edit == "extra":
        broken["extra"] = draw(json_values)
    elif edit == "tag":
        broken[tag] = draw(st.sampled_from(["mystery", "", 7, None, ["go"]]))
    elif edit == "untagged":
        del broken[tag]
    elif edit == "not-an-object":
        return draw(st.sampled_from([[], "go", 1, None, [doc]]))
    elif edit == "drop":
        del broken[draw(st.sampled_from([name for name, _, _ in row.fields]))]
    else:
        name = draw(st.sampled_from(typed))
        broken[name] = draw(st.sampled_from(ILL_TYPED[hints[name]]))
    return broken


def _payload_classes_under_repro():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    found, stack = set(), [Payload]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("repro.") and dataclasses.is_dataclass(cls):
                found.add(cls)
    return found


class TestTable:
    def test_table_covers_every_payload_dataclass(self):
        assert _payload_classes_under_repro() == {row.cls for row in ROWS}

    def test_each_class_is_listed_once(self):
        assert len({name for _, name, _ in PAYLOADS}) == len(PAYLOADS)
        assert len({row.key for row in ROWS}) == len(ROWS)

    def test_wire_keys(self):
        assert [row.key for row in ROWS] == [
            "go",
            "vote",
            "stage",
            "decided",
            "raw",
            "CoinShare",
            "VoteRequest",
            "ParticipantVote",
            "PreCommit",
            "PreCommitAck",
            "DecisionAnnouncement",
        ]

    def test_trace_names_are_class_names(self):
        assert all(row.name == row.cls.__name__ for row in ROWS)

    def test_an_unknown_annotation_fails_the_row(self):
        @dataclasses.dataclass(frozen=True)
        class Weighted(Payload):
            weight: float

        with pytest.raises(TypeError, match="Weighted.weight"):
            PayloadRow.build(Weighted, None)

    def test_a_class_outside_the_table_has_no_form(self):
        @dataclasses.dataclass(frozen=True)
        class Stray(Payload):
            vote: int

        with pytest.raises(TypeError, match="not in the payload table"):
            row_of(Stray)
        with pytest.raises(TypeError):
            to_wire(Stray(vote=1))

    def test_the_two_forms(self):
        go = GoMessage(coins=(1, 0))
        assert to_wire(go) == {"k": "go", "coins": [1, 0]}
        assert to_trace(go) == {"kind": "GoMessage", "coins": [1, 0]}
        assert from_wire({"k": "vote", "vote": 0}) == VoteMessage(vote=0)
        with pytest.raises(ValueError):
            from_wire({"kind": "VoteMessage", "vote": 0})
        with pytest.raises(ValueError):
            from_trace({"k": "vote", "vote": 0})

    def test_rows_load_on_first_use(self):
        """A process decoding Protocol 2 payloads imports no baseline
        protocol; the first baseline payload imports its messages."""
        script = (
            "import sys\n"
            "from repro.sim.payloads import from_wire\n"
            "from_wire({'k': 'vote', 'vote': 1})\n"
            "print('repro.protocols.messages' in sys.modules)\n"
            "from_wire({'k': 'VoteRequest'})\n"
            "print('repro.protocols.messages' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": repro.__path__[0].rsplit("/", 1)[0]},
        ).stdout
        assert out.split() == ["False", "True"]


class TestRoundTrips:
    @given(payloads())
    def test_wire_form(self, payload):
        assert from_wire(json.loads(json.dumps(to_wire(payload)))) == payload

    @given(payloads())
    def test_trace_form(self, payload):
        assert from_trace(json.loads(json.dumps(to_trace(payload)))) == payload

    @given(st.data())
    def test_broken_forms_raise_value_error(self, data):
        payload = data.draw(payloads())
        forms = ((to_wire, from_wire, "k"), (to_trace, from_trace, "kind"))
        for encode, decode, tag in forms:
            doc = data.draw(refused(encode(payload), tag))
            with pytest.raises((ValueError, KeyError)):
                decode(json.loads(json.dumps(doc)))
