"""Fuzz: whatever a write-ahead log holds, recovery reads records or
raises ``WalError``.

The valid lines of two real logs are mutated: what a participant of a
single-transaction cluster and one of a multi-transaction cluster wrote,
each through a kill and a restart.  A byte mutation mostly breaks the
checksum (a torn tail, or corruption mid-log); a value mutation replaces
one value anywhere in a record and recomputes the checksum, so the line
is well framed and carries a body no node writes.  Reading
(``durable_records``) and recovery (``replay``) must return or raise
``WalError``, nothing else: a node replays before it serves, and any
other exception there leaves the node down for good.

Derandomizing and the example database come from the suite's Hypothesis
profile (``tests/conftest.py``).
"""

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WalError
from repro.faults.plan import CrashFault, FaultPlan
from repro.runtime.virtualtime import run_virtual
from repro.service.cluster import (
    ServiceCluster,
    TxnWorkload,
    node_configs,
    shard_configs,
)
from repro.service.recovery import replay
from repro.service.wal import (
    RECORD_TYPES,
    MemoryWalStore,
    durable_records,
    encode_record,
    read_log,
)

from tests.property.test_service_wire_fuzz import replaced, value_paths

#: Participant 1 is killed a few ticks in and restarted, so its log holds
#: an init, steps, a recover record and decisions.
PLAN = FaultPlan(n=3, crashes=(CrashFault(pid=1, cycle=4, recover_cycle=10),))

KEYS = (
    "type", "config", "batch", "txn", "value", "origin", "incarnation",
    "at", "pid", "n", "t", "K", "vote", "tape_seed", "variant",
    "multi_txn", "base", "commit_bias", "payloads", "txns", "k",
)  # fmt: skip

#: JSON values with small integers: a configuration with ``n`` in the
#: millions would measure memory, not the reader.
values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
    | st.sampled_from(RECORD_TYPES + ("process", "transfer", "commit")),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=8,
)


@functools.cache
def logs() -> tuple[tuple[str, ...], ...]:
    """The valid lines participant 1 wrote, in each of the two clusters."""
    single = ServiceCluster(node_configs(3, 1, [1, 1, 1], 4, seed=3), PLAN, seed=3)
    multi = ServiceCluster(
        shard_configs(1, 3, 1, 4, seed=3),
        PLAN,
        seed=3,
        workload=TxnWorkload.open_loop(3, 500.0, 0.002),
    )
    found = []
    for cluster in (single, multi):
        run_virtual(cluster.run(deadline=2.0))
        records = read_log(cluster.stores[1]).records
        found.append(tuple(encode_record(record) for record in records))
    return tuple(found)


@st.composite
def mutated_logs(draw):
    source = logs()[draw(st.integers(0, 1))]
    lines = list(source)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        if draw(st.booleans()):
            record = json.loads(source[at])["r"]
            paths = list(value_paths(record))
            path = paths[draw(st.integers(0, len(paths) - 1))]
            lines[at] = encode_record(replaced(record, path, draw(values)))
        else:
            data = bytearray(lines[at].encode("utf-8"))
            for _ in range(draw(st.integers(1, 4))):
                where = draw(st.integers(0, max(0, len(data) - 1)))
                edit = draw(st.sampled_from(("set", "insert", "delete")))
                if edit == "delete" and data:
                    del data[where]
                elif edit == "insert":
                    data.insert(where, draw(st.integers(0, 255)))
                elif data:
                    data[where] = draw(st.integers(0, 255))
            lines[at] = data.decode("utf-8", "replace")
    return lines


def recover(lines):
    store = MemoryWalStore()
    for line in lines:
        store.append_line(line)
    records = durable_records(store).records
    if records:
        replay(records)


def test_the_seed_logs_recover():
    for lines in logs():
        assert any('"type":"recover"' in line for line in lines)
        recover(lines)


@settings(max_examples=300, deadline=None)
@given(mutated_logs())
def test_reading_and_recovery_return_records_or_raise_wal_error(lines):
    try:
        recover(lines)
    except WalError:
        pass  # any other exception fails the test


INIT = {
    "type": "init",
    "config": {
        "pid": 1, "n": 3, "t": 1, "K": 4, "vote": 1, "tape_seed": 7,
        "variant": "commit",
    },
}  # fmt: skip


@pytest.mark.parametrize(
    "records",
    [
        [INIT, {"type": "step", "batch": "x"}],
        [
            {
                "type": "init",
                "config": {k: v for k, v in INIT["config"].items() if k != "n"},
            }
        ],
        [INIT, {"type": "step", "batch": [[0, 0, 0, [7]]]}],
        [{"type": "init", "config": dict(INIT["config"], n=-1)}],
    ],
    ids=["batch-not-a-list", "init-n-missing", "payload-not-an-object", "n=-1"],
)
def test_well_framed_records_no_node_writes_raise_wal_error(records):
    with pytest.raises(WalError):
        recover([encode_record(record) for record in records])
