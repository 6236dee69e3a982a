"""The service node's run loop: event-driven stepping, one sync per pass.

Virtual clock and in-memory stores throughout; the same rules on real
sockets are in ``test_server_channels.py`` and as properties in
``tests/property/test_service_durability_properties.py``.
"""

import asyncio
import json
import shutil
from pathlib import Path

import pytest

from repro.core.messages import GoMessage
from repro.service.node import ServiceNode
from repro.service.recovery import NodeConfig, replay
from repro.service.virtualtime import run_virtual
from repro.service.wal import (
    FileWalStore,
    MemoryWalStore,
    canonical,
    decode_line,
    durable_records,
    encode_record,
    read_snapshot,
    write_snapshot,
)
from repro.service.wire import ServiceEnvelope

from tests.service.test_txn import K, multi_config

#: Far beyond every scenario here: a step that waited for it is a failure.
LONG_TICK = 1.0
HEAD_WAL = Path(__file__).parent / "data" / "head_wal"


def go_envelope(txn, seq=0, sender=0):
    return ServiceEnvelope.msg(
        sender=sender,
        incarnation=0,
        seq=seq,
        groups=[(txn, (GoMessage(coins=(1,) * 3),))],
    )


def make_node(pid, store, sent, **kwargs):
    return ServiceNode(
        multi_config(pid=pid),
        store,
        lambda recipient, envelope, attempt: sent.append((recipient, envelope)),
        tick_interval=LONG_TICK,
        **kwargs,
    )


def step_records(store):
    return [r for r in durable_records(store).records if r["type"] == "step"]


class TestSteppingRule:
    def test_runnable_step_is_logged_and_replays_to_the_same_digest(self):
        """A participant's first step arms "wait for a GO" with the GO on
        the board.  The step that relays it is taken at once, not at the
        tick, and it is a replay input like any other."""
        store, sent = MemoryWalStore(), []
        node = make_node(1, store, sent)

        async def scenario():
            loop = asyncio.get_running_loop()
            runner = asyncio.ensure_future(node.run())
            await asyncio.sleep(0.001)
            assert store.syncs == 1  # the init record
            node.deliver(go_envelope(txn=5))
            await asyncio.sleep(0.001)
            assert loop.time() < 0.01 * LONG_TICK
            assert node._steps == 2
            assert store.syncs == 2  # both steps in one pass, one sync
            steps = step_records(store)
            assert len(steps[0]["batch"]) == 1 and "batch" not in steps[1]
            relays = [e for _r, e in sent if e.kind == "msg"]
            assert sorted(r for r, e in sent if e.kind == "msg") == [0, 2]
            assert all(e.payload_groups()[0][0] == 5 for e in relays)
            assert not node.mux.runnable  # now waiting for everyone's GO

            replayed = replay(durable_records(store).records)
            assert replayed.steps == 2
            assert replayed.mux.digest() == node.mux.digest()
            assert [e for _r, e in replayed.outgoing] == relays

            # Nothing else is due before the tick; the tick still steps.
            await asyncio.sleep(0.5 * LONG_TICK)
            assert node._steps == 2
            await asyncio.sleep(0.6 * LONG_TICK)
            assert node._steps == 3
            assert (
                replay(durable_records(store).records).mux.digest()
                == node.mux.digest()
            )
            node.halt()
            await asyncio.wait_for(runner, timeout=1.0)

        run_virtual(scenario())

    def test_traffic_shares_a_step_while_several_instances_are_open(self):
        """A step ticks every open instance's clock, so with two
        undecided instances an envelope waits one turn of the event loop
        for what had already arrived; with one it is stepped at once."""

        def batches_after(open_txns):
            store, sent = MemoryWalStore(), []
            node = make_node(1, store, sent)

            async def scenario():
                loop = asyncio.get_running_loop()
                runner = asyncio.ensure_future(node.run())
                await asyncio.sleep(0.001)
                for seq, txn in enumerate(open_txns):
                    node.deliver(go_envelope(txn, seq=seq))
                await asyncio.sleep(0.001)
                assert node.mux.undecided_txns() == sorted(open_txns)
                before = len(step_records(store))
                # Two envelopes one loop turn apart: the second was
                # "already on the socket" when the first woke the node.
                node.deliver(go_envelope(open_txns[0], seq=0, sender=2))
                loop.call_soon(
                    node.deliver, go_envelope(open_txns[-1], seq=1, sender=2)
                )
                await asyncio.sleep(0.001)
                assert loop.time() < 0.01 * LONG_TICK
                node.halt()
                await asyncio.wait_for(runner, timeout=1.0)
                return [
                    len(r["batch"])
                    for r in step_records(store)[before:]
                    if "batch" in r
                ]

            return run_virtual(scenario())

        assert batches_after([5, 6]) == [2]
        assert batches_after([5]) == [1, 1]

    def test_submit_wakes_the_loop_and_shares_the_pass_sync(self):
        store, sent = MemoryWalStore(), []
        node = make_node(0, store, sent, hold_for_submit=True)

        async def scenario():
            loop = asyncio.get_running_loop()
            runner = asyncio.ensure_future(node.run())
            await asyncio.sleep(0.001)
            assert store.syncs == 1  # the init record
            waiting_at_sync = []
            real_sync = store.sync
            store.sync = lambda: (
                waiting_at_sync.append(len(node._barriers)),
                real_sync(),
            )
            node.submit_txn(4)
            assert store.syncs == 1 and store.unsynced == 1  # appended only
            await node.durable()  # what the TCP server does before its ack
            assert waiting_at_sync == [1]  # released by the sync, not before
            assert loop.time() < 0.01 * LONG_TICK
            # One pass: submit + the coordinator's first step, one sync,
            # and the GO fan-out left after it.
            assert [r["type"] for r in durable_records(store).records] == [
                "init", "submit", "step",
            ]  # fmt: skip
            assert store.syncs == 2 and store.unsynced == 0
            await asyncio.sleep(0.001)
            assert sorted(r for r, e in sent if e.kind == "msg") == [1, 2]
            await node.durable()  # nothing pending: returns at once
            node.halt()
            await asyncio.wait_for(runner, timeout=1.0)

        run_virtual(scenario())

    def test_held_coordinator_does_not_spin_on_a_runnable_instance(self):
        """Before its first submission a held node takes no step, so a
        runnable instance must not keep its loop from waiting."""
        store, sent = MemoryWalStore(), []
        node = make_node(1, store, sent, hold_for_submit=True)
        node.mux.apply_step([(0, [(5, (GoMessage(coins=(1,) * 3),))])])
        assert node.mux.runnable
        passes = []
        real_commit = node._commit
        node._commit = lambda: (passes.append(1), real_commit())

        async def scenario():
            runner = asyncio.ensure_future(node.run())
            await asyncio.sleep(2.5 * LONG_TICK)
            assert node._steps == 0
            assert len(passes) <= 4  # start-up and one per tick
            node.halt()
            await asyncio.wait_for(runner, timeout=1.0)

        run_virtual(scenario())

    def test_waiting_clients_are_released_when_the_node_stops(self):
        store, sent = MemoryWalStore(), []
        node = make_node(0, store, sent)

        async def scenario():
            runner = asyncio.ensure_future(node.run())
            await asyncio.sleep(0.001)
            node.submit_txn(4)
            waiting = asyncio.ensure_future(node.durable())
            node.submit_txn(5)
            node.halt()  # before the pass: neither record is ever synced
            await asyncio.wait_for(runner, timeout=1.0)
            with pytest.raises(asyncio.CancelledError):
                await waiting
            with pytest.raises(asyncio.CancelledError):
                await node.durable()  # asked after the loop ended
            assert store.unsynced == 2
            assert sent == []  # and nothing about the submissions left

        run_virtual(scenario())


class TestHeadWalDirectories:
    """WAL directories written by the parent commit (per-record fsync,
    dict history, ``json.dumps`` framing): ``plain`` is log only,
    ``snapshot`` was compacted, ``legacy`` carries the ``vote`` /
    ``coins`` / ``round`` records builds before PR 15 wrote.
    ``expected.json`` is what the parent's own replay made of them."""

    EXPECTED = json.loads((HEAD_WAL / "expected.json").read_text())

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_recovers_unchanged(self, name, tmp_path):
        expected = self.EXPECTED[name]
        shutil.copytree(HEAD_WAL / name, tmp_path / "wal")
        store = FileWalStore(tmp_path / "wal")
        assert (read_snapshot(store) is not None) == expected["has_snapshot"]
        records = durable_records(store).records
        assert len(records) == expected["records"]

        sent = []
        node = ServiceNode(
            NodeConfig.from_dict(records[0]["config"]),
            store,
            lambda recipient, envelope, attempt: sent.append(envelope),
            tick_interval=LONG_TICK,
            snapshot_every=6,
        )

        async def scenario():
            runner = asyncio.ensure_future(node.run())
            await asyncio.sleep(0.001)
            node.halt()
            await asyncio.wait_for(runner, timeout=1.0)

        run_virtual(scenario())
        assert node.recovered and node.incarnation == expected["incarnation"] + 1
        assert node._steps == expected["steps"]
        assert node.mux.digest() == expected["digest"]
        assert {str(t): v for t, v in node.decisions().items()} == expected[
            "decisions"
        ]
        assert len([e for e in sent if e.kind == "msg"]) == expected["resend"]
        # The recovered history is the same text the old files hold.
        assert node._history[:-1] == [canonical(r) for r in records]
        assert json.loads(node._history[-1])["type"] == "recover"

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_files_reencode_byte_for_byte(self, name):
        directory = HEAD_WAL / name
        for line in (directory / "log.jsonl").read_text().splitlines(True):
            assert encode_record(decode_line(line)) == line
        snapshot = directory / "snapshot.json"
        if snapshot.exists():
            doc = json.loads(snapshot.read_text())["d"]
            again = MemoryWalStore()
            write_snapshot(
                again, doc["records"], doc["digest"], doc["taken_at_step"]
            )
            assert again.read_snapshot() == snapshot.read_text()
