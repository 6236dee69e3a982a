"""Client replies of the TCP server: what they say and what they cost.

A ``state-query`` reply decodes to the document the server has always
sent (every decision listed), a ``submit`` ack carries the status header
alone, and neither re-encodes a decision that is already closed.  The
servers here never listen: their nodes are wired to each other by direct
delivery and run on the virtual clock over in-memory stores.
"""

import asyncio

import pytest

from repro.core.messages import GoMessage
from repro.runtime.virtualtime import run_virtual
from repro.service import txn as txn_module
from repro.service.cluster import node_configs
from repro.service.server import ServiceServer
from repro.service.txn import InstanceMux
from repro.service.wal import MemoryWalStore
from repro.service.wire import ServiceEnvelope

from tests.service.test_txn import K, multi_config

N = 3
PEERS = [("127.0.0.1", 1)] * N  # never dialled: sends are rewired below
QUERY = ServiceEnvelope(kind="state-query", sender=-1)
HEADER = {
    "pid", "incarnation", "status", "decision", "decision_origin",
    "steps", "wal_records", "txns",
}  # fmt: skip


def submit_for(txn):
    body = {"txn": txn} if txn else {}
    return ServiceEnvelope(kind="submit", sender=-1, body=body)


class Wired:
    """Servers of one group whose nodes deliver to each other directly."""

    def __init__(self, configs, *, snapshot_every=0, isolated=()):
        self.configs = configs
        self.snapshot_every = snapshot_every
        self.isolated = set(isolated)
        self.stores = [MemoryWalStore() for _ in configs]
        self.servers = [None] * len(configs)
        self.runners = [None] * len(configs)

    def start(self, pid):
        server = ServiceServer(
            self.configs[pid],
            self.stores[pid],
            PEERS,
            tick_interval=0.002,
            fsync=False,
            hold_for_submit=(pid == 0),
            snapshot_every=self.snapshot_every,
        )
        server.node._send_raw = lambda recipient, envelope, attempt: (
            self._deliver(pid, recipient, envelope)
        )
        self.servers[pid] = server
        self.runners[pid] = asyncio.ensure_future(server.node.run())
        return server

    def _deliver(self, sender, recipient, envelope):
        peer = self.servers[recipient]
        if peer is not None and not {sender, recipient} & self.isolated:
            peer.node.deliver(envelope)

    async def kill(self, pid):
        """Cancel the node where it stands: only its store survives."""
        runner, self.servers[pid] = self.runners[pid], None
        runner.cancel()
        await asyncio.gather(runner, return_exceptions=True)

    async def stop(self):
        for pid, server in enumerate(self.servers):
            if server is not None:
                await self.kill(pid)


def parent_line(server):
    """The ``state-query`` reply as the server built it before replies
    stopped re-encoding history: one ``json.dumps`` of the status with
    the full decision map inside."""
    node = server.node
    status = vars(node.snapshot_state())
    status["txns"] = node.decisions() if node.config.multi_txn else None
    return ServiceEnvelope(
        kind="state-transfer",
        sender=node.pid,
        body={"decision": node.decision, "status": status},
    ).encode()


def assert_replies_as_parent(server):
    reply = ServiceEnvelope.decode(server._client_request(QUERY))
    assert reply == ServiceEnvelope.decode(parent_line(server))
    assert set(reply.body["status"]) == HEADER
    return reply.body["status"]["txns"]


async def until(condition, timeout=2.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.001)


class TestReplyEquivalence:
    def test_multi_txn_reply_decodes_to_the_parent_document_at_every_stage(self):
        group = Wired(
            [multi_config(pid=pid) for pid in range(N)], snapshot_every=8
        )

        async def scenario():
            servers = [group.start(pid) for pid in range(N)]
            coordinator = servers[0]
            await until(lambda: all(s.node.ready for s in servers))
            assert assert_replies_as_parent(coordinator) == {}

            # Submits: each ack is the header, whatever is already open.
            for txn in (1, 2, 3):
                ack = ServiceEnvelope.decode(
                    coordinator._client_request(submit_for(txn))
                )
                assert set(ack.body["status"]) == HEADER
                assert ack.body["status"]["txns"] is None
            rejected = ServiceEnvelope.decode(
                coordinator._client_request(submit_for(2))
            )
            assert "duplicate submission" in rejected.body["error"]
            assert_replies_as_parent(coordinator)

            # Decisions, listed while their instances are still live.
            await until(lambda: len(coordinator.node.decisions()) == 3)
            listed = assert_replies_as_parent(coordinator)
            assert listed == {"1": 1, "2": 1, "3": 1}

            # More traffic, until a snapshot has closed some instances
            # and others are decided but still live: both halves listed.
            mux = coordinator.node.mux
            txn = 3
            while not (
                mux._closed_decisions
                and any(i.decision is not None for i in mux.live.values())
            ):
                txn += 1
                assert txn < 40, "no snapshot closed an instance"
                coordinator._client_request(submit_for(txn))
                await until(lambda: txn in coordinator.node.decisions())
                for server in servers:
                    assert_replies_as_parent(server)
            listed = assert_replies_as_parent(coordinator)
            assert set(listed) == {str(t) for t in range(1, txn + 1)}

            # An adopted transfer: participant 2, cut off, holds an
            # undecided instance and is handed its decision by a peer.
            group.isolated.add(2)
            straggler = servers[2].node
            stray = txn + 1
            straggler.deliver(
                ServiceEnvelope.msg(
                    sender=0,
                    incarnation=0,
                    seq=10_000,
                    groups=[(stray, (GoMessage(coins=(1,) * 3),))],
                )
            )
            await until(lambda: stray in straggler.mux.undecided_txns())
            straggler.deliver(
                ServiceEnvelope(
                    kind="state-transfer",
                    sender=1,
                    body={"decision": None, "decisions": {str(stray): 0}},
                )
            )
            await until(lambda: stray in straggler.decisions())
            assert straggler.mux.get(stray).decision_origin == "transfer"
            assert assert_replies_as_parent(servers[2])[str(stray)] == 0

            # Kill + replay: the next life lists what the last one did,
            # closed fragment rebuilt from the stubs replay produces.
            for pid in (0, 2):
                before = assert_replies_as_parent(servers[pid])
                closed_before = bytes(servers[pid].node.mux._closed_members)
                await group.kill(pid)
                reborn = group.start(pid)
                await until(lambda: reborn.node.ready)
                assert reborn.node.incarnation == 1
                assert assert_replies_as_parent(reborn) == before
                assert bytes(reborn.node.mux._closed_members) == closed_before
            await group.stop()

        run_virtual(scenario())

    def test_single_txn_reply_keeps_txns_null(self):
        group = Wired(node_configs(N, 1, [1] * N, K, seed=4))

        async def scenario():
            servers = [group.start(pid) for pid in range(N)]
            await until(lambda: all(s.node.ready for s in servers))
            assert assert_replies_as_parent(servers[0]) is None
            ack = ServiceEnvelope.decode(servers[0]._client_request(submit_for(0)))
            assert ack.body["status"]["txns"] is None
            await until(lambda: all(s.node.decision == 1 for s in servers))
            for server in servers:
                assert assert_replies_as_parent(server) is None
            await group.kill(0)
            reborn = group.start(0)
            await until(lambda: reborn.node.ready)
            reply = ServiceEnvelope.decode(reborn._client_request(QUERY))
            assert reply == ServiceEnvelope.decode(parent_line(reborn))
            assert reply.body["decision"] == 1
            assert reply.body["status"]["incarnation"] == 1
            await group.stop()

        run_virtual(scenario())


def server_with_history(closed, live_decided=3, peers=PEERS, **kwargs):
    """A coordinator whose multiplexer holds ``closed`` closed decisions
    and ``live_decided`` decided instances not yet compacted; transaction
    ``t`` is decided ``t % 2``."""
    server = ServiceServer(
        multi_config(pid=0), MemoryWalStore(), peers, fsync=False, **kwargs
    )
    mux = InstanceMux(server.node.config)
    for txn in range(1, closed + live_decided + 1):
        mux.adopt_transfer(txn, txn % 2)
        if txn <= closed:
            mux.close_txn(txn)
    server.node.mux = mux
    return server


class TestEncodeOnce:
    @pytest.fixture
    def formatted(self, monkeypatch):
        """Every decision fragment formatted from here on."""
        calls = []
        real = txn_module.decision_member

        def spy(txn_id, value):
            calls.append(txn_id)
            return real(txn_id, value)

        monkeypatch.setattr(txn_module, "decision_member", spy)
        return calls

    def test_a_query_formats_open_work_not_history(self, formatted):
        counts = {}
        for closed in (10, 2000):
            server = server_with_history(closed)
            assert len(formatted) == closed  # once each, when it closed
            formatted.clear()
            for _ in range(5):
                reply = ServiceEnvelope.decode(server._client_request(QUERY))
            counts[closed] = len(formatted) / 5
            formatted.clear()
            listed = reply.body["status"]["txns"]
            assert listed == {
                str(txn): txn % 2 for txn in range(1, closed + 4)
            }
        assert counts == {10: 3, 2000: 3}  # the live decided ones

    def test_a_query_does_not_build_the_decision_map(self, monkeypatch):
        server = server_with_history(50)
        monkeypatch.setattr(
            InstanceMux,
            "decisions",
            lambda self: pytest.fail("a reply copied every decision"),
        )
        server._client_request(QUERY)
        server._client_request(submit_for(60))

    def test_submit_ack_size_does_not_follow_history(self, formatted):
        async def ack_length(closed):
            server = server_with_history(closed)
            runner = asyncio.ensure_future(server.node.run())
            server.node._send_raw = lambda *send: None
            await until(lambda: server.node.ready)
            formatted.clear()
            line = server._client_request(submit_for(closed + 10))
            assert not formatted
            status = ServiceEnvelope.decode(line).body["status"]
            runner.cancel()
            await asyncio.gather(runner, return_exceptions=True)
            return len(line) - len(str(status["steps"])) - len(
                str(status["wal_records"])
            )

        assert run_virtual(ack_length(10)) == run_virtual(ack_length(2000))

    def test_a_live_decision_is_read_at_reply_time(self):
        """Decided-but-live instances are not cached: their effective
        decision may still pass from ``transfer`` to ``process``."""
        server = server_with_history(closed=2, live_decided=1)
        instance = server.node.mux.get(3)
        assert instance.transfer_decision == 1
        first = ServiceEnvelope.decode(server._client_request(QUERY))
        assert first.body["status"]["txns"]["3"] == 1
        instance.transfer_decision = 0
        second = ServiceEnvelope.decode(server._client_request(QUERY))
        assert second.body["status"]["txns"] == {"1": 1, "2": 0, "3": 0}
