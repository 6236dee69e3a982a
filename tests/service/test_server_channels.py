"""The TCP server's peer channels, on real loopback sockets.

One long-lived outbound stream per peer behind the unchanged
``send(recipient, envelope, attempt)`` contract: these tests pin what
the channel promises (one connection, order, bounded buffering,
teardown and reconnect, the ``peer_returned`` re-send) and what it must
keep accepting (one-shot senders, everything but an oversized line).
"""

import asyncio
import inspect
import socket
import time

from repro.runtime.reliability import Reliability
from repro.service.client import request
from repro.service.cluster import node_configs
from repro.service.node import ServiceNode
from repro.service.server import CHANNEL_BUFFER_CAP, ServiceServer
from repro.service.txn import InstanceMux
from repro.service.wal import MemoryWalStore, durable_records
from repro.service.wire import MAX_LINE_BYTES, ServiceEnvelope
from repro.telemetry.registry import MetricsRegistry, use_registry

from tests.service.test_client_replies import HEADER, server_with_history
from tests.service.test_tcp import free_ports

N, T, K = 3, 1, 4
HOST = "127.0.0.1"


def make_server(pid, peers, tick_interval=0.005):
    """Node ``pid`` of a 3-node cluster; the coordinator holds for a submit,
    so a server nobody submits to sends nothing of its own accord."""
    return ServiceServer(
        node_configs(N, T, [1] * N, K, seed=4)[pid],
        MemoryWalStore(),
        peers,
        tick_interval=tick_interval,
        fsync=False,
        hold_for_submit=(pid == 0),
        seed=4,
    )


def ack(sender, seq):
    """A control envelope that starts no retransmit loop anywhere."""
    return ServiceEnvelope(
        kind="ack", sender=sender, body={"incarnation": 0, "seq": seq}
    )


class Sink:
    """A peer that accepts, records every line per connection, never acks."""

    def __init__(self, port):
        self.port = port
        self.connections = []  # one list of envelopes per accepted connection
        self._writers = []
        self._server = None

    async def start(self):
        self._server = await asyncio.start_server(
            self._handle, HOST, self.port, limit=MAX_LINE_BYTES
        )

    async def _handle(self, reader, writer):
        lines = []
        self.connections.append(lines)
        self._writers.append(writer)
        while line := await reader.readline():
            lines.append(ServiceEnvelope.decode(line))

    async def close(self):
        """Stop listening and reset every accepted connection."""
        self._server.close()
        for writer in self._writers:
            writer.close()
        await self._server.wait_closed()

    def received(self):
        return [envelope for lines in self.connections for envelope in lines]


async def until(predicate, timeout=10.0):
    async def poll():
        while not predicate():
            await asyncio.sleep(0.005)

    await asyncio.wait_for(poll(), timeout=timeout)


async def serving(server):
    task = asyncio.ensure_future(server.serve())
    await until(lambda: server.node.ready)
    return task


async def stop(*pairs):
    for server, _task in pairs:
        server.halt()
    await asyncio.gather(*(task for _s, task in pairs), return_exceptions=True)


def counter_total(registry, name):
    return sum(registry.counter(name).samples().values())


def test_traced_benchmark_seam_is_intact():
    """``benchmarks/e2e/traced_node.py`` wraps these three by name and reads
    ``_send``'s positional ``(recipient, envelope, attempt)``."""
    for name in ("_send", "_transmit", "_handle"):
        assert name in ServiceServer.__dict__
    assert list(inspect.signature(ServiceServer._send).parameters) == [
        "self", "recipient", "envelope", "attempt",
    ]  # fmt: skip
    assert inspect.iscoroutinefunction(ServiceServer._transmit)
    assert inspect.iscoroutinefunction(ServiceServer._handle)


def test_one_connection_carries_every_envelope_in_order():
    ports = free_ports(N)
    peers = [(HOST, port) for port in ports]

    async def scenario():
        sink = Sink(ports[1])
        await sink.start()
        server = make_server(0, peers)
        task = await serving(server)
        for seq in range(200):
            server._send(1, ack(0, seq), 0)
            if seq % 7 == 0:  # some share a pass (and a write), some do not
                await asyncio.sleep(0)
        await until(lambda: len(sink.received()) == 200)
        assert len(sink.connections) == 1
        assert [e.body["seq"] for e in sink.received()] == list(range(200))
        await stop((server, task))
        await sink.close()

    asyncio.run(scenario())


def test_lines_of_one_pass_leave_in_one_write():
    ports = free_ports(N)
    peers = [(HOST, port) for port in ports]

    async def scenario():
        sink = Sink(ports[1])
        await sink.start()
        server = make_server(0, peers)
        task = await serving(server)
        server._send(1, ack(0, 0), 0)
        await until(lambda: len(sink.received()) == 1)

        writes = []
        writer = server._channels[1].writer
        real_write = writer.write
        writer.write = lambda data: (writes.append(data), real_write(data))
        # What a node step does: acks now, messages from tasks that first
        # run in the next pass.
        server._send(1, ack(0, 1), 0)
        server._send(1, ack(0, 2), 0)

        async def later(seq):
            server._send(1, ack(0, seq), 0)

        tasks = [asyncio.ensure_future(later(seq)) for seq in (3, 4)]
        await until(lambda: len(sink.received()) == 5)
        await asyncio.gather(*tasks)
        assert len(writes) == 1
        assert writes[0].count(b"\n") == 4
        await stop((server, task))
        await sink.close()

    asyncio.run(scenario())


def test_lost_listener_is_reconnected_and_unacked_envelope_applied_once():
    """The peer's listener goes away and comes back on the same port: the
    channel notices at once, reconnects on the next send, and
    ``peer_returned`` delivers what the retransmit loops (here: parked in
    a back-off far longer than the test) would have sat on."""
    ports = free_ports(N)
    peers = [(HOST, port) for port in ports]

    async def scenario():
        sink = Sink(ports[1])
        await sink.start()
        coordinator = make_server(0, peers)
        coordinator.node.reliability = Reliability(
            base_timeout=300.0, max_backoff=300.0, jitter=0.0, max_retries=None
        )
        returned = []
        node_returned = coordinator.node.peer_returned
        coordinator.node.peer_returned = lambda peer: (
            returned.append(peer),
            node_returned(peer),
        )
        task0 = await serving(coordinator)

        # The submit makes the coordinator send GO to both peers: the sink
        # takes it on one connection and acknowledges nothing.
        reply = await request(
            HOST, ports[0], ServiceEnvelope(kind="submit", sender=-1)
        )
        assert reply.kind == "ack"
        await until(lambda: any(e.kind == "msg" for e in sink.received()))
        assert len(sink.connections) == 1
        unacked = {key for key in coordinator.node._acked if key[0] == 1}
        assert unacked

        channel = coordinator._channels[1]
        await sink.close()
        await until(lambda: channel.writer is None)  # EOF seen, no send needed
        assert channel.lost and returned == []

        # While the port is closed a send is a dropped transmission.
        coordinator._send(1, ack(0, 99), 0)
        await until(lambda: channel.task is None)
        assert channel.writer is None and not channel.queued

        participant = make_server(1, peers)
        task1 = await serving(participant)
        # Any send reconnects; the reconnect is what reports the return.
        coordinator._send(1, ack(0, 100), 0)
        await until(lambda: returned == [1])
        await until(
            lambda: not unacked & set(coordinator.node._acked), timeout=20.0
        )

        # Re-sent after the participant already applied them: dedup holds.
        node_returned(1)
        for key in unacked:
            assert (0, key[1], key[2]) in participant.node._applied
        await asyncio.sleep(0.05)
        applied = [
            tuple(entry[:3])
            for record in durable_records(participant.node.store).records
            if record.get("type") == "step"
            for entry in record.get("batch", ())
        ]
        assert len(applied) == len(set(applied))
        assert {(0, key[1], key[2]) for key in unacked} <= set(applied)
        assert returned == [1]

        await stop((coordinator, task0), (participant, task1))

    asyncio.run(scenario())


def test_hello_from_a_lost_peer_resends_once_per_outage():
    ports = free_ports(N)
    peers = [(HOST, port) for port in ports]

    async def scenario():
        server = make_server(0, peers)
        returned = []
        server.node.peer_returned = returned.append
        task = await serving(server)

        async def connect_and_send(count):
            _reader, writer = await asyncio.open_connection(HOST, ports[0])
            for seq in range(count):
                writer.write(ack(1, seq).encode())
            await writer.drain()
            return writer

        # A peer we never lost has missed nothing: no re-send.
        first = await connect_and_send(2)
        await asyncio.sleep(0.05)
        assert returned == []

        # Nothing listens on peer 1's port: the connect fails, it is lost.
        server._send(1, ack(0, 0), 0)
        await until(lambda: server._channels[1].lost)
        second = await connect_and_send(3)  # three envelopes, one hello
        await until(lambda: returned == [1])
        third = await connect_and_send(1)  # not lost any more
        await asyncio.sleep(0.05)
        assert returned == [1]

        for writer in (first, second, third):
            writer.close()
        await stop((server, task))

    asyncio.run(scenario())


def test_peer_that_never_reads_costs_counted_drops_not_memory():
    ports = free_ports(N)
    peers = [(HOST, port) for port in ports]
    # Connections complete in the listen backlog; nobody accepts or reads.
    deaf = socket.socket()
    deaf.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    deaf.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    deaf.bind((HOST, ports[1]))
    deaf.listen(1)
    pad = "x" * (MAX_LINE_BYTES // 2)
    big = ServiceEnvelope(kind="state-transfer", sender=0, body={"pad": pad})

    async def scenario(registry):
        server = make_server(0, peers)
        task = await serving(server)
        channel = server._channels[1]
        # Kernel socket buffers take the first few MB; then the
        # transport's buffer grows to the cap and sends start to drop.
        for _ in range(64):
            server._send(1, big, 0)
            assert channel.held_bytes() <= CHANNEL_BUFFER_CAP
            await asyncio.sleep(0.002)
            assert channel.held_bytes() <= CHANNEL_BUFFER_CAP
        assert counter_total(registry, "service_channel_drops_total") > 0
        assert channel.writer is not None  # slow is not lost
        await stop((server, task))

    registry = MetricsRegistry(enabled=True)
    try:
        with use_registry(registry):
            asyncio.run(scenario(registry))
    finally:
        deaf.close()


def test_one_shot_sender_is_still_served():
    """A build that opens a connection per envelope, writes and closes."""
    ports = free_ports(N)
    peers = [(HOST, port) for port in ports]

    async def scenario():
        sink = Sink(ports[1])
        await sink.start()
        server = make_server(0, peers)
        task = await serving(server)
        for _ in range(3):
            _reader, writer = await asyncio.open_connection(HOST, ports[0])
            query = ServiceEnvelope(kind="state-query", sender=1)
            writer.write(query.encode())
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        # Each query is answered, over the one channel to peer 1.
        await until(lambda: len(sink.received()) == 3)
        assert {e.kind for e in sink.received()} == {"state-transfer"}
        assert len(sink.connections) == 1
        await stop((server, task))
        await sink.close()

    asyncio.run(scenario())


def test_oversized_line_closes_only_its_own_connection():
    ports = free_ports(N)
    peers = [(HOST, port) for port in ports]
    query = ServiceEnvelope(kind="state-query", sender=-1)

    async def scenario(registry):
        server = make_server(0, peers)
        task = await serving(server)

        bystander_r, bystander_w = await asyncio.open_connection(
            HOST, ports[0]
        )
        bystander_w.write(query.encode())
        assert ServiceEnvelope.decode(await bystander_r.readline()).kind == (
            "state-transfer"
        )

        # 70 KiB was over asyncio's default limit; now it is an ordinary line.
        padded = ServiceEnvelope(
            kind="state-query", sender=-1, body={"pad": "x" * (70 * 1024)}
        )
        assert (await request(HOST, ports[0], padded)).kind == "state-transfer"

        culprit_r, culprit_w = await asyncio.open_connection(HOST, ports[0])
        try:
            culprit_w.write(b"x" * (MAX_LINE_BYTES + 6 * 1024))
            await culprit_w.drain()
            closed = await asyncio.wait_for(culprit_r.read(), timeout=10.0)
        except ConnectionError:
            closed = b""  # closed with our bytes unread: a reset, not a FIN
        assert closed == b""
        assert counter_total(registry, "service_oversize_lines_total") == 1

        # The connection opened before it and a new one are both served.
        bystander_w.write(query.encode())
        assert ServiceEnvelope.decode(await bystander_r.readline()).kind == (
            "state-transfer"
        )
        assert (await request(HOST, ports[0], query)).kind == "state-transfer"

        for writer in (bystander_w, culprit_w):
            writer.close()
        await stop((server, task))

    registry = MetricsRegistry(enabled=True)
    with use_registry(registry):
        asyncio.run(scenario(registry))


#: Each of these once ended a node: the first reached ``_absorb`` and
#: raised out of the run loop, the next two raised in the connection
#: handler, and the last is not UTF-8, which no caller of ``decode`` caught.
MALFORMED_LINES = (
    b'{"kind":"ack","sender":1,"body":[1]}\n',
    b'{"kind":"submit","sender":-1,"body":"x"}\n',
    b'{"kind":"msg","sender":"a"}\n',
    b'{"kind":"ack","sender":1,"body":{"seq":\xff\xfe}}\n',
)


def test_malformed_lines_are_dropped_and_counted_and_the_node_keeps_stepping():
    ports = free_ports(N)
    peers = [(HOST, port) for port in ports]
    query = ServiceEnvelope(kind="state-query", sender=-1)

    async def scenario(registry):
        # A participant: undecided and not held, so it steps on every tick.
        server = make_server(1, peers)
        task = await serving(server)
        bystander_r, bystander_w = await asyncio.open_connection(
            HOST, ports[1]
        )
        culprit_r, culprit_w = await asyncio.open_connection(HOST, ports[1])
        culprit_w.write(b"".join(MALFORMED_LINES))
        # Its handler read all four and is still reading: same connection.
        culprit_w.write(query.encode())
        reply = ServiceEnvelope.decode(await culprit_r.readline())
        assert reply.kind == "state-transfer"
        assert counter_total(registry, "service_undecodable_lines_total") == 4

        steps = server.node._steps
        await until(lambda: server.node._steps > steps + 2)
        assert not task.done()
        bystander_w.write(query.encode())
        assert ServiceEnvelope.decode(await bystander_r.readline()).kind == (
            "state-transfer"
        )
        assert (await request(HOST, ports[1], query)).kind == "state-transfer"

        for writer in (bystander_w, culprit_w):
            writer.close()
        await stop((server, task))

    registry = MetricsRegistry(enabled=True)
    with use_registry(registry):
        asyncio.run(scenario(registry))


#: Well-formed envelopes whose payload fields or transaction ids are
#: ill-typed: each once decoded, and could reach the WAL as ``true``.
ILL_TYPED_LINES = (
    b'{"kind":"msg","sender":2,"seq":0,"payloads":'
    b'[{"k":"stage","phase":true,"stage":1.5,"value":1}]}\n',
    b'{"kind":"msg","sender":2,"seq":1,"payloads":[{"k":"go","coins":[true,0]}]}\n',
    b'{"kind":"msg","sender":2,"seq":2,"txns":[[true,[{"k":"vote","vote":1}]]]}\n',
    b'{"kind":"msg","sender":2,"seq":3,"txns":[["5",[{"k":"vote","vote":1}]]]}\n',
)


def test_ill_typed_fields_are_dropped_and_counted_and_the_node_keeps_serving():
    ports = free_ports(N)
    peers = [(HOST, port) for port in ports]
    query = ServiceEnvelope(kind="state-query", sender=-1)

    async def scenario(registry):
        server = make_server(1, peers)
        task = await serving(server)
        reader, writer = await asyncio.open_connection(HOST, ports[1])
        writer.write(b"".join(ILL_TYPED_LINES))
        writer.write(query.encode())
        reply = ServiceEnvelope.decode(await reader.readline())
        assert reply.kind == "state-transfer"
        assert counter_total(registry, "service_undecodable_lines_total") == 4
        steps = server.node._steps
        await until(lambda: server.node._steps > steps + 2)
        assert not task.done()
        assert (await request(HOST, ports[1], query)).kind == "state-transfer"
        writer.close()
        await stop((server, task))

    registry = MetricsRegistry(enabled=True)
    with use_registry(registry):
        asyncio.run(scenario(registry))


def test_commit_does_not_wait_for_the_tick():
    """With a one-second tick a commit still takes a few loopback hops.
    Waiting for the tick anywhere would show: after the submit (nothing
    else wakes a held coordinator) or at each participant's first step
    (which arms an already satisfied wait and sends nothing)."""
    ports = free_ports(N)
    peers = [(HOST, port) for port in ports]
    query = ServiceEnvelope(kind="state-query", sender=-1)

    async def scenario():
        servers = [make_server(pid, peers, tick_interval=1.0) for pid in range(N)]
        pairs = [(server, await serving(server)) for server in servers]
        started = time.perf_counter()
        reply = await request(
            HOST, ports[0], ServiceEnvelope(kind="submit", sender=-1)
        )
        assert reply.kind == "ack" and "error" not in reply.body
        decisions = []
        for port in ports:
            while True:
                status = (await request(HOST, port, query)).body["status"]
                if status["decision"] is not None:
                    decisions.append(status["decision"])
                    break
                assert time.perf_counter() - started < 0.5
                await asyncio.sleep(0.002)
        elapsed = time.perf_counter() - started
        assert decisions == [1, 1, 1]
        assert elapsed < 0.5
        await stop(*pairs)

    asyncio.run(scenario())


def test_status_reply_lists_decisions_without_copying_history(monkeypatch):
    """Over a real socket: the ``state-query`` reply lists every decision
    without building or encoding the map of them again (the closed ones
    were encoded when they closed), and the ``submit`` ack is the status
    header alone."""
    ports = free_ports(N)
    peers = [(HOST, port) for port in ports]
    server = server_with_history(
        closed=2, live_decided=1, peers=peers, tick_interval=0.005,
        hold_for_submit=True,
    )  # fmt: skip
    monkeypatch.setattr(
        InstanceMux, "decisions", lambda self: {}  # not what a reply reads
    )

    async def scenario():
        task = await serving(server)
        query = ServiceEnvelope(kind="state-query", sender=-1)
        reply = await request(HOST, ports[0], query)
        assert reply.kind == "state-transfer" and reply.body["decision"] is None
        assert set(reply.body["status"]) == HEADER
        assert reply.body["status"]["txns"] == {"1": 1, "2": 0, "3": 1}
        ack = await request(
            HOST,
            ports[0],
            ServiceEnvelope(kind="submit", sender=-1, body={"txn": 10}),
        )
        assert set(ack.body["status"]) == HEADER
        assert ack.body["status"]["txns"] is None
        await stop((server, task))

    asyncio.run(scenario())


def test_acked_envelopes_leave_nothing_behind():
    """500 envelopes sent and acknowledged: the task set and the ack
    table hold what is in flight, not what ever was."""
    config = node_configs(N, T, [1] * N, K, seed=0)[0]

    async def scenario():
        def acking_send(recipient, envelope, attempt):
            if envelope.kind == "msg":
                node.deliver(
                    ServiceEnvelope(
                        kind="ack",
                        sender=recipient,
                        body={
                            "incarnation": envelope.incarnation,
                            "seq": envelope.seq,
                        },
                    )
                )

        node = ServiceNode(
            config,
            MemoryWalStore(),
            acking_send,
            tick_interval=0.005,
            fsync=False,
            hold_for_submit=True,
        )
        runner = asyncio.ensure_future(node.run())
        await until(lambda: node.ready)
        baseline = len(node._tasks)
        for batch in range(50):
            for seq in range(10):
                envelope = ServiceEnvelope(
                    kind="msg", sender=0, seq=1000 + 10 * batch + seq
                )
                node._track(node._retransmit(1 + seq % 2, envelope))
            await asyncio.sleep(0)  # the loops start, register and send
            assert len(node._acked) == 10
            assert len(node._tasks) == baseline + 10
            await until(lambda: not node._acked)
            await asyncio.sleep(0)  # done callbacks run a pass later
            assert len(node._tasks) == baseline
        # A late (or forged) ack cannot bring an entry back.
        node.deliver(ack(1, 1000))
        await asyncio.sleep(0.02)
        assert node._acked == {}
        node.halt()
        await asyncio.gather(runner, return_exceptions=True)

    asyncio.run(scenario())
