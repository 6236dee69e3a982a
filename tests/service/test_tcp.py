"""End-to-end tests for the TCP service: real sockets, real clock.

Kept small (one 3-node commit plus one restart) — the heavy schedule
sweeps live in the virtual-clock cluster and property tests.
"""

import asyncio
import socket

from repro.service.client import request
from repro.service.cluster import node_configs
from repro.service.server import ServiceServer
from repro.service.wal import MemoryWalStore
from repro.service.wire import ServiceEnvelope

N, T, K = 3, 1, 4


def free_ports(count):
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


async def wait_decided(nodes, timeout=20.0):
    async def poll():
        while any(0 not in node.decisions() for node in nodes):
            await asyncio.sleep(0.02)

    await asyncio.wait_for(poll(), timeout=timeout)


def make_servers(stores, peers):
    configs = node_configs(N, T, [1] * N, K, seed=4)
    return [
        ServiceServer(
            configs[pid],
            stores[pid],
            peers,
            tick_interval=0.005,
            fsync=False,
            seed=4,
        )
        for pid in range(N)
    ]


def test_commit_over_tcp_with_coordinator_restart():
    stores = [MemoryWalStore() for _ in range(N)]
    peers = [("127.0.0.1", port) for port in free_ports(N)]

    async def scenario():
        servers = make_servers(stores, peers)
        tasks = [asyncio.ensure_future(s.serve()) for s in servers]
        await asyncio.sleep(0.2)  # listeners up

        # A client submits transaction 0 at the coordinator.
        host, port = peers[0]
        reply = await request(
            host, port, ServiceEnvelope(kind="submit", sender=-1)
        )
        assert reply.kind == "ack"

        await wait_decided([s.node for s in servers])
        decisions = {s.node.decisions()[0] for s in servers}
        assert decisions == {1}

        # A state-query from a client gets the decisions back.
        reply = await request(
            host, port, ServiceEnvelope(kind="state-query", sender=-1)
        )
        assert reply.kind == "state-transfer"
        assert reply.body["status"]["txns"] == {"0": 1}

        # Restart the coordinator over the same store: replay alone must
        # restore the decision, one incarnation later.
        servers[0].halt()
        tasks[0].cancel()
        await asyncio.gather(tasks[0], return_exceptions=True)

        restarted = make_servers(stores, peers)[0]
        tasks[0] = asyncio.ensure_future(restarted.serve())
        await wait_decided([restarted.node])
        assert restarted.node.decisions() == {0: 1}
        assert restarted.node.incarnation == 1

        for server in servers[1:] + [restarted]:
            server.halt()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    asyncio.run(scenario())
