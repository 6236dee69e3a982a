"""The baseline protocols (2PC, blocking 2PC, 3PC) on the service.

Their payloads reach the wire and the WAL through the payload table
like Protocol 2's, so every registered variant runs on the service: the
paper's contrast — the synchronous baselines disagree after a late
message, Protocol 2 never does — is measured on the same node stack.
"""

import asyncio

import pytest

from repro.faults.campaign import CampaignConfig, run_campaign
from repro.service.client import request
from repro.service.cluster import shard_configs
from repro.service.load import run_load
from repro.service.server import ServiceServer
from repro.service.txn import txn_vote
from repro.service.wal import MemoryWalStore
from repro.service.wire import ServiceEnvelope

from tests.service.test_server_channels import HOST, serving, stop, until
from tests.service.test_tcp import free_ports

BASELINES = ("twopc", "twopc-block", "threepc")

#: The 40-plan n=3 t=1 service campaign of each baseline: trials
#: terminated, commits, safety and liveness violations.  The
#: presume-abort variants decide everywhere and disagree 3 times; the
#: blocking one never disagrees and sits undecided instead.
CAMPAIGN_COUNTS = {
    "twopc": (40, 7, 3, 0),
    "twopc-block": (36, 10, 0, 3),
    "threepc": (40, 7, 3, 0),
}


@pytest.mark.parametrize("variant", BASELINES)
def test_service_campaign(variant):
    config = CampaignConfig(n=3, t=1, plans=40, tracks=("service",), program=variant)
    summary = run_campaign(config, workers=1)["summary"]  # a dead node raises
    service = summary["tracks"]["service"]
    assert (
        service["outcomes"].get("terminated", 0),
        service["decisions"]["commit"],
        service["safety_violations"],
        service["liveness_violations"],
    ) == CAMPAIGN_COUNTS[variant]


@pytest.mark.parametrize("variant", BASELINES)
def test_load_decides_every_transaction(variant):
    report = run_load(txns=100, rate=200, group_size=3, seed=11, variant=variant)
    assert report.outcome == "terminated"
    assert report.decided == 100
    assert report.safety_violations == 0


def test_twopc_decides_over_loopback_sockets():
    """Three TCP servers in multi-transaction mode: 2PC's payloads cross
    the real wire encoding and every node lands on the same decision,
    COMMIT exactly when all three voted yes."""
    ports = free_ports(3)
    peers = [(HOST, port) for port in ports]
    configs = shard_configs(1, 3, 1, 4, seed=4, variant="twopc", commit_bias=0.7)
    txns = range(1, 7)
    query = ServiceEnvelope(kind="state-query", sender=-1)

    async def scenario():
        servers = [
            ServiceServer(
                config, MemoryWalStore(), peers, tick_interval=0.005, fsync=False
            )
            for config in configs
        ]
        pairs = [(server, await serving(server)) for server in servers]
        for txn in txns:
            submit = ServiceEnvelope(kind="submit", sender=-1, body={"txn": txn})
            reply = await request(HOST, ports[0], submit)
            assert "error" not in reply.body
        await until(
            lambda: all(
                set(server.node.decisions()) >= set(txns) for server in servers
            )
        )
        listed = [
            (await request(HOST, port, query)).body["status"]["txns"]
            for port in ports
        ]
        await stop(*pairs)
        return listed

    listed = asyncio.run(scenario())
    for txn in txns:
        expected = int(all(txn_vote(config, txn) for config in configs))
        assert [decisions[str(txn)] for decisions in listed] == [expected] * 3
    assert {decisions[str(txn)] for decisions in listed for txn in txns} == {0, 1}
