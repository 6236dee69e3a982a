"""The node's reliability layer: retry-until-acked, back-off and dedup.

The bus loses, duplicates and delays; the node turns that into
exactly-once application.  The unit tests drive one
:class:`~repro.service.node.ServiceNode`'s retransmit loop through a
recording send hook; the cluster tests put deterministic link policies
on a whole :class:`~repro.service.cluster.ServiceCluster` and read the
outcome back from the durable logs.  All on the virtual clock.
"""

import asyncio

import pytest

from repro.faults.plan import FaultPlan, LinkLoss
from repro.service.bus import FixedDelay, LinkFaultPolicy, LinkVerdict
from repro.service.cluster import ServiceCluster, node_configs
from repro.service.node import Reliability, ServiceNode
from repro.service.virtualtime import run_virtual
from repro.service.wal import MemoryWalStore, durable_records
from repro.service.wire import ServiceEnvelope

N, T, K = 5, 2, 4

NO_JITTER = Reliability(base_timeout=0.01, max_backoff=0.05, jitter=0.0)


class Sends:
    """A send hook recording ``(time, recipient, envelope, attempt)``."""

    def __init__(self):
        self.log = []

    def __call__(self, recipient, envelope, attempt=0):
        now = asyncio.get_running_loop().time()
        self.log.append((now, recipient, envelope, attempt))

    def of(self, kind):
        return [entry for entry in self.log if entry[2].kind == kind]


def idle_node(sends, reliability=NO_JITTER):
    (config,) = node_configs(1, 0, [1], K, seed=0)
    return ServiceNode(
        config, MemoryWalStore(), sends, fsync=False, reliability=reliability
    )


def outgoing(seq=0):
    return ServiceEnvelope(kind="msg", sender=0, seq=seq)


def retransmit_for(node, envelope, seconds):
    """Run one retransmit loop for ``seconds`` of virtual time."""

    async def scenario():
        loop = asyncio.ensure_future(node._retransmit(1, envelope))
        await asyncio.sleep(seconds)
        node.halt()
        await asyncio.sleep(1.0)
        loop.cancel()
        await asyncio.gather(loop, return_exceptions=True)

    run_virtual(scenario())


class TestRetransmitLoop:
    def test_unacked_envelope_backs_off_to_the_cap(self):
        sends = Sends()
        node = idle_node(sends)
        retransmit_for(node, outgoing(), seconds=0.3)
        times = [when for when, *_ in sends.log]
        gaps = [round(b - a, 6) for a, b in zip(times, times[1:])]
        assert gaps[:4] == [0.01, 0.02, 0.04, 0.05]
        assert set(gaps[3:]) == {0.05}
        assert [attempt for *_, attempt in sends.log] == list(range(len(times)))

    def test_retry_budget_bounds_the_attempts(self):
        sends = Sends()
        node = idle_node(
            sends,
            Reliability(
                base_timeout=0.01, max_backoff=0.05, jitter=0.0, max_retries=2
            ),
        )
        retransmit_for(node, outgoing(), seconds=1.0)
        assert len(sends.log) == 3
        assert node._acked == {}

    def test_ack_ends_the_loop(self):
        sends = Sends()
        node = idle_node(sends)

        async def scenario():
            loop = asyncio.ensure_future(node._retransmit(1, outgoing(seq=4)))
            await asyncio.sleep(0.015)  # first send and one retry
            node._absorb(
                ServiceEnvelope(
                    kind="ack", sender=1, body={"seq": 4, "incarnation": 0}
                )
            )
            await asyncio.sleep(0.5)
            return loop.done()

        assert run_virtual(scenario())
        assert len(sends.log) == 2
        assert node._acked == {}

    def test_halt_ends_the_loop(self):
        sends = Sends()
        node = idle_node(sends)
        retransmit_for(node, outgoing(), seconds=0.005)
        assert len(sends.log) == 1
        assert node._acked == {}

    def test_jitter_is_keyed_by_envelope(self):
        def gaps(seed):
            sends = Sends()
            node = idle_node(
                sends,
                Reliability(base_timeout=0.01, max_backoff=0.05, jitter=0.4),
            )
            node.seed = seed
            retransmit_for(node, outgoing(), seconds=0.2)
            times = [when for when, *_ in sends.log]
            return [b - a for a, b in zip(times, times[1:])]

        baseline = gaps(3)
        assert gaps(3) == baseline
        assert gaps(4) != baseline
        assert all(0.006 <= gap <= 0.07 for gap in baseline)

    def test_returning_peer_gets_unacked_envelopes_once(self):
        sends = Sends()
        node = idle_node(sends)

        async def scenario():
            loops = [
                asyncio.ensure_future(node._retransmit(1, outgoing(seq=s)))
                for s in range(2)
            ]
            await asyncio.sleep(0.001)
            before = len(sends.log)
            node.peer_returned(1)
            node.peer_returned(2)  # nothing is waiting on pid 2
            resent = sends.log[before:]
            node.halt()
            await asyncio.sleep(1.0)
            for loop in loops:
                loop.cancel()
            return resent

        resent = run_virtual(scenario())
        assert sorted(env.seq for _, _, env, _ in resent) == [0, 1]
        assert {recipient for _, recipient, _, _ in resent} == {1}


class TestDedup:
    def test_duplicate_within_a_tick_is_absorbed_once(self):
        node = idle_node(Sends())
        message = ServiceEnvelope(kind="msg", sender=0, seq=7)
        node._absorb(message)
        node._absorb(message)
        assert node._pending == [message]

    def test_distinct_envelopes_are_not_deduped(self):
        config = node_configs(3, 1, [1, 1, 1], K, seed=0)[2]
        node = ServiceNode(config, MemoryWalStore(), Sends(), fsync=False)
        batch = [
            ServiceEnvelope(kind="msg", sender=0, seq=0),
            ServiceEnvelope(kind="msg", sender=1, seq=0),
            ServiceEnvelope(kind="msg", sender=0, seq=1),
            ServiceEnvelope(kind="msg", sender=0, incarnation=1, seq=0),
        ]
        for message in batch:
            node._absorb(message)
        assert node._pending == batch

    def test_applied_envelope_is_reacked_not_reapplied(self):
        sends = Sends()
        config = node_configs(3, 1, [1, 1, 1], K, seed=0)[1]
        node = ServiceNode(config, MemoryWalStore(), sends, fsync=False)
        message = ServiceEnvelope(kind="msg", sender=0, seq=2)
        node._applied.add(message.identity)

        async def scenario():
            node._absorb(message)

        run_virtual(scenario())
        assert node._pending == []
        ((_, recipient, ack, _),) = sends.of("ack")
        assert recipient == 0
        assert ack.body == {"incarnation": 0, "seq": 2}


# -- whole clusters under deterministic link policies -----------------------


class DropFirstMsgs(LinkFaultPolicy):
    """Lose the first ``count`` transmissions out of pid 0."""

    def __init__(self, count):
        self.remaining = count

    def verdict(self, sender, recipient, now, rng):
        if sender == 0 and self.remaining > 0:
            self.remaining -= 1
            return LinkVerdict(drop=True)
        return LinkVerdict()


class DropAcks:
    """Wraps a bus's send hook so every ack is lost on the wire."""

    def __init__(self, bus):
        self.send = bus.send
        self.dropped = 0
        self.attempts = []

    def __call__(self, recipient, envelope, attempt=0):
        if envelope.kind == "ack":
            self.dropped += 1
            return
        if envelope.kind == "msg":
            self.attempts.append(attempt)
        self.send(recipient, envelope, attempt)


def run_cluster(
    votes=(1,) * N, plan=None, seed=0, policy=None, hook=None, delay=None
):
    configs = node_configs(len(votes), T, list(votes), K, seed)
    cluster = ServiceCluster(configs, plan, seed=seed, K=K, delay=delay)
    if policy is not None:
        cluster.bus.link_faults = policy
    wrapper = None
    if hook is not None:
        wrapper = hook(cluster.bus)
        cluster.bus.send = wrapper
    result = run_virtual(cluster.run(deadline=8.0))
    return cluster, result, wrapper


def applied_identities(store):
    """Every envelope identity a node's durable log applied, in order."""
    return [
        (sender, incarnation, seq)
        for record in durable_records(store).records
        if record["type"] == "step"
        for sender, incarnation, seq, _payloads in record.get("batch", ())
    ]


class TestClusterReliability:
    def test_dropped_sends_are_retransmitted_and_applied(self):
        policy = DropFirstMsgs(6)
        cluster, result, _ = run_cluster(policy=policy)
        assert policy.remaining == 0
        assert cluster.bus.dropped >= 6
        assert result.terminated
        # The lost GO fan-out makes votes late: the group may abort, but
        # it decides, and it decides one value.
        assert len(result.decision_values()) == 1

    def test_clean_link_needs_no_retransmission(self):
        class Attempts:
            def __init__(self, bus):
                self.send = bus.send
                self.attempts = []

            def __call__(self, recipient, envelope, attempt=0):
                if envelope.kind == "msg":
                    self.attempts.append(attempt)
                self.send(recipient, envelope, attempt)

        _, result, attempts = run_cluster(hook=Attempts)
        assert result.terminated
        assert attempts.attempts
        assert set(attempts.attempts) == {0}

    def test_ack_loss_causes_retransmits_not_reapplication(self):
        # A slower link keeps the run going past the first retry timeout.
        cluster, result, wire = run_cluster(
            hook=DropAcks, delay=FixedDelay(0.005)
        )
        assert result.terminated
        assert result.decision_values() == {1}
        assert wire.dropped > 0
        assert any(attempt > 0 for attempt in wire.attempts)
        for store in cluster.stores:
            identities = applied_identities(store)
            assert len(identities) == len(set(identities))

    def test_duplicated_copies_are_applied_once(self):
        plan = FaultPlan(n=N, loss=LinkLoss(duplicate=1.0))
        cluster, result, _ = run_cluster(plan=plan, seed=6)
        assert result.terminated
        assert result.decision_values() == {1}
        for store in cluster.stores:
            identities = applied_identities(store)
            assert identities
            assert len(identities) == len(set(identities))

    def test_same_seed_same_lossy_run(self):
        """Fault draws, delays and retry jitter all derive from the trial
        seed: a lossy run repeats byte for byte, down to every WAL line."""
        plan = FaultPlan(n=N, loss=LinkLoss(drop=0.4, duplicate=0.2))

        def run_once():
            cluster, result, _ = run_cluster(plan=plan, seed=11)
            logs = [store.read_lines() for store in cluster.stores]
            return result.decisions(), result.bus_stats, logs

        baseline = run_once()
        assert baseline[1]["dropped"] > 0
        assert run_once() == baseline


@pytest.mark.parametrize(
    "kwargs",
    [
        {"base_timeout": -0.01},
        {"jitter": 1.0},
        {"jitter": -0.1},
        {"max_retries": -1},
    ],
    ids=["negative-timeout", "jitter-one", "negative-jitter", "negative-retries"],
)
def test_reliability_rejects_bad_config(kwargs):
    with pytest.raises(ValueError):
        Reliability(**kwargs)
