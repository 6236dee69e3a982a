"""The in-memory service bus: best-effort delivery and keyed link faults.

The bus is deliberately dumb (no acks, no retransmission, no dedup — the
node owns those), so these tests pin exactly what it does promise:
delivery after the sampled latency to a node that is up, loss to a node
that is down, validation of the address space, and link-fault draws that
depend only on which transmission they belong to.  Everything runs on
the virtual clock.
"""

import asyncio
import random

import pytest

from repro.errors import ServiceError
from repro.service.bus import (
    FixedDelay,
    LinkFaultPolicy,
    LinkVerdict,
    ServiceBus,
)
from repro.service.virtualtime import run_virtual
from repro.service.wire import ServiceEnvelope


def envelope(sender=0, seq=0, incarnation=0):
    return ServiceEnvelope(
        kind="msg", sender=sender, incarnation=incarnation, seq=seq
    )


def drain(bus, pid):
    queue = bus._queue(pid)
    received = []
    while not queue.empty():
        received.append(queue.get_nowait())
    return received


class Fixed(LinkFaultPolicy):
    """The same verdict for every transmission, counting consultations."""

    def __init__(self, verdict):
        self.fixed = verdict
        self.calls = 0

    def verdict(self, sender, recipient, now, rng):
        self.calls += 1
        return self.fixed


class Recording(LinkFaultPolicy):
    """A clean link that records the first draw of every rng it is given."""

    def __init__(self):
        self.draws = {}

    def verdict(self, sender, recipient, now, rng):
        self.draws[(sender, recipient, now)] = rng.random()
        return LinkVerdict()


class TestDelivery:
    def test_requires_nodes(self):
        with pytest.raises(ServiceError):
            ServiceBus(n=0)

    def test_out_of_range_recipient(self):
        async def scenario():
            ServiceBus(n=2).send(5, envelope())

        with pytest.raises(ServiceError):
            run_virtual(scenario())

    def test_delivery_after_latency(self):
        async def scenario():
            bus = ServiceBus(n=2, delay=FixedDelay(0.01))
            sent = envelope(seq=3)
            bus.send(1, sent)
            await asyncio.sleep(0.005)
            early = drain(bus, 1)
            received = await bus.receive(1)
            return sent, early, received, bus

        sent, early, received, bus = run_virtual(scenario())
        assert early == []
        assert received == sent
        assert bus.delivered == 1
        assert bus.dropped == 0

    def test_counts_every_delivery(self):
        async def scenario():
            bus = ServiceBus(n=3, delay=FixedDelay(0.0))
            for recipient in (1, 2):
                bus.send(recipient, envelope(seq=recipient))
            await asyncio.sleep(0.001)
            return bus, drain(bus, 1), drain(bus, 2)

        bus, first, second = run_virtual(scenario())
        assert bus.delivered == 2
        assert [e.seq for e in first] == [1]
        assert [e.seq for e in second] == [2]

    def test_distinct_envelopes_all_arrive(self):
        # The bus never dedups: identical-looking traffic from different
        # senders, or repeated sends, all reach the queue.
        async def scenario():
            bus = ServiceBus(n=3, delay=FixedDelay(0.001))
            bus.send(2, envelope(sender=0))
            bus.send(2, envelope(sender=1))
            bus.send(2, envelope(sender=0))
            await asyncio.sleep(0.01)
            return drain(bus, 2)

        received = run_virtual(scenario())
        assert sorted(e.sender for e in received) == [0, 0, 1]


class TestDownNodes:
    def test_delivery_to_down_recipient_is_lost(self):
        async def scenario():
            bus = ServiceBus(n=2, delay=FixedDelay(0.001))
            bus.mark_down(1)
            bus.send(1, envelope())
            await asyncio.sleep(0.01)
            return bus

        bus = run_virtual(scenario())
        assert not bus.is_up(1)
        assert bus.dropped == 1
        assert bus.delivered == 0
        assert drain(bus, 1) == []

    def test_recipient_going_down_in_flight_loses_the_copy(self):
        async def scenario():
            bus = ServiceBus(n=2, delay=FixedDelay(0.01))
            bus.send(1, envelope())
            await asyncio.sleep(0.005)
            bus.mark_down(1)
            await asyncio.sleep(0.01)
            return bus

        bus = run_virtual(scenario())
        assert bus.dropped == 1
        assert bus.delivered == 0

    def test_mark_down_drains_the_queue(self):
        async def scenario():
            bus = ServiceBus(n=2, delay=FixedDelay(0.0))
            for seq in range(3):
                bus.send(1, envelope(seq=seq))
            await asyncio.sleep(0.001)
            bus.mark_down(1)
            return bus

        bus = run_virtual(scenario())
        assert bus.delivered == 3
        assert bus.dropped == 3
        assert drain(bus, 1) == []

    def test_mark_up_restores_delivery(self):
        async def scenario():
            bus = ServiceBus(n=2, delay=FixedDelay(0.001))
            bus.mark_down(1)
            bus.mark_up(1)
            bus.send(1, envelope())
            return await bus.receive(1), bus

        received, bus = run_virtual(scenario())
        assert received == envelope()
        assert bus.is_up(1)
        assert bus.delivered == 1


class TestLinkFaults:
    def test_dropped_copy_is_counted_and_lost(self):
        async def scenario():
            policy = Fixed(LinkVerdict(drop=True))
            bus = ServiceBus(n=2, delay=FixedDelay(0.001), link_faults=policy)
            bus.send(1, envelope())
            await asyncio.sleep(0.01)
            return bus, policy

        bus, policy = run_virtual(scenario())
        assert policy.calls == 1
        assert bus.dropped == 1
        assert bus.delivered == 0

    def test_duplicate_verdict_delivers_extra_copies(self):
        async def scenario():
            bus = ServiceBus(
                n=2,
                delay=FixedDelay(0.001),
                link_faults=Fixed(LinkVerdict(duplicates=2)),
            )
            bus.send(1, envelope())
            await asyncio.sleep(0.01)
            return bus, drain(bus, 1)

        bus, received = run_virtual(scenario())
        assert bus.delivered == 3
        assert received == [envelope()] * 3

    def test_extra_delay_holds_delivery(self):
        async def scenario():
            bus = ServiceBus(
                n=2,
                delay=FixedDelay(0.001),
                link_faults=Fixed(LinkVerdict(extra_delay=0.05)),
            )
            bus.send(1, envelope())
            await asyncio.sleep(0.04)
            early = drain(bus, 1)
            await asyncio.sleep(0.02)
            return early, drain(bus, 1)

        early, late = run_virtual(scenario())
        assert early == []
        assert late == [envelope()]


class TestKeyedRandomness:
    """A transmission's fault draws are keyed by what it is, not by when
    it happens to be sent or what else consumed randomness first."""

    @staticmethod
    def first_draw(bus_seed, sender, incarnation, seq, recipient, attempt):
        async def scenario():
            policy = Recording()
            bus = ServiceBus(n=3, seed=bus_seed, link_faults=policy)
            bus.send(
                recipient,
                envelope(sender=sender, seq=seq, incarnation=incarnation),
                attempt,
            )
            (draw,) = policy.draws.values()
            return draw

        return run_virtual(scenario())

    def test_draws_ignore_the_shared_generator(self):
        baseline = self.first_draw(7, 0, 0, 4, 1, 0)
        for _ in range(17):
            random.random()
        assert self.first_draw(7, 0, 0, 4, 1, 0) == baseline

    def test_draws_are_distinct_per_transmission(self):
        keys = [
            (sender, incarnation, seq, recipient, attempt)
            for sender in (0, 1)
            for incarnation in (0, 1)
            for seq in range(3)
            for recipient in (1, 2)
            for attempt in (0, 1)
        ]
        draws = {key: self.first_draw(7, *key) for key in keys}
        assert len(set(draws.values())) == len(draws)

    def test_draws_depend_on_the_trial_seed(self):
        assert self.first_draw(7, 0, 0, 0, 1, 0) != self.first_draw(
            8, 0, 0, 0, 1, 0
        )
