"""Exact, hand-computed asynchronous-round boundaries.

These tests pin the inductive definition down to specific numbers on
hand-built schedules, so any regression in the round analyzer shows up
as an off-by-one rather than a vague statistical drift.

Setup: n = 2, K = 2.  Processor 0 broadcasts one message at its first
step and then idles; processor 1 idles until the scripted delivery.

Definition recap: round 1 ends at clock K; round r > 1 ends at the later
of (end_{r-1} + K) and (receipt of the last round-(r-1) message + K).

Every test runs through both entry points of the one round iteration:
a ``Run`` through :class:`RoundAnalyzer`, and flat
``(sender, send_clock, receive_clock)`` receipts plus target clocks
passed straight to :func:`round_ends`, the way the fused sweep calls it.
"""

import pytest

from repro.adversary.scripted import ScriptedAdversary
from repro.sim.decisions import StepDecision
from repro.sim.message import MessageId, RawPayload
from repro.sim.process import Program
from repro.sim.rounds import RoundAnalyzer, round_ends
from repro.sim.scheduler import Simulation
from repro.sim.waits import ClockAtLeast


class OneShotSender(Program):
    """Broadcasts once at a chosen clock, then idles forever."""

    def __init__(self, pid, n, send_at_clock=1):
        super().__init__(pid, n)
        self.send_at_clock = send_at_clock

    def run(self):
        if self.send_at_clock > 1:
            yield ClockAtLeast(self.send_at_clock)
        self.broadcast(RawPayload(("ping", self.pid)))
        yield ClockAtLeast(10**9)


class Idler(Program):
    def run(self):
        yield ClockAtLeast(10**9)


def run_schedule(programs, decisions, K=2):
    adversary = ScriptedAdversary(decisions)
    sim = Simulation(
        programs,
        adversary,
        K=K,
        t=0,
        max_steps=len(decisions),
    )
    return sim.run().run


def analyzer_ends(run):
    """Round ends per processor, computed from the ``Run``."""
    analyzer = RoundAnalyzer(run)
    return [analyzer.boundaries(pid).ends for pid in range(run.n)]


def flat_ends(run):
    """Round ends per processor, from flat receipts and target clocks."""
    nonfaulty = run.nonfaulty()
    receipts = [[] for _ in range(run.n)]
    for env in run.envelopes.values():
        if env.receive_event is not None and env.sender in nonfaulty:
            receive_clock = run.events[env.receive_event].clock_after
            receipts[env.recipient].append(
                (env.sender, env.send_clock, receive_clock)
            )
    targets = [0] * run.n
    for event in run.events:
        if event.kind == "step":
            targets[event.actor] = event.clock_after
    return round_ends(run.K, receipts, targets)


@pytest.fixture(params=[analyzer_ends, flat_ends], ids=["run", "flat"])
def ends_of(request):
    return request.param


class TestExactBoundaries:
    def test_receipt_extends_the_following_round(self, ends_of):
        # p0 sends m at clock 1 (its round 1).  p1 receives m at clock 5.
        # p1's round 2 must therefore end at max(2 + 2, 5 + 2) = 7,
        # and its round 3 at 7 + 2 = 9.
        programs = [OneShotSender(0, 2), Idler(1, 2)]
        decisions = [StepDecision(pid=0)]
        decisions += [StepDecision(pid=1)] * 4  # p1 clocks 1..4, no delivery
        decisions += [StepDecision(pid=1, deliver=(MessageId(0),))]  # clock 5
        # Let both run on a bit so later boundaries are computable.
        for _ in range(6):
            decisions += [StepDecision(pid=0), StepDecision(pid=1)]
        run = run_schedule(programs, decisions)
        p0, p1 = ends_of(run)
        assert p1[1] == 2  # round 1 ends at clock K
        assert p1[2] == 7  # stretched by the receipt at clock 5
        assert p1[3] == 9
        # p0 heard nothing: pure K-spaced rounds.
        assert p0[1:4] == [2, 4, 6]

    def test_prompt_receipt_does_not_stretch(self, ends_of):
        # p1 receives m at clock 2: max(2 + 2, 2 + 2) = 4 — no stretch.
        programs = [OneShotSender(0, 2), Idler(1, 2)]
        decisions = [StepDecision(pid=0)]
        decisions += [StepDecision(pid=1)]  # clock 1
        decisions += [StepDecision(pid=1, deliver=(MessageId(0),))]  # clock 2
        for _ in range(5):
            decisions += [StepDecision(pid=0), StepDecision(pid=1)]
        run = run_schedule(programs, decisions)
        assert ends_of(run)[1][1:4] == [2, 4, 6]

    def test_round_two_message_extends_round_three(self, ends_of):
        # p0 sends at its clock 3, i.e. in p0's round 2 (ends at 4).
        # p1 receives it at clock 9.  The receipt therefore extends p1's
        # round *3* (the round after the sender's), not round 2:
        #   round 2 ends at 4, round 3 ends at max(4 + 2, 9 + 2) = 11.
        programs = [OneShotSender(0, 2, send_at_clock=3), Idler(1, 2)]
        decisions = [StepDecision(pid=0)] * 3  # p0 clocks 1..3, sends at 3
        decisions += [StepDecision(pid=1)] * 8  # p1 clocks 1..8
        decisions += [StepDecision(pid=1, deliver=(MessageId(0),))]  # clock 9
        for _ in range(6):
            decisions += [StepDecision(pid=0), StepDecision(pid=1)]
        run = run_schedule(programs, decisions)
        p1 = ends_of(run)[1]
        assert p1[1] == 2
        assert p1[2] == 4  # untouched: the message was not a round-1 send
        assert p1[3] == 11  # stretched by the round-2 message
        assert p1[4] == 13

    def test_crashed_senders_messages_do_not_stretch(self, ends_of):
        # Same delivery at clock 5 as the first test, but the sender is
        # crashed afterwards: messages from faulty processors do not
        # extend rounds (the definition quantifies over nonfaulty q).
        from repro.sim.decisions import CrashDecision

        programs = [OneShotSender(0, 2), Idler(1, 2)]
        decisions = [StepDecision(pid=0)]
        decisions += [StepDecision(pid=1)] * 4
        decisions += [StepDecision(pid=1, deliver=(MessageId(0),))]
        decisions += [CrashDecision(pid=0)]
        decisions += [StepDecision(pid=1)] * 8
        run = run_schedule(programs, decisions)
        assert ends_of(run)[1][1:4] == [2, 4, 6]
