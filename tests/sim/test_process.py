"""Tests for the process driver (programs, steps, waits, decisions)."""

import pytest

from repro.errors import ProtocolViolation
from repro.sim.message import MessageId, RawPayload, ReceivedPayload
from repro.sim.process import Program, SimProcess
from repro.sim.tape import RandomTape
from repro.sim.waits import ClockAtLeast, MessageCount
from repro.types import ProcessStatus


def received(sender: int, data) -> ReceivedPayload:
    return ReceivedPayload(
        sender=sender,
        payload=RawPayload(data),
        receive_clock=0,
        message_id=MessageId(-1),
    )


class EchoOnce(Program):
    """Waits for one message, echoes its data to everyone, returns it."""

    def run(self):
        yield MessageCount(lambda p: True, 1)
        data = self.board.entries()[0].payload.data
        self.broadcast(RawPayload(("echo", data)))
        return data


class DecideAtClock(Program):
    def __init__(self, pid, n, when, value):
        super().__init__(pid, n)
        self.when = when
        self.value = value

    def run(self):
        yield ClockAtLeast(self.when)
        self.decide(self.value)
        return self.value


def make(program_cls, *args, pid=0, n=3, **kwargs) -> SimProcess:
    program = program_cls(pid, n, *args, **kwargs)
    return SimProcess(program, RandomTape(seed=1))


class TestSimProcess:
    def test_clock_counts_steps(self):
        process = make(EchoOnce)
        process.on_step([])
        process.on_step([])
        assert process.clock == 2

    def test_program_blocks_on_wait(self):
        process = make(EchoOnce)
        process.on_step([])
        assert process.status is ProcessStatus.RUNNING

    def test_program_resumes_when_wait_satisfied(self):
        process = make(EchoOnce)
        process.on_step([])
        out = process.on_step([received(1, "hello")])
        assert process.status is ProcessStatus.RETURNED
        assert process.output == "hello"
        # broadcast to others (1, 2) -- self copy is board-posted locally
        assert [recipient for recipient, _ in out] == [1, 2]

    def test_one_wait_crossing_per_step(self):
        class TwoWaits(Program):
            def run(self):
                yield MessageCount(lambda p: True, 1)
                yield MessageCount(lambda p: True, 1)  # already satisfied
                return "done"

        process = SimProcess(TwoWaits(0, 2), RandomTape(seed=0))
        process.on_step([])  # starts, parks at first wait
        process.on_step([received(1, "x")])  # crosses first wait only
        assert process.status is ProcessStatus.RUNNING
        process.on_step([])  # crosses second wait
        assert process.status is ProcessStatus.RETURNED

    def test_runnable_is_a_freshly_armed_wait_that_already_holds(self):
        class TwoWaits(Program):
            def run(self):
                yield MessageCount(lambda p: True, 1)
                yield MessageCount(lambda p: True, 1)  # already satisfied
                yield MessageCount(lambda p: True, 2, distinct_senders=False)
                return "done"

        process = SimProcess(TwoWaits(0, 2), RandomTape(seed=0))
        assert not process.runnable  # not started: no wait is pending
        process.on_step([])  # arms the first wait, nothing on the board
        assert not process.runnable
        process.on_step([])  # checked and found unsatisfied
        assert not process.runnable
        process.on_step([received(1, "x")])  # crosses it, arms the second
        assert process.runnable  # armed, not yet checked, already true
        clock, entries = process.clock, len(process.board.entries())
        assert process.runnable  # the probe changed nothing
        assert (process.clock, len(process.board.entries())) == (clock, entries)
        process.on_step([])  # the step it asked for; the third wait needs 2
        assert not process.runnable
        process.on_step([received(1, "y")])
        assert process.status is ProcessStatus.RETURNED
        assert not process.runnable

    def test_blocked_is_an_unsatisfied_clock_free_wait(self):
        process = make(EchoOnce)
        assert not process.blocked  # not started: no wait is pending
        process.on_step([])
        assert process.blocked  # a message count, nothing on the board
        process.on_step([received(1, "x")])
        assert process.status is ProcessStatus.RETURNED
        assert process.blocked  # a returned program waits on Never

        timed = make(DecideAtClock, 5, 1)
        timed.on_step([])
        assert not timed.blocked  # the clock can still satisfy it

    def test_self_send_posts_locally_without_envelope(self):
        class SelfSender(Program):
            def run(self):
                self.send(self.pid, RawPayload("mine"))
                yield MessageCount(lambda p: True, 1)
                return "saw it"

        process = SimProcess(SelfSender(0, 3), RandomTape(seed=0))
        out = process.on_step([])
        assert out == []  # nothing on the wire
        process.on_step([])
        assert process.output == "saw it"

    def test_broadcast_includes_self_post(self):
        class Broadcaster(Program):
            def run(self):
                self.broadcast(RawPayload("b"))
                yield ClockAtLeast(10**9)

        process = SimProcess(Broadcaster(1, 3), RandomTape(seed=0))
        out = process.on_step([])
        assert [recipient for recipient, _ in out] == [0, 2]
        assert len(process.board) == 1  # own copy

    def test_decision_is_absorbing(self):
        process = make(DecideAtClock, 1, 1, n=1)
        process.on_step([])
        process.on_step([])
        assert process.decision == 1
        with pytest.raises(ProtocolViolation):
            process.record_decision(0)

    def test_re_deciding_same_value_is_fine(self):
        process = make(DecideAtClock, 1, 1, n=1)
        process.on_step([])
        process.on_step([])
        process.record_decision(1)
        assert process.decision == 1

    def test_decision_clock_recorded(self):
        process = make(DecideAtClock, 3, 0, n=1)
        for _ in range(5):
            process.on_step([])
        # ClockAtLeast(3) is crossed at the step where the clock reads 3.
        assert process.decision_clock == 3

    def test_crashed_process_rejects_steps(self):
        process = make(EchoOnce)
        process.mark_crashed()
        with pytest.raises(ProtocolViolation):
            process.on_step([])

    def test_returned_process_still_ticks_and_absorbs(self):
        process = make(EchoOnce)
        process.on_step([])
        process.on_step([received(1, "x")])
        assert process.halted
        out = process.on_step([received(2, "late")])
        assert out == []
        assert process.clock == 3

    def test_piggyback_attached_to_all_envelopes(self):
        class PiggyBacker(Program):
            def run(self):
                self.set_piggyback(lambda recipient: (RawPayload("pb"),))
                self.broadcast(RawPayload("data"))
                yield ClockAtLeast(10**9)

        process = SimProcess(PiggyBacker(0, 3), RandomTape(seed=0))
        out = process.on_step([])
        for _, payloads in out:
            assert payloads[-1].data == "pb"

    def test_unhosted_program_api_raises(self):
        program = EchoOnce(0, 3)
        with pytest.raises(ProtocolViolation):
            _ = program.clock

    def test_pid_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            EchoOnce(5, 3)

    def test_flip_uses_current_step_value(self):
        class Flipper(Program):
            def run(self):
                self.bits = self.flip(8)
                yield ClockAtLeast(10**9)

        a = SimProcess(Flipper(0, 1), RandomTape(seed=4))
        b = SimProcess(Flipper(0, 1), RandomTape(seed=4))
        a.on_step([])
        b.on_step([])
        assert a.program.bits == b.program.bits
