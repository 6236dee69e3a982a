"""Tests for wait conditions."""

import pytest

from repro.sim.board import BulletinBoard
from repro.sim.message import RawPayload, ReceivedPayload
from repro.sim.waits import (
    ClockAtLeast,
    MessageCount,
    Never,
    Predicate,
    WaitAll,
    WaitAny,
    WithTimeout,
)


def board_with(count: int, sender_offset: int = 0) -> BulletinBoard:
    board = BulletinBoard()
    for i in range(count):
        board.post(
            ReceivedPayload(
                sender=sender_offset + i, payload=RawPayload(i), receive_clock=1
            )
        )
    return board


ANY = lambda payload: True


class TestMessageCount:
    def test_satisfied_at_threshold(self):
        wait = MessageCount(ANY, 3)
        assert not wait.satisfied(board_with(2), clock=1)
        assert wait.satisfied(board_with(3), clock=1)

    def test_distinct_senders_counting(self):
        board = BulletinBoard()
        for _ in range(5):
            board.post(
                ReceivedPayload(sender=1, payload=RawPayload("x"), receive_clock=1)
            )
        assert not MessageCount(ANY, 2).satisfied(board, clock=1)
        assert MessageCount(ANY, 2, distinct_senders=False).satisfied(
            board, clock=1
        )

    def test_zero_count_is_immediately_satisfied(self):
        assert MessageCount(ANY, 0).satisfied(board_with(0), clock=1)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            MessageCount(ANY, -1)

    def test_keyed_counting_uses_index(self):
        from repro.core.messages import GoMessage

        board = BulletinBoard()
        board.post(
            ReceivedPayload(
                sender=0, payload=GoMessage(coins=(1,)), receive_clock=1
            )
        )
        wait = MessageCount(
            lambda p: isinstance(p, GoMessage), 1, key=("go",)
        )
        assert wait.satisfied(board, clock=1)
        assert not MessageCount(
            lambda p: isinstance(p, GoMessage), 2, key=("go",)
        ).satisfied(board, clock=1)


class TestClockAtLeast:
    def test_threshold(self):
        wait = ClockAtLeast(5)
        assert not wait.satisfied(board_with(0), clock=4)
        assert wait.satisfied(board_with(0), clock=5)


class TestPredicate:
    def test_wraps_callable(self):
        wait = Predicate(lambda board, clock: len(board) > 0 and clock > 2)
        assert not wait.satisfied(board_with(1), clock=1)
        assert wait.satisfied(board_with(1), clock=3)


class TestNever:
    def test_never_satisfied(self):
        assert not Never().satisfied(board_with(100), clock=10**9)


class TestWithTimeout:
    def test_inner_satisfaction_wins(self):
        wait = WithTimeout(MessageCount(ANY, 1), ticks=10)
        wait.arm(clock=0)
        assert wait.satisfied(board_with(1), clock=1)
        assert not wait.timed_out(board_with(1), clock=1)

    def test_deadline_fires(self):
        wait = WithTimeout(MessageCount(ANY, 99), ticks=5)
        wait.arm(clock=3)
        assert not wait.satisfied(board_with(0), clock=7)
        assert wait.satisfied(board_with(0), clock=8)
        assert wait.timed_out(board_with(0), clock=8)

    def test_deadline_fixed_at_first_arm(self):
        wait = WithTimeout(MessageCount(ANY, 99), ticks=5)
        wait.arm(clock=2)
        wait.arm(clock=100)  # re-arming must not move the deadline
        assert wait.deadline == 7

    def test_negative_ticks_rejected(self):
        with pytest.raises(ValueError):
            WithTimeout(Never(), ticks=-1)

    def test_unarmed_timeout_never_fires(self):
        wait = WithTimeout(MessageCount(ANY, 99), ticks=0)
        assert not wait.satisfied(board_with(0), clock=10**6)


class TestCombinators:
    def test_wait_all(self):
        wait = WaitAll((ClockAtLeast(3), MessageCount(ANY, 1)))
        assert not wait.satisfied(board_with(1), clock=2)
        assert not wait.satisfied(board_with(0), clock=5)
        assert wait.satisfied(board_with(1), clock=5)

    def test_wait_any(self):
        wait = WaitAny((ClockAtLeast(3), MessageCount(ANY, 1)))
        assert wait.satisfied(board_with(1), clock=1)
        assert wait.satisfied(board_with(0), clock=4)
        assert not wait.satisfied(board_with(0), clock=1)

    def test_operator_sugar(self):
        conjunction = ClockAtLeast(1) & ClockAtLeast(2)
        disjunction = ClockAtLeast(10) | ClockAtLeast(2)
        assert isinstance(conjunction, WaitAll)
        assert isinstance(disjunction, WaitAny)
        assert conjunction.satisfied(board_with(0), clock=2)
        assert disjunction.satisfied(board_with(0), clock=2)

    def test_arm_propagates(self):
        inner = WithTimeout(Never(), ticks=2)
        WaitAll((inner,)).arm(clock=4)
        assert inner.deadline == 6


class TestClockFree:
    """Only the board decides a clock-free wait (the parked-run test)."""

    def test_board_only_conditions(self):
        assert MessageCount(ANY, 1).clock_free
        assert Never().clock_free

    def test_clock_reading_conditions(self):
        assert not WithTimeout(MessageCount(ANY, 1), ticks=3).clock_free
        assert not ClockAtLeast(3).clock_free
        assert not Predicate(lambda board, clock: False).clock_free

    def test_combinators_need_every_part_clock_free(self):
        assert (MessageCount(ANY, 1) | Never()).clock_free
        assert WaitAll((MessageCount(ANY, 1), Never())).clock_free
        assert not (MessageCount(ANY, 1) | ClockAtLeast(3)).clock_free
        assert not WaitAll((Never(), WithTimeout(Never(), ticks=1))).clock_free
