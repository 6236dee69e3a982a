"""Wait conditions — the ``wait`` construct of the paper's pseudocode.

The paper describes waits operationally: a processor posts received
messages on an internal bulletin board and, at each step, checks whether
the condition following the ``wait`` has been achieved by looking at all
messages received so far.  Protocol programs here are generators that
``yield`` :class:`WaitCondition` objects; the hosting driver (simulator or
asyncio node) re-evaluates the pending condition at every step.

Conditions are *armed* when first yielded, which is when clock-relative
deadlines ("... or 2K clock ticks") are fixed.

A condition is *clock-free* when only the board decides it: once such a
wait is unsatisfied and nothing new arrives, it stays unsatisfied however
far the clock runs (:mod:`repro.sim.parking` relies on this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.board import BulletinBoard

from repro.sim.message import Payload


class WaitCondition:
    """Base class for conditions a protocol program can block on."""

    #: Whether :meth:`satisfied` ignores the clock.  False unless a
    #: subclass knows better.
    clock_free = False

    def arm(self, clock: int) -> None:
        """Record the clock at which the program reached this wait.

        The default is stateless; :class:`WithTimeout` uses the armed clock
        to fix its deadline.
        """

    def satisfied(self, board: "BulletinBoard", clock: int) -> bool:
        """Whether the program may resume, given the board and own clock."""
        raise NotImplementedError

    def __and__(self, other: "WaitCondition") -> "WaitAll":
        return WaitAll((self, other))

    def __or__(self, other: "WaitCondition") -> "WaitAny":
        return WaitAny((self, other))


class MessageCount(WaitCondition):
    """Wait until ``count`` matching payloads (from distinct senders) arrive.

    ``matcher`` receives each payload; counting is per distinct sender by
    default, which is the reading the crash-fault proofs rely on ("receive
    n - t messages of the form (1, s, *)" counts one per processor).

    Passing ``key`` (a payload ``board_key`` value the matcher is
    equivalent to) switches counting to the board's O(1) per-key
    distinct-sender index — essential for long runs, where a full-board
    scan per step would be quadratic.
    """

    clock_free = True

    def __init__(
        self,
        matcher: Callable[[Payload], bool],
        count: int,
        distinct_senders: bool = True,
        key: object = None,
    ) -> None:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self.matcher = matcher
        self.count = count
        self.distinct_senders = distinct_senders
        self.key = key

    def satisfied(self, board: "BulletinBoard", clock: int) -> bool:
        if self.key is not None and self.distinct_senders:
            return board.count_for_key(self.key) >= self.count
        return board.count_matching(self.matcher, self.distinct_senders) >= self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MessageCount(count={self.count}, key={self.key!r})"


class Predicate(WaitCondition):
    """Wait until an arbitrary predicate over the board becomes true."""

    def __init__(
        self, predicate: Callable[["BulletinBoard", int], bool], label: str = ""
    ) -> None:
        self.predicate = predicate
        self.label = label

    def satisfied(self, board: "BulletinBoard", clock: int) -> bool:
        return self.predicate(board, clock)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Predicate({self.label or self.predicate!r})"


class ClockAtLeast(WaitCondition):
    """Wait until the processor's own clock reaches an absolute value."""

    def __init__(self, clock_value: int) -> None:
        self.clock_value = clock_value

    def satisfied(self, board: "BulletinBoard", clock: int) -> bool:
        return clock >= self.clock_value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClockAtLeast({self.clock_value})"


class Never(WaitCondition):
    """A wait that never completes (used to park halted programs)."""

    clock_free = True

    def satisfied(self, board: "BulletinBoard", clock: int) -> bool:
        return False


class WithTimeout(WaitCondition):
    """``inner`` or ``ticks`` of the local clock, whichever happens first.

    Realises the paper's "wait for n GO messages or 2K clock ticks": the
    deadline is fixed relative to the clock reading at the moment the wait
    is armed.
    """

    def __init__(self, inner: WaitCondition, ticks: int) -> None:
        if ticks < 0:
            raise ValueError(f"timeout ticks must be non-negative, got {ticks}")
        self.inner = inner
        self.ticks = ticks
        self.deadline: int | None = None

    def arm(self, clock: int) -> None:
        self.inner.arm(clock)
        if self.deadline is None:
            self.deadline = clock + self.ticks

    def satisfied(self, board: "BulletinBoard", clock: int) -> bool:
        if self.inner.satisfied(board, clock):
            return True
        return self.deadline is not None and clock >= self.deadline

    def timed_out(self, board: "BulletinBoard", clock: int) -> bool:
        """Whether the wait completed by deadline rather than by ``inner``.

        Protocol code calls this right after resuming to branch on the
        "have not received n GO messages" style checks.
        """
        return not self.inner.satisfied(board, clock)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WithTimeout({self.inner!r}, ticks={self.ticks})"


class WaitAll(WaitCondition):
    """Conjunction of several conditions."""

    def __init__(self, conditions: Sequence[WaitCondition]) -> None:
        self.conditions = tuple(conditions)
        self.clock_free = all(c.clock_free for c in self.conditions)

    def arm(self, clock: int) -> None:
        for condition in self.conditions:
            condition.arm(clock)

    def satisfied(self, board: "BulletinBoard", clock: int) -> bool:
        return all(c.satisfied(board, clock) for c in self.conditions)


class WaitAny(WaitCondition):
    """Disjunction of several conditions."""

    def __init__(self, conditions: Sequence[WaitCondition]) -> None:
        self.conditions = tuple(conditions)
        self.clock_free = all(c.clock_free for c in self.conditions)

    def arm(self, clock: int) -> None:
        for condition in self.conditions:
            condition.arm(clock)

    def satisfied(self, board: "BulletinBoard", clock: int) -> bool:
        return any(c.satisfied(board, clock) for c in self.conditions)
