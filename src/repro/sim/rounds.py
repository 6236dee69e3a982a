"""Asynchronous rounds — the paper's time measure, computed post-hoc.

Definition (Section 2.2 of the paper), inductive per processor ``p``:

* round 1 begins when ``p`` first takes a step and ends when ``p``'s clock
  reads ``K``;
* round ``r > 1`` begins at the end of ``p``'s round ``r - 1`` and ends at
  the *later* of (a) ``K`` clock ticks after the end of round ``r - 1`` and
  (b) ``K`` clock ticks after ``p`` receives the last message sent by a
  nonfaulty processor ``q`` in ``q``'s round ``r - 1``.

Rounds are an analyst's measure: computing them requires knowing which
processors are nonfaulty, so they are derived from a finished run, never
inside a protocol.  :func:`round_ends` is the one iteration, over flat
facts: each processor's receipts from nonfaulty senders as
``(sender, send_clock, receive_clock)`` and the clock it must cover.
Once every processor's round-``(r-1)`` boundary is known, every message
can be labelled with its sender's round at send time, which determines
the round-``r`` boundaries.  :func:`max_decision_round` reads the
Theorem 10 metric off the boundaries.  :func:`record_round_ends` feeds
:func:`round_ends` from a finished trial's
:class:`~repro.sim.trace.TrialRecord`, whichever kernel ran it, and
:class:`RoundAnalyzer` is the query object over such a record (a
recorded :class:`~repro.sim.trace.Run` hands over its
``trial_record()``).

For finite recorded runs, messages that were sent but never delivered
cannot extend a round (the definition speaks of messages ``p`` *receives*);
this matches admissible infinite runs, where guaranteed messages to
nonfaulty processors do arrive eventually and the analyzer would see them.
"""

from __future__ import annotations

import bisect
from typing import Collection, Sequence

from repro.errors import AnalysisError
from repro.sim.trace import TrialRecord

#: Upper bound on rounds computed before giving up; far above the
#: paper's 14-expected-round bound, so hitting it signals a pathological
#: run rather than a normal one.
_MAX_ROUNDS = 10_000

#: One received message, reduced to what round analysis needs:
#: ``(sender, send_clock, receive_clock)``.
Receipt = tuple[int, int, int]


def round_ends(
    K: int, receipts: Sequence[Sequence[Receipt]], targets: Sequence[int]
) -> list[list[int]]:
    """Every processor's round-end clocks, iterated round by round.

    ``receipts[p]`` holds the messages ``p`` received from nonfaulty
    senders; ``targets[p]`` is the largest clock reading the rounds must
    cover for ``p`` (its decision clock, else its last clock).  Returns
    ``ends`` with ``ends[p][r]`` the clock at which ``p``'s round ``r``
    ends (``ends[p][0] == 0``); every processor gets the same number of
    rounds, at least one.

    Raises:
        AnalysisError: when the rounds do not cover the targets within
            ``_MAX_ROUNDS``.
    """
    n = len(targets)
    ends: list[list[int]] = [[0] for _ in range(n)]
    for round_number in range(1, _MAX_ROUNDS + 1):
        if round_number > 1 and all(
            ends[pid][-1] >= targets[pid] for pid in range(n)
        ):
            return ends
        previous = round_number - 1
        for pid in range(n):
            end = ends[pid][previous] + K
            if previous >= 1:
                # A receipt stretches round ``round_number`` when its
                # message was sent in the sender's round ``previous``.
                for sender, send_clock, receive_clock in receipts[pid]:
                    sender_ends = ends[sender]
                    if (
                        sender_ends[previous - 1]
                        < send_clock
                        <= sender_ends[previous]
                        and receive_clock + K > end
                    ):
                        end = receive_clock + K
            ends[pid].append(end)
    raise AnalysisError(
        f"round analysis did not converge within {_MAX_ROUNDS} rounds"
    )


def record_round_ends(record: TrialRecord) -> list[list[int]]:
    """:func:`round_ends` of a finished trial, read off its record.

    The receipts are the delivered envelopes from nonfaulty senders; a
    processor's target is its decision clock, else its last clock (the
    whole recorded lifetime of an undecided processor).
    """
    nonfaulty = record.nonfaulty()
    receipts: list[list[Receipt]] = [[] for _ in range(record.n)]
    for env in record.envelopes:
        if env.receive_event is not None and env.sender in nonfaulty:
            receipts[env.recipient].append(
                (
                    env.sender,
                    env.send_clock,
                    record.clock(env.recipient, env.receive_event),
                )
            )
    targets = [
        len(steps) if clock is None else clock
        for steps, clock in zip(record.step_events, record.decision_clocks)
    ]
    return round_ends(record.K, receipts, targets)


def round_at_clock(ends: Sequence[int], pid: int, clock: int) -> int:
    """The round of ``pid`` containing ``clock``, given its round ends.

    Clock ``c`` lies in round ``r`` when ``ends[r-1] < c <= ends[r]``;
    readings beyond the computed boundary list belong to later rounds
    and raise, so callers never silently mis-bin.
    """
    if clock <= 0:
        raise AnalysisError(f"clock readings are positive, got {clock}")
    index = bisect.bisect_left(ends, clock)
    if index >= len(ends):
        raise AnalysisError(
            f"clock {clock} beyond computed boundaries for "
            f"processor {pid} (last end {ends[-1]})"
        )
    return index


def max_decision_round(
    ends: Sequence[Sequence[int]],
    decision_clocks: Sequence[int | None],
    nonfaulty: Collection[int],
) -> int | None:
    """Rounds until the last nonfaulty decision — the Theorem 10 metric.

    ``None`` when no nonfaulty processor decided.
    """
    return max(
        (
            round_at_clock(ends[pid], pid, clock)
            for pid, clock in enumerate(decision_clocks)
            if clock is not None and pid in nonfaulty
        ),
        default=None,
    )


class RoundAnalyzer:
    """Asynchronous rounds of a finished trial, from its record.

    Computes every round of the record (:func:`record_round_ends`) on
    construction.
    """

    def __init__(self, record: TrialRecord) -> None:
        self._nonfaulty = record.nonfaulty()
        self._decision_clocks = list(record.decision_clocks)
        self._ends = record_round_ends(record)

    # -- public queries ------------------------------------------------------

    def boundaries(self, pid: int) -> list[int]:
        """Processor ``pid``'s round-end clocks (``ends[0] == 0``)."""
        return self._ends[pid]

    def round_at_clock(self, pid: int, clock: int) -> int:
        """The asynchronous round processor ``pid`` is in at ``clock``."""
        return round_at_clock(self._ends[pid], pid, clock)

    def decision_rounds(self) -> dict[int, int | None]:
        """The round in which each processor decided (None if undecided)."""
        return {
            pid: None if clock is None else self.round_at_clock(pid, clock)
            for pid, clock in enumerate(self._decision_clocks)
        }

    def max_decision_round(self) -> int | None:
        """Rounds until the last nonfaulty decision; ``None`` if none."""
        return max_decision_round(
            self._ends, self._decision_clocks, self._nonfaulty
        )
