"""The message pattern — everything the adversary is allowed to see.

Section 2.3 of the paper defines the adversary as a function of the
*message pattern*: the sequence of triples recording, for each event, which
processor stepped, which earlier send-events' messages it received, and to
whom it sent messages.  Contents of messages, local states, and coin flips
are hidden "unless deducible from the pattern of communication".

:class:`PatternView` is the read-only facade handed to adversaries.  It
exposes pattern data and pattern-deducible derivatives (per-processor step
counts, pending-message metadata, crash history) and nothing else.  The
scheduler holds the full-information structures; adversaries only ever
receive this view, so information hygiene is enforced by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.sim.message import MessageId

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.scheduler import EventRow, Simulation


@dataclass(frozen=True)
class SentRecord:
    """Pattern record of one envelope send: id and recipient only."""

    message_id: MessageId
    recipient: int


@dataclass(frozen=True)
class PatternEntry:
    """One element of the message pattern.

    ``kind`` is ``"step"`` for an ordinary event ``(p, M, f)`` and
    ``"crash"`` for an explicit failure.  ``delivered`` lists the ids of
    the envelopes received at this event; ``sent`` the envelopes emitted.
    """

    index: int
    kind: str
    actor: int
    delivered: tuple[MessageId, ...]
    sent: tuple[SentRecord, ...]


@dataclass(frozen=True)
class PendingMessage:
    """Pattern-visible metadata of one undelivered envelope.

    The adversary may see who sent it, at which event, and the sender's
    clock at that event (all deducible from the pattern) — never the
    payloads.
    """

    message_id: MessageId
    sender: int
    recipient: int
    send_event: int
    send_clock: int
    guaranteed: bool


class PatternHistory(Sequence):
    """A read-only window onto the live message pattern.

    The scheduler records one flat row per event
    (:data:`repro.sim.scheduler.EventRow`); this window builds the
    :class:`PatternEntry` of a row the first time any row at or after it
    is read, and keeps it, so adversaries that consult the full history
    every decision pay for each entry once and a run whose adversary
    never reads the history builds none.  Only the ``Sequence`` protocol
    is exposed — no mutators.  The window always reflects the pattern
    *so far*.
    """

    __slots__ = ("_rows", "_entries")

    def __init__(self, rows: list["EventRow"]) -> None:
        self._rows = rows
        self._entries: list[PatternEntry] = []

    def _built(self) -> list[PatternEntry]:
        """The entries of every row recorded so far."""
        entries, rows = self._entries, self._rows
        for index in range(len(entries), len(rows)):
            kind, actor, _clock, delivered, sent, _decision, _halted = rows[index]
            entries.append(
                PatternEntry(
                    index=index,
                    kind=kind,
                    actor=actor,
                    delivered=tuple(env.message_id for env in delivered),
                    sent=tuple(
                        SentRecord(env.message_id, env.recipient) for env in sent
                    ),
                )
            )
        return entries

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())

    def __repr__(self) -> str:
        return f"PatternHistory({len(self._rows)} events)"


class PatternView:
    """Read-only, contents-free view of a simulation for adversaries."""

    def __init__(self, simulation: "Simulation") -> None:
        self._sim = simulation

    # -- static parameters ---------------------------------------------------

    @property
    def n(self) -> int:
        """Number of processors."""
        return self._sim.n

    @property
    def t(self) -> int:
        """The fault budget the adversary is expected to respect."""
        return self._sim.t

    @property
    def K(self) -> int:
        """The on-time delivery bound in clock ticks."""
        return self._sim.K

    # -- dynamic pattern data --------------------------------------------------

    @property
    def event_count(self) -> int:
        """Number of events applied so far."""
        return self._sim.event_count

    def clock(self, pid: int) -> int:
        """Steps processor ``pid`` has taken (deducible from the pattern)."""
        return self._sim.process_clock(pid)

    def crashed(self) -> frozenset[int]:
        """Processors the adversary has crashed so far."""
        return self._sim.crashed_frozen()

    def alive(self) -> list[int]:
        """Processors still eligible to take steps, ascending by id."""
        return list(self._sim.alive_pids())

    def pending(self, pid: int) -> list[PendingMessage]:
        """Metadata of the envelopes sitting in ``pid``'s buffer."""
        return self._sim.pending_metadata(pid)

    def pending_ids(self, pid: int) -> list[MessageId]:
        """Ids of the envelopes in ``pid``'s buffer, oldest first."""
        return [m.message_id for m in self.pending(pid)]

    def history(self) -> Sequence[PatternEntry]:
        """The full message pattern so far (a live, read-only window)."""
        return self._sim.pattern_history()
