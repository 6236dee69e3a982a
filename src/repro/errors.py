"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch the whole family with one ``except`` clause.  The
sub-hierarchy mirrors the architectural layers: simulation-kernel errors,
model/admissibility violations, protocol misuse, and analysis errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` library."""


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event simulation kernel."""


class SchedulingError(SimulationError):
    """An adversary issued a decision the model does not allow.

    Examples: stepping a crashed processor, delivering a message that is not
    in the target's buffer, or delivering the same message twice.
    """


class TapeExhaustedError(SimulationError):
    """A processor requested randomness beyond the end of a finite tape."""


class AdmissibilityError(SimulationError):
    """A run violated the ``t``-admissibility conditions of the model.

    Raised by the admissibility monitor when, e.g., more than ``t``
    processors crash, or a guaranteed message to a nonfaulty processor is
    provably never delivered.
    """


class ProtocolError(ReproError):
    """Base class for protocol-level errors (misuse of a state machine)."""


class ProtocolViolation(ProtocolError):
    """A protocol invariant was broken at runtime.

    This should never fire for the shipped protocols; it exists so tests
    and fault-injection harnesses can assert on internal invariants.
    """


class ConfigurationError(ProtocolError):
    """A protocol or simulation was configured with invalid parameters.

    Examples: ``n <= 2 * t`` for Protocol 1/2 (outside the proven envelope
    unless explicitly overridden for lower-bound experiments), a
    non-positive ``K``, or duplicate processor identifiers.
    """


class ServiceError(ReproError):
    """Base class for deployable commit-service failures."""


class WalError(ServiceError):
    """A write-ahead log or snapshot is unreadable beyond repair.

    Torn *tails* (a truncated final record after a mid-write kill) are
    not errors — the reader recovers from the last valid record; this is
    raised for structural corruption recovery cannot paper over, such as
    conflicting decision records or a checksum-failing snapshot.
    """


class AnalysisError(ReproError):
    """Base class for Monte-Carlo / statistics errors."""


class InsufficientDataError(AnalysisError):
    """A statistic was requested over too few samples to be meaningful."""
