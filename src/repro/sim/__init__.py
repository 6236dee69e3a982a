"""Discrete-event simulation kernel implementing the paper's formal model.

The kernel realises Section 2 of Coan & Lundelius (PODC 1986):

* processors are state machines with message buffers and random tapes
  (:mod:`repro.sim.process`, :mod:`repro.sim.tape`);
* an *event* ``(p, M, f)`` delivers a set of buffered messages ``M`` and a
  random number ``f`` to processor ``p`` (:mod:`repro.sim.message`,
  :mod:`repro.sim.scheduler`);
* the adversary chooses each event from the *message pattern* only — it
  never observes message contents, local state, or coin flips
  (:mod:`repro.sim.pattern`, :mod:`repro.adversary`);
* lateness is defined against the constant ``K``: a message is late if any
  processor takes more than ``K`` steps between its send and its receipt
  (:mod:`repro.sim.trace`);
* asynchronous rounds are computed post-hoc by the paper's inductive
  definition (:mod:`repro.sim.rounds`);
* ``t``-admissibility is monitored (:mod:`repro.sim.admissibility`).

Everything is deterministic given the pair of seeds (adversary seed,
tape seed), so every run in every experiment is exactly replayable.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "admissibility": ("AdmissibilityMonitor", "AdmissibilityReport"),
        "buffer": ("MessageBuffer",),
        "message": ("Envelope", "MessageId", "Payload"),
        "pattern": ("PatternEntry", "PatternView"),
        "process": ("Program", "SimProcess"),
        "rounds": ("RoundAnalyzer",),
        "scheduler": ("Simulation", "SimulationResult"),
        "tape": ("RandomTape", "TapeCollection"),
        "trace": ("Run", "TraceEvent"),
        "waits": (
            "ClockAtLeast",
            "MessageCount",
            "Never",
            "Predicate",
            "WaitAll",
            "WaitAny",
            "WaitCondition",
            "WithTimeout",
        ),
    },
)

__all__ = [
    "AdmissibilityMonitor",
    "AdmissibilityReport",
    "ClockAtLeast",
    "Envelope",
    "MessageBuffer",
    "MessageCount",
    "MessageId",
    "Never",
    "PatternEntry",
    "PatternView",
    "Payload",
    "Predicate",
    "Program",
    "RandomTape",
    "RoundAnalyzer",
    "Run",
    "SimProcess",
    "Simulation",
    "SimulationResult",
    "TapeCollection",
    "TraceEvent",
    "WaitAll",
    "WaitAny",
    "WaitCondition",
    "WithTimeout",
]
