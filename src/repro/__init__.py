"""repro — Transaction Commit in a Realistic Fault Model (PODC 1986).

A faithful, executable reproduction of Coan & Lundelius's randomized
transaction commit protocol and its almost-asynchronous model:

* :mod:`repro.core` — Protocol 1 (shared-coin agreement) and Protocol 2
  (randomized transaction commit);
* :mod:`repro.sim` — the paper's formal model as a deterministic
  discrete-event simulator (events, schedules, runs, message patterns,
  asynchronous rounds, ``t``-admissibility);
* :mod:`repro.adversary` — pattern-only adversaries (plus one
  deliberately content-aware attacker);
* :mod:`repro.protocols` — baselines: Ben-Or with local coins, 2PC, 3PC;
* :mod:`repro.runtime` — an asyncio deployment substrate running the same
  protocol state machines;
* :mod:`repro.analysis` — Monte-Carlo trials, statistics, sweeps;
* :mod:`repro.lowerbound` — the lockstep model and the executable
  constructions behind Theorems 14 and 17;
* :mod:`repro.experiments` — the E1..E11 reproduction experiments.

Quickstart::

    from repro import run_commit, Vote

    outcome = run_commit([Vote.COMMIT] * 5)
    assert outcome.unanimous_decision is not None
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "core": (
            "AgreementProgram",
            "CoinList",
            "CommitProgram",
            "HaltingMode",
            "ProtocolOutcome",
            "default_fault_tolerance",
            "run_agreement",
            "run_commit",
            "shared_coins",
        ),
        "errors": ("ReproError",),
        "types": ("COORDINATOR_ID", "Decision", "ProcessorId", "Vote"),
    },
)

__version__ = "1.0.0"

__all__ = [
    "AgreementProgram",
    "COORDINATOR_ID",
    "CoinList",
    "CommitProgram",
    "Decision",
    "HaltingMode",
    "ProcessorId",
    "ProtocolOutcome",
    "ReproError",
    "Vote",
    "__version__",
    "default_fault_tolerance",
    "run_agreement",
    "run_commit",
    "shared_coins",
]
