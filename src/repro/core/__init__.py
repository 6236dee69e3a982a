"""The paper's primary contribution: Protocols 1 and 2.

* :mod:`repro.core.agreement` — Protocol 1, the randomized asynchronous
  agreement subroutine with shared coins (constant expected stages).
* :mod:`repro.core.commit` — Protocol 2, the randomized transaction
  commit protocol (t-nonblocking for t < n/2, ≤ 14 expected asynchronous
  rounds, graceful degradation beyond t faults).
* :mod:`repro.core.coins` — the shared coin list the coordinator ships in
  the GO message.
* :mod:`repro.core.halting` — configurable decide-to-return behaviour.
* :mod:`repro.core.api` — one-call runners used by examples, tests, and
  experiments.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "agreement": (
            "AgreementProgram",
            "AgreementStats",
            "agreement_script",
        ),
        "api": (
            "ProtocolOutcome",
            "default_fault_tolerance",
            "run_agreement",
            "run_commit",
            "shared_coins",
        ),
        "coins": ("CoinList", "flip_coin_list"),
        "commit": ("CommitProgram", "CommitStats"),
        "halting": ("ECHO_LOOKAHEAD_STAGES", "HaltingMode"),
        "messages": (
            "BOTTOM",
            "DecidedMessage",
            "GoMessage",
            "StageMessage",
            "VoteMessage",
        ),
    },
)

__all__ = [
    "BOTTOM",
    "AgreementProgram",
    "AgreementStats",
    "CoinList",
    "CommitProgram",
    "CommitStats",
    "DecidedMessage",
    "ECHO_LOOKAHEAD_STAGES",
    "GoMessage",
    "HaltingMode",
    "ProtocolOutcome",
    "StageMessage",
    "VoteMessage",
    "agreement_script",
    "default_fault_tolerance",
    "flip_coin_list",
    "run_agreement",
    "run_commit",
    "shared_coins",
]
