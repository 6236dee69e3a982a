"""Baseline protocols the paper compares against.

* :class:`BenOrProgram` — Ben-Or's original randomized agreement (local
  coins only): the exponential-expected-stages baseline for Protocol 1.
* :class:`TwoPCProgram` — two-phase commit with synchronous-model timeout
  actions: wrong answers under late messages (``PRESUME_ABORT``) or
  blocking under coordinator crashes (``BLOCK``).
* :class:`ThreePCProgram` — Skeen's three-phase commit with timeout
  transitions: nonblocking under synchrony, inconsistent under lateness.
* :class:`DealerCoinAgreementProgram` — Rabin-style trusted-dealer coins.
* :class:`CMSStyleAgreementProgram` — a CMS-inspired weak shared coin
  (constant time, reduced fault envelope ``n > 6t``).
* :class:`DecentralizedCommitProgram` — Skeen's decentralized one-phase
  commit: never blocks, wrong under a single late vote.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "benor": ("BenOrProgram",),
        "cms": ("CMSStyleAgreementProgram",),
        "decentralized": ("DecentralizedCommitProgram", "DecentralizedStats"),
        "messages": (
            "DecisionAnnouncement",
            "ParticipantVote",
            "PreCommit",
            "PreCommitAck",
            "VoteRequest",
        ),
        "rabin": ("DealerCoinAgreementProgram",),
        "threepc": ("ThreePCProgram", "ThreePCStats"),
        "twopc": ("TimeoutAction", "TwoPCProgram", "TwoPCStats"),
    },
)

__all__ = [
    "BenOrProgram",
    "CMSStyleAgreementProgram",
    "DealerCoinAgreementProgram",
    "DecentralizedCommitProgram",
    "DecentralizedStats",
    "DecisionAnnouncement",
    "ParticipantVote",
    "PreCommit",
    "PreCommitAck",
    "ThreePCProgram",
    "ThreePCStats",
    "TimeoutAction",
    "TwoPCProgram",
    "TwoPCStats",
    "VoteRequest",
]
