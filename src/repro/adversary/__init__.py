"""Adversaries: schedulers of steps, message delivery, and crashes.

The paper's adversary (Section 2.3) controls the order of processor
steps, the timing of every message delivery, and which processors crash
and when — all decided dynamically from the *message pattern*, never from
message contents, local states, or coin flips.  Every adversary here
consumes only the :class:`~repro.sim.pattern.PatternView` except
:class:`~repro.adversary.omniscient.OmniscientBalancer`, which is
deliberately non-compliant (``model_compliant = False``) and exists to
demonstrate why the contents-hiding assumption matters.

Roster:

* :class:`SynchronousAdversary` — failure-free lockstep, on time.
* :class:`OnTimeAdversary` — random delays bounded by ``K``.
* :class:`LateMessageAdversary` — injects late messages.
* :class:`ScheduledCrashAdversary` / :class:`AdaptiveCrashAdversary` —
  scripted and pattern-adaptive fail-stops, including mid-broadcast.
* :class:`PartitionAdversary` — transient partitions.
* :class:`RandomAdversary` — fair random scheduling.
* :class:`SplitVoteAdversary` — pattern-based anti-convergence camps.
* :class:`OmniscientBalancer` — the content-reading balancing attack.
* :class:`ScriptedAdversary` / :class:`FunctionAdversary` — replayed and
  callable schedules, for tests and the lower-bound constructions.
* :class:`ChaosAdversary` — randomized composition of everything above,
  for safety fuzzing.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "base": (
            "Adversary",
            "CrashAt",
            "CycleAdversary",
            "CycleContext",
            "DelayCycles",
            "DeliverAll",
            "DeliveryPolicy",
            "DropNonGuaranteed",
        ),
        "chaos": ("ChaosAdversary",),
        "crash": ("AdaptiveCrashAdversary", "ScheduledCrashAdversary"),
        "omniscient": ("OmniscientBalancer",),
        "partition": ("PartitionAdversary",),
        "random_walk": ("RandomAdversary",),
        "scripted": ("FunctionAdversary", "ScriptedAdversary"),
        "splitter": ("SplitVoteAdversary",),
        "standard": (
            "LateMessageAdversary",
            "OnTimeAdversary",
            "SynchronousAdversary",
        ),
    },
)

__all__ = [
    "AdaptiveCrashAdversary",
    "Adversary",
    "ChaosAdversary",
    "CrashAt",
    "CycleAdversary",
    "CycleContext",
    "DelayCycles",
    "DeliverAll",
    "DeliveryPolicy",
    "DropNonGuaranteed",
    "FunctionAdversary",
    "LateMessageAdversary",
    "OmniscientBalancer",
    "OnTimeAdversary",
    "PartitionAdversary",
    "RandomAdversary",
    "ScheduledCrashAdversary",
    "ScriptedAdversary",
    "SplitVoteAdversary",
    "SynchronousAdversary",
]
