"""Executable lower-bound machinery (Sections 4 and 5 of the paper).

* :mod:`repro.lowerbound.schedules` — abstract schedules, the lockstep
  structure (cycles/semicycles), and the proof operators ``σ|S``,
  ``kill(S, σ)``, ``deafen(S, σ)``.
* :mod:`repro.lowerbound.replay` — applying abstract schedules to fresh
  processors, the executable form of "the schedule is applicable to
  configuration D" used by Lemmas 12 and 13.
* :mod:`repro.lowerbound.theorem14` — the kill-half adversary and the
  sharp resilience threshold (blocks at ``n = 2t``, decides at
  ``n = 2t + 1``).
* :mod:`repro.lowerbound.theorem17` — the delay-scaling adversary showing
  unbounded expected clock ticks alongside constant asynchronous rounds.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "replay": ("ObservableState", "ScheduleReplayer", "observable_state"),
        "schedules": (
            "AbstractEvent",
            "AbstractSchedule",
            "EventKind",
            "Provenance",
            "round_robin_skeleton",
            "schedule_from_run",
        ),
        "serialize": (
            "export_run",
            "load_schedule",
            "save_run",
            "schedule_from_dict",
            "schedule_to_dict",
        ),
        "theorem14": (
            "BoundaryResult",
            "demonstrate_boundary",
            "kill_half_adversary",
            "run_boundary_case",
        ),
        "theorem17": (
            "DelayScalingPoint",
            "measure_delay_scaling",
            "run_delay_point",
            "uniform_delay_adversary",
        ),
        "valency": ("ValencyWitness", "bivalence_witness"),
    },
)

__all__ = [
    "AbstractEvent",
    "ValencyWitness",
    "bivalence_witness",
    "export_run",
    "load_schedule",
    "save_run",
    "schedule_from_dict",
    "schedule_to_dict",
    "AbstractSchedule",
    "BoundaryResult",
    "DelayScalingPoint",
    "EventKind",
    "ObservableState",
    "Provenance",
    "ScheduleReplayer",
    "demonstrate_boundary",
    "kill_half_adversary",
    "measure_delay_scaling",
    "observable_state",
    "round_robin_skeleton",
    "run_boundary_case",
    "run_delay_point",
    "schedule_from_run",
    "uniform_delay_adversary",
]
