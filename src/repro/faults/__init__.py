"""Unified fault injection: one declarative plan, two execution tracks.

This package closes the gap between *what faults a trial suffers* and
*where the trial runs*.  A :class:`FaultPlan` declares a schedule —
crash-at-cycle, partition windows, per-link loss/duplication/reorder
probabilities, delay overrides — in track-neutral cycle time, and two
tracks realise it:

* :func:`compile_to_adversary` → a
  :class:`~repro.adversary.base.CycleAdversary` for the deterministic
  simulator;
* :class:`~repro.service.cluster.ServiceCluster` → kills (and restarts)
  of durable commit-service nodes plus per-attempt link faults on the
  in-memory bus.

The :class:`SafetyMonitor` machine-checks the paper's invariants
(agreement, validity, nonblocking-within-budget) on every trial, and
:func:`run_campaign` sweeps seeded randomized plans across both tracks
into one reproducible, machine-readable report.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "campaign": (
            "CAMPAIGN_SCHEMA",
            "CampaignConfig",
            "TrialCase",
            "case_from_config",
            "execute_trial_case",
            "render_campaign_summary",
            "run_campaign",
            "run_campaign_trial",
            "write_campaign_report",
        ),
        "plan": (
            "CrashFault",
            "FaultPlan",
            "LinkDelay",
            "LinkLoss",
            "PartitionWindow",
        ),
        "safety": (
            "LIVENESS_PROPERTIES",
            "NONTERMINATED",
            "SAFETY_PROPERTIES",
            "TERMINATED",
            "SafetyMonitor",
            "SafetyReport",
            "Violation",
        ),
        "sim_compile": ("FaultPlanAdversary", "compile_to_adversary"),
        "variants": (
            "PROGRAM_VARIANTS",
            "BrokenCommitProgram",
            "make_programs",
            "resolve_variant",
        ),
    },
)

__all__ = [
    "CAMPAIGN_SCHEMA",
    "BrokenCommitProgram",
    "CampaignConfig",
    "CrashFault",
    "FaultPlan",
    "FaultPlanAdversary",
    "LIVENESS_PROPERTIES",
    "LinkDelay",
    "LinkLoss",
    "NONTERMINATED",
    "PROGRAM_VARIANTS",
    "PartitionWindow",
    "SAFETY_PROPERTIES",
    "SafetyMonitor",
    "SafetyReport",
    "TERMINATED",
    "TrialCase",
    "Violation",
    "case_from_config",
    "compile_to_adversary",
    "execute_trial_case",
    "make_programs",
    "render_campaign_summary",
    "resolve_variant",
    "run_campaign",
    "run_campaign_trial",
    "write_campaign_report",
]
