"""Unified fault injection: one declarative plan, two execution tracks.

This package closes the gap between *what faults a trial suffers* and
*where the trial runs*.  A :class:`FaultPlan` declares a schedule —
crash-at-cycle, partition windows, per-link loss/duplication/reorder
probabilities, delay overrides — in track-neutral cycle time, and two
compilers realise it:

* :func:`compile_to_adversary` → a
  :class:`~repro.adversary.base.CycleAdversary` for the deterministic
  simulator;
* :func:`compile_to_runtime` → transport link hooks, crash injections,
  and a retransmission config for the asyncio runtime.

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
        "runtime_compile": (
            "PlanLinkFaults",
            "cluster_from_plan",
            "compile_to_runtime",
            "plan_reliability",
        ),
        "safety": (
            "LIVENESS_PROPERTIES",
            "SAFETY_PROPERTIES",
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
    "PROGRAM_VARIANTS",
    "PartitionWindow",
    "PlanLinkFaults",
    "SAFETY_PROPERTIES",
    "SafetyMonitor",
    "SafetyReport",
    "TrialCase",
    "Violation",
    "case_from_config",
    "cluster_from_plan",
    "compile_to_adversary",
    "compile_to_runtime",
    "execute_trial_case",
    "make_programs",
    "plan_reliability",
    "render_campaign_summary",
    "resolve_variant",
    "run_campaign",
    "run_campaign_trial",
    "write_campaign_report",
]
