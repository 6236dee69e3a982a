"""Counterexample pipeline: deterministic replay, shrinking, differential oracle.

When a fault campaign finds a safety violation, this package turns the
raw finding into something a human can act on:

* :mod:`repro.counterexample.replay` — schema-versioned replay artifacts
  (``repro.counterexample`` v1, JSONL): one file pins the violating
  :class:`~repro.faults.campaign.TrialCase` plus each track's expected
  result, and re-executing it must reproduce those results byte for
  byte;
* :mod:`repro.counterexample.shrink` — a delta-debugging minimizer that
  greedily reduces the FaultPlan (drop crashes, drop/narrow partition
  windows, clear loss, drop per-link overrides, shrink ``n``/``t``)
  while the safety violation persists, probing candidates in parallel
  through :mod:`repro.engine`;
* :mod:`repro.counterexample.oracle` — a cross-track differential oracle
  that runs every plan on both the deterministic simulator and the
  commit service on the virtual clock and reports semantic divergence
  (mismatched
  violated-property sets, or termination disagreement where termination
  is guaranteed) as first-class findings.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "oracle": (
            "CORE_DIFFERENTIAL_SCHEMA",
            "DIFFERENTIAL_SCHEMA",
            "classify_trial",
            "render_core_differential_summary",
            "render_differential_summary",
            "run_core_differential",
            "run_differential",
        ),
        "replay": (
            "ARTIFACT_SCHEMA",
            "ARTIFACT_VERSION",
            "artifacts_from_report",
            "first_violating_case",
            "read_artifact",
            "verify_replay",
            "violated_properties",
            "write_artifact",
        ),
        "shrink": (
            "ShrinkResult",
            "case_fails",
            "case_size",
            "render_shrink_summary",
            "shrink_case",
        ),
    },
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "ARTIFACT_VERSION",
    "CORE_DIFFERENTIAL_SCHEMA",
    "DIFFERENTIAL_SCHEMA",
    "ShrinkResult",
    "artifacts_from_report",
    "case_fails",
    "case_size",
    "classify_trial",
    "first_violating_case",
    "read_artifact",
    "render_core_differential_summary",
    "render_differential_summary",
    "render_shrink_summary",
    "run_core_differential",
    "run_differential",
    "shrink_case",
    "verify_replay",
    "violated_properties",
    "write_artifact",
]
