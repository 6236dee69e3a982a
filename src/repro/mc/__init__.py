"""Bounded exhaustive model checking of the commit protocols.

The fault campaigns sample random schedules; this package *enumerates*
them.  Within explicit bounds (per-processor cycles, crash budget, late
messages, delay budget) the explorer drives the deterministic sim track
through every adversary choice — which processor steps next, which
buffered envelopes it receives, where crashes land — deduplicates
states by canonical fingerprint, prunes commuting interleavings with
sleep-set partial-order reduction, and checks every safety property
from :mod:`repro.faults.safety` at every state.

Violating paths are emitted as scripted-adversary
:class:`~repro.faults.campaign.TrialCase` artifacts, so the existing
``repro faults replay`` / ``repro faults shrink`` pipeline consumes
model-checker counterexamples unchanged.  See ``docs/MODELCHECK.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "artifacts": (
            "case_from_violation",
            "write_violation_artifact",
            "write_violation_artifacts",
        ),
        "config": ("MCConfig",),
        "explorer": (
            "ExploreReport",
            "ExploreStats",
            "ViolationRecord",
            "explore",
            "render_explore_summary",
            "violation_classes",
        ),
        "fingerprint": ("canonical_state", "state_digest"),
        "presets": ("CERTIFY_PRESETS", "render_certify_summary", "run_certify"),
    },
)

__all__ = [
    "CERTIFY_PRESETS",
    "ExploreReport",
    "ExploreStats",
    "MCConfig",
    "ViolationRecord",
    "canonical_state",
    "case_from_violation",
    "explore",
    "render_certify_summary",
    "render_explore_summary",
    "run_certify",
    "state_digest",
    "violation_classes",
    "write_violation_artifact",
    "write_violation_artifacts",
]
