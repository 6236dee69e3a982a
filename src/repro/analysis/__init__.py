"""Monte-Carlo analysis: trials, metrics, statistics, sweeps, tables."""

from repro._lazy import lazy_exports

# Two exports share their name with the submodule that defines them.
# Importing such a submodule binds the module on the package, which
# would hide a lazy export of that name; both are standard-library only,
# so they are bound here, before anything can import them.
from repro.analysis.histogram import histogram
from repro.analysis.sweep import SweepPoint, grid, sweep

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "metrics": (
            "RunMetrics",
            "abort_validity_satisfied",
            "commit_validity_satisfied",
            "extract_metrics",
        ),
        "montecarlo": (
            "CommitTrialConfig",
            "TrialBatch",
            "run_commit_batch",
            "run_commit_trial",
            "run_custom_batch",
        ),
        "stats": ("Summary", "proportion", "summarize"),
        "tables": ("ResultTable",),
        "verify": ("VerificationReport", "Verdict", "verify_commit_run"),
    },
)

__all__ = [
    "CommitTrialConfig",
    "Verdict",
    "VerificationReport",
    "ResultTable",
    "RunMetrics",
    "Summary",
    "SweepPoint",
    "TrialBatch",
    "abort_validity_satisfied",
    "commit_validity_satisfied",
    "extract_metrics",
    "grid",
    "proportion",
    "run_commit_batch",
    "run_commit_trial",
    "run_custom_batch",
    "histogram",
    "summarize",
    "sweep",
    "verify_commit_run",
]
