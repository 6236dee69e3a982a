"""``repro.engine`` — batch trial execution and seed derivation.

The engine is the layer between experiments and the simulator: it takes
a picklable ``seed -> result`` trial, fans the seed range across worker
processes (or runs it in-process), and returns results whose values and
order are byte-identical to the serial loop.  See
:mod:`repro.engine.executor` for the execution contract,
:mod:`repro.engine.spec` for the picklable building blocks, and
:mod:`repro.engine.seeds` for the seed-derivation scheme.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "executor": (
            "TrialEngine",
            "default_workers",
            "resolve_workers",
            "run_trials",
            "set_default_workers",
        ),
        "spec": (
            "ChunkResult",
            "SeededFactory",
            "TrialResult",
            "TrialSpec",
            "chunk_seeds",
        ),
    },
    submodules=("seeds",),
)

__all__ = [
    "ChunkResult",
    "SeededFactory",
    "TrialEngine",
    "TrialResult",
    "TrialSpec",
    "chunk_seeds",
    "default_workers",
    "resolve_workers",
    "run_trials",
    "seeds",
    "set_default_workers",
]
