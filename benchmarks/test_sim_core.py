"""Sim-core A/B benchmark: fast core vs reference on commit trials.

Built on :mod:`abharness`: interleaved best-of-N rounds alternating the
two cores over identical trial batches, so machine drift cancels.
Correctness before speed — the per-trial :class:`RunMetrics` bundles
must be equal across cores before any timing is believed.

The artifact (``benchmarks/results/BENCH_sim_core.json``, or
``BENCH_sim_core_nonumpy.json`` when ``REPRO_SIM_NUMPY`` disables the
numpy paths) records events/second per core and the speedup per
row.  The assertion gate is 3.0x — deliberately below the ~5x+ the
artifact shows on the development host, so loaded CI machines report
honestly instead of flaking; a fast core slower than 3x the reference
means the trials fell off the fused sweep.  One row re-times the same
adversary under the ``granular`` zoo model (floor 2.0x, same policy):
zoo policies reach the sweep through the delivery hold contract, and
this row is what notices if they stop.
"""

from __future__ import annotations

from abharness import best_of, interleaved_rounds, timing_summary, write_results

from repro.adversary.standard import OnTimeAdversary
from repro.analysis.montecarlo import CommitTrialConfig, run_commit_trial
from repro.models import set_default_timing_model
from repro.sim.coreselect import numpy_allowed, set_default_sim_core

#: Assertion floor for the fast core's speedup (see module docstring).
MIN_SPEEDUP = 3.0

#: (label, processor count, trials per batch, timing model, floor): a
#: mid-size and a larger commit quorum, both on the all-ones vote pattern
#: that exercises the full commit path, and the zoo row.
ROWS = (
    ("n=15", 15, 30, None, MIN_SPEEDUP),
    ("n=25", 25, 12, None, MIN_SPEEDUP),
    ("granular n=15", 15, 30, "granular", 2.0),
)

#: Interleaved rounds per row; best-of cancels scheduler noise.
ROUNDS = 5


def _config(n: int) -> CommitTrialConfig:
    return CommitTrialConfig(
        votes=[1] * n,
        adversary_factory=lambda seed: OnTimeAdversary(K=4, seed=seed),
        K=4,
    )


def _batch(config: CommitTrialConfig, trials: int, core: str, model=None):
    set_default_sim_core(core)
    set_default_timing_model(model)
    try:
        return [run_commit_trial(config, seed) for seed in range(trials)]
    finally:
        set_default_sim_core(None)
        set_default_timing_model(None)


def test_sim_core_speedup():
    sizes = {}
    for label, n, trials, model, floor in ROWS:
        config = _config(n)

        # Correctness first: identical metrics, then identical event
        # totals are implied — events/s comparisons are apples-to-apples.
        reference_metrics = _batch(config, trials, "reference", model)
        fast_metrics = _batch(config, trials, "fast", model)
        assert fast_metrics == reference_metrics, (
            f"fast core diverged from reference at {label}"
        )
        events = sum(m.events for m in reference_metrics)

        timings = interleaved_rounds(
            {
                core: lambda r, core=core: _batch(config, trials, core, model)
                for core in ("reference", "fast")
            },
            ROUNDS,
        )
        bests = best_of(timings)
        speedup = bests["reference"] / bests["fast"]
        sizes[label] = {
            "trials": trials,
            "model": model or "realistic",
            "min_speedup_asserted": floor,
            "events": events,
            "timings": timing_summary(timings),
            "events_per_second": {
                core: events / best for core, best in bests.items()
            },
            "speedup": speedup,
        }

    document = {
        "adversary": "OnTimeAdversary(K=4)",
        "rounds": ROUNDS,
        "numpy_enabled": numpy_allowed(),
        "min_speedup_asserted": MIN_SPEEDUP,
        "sizes": sizes,
    }
    name = (
        "BENCH_sim_core.json"
        if numpy_allowed()
        else "BENCH_sim_core_nonumpy.json"
    )
    write_results(name, document)

    for label, entry in sizes.items():
        floor = entry["min_speedup_asserted"]
        assert entry["speedup"] >= floor, (
            f"fast core speedup at {label} was {entry['speedup']:.2f}x, "
            f"below the {floor}x floor — did the trials fall off the "
            f"fused sweep?"
        )
