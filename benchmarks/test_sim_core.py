"""Sim-core A/B benchmark: fast core vs reference on commit, campaign and atlas trials.

Built on :mod:`abharness`: interleaved best-of-N rounds alternating the
two cores over identical trial batches, so machine drift cancels.
Correctness before speed — the per-trial results (:class:`RunMetrics`
bundles, campaign records) must be equal across cores before any
timing is believed.

The artifact (``benchmarks/results/BENCH_sim_core.json``, or
``BENCH_sim_core_nonumpy.json`` when ``REPRO_SIM_NUMPY`` disables the
numpy paths) records events/second per core and the speedup per
row.  The assertion gate is 3.0x — deliberately below the ~5x+ the
artifact shows on the development host, so loaded CI machines report
honestly instead of flaking; a fast core slower than 3x the reference
means the trials fell off the fused sweep.  One row re-times the same
adversary under the ``granular`` zoo model (floor 2.0x, same policy):
zoo policies reach the sweep through the delivery hold contract, and
this row is what notices if they stop.  The campaign row runs the fault
campaign's sim track over a fixed window of plans (n=5, t=2, 12 plans of
which 3 are over budget and run to the step horizon), chosen the way
``benchmarks/e2e/simmix.py`` chooses its window; it is what notices if
campaign trials stop reaching the sweep.  The atlas row runs degradation
atlas cells (``repro models atlas``): every protocol of the battery under
every timing model of the zoo, default :class:`AtlasConfig`, the first
``ATLAS_SEEDS`` seeds; it is what notices if atlas cells stop reaching
the sweep.  Atlas records carry no event count, so that row's rate is
in cells per second.
"""

from __future__ import annotations

import json

from abharness import best_of, interleaved_rounds, timing_summary, write_results

from repro.adversary.standard import OnTimeAdversary
from repro.analysis.montecarlo import CommitTrialConfig, run_commit_trial
from repro.faults.campaign import CampaignConfig, case_from_config, run_campaign_trial
from repro.models import model_names, set_default_timing_model
from repro.models.atlas import ATLAS_PROTOCOLS, AtlasConfig, _atlas_trial
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

#: The campaign row: processors, budget, plans in the window, and how
#: many of them are over budget (the campaign's default 0.25, made exact).
CAMPAIGN_N, CAMPAIGN_T = 5, 2
WINDOW_PLANS, WINDOW_OVER_BUDGET = 12, 3

#: Seeds per (protocol, model) cell of the atlas row.
ATLAS_SEEDS = 5

#: Interleaved rounds per row; best-of cancels scheduler noise.
ROUNDS = 5


def _config(n: int) -> CommitTrialConfig:
    return CommitTrialConfig(
        votes=[1] * n,
        adversary_factory=lambda seed: OnTimeAdversary(K=4, seed=seed),
        K=4,
    )


def _find_window(config: CampaignConfig, start: int) -> int:
    """First base seed ``>= start`` whose ``WINDOW_PLANS`` consecutive
    plans hold exactly ``WINDOW_OVER_BUDGET`` over-budget ones."""
    flags = [
        not case_from_config(config, seed).within_budget
        for seed in range(start, start + WINDOW_PLANS)
    ]
    base = start
    while sum(flags) != WINDOW_OVER_BUDGET:
        flags.pop(0)
        flags.append(
            not case_from_config(config, base + WINDOW_PLANS).within_budget
        )
        base += 1
    return base


def _commit_workload(n: int, trials: int):
    config = _config(n)
    return lambda: [run_commit_trial(config, seed) for seed in range(trials)]


def _campaign_workload(config: CampaignConfig, base: int):
    seeds = range(base, base + WINDOW_PLANS)
    return lambda: [run_campaign_trial(config, seed) for seed in seeds]


def _atlas_workload():
    config_json = json.dumps(AtlasConfig().to_dict(), sort_keys=True)
    cells = [
        (protocol, model, seed)
        for protocol in ATLAS_PROTOCOLS
        for model in model_names()
        for seed in range(ATLAS_SEEDS)
    ]
    return lambda: [_atlas_trial(config_json, *cell) for cell in cells]


def _events(result) -> int | None:
    """Simulated events of one trial result; ``None`` for an atlas cell."""
    if isinstance(result, dict):
        if "tracks" not in result:
            return None
        return result["tracks"]["sim"]["events"]
    return result.events


def _batch(workload, core: str, model=None):
    set_default_sim_core(core)
    set_default_timing_model(model)
    try:
        return workload()
    finally:
        set_default_sim_core(None)
        set_default_timing_model(None)


def _measure(label: str, workload, model, floor: float) -> dict:
    # Correctness first: identical results, then identical event totals
    # are implied — events/s comparisons are apples-to-apples.
    reference = _batch(workload, "reference", model)
    fast = _batch(workload, "fast", model)
    assert fast == reference, f"fast core diverged from reference at {label}"
    counts = [_events(result) for result in reference]
    events = None if None in counts else sum(counts)

    timings = interleaved_rounds(
        {
            core: lambda r, core=core: _batch(workload, core, model)
            for core in ("reference", "fast")
        },
        ROUNDS,
    )
    bests = best_of(timings)
    entry = {
        "trials": len(reference),
        "model": model or "realistic",
        "min_speedup_asserted": floor,
        "timings": timing_summary(timings),
        "trials_per_second": {
            core: len(reference) / best for core, best in bests.items()
        },
        "speedup": bests["reference"] / bests["fast"],
    }
    if events is not None:
        entry["events"] = events
        entry["events_per_second"] = {
            core: events / best for core, best in bests.items()
        }
    return entry


def test_sim_core_speedup():
    sizes = {}
    for label, n, trials, model, floor in ROWS:
        sizes[label] = _measure(
            label, _commit_workload(n, trials), model, floor
        )
    config = CampaignConfig(
        n=CAMPAIGN_N, t=CAMPAIGN_T, plans=WINDOW_PLANS, tracks=("sim",)
    )
    base = _find_window(config, 0)
    label = f"campaign n={CAMPAIGN_N}"
    sizes[label] = _measure(
        label, _campaign_workload(config, base), None, MIN_SPEEDUP
    )
    sizes[label]["window"] = {
        "base_seed": base,
        "plans": WINDOW_PLANS,
        "over_budget": WINDOW_OVER_BUDGET,
        "t": CAMPAIGN_T,
    }
    label = "atlas cells n=5"
    sizes[label] = _measure(label, _atlas_workload(), None, MIN_SPEEDUP)
    sizes[label]["model"] = "every zoo model"
    sizes[label]["grid"] = {
        "protocols": list(ATLAS_PROTOCOLS),
        "models": list(model_names()),
        "seeds": ATLAS_SEEDS,
    }

    document = {
        "adversary": "OnTimeAdversary(K=4)",
        "campaign_adversary": "compiled FaultPlan (repro faults campaign)",
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
