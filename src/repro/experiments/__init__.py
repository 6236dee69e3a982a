"""The reproduction experiments E1..E14.

One module per quantitative claim of the paper (DESIGN.md §3 holds the
full index).  Each module exposes ``run(trials, base_seed, quick) ->
ResultTable``; :mod:`repro.experiments.registry` names them and powers
both the benchmark suite and EXPERIMENTS.md.  Nothing is imported until
it is used: running one experiment loads only its own module.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {"registry": ("ExperimentInfo",)},
    submodules=(
        "e01_stages",
        "e02_rounds",
        "e03_ticks",
        "e04_ontime_crashes",
        "e05_coin_ablation",
        "e06_graceful_degradation",
        "e07_resilience_bound",
        "e08_time_lower_bound",
        "e09_baseline_safety",
        "e10_benor_comparison",
        "e11_fault_tolerance_sweep",
        "e12_coin_mechanisms",
        "e13_early_abort",
        "e14_message_cost",
    ),
)

__all__ = [
    "ExperimentInfo",
    "e01_stages",
    "e02_rounds",
    "e03_ticks",
    "e04_ontime_crashes",
    "e05_coin_ablation",
    "e06_graceful_degradation",
    "e07_resilience_bound",
    "e08_time_lower_bound",
    "e09_baseline_safety",
    "e10_benor_comparison",
    "e11_fault_tolerance_sweep",
    "e12_coin_mechanisms",
    "e13_early_abort",
    "e14_message_cost",
]
