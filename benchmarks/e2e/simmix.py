"""The ``sim_mix`` workload: the sim harness in one process, ``workers=1``.

No socket, no fsync, no JSON wire codec — every service-layer change must
leave this workload flat, and every sim / adversary / faults / mc change
shows here and nowhere else.  Three segments:

(c) ``mc.explore`` of n=3 t=1 K=2 over all eight vote vectors, POR on —
    fixed work, run once, first;
(a) fault-plan campaign trials, sim track, n=5 t=2, once per core;
(b) ``run_commit_trial`` under ``OnTimeAdversary(K=4)``, all-ones votes,
    n=15 and n=25, once per core.

(a) and (b) form one **pass** of 44 trials whose inputs the seed fixes;
the pass is repeated, identically, until the time budget is spent, and
each trial is charged its *fastest* repeat.  The work is deterministic
and single-threaded, so whatever a repeat takes beyond the fastest one
is the shared host, not the program: on this box the same trial moves
by ±15% between repeats, which would otherwise drown a 10% bound.
Every repeat must also return what the first returned.

Composition is fixed because campaign trials are bimodal: an over-budget
plan runs to the 20 000-step horizon (~250 ms), a within-budget one
decides in ~4 ms.  A window of plans drawn at random holds a binomial
number of the slow kind, which alone moves trials/s by ±20% between
seeds; so the pass takes the first window of consecutive plan seeds that
holds exactly the configured over-budget share.  The seed picks *which*
plans, never how many of each kind.  The counts also put the median
trial inside the fast-core n=15 group and the 90th percentile inside the
horizon group, away from the cliffs between groups.

Campaign trials go through :func:`run_campaign_trial` (what
``run_campaign`` maps over its seeds) so every trial has its own
latency sample; the digest over the window's records is the same content
``run_campaign`` would put under ``"trials"``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from spans import SpanRecorder

from repro.adversary.standard import OnTimeAdversary
from repro.analysis.montecarlo import CommitTrialConfig, run_commit_trial
from repro.faults.campaign import CampaignConfig, case_from_config, run_campaign_trial
from repro.mc.config import MCConfig
from repro.mc.explorer import explore
from repro.sim.coreselect import set_default_sim_core

CAMPAIGN_N, CAMPAIGN_T = 5, 2
#: Plans per pass, and how many of them are over budget — the campaign's
#: own ``over_budget_fraction`` (0.25), made exact.
WINDOW_PLANS, WINDOW_OVER_BUDGET = 12, 3
#: (processors, trials per pass and core) of the commit-trial segment.
COMMIT_SIZES = ((15, 8), (25, 2))
CORES = ("reference", "fast")
MC_VOTE_VECTORS = tuple(itertools.product((0, 1), repeat=3))
#: The pass is repeated at least this often, however short the budget.
MIN_REPEATS = 2


@dataclass
class SimMixResult:
    setup_s: float = 0.0
    labels: list[str] = field(default_factory=list)  # one per trial of the pass
    trial_s: list[float] = field(default_factory=list)  # fastest repeat, wall
    trial_cpu_s: list[float] = field(default_factory=list)  # fastest repeat, CPU
    repeats: int = 0
    events: int = 0
    campaign_trials: int = 0
    horizon_trials: int = 0
    mc_rates: list[float] = field(default_factory=list)
    mc_states: int = 0
    mc_sleep_pruned: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    first_window_digest: str = ""
    peak_rss_mb: float = 0.0


def campaign_config() -> CampaignConfig:
    return CampaignConfig(n=CAMPAIGN_N, t=CAMPAIGN_T, plans=WINDOW_PLANS, tracks=("sim",))


def find_window(config: CampaignConfig, start: int, plans: int, over_budget: int) -> int:
    """First base seed ``>= start`` whose ``plans`` consecutive plans hold
    exactly ``over_budget`` over-budget ones."""
    flags = [
        not case_from_config(config, seed).within_budget
        for seed in range(start, start + plans)
    ]
    base = start
    while sum(flags) != over_budget:
        flags.pop(0)
        flags.append(not case_from_config(config, base + plans).within_budget)
        base += 1
    return base


def window_start(seed: int) -> int:
    return (seed * 1_000_003 + 17) % (2**31)


def setup_probe(seed: int) -> None:
    """What a campaign pays before its first trial: the imports above (this
    runs in a fresh interpreter) + plan drawing."""
    find_window(campaign_config(), window_start(seed), WINDOW_PLANS, WINDOW_OVER_BUDGET)


def measure_setup(seed: int, repeats: int) -> float:
    """Median wall seconds of :func:`setup_probe` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", str(seed)],
            check=True,
            env=env,
            stdin=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _digest(records) -> str:
    return hashlib.sha256(
        json.dumps(records, sort_keys=True, default=str).encode()
    ).hexdigest()


def install_sim_trace(recorder: SpanRecorder) -> None:
    """Wrap the sim-side layer boundaries (reference core; the fast core's
    fused sweep bypasses them by design)."""
    from repro.adversary.base import CycleAdversary
    from repro.faults import campaign
    from repro.faults.safety import SafetyMonitor
    from repro.mc import explorer
    from repro.sim.buffer import MessageBuffer
    from repro.sim.rounds import RoundAnalyzer
    from repro.sim.scheduler import Simulation
    from repro.sim.tape import RandomTape

    recorder.wrap(Simulation, "apply", "sim.apply")
    recorder.wrap(CycleAdversary, "decide", "sim.decide")
    recorder.wrap(MessageBuffer, "take", "sim.buffer_take")
    recorder.wrap(RandomTape, "next_step_value", "sim.tape")
    recorder.wrap(RandomTape, "flip", "sim.tape")
    recorder.wrap(Simulation, "build_run", "sim.build_run")
    recorder.wrap(RoundAnalyzer, "__init__", "sim.rounds")  # computes every round
    recorder.wrap(campaign, "case_from_config", "faults.plan_draw")
    recorder.wrap(campaign, "compile_to_adversary", "faults.compile")
    recorder.wrap(SafetyMonitor, "check", "faults.safety_check")
    recorder.wrap(explorer, "state_digest", "mc.fingerprint")


def run_sim_mix(
    seed: int,
    seconds: float,
    *,
    smoke: bool = False,
    recorder: SpanRecorder | None = None,
    setup_repeats: int = 3,
) -> SimMixResult:
    logging.getLogger("repro").setLevel(logging.ERROR)  # horizon warnings
    result = SimMixResult()
    if setup_repeats:
        result.setup_s = measure_setup(seed, setup_repeats)
    config = campaign_config()
    started = time.perf_counter()

    # (c) the model checker: fixed work, so states_visited repeats exactly.
    set_default_sim_core("reference")
    for votes in MC_VOTE_VECTORS[:1] if smoke else MC_VOTE_VECTORS:
        mc_config = MCConfig(n=3, t=1, K=2, votes=votes, seed=seed)
        begin = time.perf_counter()
        report = explore(mc_config, workers=1)
        elapsed = time.perf_counter() - begin
        if recorder is not None:
            recorder.fold()
        stats = report.stats.to_dict()
        result.mc_rates.append(stats["states_visited"] / elapsed)
        result.mc_states += stats["states_visited"]
        result.mc_sleep_pruned += stats["pruned_sleep"]
        result.attempted += 1
        if report.violations or stats["truncated"]:
            result.failures.append(
                f"mc votes={votes}: {len(report.violations)} violation(s), "
                f"truncated={stats['truncated']}"
            )

    # (a)+(b): the pass, as (label, core, call) in running order.
    window_plans, window_over = (4, 1) if smoke else (WINDOW_PLANS, WINDOW_OVER_BUDGET)
    base = find_window(config, window_start(seed), window_plans, window_over)
    trials = [
        (f"campaign.{core}", core, partial(run_campaign_trial, config, plan_seed))
        for core in CORES
        for plan_seed in range(base, base + window_plans)
    ]
    for n, count in ((15, 3), (25, 2)) if smoke else COMMIT_SIZES:
        trial_config = CommitTrialConfig(
            votes=[1] * n, adversary_factory=lambda s: OnTimeAdversary(K=4, seed=s), K=4
        )
        trials += [
            (f"commit{n}.{core}", core, partial(run_commit_trial, trial_config, seed * 7919 + index))
            for core in CORES
            for index in range(count)
        ]  # fmt: skip
    result.labels = [label for label, _core, _call in trials]
    result.trial_s = [float("inf")] * len(trials)
    result.trial_cpu_s = [float("inf")] * len(trials)
    result.attempted += len(trials)
    first: list = []
    while result.repeats < (1 if smoke else MIN_REPEATS) or (
        not smoke and time.perf_counter() - started < seconds
    ):
        for index, (label, core, call) in enumerate(trials):
            set_default_sim_core(core)
            cpu_begin, begin = time.process_time(), time.perf_counter()
            value = call()
            elapsed, cpu = time.perf_counter() - begin, time.process_time() - cpu_begin
            if recorder is not None:
                recorder.fold()
            result.trial_s[index] = min(result.trial_s[index], elapsed)
            result.trial_cpu_s[index] = min(result.trial_cpu_s[index], cpu)
            if result.repeats == 0:
                first.append(value)
            elif value != first[index]:
                result.failures.append(f"{label} #{index}: repeat {result.repeats} differs")
        result.repeats += 1
    set_default_sim_core(None)

    # No timing is believed unless both cores agree and nothing is unsafe.
    by_label: dict[str, list] = {}
    for (label, _core, _call), value in zip(trials, first):
        by_label.setdefault(label, []).append(value)
    for kind in {label.split(".")[0] for label in by_label}:
        if by_label[f"{kind}.reference"] != by_label[f"{kind}.fast"]:
            result.failures.append(f"{kind}: the two cores disagree")
    result.first_window_digest = _digest(by_label["campaign.reference"])
    for record in by_label["campaign.reference"]:
        sim = record["tracks"]["sim"]
        result.campaign_trials += 1
        result.horizon_trials += sim["events"] >= config.max_steps
        unsafe = [v for v in sim["safety"]["violations"] if v["property"] != "nonblocking"]
        if unsafe:
            result.failures.append(f"campaign seed {record['seed']}: {unsafe}")
    for label, values in by_label.items():
        result.events += sum(
            v["tracks"]["sim"]["events"] if label.startswith("campaign") else v.events
            for v in values
        )
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e3
    return result


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--setup-probe":
        setup_probe(int(sys.argv[2]))
    else:
        raise SystemExit("simmix.py is run through run.py")
