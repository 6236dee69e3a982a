"""The protocol degradation atlas: every protocol under every model.

The paper proves Protocol 2 correct *in* the realistic timing model;
the natural follow-up question is how the guarantees transfer when the
timing assumptions move.  The atlas answers it empirically: it fans a
protocol battery — the paper's randomized agreement (Protocol 1) and
commit (Protocol 2) plus the classic 2PC and 3PC baselines — across the
timing-model zoo (:mod:`repro.models`) and measures, per (protocol,
model) cell, termination rate, expected rounds, decision latency, the
decision mix, and machine-checked safety.

Every cell sweeps the same seeded FaultPlans and vote vectors (drawn
with the campaign's own streams), so columns are comparable: a cell
differs from its neighbour only in the timing model re-timing the same
faults.  Trials fan out through :mod:`repro.engine`, so reports are
byte-identical at any worker count.

The headline acceptance gate — Protocol 2 must show **zero safety
violations in every model** — is exposed as
:func:`reference_protocol_safe`; degradation is expected to show up as
lost *liveness* (termination rate), never lost safety.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any

from repro.core.api import shared_coins
from repro.core.agreement import AgreementProgram
from repro.engine.executor import run_trials
from repro.engine.seeds import (
    CAMPAIGN_SHAPE_STREAM,
    CAMPAIGN_VOTE_STREAM,
    MODEL_TIMING_STREAM,
    coin_seed,
    derive,
)
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.faults.safety import SafetyMonitor
from repro.faults.variants import make_programs, resolve_variant
from repro.models.base import model_names, resolve_model
from repro.sim.coreselect import run_sim_trial

#: Schema tag of the atlas report document.
ATLAS_SCHEMA = "repro.model-atlas v1"

#: The protocol battery: name -> campaign program variant, with
#: ``protocol1`` special-cased to the standalone agreement subprotocol.
ATLAS_PROTOCOLS = ("protocol1", "protocol2", "twopc", "threepc")

_VARIANT_OF = {
    "protocol2": "commit",
    "twopc": "twopc",
    "threepc": "threepc",
}


@dataclass(frozen=True)
class AtlasConfig:
    """One degradation-atlas sweep, fully pinned.

    Attributes:
        protocols: protocol battery (``protocol1``, ``protocol2``, or
            any :data:`repro.faults.variants.PROGRAM_VARIANTS` name).
        models: timing models to sweep, from the zoo registry.
        n: processors per trial.
        t: fault budget; ``None`` means the optimum ``(n - 1) // 2``.
        K: the protocols' on-time bound.
        trials: seeded trials per (protocol, model) cell.
        base_seed: seed of trial 0; trial ``i`` uses ``base_seed + i``.
        max_steps: simulator horizon per trial.
        over_budget_fraction: fraction of trials drawing a plan with
            more than ``t`` crashes (the graceful-degradation regime).
        all_commit_fraction: fraction of trials voting all-COMMIT.
    """

    protocols: tuple[str, ...] = ATLAS_PROTOCOLS
    models: tuple[str, ...] = ()
    n: int = 5
    t: int | None = None
    K: int = 4
    trials: int = 25
    base_seed: int = 0
    max_steps: int = 6_000
    over_budget_fraction: float = 0.25
    all_commit_fraction: float = 0.6

    def __post_init__(self) -> None:
        if not self.protocols:
            raise ConfigurationError("need at least one protocol")
        for protocol in self.protocols:
            if protocol != "protocol1":
                resolve_variant(_VARIANT_OF.get(protocol, protocol))
        models = self.models or tuple(model_names())
        if not self.models:
            object.__setattr__(self, "models", models)
        for model in models:
            resolve_model(model)
        if self.n < 2:
            raise ConfigurationError(f"the atlas needs n >= 2, got {self.n}")
        if self.trials < 1:
            raise ConfigurationError(
                f"need at least one trial per cell, got {self.trials}"
            )
        if not 0.0 <= self.over_budget_fraction <= 1.0:
            raise ConfigurationError(
                f"over_budget_fraction out of [0, 1]: "
                f"{self.over_budget_fraction}"
            )
        if not 0.0 <= self.all_commit_fraction <= 1.0:
            raise ConfigurationError(
                f"all_commit_fraction out of [0, 1]: "
                f"{self.all_commit_fraction}"
            )

    @property
    def resolved_t(self) -> int:
        return self.t if self.t is not None else (self.n - 1) // 2

    def to_dict(self) -> dict[str, Any]:
        return {
            "protocols": list(self.protocols),
            "models": list(self.models),
            "n": self.n,
            "t": self.resolved_t,
            "K": self.K,
            "trials": self.trials,
            "base_seed": self.base_seed,
            "max_steps": self.max_steps,
            "over_budget_fraction": self.over_budget_fraction,
            "all_commit_fraction": self.all_commit_fraction,
        }


def _draw_votes(config: AtlasConfig, seed: int) -> list[int]:
    rng = random.Random(derive(seed, CAMPAIGN_VOTE_STREAM))
    if rng.random() < config.all_commit_fraction:
        return [1] * config.n
    return [rng.randint(0, 1) for _ in range(config.n)]


def _draw_plan(config: AtlasConfig, seed: int) -> FaultPlan:
    shape = random.Random(derive(seed, CAMPAIGN_SHAPE_STREAM))
    over_budget = (
        config.resolved_t < config.n - 1
        and shape.random() < config.over_budget_fraction
    )
    return FaultPlan.random(
        n=config.n,
        t=config.resolved_t,
        seed=seed,
        K=config.K,
        over_budget=over_budget,
    )


def _programs_for(
    config: AtlasConfig, protocol: str, votes: list[int], seed: int
):
    if protocol == "protocol1":
        coins = shared_coins(config.n, seed=coin_seed(seed))
        return [
            AgreementProgram(
                pid=pid,
                n=config.n,
                t=config.resolved_t,
                initial_value=vote,
                coins=coins,
            )
            for pid, vote in enumerate(votes)
        ]
    variant = _VARIANT_OF.get(protocol, protocol)
    return make_programs(
        variant, config.n, config.resolved_t, votes, config.K
    )


def _atlas_trial(
    config_json: str, protocol: str, model_name: str, seed: int
) -> dict[str, Any]:
    """One (protocol, model, seed) cell sample.

    Module-level and JSON-parameterised so cells pickle cleanly into
    the engine's worker pool.
    """
    doc = json.loads(config_json)
    doc["protocols"] = tuple(doc["protocols"])
    doc["models"] = tuple(doc["models"])
    config = AtlasConfig(**doc)
    votes = _draw_votes(config, seed)
    plan = _draw_plan(config, seed)
    adversary = resolve_model(model_name).compile_plan(
        plan, K=config.K, seed=derive(seed, MODEL_TIMING_STREAM)
    )
    trial = run_sim_trial(
        _programs_for(config, protocol, votes, seed),
        adversary,
        config.K,
        config.resolved_t,
        seed,
        config.max_steps,
    )
    monitor = SafetyMonitor(
        n=config.n, t=config.resolved_t, votes=list(votes)
    )
    report = monitor.check(
        decisions=dict(enumerate(trial.decisions)),
        crashed=trial.crashed,
        terminated=trial.terminated,
        expect_termination=False,
        benign=False,
    )
    violations = [v.to_dict() for v in report.violations]
    if protocol == "protocol1":
        # Protocol 1 decides on *values*, not commit verdicts:
        # abort/commit validity are commit-specific and do not apply.
        violations = [
            v for v in violations if v["property"] == "agreement"
        ]
    metrics = trial.metrics()
    return {
        "terminated": trial.terminated,
        "decisions": trial.decisions,
        "crashed": sorted(trial.crashed),
        "within_budget": plan.within_budget(config.resolved_t),
        "rounds": metrics.rounds,
        "decision_ticks": metrics.ticks,
        "violations": violations,
    }


def _cell_summary(records: list[dict[str, Any]]) -> dict[str, Any]:
    terminated = sum(1 for r in records if r["terminated"])
    rounds = [r["rounds"] for r in records if r["rounds"] is not None]
    ticks = [
        r["decision_ticks"]
        for r in records
        if r["decision_ticks"] is not None
    ]
    decisions = {"commit": 0, "abort": 0, "undecided": 0, "mixed": 0}
    safety = 0
    for record in records:
        bits = {b for b in record["decisions"] if b is not None}
        if not bits:
            decisions["undecided"] += 1
        elif bits == {1}:
            decisions["commit"] += 1
        elif bits == {0}:
            decisions["abort"] += 1
        else:
            decisions["mixed"] += 1
        safety += len(record["violations"])
    return {
        "trials": len(records),
        "termination_rate": terminated / len(records),
        "mean_rounds": sum(rounds) / len(rounds) if rounds else None,
        "mean_decision_ticks": (
            sum(ticks) / len(ticks) if ticks else None
        ),
        "decisions": decisions,
        "safety_violations": safety,
    }


def run_atlas(
    config: AtlasConfig, workers: int | None = None
) -> dict[str, Any]:
    """Sweep the full (protocol, model) grid and build the report.

    Deterministic in ``config`` alone: every cell derives its plans and
    votes from the same seed range, and the engine reassembles trial
    records in seed order regardless of ``workers``.
    """
    config_json = json.dumps(config.to_dict(), sort_keys=True)
    cells: dict[str, dict[str, Any]] = {}
    for protocol in config.protocols:
        for model in config.models:
            records = run_trials(
                partial(_atlas_trial, config_json, protocol, model),
                trials=config.trials,
                base_seed=config.base_seed,
                workers=workers,
            )
            summary = _cell_summary(records)
            summary["violations"] = [
                dict(v, seed=config.base_seed + i)
                for i, r in enumerate(records)
                for v in r["violations"]
            ]
            cells[f"{protocol}/{model}"] = summary
    return {
        "schema": ATLAS_SCHEMA,
        "config": config.to_dict(),
        "cells": cells,
    }


def reference_protocol_safe(report: dict[str, Any]) -> bool:
    """The acceptance gate: Protocol 2 safe in *every* model."""
    return all(
        cell["safety_violations"] == 0
        for name, cell in report["cells"].items()
        if name.startswith("protocol2/")
    )


def render_atlas(report: dict[str, Any]) -> str:
    """A fixed-width degradation table, one row per protocol cell."""
    lines = [
        "protocol degradation atlas "
        f"({report['config']['trials']} trials/cell, "
        f"n={report['config']['n']}, t={report['config']['t']}, "
        f"K={report['config']['K']})",
        f"  {'cell':<28} {'term%':>6} {'rounds':>7} {'ticks':>7} "
        f"{'commit':>7} {'abort':>6} {'undec':>6} {'safety':>7}",
    ]
    for name, cell in report["cells"].items():
        rounds = cell["mean_rounds"]
        ticks = cell["mean_decision_ticks"]
        rounds_str = "-" if rounds is None else f"{rounds:.1f}"
        ticks_str = "-" if ticks is None else f"{ticks:.1f}"
        lines.append(
            f"  {name:<28} {cell['termination_rate'] * 100:>5.0f}% "
            f"{rounds_str:>7} "
            f"{ticks_str:>7} "
            f"{cell['decisions']['commit']:>7} "
            f"{cell['decisions']['abort']:>6} "
            f"{cell['decisions']['undecided']:>6} "
            f"{cell['safety_violations']:>7}"
        )
    verdict = (
        "SAFE" if reference_protocol_safe(report) else "SAFETY VIOLATED"
    )
    lines.append(f"  reference protocol (protocol2) verdict: {verdict}")
    return "\n".join(lines)


def write_atlas_report(report: dict[str, Any], path: str | Path) -> Path:
    """Serialize a report deterministically (sorted keys, one line)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(report, sort_keys=True) + "\n")
    return target
