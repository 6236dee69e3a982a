"""Execution-core selection for the simulation track.

One kernel executes the paper's model,
:class:`repro.sim.scheduler.Simulation`, the readable object-graph
kernel that the rest of the repo is specified against.  The core names
say whether a whole trial, whose result is read off flat state rather
than a trace, may run on the fused sweep of :mod:`repro.sim.fastcore`:

* ``fast`` (the default) — when :func:`repro.sim.fastcore.sweep_gate`
  admits the trial, and on ``Simulation`` otherwise;
* ``reference`` — never; every trial runs on ``Simulation``.

:func:`run_sim_trial` makes that choice, and it is the one way a whole
trial is run: commit Monte-Carlo trials, fault-campaign sim-track
trials, atlas cells, the experiments' agreement and baseline trials
(:func:`repro.experiments.common.run_programs`, E13) and the Theorem 14
and 17 runs.  The contract is results equal as Python objects;
``repro faults diff --cores`` and ``tests/sim/test_fastcore.py``
enforce it.  On ``Simulation`` a trial reads its record off the
kernel's flat state and builds the :class:`~repro.sim.trace.Run` only
when :meth:`SimTrial.metrics` asks, so a campaign trial builds no trace
on either core.

``Simulation`` is constructed outside this module only where the
caller needs the kernel itself, not a trial's result:

* :mod:`repro.core.api` — ``run_commit`` and ``run_agreement`` return
  the :class:`~repro.sim.trace.Run` (``run-commit`` prints its trace);
* :mod:`repro.lowerbound.valency` — the bivalence witness holds the two
  runs' outcomes, whose decisions and lateness are read off the ``Run``;
* :mod:`repro.lowerbound.replay` — it applies a schedule event by
  event;
* :mod:`repro.mc.explorer` — the model checker applies its own
  decisions to the kernel, one choice point at a time.

The reference kernel stays the specification: tests and ``faults diff
--cores`` select it by argument.  Selection is the explicit argument,
then the process-wide override (:func:`set_default_sim_core`, which
``--sim-core`` sets), then ``fast``.  Unknown values raise
:class:`~repro.errors.ConfigurationError` rather than being silently
coerced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.telemetry.registry import active_registry

#: Recognised core names, in documentation order.
CORE_NAMES = ("reference", "fast")

#: Process-wide override installed by ``--sim-core``; ``None`` = unset.
_DEFAULT_CORE: str | None = None


def _checked(core: str) -> str:
    if core not in CORE_NAMES:
        choices = "|".join(CORE_NAMES)
        raise ConfigurationError(
            f"sim core must be one of {choices}, got {core!r}"
        )
    return core


def set_default_sim_core(core: str | None) -> None:
    """Install (or clear, with ``None``) the process-wide core override.

    ``--sim-core`` routes through here so that every trial run for the
    rest of the process — including ones deep inside campaign and atlas
    plumbing — uses the requested core.
    """
    global _DEFAULT_CORE
    _DEFAULT_CORE = None if core is None else _checked(core)


def resolve_sim_core(core: str | None = None) -> str:
    """Resolve the core to use: explicit > override > ``fast``."""
    if core is not None:
        return _checked(core)
    return _DEFAULT_CORE or "fast"


@dataclass(frozen=True)
class SimTrial:
    """One trial's result, whichever kernel ran it.

    The four fields are the campaign record's
    (:func:`repro.faults.campaign.sim_track_record`).  :meth:`metrics`
    builds the :class:`~repro.analysis.metrics.RunMetrics` bundle on
    request, so a caller that reads none pays for no trace, lateness or
    round analysis.
    """

    terminated: bool
    decisions: list[int | None]
    crashed: set[int]
    events: int
    _metrics: Callable[[], Any] = field(repr=False, compare=False)

    def metrics(self):
        """The trial's :class:`~repro.analysis.metrics.RunMetrics`."""
        return self._metrics()


def run_sim_trial(
    programs,
    adversary,
    K: int,
    t: int,
    seed: int,
    max_steps: int,
    core: str | None = None,
) -> SimTrial:
    """Run one trial on the resolved core: the one sweep-or-reference choice.

    On the fast core a trial that :func:`repro.sim.fastcore.sweep_gate`
    admits runs on the fused sweep, which builds no trace; with a
    metrics registry active its counters are recorded here, from the
    sweep's flat state, as ``Simulation.execute`` records its own.
    Every other trial, and every trial on the reference core, runs on
    :class:`repro.sim.scheduler.Simulation` (with the adversary's
    ``attach`` hook, if it has one), whose four record fields are read
    off the kernel's flat state: the :class:`~repro.sim.trace.Run` is
    built only if :meth:`SimTrial.metrics` is called.  The result is
    equal either way.
    """
    if resolve_sim_core(core) == "fast":
        # Imported here so that a process that never selects the fast
        # core never loads it.
        from repro.sim.fastcore import sweep_gate, sweep_metrics, sweep_run

        if sweep_gate(adversary):
            started = time.perf_counter()
            swept = sweep_run(programs, adversary, K, t, seed, max_steps)
            processes, crashed, envelopes, _steps, events, terminated = swept
            registry = active_registry()
            if registry is not None:
                from repro.telemetry.summary import record_trial

                record_trial(
                    registry,
                    programs,
                    "terminated" if terminated else "horizon",
                    events,
                    crashed,
                    envelopes,
                    time.perf_counter() - started,
                )
            return SimTrial(
                terminated,
                [process.decision for process in processes],
                crashed,
                events,
                partial(sweep_metrics, programs, *swept, K),
            )
    from repro.sim.scheduler import Outcome, Simulation

    simulation = Simulation(
        programs=programs,
        adversary=adversary,
        K=K,
        t=t,
        seed=seed,
        max_steps=max_steps,
    )
    attach = getattr(adversary, "attach", None)
    if attach is not None:
        attach(simulation)
    outcome = simulation.execute()
    return SimTrial(
        outcome is Outcome.TERMINATED,
        [process.decision for process in simulation.processes],
        simulation.crashed_pids(),
        simulation.event_count,
        partial(_reference_metrics, simulation, programs),
    )


def _reference_metrics(simulation, programs):
    from repro.analysis.metrics import extract_metrics
    from repro.core.api import ProtocolOutcome

    return extract_metrics(
        ProtocolOutcome(result=simulation.result()), programs=programs
    )
