"""Execution-core selection for the simulation track.

One kernel executes the paper's model,
:class:`repro.sim.scheduler.Simulation`, the readable object-graph
kernel that the rest of the repo is specified against.  The core names
say whether a whole trial, whose result is read off flat state rather
than a trace, may run on the fused sweep of :mod:`repro.sim.fastcore`:

* ``fast`` (the default) — on the fused sweep when
  :func:`repro.sim.fastcore.sweep_gate` admits the trial's adversary,
  and on ``Simulation`` otherwise;
* ``reference`` — never; every trial runs on ``Simulation``.

:func:`run_sim_trial` makes that choice, and it is the one way a whole
trial is run: commit Monte-Carlo trials, fault-campaign sim-track
trials, atlas cells, the experiments' agreement and baseline trials
(:func:`repro.experiments.common.run_programs`, E13) and the Theorem 14
and 17 runs.  The contract is results equal as Python objects;
``repro faults diff --cores`` and ``tests/sim/test_fastcore.py``
enforce it.  Either kernel hands over the trial's flat
:class:`~repro.sim.trace.TrialRecord`, and its metrics, counters and
spans are read off that record, so a whole trial builds no
:class:`~repro.sim.trace.Run` on either core.

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
from typing import Any

from repro.errors import ConfigurationError

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

    The first four fields are the campaign record's
    (:func:`repro.faults.campaign.sim_track_record`); ``record`` is the
    trial's :class:`~repro.sim.trace.TrialRecord`.  :meth:`metrics`
    builds the :class:`~repro.analysis.metrics.RunMetrics` bundle from
    that record on request, so a caller that reads none pays for no
    lateness or round analysis.
    """

    terminated: bool
    decisions: list[int | None]
    crashed: set[int]
    events: int
    _programs: Any = field(repr=False, compare=False)
    record: Any = field(repr=False, compare=False)

    @classmethod
    def of(cls, programs, record) -> "SimTrial":
        """The trial of a finished :class:`~repro.sim.trace.TrialRecord`."""
        return cls(
            record.terminated,
            list(record.decisions),
            set(record.crashes),
            record.events,
            programs,
            record,
        )

    def metrics(self):
        """The trial's :class:`~repro.analysis.metrics.RunMetrics`."""
        from repro.analysis.metrics import trial_metrics

        return trial_metrics(self._programs, self.record)


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

    On the fast core a trial whose adversary
    :func:`repro.sim.fastcore.sweep_gate` admits runs on the fused
    sweep, and its counters and spans are recorded here from the sweep's
    record (:func:`repro.sim.scheduler.observe_trial`), as
    ``Simulation.execute`` records its own.  Every other trial, and
    every trial on the reference core, runs on
    :class:`repro.sim.scheduler.Simulation` (with the adversary's
    ``attach`` hook, if it has one).  The result is equal either way,
    and neither kernel builds a :class:`~repro.sim.trace.Run`.
    """
    if resolve_sim_core(core) == "fast":
        # Imported here so that a process that never selects the fast
        # core never loads it.
        from repro.sim.fastcore import sweep_gate, sweep_run

        if sweep_gate(adversary):
            from repro.sim.scheduler import observe_trial

            started = time.perf_counter()
            record = sweep_run(programs, adversary, K, t, seed, max_steps)
            observe_trial(programs, record, time.perf_counter() - started)
            return SimTrial.of(programs, record)
    from repro.sim.scheduler import Simulation

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
    simulation.execute()
    return SimTrial.of(programs, simulation.trial_record())
