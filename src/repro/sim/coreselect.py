"""Execution-core selection for the simulation track.

Two cores execute the paper's model:

* ``reference`` — :class:`repro.sim.scheduler.Simulation`, the readable
  object-graph kernel that the rest of the repo is specified against;
* ``fast`` — :class:`repro.sim.fastcore.FastSimulation`, a drop-in
  subclass with a slimmed per-event path, plus a fused sweep that runs
  every trial whose result is read off flat state rather than a trace
  (commit Monte-Carlo trials and fault-campaign sim-track trials) when
  :func:`repro.sim.fastcore.sweep_gate` admits it.

The contract is byte-identical ``Run`` traces, decisions, and pattern
histories; ``repro faults diff --cores`` and the golden-trace tests in
``tests/sim/test_fastcore.py`` enforce it.

Selection mirrors the ``REPRO_WORKERS`` treatment exactly: explicit
argument beats the process-wide override (set by ``--sim-core``), which
beats the ``REPRO_SIM_CORE`` environment variable, which beats the
default of ``reference``.  Unknown values raise
:class:`~repro.errors.ConfigurationError` naming the variable rather
than being silently coerced.
"""

from __future__ import annotations

import functools
import os

from repro.errors import ConfigurationError
from repro.telemetry.log import get_logger

_log = get_logger("sim")

#: Recognised core names, in documentation order.
CORE_NAMES = ("reference", "fast")

#: Process-wide override installed by ``--sim-core``; ``None`` = unset.
_DEFAULT_CORE: str | None = None


def core_from_env(name: str = "REPRO_SIM_CORE", default: str = "reference") -> str:
    """Read a core name from the environment, strictly.

    An unset or blank variable yields ``default``.  Anything else must be
    one of :data:`CORE_NAMES` (case-insensitive, surrounding whitespace
    ignored); unknown values raise :class:`ConfigurationError` naming the
    variable, mirroring the ``REPRO_WORKERS`` treatment.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    core = raw.strip().lower()
    if core not in CORE_NAMES:
        choices = "|".join(CORE_NAMES)
        raise ConfigurationError(
            f"{name} must be one of {choices}, got {raw!r}"
        )
    return core


def numpy_allowed(name: str = "REPRO_SIM_NUMPY") -> bool:
    """Whether the fast core and batched tapes may use numpy.

    Unset or blank means yes (numpy is an optional accelerator, never a
    requirement — every consumer keeps a pure-Python fallback).  The CI
    ``sim-core-bench`` job sets ``REPRO_SIM_NUMPY=0`` to benchmark the
    fallbacks on hosts where numpy is installed.  Unknown values raise,
    mirroring the other ``REPRO_*`` knobs.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return True
    value = raw.strip().lower()
    if value in ("1", "true", "on", "yes"):
        return True
    if value in ("0", "false", "off", "no"):
        return False
    raise ConfigurationError(
        f"{name} must be a boolean flag (0/1/true/false/on/off), got {raw!r}"
    )


def numpy_if_allowed():
    """The numpy module, or ``None`` when it is switched off or absent.

    numpy is imported here, at the first call that
    :func:`numpy_allowed` lets through, and not when :mod:`repro.sim`
    is imported: a process that never reaches a vectorised path (a
    service node, a short trial) never pays for it.  Only
    ``ImportError`` reads as "absent", and it is logged once with its
    reason; anything else a damaged install raises propagates.
    """
    return _import_numpy() if numpy_allowed() else None


@functools.cache
def _import_numpy():
    """The one ``import numpy`` of this process: the module or ``None``."""
    try:
        import numpy
    except ImportError as exc:
        _log.info("numpy unavailable (%s): pure-Python paths in use", exc)
        return None
    return numpy


def set_default_sim_core(core: str | None) -> None:
    """Install (or clear, with ``None``) the process-wide core override.

    ``--sim-core`` routes through here so that every simulation built for
    the rest of the process — including ones constructed deep inside
    campaign and model-checker plumbing — uses the requested core.
    """
    global _DEFAULT_CORE
    if core is not None and core not in CORE_NAMES:
        choices = "|".join(CORE_NAMES)
        raise ConfigurationError(
            f"sim core must be one of {choices}, got {core!r}"
        )
    _DEFAULT_CORE = core


def resolve_sim_core(core: str | None = None) -> str:
    """Resolve the core to use: explicit > override > env > reference."""
    if core is not None:
        if core not in CORE_NAMES:
            choices = "|".join(CORE_NAMES)
            raise ConfigurationError(
                f"sim core must be one of {choices}, got {core!r}"
            )
        return core
    if _DEFAULT_CORE is not None:
        return _DEFAULT_CORE
    return core_from_env()


def simulation_class(core: str | None = None):
    """Return the ``Simulation`` class implementing the resolved core."""
    resolved = resolve_sim_core(core)
    if resolved == "fast":
        from repro.sim.fastcore import FastSimulation

        return FastSimulation
    from repro.sim.scheduler import Simulation

    return Simulation


def make_simulation(*args, core: str | None = None, **kwargs):
    """Construct a simulation on the resolved core (convenience factory)."""
    return simulation_class(core)(*args, **kwargs)
