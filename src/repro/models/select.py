"""Ambient timing-model selection.

Standalone trial paths (``run_commit_trial``, the experiment runners'
``run_programs``) take no model argument — they pick up the ambient
model resolved here, in precedence order:

1. an explicit name passed by the caller;
2. the process-wide default installed by ``--model``
   (:func:`set_default_timing_model`);
3. the ``REPRO_TIMING_MODEL`` environment variable, a read-only default;
4. ``"realistic"``.

:mod:`repro.engine` sends the name resolved in the parent to its worker
processes with every chunk, so workers never depend on the environment.

Campaign and mc paths do *not* use the ambient default: their model is
an explicit config field, serialized in reports, so replays are
self-contained.
"""

from __future__ import annotations

import os

from repro.engine.seeds import MODEL_TIMING_STREAM, derive
from repro.models.base import DEFAULT_MODEL, TimingModel, resolve_model

#: Environment variable naming the default model when nothing else does.
ENV_VAR = "REPRO_TIMING_MODEL"

_default: str | None = None


def set_default_timing_model(name: str | None) -> None:
    """Install (or clear, with ``None``) the process-wide default model."""
    global _default
    if name is not None:
        resolve_model(name)  # fail fast on unknown names
    _default = name


def resolve_timing_model(explicit: str | None = None) -> str:
    """The active model name under the documented precedence order."""
    name = explicit or _default or os.environ.get(ENV_VAR) or DEFAULT_MODEL
    resolve_model(name)
    return name


def active_timing_model(explicit: str | None = None) -> TimingModel:
    """The active :class:`TimingModel` instance."""
    return resolve_model(resolve_timing_model(explicit))


def apply_active_model(adversary, K: int, seed: int):
    """Re-time ``adversary`` under the ambient model.

    The realistic default is the identity — zero overhead and
    byte-identical behaviour on every historical path.  Other models
    replace the adversary's delivery policy, seeding the model's own
    randomness from :data:`~repro.engine.seeds.MODEL_TIMING_STREAM` —
    strictly after (never inside) the historical per-trial streams.
    """
    model = active_timing_model()
    if model.name == DEFAULT_MODEL:
        return adversary
    return model.wrap_adversary(
        adversary, K=K, seed=derive(seed, MODEL_TIMING_STREAM)
    )
