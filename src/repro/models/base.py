"""The timing-model zoo: pluggable synchrony assumptions, one registry.

The paper's "realistic" fault model is one point in a space the related
work has since mapped out: *granular synchrony* mixes synchronous,
partially-synchronous, and asynchronous links in one network (arXiv
2408.12853); the *random asynchronous model* replaces the worst-case
scheduler with a seeded random one (arXiv 2502.09116); and
communication-closed rounds drop any message not delivered in the round
it was sent (arXiv 1804.07078).  This module gives each of those a
first-class object — a :class:`TimingModel` — that every existing
harness can select by name:

* the **sim track** compiles a :class:`~repro.faults.plan.FaultPlan`
  through the model (``compile_plan``), keeping the plan's crashes and
  partitions and replacing its *link timing* with the model's;
* standalone Monte-Carlo trials and experiments re-time any
  :class:`~repro.adversary.base.CycleAdversary` (``wrap_adversary``);
* the model checker restricts choice enumeration through a per-envelope
  classifier (``mc_classifier``, see :mod:`repro.models.mcfilter`);
* the **service track**, where meaningful, gets a FaultPlan analogue
  (``service_plan`` — granular synchrony maps onto per-link delay
  overrides on the in-memory bus; the other models have no bus
  counterpart).

The ``realistic`` entry is the paper's model, extracted as the
reference instance: selecting it routes through exactly the historical
code paths (``compile_to_adversary``, untouched mc enumeration), so
default-model campaign and mc reports stay byte-identical to pre-zoo
output.  Model randomness is seeded from dedicated streams
(:data:`~repro.engine.seeds.MODEL_TIMING_STREAM`,
:data:`~repro.engine.seeds.MODEL_LINK_STREAM`) drawn strictly after —
never from — the historical campaign streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.adversary.base import CycleAdversary
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.adversary.base import Adversary
    from repro.faults.plan import FaultPlan


@dataclass(frozen=True)
class Knob:
    """One documented tuning parameter of a timing model."""

    name: str
    default: Any
    help: str


class TimingModel:
    """One synchrony assumption, pluggable into every harness.

    Subclasses fill in the class attributes and override the hooks they
    support; the base implementations raise for unsupported tracks so a
    misrouted model fails loudly with a usage error.

    Attributes:
        name: registry key, as carried in configs and reports.
        summary: one-line description for ``repro models list``.
        source: the work the model comes from (paper / arXiv id).
        tracks: campaign tracks the model can execute on.
        mc_supported: whether the model restricts mc choice enumeration.
        preserves_eventual_delivery: whether every message is still
            delivered after a finite delay.  Campaigns AND this into a
            case's termination obligation: a model that genuinely drops
            messages (``round-closed``) voids the paper's nonblocking
            guarantee, so nontermination under it is degradation data,
            not a liveness violation.
        knobs: documented tuning parameters with defaults.
    """

    name: str = ""
    summary: str = ""
    source: str = ""
    tracks: tuple[str, ...] = ("sim",)
    mc_supported: bool = False
    preserves_eventual_delivery: bool = True
    knobs: tuple[Knob, ...] = ()

    def compile_plan(
        self, plan: FaultPlan, K: int, seed: int
    ) -> CycleAdversary:
        """Compile a FaultPlan to a sim-track adversary under this model.

        ``seed`` feeds the model's own delivery randomness; it is derived
        from :data:`~repro.engine.seeds.MODEL_TIMING_STREAM` by callers,
        never from the plan's historical stream.
        """
        raise NotImplementedError

    def wrap_adversary(
        self, adversary: "Adversary", K: int, seed: int
    ) -> "Adversary":
        """Re-time an existing adversary under this model.

        Only cycle-based adversaries can be re-timed: the model owns
        delivery timing, so the adversary's delivery policy is replaced
        wholesale while its crash plan and round-robin stepping are
        kept.
        """
        if not isinstance(adversary, CycleAdversary):
            raise ConfigurationError(
                f"timing model {self.name!r} can only re-time cycle-based "
                f"adversaries; got {type(adversary).__name__} — run it "
                "under --model realistic"
            )
        adversary.delivery = self._policy(K=K, seed=seed)
        return adversary

    def _policy(self, K: int, seed: int):
        """The model's delivery policy (used by :meth:`wrap_adversary`)."""
        raise NotImplementedError

    def service_plan(self, plan: FaultPlan, K: int) -> FaultPlan:
        """The plan's service-track analogue under this model."""
        raise ConfigurationError(
            f"timing model {self.name!r} has no service-track analogue; "
            "run it on the sim track"
        )

    def mc_classifier(self, config):
        """Per-envelope choice classifier for the model checker.

        ``None`` (the default) means unrestricted enumeration — the
        realistic model's semantics.  See :mod:`repro.models.mcfilter`.
        """
        return None

    def describe(self) -> dict[str, Any]:
        """Machine-readable registry row (``repro models list --json``)."""
        return {
            "name": self.name,
            "summary": self.summary,
            "source": self.source,
            "tracks": list(self.tracks),
            "mc_supported": self.mc_supported,
            "preserves_eventual_delivery": self.preserves_eventual_delivery,
            "knobs": [
                {"name": k.name, "default": k.default, "help": k.help}
                for k in self.knobs
            ],
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class RealisticModel(TimingModel):
    """The paper's model, extracted as the zoo's reference instance.

    Selecting it is the identity: plans compile through the historical
    :func:`~repro.faults.sim_compile.compile_to_adversary`, adversaries
    pass through unwrapped, and the model checker enumerates choices
    unrestricted — so every default-model report stays byte-identical
    to pre-zoo output.
    """

    name = "realistic"
    summary = (
        "the paper's almost-asynchronous model: guaranteed eventual "
        "delivery, K-cycle on-time bound, fail-stop crashes"
    )
    source = "Transaction Commit in a Realistic Fault Model (PODC 1986)"
    tracks = ("sim", "service")
    mc_supported = True
    preserves_eventual_delivery = True
    knobs = ()

    def compile_plan(
        self, plan: FaultPlan, K: int, seed: int
    ) -> CycleAdversary:
        # Imported lazily: repro.faults.campaign imports this package,
        # so a module-level import here would close a cycle.
        from repro.faults.sim_compile import compile_to_adversary

        # ``seed`` is deliberately unused: the historical compiler seeds
        # the adversary from the plan itself, and byte-identity of
        # default-model reports depends on that.
        return compile_to_adversary(plan, K=K)

    def wrap_adversary(self, adversary, K, seed):
        return adversary

    def service_plan(self, plan: FaultPlan, K: int) -> FaultPlan:
        return plan


#: The registry, keyed by model name.  Populated here and by
#: :mod:`repro.models.zoo` at import time.
MODELS: dict[str, TimingModel] = {}

#: The default model everywhere a model knob is absent.
DEFAULT_MODEL = "realistic"


def register(model: TimingModel) -> TimingModel:
    """Add one model to the registry (idempotent by name)."""
    if not model.name:
        raise ConfigurationError("timing models must carry a name")
    MODELS[model.name] = model
    return model


def resolve_model(name: str) -> TimingModel:
    """Look up a model by name; raises a usage error on unknown names."""
    try:
        return MODELS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown timing model {name!r}; choose from "
            f"{sorted(MODELS)}"
        ) from None


def model_names() -> tuple[str, ...]:
    """Registered model names, default first then alphabetical."""
    rest = sorted(n for n in MODELS if n != DEFAULT_MODEL)
    return (DEFAULT_MODEL, *rest)


register(RealisticModel())
