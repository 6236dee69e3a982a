"""Model-checker choice restriction for the timing-model zoo.

The explorer quantifies over adversary choices; a timing model restricts
which choices exist.  Rather than touching the search itself, a model
supplies a per-envelope **classifier** consulted at every prospective
step, mapping each pending envelope to one of five classes:

* ``NORMAL`` — the realistic semantics: delivering is free, withholding
  a guaranteed envelope costs one unit of delay budget and marks it
  late (bounded by ``max_late``);
* ``MUST_DELIVER`` — the model guarantees timely delivery (a sync link,
  a post-GST psync link, a random draw that delivered): the envelope is
  always in the delivered set and never withholdable;
* ``FREE`` — the model permits unbounded lateness (an async link):
  withholding costs no delay budget but still marks the envelope late,
  so ``max_late`` keeps the search finite-branching;
* ``DEFER`` — the model withholds the envelope at this step (a random
  draw that did not deliver): excluded from delivery, charged nothing,
  reconsidered at the recipient's next step;
* ``DROP`` — the model dropped the envelope permanently (its
  communication-closed round ended): never delivered, never charged.

The classifier is a pure function of ``(envelope, recipient, recipient
clock, config)`` — no hidden state — so
:func:`~repro.mc.choices.enumerate_choices` and the explorer's budget
recomputation (``_SubtreeExplorer.charge``) agree by construction, and
split/replay/resume all see the same restricted tree.  Sleep-set POR is
disabled under non-realistic models (enforced by ``MCConfig``): the
independence relation was proved for the realistic semantics only.

In mc there are no adversary cycles; under the canonical slowest-first
round-robin order the recipient's *clock* plays the cycle role, so
clock-based bounds (GST, round deadlines) are expressed in clock units.
"""

from __future__ import annotations

import random

from repro.engine.seeds import MODEL_TIMING_STREAM, derive, derive_keyed
from repro.models.policies import PSYNC, SYNC, link_class

#: Envelope classes (see the module docstring).
NORMAL = "normal"
MUST_DELIVER = "must-deliver"
FREE = "free"
DEFER = "defer"
DROP = "drop"


class ChoiceClassifier:
    """Base classifier: everything NORMAL (the realistic semantics)."""

    def classify(self, env, pid: int, clock: int) -> str:
        raise NotImplementedError


class GranularClassifier(ChoiceClassifier):
    """Granular synchrony: link classes restrict withholding.

    Sync links must deliver at the next step; psync links behave
    realistically before GST and synchronously after; async links may be
    withheld without spending delay budget (late marks still apply).
    """

    def __init__(
        self,
        seed: int,
        sync_fraction: float = 0.34,
        psync_fraction: float = 0.33,
        gst_clock: int = 6,
    ) -> None:
        self.seed = seed
        self.sync_fraction = sync_fraction
        self.psync_fraction = psync_fraction
        self.gst_clock = gst_clock

    def link_class(self, sender: int, recipient: int) -> str:
        return link_class(
            self.seed, sender, recipient, self.sync_fraction, self.psync_fraction
        )

    def classify(self, env, pid, clock):
        cls = self.link_class(env.sender, pid)
        if cls == SYNC:
            return MUST_DELIVER
        if cls == PSYNC:
            return NORMAL if env.send_clock < self.gst_clock else MUST_DELIVER
        return FREE


class RandomAsyncClassifier(ChoiceClassifier):
    """Random asynchrony: the schedule is drawn, not chosen.

    Each (envelope, step) pair hashes to one deterministic Bernoulli
    draw: delivered now (``MUST_DELIVER``) or deferred to the next step
    (``DEFER``).  The adversary keeps crash placement only — exactly the
    model's point.  Because the draw is keyed by the recipient's clock,
    a deferred envelope is redrawn at the next step and every envelope
    is delivered after finitely many steps with probability one.
    """

    def __init__(self, seed: int, delivery_rate: float = 0.45) -> None:
        self.seed = seed
        self.delivery_rate = delivery_rate

    def classify(self, env, pid, clock):
        draw = random.Random(
            derive_keyed(
                self.seed, 0, env.sender, env.send_clock, pid, clock
            )
        ).random()
        return MUST_DELIVER if draw < self.delivery_rate else DEFER


class RoundClosedClassifier(ChoiceClassifier):
    """Communication-closed rounds in clock units.

    An envelope sent at clock ``c`` lives in round ``c // round_clocks``
    and behaves realistically while the recipient's clock is inside that
    round; once the round boundary passes it is dropped permanently.
    """

    def __init__(self, round_clocks: int) -> None:
        self.round_clocks = round_clocks

    def classify(self, env, pid, clock):
        deadline = (
            env.send_clock // self.round_clocks + 1
        ) * self.round_clocks
        return DROP if clock >= deadline else NORMAL


def classifier_for(config) -> ChoiceClassifier | None:
    """The classifier of an ``MCConfig``'s model (``None`` = realistic).

    Built fresh per call — classifiers are pure in ``config``, so every
    consumer (enumeration, charging, splitting, replay) sees identical
    classifications.
    """
    from repro.models.base import resolve_model

    return resolve_model(config.model).mc_classifier(config)


def granular_classifier(config) -> GranularClassifier:
    return GranularClassifier(
        seed=derive(config.seed, MODEL_TIMING_STREAM),
        gst_clock=max(2, config.max_cycles // 2),
    )


def random_async_classifier(config) -> RandomAsyncClassifier:
    return RandomAsyncClassifier(
        seed=derive(config.seed, MODEL_TIMING_STREAM)
    )


def round_closed_classifier(config) -> RoundClosedClassifier:
    return RoundClosedClassifier(round_clocks=max(2, 3 * config.K))
