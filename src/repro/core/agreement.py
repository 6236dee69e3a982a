"""Protocol 1 — the randomized asynchronous agreement subroutine.

A line-for-line implementation of the paper's Protocol 1 (a modification
of Ben-Or's protocol in which all processors share an identical coin
list).  For processor ``p`` at stage ``s``:

1. broadcast ``(1, s, xp)``
2. wait to receive ``n - t`` messages of the form ``(1, s, *)``
3. if more than ``n/2`` messages are ``(1, s, v)`` for some ``v``
4.     then broadcast ``(2, s, v)``
5.     else broadcast ``(2, s, ⊥)``
6. wait to receive ``n - t`` messages of the form ``(2, s, *)``
7. if there are no ``(2, s, v)`` messages for any ``v``
8.     then ``xp <- coins[s]`` if ``s <= |coins|``, else ``flip(1)``
9. if there is a ``(2, s, v)`` message for some ``v``
10.    then ``xp <- v``
11. if there are at least ``n - t`` messages of the form ``(2, s, v)``
12.    then if already decided
13.        then return ``v``
14.        else decide ``v``

The protocol body is :func:`agreement_script`, a generator usable both
standalone (wrapped in :class:`AgreementProgram`) and as the subroutine
call at line 12 of Protocol 2 (``yield from`` inside the commit program).
Halting behaviour after the decide/return pair is configurable; see
:mod:`repro.core.halting`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.coin_providers import CoinProvider

from repro.core.coins import CoinList
from repro.core.halting import ECHO_LOOKAHEAD_STAGES, HaltingMode
from repro.core.messages import BOTTOM, DecidedMessage, StageMessage
from repro.errors import ConfigurationError, ProtocolViolation
from repro.sim.message import Payload
from repro.sim.process import Program
from repro.sim.waits import MessageCount, WaitAny, WaitCondition


@dataclass
class AgreementStats:
    """Telemetry one agreement execution leaves behind.

    Attributes:
        stages_started: how many stages the processor entered.
        decision_stage: stage at which it first decided (None if never).
        decided_value: the decided value (None if never decided).
        shared_coin_stages: stages resolved with the shared coin list.
        private_coin_stages: stages resolved with a private ``flip(1)``.
        adopted_from_broadcast: whether the decision was adopted from a
            ``DECIDED`` announcement rather than reached at line 14.
    """

    stages_started: int = 0
    decision_stage: int | None = None
    decided_value: int | None = None
    shared_coin_stages: int = 0
    private_coin_stages: int = 0
    adopted_from_broadcast: bool = False


def program_stats(programs: Iterable[Any]) -> Iterator[tuple[Any, Any]]:
    """``(stats, agreement)`` of every program that keeps ``stats``.

    ``agreement`` is ``stats.agreement`` when the stats have that field
    (a :class:`~repro.core.commit.CommitStats`, whose field is ``None``
    until Protocol 1 starts), else the stats object itself: an
    :class:`AgreementStats`, or a baseline protocol's own stats, which
    carry none of the agreement fields.  The one walk over program
    stats, for metric bundles and telemetry alike.
    """
    for program in programs:
        stats = getattr(program, "stats", None)
        if stats is not None:
            yield stats, getattr(stats, "agreement", stats)


def _is_stage(phase: int, stage: int):
    """Matcher for payloads of the form ``(phase, stage, *)``."""

    def matcher(payload: Payload) -> bool:
        return (
            isinstance(payload, StageMessage)
            and payload.phase == phase
            and payload.stage == stage
        )

    return matcher


def _is_decided(payload: Payload) -> bool:
    return isinstance(payload, DecidedMessage)


def _validate_resilience(n: int, t: int, allow_sub_resilience: bool) -> None:
    if not 0 <= t < n:
        raise ConfigurationError(f"t must satisfy 0 <= t < n, got t={t}, n={n}")
    if n <= 2 * t and not allow_sub_resilience:
        raise ConfigurationError(
            f"Protocol 1 requires n > 2t (got n={n}, t={t}); Theorem 14 "
            f"proves no protocol works otherwise.  Pass "
            f"allow_sub_resilience=True only for lower-bound experiments."
        )


def agreement_script(
    program: Program,
    t: int,
    initial_value: int,
    coins: CoinList,
    halting: HaltingMode = HaltingMode.DECIDE_BROADCAST,
    record_decision: bool = True,
    stats: AgreementStats | None = None,
    allow_sub_resilience: bool = False,
    coin_provider: "CoinProvider | None" = None,
) -> Generator[WaitCondition, None, int]:
    """The body of Protocol 1, as a protocol-program generator.

    Args:
        program: the hosting program (supplies broadcast/flip/board/...).
        t: fault tolerance parameter; requires ``n > 2t`` unless
            ``allow_sub_resilience``.
        initial_value: the processor's input ``xp`` (0 or 1).
        coins: the shared coin list (empty list degenerates to Ben-Or).
        halting: behaviour between decide and return (see
            :mod:`repro.core.halting`).
        record_decision: whether reaching line 14 records a decision on
            the hosting process.  Protocol 2 passes ``False`` because its
            own decide states are lines 14-15 of Protocol 2.
        stats: where the execution's record goes (read after the run by
            metric extraction and telemetry); a fresh one is created if
            omitted.
        coin_provider: where lines 7-8's coin comes from; defaults to the
            paper's shared-list-with-private-fallback built from
            ``coins``.  See :mod:`repro.core.coin_providers` for the
            Ben-Or / Rabin / CMS-style alternatives.

    Returns:
        The agreed value (via ``StopIteration.value`` / ``yield from``).
    """
    if initial_value not in (0, 1):
        raise ConfigurationError(
            f"initial value must be 0 or 1, got {initial_value!r}"
        )
    n = program.n
    _validate_resilience(n, t, allow_sub_resilience)
    if stats is None:
        stats = AgreementStats()
    if coin_provider is None:
        from repro.core.coin_providers import SharedListProvider

        coin_provider = SharedListProvider(coins=coins)
    board = program.board
    use_decided_broadcast = halting is HaltingMode.DECIDE_BROADCAST

    def wait_for(condition: WaitCondition) -> WaitCondition:
        """Also wake on a DECIDED announcement when the mode uses them."""
        if use_decided_broadcast:
            return WaitAny(
                (condition, MessageCount(_is_decided, 1, key=("decided",)))
            )
        return condition

    def adopted_value() -> int | None:
        """Value from a DECIDED announcement, if one arrived."""
        if not use_decided_broadcast:
            return None
        announcements = board.by_key(("decided",))
        if not announcements:
            return None
        values = {entry.payload.value for entry in announcements}
        if len(values) > 1:
            raise ProtocolViolation(
                f"conflicting DECIDED announcements: {sorted(values)}"
            )
        return values.pop()

    def finish_by_adoption(value: int) -> int:
        stats.adopted_from_broadcast = True
        stats.decided_value = value
        if stats.decision_stage is None:
            stats.decision_stage = stats.stages_started
        if record_decision:
            program.decide(value)
        program.broadcast(DecidedMessage(value=value))
        return value

    x = initial_value
    decided_value: int | None = None
    stage = 0
    while True:
        stage += 1
        stats.stages_started = stage

        # Line 1: broadcast (1, s, xp).  Share-exchanging coin providers
        # piggyback their per-stage shares on the same envelopes.
        coin_provider.on_stage_start(program, stage)
        program.broadcast(StageMessage(phase=1, stage=stage, value=x))

        # Line 2: wait to receive n - t messages of the form (1, s, *).
        yield wait_for(
            MessageCount(
                _is_stage(1, stage), n - t, key=("stage", 1, stage)
            )
        )
        adopted = adopted_value()
        if adopted is not None:
            return finish_by_adoption(adopted)

        # Lines 3-5: majority check over everything received so far.
        first_phase = board.by_key(("stage", 1, stage))
        senders_for = {
            v: {e.sender for e in first_phase if e.payload.value == v}
            for v in (0, 1)
        }
        majority = next(
            (v for v in (0, 1) if len(senders_for[v]) > n / 2), None
        )
        if majority is not None:
            program.broadcast(
                StageMessage(phase=2, stage=stage, value=majority)
            )
        else:
            program.broadcast(
                StageMessage(phase=2, stage=stage, value=BOTTOM)
            )

        # Line 6: wait to receive n - t messages of the form (2, s, *).
        yield wait_for(
            MessageCount(
                _is_stage(2, stage), n - t, key=("stage", 2, stage)
            )
        )
        adopted = adopted_value()
        if adopted is not None:
            return finish_by_adoption(adopted)

        # Lines 7-10: set the local value.
        second_phase = board.by_key(("stage", 2, stage))
        s_senders = {
            v: {e.sender for e in second_phase if e.payload.value == v}
            for v in (0, 1)
        }
        s_values = [v for v in (0, 1) if s_senders[v]]
        if len(s_values) > 1:
            # Lemma 2: impossible under fail-stop faults.
            raise ProtocolViolation(
                f"S-messages for both values at stage {stage}"
            )
        if not s_values:
            x, from_shared = coin_provider.coin(program, stage)
            if from_shared:
                stats.shared_coin_stages += 1
            else:
                stats.private_coin_stages += 1
        else:
            x = s_values[0]

        # Lines 11-14: decide / return.
        if s_values and len(s_senders[s_values[0]]) >= n - t:
            value = s_values[0]
            if decided_value is not None:
                # Line 13: already decided at an earlier stage -> return.
                return decided_value
            decided_value = value
            stats.decision_stage = stage
            stats.decided_value = value
            if record_decision:
                program.decide(value)
            if halting is HaltingMode.DECIDE_BROADCAST:
                program.broadcast(DecidedMessage(value=value))
                return value
            if halting is HaltingMode.ECHO:
                for ahead in range(1, ECHO_LOOKAHEAD_STAGES + 1):
                    program.broadcast(
                        StageMessage(phase=1, stage=stage + ahead, value=value)
                    )
                    program.broadcast(
                        StageMessage(phase=2, stage=stage + ahead, value=value)
                    )
                return value
            # LITERAL: keep participating until the next n - t S-batch.


class AgreementProgram(Program):
    """Standalone Protocol 1, for agreement-only experiments and tests.

    Args:
        pid: processor id.
        n: number of processors.
        t: fault tolerance (``n > 2t`` unless ``allow_sub_resilience``).
        initial_value: the input value (0 or 1).
        coins: shared coin list; all processors must be given the same one
            (in Protocol 2 the coordinator's GO message guarantees that).
        halting: halting mode (see :mod:`repro.core.halting`).
    """

    def __init__(
        self,
        pid: int,
        n: int,
        t: int,
        initial_value: int,
        coins: CoinList,
        halting: HaltingMode = HaltingMode.DECIDE_BROADCAST,
        allow_sub_resilience: bool = False,
    ) -> None:
        super().__init__(pid, n)
        _validate_resilience(n, t, allow_sub_resilience)
        self.t = t
        self.initial_value = initial_value
        self.coins = coins
        self.halting = halting
        self.allow_sub_resilience = allow_sub_resilience
        self.stats = AgreementStats()

    def run(self):
        value = yield from agreement_script(
            self,
            t=self.t,
            initial_value=self.initial_value,
            coins=self.coins,
            halting=self.halting,
            record_decision=True,
            stats=self.stats,
            allow_sub_resilience=self.allow_sub_resilience,
        )
        return value
