"""High-level convenience API.

Most users want one of two calls:

* :func:`run_commit` — run Protocol 2 over ``n`` simulated processors
  under a chosen adversary and get back decisions, rounds, and the trace.
* :func:`run_agreement` — run the Protocol 1 subroutine standalone.

Both wrap the lower-level pieces (programs + adversary + simulation) that
power every experiment; nothing here is magic, just defaults.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.adversary.base import Adversary
from repro.adversary.standard import SynchronousAdversary
from repro.core.agreement import AgreementProgram
from repro.core.coins import CoinList
from repro.core.commit import CommitProgram
from repro.core.halting import HaltingMode
from repro.errors import ConfigurationError
from repro.sim.rounds import RoundAnalyzer
from repro.sim.scheduler import Simulation, SimulationResult
from repro.types import Decision, Vote


def default_fault_tolerance(n: int) -> int:
    """The optimal fault tolerance for ``n`` processors: max t with n > 2t."""
    return (n - 1) // 2


@dataclass
class ProtocolOutcome:
    """Results of one simulated protocol execution.

    Wraps the raw :class:`~repro.sim.scheduler.SimulationResult` with the
    queries experiments ask constantly.

    Attributes:
        result: the raw simulation result.
        programs: the program objects that were executed (``None`` when
            the caller assembled the outcome without them).  Kept so
            metric extraction and the CLI's telemetry documents can read
            the per-program stage/coin stats.
    """

    result: SimulationResult
    programs: list | None = None

    @property
    def run(self):
        return self.result.run

    @property
    def terminated(self) -> bool:
        """Whether every nonfaulty program returned before the horizon."""
        return self.result.terminated

    @property
    def decisions(self) -> dict[int, int | None]:
        """Final decision per processor."""
        return self.result.decisions()

    @property
    def decision_values(self) -> set[int]:
        """Distinct decided values (must have at most one element)."""
        return self.run.decision_values()

    @property
    def consistent(self) -> bool:
        """The agreement condition: at most one decision value."""
        return self.run.agreement_holds()

    @property
    def unanimous_decision(self) -> Decision | None:
        """The common decision, or None if no processor decided."""
        values = self.decision_values
        if not values:
            return None
        if len(values) > 1:
            return None
        return Decision.from_bit(values.pop())

    @cached_property
    def rounds(self) -> RoundAnalyzer:
        """Asynchronous-round analysis of the run."""
        return RoundAnalyzer(self.run)

    @property
    def decision_round(self) -> int | None:
        """Rounds until the last nonfaulty decision (Theorem 10 metric)."""
        return self.rounds.max_decision_round()

    @property
    def decision_ticks(self) -> int | None:
        """Largest clock reading at a decide step (Remark 1 metric)."""
        return self.run.max_decision_clock()

    @property
    def on_time(self) -> bool:
        """Whether the run contained no late messages."""
        return self.run.is_on_time()


def run_commit(
    votes: Sequence[Vote | int],
    t: int | None = None,
    K: int = 4,
    adversary: Adversary | None = None,
    seed: int = 0,
    coin_count: int | None = None,
    halting: HaltingMode = HaltingMode.DECIDE_BROADCAST,
    max_steps: int = 100_000,
    allow_sub_resilience: bool = False,
) -> ProtocolOutcome:
    """Run Protocol 2 once and return the outcome.

    Args:
        votes: initial vote per processor (processor 0 is the coordinator).
        t: fault tolerance; defaults to the optimum ``(n - 1) // 2``.
        K: the on-time bound in clock ticks.
        adversary: scheduler; defaults to the failure-free on-time
            :class:`~repro.adversary.standard.SynchronousAdversary`.
        seed: master seed for the processors' random tapes.
        coin_count: coins in the coordinator's GO message (default ``n``).
        halting: halting mode of the embedded agreement.
        max_steps: simulation horizon standing in for an infinite run.
    """
    n = len(votes)
    if n == 0:
        raise ConfigurationError("need at least one processor")
    if t is None:
        t = default_fault_tolerance(n)
    programs = [
        CommitProgram(
            pid=pid,
            n=n,
            t=t,
            initial_vote=vote,
            K=K,
            coin_count=coin_count,
            halting=halting,
            allow_sub_resilience=allow_sub_resilience,
        )
        for pid, vote in enumerate(votes)
    ]
    if adversary is None:
        adversary = SynchronousAdversary(seed=seed)
    simulation = Simulation(
        programs=programs,
        adversary=adversary,
        K=K,
        t=t,
        seed=seed,
        max_steps=max_steps,
    )
    return ProtocolOutcome(result=simulation.run(), programs=programs)


def shared_coins(count: int, seed: int = 0) -> CoinList:
    """A reproducible shared coin list for standalone agreement runs.

    In Protocol 2 the coordinator flips these and ships them in the GO
    message; standalone agreement experiments need them supplied up front.
    """
    rng = random.Random(seed)
    return CoinList.from_bits(rng.getrandbits(1) for _ in range(count))


def run_agreement(
    values: Sequence[int],
    t: int | None = None,
    K: int = 4,
    coins: CoinList | None = None,
    adversary: Adversary | None = None,
    seed: int = 0,
    halting: HaltingMode = HaltingMode.DECIDE_BROADCAST,
    max_steps: int = 100_000,
    allow_sub_resilience: bool = False,
) -> ProtocolOutcome:
    """Run Protocol 1 standalone and return the outcome.

    Args:
        values: initial value per processor (0 or 1).
        t: fault tolerance; defaults to the optimum ``(n - 1) // 2``.
        K: the on-time bound (only used for round analysis; the agreement
            subroutine itself has no timeouts).
        coins: the shared coin list; defaults to ``n`` coins derived from
            ``seed`` (what the Protocol 2 coordinator would have flipped).
        adversary: scheduler; defaults to the synchronous one.
        halting: halting mode.
    """
    n = len(values)
    if n == 0:
        raise ConfigurationError("need at least one processor")
    if t is None:
        t = default_fault_tolerance(n)
    if coins is None:
        coins = shared_coins(n, seed=seed)
    programs = [
        AgreementProgram(
            pid=pid,
            n=n,
            t=t,
            initial_value=value,
            coins=coins,
            halting=halting,
            allow_sub_resilience=allow_sub_resilience,
        )
        for pid, value in enumerate(values)
    ]
    if adversary is None:
        adversary = SynchronousAdversary(seed=seed)
    simulation = Simulation(
        programs=programs,
        adversary=adversary,
        K=K,
        t=t,
        seed=seed,
        max_steps=max_steps,
    )
    return ProtocolOutcome(result=simulation.run(), programs=programs)
