"""Monitoring ``t``-admissibility of adversary behaviour.

A run is ``t``-admissible when (i) its schedule is applicable — the kernel
enforces that unconditionally, rejecting inapplicable events —, (ii) at
most ``t`` processors are faulty, and (iii) every guaranteed message sent
to a nonfaulty processor is eventually received.  Condition (iii) is a
liveness property of infinite runs; for the finite prefixes a simulation
produces we report the *fairness debt*: guaranteed messages to nonfaulty
processors still undelivered when the run stopped.  A terminated run (all
programs returned) with debt is fine — the protocol finished without those
messages.  A horizon run with debt may indicate an unfair adversary rather
than a blocking protocol, so experiments distinguish the two.

The paper's definition also requires that some nonfaulty processor receive
a message in the run (to rule out penalising protocols that were never
started); the report records that too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.scheduler import Simulation


@dataclass(frozen=True)
class AdmissibilityReport:
    """Summary of an adversary's compliance with ``t``-admissibility.

    Attributes:
        t: the configured fault budget.
        crashes: processors crashed, in crash order.
        within_fault_budget: ``len(crashes) <= t``.
        undelivered_guaranteed: count of guaranteed envelopes addressed to
            nonfaulty processors still pending when the run stopped.
        some_nonfaulty_received: whether any nonfaulty processor received a
            message (part of the definition of a t-admissible adversary).
    """

    t: int
    crashes: tuple[int, ...]
    within_fault_budget: bool
    undelivered_guaranteed: int
    some_nonfaulty_received: bool

    @property
    def admissible_so_far(self) -> bool:
        """Whether nothing observed so far rules out ``t``-admissibility.

        Fairness debt does not count against a finite prefix: an admissible
        adversary may simply not have delivered yet.
        """
        return self.within_fault_budget


@dataclass
class AdmissibilityMonitor:
    """Accumulates admissibility evidence during a simulation."""

    n: int
    t: int
    crash_order: list[int] = field(default_factory=list)

    def record_crash(self, pid: int) -> None:
        """Note a crash decision."""
        self.crash_order.append(pid)

    def report(self, simulation: "Simulation") -> AdmissibilityReport:
        """Build the report for the simulation's current state."""
        crashed = set(self.crash_order)
        debt = 0
        for pid in range(self.n):
            if pid in crashed:
                continue
            for env in simulation.buffers[pid]:
                if env.guaranteed:
                    debt += 1
        some_received = any(
            kind == "step" and delivered and actor not in crashed
            for kind, actor, _clock, delivered, _sent, _decision, _halted in (
                simulation.event_rows()
            )
        )
        return AdmissibilityReport(
            t=self.t,
            crashes=tuple(self.crash_order),
            within_fault_budget=len(self.crash_order) <= self.t,
            undelivered_guaranteed=debt,
            some_nonfaulty_received=some_received,
        )
