"""Parked runs: the point from which a run can only tick clocks.

Protocol 2 is only t-nonblocking.  With more than t crashes the
survivors wait forever for n - t messages that will never come, and the
paper's run is infinite; the kernels stand in for it with a finite
horizon.  Long before that horizon such a run stops changing: no
delivery, no send, no crash, no decision.  This module says when, so
that both kernels can finish the run without stepping it.

A run is **parked** when

* the adversary is a stock round-robin
  :class:`~repro.adversary.base.CycleAdversary`
  (:func:`stock_cycle_adversary`) whose crash plan has no entries left;
* no envelope is pending for a processor that has not crashed; and
* some processor is running, and every running processor waits on a
  clock-free condition its board does not satisfy
  (:attr:`repro.sim.process.SimProcess.blocked`).

At a cycle boundary of a parked run every later event is a round-robin
step that delivers nothing: the policy selects from an empty buffer,
which consults neither its gates nor the adversary's ``rng``; the board
does not move, so no wait is satisfied and nothing is sent; and no crash
is due.  The state after each such step is parked again.  What is left
of the run up to the horizon is therefore fixed, and a kernel may write
it directly: clocks, tape positions, step indices and the adversary's
cycle bookkeeping.  Both kernels look only at a cycle boundary, and only
after a full cycle of steps that delivered, sent and crashed nothing, so
a run that never goes quiet (every commit trial) never runs the test.

This imports the adversary classes, which import the scheduler, so the
scheduler imports this module when it executes, not when it loads.
"""

from __future__ import annotations

from typing import Sequence, Sized

from repro.adversary.base import CycleAdversary, DeliveryPolicy
from repro.sim.process import SimProcess
from repro.types import ProcessStatus


def stock_cycle_adversary(adversary) -> bool:
    """Whether ``adversary`` decides exactly as :class:`CycleAdversary`.

    No overridden decision machinery, no simulation attach hook, and a
    delivery policy that keeps to the hold contract (does not override
    ``DeliveryPolicy.select``).  Structural checks run first, so
    non-:class:`CycleAdversary` objects (scripted adversaries) are
    rejected before any attribute access.
    """
    cls = type(adversary)
    if (
        cls.decide is not CycleAdversary.decide
        or cls._due_crash is not CycleAdversary._due_crash
        or cls._context is not CycleAdversary._context
        or cls._note_event is not CycleAdversary._note_event
    ):
        return False
    if getattr(adversary, "attach", None) is not None:
        return False
    policy = adversary.delivery
    return isinstance(policy, DeliveryPolicy) and policy.keeps_default("select")


def parked(
    processes: Sequence[SimProcess],
    buffers: Sequence[Sized],
    crashes_left: Sized,
) -> bool:
    """Whether a run under a stock cycle adversary is parked.

    ``buffers[pid]`` holds what is pending for ``pid`` (any sized
    container) and ``crashes_left`` the crash-plan entries not yet
    executed.  Valid at a cycle boundary; see the module docstring.
    """
    if crashes_left:
        return False
    running = False
    for process, buffer in zip(processes, buffers):
        status = process.status
        if status is ProcessStatus.CRASHED:
            continue
        if buffer:
            return False
        if status is ProcessStatus.RUNNING:
            if not process.blocked:
                return False
            running = True
    return running
