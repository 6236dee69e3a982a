"""A deterministic virtual-clock event loop for co-hosted service clusters.

Fault campaigns run thousands of cluster trials; with the standard event
loop each trial costs real wall-clock time (ticks, delivery delays, and
retransmission backoffs are real ``sleep``s) and its outcome can wobble
with machine load.  This module provides an event loop whose clock is
*virtual*: whenever the loop has no ready callbacks it jumps time
forward to the earliest scheduled timer instead of blocking in the
selector.  Two consequences:

* **speed** — a 10-second protocol run with 2 ms ticks executes in the
  time it takes to process its callbacks, typically milliseconds;
* **determinism** — callback order depends only on the scheduled times
  and submission order, never on OS scheduling, so a seeded cluster
  trial produces byte-identical results on every run and under any
  worker count.  This is what makes campaign reports reproducible.

The loop intentionally supports only timer/callback workloads (queues,
sleeps, futures, tasks) — there is no real I/O in the in-memory
transport.  Network sockets would starve, so don't use it for those.
"""

from __future__ import annotations

import asyncio
import selectors
from typing import Awaitable, TypeVar

T = TypeVar("T")


class VirtualClockEventLoop(asyncio.SelectorEventLoop):
    """A selector event loop that fast-forwards through idle time."""

    def __init__(self) -> None:
        super().__init__(selectors.DefaultSelector())
        self._virtual_now = 0.0

    def time(self) -> float:
        return self._virtual_now

    def _run_once(self) -> None:
        # With nothing ready, advance the clock to the earliest live
        # timer so the base implementation computes a zero selector
        # timeout and fires it immediately.  The base class strips
        # cancelled handles itself; scanning past them here only moves
        # the clock, never the heap.
        if not self._ready and self._scheduled:
            when = min(
                (
                    handle._when
                    for handle in self._scheduled
                    if not handle._cancelled
                ),
                default=None,
            )
            if when is not None and when > self._virtual_now:
                self._virtual_now = when
        super()._run_once()


def run_virtual(coro: Awaitable[T]) -> T:
    """``asyncio.run`` under a fresh virtual-clock loop."""
    with asyncio.Runner(loop_factory=VirtualClockEventLoop) as runner:
        return runner.run(coro)


def virtual_loop_factory() -> VirtualClockEventLoop:
    """Loop factory for :class:`asyncio.Runner` callers."""
    return VirtualClockEventLoop()


__all__ = [
    "VirtualClockEventLoop",
    "run_virtual",
    "virtual_loop_factory",
]
