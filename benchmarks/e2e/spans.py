"""In-memory spans recorded from outside the program under test.

The benchmark traces layers without touching ``src/``: it replaces the
public functions at each layer boundary with thin wrappers that append a
``[name, start, end, parent, txn]`` record to a list, and writes the
list out when the run ends.  Two facts keep this cheap and honest:

* synchronous spans nest strictly (the service is single-threaded
  asyncio, and no wrapped synchronous function awaits), so a stack gives
  every span its parent and a layer's **self time** is its duration
  minus its direct children's;
* coroutine spans (a TCP transmit, a connection handler) measure *wall*
  time across awaits, take no part in the stack, and are reported as
  waits, never added to CPU attribution.

Clock: ``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, shared by
every process on the host, so per-node files merge without offsets.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

NAME, START, END, PARENT, _TXN = range(5)


class SpanRecorder:
    """Spans, counters and the open-span stack of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[Any]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.folded: dict[str, dict[str, float]] = {}
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        txn: Callable[[tuple], int | None] | None = None,
        count: Callable[[tuple, Any], dict[str, float]] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (function, method, classmethod or
        coroutine function) with a span-recording wrapper.

        ``txn`` extracts a transaction id from the call's positional
        arguments; ``count`` maps ``(args, result)`` to counter
        increments, so sizes and ratios are measured where the work
        happens.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        name_id = self.name_id(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                record = [name_id, clock(), 0.0, -1, txn(args) if txn else None]
                spans.append(record)
                try:
                    return await original(*args, **kwargs)
                finally:
                    record[END] = clock()

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                record = [
                    name_id,
                    clock(),
                    0.0,
                    stack[-1] if stack else -1,
                    txn(args) if txn else None,
                ]
                stack.append(len(spans))
                spans.append(record)
                try:
                    result = original(*args, **kwargs)
                except Exception:
                    counters[name + ".errors"] += 1
                    raise
                finally:
                    record[END] = clock()
                    stack.pop()
                if count is not None:
                    for key, amount in count(args, result).items():
                        counters[key] += amount
                return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._undo:
            self._undo.pop()()

    def fold(self) -> None:
        """Aggregate the recorded spans into per-name totals and drop them.

        For in-process tracing of long runs (a horizon trial alone is
        80 000 spans); call it between operations, when no span is open.
        """
        self.folded = layer_totals(self.document())
        self.spans.clear()

    # -- output --------------------------------------------------------------

    def document(self, **extra: Any) -> dict[str, Any]:
        return {
            "names": self.names,
            "spans": self.spans,
            "folded": self.folded,
            "counters": dict(self.counters),
            **extra,
        }

    def dump(self, path: str | Path, **extra: Any) -> None:
        Path(path).write_text(json.dumps(self.document(**extra)))


def layer_totals(document: dict[str, Any]) -> dict[str, dict[str, float]]:
    """Per span name: ``count``, ``total_s`` and ``self_s`` (total minus
    the time covered by direct children)."""
    spans = document["spans"]
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0 and span[END] != 0.0:
            covered[span[PARENT]] += span[END] - span[START]
    totals = {name: dict(entry) for name, entry in document.get("folded", {}).items()}
    names = document["names"]
    for index, span in enumerate(spans):
        if span[END] == 0.0:
            continue  # still open when the process wrote its spans
        entry = totals.setdefault(
            names[span[NAME]], {"count": 0.0, "total_s": 0.0, "self_s": 0.0}
        )
        duration = span[END] - span[START]
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - covered[index]
    return totals


def merge_totals(documents: list[dict[str, Any]]) -> tuple[dict, dict]:
    """Sum :func:`layer_totals` and counters over several span documents."""
    merged: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = defaultdict(float)
    for document in documents:
        for name, entry in layer_totals(document).items():
            target = merged.setdefault(
                name, {"count": 0.0, "total_s": 0.0, "self_s": 0.0}
            )
            for key, value in entry.items():
                target[key] += value
        for key, value in document["counters"].items():
            counters[key] += value
    return merged, dict(counters)
