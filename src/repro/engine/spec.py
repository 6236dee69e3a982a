"""Picklable trial descriptions for the batch execution engine.

A *trial* is a function ``seed -> result`` that builds everything it
needs (programs, adversary, tapes) from the seed alone — the executable
form of the paper's ``run(A, I, F)``.  Fanning trials across worker
processes requires the function and its captured configuration to
pickle, which rules out lambdas and closures; this module provides the
building blocks experiments use instead:

* :class:`SeededFactory` — a picklable ``seed -> object`` factory
  (adversaries, mostly) replacing ``lambda seed: Cls(seed=seed, ...)``;
* :class:`TrialSpec` — one worker chunk: the trial callable plus the
  contiguous seed slice it must run;
* :class:`TrialResult` — one seed's result, tagged for deterministic
  reassembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence


@dataclass(frozen=True)
class SeededFactory:
    """A picklable ``(seed) -> target(seed=seed, **kwargs)`` factory.

    ``target`` must be importable by reference (a module-level class or
    function) and accept ``seed`` as a keyword; ``kwargs`` are the
    static, seed-independent arguments.  Use :meth:`of` to build one.
    """

    target: Callable[..., Any]
    kwargs: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, target: Callable[..., Any], **kwargs: Any) -> "SeededFactory":
        return cls(target=target, kwargs=tuple(sorted(kwargs.items())))

    def __call__(self, seed: int) -> Any:
        return self.target(seed=seed, **dict(self.kwargs))

    def __repr__(self) -> str:
        name = getattr(self.target, "__name__", repr(self.target))
        args = ", ".join(f"{k}={v!r}" for k, v in self.kwargs)
        return f"SeededFactory({name}, {args})"


@dataclass(frozen=True)
class TrialSpec:
    """One chunk of a batch: a trial callable and its seed slice.

    Attributes:
        trial: picklable ``seed -> result`` callable.
        seeds: the seeds this chunk runs, in order.
        chunk_index: position of this chunk in the batch, used to
            reassemble results in deterministic (seed) order.
        telemetry: whether the worker should record into a fresh metrics
            registry and ship its snapshot back for merging.
        sim_core: the simulation core the parent resolved; the worker
            installs it before running the chunk.
        timing_model: the ambient timing model the parent resolved,
            installed the same way.
    """

    trial: Callable[[int], Any]
    seeds: tuple[int, ...]
    chunk_index: int = 0
    telemetry: bool = False
    sim_core: str = "reference"
    timing_model: str = "realistic"


@dataclass(frozen=True)
class TrialResult:
    """One seed's trial result, tagged for ordering and provenance."""

    seed: int
    value: Any


@dataclass(frozen=True)
class ChunkResult:
    """Everything one worker chunk produced.

    Attributes:
        chunk_index: echo of :attr:`TrialSpec.chunk_index`.
        results: per-seed results, in the chunk's seed order.
        telemetry_snapshot: the worker registry's
            :meth:`~repro.telemetry.registry.MetricsRegistry.snapshot`,
            or ``None`` when telemetry was off.
    """

    chunk_index: int
    results: tuple[TrialResult, ...] = field(default_factory=tuple)
    telemetry_snapshot: dict[str, Any] | None = None


def chunk_seeds(seeds: Sequence[int], chunks: int) -> list[tuple[int, ...]]:
    """Split ``seeds`` into at most ``chunks`` contiguous, ordered slices.

    Slices differ in length by at most one, every seed appears exactly
    once, and concatenating the slices in order reproduces ``seeds`` —
    the property the engine relies on for byte-identical serial/parallel
    result ordering.
    """
    if chunks <= 0:
        raise ValueError(f"need at least one chunk, got {chunks}")
    seeds = tuple(seeds)
    chunks = min(chunks, len(seeds)) or 1
    base, extra = divmod(len(seeds), chunks)
    out: list[tuple[int, ...]] = []
    start = 0
    for index in range(chunks):
        size = base + (1 if index < extra else 0)
        out.append(seeds[start : start + size])
        start += size
    return [c for c in out if c]
