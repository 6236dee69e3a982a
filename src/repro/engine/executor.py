"""The batch trial-execution engine.

Experiments are Monte-Carlo batches of independent trials, each fully
determined by ``(adversary, programs, seed)`` — the paper's
``run(A, I, F)``.  Independence makes trial-level parallelism safe:
this module fans seeded trials out across a ``ProcessPoolExecutor`` and
guarantees the result list is **byte-identical** to the serial path:

* seeds are partitioned into contiguous, ordered chunks
  (:func:`~repro.engine.spec.chunk_seeds`), each chunk runs its seeds in
  order, and chunks are reassembled in submission order — so results
  come back exactly as ``[trial(s) for s in seeds]`` would produce them;
* each worker runs its chunk under a fresh
  :class:`~repro.telemetry.registry.MetricsRegistry` and ships the
  snapshot back; the parent merges snapshots in chunk order, so counter
  totals equal the serial run's and ``--trace-out`` / ``--json``
  artifacts keep their schema;
* execution falls back to the plain in-process loop when ``workers=1``,
  when the batch has at most one seed, or when the trial (or its
  configuration) cannot be pickled — lambdas and closures still work,
  they just do not parallelise.

Workers are plain OS processes, so trials must be picklable: use
module-level trial functions, ``functools.partial`` over them, and
:class:`~repro.engine.spec.SeededFactory` for adversary factories.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import os
import pickle
from typing import Any, Callable, Iterable, Sequence

from repro.engine.seeds import trial_seed
from repro.engine.spec import ChunkResult, TrialResult, TrialSpec, chunk_seeds
from repro.errors import ConfigurationError
from repro.sim.coreselect import resolve_sim_core, set_default_sim_core
from repro.telemetry.log import get_logger
from repro.telemetry.registry import (
    MetricsRegistry,
    active_registry,
    use_registry,
)

_log = get_logger("engine")

#: Target number of chunks per worker: >1 smooths load imbalance between
#: chunks (trials vary in length) without drowning the batch in IPC.
_CHUNKS_PER_WORKER = 4

#: Module default used when a caller passes ``workers=None`` and no
#: override is installed: serial execution.  Library call sites stay
#: in-process unless a CLI flag or caller opts in.
_default_workers_override: int | None = None


def workers_from_env(name: str, default: int) -> int:
    """Parse a worker-count environment variable, strictly.

    Unset (or blank) values fall back to ``default``; anything else must
    be an integer >= 1.  Zero, negative, and non-integer values are
    rejected with a :class:`~repro.errors.ConfigurationError` naming the
    variable — silently clamping ``REPRO_WORKERS=0`` to 1 used to mask
    typos in CI configs.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        workers = int(raw.strip())
    except ValueError:
        raise ConfigurationError(
            f"{name} must be an integer >= 1, got {raw!r}"
        ) from None
    if workers < 1:
        raise ConfigurationError(
            f"{name} must be >= 1, got {workers}; unset it to use the "
            f"default ({default})"
        )
    return workers


def default_workers() -> int:
    """The machine-derived worker count: ``REPRO_WORKERS`` or cpu count."""
    return workers_from_env("REPRO_WORKERS", os.cpu_count() or 1)


def set_default_workers(workers: int | None) -> None:
    """Install a process-wide default for ``workers=None`` call sites.

    The CLI uses this so ``--workers`` reaches every engine-routed batch
    in the invocation without threading the value through each layer.
    ``None`` removes the override (back to serial).
    """
    global _default_workers_override
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    _default_workers_override = workers


def resolve_workers(workers: int | None) -> int:
    """Resolve a ``workers`` argument to a concrete count."""
    if workers is None:
        return (
            _default_workers_override
            if _default_workers_override is not None
            else 1
        )
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return workers


# -- worker side -------------------------------------------------------------


def _execute_chunk(payload: bytes) -> ChunkResult:
    """Run one pickled :class:`TrialSpec` inside a worker process.

    The chunk runs under a fresh registry so concurrent workers never
    contend on (or double-count into) inherited telemetry state; the
    snapshot travels back with the results for an ordered merge.  It
    runs on the simulation core and under the timing model the parent
    resolved, which travel in the spec — not through the environment.
    """
    spec: TrialSpec = pickle.loads(payload)
    # A pooled worker outlives batches: install the parent's selections
    # on every chunk rather than trusting what it forked or last ran with.
    # (repro.models imports repro.engine.seeds, hence the local import.)
    from repro.models import set_default_timing_model

    set_default_sim_core(spec.sim_core)
    set_default_timing_model(spec.timing_model)
    registry = MetricsRegistry(enabled=spec.telemetry)
    with use_registry(registry):
        results = tuple(
            TrialResult(seed=seed, value=spec.trial(seed))
            for seed in spec.seeds
        )
    return ChunkResult(
        chunk_index=spec.chunk_index,
        results=results,
        telemetry_snapshot=registry.snapshot() if spec.telemetry else None,
    )


# -- pool management ---------------------------------------------------------

_pools: dict[int, concurrent.futures.ProcessPoolExecutor] = {}


def _pool_for(workers: int) -> concurrent.futures.ProcessPoolExecutor:
    """A cached process pool with ``workers`` workers.

    Pools are reused across batches (an experiment runs many small
    batches; paying fork start-up once matters on short workloads) and
    torn down at interpreter exit.
    """
    pool = _pools.get(workers)
    if pool is None:
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
        _pools[workers] = pool
    return pool


def _discard_pool(workers: int) -> None:
    pool = _pools.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


@atexit.register
def _shutdown_pools() -> None:  # pragma: no cover - interpreter teardown
    for workers in list(_pools):
        _discard_pool(workers)


# -- the engine --------------------------------------------------------------


class TrialEngine:
    """Runs batches of independent seeded trials, serially or fanned out.

    Args:
        workers: worker process count; ``None`` resolves through
            :func:`resolve_workers` (serial unless a default override is
            installed).  ``1`` always runs in-process.
    """

    def __init__(self, workers: int | None = None) -> None:
        self.workers = resolve_workers(workers)

    # -- public API --------------------------------------------------------

    def map(
        self, trial: Callable[[int], Any], seeds: Iterable[int]
    ) -> list[Any]:
        """Run ``trial`` at every seed; results in seed order.

        The contract all callers rely on: ``engine.map(f, seeds)`` equals
        ``[f(s) for s in seeds]`` — same values, same order — whatever
        the worker count.
        """
        seeds = tuple(seeds)
        if not seeds:
            return []
        if self.workers <= 1 or len(seeds) == 1:
            return [trial(seed) for seed in seeds]
        payloads = self._encode_chunks(trial, seeds)
        if payloads is None:
            return [trial(seed) for seed in seeds]
        return self._run_parallel(trial, seeds, payloads)

    def run_batch(
        self,
        trial: Callable[[int], Any],
        trials: int,
        base_seed: int = 0,
    ) -> list[Any]:
        """Run ``trials`` consecutive seeds starting at ``base_seed``."""
        if trials <= 0:
            raise ConfigurationError(
                f"need at least one trial, got {trials}"
            )
        return self.map(
            trial, (trial_seed(base_seed, i) for i in range(trials))
        )

    # -- internals ---------------------------------------------------------

    def _encode_chunks(
        self, trial: Callable[[int], Any], seeds: tuple[int, ...]
    ) -> list[bytes] | None:
        """Pickle per-chunk specs, or ``None`` if the trial won't travel."""
        from repro.models import resolve_timing_model

        telemetry = active_registry() is not None
        sim_core = resolve_sim_core()
        timing_model = resolve_timing_model()
        specs = [
            TrialSpec(
                trial=trial,
                seeds=chunk,
                chunk_index=index,
                telemetry=telemetry,
                sim_core=sim_core,
                timing_model=timing_model,
            )
            for index, chunk in enumerate(
                chunk_seeds(seeds, self.workers * _CHUNKS_PER_WORKER)
            )
        ]
        try:
            return [pickle.dumps(spec) for spec in specs]
        except Exception as exc:  # noqa: BLE001 - any pickling failure
            _log.debug(
                "trial %r is not picklable (%s); falling back to "
                "in-process execution",
                trial,
                exc,
            )
            registry = active_registry()
            if registry is not None:
                registry.counter(
                    "engine_fallbacks_total",
                    "parallel batches demoted to serial, by reason",
                ).inc(reason="unpicklable")
            return None

    def _run_parallel(
        self,
        trial: Callable[[int], Any],
        seeds: tuple[int, ...],
        payloads: list[bytes],
    ) -> list[Any]:
        registry = active_registry()
        try:
            pool = _pool_for(self.workers)
            futures = [pool.submit(_execute_chunk, p) for p in payloads]
            chunks = [future.result() for future in futures]
        except concurrent.futures.process.BrokenProcessPool:
            # A worker died (OOM, signal); rebuild the pool lazily and
            # run this batch serially rather than losing the experiment.
            _log.warning(
                "process pool (workers=%d) broke; running %d trials "
                "in-process",
                self.workers,
                len(seeds),
            )
            _discard_pool(self.workers)
            if registry is not None:
                registry.counter(
                    "engine_fallbacks_total",
                    "parallel batches demoted to serial, by reason",
                ).inc(reason="broken_pool")
            return [trial(seed) for seed in seeds]
        # Reassemble in chunk order == seed order; merge telemetry the
        # same way so parallel snapshots match serial ones.
        results: list[Any] = []
        for expected_index, chunk in enumerate(chunks):
            if chunk.chunk_index != expected_index:  # pragma: no cover
                raise ConfigurationError(
                    f"engine chunk order violated: got chunk "
                    f"{chunk.chunk_index} at position {expected_index}"
                )
            results.extend(result.value for result in chunk.results)
            if registry is not None and chunk.telemetry_snapshot:
                registry.merge_snapshot(chunk.telemetry_snapshot)
        if registry is not None:
            registry.counter(
                "engine_trials_total", "trials executed via the engine"
            ).inc(len(seeds), mode="parallel")
            registry.counter(
                "engine_chunks_total", "worker chunks dispatched"
            ).inc(len(payloads))
        return results


def run_trials(
    trial: Callable[[int], Any],
    trials: int | None = None,
    *,
    base_seed: int = 0,
    seeds: Sequence[int] | None = None,
    workers: int | None = None,
) -> list[Any]:
    """Run a batch of seeded trials; the module-level convenience form.

    Exactly one of ``trials`` (consecutive seeds from ``base_seed``) or
    ``seeds`` (an explicit list) must be given.  Results are returned in
    seed order and are identical to ``[trial(s) for s in seeds]`` for
    every worker count.
    """
    engine = TrialEngine(workers=workers)
    if (trials is None) == (seeds is None):
        raise ConfigurationError(
            "pass exactly one of `trials` or `seeds`"
        )
    if seeds is not None:
        return engine.map(trial, seeds)
    return engine.run_batch(trial, trials, base_seed=base_seed)
