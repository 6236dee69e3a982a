"""The fused sweep: trials whose result is read off flat state.

:func:`sweep_run` is a fused cycle driver for every trial whose result
is read off flat state rather than a trace: commit Monte-Carlo trials
and atlas cells (a :class:`RunMetrics` bundle, :func:`sweep_metrics`)
and fault-campaign sim-track trials (outcome, decisions, crashed set,
event count).  When the adversary is a stock
:class:`~repro.adversary.base.CycleAdversary` whose delivery policy
keeps to the hold contract (does not override ``select``) and no
observer is attached (no telemetry, no span recorder), the driver
replays the exact decide/apply semantics of the reference pair
(:class:`repro.sim.scheduler.Simulation`) while skipping everything
neither result can observe: pattern entries, trace events, envelope
objects, pending-metadata caches, and all bulletin-board activity of
returned processors.  The policy's own contract methods, its own hold
memo and the adversary's own ``rng`` are used, so RNG draw order is the
reference's and the produced results are equal as Python objects.
:func:`sweep_gate` is the one eligibility rule, applied by
:func:`repro.sim.coreselect.run_sim_trial`; a declined trial runs on
``Simulation``, which is always safe.

Numpy use is optional everywhere (``REPRO_SIM_NUMPY=0`` disables it; an
install without numpy takes the pure-Python fallbacks, logged once by
:func:`repro.sim.coreselect.numpy_if_allowed`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.adversary.base import CycleAdversary, DeliveryPolicy
from repro.errors import AnalysisError
from repro.sim.board import BulletinBoard
from repro.sim.coreselect import numpy_if_allowed
from repro.sim.message import ReceivedPayload
from repro.sim.process import SimProcess
from repro.sim.scheduler import check_simulation_arguments
from repro.sim.tape import TapeCollection
from repro.telemetry import registry as telemetry
from repro.telemetry.log import get_logger
from repro.trace import spans as trace_spans
from repro.types import ProcessStatus

_log = get_logger("sim.fastcore")

#: Upper bound on rounds, mirrored from :mod:`repro.sim.rounds`.
_MAX_ROUNDS = 10_000

#: Sentinel for payload types that declare no ``board_key``.
_NO_KEY = object()


# ---------------------------------------------------------------------------
# Flat lateness
# ---------------------------------------------------------------------------


def _late_flags(
    K: int,
    pid_steps: list[list[int]],
    send_events: list[int],
    receive_events: list[int],
):
    """Lateness flag per delivered envelope, computed over flat arrays.

    An envelope is late iff some processor took more than ``K`` steps
    strictly between its send and receive events; per processor the count
    is ``bisect_left(steps, receive) - bisect_right(steps, send)``,
    exactly :meth:`repro.sim.trace.Run.steps_in_interval`.
    """
    count = len(send_events)
    if count == 0:
        return []
    np = numpy_if_allowed()
    if np is not None:
        sends = np.asarray(send_events, dtype=np.int64)
        recvs = np.asarray(receive_events, dtype=np.int64)
        worst = np.zeros(count, dtype=np.int64)
        for steps in pid_steps:
            if not steps:
                continue
            arr = np.asarray(steps, dtype=np.int64)
            counts = np.searchsorted(arr, recvs, side="left")
            counts -= np.searchsorted(arr, sends, side="right")
            np.maximum(worst, counts, out=worst)
        return (worst > K).tolist()
    flags = []
    for send, recv in zip(send_events, receive_events):
        late = False
        for steps in pid_steps:
            if bisect_left(steps, recv) - bisect_right(steps, send) > K:
                late = True
                break
        flags.append(late)
    return flags


# ---------------------------------------------------------------------------
# Flat asynchronous rounds (replicates repro.sim.rounds.RoundAnalyzer)
# ---------------------------------------------------------------------------


def _flat_max_decision_round(
    n: int,
    K: int,
    faulty: set[int],
    receipts: list[list[tuple[int, int, int]]],
    decision_clocks: list[int | None],
    final_clocks: list[int],
) -> int | None:
    """Rounds to the last nonfaulty decision, over flat receipt lists.

    ``receipts[pid]`` holds ``(sender, send_clock, receive_clock)`` for
    every envelope delivered to ``pid`` from a nonfaulty sender, in
    envelope-id order — the same inductive inputs
    :class:`~repro.sim.rounds.RoundAnalyzer` extracts from a ``Run``.
    """
    targets = [
        decision_clocks[pid]
        if decision_clocks[pid] is not None
        else final_clocks[pid]
        for pid in range(n)
    ]
    ends: list[list[int]] = [[0] for _ in range(n)]
    for round_number in range(1, _MAX_ROUNDS + 1):
        if round_number > 1 and all(
            ends[pid][-1] >= targets[pid] for pid in range(n)
        ):
            break
        previous = round_number - 1
        for pid in range(n):
            pid_ends = ends[pid]
            end = pid_ends[previous] + K
            if previous >= 1:
                for sender, send_clock, receive_clock in receipts[pid]:
                    sender_ends = ends[sender]
                    if previous >= len(sender_ends):
                        continue
                    if (
                        sender_ends[previous - 1]
                        < send_clock
                        <= sender_ends[previous]
                    ):
                        candidate = receive_clock + K
                        if candidate > end:
                            end = candidate
            pid_ends.append(end)
    else:
        raise AnalysisError(
            f"round analysis did not converge within {_MAX_ROUNDS} rounds"
        )
    best: int | None = None
    for pid in range(n):
        clock = decision_clocks[pid]
        if clock is None or pid in faulty:
            continue
        if clock <= 0:
            raise AnalysisError(f"clock readings are positive, got {clock}")
        index = bisect_left(ends[pid], clock)
        if index >= len(ends[pid]):
            raise AnalysisError(
                f"clock {clock} beyond computed boundaries for "
                f"processor {pid} (last end {ends[pid][-1]})"
            )
        if best is None or index > best:
            best = index
    return best


# ---------------------------------------------------------------------------
# Sweep mode: fused trials that build no trace
# ---------------------------------------------------------------------------


class _FastEnv:
    """Flat in-flight message record for the sweep driver."""

    __slots__ = (
        "message_id",
        "sender",
        "recipient",
        "payloads",
        "send_event",
        "send_clock",
        "send_cycle",
        "guaranteed",
        "receive_event",
        "receive_clock",
    )

    def __init__(
        self, message_id, sender, recipient, payloads, send_event, send_clock, send_cycle
    ):
        self.message_id = message_id
        self.sender = sender
        self.recipient = recipient
        self.payloads = payloads
        self.send_event = send_event
        self.send_clock = send_clock
        self.send_cycle = send_cycle
        self.guaranteed = True
        self.receive_event = None
        self.receive_clock = None


class _Entry:
    """Minimal bulletin-board entry for sweep-mode deliveries.

    The shipped commit/agreement programs read exactly two attributes of
    a board entry — ``payload`` (through matchers and the key index) and
    ``sender`` (distinct-sender counting) — so ``receive_clock`` and
    ``message_id`` are unobservable in sweep mode and one entry per
    ``(payload object, sender)`` pair can be shared across every
    recipient board.  The memo key includes the sender because a relayed
    payload (e.g. a GO message) is broadcast by several senders, and
    distinct-sender counts depend on the sender recorded at post time.
    """

    __slots__ = ("sender", "payload")

    def __init__(self, sender, payload):
        self.sender = sender
        self.payload = payload


class _SweepBoard(BulletinBoard):
    """Bulletin board with a per-trial memo of payload board keys.

    A broadcast posts the *same* payload object on every recipient's
    board; the reference board calls ``payload.board_key()`` on each
    post.  The sweep driver (and this board's ``post``, which only
    self-sends still reach) computes it once per payload object.  The
    memo maps ``id(payload)`` to ``(payload, key_value, entries_by_
    sender)``; the strong payload reference pins the object's identity
    for the lifetime of the trial.
    """

    def __init__(self, key_memo: dict) -> None:
        super().__init__()
        self._key_memo = key_memo

    def post(self, entry: ReceivedPayload) -> None:
        self._entries.append(entry)
        payload = entry.payload
        memo = self._key_memo
        memo_key = id(payload)
        hit = memo.get(memo_key)
        if hit is None:
            key = getattr(payload, "board_key", None)
            value = key() if callable(key) else _NO_KEY
            memo[memo_key] = (payload, value, {})
        else:
            value = hit[1]
        if value is not _NO_KEY:
            self._by_key[value].append(entry)
            self._senders_by_key[value].add(entry.sender)


def _fast_selector(policy, rng):
    """``DeliveryPolicy.select`` over the sweep's flat ``_FastEnv`` records.

    Returns a ``(pid, buffer, cycle) -> list[_FastEnv]`` closure that
    evaluates the policy's own hold-contract methods, in the contract's
    order, against the policy's own memo and the adversary's own rng —
    so state and draw order match the reference exactly — or ``None``
    when the policy overrides ``select`` and only the reference path
    knows what it does.  A message's send cycle is read off the record;
    it equals ``CycleContext.event_cycles[send_event]`` by construction.
    """
    if not (
        isinstance(policy, DeliveryPolicy) and policy.keeps_default("select")
    ):
        return None
    if policy.delivers_all:
        return lambda pid, buffer, cycle: list(buffer.values())
    holds = policy._holds
    draw = policy.hold
    # A gate left at its no-op default is skipped, not called.
    blocked, expired, admits = (
        None if policy.keeps_default(name) else getattr(policy, name)
        for name in ("blocked", "expired", "admits")
    )

    def select(pid, buffer, cycle):
        chosen = []
        get = holds.get
        for env in buffer.values():
            sender = env.sender
            if blocked is not None and blocked(sender, pid, cycle):
                continue
            send_cycle = env.send_cycle
            hold = get(env.message_id)
            if hold is None:
                hold = holds[env.message_id] = draw(
                    sender, pid, send_cycle, rng
                )
            if expired is not None and expired(send_cycle, cycle):
                continue
            if cycle - send_cycle >= hold and (
                admits is None or admits(pid, env.guaranteed)
            ):
                chosen.append(env)
        return chosen

    return select


def adversary_sweep_supported(adversary) -> bool:
    """Whether the fused sweep can replicate this adversary.

    Requires a *fresh* stock :class:`CycleAdversary` (no overridden
    decision machinery, no consumed state, no simulation attach hook)
    whose delivery policy keeps to the hold contract, i.e. does not
    override ``DeliveryPolicy.select``.  Structural checks run first, so
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
    if adversary._cycle != 0 or adversary._queue or adversary._event_cycles:
        return False
    return _fast_selector(adversary.delivery, adversary.rng) is not None


def _observed() -> bool:
    """Whether an observer (telemetry registry, span recorder) is active.

    Observers see scheduler internals the sweep does not materialise.
    """
    return (
        telemetry.active_registry() is not None
        or trace_spans.active_recorder() is not None
    )


def sweep_gate(adversary) -> bool:
    """Whether a fast-core trial runs on the fused sweep.

    The one eligibility rule, applied by
    :func:`repro.sim.coreselect.run_sim_trial` to every fast-core trial
    (commit trials, the fault campaign's sim track, atlas cells).  A
    declined trial runs on the reference ``Simulation``.  Declining an
    adversary the sweep cannot
    replicate (off the hold contract, scripted, consumed) is a
    performance cliff and is counted in ``sim_fastcore_fallbacks_total``;
    declining because an observer is active is deliberate and is not.
    """
    if not adversary_sweep_supported(adversary):
        telemetry.count(
            "sim_fastcore_fallbacks_total",
            help="fast-core trials that fell back from the fused sweep to "
            "the reference Simulation because the adversary or its delivery policy "
            "overrides what the sweep replicates",
            adversary=type(adversary).__name__,
        )
        return False
    return not _observed()


def sweep_run(programs, adversary, K, t, seed, max_steps):
    """Execute one trial on the fused driver; returns flat run state.

    ``(processes, crashed, envelopes, pid_steps, event_count,
    terminated)``.  This is ``CycleAdversary.decide`` +
    ``Simulation.apply`` fused into one loop over flat structures.
    Every branch mirrors a line of the reference pair; RNG draws go
    through the adversary's own generator in the reference order.  The
    caller has passed :func:`sweep_gate`.
    """
    n = len(programs)
    check_simulation_arguments(programs, K, t, max_steps)

    tapes = TapeCollection(n, seed)
    processes = [
        SimProcess(program, tapes.tape(pid))
        for pid, program in enumerate(programs)
    ]
    key_memo: dict = {}
    for process in processes:
        process.board = _SweepBoard(key_memo)

    select = _fast_selector(adversary.delivery, adversary.rng)
    assert select is not None  # guarded by sweep_gate
    pending_crashes = list(adversary.crash_plan)

    cycle = 0
    queue: list[int] = []
    qpos = 0  # index pointer: queue[qpos:] is the live round-robin tail
    alive = list(range(n))
    crashed: set[int] = set()
    running = n
    event_count = 0
    next_message_id = 0
    buffers: list[dict[int, _FastEnv]] = [{} for _ in range(n)]
    all_envs: list[_FastEnv] = []
    pid_steps: list[list[int]] = [[] for _ in range(n)]
    last_send_event: dict[int, int] = {}
    RUNNING = ProcessStatus.RUNNING
    memo_get = key_memo.get

    while running > 0 and event_count < max_steps:
        if qpos >= len(queue):
            cycle += 1
            queue = alive.copy()
            qpos = 0
        # Crash-plan check (CycleAdversary._due_crash, inlined).
        crash_pid = None
        while pending_crashes:
            entry = pending_crashes[0]
            if entry.cycle > cycle:
                break
            pending_crashes.pop(0)
            if entry.pid not in crashed:
                crash_pid = entry.pid
                break
        if crash_pid is not None:
            queue = [p for p in queue[qpos:] if p != crash_pid]
            qpos = 0
            crashed.add(crash_pid)
            alive.remove(crash_pid)
            process = processes[crash_pid]
            if process.status is RUNNING:
                running -= 1
            process.mark_crashed()
            last_send = last_send_event.get(crash_pid)
            if last_send is not None:
                for buffer in buffers:
                    for env in buffer.values():
                        if (
                            env.sender == crash_pid
                            and env.send_event == last_send
                        ):
                            env.guaranteed = False
            event_count += 1
            continue
        # Pick the stepping processor (round-robin with crash skip).
        while True:
            if qpos >= len(queue):
                cycle += 1
                queue = alive.copy()
                qpos = 0
            pid = queue[qpos]
            qpos += 1
            if pid not in crashed:
                break
        buffer = buffers[pid]
        process = processes[pid]
        delivered = select(pid, buffer, cycle) if buffer else ()
        status_running = process.status is RUNNING
        process.clock += 1
        clock_after = process.clock
        if delivered:
            if len(delivered) == len(buffer):
                buffer.clear()
            else:
                for env in delivered:
                    del buffer[env.message_id]
            for env in delivered:
                env.receive_event = event_count
                env.receive_clock = clock_after
        if status_running:
            process.tape.next_step_value()
            if delivered:
                # Inlined _SweepBoard.post for deliveries: one shared
                # _Entry per (payload, sender), key computed once per
                # payload object.  Self-sends still go through post().
                board = process.board
                entries_append = board._entries.append
                by_key = board._by_key
                senders_by_key = board._senders_by_key
                for env in delivered:
                    sender = env.sender
                    for payload in env.payloads:
                        memo_key = id(payload)
                        hit = memo_get(memo_key)
                        if hit is None:
                            key = getattr(payload, "board_key", None)
                            value = key() if callable(key) else _NO_KEY
                            hit = (payload, value, {})
                            key_memo[memo_key] = hit
                        by_sender = hit[2]
                        entry = by_sender.get(sender)
                        if entry is None:
                            entry = _Entry(sender, payload)
                            by_sender[sender] = entry
                        entries_append(entry)
                        value = hit[1]
                        if value is not _NO_KEY:
                            by_key[value].append(entry)
                            senders_by_key[value].add(sender)
            process._advance()
            if process.status is not RUNNING:
                running -= 1
            if process._outbox:
                for recipient, payloads in process._flush_outbox():
                    env = _FastEnv(
                        next_message_id,
                        pid,
                        recipient,
                        payloads,
                        event_count,
                        clock_after,
                        cycle,
                    )
                    next_message_id += 1
                    buffers[recipient][env.message_id] = env
                    all_envs.append(env)
                last_send_event[pid] = event_count
        # A returned processor keeps absorbing events: its clock ticks and
        # its step still counts for every other message's lateness — but
        # nothing it would post, draw, or flush is observable in metrics.
        pid_steps[pid].append(event_count)
        event_count += 1

    if running > 0:
        _log.warning(
            "step horizon %d reached with processors %s still running "
            "under %s",
            max_steps,
            [
                pid
                for pid, process in enumerate(processes)
                if process.status is RUNNING
            ],
            type(adversary).__name__,
        )
    return processes, crashed, all_envs, pid_steps, event_count, running == 0


def sweep_metrics(programs, processes, crashed, all_envs, pid_steps, event_count, terminated, K):
    """Assemble the :class:`RunMetrics` bundle from flat sweep state.

    Takes ``programs``, then :func:`sweep_run`'s result, then ``K``.
    Field-for-field the computation of ``extract_metrics`` +
    ``metrics_from_run`` on the equivalent ``Run``.
    """
    from repro.analysis.metrics import RunMetrics, stage_statistics

    n = len(processes)
    faulty = set(crashed)
    nonfaulty = set(range(n)) - faulty
    decisions = [process.decision for process in processes]
    decision_clocks = [process.decision_clock for process in processes]
    final_clocks = [process.clock for process in processes]
    delivered = [env for env in all_envs if env.receive_event is not None]

    rounds: int | None = None
    if terminated:
        receipts: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for env in delivered:
            if env.sender in nonfaulty:
                receipts[env.recipient].append(
                    (env.sender, env.send_clock, env.receive_clock)
                )
        try:
            rounds = _flat_max_decision_round(
                n, K, faulty, receipts, decision_clocks, final_clocks
            )
        except AnalysisError:
            rounds = None

    decision_values = {d for d in decisions if d is not None}
    decision = (
        next(iter(decision_values)) if len(decision_values) == 1 else None
    )
    decided_clocks = [c for c in decision_clocks if c is not None]
    on_time = not any(
        _late_flags(
            K,
            pid_steps,
            [env.send_event for env in delivered],
            [env.receive_event for env in delivered],
        )
    )
    return RunMetrics(
        terminated=terminated,
        consistent=len(decision_values) <= 1,
        decision=decision,
        rounds=rounds,
        ticks=max(decided_clocks) if decided_clocks else None,
        first_decision_ticks=min(decided_clocks) if decided_clocks else None,
        messages=len(all_envs),
        events=event_count,
        crashes=len(faulty),
        on_time=on_time,
        **stage_statistics(programs, nonfaulty),
    )
