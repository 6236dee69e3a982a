"""Adversary choice-point enumeration and the independence relation.

At every explored state the adversary owns three kinds of choice:

* **crash** a running processor (while the crash budget lasts);
* **step** a running processor below the cycle bound, delivering any
  budget-feasible subset of its pending envelopes.  Withholding a
  *guaranteed* envelope costs one unit of delay budget per step and
  permanently marks the envelope late (bounded by ``max_late``);
  withholding a *non-guaranteed* envelope — one sent at a crashed
  sender's final step — is free, exactly the paper's crash semantics.

Enumeration order is deterministic (crashes by pid, then steps by pid
with the withheld set growing from empty), so exploration reports are
reproducible bit for bit.

The independence relation drives sleep-set partial-order reduction and
is deliberately conservative: two transitions are declared independent
only when executing them in either order provably reaches the same
canonical state *and* consumes the same budgets, and when neither can
change the other's enabled choice set.  Concretely:

* transitions of the same processor are dependent;
* two crashes are independent (the crash set is unordered and each
  only flips guarantees of its own victim's envelopes);
* ``crash(c)`` vs ``step(p, D)`` are independent unless ``p``'s buffer
  holds any envelope from ``c`` — the crash would flip the guarantee
  of ``c``'s final-step envelopes, changing what the step may withhold
  for free.  The step *sending to* ``c`` is harmless: the scheduler
  enqueues to crashed recipients unchanged, and a crash only flips
  envelopes that are still pending *from* its victim;
* two steps are independent when neither sends to the other and at
  most one of them spends delay budget (two spenders race for the same
  global budget, which changes the other's feasible subsets).  Sends
  to a *common* recipient commute under the same-step delivery-order
  symmetry the fingerprint abstracts over (see
  :mod:`repro.mc.fingerprint`): either order leaves the recipient's
  buffer holding the same envelope set, which is the same canonical
  state.

Independence is judged against canonical states, so "commute" means
"reach fingerprint-equal states" — exactly the equivalence the visited
set deduplicates by.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.mc.config import MCConfig
from repro.mc.fingerprint import LateKey
from repro.models import mcfilter
from repro.sim.decisions import CrashDecision, Decision, StepDecision
from repro.sim.scheduler import Simulation
from repro.types import ProcessStatus

#: Canonical descriptor of a transition, stable across commuting
#: reorderings: ``("crash", pid)`` or ``("step", pid, frozenset of
#: (sender, send_clock) delivered)``.
TransitionKey = tuple


@dataclass(frozen=True)
class Choice:
    """One enabled adversary transition at a concrete state.

    Attributes:
        decision: the scheduler decision realising the transition.
        key: canonical :data:`TransitionKey` for sleep-set matching.
        cost: delay budget consumed (guaranteed envelopes withheld).
        late_marks: late keys newly charged by this transition.
        touched_senders: senders of *all* envelopes pending for the
            stepped processor (delivered and withheld) — the crash
            victims whose guarantee flips would change this step.
    """

    decision: Decision
    key: TransitionKey
    cost: int = 0
    late_marks: frozenset[LateKey] = frozenset()
    touched_senders: frozenset[int] = frozenset()


@dataclass(frozen=True)
class TransitionInfo:
    """What a transition did, recorded at its first execution.

    Valid for the whole subtree in which the transition sleeps: any
    dependent transition wakes it, so its buffer view, sends, and cost
    cannot drift while it stays asleep.
    """

    kind: str
    pid: int
    key: TransitionKey
    sends: frozenset[int]
    touched_senders: frozenset[int]
    spends_budget: bool


def independent(a: TransitionInfo, b: TransitionInfo) -> bool:
    """Whether two transitions commute (see the module docstring)."""
    if a.pid == b.pid:
        return False
    if a.kind == "crash" and b.kind == "crash":
        return True
    if a.kind == "crash":
        return _crash_step_independent(a.pid, b)
    if b.kind == "crash":
        return _crash_step_independent(b.pid, a)
    if a.pid in b.sends or b.pid in a.sends:
        return False
    if a.spends_budget and b.spends_budget:
        return False
    return True


def _crash_step_independent(victim: int, step: TransitionInfo) -> bool:
    return victim != step.pid and victim not in step.touched_senders


def enumerate_choices(
    sim: Simulation,
    config: MCConfig,
    delay_spent: int,
    late_keys: frozenset[LateKey],
) -> list[Choice]:
    """All enabled transitions at ``sim``'s state, in canonical order.

    Crashes target RUNNING processors only: crashing a processor whose
    program already returned cannot change its (absorbing) decision,
    and in the paper's model the messages of a processor's final
    *sending* step are exactly what a crash un-guarantees — a bound
    restriction documented in ``docs/MODELCHECK.md``.  Steps likewise
    target RUNNING processors: a returned processor's steps only
    absorb messages and can never influence any decision.

    The skew bound never interacts unsoundly with sleep sets: a step
    or crash can only *raise* the slowest running clock, so executing
    one transition can enable a skew-blocked step but never disable an
    enabled one — a sleeping (hence enabled) transition stays enabled
    for as long as it sleeps.
    """
    choices: list[Choice] = []
    running = [
        pid
        for pid in range(sim.n)
        if sim.processes[pid].status is ProcessStatus.RUNNING
    ]
    if len(sim.crashed_frozen()) < config.crash_budget:
        for pid in running:
            choices.append(
                Choice(decision=CrashDecision(pid=pid), key=("crash", pid))
            )
    budget_left = config.delay_budget - delay_spent
    slowest = min(
        (sim.processes[pid].clock for pid in running), default=0
    )
    if config.order == "rr" and running:
        # Canonical slowest-first round-robin: only the slowest running
        # processor (ties to the lowest pid) may step.  Self-correcting
        # across crashes — the round simply shrinks to the survivors.
        steppers = [
            min(running, key=lambda p: (sim.processes[p].clock, p))
        ]
    else:
        steppers = running
    classifier = mcfilter.classifier_for(config)
    for pid in steppers:
        if sim.processes[pid].clock >= config.max_cycles:
            continue
        if (
            config.max_skew is not None
            and sim.processes[pid].clock - slowest >= config.max_skew
        ):
            continue
        pending = list(sim.buffers[pid])
        touched = frozenset(env.sender for env in pending)
        if classifier is not None:
            choices.extend(
                _classified_steps(
                    classifier,
                    sim,
                    config,
                    pid,
                    pending,
                    touched,
                    budget_left,
                    late_keys,
                )
            )
            continue
        guaranteed = [i for i, env in enumerate(pending) if env.guaranteed]
        free = [i for i, env in enumerate(pending) if not env.guaranteed]
        for g_count in range(min(len(guaranteed), budget_left) + 1):
            for withheld_g in combinations(guaranteed, g_count):
                marks = frozenset(
                    (pending[i].sender, pending[i].send_clock, pid)
                    for i in withheld_g
                )
                if len(late_keys | marks) > config.max_late:
                    continue
                for f_count in range(len(free) + 1):
                    for withheld_f in combinations(free, f_count):
                        withheld = set(withheld_g) | set(withheld_f)
                        delivered = [
                            env
                            for i, env in enumerate(pending)
                            if i not in withheld
                        ]
                        choices.append(
                            Choice(
                                decision=StepDecision(
                                    pid=pid,
                                    deliver=tuple(
                                        env.message_id for env in delivered
                                    ),
                                ),
                                key=(
                                    "step",
                                    pid,
                                    frozenset(
                                        (env.sender, env.send_clock)
                                        for env in delivered
                                    ),
                                ),
                                cost=g_count,
                                late_marks=marks,
                                touched_senders=touched,
                            )
                        )
    return choices


def _classified_steps(
    classifier,
    sim: Simulation,
    config: MCConfig,
    pid: int,
    pending: list,
    touched: frozenset[int],
    budget_left: int,
    late_keys: frozenset[LateKey],
) -> list[Choice]:
    """Step choices for ``pid`` under a timing-model classifier.

    The classifier partitions the pending buffer: ``DROP``/``DEFER``
    envelopes are forcibly withheld (no cost, no marks), ``MUST_DELIVER``
    envelopes are forcibly delivered, non-guaranteed envelopes stay
    freely withholdable (the paper's crash semantics survive every
    model), ``FREE`` envelopes are withholdable at zero delay cost but
    still charged late marks, and ``NORMAL`` envelopes keep the
    realistic cost model.  Enumeration order matches the realistic
    branch (withheld sets grow from empty) so reports are deterministic.
    """
    clock = sim.processes[pid].clock
    excluded: set[int] = set()
    normal: list[int] = []
    free_marked: list[int] = []
    free: list[int] = []
    for i, env in enumerate(pending):
        cls = classifier.classify(env, pid, clock)
        if cls in (mcfilter.DROP, mcfilter.DEFER):
            excluded.add(i)
        elif not env.guaranteed:
            free.append(i)
        elif cls == mcfilter.MUST_DELIVER:
            pass  # always delivered
        elif cls == mcfilter.FREE:
            free_marked.append(i)
        else:
            normal.append(i)
    choices: list[Choice] = []
    for g_count in range(min(len(normal), budget_left) + 1):
        for withheld_g in combinations(normal, g_count):
            for m_count in range(len(free_marked) + 1):
                for withheld_m in combinations(free_marked, m_count):
                    marks = frozenset(
                        (pending[i].sender, pending[i].send_clock, pid)
                        for i in withheld_g + withheld_m
                    )
                    if len(late_keys | marks) > config.max_late:
                        continue
                    for f_count in range(len(free) + 1):
                        for withheld_f in combinations(free, f_count):
                            withheld = (
                                set(withheld_g)
                                | set(withheld_m)
                                | set(withheld_f)
                                | excluded
                            )
                            delivered = [
                                env
                                for i, env in enumerate(pending)
                                if i not in withheld
                            ]
                            choices.append(
                                Choice(
                                    decision=StepDecision(
                                        pid=pid,
                                        deliver=tuple(
                                            env.message_id
                                            for env in delivered
                                        ),
                                    ),
                                    key=(
                                        "step",
                                        pid,
                                        frozenset(
                                            (env.sender, env.send_clock)
                                            for env in delivered
                                        ),
                                    ),
                                    cost=g_count,
                                    late_marks=marks,
                                    touched_senders=touched,
                                )
                            )
    return choices


def transition_info(choice: Choice, sim_after: Simulation) -> TransitionInfo:
    """Record a transition's observed effect right after applying it."""
    if isinstance(choice.decision, CrashDecision):
        sends: frozenset[int] = frozenset()
    else:
        sends = sim_after.last_event_recipients()
    return TransitionInfo(
        kind=choice.key[0],
        pid=choice.decision.pid,
        key=choice.key,
        sends=sends,
        touched_senders=choice.touched_senders,
        spends_budget=bool(choice.cost or choice.late_marks),
    )
