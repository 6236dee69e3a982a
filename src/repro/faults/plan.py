"""The FaultPlan DSL: declarative, seed-reproducible fault schedules.

A :class:`FaultPlan` describes *what goes wrong* in one protocol run —
crashes, partition windows, per-link loss/duplication/reorder, per-link
delay overrides — independently of *which track executes it*.  The same
plan compiles to a simulator adversary
(:func:`repro.faults.sim_compile.compile_to_adversary`) and runs as
node kills plus bus link faults on the commit service
(:class:`repro.service.cluster.ServiceCluster`), so the paper's
robustness claims can be swept with thousands of seeded schedules on
both tracks and cross-checked.

Time is expressed in abstract **cycles**: one cycle is one round-robin
sweep of the simulator's :class:`~repro.adversary.base.CycleAdversary`,
and maps to one ``tick_interval`` of local stepping on the service
track.  Everything else is probabilities and pids, which both tracks
share natively.

Plans are plain frozen dataclasses with a stable dict form
(:meth:`FaultPlan.to_dict` / :meth:`FaultPlan.from_dict`), so campaign
reports can embed them and any counterexample is replayable from JSON.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CrashFault:
    """Crash ``pid`` at the start of ``cycle``.

    With ``recover_cycle`` left ``None`` this is the paper's fail-stop
    crash: the processor is gone for the rest of the run.  A finite
    ``recover_cycle`` turns it into a *crash-recovery* fault: the
    processor is killed at ``cycle``, loses its volatile state, and is
    restarted at ``recover_cycle`` to replay its durable log and rejoin
    (see :mod:`repro.service`).  Only the service track can execute
    recoveries — the sim compiler rejects such plans.
    """

    pid: int
    cycle: int
    recover_cycle: int | None = None

    def __post_init__(self) -> None:
        if self.pid < 0:
            raise ConfigurationError(f"crash pid must be >= 0, got {self.pid}")
        if self.cycle < 0:
            raise ConfigurationError(
                f"crash cycle must be >= 0, got {self.cycle}"
            )
        if self.recover_cycle is not None and self.recover_cycle <= self.cycle:
            raise ConfigurationError(
                f"recover_cycle {self.recover_cycle} must come after the "
                f"crash cycle {self.cycle}"
            )

    @property
    def permanent(self) -> bool:
        """Whether this crash is fail-stop (the node never returns)."""
        return self.recover_cycle is None


@dataclass(frozen=True)
class PartitionWindow:
    """Block cross-group traffic from ``start_cycle`` until ``heal_cycle``.

    ``groups`` are disjoint pid sets; pids in no listed group form an
    implicit extra group.  The window always heals (``heal_cycle`` is
    finite), preserving the model's eventual-delivery guarantee.
    """

    groups: tuple[tuple[int, ...], ...]
    start_cycle: int
    heal_cycle: int

    def __post_init__(self) -> None:
        if self.heal_cycle < self.start_cycle:
            raise ConfigurationError(
                f"heal_cycle {self.heal_cycle} before start_cycle "
                f"{self.start_cycle}"
            )
        seen: set[int] = set()
        for group in self.groups:
            overlap = seen.intersection(group)
            if overlap:
                raise ConfigurationError(
                    f"partition groups must be disjoint; {sorted(overlap)} "
                    f"appear twice"
                )
            seen.update(group)

    def group_of(self, pid: int) -> int:
        for index, group in enumerate(self.groups):
            if pid in group:
                return index
        return -1

    def severs(self, sender: int, recipient: int, cycle: float) -> bool:
        """Whether this window blocks ``sender -> recipient`` at ``cycle``."""
        if not self.start_cycle <= cycle < self.heal_cycle:
            return False
        return self.group_of(sender) != self.group_of(recipient)


@dataclass(frozen=True)
class LinkLoss:
    """Per-attempt loss behaviour of a directed link.

    Attributes:
        drop: probability one transmission attempt is lost.
        duplicate: probability an attempt is delivered twice.
        reorder: probability an attempt is held long enough to arrive
            behind later traffic.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "reorder"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"LinkLoss.{name} out of [0, 1]: {value}"
                )
        if self.drop >= 1.0:
            raise ConfigurationError(
                "LinkLoss.drop must stay below 1 (eventual delivery)"
            )

    @property
    def clean(self) -> bool:
        return self.drop == 0.0 and self.duplicate == 0.0 and self.reorder == 0.0


@dataclass(frozen=True)
class LinkDelay:
    """Delay override for one directed link, in cycles."""

    sender: int
    recipient: int
    min_cycles: int = 1
    max_cycles: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.min_cycles <= self.max_cycles:
            raise ConfigurationError(
                f"need 0 <= min_cycles <= max_cycles, got "
                f"({self.min_cycles}, {self.max_cycles})"
            )


@dataclass(frozen=True)
class FaultPlan:
    """One complete, seed-reproducible fault schedule for ``n`` processors.

    Attributes:
        n: number of processors the plan targets.
        seed: seed of the fault layer's private randomness (loss draws,
            hold durations); the plan structure itself is explicit.
        crashes: fail-stop schedule.
        partitions: transient partition windows (always healing).
        loss: default loss behaviour of every link.
        link_loss: per-directed-link overrides of ``loss``.
        link_delays: per-directed-link delay overrides, in cycles.
    """

    n: int
    seed: int = 0
    crashes: tuple[CrashFault, ...] = ()
    partitions: tuple[PartitionWindow, ...] = ()
    loss: LinkLoss = field(default_factory=LinkLoss)
    link_loss: tuple[tuple[int, int, LinkLoss], ...] = ()
    link_delays: tuple[LinkDelay, ...] = ()

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ConfigurationError(
                f"need at least one processor, got n={self.n}"
            )
        seen: set[int] = set()
        for crash in self.crashes:
            if crash.pid >= self.n:
                raise ConfigurationError(
                    f"crash pid {crash.pid} out of range for n={self.n}"
                )
            if crash.pid in seen:
                raise ConfigurationError(
                    f"pid {crash.pid} crashes twice in one plan"
                )
            seen.add(crash.pid)
        if len(self.crashes) >= self.n:
            raise ConfigurationError(
                f"cannot crash all {self.n} processors"
            )
        for window in self.partitions:
            for group in window.groups:
                for pid in group:
                    if not 0 <= pid < self.n:
                        raise ConfigurationError(
                            f"partition pid {pid} out of range for n={self.n}"
                        )
        for sender, recipient, _ in self.link_loss:
            if not (0 <= sender < self.n and 0 <= recipient < self.n):
                raise ConfigurationError(
                    f"link ({sender}, {recipient}) out of range for n={self.n}"
                )
        for delay in self.link_delays:
            if not (
                0 <= delay.sender < self.n and 0 <= delay.recipient < self.n
            ):
                raise ConfigurationError(
                    f"link delay ({delay.sender}, {delay.recipient}) out of "
                    f"range for n={self.n}"
                )

    # -- queries -------------------------------------------------------------

    @property
    def crash_count(self) -> int:
        return len(self.crashes)

    @property
    def permanent_crash_count(self) -> int:
        """Crashes with no scheduled recovery (fail-stop losses)."""
        return sum(1 for c in self.crashes if c.permanent)

    @property
    def has_recoveries(self) -> bool:
        """Whether any crash schedules a restart (crash-recovery model)."""
        return any(not c.permanent for c in self.crashes)

    @property
    def entry_count(self) -> int:
        """How many discrete fault ingredients the plan contains.

        One per crash, partition window, per-link loss override, and
        per-link delay override, plus one when the global loss is not
        clean.  This is the size notion the counterexample shrinker
        minimises and reports ("reduced to a 2-entry plan").
        """
        return (
            len(self.crashes)
            + len(self.partitions)
            + len(self.link_loss)
            + len(self.link_delays)
            + (0 if self.loss.clean else 1)
        )

    def within_budget(self, t: int) -> bool:
        """Whether the plan stays inside the fault budget ``t``.

        Only *permanent* (fail-stop) crashes consume the budget: a crash
        with a scheduled recovery returns the node to service, so in the
        crash-recovery model it reads as a long pause, not a loss.  For
        plans without recoveries this is the original
        ``crash_count <= t``.
        """
        return self.permanent_crash_count <= t

    def guarantees_termination(self, t: int) -> bool:
        """Whether the paper obliges this schedule to terminate.

        True when the plan is within the fault budget *and* the
        coordinator's GO fan-out is guaranteed to escape.  Two schedule
        shapes void that guarantee: crashing the coordinator at cycle 0
        (the transaction dies before any processor learns it exists),
        and crashing it while a partition window that opened before the
        crash severs it from a peer — retransmission dies with the
        coordinator, so a fan-out the partition swallowed is lost
        forever and nobody is left holding a GO to relay.  In both
        regimes nobody is required to decide, like the paper's
        processors that never receive the transaction.  Outside them,
        both compilers preserve eventual delivery (finite holds,
        healing partitions, retransmission while the sender lives).

        A coordinator crash with a scheduled *recovery* voids neither
        shape: the restarted coordinator replays its durable log and
        re-sends every unacknowledged envelope (including a GO fan-out
        it never managed to send), so the transaction always escapes —
        the nonblocking claim extends to such plans on the service
        track.
        """
        if not self.within_budget(t):
            return False
        coordinator_crash = next(
            (c for c in self.crashes if c.pid == 0), None
        )
        if coordinator_crash is None or not coordinator_crash.permanent:
            return True
        if coordinator_crash.cycle < 1:
            return False
        for window in self.partitions:
            if window.start_cycle < coordinator_crash.cycle and any(
                window.severs(0, pid, window.start_cycle)
                for pid in range(1, self.n)
            ):
                return False
        return True

    def loss_for(self, sender: int, recipient: int) -> LinkLoss:
        """The loss behaviour of one directed link."""
        for s, r, loss in self.link_loss:
            if s == sender and r == recipient:
                return loss
        return self.loss

    def delay_for(self, sender: int, recipient: int) -> LinkDelay | None:
        """The delay override of one directed link, if any."""
        for delay in self.link_delays:
            if delay.sender == sender and delay.recipient == recipient:
                return delay
        return None

    def severed(self, sender: int, recipient: int, cycle: float) -> bool:
        """Whether any partition window blocks the link at ``cycle``."""
        return any(
            w.severs(sender, recipient, cycle) for w in self.partitions
        )

    @property
    def last_disruption_cycle(self) -> int:
        """Last cycle at which the plan itself changes the network."""
        latest = 0
        for crash in self.crashes:
            latest = max(latest, crash.cycle)
        for window in self.partitions:
            latest = max(latest, window.heal_cycle)
        return latest

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """A stable, JSON-safe dict form (sorted, no sets)."""
        return {
            "n": self.n,
            "seed": self.seed,
            "crashes": [
                # recover_cycle is emitted only when set, so fail-stop
                # plans keep their v1 byte-identical JSON form.
                {"pid": c.pid, "cycle": c.cycle}
                if c.permanent
                else {
                    "pid": c.pid,
                    "cycle": c.cycle,
                    "recover_cycle": c.recover_cycle,
                }
                for c in self.crashes
            ],
            "partitions": [
                {
                    "groups": [sorted(g) for g in w.groups],
                    "start_cycle": w.start_cycle,
                    "heal_cycle": w.heal_cycle,
                }
                for w in self.partitions
            ],
            "loss": _loss_dict(self.loss),
            "link_loss": [
                {
                    "sender": s,
                    "recipient": r,
                    "loss": _loss_dict(loss),
                }
                for s, r, loss in self.link_loss
            ],
            "link_delays": [
                {
                    "sender": d.sender,
                    "recipient": d.recipient,
                    "min_cycles": d.min_cycles,
                    "max_cycles": d.max_cycles,
                }
                for d in self.link_delays
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        return cls(
            n=data["n"],
            seed=data.get("seed", 0),
            crashes=tuple(
                CrashFault(
                    pid=c["pid"],
                    cycle=c["cycle"],
                    recover_cycle=c.get("recover_cycle"),
                )
                for c in data.get("crashes", ())
            ),
            partitions=tuple(
                PartitionWindow(
                    groups=tuple(tuple(g) for g in w["groups"]),
                    start_cycle=w["start_cycle"],
                    heal_cycle=w["heal_cycle"],
                )
                for w in data.get("partitions", ())
            ),
            loss=_loss_from(data.get("loss", {})),
            link_loss=tuple(
                (
                    entry["sender"],
                    entry["recipient"],
                    _loss_from(entry["loss"]),
                )
                for entry in data.get("link_loss", ())
            ),
            link_delays=tuple(
                LinkDelay(
                    sender=d["sender"],
                    recipient=d["recipient"],
                    min_cycles=d["min_cycles"],
                    max_cycles=d["max_cycles"],
                )
                for d in data.get("link_delays", ())
            ),
        )

    # -- randomized generation ------------------------------------------------

    @classmethod
    def random(
        cls,
        n: int,
        t: int,
        seed: int,
        K: int = 4,
        over_budget: bool = False,
        max_drop: float = 0.3,
        max_duplicate: float = 0.25,
        max_reorder: float = 0.3,
        partition_probability: float = 0.5,
        link_override_probability: float = 0.3,
        recovery_probability: float = 0.0,
    ) -> "FaultPlan":
        """Draw one randomized plan, fully determined by ``seed``.

        With ``over_budget`` the crash count is drawn from
        ``t + 1 .. n - 1`` (the graceful-degradation regime); otherwise
        from ``0 .. t``.  Loss probabilities stay bounded away from 1
        and partitions always heal, so within-budget plans preserve
        eventual delivery — the regime in which the protocol must both
        stay safe *and* terminate.

        ``recovery_probability`` turns each crash, independently, into a
        kill/recover pair (``recover_cycle`` a few cycles after the
        kill) — the crash-recovery regime only the service track can
        execute.  The recovery draws happen strictly after every
        fail-stop draw, so plans with ``recovery_probability == 0``
        reproduce the historical stream byte-for-byte.
        """
        rng = random.Random(seed)
        if over_budget:
            low, high = t + 1, n - 1
        else:
            low, high = 0, t
        crash_count = rng.randint(low, min(high, n - 1)) if high >= low else 0
        victims = rng.sample(range(n), crash_count)
        # Within-budget plans must keep the termination guarantee, so the
        # coordinator (pid 0) is never crashed before its GO fan-out; an
        # extra cycle of margin keeps both compilations comfortably clear
        # of the boundary.  Over-budget plans may kill it at cycle 0.
        crashes = tuple(
            CrashFault(
                pid=pid,
                cycle=rng.randint(2 if pid == 0 and not over_budget else 0, 3 * K),
            )
            for pid in victims
        )
        partitions: tuple[PartitionWindow, ...] = ()
        if n >= 2 and rng.random() < partition_probability:
            members = rng.sample(range(n), rng.randint(1, n - 1))
            start = rng.randint(0, 2 * K)
            duration = rng.randint(1, 2 * K)
            if not over_budget:
                # Within-budget plans must keep the termination
                # guarantee: a window opening before a coordinator
                # crash could swallow its entire GO fan-out (see
                # guarantees_termination), so shift the window to open
                # no earlier than the crash.
                coordinator_crash = next(
                    (c.cycle for c in crashes if c.pid == 0), None
                )
                if coordinator_crash is not None:
                    start = max(start, coordinator_crash)
            partitions = (
                PartitionWindow(
                    groups=(tuple(sorted(members)),),
                    start_cycle=start,
                    heal_cycle=start + duration,
                ),
            )
        loss = LinkLoss(
            drop=rng.uniform(0, max_drop),
            duplicate=rng.uniform(0, max_duplicate),
            reorder=rng.uniform(0, max_reorder),
        )
        link_loss: tuple[tuple[int, int, LinkLoss], ...] = ()
        if n >= 2 and rng.random() < link_override_probability:
            sender, recipient = rng.sample(range(n), 2)
            link_loss = (
                (
                    sender,
                    recipient,
                    LinkLoss(
                        drop=rng.uniform(0, max_drop),
                        duplicate=rng.uniform(0, max_duplicate),
                        reorder=rng.uniform(0, max_reorder),
                    ),
                ),
            )
        link_delays: tuple[LinkDelay, ...] = ()
        if n >= 2 and rng.random() < link_override_probability:
            sender, recipient = rng.sample(range(n), 2)
            lo = rng.randint(1, K)
            link_delays = (
                LinkDelay(
                    sender=sender,
                    recipient=recipient,
                    min_cycles=lo,
                    max_cycles=lo + rng.randint(0, K),
                ),
            )
        if recovery_probability > 0:
            recovered = []
            for crash in crashes:
                if rng.random() >= recovery_probability:
                    recovered.append(crash)
                    continue
                cycle = crash.cycle
                if crash.pid == 0 and not over_budget:
                    # The within-budget draw keeps a fail-stop
                    # coordinator clear of cycle 0; a recovering one
                    # may die at any point — including before its GO
                    # fan-out — and must still drive the transaction
                    # home after replay.
                    cycle = rng.randint(0, 3 * K)
                recovered.append(
                    CrashFault(
                        pid=crash.pid,
                        cycle=cycle,
                        recover_cycle=cycle + rng.randint(1, 3 * K),
                    )
                )
            crashes = tuple(recovered)
        return cls(
            n=n,
            seed=seed,
            crashes=crashes,
            partitions=partitions,
            loss=loss,
            link_loss=link_loss,
            link_delays=link_delays,
        )


def _loss_dict(loss: LinkLoss) -> dict:
    return {
        "drop": loss.drop,
        "duplicate": loss.duplicate,
        "reorder": loss.reorder,
    }


def _loss_from(data: dict) -> LinkLoss:
    return LinkLoss(
        drop=data.get("drop", 0.0),
        duplicate=data.get("duplicate", 0.0),
        reorder=data.get("reorder", 0.0),
    )
