"""Online safety monitoring: machine-check the theorems on every trial.

The paper's robustness claims are per-run invariants, so a campaign can
check all of them on every single execution rather than eyeballing
aggregate tables:

* **agreement** (Theorem 11 / the agreement condition) — no two
  processors decide differently, *whatever* the fault schedule, even
  beyond the budget;
* **abort validity** — if any processor voted ABORT, any decision made
  is ABORT;
* **commit validity** — in a benign run (no faults, no loss, on time)
  the decision must be COMMIT when everyone voted COMMIT;
* **nonblocking** (Theorem 9 regime) — when the schedule stays within
  the fault budget and preserves eventual delivery, every nonfaulty
  processor decides.

The first three are *safety* properties: a single violation anywhere
falsifies the paper.  ``nonblocking`` is liveness and is reported in a
separate bucket — with > t crashes the protocol is explicitly allowed
to block (and the monitor expects exactly that: ``nonterminated``, not
conflicting decisions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry import registry as telemetry
from repro.types import Decision

#: Properties whose violation falsifies a safety theorem.
SAFETY_PROPERTIES = ("agreement", "abort_validity", "commit_validity")
#: Properties whose violation falsifies a liveness (termination) claim.
LIVENESS_PROPERTIES = ("nonblocking",)

#: Outcome label of a trial in which every processor owed a decision
#: decided.
TERMINATED = "terminated"
#: Outcome label of a trial stopped by its step horizon or deadline with
#: some processor still undecided (degraded, but never inconsistent).
NONTERMINATED = "nonterminated"


@dataclass(frozen=True)
class Violation:
    """One falsified invariant in one trial."""

    prop: str
    detail: str

    @property
    def is_safety(self) -> bool:
        return self.prop in SAFETY_PROPERTIES

    def to_dict(self) -> dict:
        return {"property": self.prop, "detail": self.detail}


@dataclass
class SafetyReport:
    """All invariant checks of one trial."""

    checked: list[str] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)

    @property
    def safety_ok(self) -> bool:
        return not any(v.is_safety for v in self.violations)

    @property
    def liveness_ok(self) -> bool:
        return not any(not v.is_safety for v in self.violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "checked": list(self.checked),
            "violations": [v.to_dict() for v in self.violations],
            "safety_ok": self.safety_ok,
            "liveness_ok": self.liveness_ok,
        }


class SafetyMonitor:
    """Checks the paper's invariants against one trial's observables.

    Args:
        n: number of processors.
        t: the fault budget the protocol instance was configured with.
        votes: the initial votes, by pid.
    """

    def __init__(self, n: int, t: int, votes: list[int]) -> None:
        if len(votes) != n:
            raise ValueError(f"got {len(votes)} votes for n={n}")
        self.n = n
        self.t = t
        self.votes = list(votes)

    def check(
        self,
        decisions: dict[int, int | None],
        crashed: set[int],
        terminated: bool,
        expect_termination: bool,
        benign: bool = False,
    ) -> SafetyReport:
        """Evaluate every applicable invariant for one trial.

        Args:
            decisions: final decision per pid (``None`` = undecided).
            crashed: pids that fail-stopped during the run.
            terminated: whether every nonfaulty processor returned.
            expect_termination: whether the schedule obliges termination
                (faults within budget and eventual delivery preserved).
            benign: whether the run was failure-free, loss-free, and on
                time — the regime in which commit validity bites.
        """
        report = SafetyReport()
        decided = {
            pid: bit for pid, bit in decisions.items() if bit is not None
        }

        report.checked.append("agreement")
        values = sorted(set(decided.values()))
        if len(values) > 1:
            report.violations.append(
                Violation(
                    prop="agreement",
                    detail=(
                        f"conflicting decisions "
                        f"{ {p: b for p, b in sorted(decided.items())} }"
                    ),
                )
            )

        report.checked.append("abort_validity")
        if any(v == 0 for v in self.votes):
            wrong = sorted(
                pid
                for pid, bit in decided.items()
                if bit != int(Decision.ABORT)
            )
            if wrong:
                report.violations.append(
                    Violation(
                        prop="abort_validity",
                        detail=(
                            f"vote 0 present but pids {wrong} decided COMMIT"
                        ),
                    )
                )

        if benign and all(v == 1 for v in self.votes):
            report.checked.append("commit_validity")
            nonfaulty = [p for p in range(self.n) if p not in crashed]
            wrong = sorted(
                pid
                for pid in nonfaulty
                if decisions.get(pid) != int(Decision.COMMIT)
            )
            if wrong:
                report.violations.append(
                    Violation(
                        prop="commit_validity",
                        detail=(
                            f"benign all-commit run but pids {wrong} did "
                            f"not decide COMMIT"
                        ),
                    )
                )

        if expect_termination:
            report.checked.append("nonblocking")
            if not terminated:
                undecided = sorted(
                    pid
                    for pid in range(self.n)
                    if pid not in crashed and decisions.get(pid) is None
                )
                report.violations.append(
                    Violation(
                        prop="nonblocking",
                        detail=(
                            f"{len(crashed)} <= t={self.t} crashes yet pids "
                            f"{undecided} blocked"
                        ),
                    )
                )

        self._record(report)
        return report

    @staticmethod
    def _record(report: SafetyReport) -> None:
        if not telemetry.enabled():
            return
        violated = {v.prop for v in report.violations}
        for prop in report.checked:
            telemetry.count(
                "safety_checks_total",
                help="per-trial invariant checks, by property and verdict",
                prop=prop,
                ok=prop not in violated,
            )
        for prop in violated:
            telemetry.count(
                "safety_violations_total",
                help="falsified invariants (should stay at zero)",
                prop=prop,
            )
