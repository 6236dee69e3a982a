"""Run verification: check every paper condition on one recorded run.

``verify_commit_run`` takes a run (plus the initial votes it started
from) and checks the complete battery:

* **agreement** — at most one decision value;
* **abort validity** — some initial 0 and deciding ⇒ all abort;
* **commit validity** — all 1, failure-free, on-time, deciding ⇒ all
  commit;
* **decision permanence** — every processor's decision, once recorded,
  never changes across the trace;
* **output coherence** — returned programs' outputs equal decisions;
* **remark-1 budget** — failure-free on-time runs decided within 8K.

The result is a structured :class:`VerificationReport`, so fuzzing
harnesses and CI checks can assert on individual conditions and print
actionable failures.

The battery reads the :class:`~repro.sim.trace.Run`, not the flat
:class:`~repro.sim.trace.TrialRecord` of the trial: decision permanence
needs the per-event decisions and output coherence the program
statuses and outputs, which the record does not hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.sim.trace import Run
from repro.types import Decision, ProcessStatus


@dataclass(frozen=True)
class Verdict:
    """One checked condition."""

    condition: str
    holds: bool
    applicable: bool
    detail: str = ""

    @property
    def violated(self) -> bool:
        return self.applicable and not self.holds


@dataclass
class VerificationReport:
    """Outcome of the full condition battery for one run."""

    verdicts: list[Verdict] = field(default_factory=list)

    def add(
        self, condition: str, holds: bool, applicable: bool = True, detail: str = ""
    ) -> None:
        self.verdicts.append(
            Verdict(
                condition=condition,
                holds=holds,
                applicable=applicable,
                detail=detail,
            )
        )

    @property
    def ok(self) -> bool:
        """Whether no applicable condition was violated."""
        return not any(v.violated for v in self.verdicts)

    def violations(self) -> list[Verdict]:
        return [v for v in self.verdicts if v.violated]

    def render(self) -> str:
        lines = []
        for verdict in self.verdicts:
            if not verdict.applicable:
                status = "n/a "
            elif verdict.holds:
                status = "ok  "
            else:
                status = "FAIL"
            detail = f"  ({verdict.detail})" if verdict.detail else ""
            lines.append(f"[{status}] {verdict.condition}{detail}")
        return "\n".join(lines)


def verify_commit_run(
    run: Run, initial_votes: Sequence[int]
) -> VerificationReport:
    """Check the full commit-problem condition battery on ``run``."""
    if len(initial_votes) != run.n:
        raise ValueError(
            f"run has n={run.n} but {len(initial_votes)} votes were given"
        )
    report = VerificationReport()
    nonfaulty = run.nonfaulty()
    deciding = run.is_deciding()
    values = run.decision_values()

    # Agreement: at most one decision value, counting crashed deciders
    # (a processor that decided and then crashed may have externalized).
    report.add(
        "agreement (at most one decision value)",
        holds=len(values) <= 1,
        detail=f"values={sorted(values)}" if values else "no decisions",
    )

    # Abort validity.
    has_no_vote = any(v == 0 for v in initial_votes)
    abort_ok = all(
        run.decisions[pid] in (None, int(Decision.ABORT)) for pid in nonfaulty
    )
    report.add(
        "abort validity (any initial 0 => abort)",
        holds=abort_ok,
        applicable=has_no_vote,
        detail="some nonfaulty processor decided commit"
        if has_no_vote and not abort_ok
        else "",
    )

    # Commit validity.
    well_behaved = (
        deciding
        and not has_no_vote
        and not run.faulty()
        and run.is_on_time()
    )
    commit_ok = all(
        run.decisions[pid] == int(Decision.COMMIT) for pid in nonfaulty
    )
    report.add(
        "commit validity (all 1 + failure-free + on-time => commit)",
        holds=commit_ok,
        applicable=well_behaved,
        detail="" if commit_ok else "a well-behaved run did not commit",
    )

    # Decision permanence across the trace.
    permanent = True
    seen: dict[int, int] = {}
    for event in run.events:
        decision = event.decision_after
        if decision is None:
            continue
        previous = seen.get(event.actor)
        if previous is not None and previous != decision:
            permanent = False
            break
        seen[event.actor] = decision
    report.add(
        "decision permanence (decision states are absorbing)",
        holds=permanent,
    )

    # Output coherence for returned programs.
    coherent = True
    for pid, status in run.statuses.items():
        if status is not ProcessStatus.RETURNED:
            continue
        output = run.outputs.get(pid)
        decision = run.decisions.get(pid)
        if decision is not None and output is not None:
            if int(output) != decision:
                coherent = False
    report.add(
        "output coherence (program return value equals decision)",
        holds=coherent,
    )

    # Remark 1's 8K budget on well-behaved runs.
    budget_ok = True
    max_clock = run.max_decision_clock()
    if well_behaved and max_clock is not None:
        budget_ok = max_clock <= 8 * run.K
    report.add(
        "remark-1 budget (failure-free on-time decide within 8K)",
        holds=budget_ok,
        applicable=well_behaved,
        detail=f"decided at tick {max_clock}, budget {8 * run.K}"
        if well_behaved
        else "",
    )
    return report
