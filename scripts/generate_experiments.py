#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md by running every experiment at full size.

Usage:  python scripts/generate_experiments.py [--quick]

``--quick`` uses the benchmark-sized workloads (minutes -> seconds) and
writes the document to stdout; only a full-size run writes the committed
EXPERIMENTS.md.  Progress goes to stderr.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.experiments.registry import EXPERIMENTS, run_experiment

#: The committed document, written only by a full-size run.
OUTPUT = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"

#: Per-experiment commentary: what the paper claims vs what to read off
#: the measured table.  The tables themselves are regenerated below.
COMMENTARY = {
    "E1": (
        "**Paper:** Lemma 8 — with `|coins| >= n`, every nonfaulty "
        "processor decides within an expected `E[X] < 4` stages.\n\n"
        "**Measured:** mean decision stage ~2 under both the fair random "
        "scheduler and the camp-splitting pattern adversary, for every "
        "swept `n`; the max observed stage also stays well below the "
        "bound.  The bound is comfortably met: the paper's 4 is a "
        "worst-case expectation over all admissible adversaries, and the "
        "implementable pattern-only adversaries cannot even keep the "
        "protocol from a first-stage majority for long."
    ),
    "E2": (
        "**Paper:** Theorem 10 — all nonfaulty processors decide within "
        "14 expected asynchronous rounds (close to 12 with longer coin "
        "lists).\n\n"
        "**Measured:** 2-4 mean rounds across sizes and adversaries, "
        "max <= 5 — well inside the budget.  The paper's 14 is an "
        "accounting worst case (6 rounds to enter Protocol 1 + 2 per "
        "stage x 4 expected stages); real schedules overlap those "
        "phases heavily."
    ),
    "E3": (
        "**Paper:** Remark 1 — failure-free on-time runs decide within "
        "at most `8K` clock ticks (4K for Protocol 2's preamble, 2K per "
        "Protocol 1 stage).\n\n"
        "**Measured:** the per-run bound held on every trial at every "
        "swept `K`; measured decision ticks are far below the budget "
        "because the synchronous schedule completes each wait in far "
        "fewer than `2K` ticks."
    ),
    "E4": (
        "**Paper:** Remark 2 — on-time (but not failure-free) runs "
        "decide in a constant expected number of clock ticks.\n\n"
        "**Measured:** mean decision ticks grow only mildly with the "
        "crash count (crashes convert commits into timeout-aborts, whose "
        "paths include the 2K timeouts) and are flat in `n` — constant "
        "in the sense of the remark: independent of schedule length, "
        "bounded by a fixed multiple of `K`."
    ),
    "E5": (
        "**Paper:** Remark 3 / Section 3 — the shared coin list is what "
        "lowers Ben-Or's exponential expected time to a constant; more "
        "coins push the Lemma 8 bound from 4 toward 3.\n\n"
        "**Measured:** with `|coins| = 0` (pure Ben-Or) the balancing "
        "attacker drives mean stages into the tens; any `|coins| >= 1` "
        "collapses it to ~2 stages (one balanced stage, then unanimity "
        "on the shared coin).  The 4-vs-3 tail difference the remark "
        "describes is below measurement noise here because the "
        "implementable attacker cannot stretch runs past the first "
        "shared coin."
    ),
    "E6": (
        "**Paper:** Theorem 11 — if more than `t` processors fail, no "
        "two processors make conflicting decisions; the protocol merely "
        "fails to terminate.\n\n"
        "**Measured:** conflict rate 0% at every crash count from 0 to "
        "n-1, including crashes in the middle of broadcasts; termination "
        "is 100% up to `t` crashes and 0% beyond — non-termination is "
        "exactly the failure mode the theorem allows."
    ),
    "E7": (
        "**Paper:** Theorem 14 — there is no t-nonblocking transaction "
        "commit protocol for `n <= 2t` (proved against all protocols; "
        "the proof's schedule operators are property-tested in "
        "`tests/lowerbound/`).\n\n"
        "**Measured:** under the proof's kill-half adversary our "
        "protocol exhibits the sharp threshold: at `n = 2t` every run "
        "blocks (0 terminations) yet stays consistent; at `n = 2t + 1` "
        "every run decides.  The survivors at the bound can fill their "
        "`n - t` waits but can never assemble a `> n/2` majority — the "
        "executable face of the indistinguishability argument."
    ),
    "E8": (
        "**Paper:** Theorem 17 — for any bound `B` some adversary forces "
        "expected decision time past `B` clock ticks; asynchronous "
        "rounds are the right measure because they stretch with message "
        "delay.\n\n"
        "**Measured:** decision ticks grow linearly in the delay "
        "multiplier `D` (about `4D + 2` for n=5) with no ceiling, while "
        "decision rounds stay within a small constant for every `D` — "
        "precisely the separation that motivates the round definition."
    ),
    "E9": (
        "**Paper:** Introduction — 'a single violation of the timing "
        "assumptions (i.e., a late message) can cause the protocol to "
        "produce the wrong answer' for the synchronous-model protocols "
        "[S]/[DS]; Protocol 2 is safe under any timing and trades "
        "commits for aborts instead.\n\n"
        "**Measured:** 2PC with presume-abort timeouts produces "
        "conflicting decisions under late fan-outs and under a "
        "coordinator crash mid-fan-out (every trial of the latter); its "
        "blocking variant never errs but hangs; 3PC errs under late "
        "messages too, and Skeen's decentralized one-phase commit — "
        "never blocking, all-broadcast — splits its decisions in most "
        "late-message runs.  Protocol 2's wrong-answer count is zero "
        "in every environment, as required."
    ),
    "E10": (
        "**Paper:** Section 1/3 — Ben-Or's protocol takes exponential "
        "expected time; supplying all processors with identical coin "
        "flips achieves constant expected time at optimal resilience.\n\n"
        "**Measured:** under the content-reading balancer (the classic "
        "anti-Ben-Or attack, strictly stronger than the paper's "
        "pattern-only adversary), Ben-Or's mean stages grow roughly as "
        "`2^(n-1)` (about 11 / 43 / 144 at n = 4 / 6 / 8) while "
        "Protocol 1 is flat at 2 stages — the balanced stage hands every "
        "processor the same shared coin and unanimity follows.  Under "
        "the pattern-only splitter both finish fast, confirming the "
        "attack needs information the paper's model denies."
    ),
    "E11": (
        "**Paper:** Section 1 — the protocol works as long as more than "
        "half the processors are nonfaulty, which Theorem 14 shows is "
        "optimal.\n\n"
        "**Measured:** across n = 5/7/9 the termination rate is 100% "
        "for every crash count up to `t = ceil(n/2) - 1` and 0% beyond, "
        "with a 0% conflict rate on both sides of the cliff."
    ),
    "E12": (
        "**Paper:** the related-work positioning in Sections 1 and 3 — "
        "Ben-Or [Be] is exponential; Rabin [R] is fast but 'requires a "
        "stronger model with a reliable distributor of coin flips'; "
        "Chor-Merritt-Shmoys [CMS] are fast online but tolerate fewer "
        "than n/6 faults; this paper's coordinator-shipped list is fast "
        "at the optimal t < n/2 with no added trust.\n\n"
        "**Measured (ablation):** the identical stage machinery under "
        "all four coin mechanisms.  Local coins explode under the "
        "balancer; dealer and coordinator lists produce literally "
        "matching rows (their difference is the trust model, visible in "
        "code, not in speed); the CMS-style weak shared coin is also "
        "flat here but its fault envelope column shows the cost: max "
        "t = (n-1)//6 versus (n-1)//2 for the list mechanisms — the "
        "paper's comparison point.  (The weak-shared implementation is "
        "a simplified stand-in; see DESIGN.md substitution notes.)"
    ),
    "E13": (
        "**Paper:** the aside after line 7 of Protocol 2 — 'at this "
        "point, any processor that has abort as its vote can actually "
        "implement the abort.'  Safe because a 0 vote forces every "
        "Protocol 1 input to 0 and validity then fixes the outcome.\n\n"
        "**Measured (ablation):** turning the optimisation on leaves "
        "every decision and consistency figure unchanged while the "
        "*first* processor enters the abort state roughly half the "
        "ticks earlier (before vote collection and the agreement "
        "subroutine rather than after), across no-voter and "
        "timeout-abort scenarios alike."
    ),
    "E14": (
        "**Paper:** the [DS] citation — Dwork and Skeen, 'The Inherent "
        "Cost of Nonblocking Commitment'.  The paper buys robustness "
        "(never a wrong answer, optimal crash tolerance, nonblocking in "
        "expectation) and pays in message complexity: every participant "
        "broadcasts in every exchange.\n\n"
        "**Measured (ablation):** on the same failure-free on-time "
        "schedule, envelopes-per-processor is flat in `n` for "
        "centralized 2PC (~2.5) and 3PC (~4.5) but grows linearly for "
        "the broadcast protocols: decentralized 1PC (one broadcast) "
        "and Protocol 2 (GO relay, vote broadcast, and two broadcasts "
        "per agreement stage — a constant factor above 1PC).  Same "
        "asymptotics as the cheapest decentralized commit, and unlike "
        "it, never a wrong answer — the cost/robustness trade the "
        "introduction and the Dwork-Skeen citation describe."
    ),
}

HEADER = """# EXPERIMENTS — paper vs. measured

Every quantitative claim of *Transaction Commit in a Realistic Fault
Model* (Coan & Lundelius, PODC 1986), reproduced.  The paper has no
numbered tables or figures; its lemmas, theorems, and closing remarks
play that role, and DESIGN.md §3 maps each to the experiment ids used
here.

All tables below are regenerated by this repository:

```
python scripts/generate_experiments.py          # full size (this file)
pytest benchmarks/ --benchmark-only             # quick sizes, same code
```

Numbers are simulator-scale (steps, stages, rounds — not milliseconds on
1986 hardware); the reproduced content is the *shape* of each claim:
which bound holds, who wins, where the thresholds sit.  Every table is
deterministic given the seeds embedded in the experiment code.

"""


def main(argv: list[str] | None = None) -> None:
    quick = "--quick" in (sys.argv[1:] if argv is None else argv)
    sections = [HEADER]
    for experiment_id, info in EXPERIMENTS.items():
        started = time.time()
        print(f"running {experiment_id} ({info.title}) ...", file=sys.stderr)
        table = run_experiment(experiment_id, quick=quick)
        elapsed = time.time() - started
        print(f"  done in {elapsed:.1f}s", file=sys.stderr)
        sections.append(f"## {experiment_id} — {info.title}\n")
        sections.append(COMMENTARY[experiment_id] + "\n")
        sections.append("```")
        sections.append(table.render())
        sections.append("```\n")
    document = "\n".join(sections)
    if quick:
        sys.stdout.write(document)
        return
    OUTPUT.write_text(document, encoding="utf-8")
    print(f"wrote {OUTPUT}", file=sys.stderr)


if __name__ == "__main__":
    main()
