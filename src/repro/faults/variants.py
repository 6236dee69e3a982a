"""Protocol variants a campaign can host, including intentionally broken ones.

The fault campaign's job is to *detect* safety violations, but a
detector is only trustworthy if it demonstrably fires on a buggy
protocol.  This module keeps a small registry of program variants a
:class:`~repro.faults.campaign.CampaignConfig` can select by name:

* ``commit`` — the paper's Protocol 2 (:class:`CommitProgram`), the
  default and the thing the repo exists to validate;
* ``broken-commit`` — :class:`BrokenCommitProgram`, a deliberately
  faulty variant carrying the classic two-phase-commit mistake: on a
  vote-collection timeout it *unilaterally decides its own vote* instead
  of feeding 0 into the agreement subprotocol.  Under any schedule that
  makes one commit-voting processor time out while another learns of an
  abort vote (a single crash or partition window suffices), the cluster
  splits into COMMIT and ABORT — violating agreement and abort validity;
* ``twopc`` / ``twopc-block`` / ``threepc`` — the in-repo baseline
  protocols (:mod:`repro.protocols`), adapted to the variant-builder
  signature so campaigns, the model checker, and the degradation atlas
  (:mod:`repro.models.atlas`) can sweep them under any timing model.
  ``twopc`` presumes abort on a decision timeout (safe against blocking,
  unsafe against late decisions); ``twopc-block`` waits forever — the
  textbook blocking behaviour the paper's Protocol 2 exists to avoid;
  ``threepc`` is the non-blocking-under-synchrony baseline.

The broken variant is the end-to-end fixture for the counterexample
pipeline (:mod:`repro.counterexample`): campaigns against it must find a
violation, the shrinker must reduce the violating FaultPlan to one or
two entries, and replay must reproduce the violating run byte-for-byte.
Variant names travel inside campaign configs and replay artifacts, so
entries must stay picklable module-level classes with stable names.
"""

from __future__ import annotations

from typing import Any

from repro.core.agreement import AgreementStats, agreement_script
from repro.core.coins import CoinList, flip_coin_list
from repro.core.commit import CommitProgram, _is_go, _is_vote
from repro.core.messages import GoMessage, VoteMessage
from repro.errors import ConfigurationError
from repro.sim.process import Program
from repro.sim.waits import MessageCount, WithTimeout
from repro.types import Decision


class BrokenCommitProgram(CommitProgram):
    """Protocol 2 with a planted decide-own-vote-on-timeout bug.

    Lines 1-11 match :class:`CommitProgram`.  The bug replaces lines
    12-15: when the vote collection at line 8 times out, the processor
    skips Protocol 1 entirely and decides whatever its own vote happens
    to be.  A processor still holding vote 1 then decides COMMIT even
    though some other processor may have voted (or flipped to) 0 and
    decided ABORT — exactly the disagreement the agreement subprotocol
    exists to prevent.
    """

    def run(self):
        vote = int(self.initial_vote)
        if self.is_coordinator:
            go = GoMessage(
                coins=tuple(flip_coin_list(self.flip, self.coin_count).bits)
            )
            self.broadcast(go)
        else:
            yield MessageCount(_is_go, 1, key=("go",))
            go = self.board.by_key(("go",))[0].payload
        coins = CoinList.from_bits(go.coins)
        self.set_piggyback(lambda recipient: (go,))
        self.broadcast(go)

        go_wait = WithTimeout(
            MessageCount(_is_go, self.n, key=("go",)), ticks=2 * self.K
        )
        yield go_wait
        if go_wait.timed_out(self.board, self.clock):
            vote = 0
        self.broadcast(VoteMessage(vote=vote))

        vote_wait = WithTimeout(
            MessageCount(_is_vote, self.n, key=("vote",)), ticks=2 * self.K
        )
        yield vote_wait
        if vote_wait.timed_out(self.board, self.clock):
            # THE BUG: a timed-out processor decides unilaterally instead
            # of entering Protocol 1 with input 0.
            decision = Decision.from_bit(vote)
            self.decide(int(decision))
            return decision
        commit_voters = {
            entry.sender
            for entry in self.board.by_key(("vote",))
            if entry.payload.vote == 1
        }
        x_input = 1 if len(commit_voters) >= self.n else 0
        self.stats.agreement = AgreementStats()
        value = yield from agreement_script(
            self,
            t=self.t,
            initial_value=x_input,
            coins=coins,
            halting=self.halting,
            record_decision=False,
            stats=self.stats.agreement,
            allow_sub_resilience=self.allow_sub_resilience,
        )
        decision = Decision.from_bit(value)
        self.decide(int(decision))
        return decision


def twopc_program(
    pid: int,
    n: int,
    t: int,
    initial_vote: int,
    K: int,
    allow_sub_resilience: bool = True,
) -> Program:
    """2PC with the presume-abort timeout (``t`` is accepted, unused)."""
    from repro.protocols.twopc import TimeoutAction, TwoPCProgram

    return TwoPCProgram(
        pid=pid,
        n=n,
        initial_vote=initial_vote,
        K=K,
        timeout_action=TimeoutAction.PRESUME_ABORT,
    )


def twopc_blocking_program(
    pid: int,
    n: int,
    t: int,
    initial_vote: int,
    K: int,
    allow_sub_resilience: bool = True,
) -> Program:
    """2PC with the blocking timeout — waits forever on a lost decision."""
    from repro.protocols.twopc import TimeoutAction, TwoPCProgram

    return TwoPCProgram(
        pid=pid,
        n=n,
        initial_vote=initial_vote,
        K=K,
        timeout_action=TimeoutAction.BLOCK,
    )


def threepc_program(
    pid: int,
    n: int,
    t: int,
    initial_vote: int,
    K: int,
    allow_sub_resilience: bool = True,
) -> Program:
    """Three-phase commit (``t`` is accepted, unused)."""
    from repro.protocols.threepc import ThreePCProgram

    return ThreePCProgram(pid=pid, n=n, initial_vote=initial_vote, K=K)


#: Registered program variants, by the name campaign configs carry.
#: Values are *builders*: callables accepting the uniform keyword
#: signature ``(pid, n, t, initial_vote, K, allow_sub_resilience)`` —
#: the commit-family classes take it natively, the baseline protocols
#: through the adapter functions above.  Builders must stay picklable
#: module-level objects with stable names (they travel inside campaign
#: configs and replay artifacts).
PROGRAM_VARIANTS: dict[str, Any] = {
    "commit": CommitProgram,
    "broken-commit": BrokenCommitProgram,
    "twopc": twopc_program,
    "twopc-block": twopc_blocking_program,
    "threepc": threepc_program,
}


def resolve_variant(name: str) -> Any:
    """Look up a variant builder; raises on unknown names."""
    try:
        return PROGRAM_VARIANTS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown program variant {name!r}; choose from "
            f"{sorted(PROGRAM_VARIANTS)}"
        ) from None


def make_programs(
    variant: str, n: int, t: int, votes: list[int] | tuple[int, ...], K: int
) -> list[Program]:
    """Instantiate one program per pid for the named variant."""
    build = resolve_variant(variant)
    return [
        build(
            pid=pid,
            n=n,
            t=t,
            initial_vote=vote,
            K=K,
            allow_sub_resilience=True,
        )
        for pid, vote in enumerate(votes)
    ]
