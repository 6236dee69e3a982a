"""Protocol 2 — the randomized transaction commit protocol.

The paper's pseudocode, for processor ``p`` with initial state
``(id, initval)`` and ``vote <- initval``:

1. if ``id = 0`` then call ``flip(n)`` and broadcast results in GO message
2. else wait for a GO message
3. broadcast GO
4. wait for ``n`` GO messages or ``2K`` clock ticks
5. if have not received ``n`` GO messages
6.     then ``vote <- 0``
7. broadcast vote
8. wait for ``n`` vote messages or ``2K`` clock ticks
9. if received ``n`` vote messages for commit
10.    then ``xp <- 1``
11.    else ``xp <- 0``
12. call Protocol 1 with ``xp`` and GO message
13. if Protocol 1 returns 1
14.    then decide COMMIT
15.    else decide ABORT

GO messages are piggybacked on every message sent, including those of
Protocol 1, so receiving *any* message implies receiving a GO message —
the property Theorem 9's nonblocking argument relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.agreement import AgreementStats, agreement_script
from repro.core.coins import CoinList, flip_coin_list
from repro.core.halting import HaltingMode
from repro.core.messages import GoMessage, VoteMessage
from repro.errors import ConfigurationError
from repro.sim.message import Payload
from repro.sim.process import Program
from repro.sim.waits import MessageCount, WithTimeout
from repro.telemetry.log import get_logger
from repro.types import COORDINATOR_ID, Decision, Vote

_log = get_logger("core.commit")


@dataclass
class CommitStats:
    """Telemetry one commit execution leaves behind.

    Attributes:
        go_timed_out: whether the GO collection wait hit its 2K deadline.
        vote_timed_out: whether the vote collection hit its 2K deadline.
        vote_broadcast: the vote actually broadcast at line 7.
        abort_known_clock: clock at which the processor knew abort was
            inevitable (its vote became 0 — the paper notes it "can
            actually implement the abort" here); None if it never did.
        agreement_input: the value fed to Protocol 1 at line 12.
        agreement: the embedded Protocol 1 telemetry.
        decision: the final COMMIT/ABORT decision (None while running).
    """

    go_timed_out: bool = False
    vote_timed_out: bool = False
    vote_broadcast: int | None = None
    abort_known_clock: int | None = None
    early_abort_decided: bool = False
    agreement_input: int | None = None
    agreement: AgreementStats | None = None
    decision: Decision | None = None


def _is_go(payload: Payload) -> bool:
    return isinstance(payload, GoMessage)


def _is_vote(payload: Payload) -> bool:
    return isinstance(payload, VoteMessage)


class CommitProgram(Program):
    """One participant of Protocol 2.

    Args:
        pid: processor id; ``pid == 0`` is the coordinator.
        n: number of processors.
        t: fault tolerance (requires ``n > 2t`` unless
            ``allow_sub_resilience``).
        initial_vote: the processor's initial wish (commit or abort).
        K: the on-time bound; timeouts at lines 4 and 8 are ``2K`` ticks.
        coin_count: coins the coordinator flips for the GO message (the
            paper uses ``n``; larger values trade messages for fewer
            expected stages — Remark 3, experiment E5).
        halting: halting mode of the embedded Protocol 1.
        early_abort: implement the paper's aside at line 7 ("at this
            point, any processor that has abort as its vote can actually
            implement the abort"): enter the abort decision state the
            moment the own vote is 0.  Safe — a 0 vote makes every
            processor's Protocol 1 input 0, so the final decision is
            abort by validity — and it shortens abort latency
            (experiment E13).
    """

    def __init__(
        self,
        pid: int,
        n: int,
        t: int,
        initial_vote: Vote | int,
        K: int,
        coin_count: int | None = None,
        halting: HaltingMode = HaltingMode.DECIDE_BROADCAST,
        allow_sub_resilience: bool = False,
        early_abort: bool = False,
    ) -> None:
        super().__init__(pid, n)
        if K < 1:
            raise ConfigurationError(f"K must be at least 1, got {K}")
        if n <= 2 * t and not allow_sub_resilience:
            raise ConfigurationError(
                f"Protocol 2 requires n > 2t (got n={n}, t={t}); pass "
                f"allow_sub_resilience=True only for lower-bound experiments."
            )
        if coin_count is not None and coin_count < 0:
            raise ConfigurationError(
                f"coin_count must be non-negative, got {coin_count}"
            )
        self.t = t
        self.initial_vote = Vote(int(initial_vote))
        self.K = K
        self.coin_count = n if coin_count is None else coin_count
        self.halting = halting
        self.allow_sub_resilience = allow_sub_resilience
        self.early_abort = early_abort
        self.stats = CommitStats()

    @property
    def is_coordinator(self) -> bool:
        return self.pid == COORDINATOR_ID

    def run(self):
        vote = int(self.initial_vote)
        stats = self.stats

        # Lines 1-2: the coordinator creates the GO message (flipping the
        # shared coins); everyone else waits to hear one.  Because GO is
        # piggybacked on every message, "wait for a GO message" is
        # satisfied by the first message of any kind.
        if self.is_coordinator:
            go = GoMessage(coins=tuple(flip_coin_list(self.flip, self.coin_count).bits))
            self.broadcast(go)
        else:
            yield MessageCount(_is_go, 1, key=("go",))
            go_entries = self.board.by_key(("go",))
            go = go_entries[0].payload

        coins = CoinList.from_bits(go.coins)

        # From now on, piggyback GO on every outgoing envelope (including
        # all Protocol 1 traffic).
        self.set_piggyback(lambda recipient: (go,))

        # Line 3: relay GO ("I am participating in the protocol").
        self.broadcast(go)

        # Lines 4-6: collect GO messages from everyone, or give up after
        # 2K of our own clock ticks and switch the vote to abort.
        go_wait = WithTimeout(
            MessageCount(_is_go, self.n, key=("go",)), ticks=2 * self.K
        )
        yield go_wait
        if go_wait.timed_out(self.board, self.clock):
            stats.go_timed_out = True
            vote = 0
            _log.debug(
                "p%d: GO collection timed out at clock %d; vote -> abort",
                self.pid,
                self.clock,
            )

        # Line 7: broadcast the vote.  A processor whose vote is abort
        # already knows the outcome (abort validity) — the paper notes it
        # "can actually implement the abort" right here.
        if vote == 0 and stats.abort_known_clock is None:
            stats.abort_known_clock = self.clock
            if self.early_abort:
                stats.early_abort_decided = True
                self.decide(int(Decision.ABORT))
        stats.vote_broadcast = vote
        self.broadcast(VoteMessage(vote=vote))

        # Lines 8-11: collect votes, or give up after 2K ticks.
        vote_wait = WithTimeout(
            MessageCount(_is_vote, self.n, key=("vote",)), ticks=2 * self.K
        )
        yield vote_wait
        if vote_wait.timed_out(self.board, self.clock):
            stats.vote_timed_out = True
            _log.debug(
                "p%d: vote collection timed out at clock %d",
                self.pid,
                self.clock,
            )
        commit_voters = {
            entry.sender
            for entry in self.board.by_key(("vote",))
            if entry.payload.vote == 1
        }
        x_input = 1 if len(commit_voters) >= self.n else 0
        stats.agreement_input = x_input

        # Line 12: call Protocol 1 with xp and the GO message's coins.
        stats.agreement = AgreementStats()
        value = yield from agreement_script(
            self,
            t=self.t,
            initial_value=x_input,
            coins=coins,
            halting=self.halting,
            record_decision=False,
            stats=stats.agreement,
            allow_sub_resilience=self.allow_sub_resilience,
        )

        # Lines 13-15: decide the fate of the transaction.
        decision = Decision.from_bit(value)
        stats.decision = decision
        self.decide(int(decision))
        return decision
