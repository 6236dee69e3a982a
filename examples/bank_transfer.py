#!/usr/bin/env python3
"""A distributed bank transfer on the commit service.

The scenario the paper's introduction motivates: one transaction touches
several database shards concurrently, and all of them must install it or
none may.  Here a transfer debits shard A and credits shard B while an
audit shard logs it; the three shards plus two replicas run Protocol 2
as durable service nodes on the in-memory bus (real asyncio concurrency,
jittery delays), once cleanly and once with a replica crashing
mid-protocol.

Run:  python examples/bank_transfer.py
"""

import asyncio
from dataclasses import dataclass, field

from repro import Decision, Vote
from repro.faults.plan import CrashFault, FaultPlan
from repro.service.bus import UniformDelay
from repro.service.cluster import ServiceCluster, node_configs


@dataclass
class Shard:
    """A toy database shard with staged (pending) writes."""

    name: str
    balances: dict[str, int] = field(default_factory=dict)
    staged: dict[str, int] = field(default_factory=dict)

    def stage(self, account: str, delta: int) -> Vote:
        """Stage a write; vote abort if it would overdraw."""
        balance = self.balances.get(account, 0)
        if balance + delta < 0:
            return Vote.ABORT
        self.staged[account] = delta
        return Vote.COMMIT

    def finish(self, commit: bool) -> None:
        """Install or discard the staged writes."""
        if commit:
            for account, delta in self.staged.items():
                self.balances[account] = self.balances.get(account, 0) + delta
        self.staged.clear()


def transfer(shards, votes, crashes=(), seed=0):
    """Run the commit protocol for one staged transfer.

    ``crashes`` are fail-stop: a node killed at its cycle (one cycle is
    one 2 ms tick) and never restarted.
    """
    n = len(votes)
    cluster = ServiceCluster(
        node_configs(n=n, t=(n - 1) // 2, votes=votes, K=8, seed=seed),
        FaultPlan(n=n, crashes=tuple(crashes)),
        seed=seed,
        delay=UniformDelay(low=0.0005, high=0.003),
        K=8,
    )
    result = asyncio.run(cluster.run(deadline=15.0))
    assert result.consistent, "conflicting decisions would corrupt the bank!"
    (value,) = result.decision_values()
    decision = Decision.from_bit(value)
    for shard in shards:
        shard.finish(commit=decision is Decision.COMMIT)
    return result, decision


def main() -> None:
    shard_a = Shard("accounts-a", balances={"alice": 100})
    shard_b = Shard("accounts-b", balances={"bob": 10})
    audit = Shard("audit-log")
    replicas = [Shard("replica-1"), Shard("replica-2")]
    shards = [shard_a, shard_b, audit, *replicas]

    # --- Transfer 1: alice -> bob, 60 units.  Everyone can stage it.
    votes = [
        shard_a.stage("alice", -60),
        shard_b.stage("bob", +60),
        audit.stage("log", 0),
        Vote.COMMIT,  # replicas always follow
        Vote.COMMIT,
    ]
    _, decision = transfer(shards, votes, seed=1)
    print(f"transfer 1 decided {decision.name}")
    print(f"  alice={shard_a.balances['alice']}  bob={shard_b.balances['bob']}")
    assert shard_a.balances["alice"] == 40
    assert shard_b.balances["bob"] == 70

    # --- Transfer 2: alice -> bob, 500 units.  Shard A must refuse: the
    # unilateral-abort right every participant keeps.
    votes = [
        shard_a.stage("alice", -500),
        shard_b.stage("bob", +500),
        audit.stage("log", 0),
        Vote.COMMIT,
        Vote.COMMIT,
    ]
    _, decision = transfer(shards, votes, seed=2)
    print(f"transfer 2 decided {decision.name} (overdraft)")
    assert shard_a.balances["alice"] == 40  # unchanged

    # --- Transfer 3: a replica crashes mid-protocol.  t = 2 of n = 5 may
    # fail; the survivors still decide, consistently.
    votes = [
        shard_a.stage("alice", -15),
        shard_b.stage("bob", +15),
        audit.stage("log", 0),
        Vote.COMMIT,
        Vote.COMMIT,
    ]
    result, decision = transfer(
        shards, votes, crashes=[CrashFault(pid=4, cycle=2)], seed=3
    )
    survivors = [s for s in result.nodes if s.pid not in result.permanently_crashed]
    print(f"transfer 3 decided {decision.name} with replica-2 crashed")
    assert result.permanently_crashed == {4}
    assert all(s.decision is not None for s in survivors)
    print(f"  alice={shard_a.balances['alice']}  bob={shard_b.balances['bob']}")
    print("ledger consistent across all shards.")


if __name__ == "__main__":
    main()
