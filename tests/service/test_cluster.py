"""Integration tests: service clusters under kill/recover schedules.

Everything here runs on the virtual clock — whole cluster lifetimes
(including crash-recovery campaigns' worth of restarts) execute in
milliseconds of real time.
"""

import asyncio

import pytest

from repro.core.messages import VoteMessage
from repro.errors import ConfigurationError
from repro.faults.plan import CrashFault, FaultPlan
from repro.service.cluster import ServiceCluster, node_configs
from repro.service.node import ServiceNode
from repro.service.recovery import replay, state_digest
from repro.service.txn import InstanceMux
from repro.service.virtualtime import run_virtual
from repro.service.wal import (
    MemoryWalStore,
    decode_line,
    durable_records,
    write_snapshot,
)
from repro.service.wire import ServiceEnvelope

from tests.service.test_txn import multi_config

N, T, K = 5, 2, 4


def run_cluster(votes, plan=None, seed=0, deadline=5.0, **kwargs):
    configs = node_configs(len(votes), T, votes, K, seed)
    cluster = ServiceCluster(configs, plan, seed=seed, K=K, **kwargs)
    result = run_virtual(cluster.run(deadline=deadline))
    return cluster, result


class TestValidation:
    def test_vote_count_must_match_n(self):
        with pytest.raises(ConfigurationError):
            node_configs(5, T, [1, 1], K, seed=0)

    def test_store_count_must_match_nodes(self):
        configs = node_configs(3, 1, [1, 1, 1], K, seed=0)
        with pytest.raises(ConfigurationError):
            ServiceCluster(configs, stores=[MemoryWalStore()])


class TestFaultFreeRuns:
    def test_all_commit(self):
        _, result = run_cluster([1] * N)
        assert result.terminated
        assert result.decision_values() == {1}

    def test_single_no_vote_aborts(self):
        _, result = run_cluster([1, 1, 0, 1, 1])
        assert result.terminated
        assert result.decision_values() == {0}

    def test_durable_log_replays_to_live_state(self):
        cluster, result = run_cluster([1] * N)
        assert result.terminated
        for pid in range(N):
            replayed = replay(durable_records(cluster.stores[pid]).records)
            live = cluster.nodes[pid].process
            assert state_digest(replayed.process) == state_digest(live)


class TestKillRecover:
    def test_coordinator_and_participant_recover_mid_commit(self):
        plan = FaultPlan(
            n=N,
            crashes=(
                CrashFault(pid=0, cycle=3, recover_cycle=12),
                CrashFault(pid=3, cycle=5, recover_cycle=20),
            ),
        )
        cluster, result = run_cluster([1] * N, plan, seed=11, deadline=8.0)
        assert result.terminated
        assert result.consistent
        assert result.decision_values() == {1}
        assert result.recoveries == 2
        assert result.permanently_crashed == set()
        assert any(s.incarnation > 0 for s in result.nodes)

    def test_recovered_participant_joins_abort(self):
        plan = FaultPlan(
            n=N, crashes=(CrashFault(pid=2, cycle=2, recover_cycle=15),)
        )
        _, result = run_cluster([1, 1, 0, 1, 1], plan, seed=3, deadline=8.0)
        assert result.terminated
        assert result.decision_values() == {0}

    def test_permanent_coordinator_crash_at_start_blocks(self):
        plan = FaultPlan(n=N, crashes=(CrashFault(pid=0, cycle=0),))
        _, result = run_cluster([1] * N, plan, seed=5, deadline=1.0)
        assert not result.terminated
        assert result.permanently_crashed == {0}
        assert result.consistent  # blocked, but never inconsistent

    def test_torn_tail_injection_is_repaired(self):
        plan = FaultPlan(
            n=N, crashes=(CrashFault(pid=1, cycle=4, recover_cycle=10),)
        )
        cluster, result = run_cluster(
            [1] * N, plan, seed=2, deadline=8.0, torn_tail_probability=1.0
        )
        assert result.terminated
        assert result.decision_values() == {1}
        # The injected partial line was truncated by the restarted node.
        assert not durable_records(cluster.stores[1]).torn_tail

    def test_snapshot_compaction_preserves_recovery(self):
        plan = FaultPlan(
            n=N, crashes=(CrashFault(pid=4, cycle=6, recover_cycle=14),)
        )
        cluster, result = run_cluster(
            [1] * N, plan, seed=9, deadline=8.0, snapshot_every=5
        )
        assert result.terminated
        assert result.decision_values() == {1}
        for pid in range(N):
            replayed = replay(durable_records(cluster.stores[pid]).records)
            assert replayed.decision == 1


class TestNodeErrors:
    """A node task that raised is dead, not blocked: the run says so."""

    def test_a_raising_step_is_the_runs_error(self, monkeypatch):
        def broken(self, batch):
            raise RuntimeError("step failed")

        monkeypatch.setattr(InstanceMux, "apply_step", broken)
        with pytest.raises(RuntimeError, match="step failed"):
            run_cluster([1] * N, deadline=1.0)

    def test_killed_and_cancelled_tasks_are_no_error(self):
        plan = FaultPlan(
            n=N,
            crashes=(
                CrashFault(pid=1, cycle=2, recover_cycle=6),
                CrashFault(pid=4, cycle=3),
            ),
        )
        cluster, result = run_cluster([1] * N, plan, seed=7, deadline=8.0)
        assert result.terminated
        assert result.recoveries == 1
        assert result.permanently_crashed == {4}
        assert any(task.cancelled() for task in cluster._tasks)


class TestStateTransfer:
    def test_undecided_node_adopts_transferred_decision(self):
        sent = []

        async def scenario():
            cfg = node_configs(3, 1, [1, 1, 1], K, seed=0)[1]
            node = ServiceNode(
                cfg,
                MemoryWalStore(),
                lambda recipient, env, attempt: sent.append((recipient, env)),
                fsync=False,
            )
            runner = asyncio.ensure_future(node.run())
            await asyncio.sleep(0.05)
            assert node.decision is None  # alone, the protocol cannot decide
            node.deliver(
                ServiceEnvelope(
                    kind="state-transfer", sender=0, body={"decision": 1}
                )
            )
            await asyncio.sleep(0.05)
            node.halt()
            runner.cancel()
            await asyncio.gather(runner, return_exceptions=True)
            return node

        node = run_virtual(scenario())
        assert node.decision == 1
        snapshot = node.snapshot_state()
        assert snapshot.decision_origin == "transfer"
        # The adoption is durable: a restart replays to the same decision.
        assert replay(durable_records(node.store).records).decision == 1


async def _one_life(config, store, duration):
    """Run one ServiceNode life over ``store`` for ``duration`` seconds."""
    node = ServiceNode(
        config, store, lambda recipient, env, attempt: None, fsync=False
    )
    runner = asyncio.ensure_future(node.run())
    await asyncio.sleep(duration)
    node.halt()
    runner.cancel()
    await asyncio.gather(runner, return_exceptions=True)
    return node


class TestCompactionWindowRecovery:
    def test_kill_inside_compaction_window_recovers(self):
        """A SIGKILL between the snapshot replace and the log truncation
        must not brick the node (REVIEW: duplicate init on replay)."""
        cfg = node_configs(3, 1, [1, 1, 1], K, seed=0)[0]
        store = MemoryWalStore()

        async def scenario():
            await _one_life(cfg, store, 0.05)
            # Reconstruct the window's disk state: snapshot durably
            # replaced, log never truncated (still headed by init).
            pre_lines = store.read_lines()
            records = durable_records(store).records
            replayed = replay(records)
            write_snapshot(
                store,
                records,
                digest=state_digest(replayed.process),
                taken_at_step=replayed.steps,
            )
            store.truncate_lines(0)
            for line in pre_lines:
                store.append_line(line)

            second = await _one_life(cfg, store, 0.05)
            third = await _one_life(cfg, store, 0.05)
            return second, third

        second, third = run_virtual(scenario())
        # The second life recovered (replay did not raise on the
        # duplicated records) and repaired the log in place...
        assert second.recovered
        assert second.incarnation == 1
        head = decode_line(store.read_lines()[0])
        assert head["type"] == "compact"
        # ...durably: the third life replays the repaired store and sees
        # the second life's records rather than discarding them.
        assert third.recovered
        assert third.incarnation == 2

    def test_repeated_window_crashes_are_idempotent(self):
        cfg = node_configs(3, 1, [1, 1, 1], K, seed=0)[0]
        store = MemoryWalStore()

        async def scenario():
            await _one_life(cfg, store, 0.05)
            records = durable_records(store).records
            replayed = replay(records)
            write_snapshot(
                store,
                records,
                digest=state_digest(replayed.process),
                taken_at_step=replayed.steps,
            )
            # Kill again right after truncation but before the marker
            # lands: the log is simply empty.
            store.truncate_lines(0)
            return await _one_life(cfg, store, 0.05)

        node = run_virtual(scenario())
        assert node.recovered
        assert node.incarnation == 1
        assert replay(durable_records(store).records).incarnation == 1


class TestNodeRobustness:
    def test_malformed_ack_bodies_are_dropped(self):
        cfg = node_configs(3, 1, [1, 1, 1], K, seed=0)[1]
        node = ServiceNode(
            cfg, MemoryWalStore(), lambda *args: None, fsync=False
        )
        node._absorb(ServiceEnvelope(kind="ack", sender=0, body={}))
        node._absorb(ServiceEnvelope(kind="ack", sender=0, body={"seq": "x"}))
        node._absorb(
            ServiceEnvelope(
                kind="ack", sender=0, body={"seq": 1, "incarnation": None}
            )
        )
        assert node._acked == {}
        # A well-formed ack for an envelope no loop is sending (late,
        # repeated, forged) registers nothing either ...
        node._absorb(ServiceEnvelope(kind="ack", sender=0, body={"seq": 3}))
        assert node._acked == {}
        # ... and one for an envelope still being sent releases its loop.
        event = asyncio.Event()
        node._acked[(0, 0, 3)] = (event, ServiceEnvelope(kind="msg", sender=1))
        node._absorb(ServiceEnvelope(kind="ack", sender=0, body={"seq": 3}))
        assert event.is_set()

    def test_state_transfer_answers_the_transactions_asked_about(self):
        """A stalled peer's query names its undecided transactions and a
        closed-stub hit names one: the answer lists those, not every
        decision ever made.  A query that names none is answered in full."""
        sent = []
        node = ServiceNode(
            multi_config(pid=0),
            MemoryWalStore(),
            lambda recipient, envelope, attempt: sent.append((recipient, envelope)),
            fsync=False,
        )
        for txn in range(1, 41):
            node.mux.ensure(txn)
            if txn != 40:  # 40 stays undecided
                node.mux.adopt_transfer(txn, txn % 2)
            if txn <= 30:
                node.mux.close_txn(txn)

        def answer(body):
            sent.clear()
            node._absorb(
                ServiceEnvelope(kind="state-query", sender=2, body=body)
            )
            ((recipient, reply),) = sent
            assert recipient == 2 and reply.kind == "state-transfer"
            return reply.body["decisions"]

        # Closed, live-decided, undecided and unknown: what is known of them.
        assert answer({"txns": [7, 35, 40, 99]}) == {"7": 1, "35": 1}
        everything = {str(txn): txn % 2 for txn in range(1, 40)}
        assert answer({}) == everything
        for unreadable in ([], "7", [7, "8"], [True], {"7": 1}, None):
            assert answer({"txns": unreadable}) == everything

        async def closed_hit():
            runner = asyncio.ensure_future(node.run())
            await asyncio.sleep(0.001)
            sent.clear()
            node.deliver(
                ServiceEnvelope.msg(
                    sender=1, incarnation=0, seq=0,
                    groups=[(7, (VoteMessage(vote=1),))],
                )
            )  # fmt: skip
            await asyncio.sleep(0.001)
            node.halt()
            await asyncio.wait_for(runner, timeout=1.0)

        run_virtual(closed_hit())
        transfers = [e for r, e in sent if e.kind == "state-transfer"]
        assert [e.body["decisions"] for e in transfers] == [{"7": 1}]

    def test_transferred_decisions_are_bits_or_are_not_offers(self):
        node = ServiceNode(
            multi_config(pid=1), MemoryWalStore(), lambda *args: None, fsync=False
        )

        async def scenario():
            runner = asyncio.ensure_future(node.run())
            await asyncio.sleep(0.001)
            for txn in (5, 6, 7):
                node.mux.ensure(txn)
            for body in (
                {"decisions": [1]},
                {"decisions": "5"},
                {"decision": "commit", "decisions": {"5": 2, "6": True}},
                {"decisions": {"5": [1], "6": None, "x": 1, "7": 1.0}},
            ):
                node._absorb(
                    ServiceEnvelope(kind="state-transfer", sender=0, body=body)
                )
                assert node.decisions() == {}
            node._absorb(
                ServiceEnvelope(
                    kind="state-transfer",
                    sender=0,
                    body={"decision": None, "decisions": {"5": 0, "6": 1}},
                )
            )
            assert node.decisions() == {5: 0, 6: 1}
            node.halt()
            await asyncio.wait_for(runner, timeout=1.0)

        run_virtual(scenario())
        kinds = [r["type"] for r in durable_records(node.store).records]
        assert kinds.count("decision") == 2

    def test_envelopes_from_outside_the_group_are_dropped(self):
        """A ``msg`` is acked and a ``state-query`` answered at the sender's
        address; a sender that is no peer has none, and a transport
        indexing its channels by pid would raise out of the run loop."""
        sent = []
        cfg = node_configs(3, 1, [1, 1, 1], K, seed=0)[1]
        node = ServiceNode(
            cfg, MemoryWalStore(),
            lambda recipient, envelope, attempt: sent.append(recipient),
            fsync=False,
        )  # fmt: skip
        for sender in (3, 99, -2):
            node._absorb(ServiceEnvelope(kind="msg", sender=sender, seq=1))
            node._absorb(ServiceEnvelope(kind="state-query", sender=sender))
        assert node._pending == [] and sent == []
        node._absorb(ServiceEnvelope(kind="msg", sender=2, seq=1))
        assert [e.sender for e in node._pending] == [2]

    def test_decided_node_stops_logging_idle_steps(self):
        cfg = node_configs(3, 1, [1, 1, 1], K, seed=0)[1]
        store = MemoryWalStore()

        async def scenario():
            node = ServiceNode(
                cfg, store, lambda recipient, env, attempt: None, fsync=False
            )
            runner = asyncio.ensure_future(node.run())
            await asyncio.sleep(0.05)
            undecided_records = len(store.read_lines())
            node.deliver(
                ServiceEnvelope(
                    kind="state-transfer", sender=0, body={"decision": 1}
                )
            )
            await asyncio.sleep(0.05)
            baseline = len(store.read_lines())
            await asyncio.sleep(1.0)  # hundreds of idle ticks
            grown = len(store.read_lines()) - baseline
            node.halt()
            runner.cancel()
            await asyncio.gather(runner, return_exceptions=True)
            return undecided_records, grown

        undecided_records, grown = run_virtual(scenario())
        assert undecided_records > 1  # undecided nodes do log idle steps
        assert grown == 0  # the decided serve-only tail appends nothing
