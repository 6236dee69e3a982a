"""Multi-transaction service tests: sharding, wire v2, the multiplexer.

Covers the edge cases the instance multiplexer introduced on top of the
single-transaction (v1) service: duplicate submissions, interleaved WAL
records of concurrent instances replaying byte-identically after a
mid-commit kill, v1 logs recovering under the new reader, and the
close-record compaction of decided instances.
"""

import asyncio

import pytest

from repro.errors import ServiceError, WalError
from repro.faults.plan import CrashFault, FaultPlan
from repro.runtime.cluster import NONTERMINATED, TERMINATED
from repro.runtime.virtualtime import run_virtual
from repro.service.cluster import (
    ServiceCluster,
    TxnWorkload,
    node_configs,
    shard_configs,
)
from repro.service.node import ServiceNode
from repro.service.recovery import NodeConfig, replay
from repro.service.txn import (
    DEFAULT_TXN,
    InstanceMux,
    ShardMap,
    groups_to_wal,
    tag_txn,
    txn_tape_seed,
    txn_vote,
    wal_to_groups,
)
from repro.service.wal import MemoryWalStore, durable_records
from repro.service.wire import ServiceEnvelope
from repro.core.messages import GoMessage
from repro.sim.message import RawPayload

K = 4


def multi_config(pid=0, n=3, base=0, commit_bias=1.0, tape_seed=77):
    return NodeConfig(
        pid=pid,
        n=n,
        t=1,
        K=K,
        vote=1,
        tape_seed=tape_seed,
        multi_txn=True,
        base=base,
        commit_bias=commit_bias,
    )


class TestShardMap:
    def test_layout(self):
        shard_map = ShardMap(shards=3, group_size=5)
        assert shard_map.total_pids == 15
        assert shard_map.group_of(7) == 1
        assert shard_map.coordinator(7) == 5
        assert list(shard_map.members(2)) == [10, 11, 12, 13, 14]
        assert shard_map.group_of_pid(12) == 2

    def test_every_txn_coordinator_is_its_groups_base(self):
        shard_map = ShardMap(shards=4, group_size=3)
        for txn in range(40):
            group = shard_map.group_of(txn)
            assert shard_map.coordinator(txn) == shard_map.base(group)
            assert shard_map.coordinator(txn) in shard_map.members(group)

    def test_validation(self):
        with pytest.raises(ServiceError):
            ShardMap(shards=0, group_size=5)
        with pytest.raises(ServiceError):
            ShardMap(shards=2, group_size=0)


class TestWireV2:
    def test_single_default_group_encodes_as_v1(self):
        payloads = (RawPayload(data={"a": 1}),)
        envelope = ServiceEnvelope.msg(
            sender=1, incarnation=0, seq=3, groups=[(DEFAULT_TXN, payloads)]
        )
        assert envelope.payloads == payloads
        assert envelope.groups == ()
        doc = envelope.to_dict()
        assert "payloads" in doc and "txns" not in doc
        assert ServiceEnvelope.decode(envelope.encode()) == envelope

    def test_multi_group_roundtrip(self):
        groups = [
            (1, (RawPayload(data={"a": 1}),)),
            (4, (RawPayload(data={"b": 2}),)),
        ]
        envelope = ServiceEnvelope.msg(
            sender=2, incarnation=1, seq=0, groups=groups
        )
        assert envelope.payloads == ()
        doc = envelope.to_dict()
        assert "txns" in doc and "payloads" not in doc
        decoded = ServiceEnvelope.decode(envelope.encode())
        assert decoded.payload_groups() == tuple(
            (txn, tuple(p)) for txn, p in groups
        )

    def test_v1_envelope_reads_as_default_group(self):
        envelope = ServiceEnvelope(
            kind="msg",
            sender=0,
            seq=0,
            payloads=(RawPayload(data="x"),),
        )
        ((txn, payloads),) = envelope.payload_groups()
        assert txn == DEFAULT_TXN
        assert len(payloads) == 1

    def test_payloads_and_groups_are_exclusive(self):
        with pytest.raises(ServiceError):
            ServiceEnvelope(
                kind="msg",
                sender=0,
                payloads=(RawPayload(data="x"),),
                groups=((1, (RawPayload(data="y"),)),),
            )

    def test_empty_groups_are_dropped_from_normal_form(self):
        envelope = ServiceEnvelope.msg(
            sender=0,
            incarnation=0,
            seq=0,
            groups=[(1, ()), (2, (RawPayload(data="x"),))],
        )
        assert [txn for txn, _ in envelope.payload_groups()] == [2]


class TestWalForms:
    def test_single_default_group_is_v1_flat_list(self):
        groups = [(DEFAULT_TXN, (RawPayload(data={"a": 1}),))]
        encoded = groups_to_wal(groups)
        assert isinstance(encoded, list)  # the v1 shape
        assert wal_to_groups(encoded) == [
            (DEFAULT_TXN, [RawPayload(data={"a": 1})])
        ]

    def test_multi_group_roundtrip(self):
        groups = [
            (3, (RawPayload(data="x"),)),
            (1, (RawPayload(data="y"),)),
        ]
        encoded = groups_to_wal(groups)
        assert isinstance(encoded, dict) and "g" in encoded
        assert wal_to_groups(encoded) == [
            (txn, list(payloads)) for txn, payloads in groups
        ]

    def test_empty_batch_entry(self):
        assert groups_to_wal([]) == []
        assert wal_to_groups([]) == []

    def test_tag_txn_leaves_default_untagged(self):
        assert "txn" not in tag_txn(DEFAULT_TXN, {"type": "submit"})
        assert tag_txn(9, {"type": "submit"})["txn"] == 9


class TestPerTxnDerivations:
    def test_default_txn_keeps_node_seed_and_vote(self):
        config = multi_config(tape_seed=1234)
        assert txn_tape_seed(1234, DEFAULT_TXN) == 1234
        assert txn_vote(config, DEFAULT_TXN) == config.vote

    def test_other_txns_draw_distinct_seeds(self):
        seeds = {txn_tape_seed(1234, txn) for txn in range(6)}
        assert len(seeds) == 6

    def test_commit_bias_votes_are_deterministic(self):
        config = multi_config(commit_bias=0.5, tape_seed=9)
        votes = [txn_vote(config, txn) for txn in range(1, 40)]
        assert votes == [txn_vote(config, txn) for txn in range(1, 40)]
        assert set(votes) == {0, 1}  # both outcomes occur at bias 0.5

    def test_full_bias_always_commits(self):
        config = multi_config(commit_bias=1.0)
        assert all(txn_vote(config, txn) == 1 for txn in range(1, 20))


class TestDuplicateSubmission:
    def test_duplicate_submit_rejected_cleanly(self):
        node = ServiceNode(
            multi_config(),
            MemoryWalStore(),
            lambda recipient, env, attempt: None,
            fsync=False,
        )

        async def scenario():
            runner = asyncio.ensure_future(node.run())
            await asyncio.sleep(0.01)
            node.submit_txn(7)
            with pytest.raises(ServiceError, match="duplicate submission"):
                node.submit_txn(7)
            node.halt()
            await asyncio.wait_for(runner, timeout=1.0)

        run_virtual(scenario())
        # Exactly one durable submit record made it to the log.
        records = durable_records(node.store).records
        assert [r for r in records if r["type"] == "submit"] == [
            {"type": "submit", "txn": 7}
        ]

    def test_submit_to_closed_txn_rejected(self):
        node = ServiceNode(
            multi_config(),
            MemoryWalStore(),
            lambda recipient, env, attempt: None,
            fsync=False,
        )

        async def scenario():
            runner = asyncio.ensure_future(node.run())
            await asyncio.sleep(0.01)
            node.mux.adopt_transfer(5, 1)
            node.mux.close_txn(5)
            with pytest.raises(ServiceError, match="already decided"):
                node.submit_txn(5)
            node.halt()
            await asyncio.wait_for(runner, timeout=1.0)

        run_virtual(scenario())

    def test_default_txn_submit_stays_idempotent(self):
        # The v1 TCP service re-submits on client retry; that contract
        # survives the multiplexer.
        node = ServiceNode(
            node_configs(3, 1, [1, 1, 1], K, seed=0)[0],
            MemoryWalStore(),
            lambda recipient, env, attempt: None,
            fsync=False,
        )

        async def scenario():
            runner = asyncio.ensure_future(node.run())
            await asyncio.sleep(0.01)
            node.submit()
            node.submit()
            node.halt()
            await asyncio.wait_for(runner, timeout=1.0)

        run_virtual(scenario())
        records = durable_records(node.store).records
        assert len([r for r in records if r["type"] == "submit"]) == 1


def run_multi_cluster(
    shards,
    group_size,
    txns,
    plan=None,
    seed=0,
    rate=200.0,
    deadline=8.0,
    **kwargs,
):
    shard_map = ShardMap(shards=shards, group_size=group_size)
    cluster = ServiceCluster(
        shard_configs(shards, group_size, 1, K, seed),
        plan,
        seed=seed,
        K=K,
        workload=TxnWorkload.open_loop(txns, rate, 0.002),
        shard_map=shard_map,
        **kwargs,
    )
    result = run_virtual(cluster.run(deadline=deadline))
    return cluster, result


class TestInterleavedReplay:
    def test_two_instances_replay_byte_identically_after_kill(self):
        """Satellite: interleaved WAL records of two concurrent
        instances must replay to the live state after a mid-commit kill
        of their hosting node."""
        plan = FaultPlan(
            n=3, crashes=(CrashFault(pid=1, cycle=2, recover_cycle=12),)
        )
        cluster, result = run_multi_cluster(
            1, 3, 2, plan=plan, seed=21, rate=2000.0
        )
        assert result.outcome == TERMINATED
        assert result.recoveries == 1
        assert len(result.txn_decision_values()) == 2
        assert all(
            len(values) == 1
            for values in result.txn_decision_values().values()
        )
        for pid in range(3):
            records = durable_records(cluster.stores[pid]).records
            # Both transactions interleave in this node's single log.
            txns_in_log = {
                r.get("txn")
                for r in records
                if r["type"] in ("decision", "submit")
            }
            assert {1, 2} <= txns_in_log
            replayed = replay(records)
            assert replayed.mux.digest() == cluster.nodes[pid].mux.digest()
            assert replayed.decisions() == cluster.nodes[pid].decisions()

    def test_compaction_closes_decided_instances(self):
        cluster, result = run_multi_cluster(
            1, 3, 3, seed=4, rate=2000.0, snapshot_every=8
        )
        assert result.outcome == TERMINATED
        closed = [
            r
            for pid in range(3)
            for r in durable_records(cluster.stores[pid]).records
            if r["type"] == "close"
        ]
        assert closed  # compaction demoted decided instances to stubs
        for pid in range(3):
            records = durable_records(cluster.stores[pid]).records
            replayed = replay(records)
            assert replayed.mux.digest() == cluster.nodes[pid].mux.digest()

    def test_sharded_groups_decide_independently(self):
        _, result = run_multi_cluster(2, 3, 4, seed=6, rate=1000.0)
        assert result.outcome == TERMINATED
        assert sorted(result.txn_decision_values()) == [1, 2, 3, 4]
        assert result.undecided == {}


class TestV1WalCompat:
    def test_v1_log_recovers_under_new_reader(self):
        """Satellite: a WAL written by the single-transaction service
        (flat payload lists, no txn tags) replays under the reader."""
        config = node_configs(3, 1, [1, 1, 1], K, seed=0)[0]
        store = MemoryWalStore()

        async def first_life():
            node = ServiceNode(
                config,
                store,
                lambda recipient, env, attempt: None,
                fsync=False,
            )
            runner = asyncio.ensure_future(node.run())
            await asyncio.sleep(0.05)
            node.halt()
            await asyncio.wait_for(runner, timeout=1.0)
            return node

        node = run_virtual(first_life())
        records = durable_records(store).records
        # The log is v1 in shape: no txn keys, no grouped payload dicts.
        for record in records:
            assert "txn" not in record
            for entry in record.get("batch", []):
                assert not isinstance(entry[3], dict)
        replayed = replay(records)
        assert replayed.mux.digest() == node.mux.digest()
        assert replayed.steps == node._steps

    def test_handwritten_v1_records_replay(self):
        config = node_configs(3, 1, [1, 1, 1], K, seed=0)[1]
        records = [
            {"type": "init", "config": config.to_dict()},
            {"type": "step"},
            {"type": "step"},
        ]
        result = replay(records)
        assert result.steps == 2
        assert result.process is not None
        assert result.process.clock == 2

    def test_observability_records_of_older_logs_are_skipped(self):
        """Logs written before PR 15 interleave ``vote`` / ``coins`` /
        ``round`` records; the node no longer writes them, and the
        reader replays such a log to the state of one without them."""
        config = node_configs(3, 1, [1, 1, 1], K, seed=0)[1]
        inputs = [
            {"type": "init", "config": config.to_dict()},
            {"type": "step"},
            {"type": "step"},
        ]
        older = [
            inputs[0],
            inputs[1],
            {"type": "vote", "vote": 1},
            {"type": "coins", "coins": [1, 0, 1]},
            inputs[2],
            {"type": "round", "phase": 1, "stage": 1},
        ]
        assert replay(older).mux.digest() == replay(inputs).mux.digest()
        _cluster, result = run_multi_cluster(1, 3, 2, seed=5, rate=2000.0)
        assert result.outcome == TERMINATED
        written = {
            r["type"]
            for pid in range(3)
            for r in durable_records(_cluster.stores[pid]).records
        }
        assert not written & {"vote", "coins", "round"}
        assert "decision" in written


class TestCloseRecordReplay:
    def test_close_without_live_instance_rejected(self):
        config = multi_config()
        records = [
            {"type": "init", "config": config.to_dict()},
            {"type": "close", "txn": 3, "value": 1, "origin": "process"},
        ]
        with pytest.raises(WalError, match="no .*instance"):
            replay(records)

    def test_close_value_conflict_rejected(self):
        config = multi_config()
        records = [
            {"type": "init", "config": config.to_dict()},
            {"type": "submit", "txn": 3},
            {"type": "decision", "txn": 3, "value": 1, "origin": "transfer"},
            {"type": "close", "txn": 3, "value": 0, "origin": "transfer"},
        ]
        with pytest.raises(WalError, match="conflicts"):
            replay(records)

    def test_closed_stub_remembers_decision(self):
        config = multi_config()
        records = [
            {"type": "init", "config": config.to_dict()},
            {"type": "submit", "txn": 3},
            {"type": "decision", "txn": 3, "value": 1, "origin": "transfer"},
            {"type": "close", "txn": 3, "value": 1, "origin": "transfer"},
        ]
        result = replay(records)
        instance = result.mux.get(3)
        assert instance.process is None
        assert instance.decision == 1
        assert result.decisions() == {3: 1}


class TestHaltHammer:
    def test_halt_at_every_cycle_offset(self):
        """Satellite: halt() must reliably stop the run loop no matter
        where inside (or exactly on) a tick boundary it lands — the
        py3.11 ``wait_for`` cancellation race made this flaky before the
        event-based pump."""
        config = node_configs(3, 1, [1, 1, 1], K, seed=0)[1]

        async def scenario():
            tick = 0.002
            for i in range(48):
                node = ServiceNode(
                    config,
                    MemoryWalStore(),
                    lambda recipient, env, attempt: None,
                    fsync=False,
                    tick_interval=tick,
                )
                runner = asyncio.ensure_future(node.run())
                # Quarter-tick offsets sweep halts across tick interiors
                # and exact boundaries (the racy case on a virtual clock).
                await asyncio.sleep(i * tick / 4)
                node.halt()
                # No cancel: halt alone must end the loop, promptly.
                await asyncio.wait_for(runner, timeout=4 * tick + 0.01)

        run_virtual(scenario())

    def test_halt_mid_traffic(self):
        plan = None

        async def scenario():
            shard_map = ShardMap(shards=1, group_size=3)
            cluster = ServiceCluster(
                shard_configs(1, 3, 1, K, seed=3),
                plan,
                seed=3,
                K=K,
                workload=TxnWorkload.open_loop(4, 2000.0, 0.002),
                shard_map=shard_map,
            )
            return await cluster.run(deadline=8.0)

        result = run_virtual(scenario())
        assert result.outcome == TERMINATED


class TestDeadlineReporting:
    def test_timeout_names_undecided_nodes_and_txns(self):
        """Satellite: a deadline expiry reports exactly which (node,
        transaction) pairs were still open — not a bare TimeoutError."""
        _, result = run_multi_cluster(
            1, 3, 2, seed=5, rate=2000.0, deadline=0.003
        )
        assert result.outcome == NONTERMINATED
        assert result.undecided  # structured, attributable
        for pid, txns in result.undecided.items():
            assert pid in range(3)
            assert txns and all(txn in (1, 2) for txn in txns)

    def test_legacy_timeout_reports_default_txn(self):
        configs = node_configs(3, 1, [1, 1, 1], K, seed=0)
        cluster = ServiceCluster(configs, None, seed=0, K=K)
        result = run_virtual(cluster.run(deadline=0.003))
        assert result.outcome == NONTERMINATED
        assert set(result.undecided) <= set(range(3))
        assert all(txns == [DEFAULT_TXN] for txns in result.undecided.values())

    def test_terminated_run_reports_no_undecided(self):
        _, result = run_multi_cluster(1, 3, 2, seed=8, rate=2000.0)
        assert result.outcome == TERMINATED
        assert result.undecided == {}


class TestMuxStepSemantics:
    def test_lazy_instance_created_on_first_delivery(self):
        mux = InstanceMux(multi_config(pid=1))
        assert mux.instances == {}
        payload = GoMessage(coins=(1,) * K)
        mux.apply_step([(0, [(2, (payload,))])])
        assert 2 in mux.instances
        assert mux.instances[2].process is not None

    def test_closed_stub_hit_reported(self):
        mux = InstanceMux(multi_config(pid=1))
        mux.adopt_transfer(2, 1)
        mux.close_txn(2)
        payload = RawPayload(data="x")
        effects = mux.apply_step([(0, [(2, (payload,))])])
        assert effects.closed_hits == [(0, 2)]
        assert effects.outgoing == []

    def test_single_txn_mode_is_eager(self):
        config = node_configs(3, 1, [1, 1, 1], K, seed=0)[0]
        mux = InstanceMux(config)
        assert DEFAULT_TXN in mux.instances
        assert not mux.idle  # undecided default instance has work

    def test_scans_cover_live_instances_not_history(self):
        """Closed stubs leave ``live`` and keep their decision; what is
        left steps in creation order, as before."""
        mux = InstanceMux(multi_config(pid=1))
        go = GoMessage(coins=(1,) * K)
        mux.apply_step([(0, [(txn, (go,)) for txn in (9, 3, 6)])])
        assert list(mux.live) == [9, 3, 6] == list(mux.instances)
        for txn, value in ((9, 1), (6, 0)):
            mux.adopt_transfer(txn, value)
        assert mux.closable_txns() == [6, 9]
        assert mux.undecided_txns() == [3]
        mux.close_txn(9)
        mux.close_txn(6)
        assert list(mux.live) == [3]
        assert mux.decisions() == {9: 1, 6: 0}
        assert mux.get(9).process is None and mux.get(9).decision == 1
        assert mux.closable_txns() == [] and mux.undecided_txns() == [3]
        assert not mux.idle
        # A step iterates the one live instance; traffic for a stub is a hit.
        stepped = []
        process = mux.get(3).process
        real_step = process.on_step
        process.on_step = lambda inbound: (stepped.append(3), real_step(inbound))[1]
        effects = mux.apply_step([(0, [(9, (go,))])])
        assert stepped == [3] and effects.closed_hits == [(0, 9)]
        mux.adopt_transfer(3, 1)
        assert mux.idle and mux.decisions() == {9: 1, 6: 0, 3: 1}

    def test_undecided_index_matches_a_scan_of_live_after_every_change(
        self, monkeypatch
    ):
        """``idle``, ``runnable`` and ``undecided_txns`` read an index of
        the undecided instances instead of scanning ``live``: after every
        step, adopted transfer and close, on live nodes and in replay, it
        holds exactly what the scan would find, in the same order."""
        seen = set()

        def checked(method):
            def call(mux, *args, **kwargs):
                result = method(mux, *args, **kwargs)
                assert list(mux._undecided) == [
                    txn
                    for txn, instance in mux.live.items()
                    if instance.decision is None
                ]
                seen.add(method.__name__)
                return result

            return call

        for name in ("apply_step", "adopt_transfer", "close_txn"):
            monkeypatch.setattr(
                InstanceMux, name, checked(getattr(InstanceMux, name))
            )
        for seed in (21, 22, 23):
            plan = FaultPlan(
                n=3, crashes=(CrashFault(pid=1, cycle=2, recover_cycle=12),)
            )
            _, result = run_multi_cluster(
                1, 3, 8, plan=plan, seed=seed, rate=2000.0, snapshot_every=4
            )
            assert result.outcome == TERMINATED and result.recoveries == 1
        assert seen == {"apply_step", "adopt_transfer", "close_txn"}

    def test_runnable_means_an_undecided_instance_armed_a_satisfied_wait(self):
        mux = InstanceMux(multi_config(pid=1))
        assert not mux.runnable  # nothing hosted
        go = GoMessage(coins=(1,) * K)
        mux.apply_step([(0, [(2, (go,))])])
        # First step: the program armed "wait for a GO" with the GO
        # already on the board, and stopped there.
        assert mux.runnable
        digest = mux.digest()
        assert mux.runnable and mux.digest() == digest  # read-only
        effects = mux.apply_step([])  # the step it asked for relays GO
        assert [recipient for recipient, _ in effects.outgoing] == [0, 2]
        assert not mux.runnable  # now waiting for GO from everyone
        # A decided instance never asks for a step, whatever its wait.
        other = InstanceMux(multi_config(pid=1))
        other.apply_step([(0, [(2, (go,))])])
        other.adopt_transfer(2, 1)
        assert not other.runnable
