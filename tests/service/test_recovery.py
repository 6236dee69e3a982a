"""Unit tests for WAL replay: deterministic re-execution of logged steps."""

import pytest

from repro.errors import WalError
from repro.service.recovery import (
    FORMAT_MARKER,
    NodeConfig,
    replay,
    state_digest,
)


def config(pid=0, vote=1):
    return NodeConfig(pid=pid, n=3, t=1, K=4, vote=vote, tape_seed=99)


def init_record(cfg):
    return {"type": "init", "config": cfg.to_dict()}


def opened(cfg):
    """A single commit's log head: init, then transaction 0 opened."""
    return [init_record(cfg), {"type": "submit"}]


def v1_init(cfg):
    doc = cfg.to_dict()
    del doc[FORMAT_MARKER]
    return {"type": "init", "config": doc}


def empty_steps(count):
    return [{"type": "step", "batch": []} for _ in range(count)]


class TestNodeConfig:
    def test_dict_roundtrip(self):
        cfg = config(pid=2, vote=0)
        assert NodeConfig.from_dict(cfg.to_dict()) == cfg

    def test_init_carries_the_format_marker_and_v1_reads_the_same(self):
        cfg = config(pid=2, vote=0)
        assert cfg.to_dict()[FORMAT_MARKER] is True
        assert NodeConfig.from_dict(v1_init(cfg)["config"]) == cfg


class TestReplayValidation:
    def test_empty_log_rejected(self):
        with pytest.raises(WalError):
            replay([])

    def test_first_record_must_be_init(self):
        with pytest.raises(WalError):
            replay([{"type": "step", "batch": []}])

    def test_duplicate_init_rejected(self):
        cfg = config()
        with pytest.raises(WalError):
            replay([init_record(cfg), init_record(cfg)])

    def test_config_mismatch_rejected(self):
        with pytest.raises(WalError):
            replay([init_record(config(pid=0))], expect_config=config(pid=1))

    def test_conflicting_decisions_rejected(self):
        records = [
            init_record(config()),
            {"type": "decision", "value": 1, "origin": "transfer"},
            {"type": "decision", "value": 0, "origin": "transfer"},
        ]
        with pytest.raises(WalError):
            replay(records)

    def test_digest_mismatch_rejected(self):
        records = opened(config()) + empty_steps(2)
        with pytest.raises(WalError):
            replay(records, snapshot_digest=(4, "not-the-digest"))


class TestReplaySemantics:
    def test_coordinator_regenerates_go_fanout(self):
        result = replay(opened(config(pid=0)) + empty_steps(1))
        assert result.steps == 1
        recipients = {recipient for recipient, _ in result.outgoing}
        assert recipients  # the GO fan-out went out again
        seqs = [env.seq for _, env in result.outgoing]
        assert seqs == list(range(len(seqs)))  # dense per-incarnation seqs
        assert all(env.incarnation == 0 for _, env in result.outgoing)

    def test_recover_record_bumps_incarnation_and_resets_seq(self):
        records = (
            opened(config(pid=0))
            + empty_steps(1)
            + [{"type": "recover"}]
            + empty_steps(1)
        )
        result = replay(records)
        assert result.incarnation == 1
        late = [env for _, env in result.outgoing if env.incarnation == 1]
        if late:
            assert min(env.seq for env in late) == 0

    def test_transfer_decision_adopted(self):
        records = [
            *opened(config(pid=1)),
            {"type": "decision", "value": 0, "origin": "transfer"},
        ]
        result = replay(records)
        assert result.mux.get(0).transfer_decision == 0
        assert result.decisions() == {0: 0}

    def test_step_batches_land_in_dedup_set(self):
        records = [
            init_record(config(pid=1)),
            {"type": "step", "batch": [[0, 0, 4, []]]},
        ]
        result = replay(records)
        assert (0, 0, 4) in result.applied

    def test_submit_record_restores_submitted_flag(self):
        result = replay(opened(config(pid=0)))
        assert result.submitted_txns == {0}
        assert result.mux.get(0).submitted

    def test_replay_is_deterministic(self):
        records = opened(config(pid=0)) + empty_steps(5)
        assert replay(records).mux.digest() == replay(records).mux.digest()

    def test_digest_checkpoint_accepts_true_digest(self):
        records = opened(config(pid=0)) + empty_steps(3)
        digest = replay(records).mux.digest()
        again = replay(records, snapshot_digest=(5, digest))
        assert again.mux.digest() == digest

    def test_digest_distinguishes_states(self):
        base = opened(config(pid=0))
        assert replay(base).mux.digest() != replay(
            base + empty_steps(1)
        ).mux.digest()

    def test_v1_snapshot_verifies_the_bare_digest_of_txn_zero(self):
        """A v1 snapshot stored transaction 0's bare state digest,
        counted in the records as written (no submit record)."""
        records = [v1_init(config(pid=0))] + empty_steps(3)
        digest = state_digest(replay(records).mux.get(0).process)
        again = replay(records, snapshot_digest=(4, digest))
        assert again.mux.digest() == replay(
            opened(config(pid=0)) + empty_steps(3)
        ).mux.digest()
        with pytest.raises(WalError):
            replay(records, snapshot_digest=(3, digest))
