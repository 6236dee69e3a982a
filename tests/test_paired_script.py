"""``scripts/paired.py``: the summary of alternating benchmark pairs.

Runs on canned rows; no benchmark is started.
"""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "paired.py"
_spec = importlib.util.spec_from_file_location("paired", SCRIPT)
paired = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired)

Metric = paired.metric_defs.Metric
OPS = Metric("ops_per_s", "1/s", "higher", 0.25)
P50 = Metric("op_p50_ms", "ms", "lower", 0.25)


def _row(ops, p50, exit=0, correct=True):
    return {
        "exit": exit,
        "correct": correct,
        "metrics": {"ops_per_s": ops, "op_p50_ms": p50},
    }


def _pairs(base, change):
    return [
        {"first": paired.first_side(index), "base": b, "change": c}
        for index, (b, c) in enumerate(zip(base, change))
    ]


#: Ten pairs: the change is faster in nine, by far more than the base's
#: quartile distance; its latency is worse in every pair.
BASE = [_row(70 + i % 3, 5.0) for i in range(10)]
CHANGE = [_row(90 + i % 4, 5.5) for i in range(9)] + [_row(60, 5.5)]


def test_sides_take_turns_running_first():
    assert [paired.first_side(i) for i in range(4)] == [
        "base",
        "change",
        "base",
        "change",
    ]


def test_wins_quartiles_and_claim_per_metric():
    summary = paired.summarise(_pairs(BASE, CHANGE), metrics=(OPS, P50))
    ops = summary["ops_per_s"]
    assert ops["pairs"] == 10
    assert ops["wins"] == 9
    assert ops["base"]["median"] == 71
    assert ops["change"]["median"] == 91
    assert ops["base_iqr"] == pytest.approx(2.0)
    assert ops["gain_beyond_base_iqr"] and ops["claim_met"]
    assert ops["change_pct"] == pytest.approx(100 * 20 / 71)

    p50 = summary["op_p50_ms"]
    assert p50["wins"] == 0
    assert p50["change_pct"] == pytest.approx(10.0)
    assert not p50["gain_beyond_base_iqr"] and not p50["claim_met"]


def test_eight_wins_in_ten_is_no_claim():
    change = CHANGE[:8] + [_row(60, 5.5), _row(60, 5.5)]
    ops = paired.summarise(_pairs(BASE, change), metrics=(OPS,))["ops_per_s"]
    assert ops["wins"] == 8
    assert ops["gain_beyond_base_iqr"]
    assert not ops["claim_met"]


def test_a_failed_change_run_is_no_win_and_no_claim():
    # Nine clear wins and one pair whose change run crashed: the nine
    # wins would do, but the change failed a run the base did not.
    change = CHANGE[:9] + [_row(200, 1.0, exit=1)]
    ops = paired.summarise(_pairs(BASE, change), metrics=(OPS,))["ops_per_s"]
    assert ops["pairs"] == 10 and ops["usable_pairs"] == 9
    assert ops["wins"] == 9
    assert ops["gain_beyond_base_iqr"]
    assert not ops["claim_met"]


def test_wins_count_over_every_pair_run():
    # Seven clean wins and three pairs whose base run crashed: 7 of 7
    # usable pairs, but 7 of 10 pairs run.
    base = BASE[:7] + [_row(0, 0.0, exit=1)] * 3
    change = [_row(95, 5.0)] * 10
    ops = paired.summarise(_pairs(base, change), metrics=(OPS,))["ops_per_s"]
    assert ops["usable_pairs"] == 7 and ops["wins"] == 7
    assert ops["gain_beyond_base_iqr"]
    assert not ops["claim_met"]


def _counted(row, failed):
    return dict(row, attempted=100, failed=failed)


def test_a_larger_failed_share_is_no_claim():
    base = [_counted(row, 0) for row in BASE]
    change = [_counted(row, 0) for row in CHANGE[:9]] + [_counted(CHANGE[0], 0)]
    assert paired.summarise(_pairs(base, change), metrics=(OPS,))["ops_per_s"][
        "claim_met"
    ]
    change[-1] = _counted(CHANGE[0], 1)
    totals = paired.failures(_pairs(base, change))
    assert totals["change"]["failed_share"] == pytest.approx(1 / 1000)
    assert totals["base"]["failed_share"] == 0.0
    ops = paired.summarise(_pairs(base, change), metrics=(OPS,))["ops_per_s"]
    assert ops["wins"] == 10
    assert not ops["claim_met"]


def test_fewer_than_two_usable_pairs_give_no_statistics():
    incorrect = [_row(70, 5.0, correct=False)] * 2
    assert paired.summarise(_pairs(incorrect, CHANGE[:2]), metrics=(OPS,)) == {
        "ops_per_s": {"pairs": 2, "usable_pairs": 0}
    }


def test_an_artifact_is_never_overwritten(tmp_path):
    first = paired.artifact_path(tmp_path, "sim_mix", 13)
    assert first.name == "PAIRED_sim_mix_seed13.json"
    first.write_text("{}")
    second = paired.artifact_path(tmp_path, "sim_mix", 13)
    assert second.name == "PAIRED_sim_mix_seed13_run2.json"
    second.write_text("{}")
    assert paired.artifact_path(tmp_path, "sim_mix", 13).name == (
        "PAIRED_sim_mix_seed13_run3.json"
    )
    assert paired.artifact_path(tmp_path, "sim_mix", 29).name == (
        "PAIRED_sim_mix_seed29.json"
    )


def _git(repo, *args):
    return subprocess.run(
        ["git", "-C", str(repo), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def test_the_base_is_the_tree_of_the_recorded_commit(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    for version in ("old", "new"):
        (repo / "file.txt").write_text(version)
        _git(repo, "add", "file.txt")
        _git(
            repo, "-c", "user.name=t", "-c", "user.email=t@t",
            "commit", "-q", "-m", version,
        )  # fmt: skip
    commit = _git(repo, "rev-parse", "HEAD~1")
    with paired.base_checkout(commit, repo) as tree:
        assert (tree / "file.txt").read_text() == "old"
        assert not (tree / ".git").exists()
    assert not tree.exists()
    assert (repo / "file.txt").read_text() == "new"
    assert _git(repo, "worktree", "list").count("\n") == 0
