"""``scripts/trajectory.py``: the chain of paired ratios.

Runs on canned ``PAIRED_*.json`` files; no benchmark is started.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "trajectory.py"
_spec = importlib.util.spec_from_file_location("trajectory", SCRIPT)
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)

OLD, NEW, ELSEWHERE = "a" * 40, "b" * 40, "c" * 40


def _metric(change_pct, wins, claim_met, pairs=10):
    return {
        "pairs": pairs,
        "usable_pairs": pairs,
        "change_pct": change_pct,
        "wins": wins,
        "claim_met": claim_met,
    }


def _artifact(
    directory: Path, name: str, base: str, summary: dict, workload="sim_mix", seed=13,
    change=None,
):  # fmt: skip
    document = {
        "workload": workload,
        "seed": seed,
        "base": {"ref": base[:7], "commit": base},
        "summary": summary,
    }
    if change is not None:
        document["change"] = change
    (directory / name).write_text(json.dumps(document))


def _canned(directory: Path) -> None:
    _artifact(
        directory,
        "PAIRED_sim_mix_seed13_run2.json",
        NEW,
        {"setup_s": _metric(-80.04, 10, True), "ops_per_s": _metric(1.2, 6, False)},
        change={"commit": NEW, "uncommitted_changes": True, "diff_sha256": "d" * 64},
    )
    _artifact(
        directory,
        "PAIRED_sim_mix_seed13.json",
        OLD,
        {"setup_s": _metric(0.3, 5, False), "ops_per_s": _metric(18.5, 10, True)},
        # Written before the diff was hashed: dirty, but no digest.
        change={"commit": OLD, "uncommitted_changes": True},
    )
    _artifact(
        directory,
        "PAIRED_tcp3_open20_seed7.json",
        ELSEWHERE,
        # Fewer than two usable pairs: paired.py writes no statistics.
        {"op_p50_ms": {"pairs": 1, "usable_pairs": 0}},
        workload="tcp3_open20",
        seed=7,
    )
    (directory / "BENCH_sim_core.json").write_text("{}")  # not an artifact


def test_rows_follow_the_base_history_oldest_first(tmp_path):
    _canned(tmp_path)
    chain = trajectory.trajectory(tmp_path, {OLD: 0, NEW: 1})
    assert [(row["base"], row["run"], row["metric"]) for row in chain] == [
        (OLD, 1, "setup_s"),
        (OLD, 1, "ops_per_s"),
        (NEW, 2, "setup_s"),
        (NEW, 2, "ops_per_s"),
        (ELSEWHERE, 1, "op_p50_ms"),  # a base outside the history sorts last
    ]
    assert chain[2] == {
        "workload": "sim_mix",
        "seed": 13,
        "run": 2,
        "base": NEW,
        "measured": "bbbbbbb+ddddddd",
        "metric": "setup_s",
        "change_pct": -80.04,
        "wins": 10,
        "pairs": 10,
        "claim_met": True,
    }


def test_rendered_table(tmp_path):
    _canned(tmp_path)
    text = trajectory.render(trajectory.trajectory(tmp_path, {OLD: 0, NEW: 1}))
    assert [line.split() for line in text.splitlines()] == [  # fmt: skip
        ["workload", "seed", "run", "base", "measured", "metric", "change", "wins",
         "claim_met"],
        ["sim_mix", "13", "1", "aaaaaaa", "aaaaaaa+?", "setup_s", "+0.3%", "5/10", "no"],
        ["sim_mix", "13", "1", "aaaaaaa", "aaaaaaa+?", "ops_per_s", "+18.5%", "10/10",
         "yes"],
        ["sim_mix", "13", "2", "bbbbbbb", "bbbbbbb+ddddddd", "setup_s", "-80.0%",
         "10/10", "yes"],
        ["sim_mix", "13", "2", "bbbbbbb", "bbbbbbb+ddddddd", "ops_per_s", "+1.2%",
         "6/10", "no"],
        ["tcp3_open20", "7", "1", "ccccccc", "n/a", "op_p50_ms", "n/a", "n/a/1", "no"],
    ]


def test_history_ranks_commits_oldest_first(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(repo), *args], check=True, capture_output=True, text=True
        ).stdout.strip()

    git("init", "-q")
    for version in ("old", "new"):
        (repo / "file.txt").write_text(version)
        git("add", "file.txt")
        git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", version)
    ranks = trajectory.history(repo)
    assert ranks == {git("rev-parse", "HEAD~1"): 0, git("rev-parse", "HEAD"): 1}
    assert trajectory.history(tmp_path / "not-a-repo") == {}


def test_the_committed_artifacts_render():
    out = subprocess.run(
        [sys.executable, str(SCRIPT)], check=True, capture_output=True, text=True
    ).stdout
    assert out.startswith("workload")
    assert "sim_mix" in out
