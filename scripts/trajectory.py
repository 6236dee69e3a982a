#!/usr/bin/env python3
"""The performance trajectory: the chain of paired ratios, one per change.

    python3 scripts/trajectory.py

Absolute benchmark numbers drift with the host (the same commit has
read 108.7 and 177.6 ``sim_mix`` ops/s in two sessions), so the
trajectory is not a column of them: it is the chain of paired
comparisons ``scripts/paired.py`` commits, each a change against its own
base on one host.  This script reads the ``PAIRED_*.json`` artifacts in
``benchmarks/results`` and prints one row per artifact and end-to-end
metric: workload, seed, run (1 for ``PAIRED_<w>_seed<s>.json``, ``i``
for ``..._run<i>.json``), base commit, what was measured against it
(the change's commit, ``+`` the start of its ``diff_sha256`` if the
tree was dirty), the change of the median in percent, the pairs the
change won, and whether the metric met the claim rule.  Artifacts are
ordered by where their base commit sits in ``git rev-list HEAD``,
oldest first; a base the history does not hold (or no git at all)
sorts last.
"""

from __future__ import annotations

import json
import re
import subprocess
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
RESULTS = REPO / "benchmarks" / "results"
_NAME = re.compile(r"PAIRED_(?P<workload>.+)_seed(?P<seed>\d+)(?:_run(?P<run>\d+))?\.json")


def artifacts(results: Path) -> list[Path]:
    """The ``PAIRED_*.json`` files in ``results``."""
    return [p for p in sorted(results.glob("PAIRED_*.json")) if _NAME.fullmatch(p.name)]


def history(repo: Path = REPO) -> dict[str, int]:
    """Commit hash -> age rank (0 = the root commit); empty without git."""
    try:
        done = subprocess.run(
            ["git", "-C", str(repo), "rev-list", "--reverse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return {}
    return {commit: rank for rank, commit in enumerate(done.stdout.split())}


def rows(path: Path) -> list[dict]:
    """One row per metric of the artifact at ``path``."""
    name = _NAME.fullmatch(path.name)
    document = json.loads(path.read_text())
    common = {
        "workload": document["workload"],
        "seed": document["seed"],
        "run": int(name["run"] or 1),
        "base": document["base"]["commit"],
        "measured": _measured(document.get("change")),
    }
    return [
        {
            **common,
            "metric": metric,
            "change_pct": entry.get("change_pct"),
            "wins": entry.get("wins"),
            "pairs": entry["pairs"],
            "claim_met": entry.get("claim_met", False),
        }
        for metric, entry in document["summary"].items()
    ]


def _measured(change: dict | None) -> str:
    """The change side: its commit, ``+`` the first digits of its
    ``diff_sha256`` when the tree was dirty (``+?`` for an artifact
    written before the hash was recorded)."""
    if change is None:
        return "n/a"
    if not change.get("uncommitted_changes"):
        return change["commit"][:7]
    return f"{change['commit'][:7]}+{change.get('diff_sha256', '?')[:7]}"


def trajectory(results: Path, ranks: dict[str, int]) -> list[dict]:
    """Every artifact's rows, oldest base first."""
    chain = [row for path in artifacts(results) for row in rows(path)]
    late = len(ranks)
    chain.sort(
        key=lambda row: (
            ranks.get(row["base"], late),
            row["workload"],
            row["seed"],
            row["run"],
        )
    )  # stable: metrics keep the artifact's order
    return chain


def render(chain: list[dict]) -> str:
    header = (
        "workload", "seed", "run", "base", "measured", "metric", "change", "wins",
        "claim_met",
    )  # fmt: skip
    table = [header]
    for row in chain:
        change = row["change_pct"]
        wins = row["wins"]
        table.append(
            (
                row["workload"],
                str(row["seed"]),
                str(row["run"]),
                row["base"][:7],
                row["measured"],
                row["metric"],
                "n/a" if change is None else f"{change:+.1f}%",
                f"{'n/a' if wins is None else wins}/{row['pairs']}",
                "yes" if row["claim_met"] else "no",
            )
        )
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in table
    )


def main() -> int:
    print(render(trajectory(RESULTS, history())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
