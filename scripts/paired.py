#!/usr/bin/env python3
"""Alternating benchmark pairs: a base commit against the working tree.

    python3 scripts/paired.py --base HEAD~1 --workload sim_mix --pairs 10 --seed 13

Resolves ``--base`` to a commit and extracts that commit's tree into a
temporary directory (``git archive``, so the repository's own checkout
and ``.git`` are left alone), then runs ``benchmarks/e2e/run.py --trace
0`` of each tree, from that tree, once per side and pair, for the run
length ``BENCHMARK.json`` sets.  Which side runs first alternates from
pair to pair, so a drift of the host's speed falls on both sides alike.
Every run's end-to-end metrics go into
``benchmarks/results/PAIRED_<workload>_seed<seed>.json`` with the host,
and per metric the medians and quartiles of each side
(``quartile_spread`` of ``benchmarks/e2e/metrics.py``), the pairs the
change won, and whether the change is better than the base by more
than the distance between the base's quartiles.  A claimed gain needs
both: at least nine wins in every ten pairs run (a pair in which a run
failed is no win), and that distance; and the change may not fail a
larger share of its operations than the base.  An artifact is never
overwritten: a later run of the same workload and seed is written as
``PAIRED_<workload>_seed<seed>_run<i>.json``, ``i`` the first free
index from 2.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")


def _load_metric_defs():
    path = REPO / "benchmarks" / "e2e" / "metrics.py"
    spec = importlib.util.spec_from_file_location("_e2e_metrics", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


metric_defs = _load_metric_defs()


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(REPO), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


@contextlib.contextmanager
def base_checkout(commit: str, repo: Path = REPO):
    """A temporary directory holding the tree of ``commit`` (a full
    hash, so the tree is the one recorded), removed afterwards."""
    with tempfile.TemporaryDirectory(prefix="paired-base-") as path:
        archive = subprocess.run(
            ["git", "-C", str(repo), "archive", "--format=tar", commit],
            check=True,
            capture_output=True,
        )
        subprocess.run(
            ["tar", "-x", "-C", path], input=archive.stdout, check=True
        )
        yield Path(path)


def artifact_path(results: Path, workload: str, seed: int) -> Path:
    """The first name in ``results`` not taken by an earlier run."""
    stem = f"PAIRED_{workload}_seed{seed}"
    path = results / f"{stem}.json"
    index = 2
    while path.exists():
        path = results / f"{stem}_run{index}.json"
        index += 1
    return path


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` run of ``tree``; its result line plus how it went."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    started = time.perf_counter()
    done = subprocess.run(
        [
            sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],  # fmt: skip
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    return {
        "exit": done.returncode,
        "correct": result.get("correct", False),
        "attempted": result.get("attempted", 0),
        "failed": result.get("failed", 0),
        "invalid": "INVALID RUN" in done.stdout,
        "wall_s": round(time.perf_counter() - started, 3),
        "metrics": {
            name: entry["value"] for name, entry in result.get("metrics", {}).items()
        },
    }


def first_side(index: int) -> str:
    """The side that runs first in pair ``index``: they take turns."""
    return SIDES[index % 2]


def _quartiles(values: list[float]) -> dict:
    q1, median, q3, _spread = metric_defs.quartile_spread(values)
    return {"median": median, "q1": q1, "q3": q3}


def _ran(row: dict) -> bool:
    return row["exit"] == 0 and row["correct"]


def failures(pairs: list[dict]) -> dict:
    """Per side: runs that failed, and operations failed of attempted."""
    totals = {}
    for side in SIDES:
        rows = [pair[side] for pair in pairs]
        attempted = sum(row.get("attempted", 0) for row in rows)
        failed = sum(row.get("failed", 0) for row in rows)
        totals[side] = {
            "failed_runs": sum(not _ran(row) for row in rows),
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted if attempted else 0.0,
        }
    return totals


def summarise(pairs: list[dict], metrics=metric_defs.END_TO_END) -> dict:
    """Per metric: each side's median and quartiles, the change's pair
    wins, and whether it beats the base by more than the base's
    quartile distance.  ``pairs`` holds ``{"base": row, "change": row}``
    with ``row["metrics"]`` as :func:`run_side` returns it.  Medians and
    quartiles are taken over the pairs in which both runs went through;
    wins count over every pair, so a pair with a failed run is no win.
    No claim is met when the change has more failed runs, or fails a
    larger share of its operations, than the base."""
    usable = [pair for pair in pairs if all(_ran(pair[side]) for side in SIDES)]
    totals = failures(pairs)
    fails_more = (
        totals["change"]["failed_runs"] > totals["base"]["failed_runs"]
        or totals["change"]["failed_share"] > totals["base"]["failed_share"]
    )
    summary = {}
    for metric in metrics:
        base = [pair["base"]["metrics"][metric.name] for pair in usable]
        change = [pair["change"]["metrics"][metric.name] for pair in usable]
        if len(usable) < 2:
            summary[metric.name] = {"pairs": len(pairs), "usable_pairs": len(usable)}
            continue
        sign = 1 if metric.better == "higher" else -1
        base_q, change_q = _quartiles(base), _quartiles(change)
        gain = sign * (change_q["median"] - base_q["median"])
        base_iqr = base_q["q3"] - base_q["q1"]
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        summary[metric.name] = {
            "unit": metric.unit,
            "better": metric.better,
            "bound": metric.bound,
            "pairs": len(pairs),
            "usable_pairs": len(usable),
            "base": base_q,
            "change": change_q,
            "change_pct": (
                100 * (change_q["median"] - base_q["median"]) / base_q["median"]
                if base_q["median"]
                else 0.0
            ),
            "wins": wins,
            "base_iqr": base_iqr,
            "gain_beyond_base_iqr": gain > base_iqr,
            "claim_met": (
                10 * wins >= 9 * len(pairs) and gain > base_iqr and not fails_more
            ),
        }
    return summary


def host() -> dict:
    info = {
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    return info


def main() -> int:
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the base")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    seconds = float(benchmark["run_seconds"])
    out = artifact_path(REPO / "benchmarks" / "results", args.workload, args.seed)
    base_commit = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "base": {"ref": args.base, "commit": base_commit},
        "change": {
            "commit": _git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(_git("status", "--porcelain")),
        },
        "host": host(),
        "pairs": [],
    }
    with base_checkout(base_commit) as base_tree:
        trees = {"base": base_tree, "change": REPO}
        for index in range(args.pairs):
            first = first_side(index)
            pair = {"first": first}
            for side in (first, *(s for s in SIDES if s != first)):
                pair[side] = run_side(trees[side], args.workload, args.seed, seconds)
            document["pairs"].append(pair)
            print(
                f"pair {index + 1}/{args.pairs} ({first} first): "
                + "  ".join(
                    f"{side} ops_per_s={pair[side]['metrics'].get('ops_per_s', float('nan')):.2f}"
                    f" exit={pair[side]['exit']}"
                    for side in SIDES
                ),
                flush=True,
            )
    document["failures"] = failures(document["pairs"])
    document["summary"] = summarise(document["pairs"])
    for name, row in document["summary"].items():
        if "wins" in row:
            print(
                f"{name:<16} base {row['base']['median']:>10.3f}  change "
                f"{row['change']['median']:>10.3f}  {row['change_pct']:+7.1f}%  "
                f"wins {row['wins']}/{row['pairs']}  base IQR {row['base_iqr']:.3f}"
            )
    with out.open("x") as stream:
        stream.write(json.dumps(document, indent=1) + "\n")
    print(f"wrote {out.relative_to(REPO)}")
    failed = sum(row["failed_runs"] for row in document["failures"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
