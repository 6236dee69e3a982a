#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

    python3 benchmarks/e2e/spread.py --runs 10 --first-seed 100 --out results/spread.json

Runs ``run.py`` as a subprocess ``--runs`` times per workload, each time
with another ``--seed``, parses the last line of its output, and reports
for each metric the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound.  A spread above the bound means the benchmark,
not the program, needs work.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from metrics import quartile_spread  # this script's directory is sys.path[0]

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],  # fmt: skip
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    result["invalid"] = "INVALID RUN" in done.stdout
    return result


def main() -> int:
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    document = {"runs": args.runs, "first_seed": args.first_seed, "workloads": {}}
    worst = 0.0
    for workload in args.workload or [w["name"] for w in benchmark["workloads"]]:
        runs = [
            one_run(workload, args.first_seed + index, benchmark["run_seconds"])
            for index in range(args.runs)
        ]
        rows = {}
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            q1, q2, q3, spread = quartile_spread(values)
            rows[name] = {
                "median": q2, "q1": q1, "q3": q3,
                "spread": spread, "bound": bound, "values": values,
            }  # fmt: skip
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(
                f"{workload:<18} {name:<16} median {q2:>10.3f}  spread {spread:6.3f}  "
                f"bound {bound:.2f}  {'OK' if spread <= bound else 'TOO NOISY'}",
                flush=True,
            )
        document["workloads"][workload] = {
            "metrics": rows,
            "failed": sum(run["failed"] for run in runs),
            "invalid_runs": sum(run["invalid"] for run in runs),
            "wall_s_max": max(run["wall_s"] for run in runs),
        }
        print(
            f"{workload:<18} wall per run: max {document['workloads'][workload]['wall_s_max']:.1f}s, "
            f"invalid runs: {document['workloads'][workload]['invalid_runs']}",
            flush=True,
        )
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"worst spread/bound ratio (setup_s aside): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
