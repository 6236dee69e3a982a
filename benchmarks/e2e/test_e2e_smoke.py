"""Smoke test of the e2e benchmark.

Not collected by tier-1 (``testpaths = ["tests"]``); run it by name:

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

It drives ``run.py --workload all --smoke --trace 1`` — two seconds of
each ``tcp3_*`` workload with one SIGKILL each, one campaign window and
one vote vector of ``sim_mix``, every workload once untraced and once
traced — and checks the benchmark's contract rather than its numbers:
the printed workload and metric names are exactly those in
``BENCHMARK.json``, every metric carries its declared unit, no
operation failed, and no node process or scratch directory survives.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent


def _node_processes() -> list[str]:
    """Command lines of live service nodes started from this checkout."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if "service start" in cmdline and str(HERE / ".work") in cmdline:
            found.append(cmdline)
    return found


def test_smoke_run_matches_benchmark_json():
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke", "--trace", "1"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]

    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith('{"correct"')]
    headers = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("== ") and "seed=" in line]
    assert headers == [w["name"] for w in benchmark["workloads"]]
    # Per workload: the end-to-end line, then the per-layer line.
    assert len(results) == 2 * len(headers)
    for declared, lines in (
        (benchmark["end_to_end"], results[0::2]),
        (benchmark["per_layer"], results[1::2]),
    ):
        units = {metric["name"]: metric["unit"] for metric in declared}
        for result in lines:
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            assert list(result["metrics"]) == list(units)
            for name, reading in result["metrics"].items():
                assert reading["unit"] == units[name] != ""
                assert isinstance(reading["value"], (int, float))
    for result in results[0::2]:
        assert all(reading["value"] > 0 for reading in result["metrics"].values())

    assert _node_processes() == []
    assert not (HERE / ".work").exists()
