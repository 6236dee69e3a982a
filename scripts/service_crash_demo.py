#!/usr/bin/env python
"""Crash-recovery demo: SIGKILL the coordinator and a participant mid-commit.

Launches a real ``repro service`` cluster — one OS process per node,
write-ahead logs on disk — submits one or more transactions, SIGKILLs
the coordinator and one participant while the commits are in flight,
restarts both from their WALs, and verifies that every node ends with
the same decision for every transaction.  This is the paper's
nonblocking claim carried into the crash-recovery model: killed
processors replay their durable logs, rejoin, and the transactions
still complete consistently.

With ``--txns`` greater than one (the default is 2) the nodes run in
multi-transaction mode: all transactions are submitted back-to-back so
the victims die hosting several in-flight protocol instances at once,
and recovery must replay the interleaved per-transaction WAL records.
``--txns 1`` reproduces the original single-transaction demo.

Exit status: 0 on a consistent, fully-decided cluster; 1 otherwise.

Usage::

    PYTHONPATH=src python scripts/service_crash_demo.py \
        --data-dir /tmp/crash-demo --base-port 7500 --txns 2
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

N = 5
COORDINATOR = 0
PARTICIPANT = 2


def start_node(args, pid: int) -> subprocess.Popen:
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "--log-level",
        "info",  # node<p>.out: the listening / recovered lines of each start
        "service",
        "start",
        "--node",
        str(pid),
        "--votes",
        ",".join("1" * N),
        "--seed",
        str(args.seed),
        "--base-port",
        str(args.base_port),
        "--data-dir",
        args.data_dir,
        "--tick-interval",
        str(args.tick_interval),
        "--trace-spans",
        str(Path(args.data_dir) / f"node{pid}" / "trace.jsonl"),
    ]
    if args.txns > 1:
        command.append("--multi-txn")
    log = open(Path(args.data_dir) / f"node{pid}.out", "ab")
    return subprocess.Popen(command, stdout=log, stderr=log)


def service(args, *command: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "service", *command],
        capture_output=True,
        text=True,
        timeout=60,
    )


def cluster_status(args, check: bool = True) -> tuple[int, dict]:
    command = ["status", "--base-port", str(args.base_port), "--n", str(N)]
    if check:
        command.append("--check")
    result = service(args, *command)
    try:
        doc = json.loads(result.stdout)
    except json.JSONDecodeError:
        doc = {"nodes": []}
    return result.returncode, doc


def submit_all(args) -> bool:
    """Release every transaction at the coordinator, back-to-back.

    Multi-transaction submissions go through one helper process (one
    interpreter start-up, then millisecond-spaced TCP submits) so that
    when the SIGKILL lands moments later, the victims are hosting all
    of them in flight at once.
    """
    if args.txns == 1:
        result = service(
            args, "submit", "--port", str(args.base_port + COORDINATOR)
        )
    else:
        script = (
            "import sys; from repro.service.client import submit; "
            "port, txns = int(sys.argv[1]), int(sys.argv[2]); "
            "[submit('127.0.0.1', port, txn=i) for i in range(1, txns + 1)]"
        )
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                script,
                str(args.base_port + COORDINATOR),
                str(args.txns),
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
    if result.returncode != 0:
        print(f"submit failed: {result.stderr}", file=sys.stderr)
        return False
    return True


def multi_txn_agreement(args, doc: dict) -> dict[int, int] | None:
    """Per-transaction unanimous decisions, or None while incomplete.

    Every node must be reachable and report the same decision for every
    submitted transaction id.
    """
    nodes = doc.get("nodes", [])
    if len(nodes) < N or any("unreachable" in n for n in nodes):
        return None
    expected = {str(txn) for txn in range(1, args.txns + 1)}
    agreed: dict[int, int] = {}
    for txn in sorted(expected, key=int):
        bits = {(n.get("txns") or {}).get(txn) for n in nodes}
        if len(bits) != 1 or None in bits:
            return None
        agreed[int(txn)] = bits.pop()
    return agreed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", default="/tmp/repro-crash-demo")
    parser.add_argument("--base-port", type=int, default=7500)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--tick-interval", type=float, default=0.05)
    parser.add_argument(
        "--settle",
        type=float,
        default=20.0,
        help="seconds to wait for post-restart agreement",
    )
    parser.add_argument(
        "--txns",
        type=int,
        default=2,
        help="transactions to drive (>1 runs the nodes in "
        "multi-transaction mode; 1 is the classic demo)",
    )
    args = parser.parse_args()
    if args.txns < 1:
        parser.error("--txns must be >= 1")

    shutil.rmtree(args.data_dir, ignore_errors=True)
    Path(args.data_dir).mkdir(parents=True)

    procs = {pid: start_node(args, pid) for pid in range(N)}
    try:
        time.sleep(2.0)  # listeners up, coordinator holding for submit

        noun = "transaction" if args.txns == 1 else f"{args.txns} transactions"
        print(f"submitting {noun}...")
        if not submit_all(args):
            return 1

        # Strike mid-commit: the tick interval keeps the protocol slow
        # enough that both victims die with the outcome(s) still open —
        # in multi-transaction mode the back-to-back submissions mean
        # every instance is in flight when the signal lands.
        time.sleep(4 * args.tick_interval)
        for victim in (COORDINATOR, PARTICIPANT):
            print(f"SIGKILL node {victim} (pid {procs[victim].pid})")
            os.kill(procs[victim].pid, signal.SIGKILL)
            procs[victim].wait()

        time.sleep(5 * args.tick_interval)
        for victim in (COORDINATOR, PARTICIPANT):
            print(f"restarting node {victim} from its WAL")
            procs[victim] = start_node(args, victim)

        print("waiting for cluster-wide agreement...")
        deadline = time.monotonic() + args.settle
        agreed: dict[int, int] | None = None
        while time.monotonic() < deadline:
            if args.txns == 1:
                code, doc = cluster_status(args)
                if code == 0:
                    agreed = {1: next(iter(
                        {n["decision"] for n in doc["nodes"]}
                    ))}
                    break
            else:
                _, doc = cluster_status(args, check=False)
                agreed = multi_txn_agreement(args, doc)
                if agreed is not None:
                    break
            time.sleep(0.5)
        else:
            print("cluster did not reach agreement in time", file=sys.stderr)
            _, doc = cluster_status(args, check=False)
            print(json.dumps(doc, indent=2, sort_keys=True), file=sys.stderr)
            return 1

        incarnations = {n["pid"]: n["incarnation"] for n in doc["nodes"]}
        print(f"decisions:    {agreed}")
        print(f"incarnations: {incarnations}")
        if set(agreed.values()) != {1}:
            print("expected unanimous commits", file=sys.stderr)
            return 1
        if incarnations[COORDINATOR] < 1 or incarnations[PARTICIPANT] < 1:
            print("victims did not actually recover", file=sys.stderr)
            return 1
        print(
            f"OK: both victims replayed their WALs and "
            f"{'the commit' if args.txns == 1 else 'every commit'} held"
        )
        return 0
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in procs.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()


if __name__ == "__main__":
    sys.exit(main())
