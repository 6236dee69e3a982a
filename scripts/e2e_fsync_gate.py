#!/usr/bin/env python3
"""CI gate on the traced output of ``benchmarks/e2e/run.py``.

    python3 benchmarks/e2e/run.py --workload all --smoke --trace | tee smoke.txt
    python3 scripts/e2e_fsync_gate.py smoke.txt

The service syncs its write-ahead log once per run-loop pass, and a pass
that steps takes one step or more, so on every ``tcp3_*`` workload
``wal.fsyncs_per_op`` stays within ``txn.steps_per_op`` + 1 (the one
covers passes that append without stepping: start-up, a compaction
marker, an adopted transfer).  A change that brings back a sync per
record breaks that at once: with per-record syncs the parent of this
gate read 33.0 against 26.1.

The envelope decoder checks the type of every field it hands to the run
loop (``ServiceEnvelope.from_dict``), so on the same workloads
``wire.decode_errors`` must read 0: the decoder rejects nothing the
service itself sends.

Exit status 1 names the workloads over either line, or says that the
rows were not there to read.
"""

from __future__ import annotations

import re
import sys

ROW = re.compile(
    r"^(tcp3_\w+)\s+(wal\.fsyncs_per_op|txn\.steps_per_op|wire\.decode_errors)"
    r"\s+([0-9.]+)\s"
)
EXPECTED = ("tcp3_open20", "tcp3_closed16", "tcp3_killrecover")


def main(argv: list[str]) -> int:
    rows: dict[str, dict[str, float]] = {}
    with open(argv[1], encoding="utf-8") as output:
        for line in output:
            match = ROW.match(line)
            if match:
                workload, name, value = match.groups()
                rows.setdefault(workload, {})[name] = float(value)
    failed = False
    for workload in EXPECTED:
        row = rows.get(workload, {})
        fsyncs = row.get("wal.fsyncs_per_op")
        steps = row.get("txn.steps_per_op")
        if not fsyncs or not steps:
            print(f"{workload}: traced rows missing or zero ({row})")
            failed = True
            continue
        verdict = "ok" if fsyncs <= steps + 1 else "TOO MANY FSYNCS"
        print(
            f"{workload}: wal.fsyncs_per_op {fsyncs:.1f} vs "
            f"txn.steps_per_op {steps:.1f} + 1: {verdict}"
        )
        failed |= fsyncs > steps + 1
        rejected = row.get("wire.decode_errors")
        if rejected is None:
            print(f"{workload}: wire.decode_errors row missing")
            failed = True
        else:
            verdict = "ok" if rejected == 0 else "THE DECODER REJECTED OUR OWN LINES"
            print(f"{workload}: wire.decode_errors {rejected:.0f}: {verdict}")
            failed |= rejected != 0
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
