"""Multi-transaction commit on the virtual clock: a determinism and
regression check, not a throughput figure.

Drives the open-loop load generator (:mod:`repro.service.load`)
through sharded commit groups and records decided transactions per
*virtual* second plus p50/p99 submission-to-decision latency into
``benchmarks/results/BENCH_throughput.json``.

Every latency and rate here is measured on the virtual clock
(:mod:`repro.service.virtualtime`): no socket, no fsync, and time jumps
to the next timer.  "Transactions per second" is therefore decided
transactions over virtual makespan; it follows the offered rate and the
bus delay chosen here and says nothing about what a transaction costs
in CPU, syscalls or disk.  The wall-clock numbers are
``benchmarks/e2e`` (``BENCHMARK.json``).  What this file is good for:

* **determinism** — a run is a pure function of ``(txns, rate, shards,
  seed)``; the single-shard configuration is run twice and must report
  identically, and the artifact is machine-independent;
* **regression** — a change to the run loop, the multiplexer or the
  protocol moves these virtual latencies, and the diff of the artifact
  shows it; the floor (500 decided txn per virtual second on a single
  five-node shard) cannot flake on a loaded runner;
* **safety under kill/recover** — one configuration rides along with
  the usual zero-violation gate.

The one real cost recorded is ``cpu_s_per_txn``: process CPU seconds the
run burned per decided transaction, all nodes and the bus in one
process.  It is host-dependent, unlike every other field.
"""

from __future__ import annotations

import time

from abharness import write_results

from repro.service.load import run_load

#: Open-loop configurations: (label, txns, offered rate txn/s, shards,
#: group size, kills).  Rates are offered load on the virtual clock;
#: the report records what the service actually sustained.
CONFIGS = (
    ("1shard", 120, 600.0, 1, 5, 0),
    ("2shard", 160, 800.0, 2, 5, 0),
    ("4shard", 200, 1200.0, 4, 5, 0),
    ("2shard_kill_recover", 120, 400.0, 2, 5, 2),
)

SEED = 11

#: Assertion floor for the single-shard configuration (virtual txn/s).
MIN_SINGLE_SHARD_THROUGHPUT = 500.0


def _run(config):
    _label, txns, rate, shards, group_size, kills = config
    return run_load(
        txns=txns,
        rate=rate,
        shards=shards,
        group_size=group_size,
        seed=SEED,
        kills=kills,
    )


def test_multi_txn_throughput():
    sweeps = {}
    by_label = {}
    for config in CONFIGS:
        label, txns, _rate, _shards, _group_size, kills = config
        cpu_started = time.process_time()
        report = _run(config)
        cpu_s = time.process_time() - cpu_started
        # Correctness before performance: every transaction decided,
        # no two group members disagreeing on any of them.
        assert report.outcome == "terminated", (
            f"{label}: undecided txns {report.undecided}"
        )
        assert report.decided == txns, label
        assert report.safety_violations == 0, label
        if kills:
            assert report.recoveries >= 1, label
        by_label[label] = report
        sweeps[label] = {**report.to_dict(), "cpu_s_per_txn": cpu_s / txns}

    single = by_label["1shard"]
    assert _run(CONFIGS[0]).to_dict() == single.to_dict(), (
        "the same run reported differently the second time"
    )
    assert single.throughput >= MIN_SINGLE_SHARD_THROUGHPUT, (
        f"single shard sustained {single.throughput:.0f} txn/s, "
        f"floor is {MIN_SINGLE_SHARD_THROUGHPUT:.0f}"
    )
    # Sharding must actually scale: four independent groups sustain
    # strictly more than one.
    assert by_label["4shard"].throughput > single.throughput

    write_results(
        "BENCH_throughput.json",
        {
            "benchmark": "multi_txn_throughput",
            "clock": "virtual",
            "what_this_is": (
                "determinism and regression check on the virtual clock: "
                "rates and latencies are in virtual seconds and follow the "
                "offered rate; only cpu_s_per_txn is a real cost, and it is "
                "host-dependent. Wall-clock figures: benchmarks/e2e."
            ),
            "seed": SEED,
            "min_single_shard_throughput": MIN_SINGLE_SHARD_THROUGHPUT,
            "sweeps": sweeps,
        },
    )
