"""The benchmark's metric definitions and the per-layer arithmetic.

``BENCHMARK.json`` is the contract the driver reads; the tables here are
what ``run.py`` prints from, and ``test_e2e_smoke.py`` asserts that the
two name exactly the same metrics with the same units.  Every per-layer
row also records which end-to-end metric it should move and on which
workload — written down before any optimisation is attempted, so a
later change can be checked against the prediction.

Layer names are module names.  "per_op" divides by decided
transactions (service) or trials (sim); service numbers are summed over
the three nodes.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only
    moves: str = ""  # per-layer only: what it should move, and where


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("tail_ops_per_s", "1/s", "higher", 0.25),
    Metric("op_p50_ms", "ms", "lower", 0.25),
    Metric("cpu_ms_per_op", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
)

_CLOSED = "tcp3_closed16"
_OPEN = "tcp3_open20"
_KILL = "tcp3_killrecover"
_SIM = "sim_mix"

PER_LAYER = (
    # wire: the JSON envelope codec.
    Metric("wire.encode_us", "us", "lower", moves=f"cpu_ms_per_op, ops_per_s on {_CLOSED}"),
    Metric("wire.decode_us", "us", "lower", moves=f"cpu_ms_per_op, ops_per_s on {_CLOSED}"),
    Metric("wire.encodes_per_op", "count", "lower", moves=f"cpu_ms_per_op on {_CLOSED}"),
    Metric("wire.decodes_per_op", "count", "lower", moves=f"cpu_ms_per_op on {_CLOSED}"),
    Metric("wire.bytes_per_op", "B", "lower", moves=f"cpu_ms_per_op on {_CLOSED}"),
    Metric("wire.decode_errors", "count", "lower", moves="validity: must stay 0"),
    # wal: append, fsync, snapshot compaction.
    Metric("wal.append_us", "us", "lower", moves=f"op_p50_ms on {_OPEN}; ops_per_s on {_CLOSED}"),
    Metric("wal.encode_record_us", "us", "lower", moves=f"cpu_ms_per_op on {_CLOSED}"),
    Metric("wal.fsync_us", "us", "lower", moves=f"op_p50_ms on {_OPEN}; ops_per_s on {_CLOSED}"),
    Metric("wal.fsyncs_per_op", "count", "lower", moves=f"op_p50_ms on {_OPEN}; ops_per_s on {_CLOSED}"),
    Metric("wal.records_per_op", "count", "lower", moves=f"ops_per_s on {_CLOSED}"),
    Metric("wal.bytes_per_op", "B", "lower", moves=f"ops_per_s on {_CLOSED}"),
    Metric("wal.snapshot_ms", "ms", "lower", moves=f"tail_ops_per_s on {_CLOSED}"),
    Metric("wal.snapshots", "count", "lower", moves=f"tail_ops_per_s on {_CLOSED}"),
    Metric("wal.snapshot_bytes_per_op", "B", "lower", moves=f"tail_ops_per_s on {_CLOSED}"),
    # txn: the instance multiplexer.
    Metric("txn.apply_step_us", "us", "lower", moves=f"cpu_ms_per_op on {_OPEN}"),
    Metric("txn.steps_per_op", "count", "lower", moves=f"cpu_ms_per_op on {_OPEN}"),
    Metric("txn.msgs_per_step", "count", "higher", moves=f"cpu_ms_per_op on {_OPEN}"),
    Metric("txn.empty_steps_share", "%", "lower", moves=f"cpu_ms_per_op on {_OPEN} (idle ticks)"),
    # node: the durable step loop and its client-facing calls.
    Metric("node.submit_us", "us", "lower", moves=f"op_p50_ms on {_OPEN}"),
    Metric("node.status_us", "us", "lower", moves=f"tail_ops_per_s on {_CLOSED}"),
    Metric("node.status_bytes_last", "B", "lower", moves=f"tail_ops_per_s, peak_rss_mb on {_CLOSED}"),
    Metric("node.delivers_per_op", "count", "lower", moves=f"cpu_ms_per_op on {_CLOSED}"),
    Metric("node.unattributed_cpu_share", "%", "lower", moves="coverage of this table, not a target"),
    # server: one TCP connection per transmission.
    Metric("server.transmits_per_op", "count", "lower", moves=f"client.op_p90_ms on {_OPEN}; cpu_ms_per_op on {_CLOSED}"),
    Metric("server.transmit_ms", "ms", "lower", moves=f"client.op_p90_ms on {_OPEN}"),
    Metric("server.retransmits_per_op", "count", "lower", moves=f"recovery.recover_s on {_KILL}"),
    Metric("server.accepts_per_op", "count", "lower", moves=f"cpu_ms_per_op on {_CLOSED}"),
    Metric("server.listen_overflows", "count", "lower", moves=f"recovery.recover_s, recovery.unavailable_s on {_KILL}"),
    Metric("server.syn_retrans", "count", "lower", moves=f"recovery.recover_s, recovery.unavailable_s on {_KILL}"),
    # recovery: restart-by-replay, offline and live.
    Metric("recovery.read_ms", "ms", "lower", moves=f"recovery.recover_s on {_KILL}"),
    Metric("recovery.replay_ms", "ms", "lower", moves=f"recovery.recover_s on {_KILL}"),
    Metric("recovery.records", "count", "lower", moves=f"recovery.replay_ms on {_KILL}"),
    Metric("recovery.replay_us_per_record", "us", "lower", moves=f"recovery.replay_ms on {_KILL}"),
    Metric("recovery.resend_envelopes", "count", "lower", moves=f"recovery.recover_s on {_KILL}"),
    Metric("recovery.catchup_s", "s", "lower", moves=f"client.op_p90_ms on {_KILL}"),
    Metric("recovery.recover_s", "s", "lower", moves=f"cpu_ms_per_op, op_p50_ms on {_KILL}"),
    Metric("recovery.unavailable_s", "s", "lower", moves=f"op_p50_ms on {_KILL}"),
    # client: what the driver saw.  The tail percentiles are here and not
    # end-to-end because a SIGKILL workload moves them 2x between
    # identical runs, and the driver wants one metric list for all four.
    Metric("client.op_p90_ms", "ms", "lower", moves=f"the latency tail on {_OPEN}; the recovery stall on {_KILL}"),
    Metric("client.op_p99_ms", "ms", "lower", moves=f"limit 250 ms on {_OPEN}; 1% of the samples lie beyond it"),
    Metric("client.over_250ms_share", "%", "lower", moves=f"limit on {_OPEN}"),
    Metric("client.submit_ms", "ms", "lower", moves="validity"),
    Metric("client.poll_ms", "ms", "lower", moves="validity"),
    Metric("client.polls", "count", "higher", moves="validity"),
    Metric("client.submit_retries", "count", "lower", moves="validity"),
    Metric("client.gen_late_p99_ms", "ms", "lower", moves=f"validity: > 25 on {_OPEN} voids the run"),
    # proc / host: context for every row.
    Metric("proc.cpu_user_s", "s", "lower", moves="context"),
    Metric("proc.cpu_sys_s", "s", "lower", moves="context"),
    Metric("proc.vol_ctx_switches", "count", "lower", moves="context"),
    Metric("proc.rss_growth_mb", "MB", "lower", moves=f"peak_rss_mb on {_CLOSED}"),
    Metric("host.fsync_us", "us", "lower", moves="context"),
    Metric("host.loadavg_start", "count", "lower", moves="context"),
    Metric("host.busy_share_start", "%", "lower", moves="validity: > 50 voids the run"),
    Metric("host.nproc", "count", "higher", moves="context"),
    # sim / adversary: the reference scheduler's inner loop.
    Metric("sim.apply_us", "us", "lower", moves=f"ops_per_s on {_SIM}"),
    Metric("sim.decide_us", "us", "lower", moves=f"ops_per_s on {_SIM}"),
    Metric("sim.buffer_take_us", "us", "lower", moves=f"ops_per_s on {_SIM}"),
    Metric("sim.tape_us", "us", "lower", moves=f"ops_per_s on {_SIM}"),
    Metric("sim.build_run_ms", "ms", "lower", moves=f"ops_per_s on {_SIM}"),
    Metric("sim.rounds_ms", "ms", "lower", moves=f"ops_per_s on {_SIM}"),
    Metric("sim.events_per_trial", "count", "lower", moves=f"ops_per_s on {_SIM}"),
    Metric("sim.horizon_trials_share", "%", "lower", moves=f"ops_per_s, client.op_p90_ms on {_SIM}"),
    Metric("sim.ref_trials_per_s_n15", "1/s", "higher", moves=f"ops_per_s on {_SIM}"),
    Metric("sim.fast_trials_per_s_n15", "1/s", "higher", moves=f"ops_per_s on {_SIM}"),
    Metric("sim.ref_trials_per_s_n25", "1/s", "higher", moves=f"ops_per_s on {_SIM}"),
    Metric("sim.fast_trials_per_s_n25", "1/s", "higher", moves=f"ops_per_s on {_SIM}"),
    # faults / mc.
    Metric("faults.plan_draw_us", "us", "lower", moves=f"setup_s, ops_per_s on {_SIM}"),
    Metric("faults.compile_us", "us", "lower", moves=f"ops_per_s on {_SIM}"),
    Metric("faults.safety_check_us", "us", "lower", moves=f"ops_per_s, mc.states_per_s on {_SIM}"),
    Metric("faults.ref_campaign_trials_per_s", "1/s", "higher", moves=f"ops_per_s on {_SIM}"),
    Metric("faults.fast_campaign_trials_per_s", "1/s", "higher", moves=f"ops_per_s on {_SIM}"),
    Metric("mc.states_per_s", "1/s", "higher", moves=f"the mc segment of {_SIM}"),
    Metric("mc.states_visited", "count", "lower", moves="must repeat exactly for a seed"),
    Metric("mc.fingerprint_us", "us", "lower", moves=f"mc.states_per_s on {_SIM}"),
    Metric("mc.sleep_pruned", "count", "higher", moves=f"mc.states_per_s on {_SIM}"),
    # the tracing itself.
    Metric("trace.lost_incarnations", "count", "lower", moves="SIGKILLed nodes take their spans with them"),
    Metric("trace_overhead_share", "%", "lower", moves="traced vs untraced cpu_ms_per_op"),
)  # fmt: skip

#: Self time of these spans is I/O wait, not CPU.
_IO_SPANS = ("wal.fsync", "wal.snapshot_write")
#: Coroutine spans: wall time across awaits.
_WALL_SPANS = ("server.transmit", "server.accept")


def quartile_spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(q1, median, q3, spread)``: the driver's run-to-run spread is the
    distance between the quartiles as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, ((q3 - q1) / q2 if q2 else 0.0)


def zero_layers() -> dict[str, float]:
    return {metric.name: 0.0 for metric in PER_LAYER}


def _per_call(totals: dict, name: str, key: str, scale: float) -> float:
    entry = totals.get(name)
    if not entry or not entry["count"]:
        return 0.0
    return entry[key] / entry["count"] * scale


def _count(totals: dict, name: str) -> float:
    entry = totals.get(name)
    return entry["count"] if entry else 0.0


def service_layers(
    totals: dict, counters: dict, node_cpu_s: float, decided: int
) -> dict[str, float]:
    """The span-derived rows of the service layers (summed over nodes)."""
    ops = max(decided, 1)
    steps = _count(totals, "txn.apply_step")
    attributed = sum(
        entry["self_s"]
        for name, entry in totals.items()
        if name not in _IO_SPANS and name not in _WALL_SPANS
    )
    return {
        "wire.encode_us": _per_call(totals, "wire.encode", "self_s", 1e6),
        "wire.decode_us": _per_call(totals, "wire.decode", "self_s", 1e6),
        "wire.encodes_per_op": _count(totals, "wire.encode") / ops,
        "wire.decodes_per_op": _count(totals, "wire.decode") / ops,
        "wire.bytes_per_op": counters.get("wire.bytes", 0.0) / ops,
        "wire.decode_errors": counters.get("wire.decode.errors", 0.0),
        "wal.append_us": _per_call(totals, "wal.append", "self_s", 1e6),
        "wal.encode_record_us": _per_call(totals, "wal.encode_record", "self_s", 1e6),
        "wal.fsync_us": _per_call(totals, "wal.fsync", "total_s", 1e6),
        "wal.fsyncs_per_op": _count(totals, "wal.fsync") / ops,
        "wal.records_per_op": _count(totals, "wal.append") / ops,
        "wal.bytes_per_op": counters.get("wal.bytes", 0.0) / ops,
        "wal.snapshot_ms": _per_call(totals, "wal.snapshot", "total_s", 1e3),
        "wal.snapshots": _count(totals, "wal.snapshot"),
        "wal.snapshot_bytes_per_op": counters.get("wal.snapshot_bytes", 0.0) / ops,
        "txn.apply_step_us": _per_call(totals, "txn.apply_step", "self_s", 1e6),
        "txn.steps_per_op": steps / ops,
        "txn.msgs_per_step": counters.get("txn.step_msgs", 0.0) / max(steps, 1),
        "txn.empty_steps_share": 100.0 * counters.get("txn.empty_steps", 0.0) / max(steps, 1),
        # Whole call, children included: what a submit costs inside the node.
        "node.submit_us": _per_call(totals, "node.submit", "total_s", 1e6),
        "node.status_us": _per_call(totals, "node.status", "total_s", 1e6),
        "node.delivers_per_op": _count(totals, "node.deliver") / ops,
        "node.unattributed_cpu_share": 100.0 * (1 - attributed / node_cpu_s)
        if node_cpu_s
        else 0.0,
        "server.transmits_per_op": _count(totals, "server.transmit") / ops,
        "server.transmit_ms": _per_call(totals, "server.transmit", "total_s", 1e3),
        "server.retransmits_per_op": counters.get("server.retransmits", 0.0) / ops,
        "server.accepts_per_op": _count(totals, "server.accept") / ops,
    }  # fmt: skip


def sim_layers(totals: dict) -> dict[str, float]:
    """The span-derived rows of the sim-side layers."""
    return {
        "sim.apply_us": _per_call(totals, "sim.apply", "self_s", 1e6),
        "sim.decide_us": _per_call(totals, "sim.decide", "self_s", 1e6),
        "sim.buffer_take_us": _per_call(totals, "sim.buffer_take", "self_s", 1e6),
        "sim.tape_us": _per_call(totals, "sim.tape", "self_s", 1e6),
        "sim.build_run_ms": _per_call(totals, "sim.build_run", "total_s", 1e3),
        "sim.rounds_ms": _per_call(totals, "sim.rounds", "total_s", 1e3),
        "faults.plan_draw_us": _per_call(totals, "faults.plan_draw", "total_s", 1e6),
        "faults.compile_us": _per_call(totals, "faults.compile", "total_s", 1e6),
        "faults.safety_check_us": _per_call(totals, "faults.safety_check", "total_s", 1e6),
        "mc.fingerprint_us": _per_call(totals, "mc.fingerprint", "total_s", 1e6),
    }  # fmt: skip
