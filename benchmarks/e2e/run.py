#!/usr/bin/env python3
"""The wall-clock, layer-attributed benchmark of the commit service and
the sim harness.  One command; see ``README.md`` next to this file.

    python3 benchmarks/e2e/run.py --workload all --seed 13 [--trace] [--smoke]
    python3 benchmarks/e2e/run.py --workload tcp3_open20 --seed 7 --seconds 20 --trace 0

Each workload run prints every metric by name with its unit, then — as
the last line — one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``; the workload is then run twice,
untraced and traced, and every number that does not need spans still
comes from the untraced run).  Exit status is non-zero when any
operation failed its correctness check, and when the cluster could not
be brought up: a broken run never becomes a number.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
for entry in (HERE, HERE.parent, REPO / "src"):
    sys.path.insert(0, str(entry))

import metrics as metric_defs  # noqa: E402
from spans import SpanRecorder, layer_totals, merge_totals  # noqa: E402

WORKLOAD_NAMES = ("tcp3_open20", "tcp3_closed16", "tcp3_killrecover", "sim_mix")
SETUP_REPEATS = 3
SMOKE_SECONDS = 2.0


@dataclass
class Report:
    """Everything one workload run measured."""

    workload: str
    seed: int
    end_to_end: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] | None = None
    detail: dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    invalid: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)


# -- host ---------------------------------------------------------------------


def _cpu_jiffies() -> tuple[int, int]:
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    idle = fields[3] + fields[4]
    return sum(fields) - idle, sum(fields)


def busy_share(sample_s: float = 0.25) -> float:
    """Share of all cores busy right now — with *other* work, since the
    benchmark has not started any yet."""
    busy0, total0 = _cpu_jiffies()
    time.sleep(sample_s)
    busy1, total1 = _cpu_jiffies()
    return (busy1 - busy0) / max(total1 - total0, 1)


def host_context() -> dict[str, object]:
    from abharness import host_metadata

    context = dict(host_metadata())
    context["host.nproc"] = float(os.cpu_count() or 1)
    context["host.loadavg_start"] = os.getloadavg()[0]
    context["host.busy_share_start"] = 100.0 * busy_share()
    return context


def fsync_us(directory: Path, count: int = 200) -> float:
    """Median microseconds of one 64-byte append + fsync in ``directory``."""
    samples = []
    path = directory / "fsync-probe"
    with open(path, "ab", buffering=0) as handle:
        for _ in range(count):
            handle.write(b"x" * 64)
            started = time.perf_counter()
            os.fsync(handle.fileno())
            samples.append(time.perf_counter() - started)
    path.unlink()
    return statistics.median(samples) * 1e6


def netstat() -> dict[str, int]:
    """``ListenOverflows`` and ``TCPSynRetrans`` (host-wide counters)."""
    try:
        lines = Path("/proc/net/netstat").read_text().splitlines()
    except OSError:
        return {}
    for header, values in zip(lines[::2], lines[1::2]):
        if header.startswith("TcpExt:"):
            table = dict(zip(header.split()[1:], (int(v) for v in values.split()[1:])))
            return {key: table.get(key, 0) for key in ("ListenOverflows", "TCPSynRetrans")}
    return {}


def noise_guard(report: Report, context: dict[str, object]) -> None:
    if context["host.busy_share_start"] > 50.0:
        report.invalid.append(
            f"host busy before the run: {context['host.busy_share_start']:.0f}% of "
            f"{context['host.nproc']:.0f} cores"
        )


# -- the tcp3_* workloads -----------------------------------------------------


async def _tcp_once(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """Bring a cluster up, offer the load, check agreement, tear down."""
    import tcpload
    from cluster import ClusterError, NodeCluster

    workload = tcpload.WORKLOADS[name]
    if smoke:
        workload = tcpload.smoke_variant(workload)
    setups = []
    cluster = None
    try:
        # Set-up is measured on throwaway clusters too, and the median
        # reported: one spawn is at the mercy of whatever else runs.
        for _ in range(1 if traced or smoke else SETUP_REPEATS):
            if cluster is not None:
                cluster.close()
            cluster = NodeCluster(
                n=3, seed=seed, commit_bias=workload.commit_bias, traced=traced
            )
            setups.append(await cluster.start_all())
        out: dict = {"setup_s": statistics.median(setups)}
        out["host.fsync_us"] = fsync_us(cluster.data_dir)
        before = netstat()
        cluster.mark_baseline()
        run = tcpload.LoadRun(cluster, workload, seconds)
        started = await run.run()
        cluster.sample()
        after = netstat()
        failed = await run.check_agreement()
        out.update(tcpload.load_metrics(run, started, failed))
        totals = cluster.totals()
        out["cpu_ms_per_op"] = (
            (totals["cpu_user_s"] + totals["cpu_sys_s"]) * 1e3 / out["decided"]
        )
        out["proc.cpu_user_s"] = totals["cpu_user_s"]
        out["proc.cpu_sys_s"] = totals["cpu_sys_s"]
        out["proc.vol_ctx_switches"] = totals["vol_ctx_switches"]
        out["proc.rss_growth_mb"] = totals["rss_growth_mb"]
        out["server.listen_overflows"] = float(
            after.get("ListenOverflows", 0) - before.get("ListenOverflows", 0)
        )
        out["server.syn_retrans"] = float(
            after.get("TCPSynRetrans", 0) - before.get("TCPSynRetrans", 0)
        )
        out["attempted"] = len(run.sent)
        out["failures"] = [f"txn {txn}: {why}" for txn, why in sorted(failed.items())]
        out["restarts"] = run.restarts
        coordinator = [r for r in run.restarts if r.node == 0]
        out["recovery.recover_s"] = _median(r.recover_s for r in run.restarts)
        out["recovery.unavailable_s"] = _median(r.unavailable_s for r in coordinator)
        out["recovery.catchup_s"] = _median(r.catchup_s for r in run.restarts)
        if traced:
            from repro.service.wire import ServiceEnvelope

            out["node.status_bytes_last"] = float(
                len(
                    ServiceEnvelope(
                        kind="state-transfer", sender=0, body={"status": run.last_status}
                    ).encode()
                )
            )
            cluster.terminate()
            silent = [
                life.node
                for life in cluster.lives
                if not life.sigkilled and not life.span_file.exists()
            ]
            if silent:
                raise ClusterError(f"nodes {silent} exited without writing their spans")
            documents = [
                json.loads(life.span_file.read_text())
                for life in cluster.lives
                if life.span_file.exists()
            ]
            out["span_documents"] = documents
            out["trace.lost_incarnations"] = float(
                sum(1 for life in cluster.lives if life.sigkilled)
            )
            out.update(_offline_recovery(run.restarts))
        return out
    finally:
        if cluster is not None:
            cluster.close()


def _median(values) -> float:
    present = [value for value in values if value is not None]
    return statistics.median(present) if present else 0.0


def _offline_recovery(restarts) -> dict[str, float]:
    """Time the public recovery functions on each victim's WAL as it was
    at kill time (mean over the victims)."""
    from repro.service.recovery import replay
    from repro.service.wal import FileWalStore, durable_records

    rows = []
    for restart in restarts:
        if restart.wal_copy is None:
            continue
        started = time.perf_counter()
        read = durable_records(FileWalStore(restart.wal_copy))
        read_s = time.perf_counter() - started
        started = time.perf_counter()
        replayed = replay(read.records)
        replay_s = time.perf_counter() - started
        rows.append((read_s, replay_s, len(read.records), len(replayed.outgoing)))
    if not rows:
        return {}
    read_s, replay_s, records, resend = (statistics.fmean(col) for col in zip(*rows))
    return {
        "recovery.read_ms": read_s * 1e3,
        "recovery.replay_ms": replay_s * 1e3,
        "recovery.records": records,
        "recovery.replay_us_per_record": replay_s * 1e6 / max(records, 1),
        "recovery.resend_envelopes": resend,
    }


def run_tcp(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Report:
    import tcpload

    report = Report(workload=name, seed=seed)
    context = host_context()
    noise_guard(report, context)
    plain = asyncio.run(_tcp_once(name, seed, seconds, traced=False, smoke=smoke))
    report.attempted = plain["attempted"]
    report.failures = plain["failures"]
    report.end_to_end = {m.name: plain[m.name] for m in metric_defs.END_TO_END}
    workload = tcpload.WORKLOADS[name]
    # A generator behind schedule did not offer the stated load.  (With
    # kills it is behind by design: submits queue up behind the outage.)
    if (
        workload.mode == "open"
        and not workload.kills
        and not smoke
        and plain["client.gen_late_p99_ms"] > tcpload.GEN_LATE_LIMIT_MS
    ):
        report.invalid.append(
            f"generator ran late: p99 {plain['client.gen_late_p99_ms']:.1f} ms "
            f"> {tcpload.GEN_LATE_LIMIT_MS} ms"
        )
    report.detail = {
        "decided": plain["decided"],
        "op_p90_ms": plain["client.op_p90_ms"],
        "op_p99_ms": plain["client.op_p99_ms"],
        "latency_samples": plain["latency_samples"],
        "over_250ms_share_pct": plain["client.over_250ms_share"],
        "load_seconds": plain["load_seconds"],
        "restarts": [
            {
                "node": r.node,
                "recover_s": r.recover_s,
                "unavailable_s": r.unavailable_s,
                "catchup_s": r.catchup_s,
            }
            for r in plain["restarts"]
        ],
        "host": context,
    }
    if trace:
        traced = asyncio.run(_tcp_once(name, seed, seconds, traced=True, smoke=smoke))
        report.failures += [f"traced run: {why}" for why in traced["failures"]]
        report.attempted += traced["attempted"]
        layers = metric_defs.zero_layers()
        totals, counters = merge_totals(traced["span_documents"])
        node_cpu_s = sum(doc["cpu_s"] for doc in traced["span_documents"])
        layers.update(
            metric_defs.service_layers(totals, counters, node_cpu_s, traced["decided"])
        )
        # Span- and WAL-copy-derived rows exist only in the traced run;
        # whatever is measured from outside comes from the untraced one
        # (later sources win).
        for source in (traced, plain, context):
            layers.update({key: source[key] for key in layers if key in source})
        layers["trace_overhead_share"] = 100.0 * (
            traced["cpu_ms_per_op"] / plain["cpu_ms_per_op"] - 1
        )
        report.layers = layers
        report.detail["span_totals"] = totals
    return report


# -- sim_mix ------------------------------------------------------------------


def run_sim(seed: int, seconds: float, trace: bool, smoke: bool) -> Report:
    import simmix
    from repro.service.load import percentile

    report = Report(workload="sim_mix", seed=seed)
    context = host_context()
    noise_guard(report, context)
    plain = simmix.run_sim_mix(
        seed, seconds, smoke=smoke, setup_repeats=1 if smoke else SETUP_REPEATS
    )
    report.attempted = plain.attempted
    report.failures = list(plain.failures)
    pins = json.loads((HERE / "pins.json").read_text())
    pin = pins.get(f"smoke-{seed}" if smoke else str(seed))
    if pin is not None:
        if pin["window_digest"] != plain.first_window_digest:
            report.failures.append(
                f"campaign digest {plain.first_window_digest[:16]} differs from the "
                f"value pinned for seed {seed}"
            )
        if pin["mc_states_visited"] != plain.mc_states:
            report.failures.append(
                f"mc.states_visited {plain.mc_states} differs from the pinned "
                f"{pin['mc_states_visited']}"
            )
    trials = len(plain.trial_s)
    # The pass's tail is its commit-trial segment (20 of 44 trials): a cut
    # by position alone would land inside the campaign window, where two
    # neighbouring plans can differ 60-fold in cost.
    tail = sum(1 for label in plain.labels if label.startswith("commit"))
    trial_ms = [seconds * 1e3 for seconds in plain.trial_s]
    p90_ms, p99_ms = percentile(trial_ms, 0.90), percentile(trial_ms, 0.99)
    report.end_to_end = {
        "setup_s": plain.setup_s,
        "ops_per_s": trials / sum(plain.trial_s),
        "tail_ops_per_s": tail / sum(plain.trial_s[-tail:]),
        "op_p50_ms": percentile(trial_ms, 0.50),
        "cpu_ms_per_op": sum(plain.trial_cpu_s) * 1e3 / trials,
        "peak_rss_mb": plain.peak_rss_mb,
    }
    report.detail = {
        "trials_per_pass": trials,
        "repeats": plain.repeats,
        "op_p90_ms": p90_ms,
        "op_p99_ms": p99_ms,
        "latency_samples": trials,
        "mc_states_per_s": statistics.median(plain.mc_rates),
        "window_digest": plain.first_window_digest,
        "mc_states_visited": plain.mc_states,
        "pinned": pin is not None,
        "host": context,
    }
    if trace:
        recorder = SpanRecorder()
        simmix.install_sim_trace(recorder)
        try:
            traced = simmix.run_sim_mix(
                seed, seconds, smoke=smoke, recorder=recorder, setup_repeats=0
            )
        finally:
            recorder.unwrap_all()
        report.failures += [f"traced run: {why}" for why in traced.failures]
        report.attempted += traced.attempted

        def rate(label: str) -> float:
            spent = [t for t, name in zip(plain.trial_s, plain.labels) if name == label]
            return len(spent) / sum(spent)

        layers = metric_defs.zero_layers()
        totals = layer_totals(recorder.document())
        layers.update(metric_defs.sim_layers(totals))
        layers.update(
            {
                "client.op_p90_ms": p90_ms,
                "client.op_p99_ms": p99_ms,
                "sim.events_per_trial": plain.events / trials,
                "sim.horizon_trials_share": 100.0
                * plain.horizon_trials
                / plain.campaign_trials,
                "sim.ref_trials_per_s_n15": rate("commit15.reference"),
                "sim.fast_trials_per_s_n15": rate("commit15.fast"),
                "sim.ref_trials_per_s_n25": rate("commit25.reference"),
                "sim.fast_trials_per_s_n25": rate("commit25.fast"),
                "faults.ref_campaign_trials_per_s": rate("campaign.reference"),
                "faults.fast_campaign_trials_per_s": rate("campaign.fast"),
                "mc.states_per_s": statistics.median(plain.mc_rates),
                "mc.states_visited": float(plain.mc_states),
                "mc.sleep_pruned": float(plain.mc_sleep_pruned),
                "proc.cpu_user_s": sum(plain.trial_cpu_s),
                "trace_overhead_share": 100.0
                * (sum(traced.trial_cpu_s) / sum(plain.trial_cpu_s) - 1),
            }
        )
        layers.update({key: context[key] for key in layers if key in context})
        report.layers = layers
        report.detail["span_totals"] = totals
    return report


# -- output -------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Report:
    if smoke:
        seconds = SMOKE_SECONDS
    if name == "sim_mix":
        return run_sim(seed, seconds, trace, smoke)
    return run_tcp(name, seed, seconds, trace, smoke)


def result_line(report: Report, trace: bool) -> str:
    """The contract's last line: end-to-end metrics, or per-layer ones."""
    defs = metric_defs.PER_LAYER if trace else metric_defs.END_TO_END
    values = report.layers if trace else report.end_to_end
    return json.dumps(
        {
            "correct": report.failed == 0,
            "attempted": max(report.attempted, 1),
            "failed": report.failed,
            "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in defs},
        }
    )


def print_report(report: Report, trace: bool) -> None:
    name = report.workload
    print(f"== {name} seed={report.seed} ==")
    for metric in metric_defs.END_TO_END:
        print(
            f"{name}  {metric.name:<28} {report.end_to_end[metric.name]:>14.4f} {metric.unit}"
            f"   (bound {metric.bound:.2f}, {metric.better} is better)"
        )
    for key, value in report.detail.items():
        if key not in ("host", "span_totals", "restarts"):
            shown = f"{value:.4f}" if isinstance(value, float) else value
            print(f"{name}  detail.{key:<21} {shown:>14}")
    for restart in report.detail.get("restarts", ()):
        print(f"{name}  detail.restart               {json.dumps(restart)}")
    print(f"{name}  host                         {json.dumps(report.detail['host'])}")
    if report.layers is not None:
        print(f"-- {name}: layer table (self time = span minus covered children) --")
        for span_name, entry in sorted(report.detail["span_totals"].items()):
            print(
                f"{name}  span {span_name:<22} n={entry['count']:>9.0f}  "
                f"total={entry['total_s']:>9.4f}s  self={entry['self_s']:>9.4f}s"
            )
        for metric in metric_defs.PER_LAYER:
            print(
                f"{name}  {metric.name:<32} {report.layers[metric.name]:>14.4f} {metric.unit:<6}"
                f" -> {metric.moves}"
            )
        if report.layers["trace.lost_incarnations"]:
            print(
                f"{name}  note: {report.layers['trace.lost_incarnations']:.0f} SIGKILLed "
                "incarnation(s) lost their spans; per-op span rows undercount"
            )
    for why in report.failures[:10]:
        print(f"{name}  FAILED {why}")
    print(
        f"{name}  attempted={report.attempted} failed={report.failed} "
        f"failed_share={report.failed / max(report.attempted, 1):.6f}"
    )
    if report.invalid:
        print(f"{name}  INVALID RUN (numbers printed, do not quote them): {'; '.join(report.invalid)}")
    # The last line is the one the driver reads: end-to-end metrics, or —
    # after a traced run — the per-layer ones.
    print(result_line(report, False), flush=True)
    if trace:
        print(result_line(report, True), flush=True)


def print_repeat_summary(reports: list[Report]) -> None:
    """Median and quartiles of each end-to-end metric over the valid runs."""
    usable = [r for r in reports if not r.invalid] or reports
    name = reports[0].workload
    print(f"== {name}: {len(usable)} of {len(reports)} runs usable ==")
    for metric in metric_defs.END_TO_END:
        values = [r.end_to_end[metric.name] for r in usable]
        if len(values) >= 2:
            q1, q2, q3, spread = metric_defs.quartile_spread(values)
            print(
                f"{name}  {metric.name:<28} median {q2:>12.4f} {metric.unit:<4} "
                f"q1 {q1:.4f} q3 {q3:.4f} spread {spread:.3f} (bound {metric.bound:.2f})"
            )
        else:
            print(f"{name}  {metric.name:<28} median {values[0]:>12.4f} {metric.unit}")


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="also run with spans recorded and print the layer table",
    )  # fmt: skip
    parser.add_argument("--smoke", action="store_true", help="a two-second run of each workload, one kill each")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload; prints each and the median with quartiles")
    args = parser.parse_args(argv)
    if not (REPO / "src" / "repro").is_dir():
        print(f"error: {REPO / 'src' / 'repro'} not found: the benchmark runs the "
              "repository's own service and sim harness", file=sys.stderr)  # fmt: skip
        return 2

    from cluster import install_exit_hooks

    install_exit_hooks()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    failed = False
    for name in names:
        reports = []
        for _ in range(args.repeat):
            report = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
            print_report(report, bool(args.trace))
            reports.append(report)
            failed = failed or report.failed > 0
        if args.repeat > 1:
            print_repeat_summary(reports)
            print(result_line(reports[-1], bool(args.trace)), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
