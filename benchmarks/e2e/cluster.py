"""Process management for the TCP workloads: one OS process per node.

The cluster under test is the *shipped* service — ``python -m repro
service start --multi-txn`` with its default tick interval, snapshot
cadence and fsync policy — started here, never imported.  This module
owns everything about those processes that is not measurement:

* **ports** — a base port below the kernel's ephemeral range
  (``ip_local_port_range``), probed free before use: the nodes open one
  outgoing connection per transmission, and a listen port inside the
  ephemeral range collides with their own source ports;
* **process hygiene** — every node runs in its own process group, dies
  with the driver (``PR_SET_PDEATHSIG``), and is killed by group on every
  exit path (``close()`` from ``finally``, ``atexit``, SIGINT/SIGTERM).
  An orphaned node keeps retransmitting to dead peers and burns a
  quarter of a core, which poisons the next run;
* **readiness** — a node is up when it answers a ``state-query`` with
  its own pid; a node that exits or never answers fails the *run*
  (:class:`ClusterError`), it never becomes a metric;
* **accounting** — CPU, RSS and context switches per incarnation from
  ``/proc``, with the final figures of killed incarnations taken from
  ``wait4``.
"""

from __future__ import annotations

import asyncio
import atexit
import ctypes
import itertools
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
#: Scratch root for WAL directories and span files; inside the checkout
#: (the benchmark may write nowhere else) and named in ``.gitignore``.
WORK_ROOT = HERE / ".work"

HOST = "127.0.0.1"
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")

_PR_SET_PDEATHSIG = 1
#: Successive clusters of one process draw different base ports, so a
#: new cluster never waits out the TIME_WAIT sockets of the previous one.
_PORT_DRAWS = itertools.count()


class ClusterError(RuntimeError):
    """The cluster could not be brought up or torn down as required."""


def _die_with_parent() -> None:
    # Runs in the child between fork and exec: if the driver is
    # SIGKILLed, no exit hook of ours runs, so the kernel does the kill.
    ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


def ephemeral_low() -> int:
    try:
        text = Path("/proc/sys/net/ipv4/ip_local_port_range").read_text()
        return int(text.split()[0])
    except (OSError, ValueError, IndexError):
        return 32768


def pick_base_port(n: int, salt: int) -> int:
    """A base port with ``n`` consecutive free ports below the ephemeral range."""
    low, high = 15000, min(ephemeral_low(), 32768) - n - 1
    if high <= low:
        raise ClusterError(
            f"no room for listen ports below the ephemeral range ({ephemeral_low()})"
        )
    span = (high - low) // 8
    for _ in range(64):
        base = low + ((salt * 7919 + os.getpid() + next(_PORT_DRAWS) * 131) % span) * 8
        if all(_port_free(base + offset) for offset in range(n)):
            return base
    raise ClusterError("no free base port found in 64 probes")


def _port_free(port: int) -> bool:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            probe.bind((HOST, port))
        except OSError:
            return False
    return True


@dataclass
class ProcSample:
    """One reading of a live process from ``/proc``."""

    cpu_user_s: float
    cpu_sys_s: float
    rss_mb: float
    vol_ctx: int


def read_proc(pid: int) -> ProcSample | None:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    fields = stat.rsplit(")", 1)[1].split()
    vol = 0
    for line in status.splitlines():
        if line.startswith("voluntary_ctxt_switches:"):
            vol = int(line.split()[1])
    return ProcSample(
        cpu_user_s=int(fields[11]) / CLOCK_TICKS,
        cpu_sys_s=int(fields[12]) / CLOCK_TICKS,
        rss_mb=int(fields[21]) * PAGE_SIZE / 1e6,
        vol_ctx=vol,
    )


@dataclass
class Incarnation:
    """One process lifetime of one node."""

    node: int
    popen: subprocess.Popen
    started_at: float
    baseline: ProcSample | None = None  # reading when measurement began
    final: ProcSample | None = None  # last reading (or wait4 figures)
    span_file: Path | None = None
    sigkilled: bool = False


@dataclass
class NodeCluster:
    """Three (``n``) service node processes and their bookkeeping."""

    n: int
    seed: int
    commit_bias: float = 1.0
    traced: bool = False
    base_port: int = 0
    data_dir: Path | None = None
    lives: list[Incarnation] = field(default_factory=list)
    _closed: bool = False

    # -- lifecycle -----------------------------------------------------------

    def __post_init__(self) -> None:
        WORK_ROOT.mkdir(exist_ok=True)
        self.data_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        self.base_port = pick_base_port(self.n, self.seed)
        _LIVE_CLUSTERS.append(self)

    def port(self, node: int) -> int:
        return self.base_port + node

    def current(self, node: int) -> Incarnation:
        for life in reversed(self.lives):
            if life.node == node:
                return life
        raise ClusterError(f"node {node} was never started")

    def _command(self, node: int, span_file: Path | None) -> list[str]:
        service = [
            "service", "start",
            "--node", str(node),
            "--votes", ",".join("1" for _ in range(self.n)),
            "--t", str((self.n - 1) // 2),
            "--seed", str(self.seed),
            "--host", HOST,
            "--base-port", str(self.base_port),
            "--data-dir", str(self.data_dir),
            "--multi-txn",
            "--commit-bias", str(self.commit_bias),
        ]  # fmt: skip
        if span_file is not None:
            return [sys.executable, str(HERE / "traced_node.py"), str(span_file), *service]
        return [sys.executable, "-m", "repro", *service]

    def spawn(self, node: int) -> Incarnation:
        """Start (or restart) one node; returns at ``exec``, not readiness."""
        if self._closed:
            raise ClusterError("cluster already closed")
        span_file = None
        if self.traced:
            index = sum(1 for life in self.lives if life.node == node)
            span_file = self.data_dir / f"spans-node{node}-life{index}.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        with open(self.data_dir / f"node{node}.stderr", "ab") as stderr:
            popen = subprocess.Popen(
                self._command(node, span_file),
                cwd=REPO,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                start_new_session=True,
                preexec_fn=_die_with_parent,
            )
        life = Incarnation(
            node=node, popen=popen, started_at=time.perf_counter(), span_file=span_file
        )
        self.lives.append(life)
        return life

    async def wait_ready(self, node: int, timeout: float = 30.0) -> dict:
        """Poll ``node`` until it answers a state-query; returns its status."""
        from tcpload import query_status  # late: needs repro on sys.path

        life = self.current(node)
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if life.popen.poll() is not None:
                raise ClusterError(
                    f"node {node} exited with {life.popen.returncode} before "
                    f"answering (port {self.port(node)}): {self.stderr_tail(node)}"
                )
            status = await query_status(self.port(node), timeout=1.0)
            if status is not None:
                if status.get("pid") != node:
                    raise ClusterError(
                        f"port {self.port(node)} is answered by pid "
                        f"{status.get('pid')}, not node {node}"
                    )
                return status
            await asyncio.sleep(0.01)
        raise ClusterError(
            f"node {node} never answered on port {self.port(node)}: "
            f"{self.stderr_tail(node)}"
        )

    async def start_all(self) -> float:
        """Spawn every node; seconds from first spawn to all answering."""
        started = time.perf_counter()
        for node in range(self.n):
            self.spawn(node)
        await asyncio.gather(*(self.wait_ready(node) for node in range(self.n)))
        return time.perf_counter() - started

    def stderr_tail(self, node: int) -> str:
        try:
            text = (self.data_dir / f"node{node}.stderr").read_text(errors="replace")
        except OSError:
            return "<no stderr>"
        return text[-600:].strip() or "<empty stderr>"

    # -- faults --------------------------------------------------------------

    def sigkill(self, node: int) -> Incarnation:
        """SIGKILL ``node`` and reap it (final CPU figures come from wait4)."""
        life = self.current(node)
        life.sigkilled = True
        self._reap(life, None)
        return life

    def copy_wal(self, node: int, label: str) -> Path:
        """Copy a (dead) node's durable directory for offline replay timing."""
        target = self.data_dir / f"walcopy-{label}"
        shutil.copytree(self.data_dir / f"node{node}", target)
        return target

    # -- accounting ----------------------------------------------------------

    def mark_baseline(self) -> None:
        """Measurement starts now: CPU spent before this point is set-up."""
        for life in self.lives:
            if life.popen.returncode is None:
                life.baseline = read_proc(life.popen.pid)

    def sample(self) -> None:
        """Refresh the ``final`` reading of every live incarnation."""
        for life in self.lives:
            if life.popen.returncode is None:
                reading = read_proc(life.popen.pid)
                if reading is not None:
                    life.final = reading

    def largest_rss_mb(self) -> float:
        """The largest RSS among the nodes' current incarnations, read now."""
        readings = [read_proc(self.current(node).popen.pid) for node in range(self.n)]
        return max((r.rss_mb for r in readings if r is not None), default=0.0)

    def totals(self) -> dict[str, float]:
        """CPU / context switches over every incarnation since baseline,
        RSS growth of the current incarnations."""
        user = sys_ = 0.0
        ctx = 0
        for life in self.lives:
            if life.final is None:
                continue
            base = life.baseline
            user += life.final.cpu_user_s - (base.cpu_user_s if base else 0.0)
            sys_ += life.final.cpu_sys_s - (base.cpu_sys_s if base else 0.0)
            ctx += life.final.vol_ctx - (base.vol_ctx if base else 0)
        growth = []
        for node in range(self.n):
            life = self.current(node)
            if life.final is not None and life.baseline is not None:
                growth.append(life.final.rss_mb - life.baseline.rss_mb)
        return {
            "cpu_user_s": user,
            "cpu_sys_s": sys_,
            "vol_ctx_switches": float(ctx),
            "rss_growth_mb": max(growth) if growth else 0.0,
        }

    # -- teardown ------------------------------------------------------------

    def _reap(self, life: Incarnation, deadline: float | None) -> None:
        """Wait for ``life``'s process and keep its last figures; SIGKILL its
        group once ``deadline`` has passed (``None``: at once)."""
        popen = life.popen
        if popen.returncode is not None:
            return
        # wait4 gives CPU but neither RSS nor voluntary switches: take
        # those from /proc while the process still exists.
        reading = read_proc(popen.pid) or life.final
        while True:
            if deadline is None or time.perf_counter() >= deadline:
                _killpg(popen.pid, signal.SIGKILL)
                _pid, status, rusage = os.wait4(popen.pid, 0)
                break
            pid, status, rusage = os.wait4(popen.pid, os.WNOHANG)
            if pid:
                break
            time.sleep(0.01)
        popen.returncode = os.waitstatus_to_exitcode(status)
        life.final = ProcSample(
            cpu_user_s=rusage.ru_utime,
            cpu_sys_s=rusage.ru_stime,
            rss_mb=reading.rss_mb if reading else 0.0,
            vol_ctx=reading.vol_ctx if reading else rusage.ru_nvcsw,
        )

    def terminate(self, grace: float = 10.0) -> None:
        """SIGTERM every live node (traced nodes write their spans on the
        way out), escalate to SIGKILL after ``grace`` seconds."""
        live = [life for life in self.lives if life.popen.returncode is None]
        for life in live:
            _killpg(life.popen.pid, signal.SIGTERM)
        # One SIGTERM each, no more: a second one can land after the node's
        # event loop has restored the default disposition, and kill it
        # while it is still writing its spans.
        deadline = time.perf_counter() + grace
        for life in live:
            self._reap(life, deadline)

    def close(self) -> None:
        """Kill whatever is left and remove the scratch directory."""
        if self._closed:
            return
        self._closed = True
        for life in self.lives:
            self._reap(life, None)
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)
        if self in _LIVE_CLUSTERS:
            _LIVE_CLUSTERS.remove(self)
        try:
            WORK_ROOT.rmdir()  # only succeeds when no other run is using it
        except OSError:
            pass


def _killpg(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except ProcessLookupError:
        pass


_LIVE_CLUSTERS: list[NodeCluster] = []


def close_all_clusters() -> None:
    for cluster in list(_LIVE_CLUSTERS):
        cluster.close()


def install_exit_hooks() -> None:
    """Kill every node on normal exit, SIGINT and SIGTERM."""
    atexit.register(close_all_clusters)

    def _on_signal(signum, _frame) -> None:
        close_all_clusters()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    signal.signal(signal.SIGINT, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
