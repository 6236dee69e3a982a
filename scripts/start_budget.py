#!/usr/bin/env python3
"""CI gate on what a service process imports before it can serve.

    python3 scripts/start_budget.py

A killed node is away for interpreter start plus imports plus replay,
and the first two are the larger part (``docs/PERFORMANCE.md``,
"Start-up and restart").  This script starts the shipped ``python -m
repro service start`` on a fresh data directory, waits for its
``listening`` log line, and reads ``sys.modules`` from inside that
process; it does the same for the two client commands (``service
status``, ``service submit``) against a port nobody answers on.

It fails when a process holds a module from :data:`FORBIDDEN` (numpy,
``http.server``, or a subsystem the service never calls) or more
``repro.*`` modules than :data:`REPRO_MODULE_BUDGET`.  Those are counts
that repeat exactly on every host.  The wall time of ``python -m repro
service --help`` (median of five) is printed beside them and gates
nothing: it follows the host.

``tests/service/test_start_budget.py`` runs the same probes under
Tier-1.
"""

from __future__ import annotations

import os
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Most ``repro.*`` modules a service process may hold when it starts
#: listening (or, for a client command, when it exits).
REPRO_MODULE_BUDGET = 40

#: Modules (and everything below them) no service process loads.
FORBIDDEN = (
    "numpy",
    "http.server",
    "repro.mc",
    "repro.analysis",
    "repro.experiments",
    "repro.lowerbound",
    "repro.inspect",
    "repro.adversary",
    "repro.models",
    "repro.counterexample",
    "repro.faults.campaign",
    "repro.trace.export",
    "repro.trace.critical_path",
    "repro.service.load",
    "repro.service.cluster",
    "repro.runtime.cluster",
)

#: Runs ``python -m repro <argv>`` in this interpreter and prints
#: ``sys.modules`` on one ``MODULES`` line: for ``service start`` from a
#: log handler at the node's ``listening`` line (which then SIGTERMs the
#: process, the clean halt), for every other command when it returns.
_PROBE = r"""
import logging, os, runpy, signal, sys

def report():
    print("MODULES " + " ".join(sorted(sys.modules)), flush=True)

class AtListening(logging.Handler):
    def emit(self, record):
        if " listening on " in record.getMessage():
            report()
            os.kill(os.getpid(), signal.SIGTERM)

sys.argv = ["repro", *sys.argv[1:]]
node = sys.argv[1:3] == ["service", "start"]
if node:
    sys.argv[1:1] = ["--log-level", "info"]
    logging.getLogger("repro").addHandler(AtListening())
code = 0
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    code = exit.code
if not node:
    report()
sys.exit(code)
"""


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


def loaded_modules(argv: list[str], timeout: float = 60.0) -> tuple[int, list[str]]:
    """Exit code and ``sys.modules`` of ``python -m repro <argv>``."""
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        env=_environment(),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    for line in done.stdout.splitlines():
        if line.startswith("MODULES "):
            return done.returncode, line.split()[1:]
    raise RuntimeError(
        f"repro {' '.join(argv)} exited {done.returncode} without "
        f"reporting its modules:\n{done.stdout}{done.stderr}"
    )


def node_modules_at_listening() -> tuple[int, list[str]]:
    """A participant of a three-node group, fresh data directory."""
    with tempfile.TemporaryDirectory(prefix="repro-start-budget-") as data:
        return loaded_modules(
            [
                "service", "start", "--node", "1", "--votes", "1,1,1",
                "--multi-txn", "--no-fsync", "--data-dir", data,
                "--base-port", str(_free_port() - 1),
            ]
        )  # fmt: skip


def client_modules(command: str) -> tuple[int, list[str]]:
    """``service status`` / ``service submit`` with nobody listening."""
    port = str(_free_port())
    if command == "status":
        argv = ["--base-port", port, "--n", "1"]
    else:
        argv = ["--port", port]
    return loaded_modules(["service", command, "--timeout", "1", *argv])


def over_budget(modules: list[str]) -> list[str]:
    """Why ``modules`` breaks the budget; empty when it does not."""
    problems = []
    for root in FORBIDDEN:
        under = [m for m in modules if m == root or m.startswith(root + ".")]
        if under:
            problems.append(
                f"forbidden: {root} ({len(under)} modules, first {under[0]})"
            )
    ours = repro_modules(modules)
    if len(ours) > REPRO_MODULE_BUDGET:
        problems.append(
            f"{len(ours)} repro.* modules, budget {REPRO_MODULE_BUDGET}: "
            + " ".join(ours)
        )
    return problems


def repro_modules(modules: list[str]) -> list[str]:
    return [m for m in modules if m == "repro" or m.startswith("repro.")]


def help_wall_seconds(repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", "service", "--help"],
            env=_environment(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            check=True,
        )
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def main() -> int:
    failed = False
    probes = [
        ("service start (at listening)", node_modules_at_listening, 0),
        ("service status", lambda: client_modules("status"), 0),
        ("service submit", lambda: client_modules("submit"), 2),
    ]
    for label, probe, expected_code in probes:
        code, modules = probe()
        print(
            f"{label}: {len(repro_modules(modules))} repro.* modules "
            f"(budget {REPRO_MODULE_BUDGET}), {len(modules)} in all"
        )
        problems = over_budget(modules)
        if code != expected_code:
            problems.append(f"exit code {code}, expected {expected_code}")
        for problem in problems:
            print(f"  FAIL {problem}")
        failed |= bool(problems)
    cached = "off" if sys.dont_write_bytecode else "on"
    print(
        f"python -m repro service --help: {help_wall_seconds() * 1000:.0f} ms "
        f"wall, median of 5 (bytecode cache {cached}; reported, not gated)"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
