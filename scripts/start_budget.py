#!/usr/bin/env python3
"""CI gate on what a process imports before its first piece of work.

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

The sim side has a budget too.  A campaign, atlas, experiment or model
checker run pays its imports before its first trial, and scipy with
numpy is most of what it could pay for nothing (``docs/PERFORMANCE.md``,
"Start-up of a sim-side process").  :data:`SIM_PROBES` runs four such
commands to completion, and one fresh interpreter imports what the
``sim_mix`` benchmark's setup probe imports
(``benchmarks/e2e/simmix.py``); none may hold a module from
:data:`SIM_FORBIDDEN`.

``tests/service/test_start_budget.py`` and
``tests/test_sim_start_budget.py`` run the same probes under Tier-1.
"""

from __future__ import annotations

import os
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
SIMMIX = REPO / "benchmarks" / "e2e" / "simmix.py"

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
)

#: Modules (and everything below them) no sim-side process loads: the
#: only user of scipy is a confidence interval, which imports it on
#: first use.
SIM_FORBIDDEN = ("numpy", "scipy")

#: Sim-side commands; each must exit 0.
SIM_PROBES = (
    ["models", "atlas", "--trials", "1"],
    ["experiment", "E2", "--quick", "--json"],
    ["faults", "campaign", "--plans", "4", "--tracks", "sim", "--n", "5", "--t", "2"],
    ["mc", "explore", "--n", "3", "--t", "1", "--K", "2", "--votes", "1,1,1"],
)  # fmt: skip

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


#: Imports ``simmix.py`` (its ``__main__`` block does not run) and prints
#: ``sys.modules`` the same way.
_IMPORT_PROBE = r"""
import os, runpy, sys

sys.path.insert(0, os.path.dirname(sys.argv[1]))
runpy.run_path(sys.argv[1], run_name="simmix")
print("MODULES " + " ".join(sorted(sys.modules)), flush=True)
"""


def loaded_modules(argv: list[str], timeout: float = 60.0) -> tuple[int, list[str]]:
    """Exit code and ``sys.modules`` of ``python -m repro <argv>``."""
    return _modules_of(_PROBE, argv, timeout)


def setup_probe_modules(timeout: float = 60.0) -> tuple[int, list[str]]:
    """What ``sim_mix``'s setup probe imports, in a fresh interpreter."""
    return _modules_of(_IMPORT_PROBE, [str(SIMMIX)], timeout)


def _modules_of(code: str, argv: list[str], timeout: float) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
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
        f"{' '.join(argv)} exited {done.returncode} without "
        f"reporting its modules:\n{done.stdout}{done.stderr}"
    )


def node_modules_at_listening() -> tuple[int, list[str]]:
    """A participant of a three-node group, fresh data directory."""
    with tempfile.TemporaryDirectory(prefix="repro-start-budget-") as data:
        return loaded_modules(
            [
                "service", "start", "--node", "1", "--votes", "1,1,1",
                "--no-fsync", "--data-dir", data,
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


def over_budget(
    modules: list[str],
    forbidden: tuple[str, ...] = FORBIDDEN,
    repro_budget: int | None = REPRO_MODULE_BUDGET,
) -> list[str]:
    """Why ``modules`` breaks the budget; empty when it does not.

    The defaults are the service budget; a sim-side process is checked
    against ``SIM_FORBIDDEN`` with no ``repro.*`` count.
    """
    problems = []
    for root in forbidden:
        under = [m for m in modules if m == root or m.startswith(root + ".")]
        if under:
            problems.append(
                f"forbidden: {root} ({len(under)} modules, first {under[0]})"
            )
    ours = repro_modules(modules)
    if repro_budget is not None and len(ours) > repro_budget:
        problems.append(
            f"{len(ours)} repro.* modules, budget {repro_budget}: "
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
    service = (FORBIDDEN, REPRO_MODULE_BUDGET)
    sim = (SIM_FORBIDDEN, None)
    probes = [
        ("service start (at listening)", node_modules_at_listening, 0, service),
        ("service status", lambda: client_modules("status"), 0, service),
        ("service submit", lambda: client_modules("submit"), 2, service),
        *(
            (f"repro {' '.join(argv)}", partial(loaded_modules, argv), 0, sim)
            for argv in SIM_PROBES
        ),
        ("import of sim_mix's setup probe", setup_probe_modules, 0, sim),
    ]
    for label, probe, expected_code, (forbidden, budget) in probes:
        code, modules = probe()
        limit = "no budget" if budget is None else f"budget {budget}"
        print(
            f"{label}: {len(repro_modules(modules))} repro.* modules "
            f"({limit}), {len(modules)} in all"
        )
        problems = over_budget(modules, forbidden, budget)
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
