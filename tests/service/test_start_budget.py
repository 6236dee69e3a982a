"""A service process imports what it runs.

The probes and the budget live in ``scripts/start_budget.py`` (CI runs
it in the ``e2e-smoke`` job): each drives the shipped ``python -m repro
service ...`` in a subprocess and reads ``sys.modules`` from inside it.
A node restart is interpreter start + imports + replay, so a module
that creeps back onto this path is paid for on every recovery
(``docs/PERFORMANCE.md``, "Start-up and restart").
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "start_budget.py"
_spec = importlib.util.spec_from_file_location("start_budget", SCRIPT)
start_budget = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(start_budget)


def test_node_at_listening_holds_only_the_service_path():
    code, modules = start_budget.node_modules_at_listening()
    assert code == 0  # the probe SIGTERMs the node: a clean halt
    assert start_budget.over_budget(modules) == []
    ours = start_budget.repro_modules(modules)
    # What it does hold: the service, the protocol, and its own CLI group.
    for needed in (
        "repro.service.server",
        "repro.service.wal",
        "repro.core.commit",
        "repro.cli.service",
    ):
        assert needed in ours
    assert [m for m in ours if m.startswith("repro.cli.")] == [
        "repro.cli.common",
        "repro.cli.service",
    ]


@pytest.mark.parametrize("command, exit_code", [("status", 0), ("submit", 2)])
def test_client_commands_load_the_client_only(command, exit_code):
    code, modules = start_budget.client_modules(command)
    assert code == exit_code  # nobody listens: unreachable / usage error
    assert start_budget.over_budget(modules) == []
    ours = start_budget.repro_modules(modules)
    assert "repro.service.client" in ours
    for server_side in ("repro.service.node", "repro.service.wal", "repro.sim.tape"):
        assert server_side not in ours


def test_the_budget_names_what_it_rejects():
    modules = ["repro", "repro.mc", "repro.mc.explorer", "numpy", "http.server"]
    problems = start_budget.over_budget(modules)
    assert len(problems) == 3
    assert any("repro.mc (2 modules" in problem for problem in problems)
    crowd = [f"repro.m{i}" for i in range(start_budget.REPRO_MODULE_BUDGET + 1)]
    (problem,) = start_budget.over_budget(crowd)
    assert f"budget {start_budget.REPRO_MODULE_BUDGET}" in problem
