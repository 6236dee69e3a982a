"""A sim-side process imports what it runs.

The probes live in ``scripts/start_budget.py`` (CI runs it in the
``e2e-smoke`` job): each sim-side command runs to completion in a
subprocess that then reports ``sys.modules``, and one fresh interpreter
imports what the ``sim_mix`` benchmark's setup probe imports.  scipy
and numpy are the bulk of what such a process could load without using
it (``docs/PERFORMANCE.md``, "Start-up of a sim-side process"); a
confidence interval imports scipy on first use, so none of these may
hold either.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "start_budget.py"
_spec = importlib.util.spec_from_file_location("start_budget", SCRIPT)
start_budget = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(start_budget)


def _sim_problems(modules: list[str]) -> list[str]:
    return start_budget.over_budget(modules, start_budget.SIM_FORBIDDEN, None)


@pytest.mark.parametrize(
    "argv",
    start_budget.SIM_PROBES,
    ids=[" ".join(argv[:2]) for argv in start_budget.SIM_PROBES],
)
def test_sim_command_loads_neither_scipy_nor_numpy(argv):
    code, modules = start_budget.loaded_modules(argv)
    assert code == 0
    assert _sim_problems(modules) == []
    # The probe ran the command's subsystem, not just the parser.
    group = {"models": "repro.models.atlas", "experiment": "repro.experiments.registry",
             "faults": "repro.faults.campaign", "mc": "repro.mc.explorer"}[argv[0]]  # fmt: skip
    assert group in modules
    if argv[0] == "experiment":
        # The registry imports only the experiment it runs.
        experiments = {m for m in modules if m.startswith("repro.experiments.e")}
        assert experiments == {"repro.experiments.e02_rounds"}


def test_the_setup_probe_imports_load_neither_scipy_nor_numpy():
    code, modules = start_budget.setup_probe_modules()
    assert code == 0
    assert _sim_problems(modules) == []
    for needed in ("repro.analysis.montecarlo", "repro.faults.campaign", "repro.mc.explorer"):
        assert needed in modules


def test_the_sim_budget_names_what_it_rejects():
    modules = ["repro", "scipy", "scipy.stats", "numpy", "repro.mc.explorer"]
    problems = _sim_problems(modules)
    assert len(problems) == 2
    assert any("scipy (2 modules" in problem for problem in problems)
    # No repro.* count on the sim side: the service budget would reject this.
    crowd = [f"repro.m{i}" for i in range(start_budget.REPRO_MODULE_BUDGET + 1)]
    assert _sim_problems(crowd) == []
