"""Package re-exports resolve on first use and are the objects they name.

Every package but three hands its re-export table to
:func:`repro._lazy.lazy_exports`.  ``repro.models`` imports the
timing-model zoo so that the model registry is full; deferring
``repro.experiments`` (whose registry imports every experiment) or
``repro.inspect`` (one submodule) would save no command anything.
Nothing about the names changes: the same ``__all__``, the same
objects, star-imports and pickling as before; what changes is that
importing the package imports none of them, apart from
``repro.analysis``'s ``histogram`` and ``sweep``, which share their
names with their submodules.
"""

from __future__ import annotations

import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.sim",
    "repro.service",
    "repro.telemetry",
    "repro.trace",
    "repro.runtime",
    "repro.faults",
    "repro.engine",
    "repro.cli",
    "repro.analysis",
    "repro.adversary",
    "repro.mc",
    "repro.protocols",
    "repro.lowerbound",
    "repro.counterexample",
)


def fresh_interpreter(code: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("name", LAZY_PACKAGES)
class TestEveryConvertedPackage:
    def test_each_public_name_is_its_defining_modules_object(self, name):
        package = importlib.import_module(name)
        for public in package.__all__:
            value = getattr(package, public)
            assert vars(package)[public] is value  # cached: no second lookup
            home = getattr(value, "__module__", None)
            if isinstance(value, type(importlib)):  # a re-exported submodule
                assert value is sys.modules[f"{name}.{public}"]
            elif isinstance(home, str) and home.startswith("repro."):
                defined = getattr(sys.modules[home], value.__name__)
                assert defined is value, (public, home)

    def test_star_import_binds_all_of_dunder_all(self, name):
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        package = importlib.import_module(name)
        for public in package.__all__:
            assert namespace[public] is getattr(package, public)

    def test_dir_lists_the_lazy_names(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    def test_unknown_attribute_names_the_package(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=f"'{name}'.*'no_such_name'"):
            package.no_such_name
        with pytest.raises(ImportError):
            exec(f"from {name} import no_such_name")


def test_importing_a_package_imports_none_of_its_exports():
    packages = [p for p in LAZY_PACKAGES if p != "repro.cli"]
    loaded = fresh_interpreter(
        "import sys\n"
        f"import {', '.join(packages)}\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro')))\n"
    )
    assert eval(loaded) == sorted(
        [
            *packages,
            "repro._lazy",
            "repro.analysis.histogram",
            "repro.analysis.sweep",
        ]
    )


@pytest.mark.parametrize(
    "module",
    ["repro.analysis.montecarlo", "repro.models.atlas", "repro.adversary.standard"],
)
def test_sim_side_modules_load_neither_scipy_nor_numpy(module):
    loaded = fresh_interpreter(
        f"import sys, {module}\n"
        "print(sorted({m.partition('.')[0] for m in sys.modules}))\n"
    )
    assert {"scipy", "numpy"}.isdisjoint(eval(loaded))


def test_an_export_named_like_its_submodule_is_the_export():
    out = fresh_interpreter(
        "import repro.analysis.histogram, repro.analysis.sweep\n"
        "from repro.analysis import histogram, sweep\n"
        "print(callable(histogram), callable(sweep))\n"
    )
    assert out.split() == ["True", "True"]


def test_readme_quickstart_import():
    out = fresh_interpreter(
        "from repro import run_commit, Vote\n"
        "outcome = run_commit([Vote.COMMIT] * 5)\n"
        "print(outcome.unanimous_decision is not None)\n"
    )
    assert out.strip() == "True"


def test_submodule_reexport_is_the_module_itself():
    from repro.engine import seeds

    assert seeds is importlib.import_module("repro.engine.seeds")
    # ``from pkg import submodule`` for a name outside the table still
    # falls back to importing the submodule.
    from repro.service import wire

    assert wire is sys.modules["repro.service.wire"]


def test_objects_reached_through_the_package_still_pickle():
    from repro.service import NodeConfig, ServiceEnvelope

    envelope = ServiceEnvelope(kind="state-query", sender=-1, body={"txn": 3})
    assert pickle.loads(pickle.dumps(envelope)) == envelope
    config = NodeConfig(pid=1, n=3, t=1, K=4, vote=1, tape_seed=7)
    assert pickle.loads(pickle.dumps(config)) == config
    assert pickle.loads(pickle.dumps(NodeConfig)) is NodeConfig
