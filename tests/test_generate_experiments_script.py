"""``scripts/generate_experiments.py``: ``--quick`` leaves EXPERIMENTS.md alone."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "generate_experiments.py"
_spec = importlib.util.spec_from_file_location("generate_experiments", SCRIPT)
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)


class _StubTable:
    def __init__(self, experiment_id):
        self.experiment_id = experiment_id

    def render(self):
        return f"stub table {self.experiment_id}"


def test_quick_writes_stdout_not_the_repository_file(monkeypatch, capsys):
    document = ROOT / "EXPERIMENTS.md"
    before = (document.read_bytes(), document.stat().st_mtime_ns)
    ran = []
    writes = []

    def stub_run(experiment_id, quick):
        ran.append((experiment_id, quick))
        return _StubTable(experiment_id)

    def spy_write_text(self, *args, **kwargs):
        writes.append(self)

    monkeypatch.setattr(generate, "run_experiment", stub_run)
    # A regression must not clobber the committed file while it fails.
    monkeypatch.setattr(Path, "write_text", spy_write_text)
    generate.main(["--quick"])

    assert ran == [(eid, True) for eid in generate.EXPERIMENTS]
    assert writes == []
    assert (document.read_bytes(), document.stat().st_mtime_ns) == before
    out = capsys.readouterr().out
    assert out.startswith("# EXPERIMENTS")
    for experiment_id in generate.EXPERIMENTS:
        assert f"stub table {experiment_id}" in out


def test_full_size_run_writes_the_repository_file(monkeypatch, capsys):
    writes = []

    def spy_write_text(self, text, *args, **kwargs):
        writes.append((self, text))

    monkeypatch.setattr(
        generate, "run_experiment", lambda eid, quick: _StubTable(eid)
    )
    monkeypatch.setattr(Path, "write_text", spy_write_text)
    generate.main([])

    assert [path for path, _ in writes] == [ROOT / "EXPERIMENTS.md"]
    assert "stub table E1" in writes[0][1]
    assert capsys.readouterr().out == ""
