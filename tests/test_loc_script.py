"""``scripts/loc.py``: raw and code-only line counts."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", SCRIPT)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

#: 22 raw lines; the code lines are marked ``# code`` (8 of them).
CANNED = '''"""Module docstring,
over two lines."""

import os  # code


class Thing:  # code
    """Class docstring."""

    # A comment on its own line.
    def method(self):  # code
        """Method docstring
        that spans lines.
        """
        "a bare string statement"
        text = """a multi-line  # code
        string that is a value"""  # code
        return (text,  # code
                os.sep)  # code


x = 1; y = 2  # code
'''


def test_canned_module_counts():
    assert CANNED.count("\n") == 22
    expected = sum("# code" in line for line in CANNED.splitlines())
    assert expected == 8
    assert loc.code_lines(CANNED) == expected


def test_tree_and_table(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(CANNED)
    (tmp_path / "pkg" / "b.py").write_text("\n# only a comment\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert loc.count_tree(tmp_path / "pkg") == (2, 24, 8)
    assert loc.count_tree(tmp_path / "pkg" / "b.py") == (1, 2, 0)
    assert loc.main([str(tmp_path / "pkg"), str(tmp_path / "pkg" / "b.py")]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "| path | files | raw lines | code lines |"
    assert rows[-1] == "| total | 3 | 26 | 8 |"
