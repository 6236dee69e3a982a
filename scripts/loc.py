"""Line counts of Python trees: raw, and code only.

Usage::

    python scripts/loc.py [PATH ...]      # default: src

Prints a Markdown table with one row per PATH (a directory is walked for
``*.py`` files; a file is counted as it is) and a total row when there
is more than one.  *Raw* is the number of newline characters, as
``wc -l`` counts them.  *Code* is the number of physical lines that hold
a token other than a comment or a docstring, read with :mod:`tokenize`:
blank lines, comment-only lines, and every line of a statement made of
string literals alone (module, class and function docstrings, and any
other bare string statement) do not count.  A line holding both code and
a trailing comment counts.

These are the two numbers a change that deletes code reports, and the
``tests`` CI job writes them for ``src/`` into the job summary.  The
script reports and gates nothing.
"""

from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that are layout, not code.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def code_lines(source: str) -> int:
    """Physical lines of ``source`` that hold code (see the module doc)."""
    rows: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            if token.type == tokenize.NEWLINE:
                _add_statement(statement, rows)
                statement = []
            continue
        statement.append(token)
    _add_statement(statement, rows)
    return len(rows)


def _add_statement(
    statement: list[tokenize.TokenInfo], rows: set[int]
) -> None:
    """Add the rows of one logical line, unless it is a docstring."""
    if all(token.type == tokenize.STRING for token in statement):
        return
    for token in statement:
        rows.update(range(token.start[0], token.end[0] + 1))


def count_file(path: Path) -> tuple[int, int]:
    """``(raw, code)`` line counts of one Python file."""
    source = path.read_text(encoding="utf-8")
    return source.count("\n"), code_lines(source)


def count_tree(root: Path) -> tuple[int, int, int]:
    """``(files, raw, code)`` over every ``*.py`` file under ``root``."""
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    raw = code = 0
    for path in files:
        file_raw, file_code = count_file(path)
        raw += file_raw
        code += file_code
    return len(files), raw, code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="raw and code-only line counts of Python trees"
    )
    parser.add_argument("paths", nargs="*", default=[Path("src")], type=Path)
    args = parser.parse_args(argv)
    rows = []
    for path in args.paths:
        if not path.exists():
            parser.error(f"no such file or directory: {path}")
        rows.append((str(path), *count_tree(path)))
    if len(rows) > 1:
        columns = list(zip(*rows))[1:]
        rows.append(("total", *(sum(column) for column in columns)))
    print("| path | files | raw lines | code lines |")
    print("|---|---:|---:|---:|")
    for name, files, raw, code in rows:
        print(f"| {name} | {files} | {raw} | {code} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
