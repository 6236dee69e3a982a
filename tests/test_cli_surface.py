"""The CLI's surface is what it was before ``cli.py`` became a package.

``tests/data/cli_surface/`` was captured from the last commit that had
the single-module ``repro/cli.py`` (see the README there): the help text
of the top-level parser and of every sub-parser, and a
formatting-independent description of every argument.  The help text is
compared byte for byte on the Python version it was captured with
(argparse's line breaking differs between versions); the description is
compared on every version.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser

DATA = Path(__file__).parent / "data" / "cli_surface"
CAPTURED_WITH = tuple(json.loads((DATA / "python_version.json").read_text()))
SRC = Path(__file__).resolve().parent.parent / "src"


def walk_parsers(parser: argparse.ArgumentParser, path=("repro",)):
    """Yield ``(path, parser)`` for a parser and everything below it."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from walk_parsers(child, (*path, name))


def describe(parser: argparse.ArgumentParser) -> dict:
    """Everything argparse was told about ``parser``, as plain data."""
    return {
        "prog": parser.prog,
        "description": parser.description,
        "epilog": parser.epilog,
        "arguments": [
            {
                "kind": type(action).__name__,
                "flags": list(action.option_strings),
                "dest": action.dest,
                "nargs": action.nargs,
                "const": repr(action.const),
                "default": repr(action.default),
                "type": getattr(action.type, "__name__", None),
                "choices": (
                    None if action.choices is None else list(action.choices)
                ),
                "required": action.required,
                "help": action.help,
                "metavar": action.metavar,
            }
            for action in parser._actions
        ],
    }


def help_texts(parser: argparse.ArgumentParser) -> dict[str, str]:
    """``{"repro faults diff": <help text>, ...}`` at 80 columns."""
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        return {
            " ".join(path): sub.format_help()
            for path, sub in walk_parsers(parser)
        }
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def captured(name: str):
    return json.loads((DATA / name).read_text())


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestSurfaceUnchanged:
    def test_every_argument_is_described_as_before(self):
        described = {
            " ".join(path): describe(sub)
            for path, sub in walk_parsers(build_parser())
        }
        expected = captured("arguments.json")
        assert sorted(described) == sorted(expected)
        for name in expected:
            assert described[name] == expected[name], name

    @pytest.mark.skipif(
        sys.version_info[:2] != CAPTURED_WITH,
        reason="argparse breaks help lines differently across versions",
    )
    def test_help_text_is_byte_identical(self):
        expected = captured("help.json")
        texts = help_texts(build_parser())
        assert sorted(texts) == sorted(expected)
        for name in expected:
            assert texts[name] == expected[name], name

    def test_the_table_names_every_command_in_help_order(self):
        top = captured("arguments.json")["repro"]
        (commands,) = [
            a["choices"] for a in top["arguments"] if a["dest"] == "command"
        ]
        assert list(COMMANDS) == commands


@pytest.mark.skipif(
    sys.version_info[:2] != CAPTURED_WITH,
    reason="argparse breaks help lines differently across versions",
)
class TestHelpFromTheCommandLine:
    """``main`` builds one group's parser when argv names it: what that
    parser prints is what the whole parser printed."""

    def test_top_level_help(self):
        done = run_cli("--help")
        assert done.returncode == 0
        assert done.stdout == captured("help.json")["repro"]

    @pytest.mark.parametrize(
        "group", ["faults", "service", "mc", "models", "trace"]
    )
    def test_group_help(self, group):
        done = run_cli(group, "--help")
        assert done.returncode == 0
        assert done.stdout == captured("help.json")[f"repro {group}"]

    def test_leaf_help_behind_a_global_option(self):
        done = run_cli("--log-level", "debug", "service", "start", "--help")
        assert done.returncode == 0
        assert done.stdout == captured("help.json")["repro service start"]


class TestUsageErrors:
    def test_no_arguments_exits_two_naming_every_command(self):
        done = run_cli()
        assert done.returncode == 2
        assert "{" + ",".join(COMMANDS) + "}" in done.stderr
        assert "the following arguments are required: command" in done.stderr

    def test_unknown_command_exits_two_listing_the_choices(self):
        done = run_cli("frobnicate")
        assert done.returncode == 2
        assert "invalid choice: 'frobnicate'" in done.stderr
        for command in COMMANDS:
            assert command in done.stderr

    def test_a_group_parser_reports_errors_under_the_whole_usage_line(self):
        # ``service status --bogus`` is rejected by the top-level parser
        # ("unrecognized arguments"), built here for one group only: its
        # usage line still names every command.
        done = run_cli("service", "status", "--bogus")
        assert done.returncode == 2
        assert "unrecognized arguments: --bogus" in done.stderr
        assert "{" + ",".join(COMMANDS) + "}" in done.stderr

    def test_version(self):
        from repro import __version__

        done = run_cli("--version")
        assert done.returncode == 0
        assert done.stdout.strip() == f"repro {__version__}"
