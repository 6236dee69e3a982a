"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run-commit`` — run Protocol 2 once under a chosen adversary and
  print the outcome (optionally a full timeline / lane view / round
  chart), with ``--save`` to persist a replayable schedule,
  ``--trace-out`` to archive the full run as JSONL, and ``--json`` for a
  schema-versioned machine-readable document;
* ``replay`` — re-execute a saved schedule and print the outcome;
* ``experiments`` — list the registered experiments;
* ``experiment`` — run one experiment and print its table (``--json``
  for machine-readable output);
* ``stats`` — print a telemetry registry snapshot (JSON or
  Prometheus-style text) for one or more archived JSONL traces;
* ``faults campaign`` — sweep seeded randomized FaultPlans across the
  simulator and service tracks, check the paper's invariants on every
  trial, and write a machine-readable campaign report; exits 1 on any
  safety violation, 2 (with ``--fail-on-liveness``) on liveness-only
  violations, and cuts per-violation replay artifacts with
  ``--artifact-dir``;
* ``faults replay`` — re-execute a replay artifact
  (``repro.counterexample`` v1) and verify the recorded per-track
  results reproduce byte-identically;
* ``faults shrink`` — minimize a violating trial (from an artifact or
  by scanning a campaign) to a locally-minimal FaultPlan that still
  violates safety;
* ``faults diff`` — run the cross-track differential oracle and report
  semantic divergence between the simulator and the service; with
  ``--cores``, compare the reference and fast *execution cores* on
  equal campaign records and run metrics instead;
* ``mc explore`` — bounded exhaustive model checking of one protocol
  variant with sleep-set partial-order reduction; exits 1 on any safety
  violation and cuts per-class counterexample artifacts with
  ``--artifact-dir``;
* ``mc certify`` — run a canned certification preset (exhaustive
  safety sweep plus planted-bug detection with replay cross-check) and
  exit 1 unless every phase passes;
* ``trace export`` — convert a span trace recorded with
  ``--trace-spans`` to Chrome trace-event JSON (loadable in Perfetto /
  ``chrome://tracing``) or re-validated span-trace JSONL;
* ``trace summarize`` — print record counts, span kinds, and event
  totals of a span trace;
* ``trace critical-path`` — extract the longest causal message chain
  ending at each decision and attribute the decision round to it.

``run-commit``, ``faults campaign``, and ``mc explore`` accept
``--trace-spans PATH`` (record a causal span trace of the run) and
``--serve-metrics PORT`` (serve live ``/metrics`` + ``/healthz`` on a
background thread for the duration of the command).  ``faults
campaign`` and ``models atlas`` accept ``--sim-core {reference,fast}``
(``fast`` runs eligible trials on the fused sweep; see
``docs/PERFORMANCE.md``).

The global ``--log-level`` flag configures the ``repro`` logging channel
(see :mod:`repro.telemetry.log`); it must precede the subcommand.
``--version`` prints the package version.

Every command reports through one exit-code scheme, shown in
:data:`EXIT_CODES` (also printed by ``repro --help`` and documented in
``docs/FAULTS.md``).

Layout: one module per command group, each with ``register(subparsers)``
and its handlers, listed in :data:`COMMANDS`.  :func:`main` imports the
group the command line names and builds that group's parser only (every
group for ``--help``, ``--version`` or an unknown command), and a
handler imports its subsystem when it is dispatched: ``repro service
start`` pays for the service, not for the adversaries, the model checker
or the experiments (``docs/PERFORMANCE.md``, "Start-up and restart").
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from typing import Sequence

from repro import __version__

#: The one exit-code scheme every subcommand reports through.  Shown in
#: ``repro --help`` and mirrored in ``docs/FAULTS.md``.
EXIT_CODES = """\
exit codes (all commands):
  0  success — clean run, verified replay, zero findings, certified
  1  findings — safety violation (faults campaign, mc explore),
     replay mismatch (faults replay), semantic divergence (faults
     diff), minimal plan over --max-entries (faults shrink),
     inconsistent decisions (run-commit), failed phase (mc certify)
  2  usage or input error — bad arguments, unknown experiment or
     preset, unreadable trace/schedule/artifact, liveness-only
     failure under faults campaign --fail-on-liveness
  3  nothing to shrink — faults shrink scanned its plans without
     finding any safety violation
  4  no spans recorded — trace export/summarize/critical-path read a
     valid span-trace file that contains no spans or events (the
     traced command recorded nothing)

repro models commands map onto the same codes:
  0  success — registry listed (models list), atlas swept with the
     reference protocol (protocol2) safe in every model (models atlas)
  1  findings — models atlas observed a safety violation for the
     reference protocol under some timing model
  2  usage or input error — unknown timing model, a model selected on
     a track it has no analogue for, --model with a non-cycle
     adversary (run-commit --adversary random), mc --model without
     --no-por

repro service commands map onto the same codes:
  0  success — node served and halted cleanly (start), request
     acknowledged (submit/kill), status gathered (status)
  1  findings — service status --check found an unreachable node, an
     undecided node, or inconsistent decisions
  2  usage or input error — node index out of range, unreachable
     coordinator (submit), unreadable pidfile or dead process (kill)
"""

#: The registration table: top-level command -> the module of this
#: package whose ``register`` adds it, in ``--help`` order.
COMMANDS = {
    "run-commit": "run",
    "replay": "run",
    "experiments": "run",
    "experiment": "run",
    "stats": "stats",
    "faults": "faults",
    "service": "service",
    "mc": "mc",
    "models": "models",
    "trace": "trace",
}

__all__ = ["COMMANDS", "EXIT_CODES", "build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The whole parser: every command of every group."""
    return _build_parser(None)


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser for ``command``'s group, or for every group (``None``).

    A one-group parser differs from the whole one only in the commands
    it accepts: its usage line still names them all (the ``metavar``
    below is what argparse derives from the full set of choices), so a
    usage error reads the same from either.
    """
    from repro.telemetry.log import LOG_LEVELS

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Transaction Commit in a Realistic Fault Model (PODC 1986) — "
            "reproduction toolkit"
        ),
        epilog=EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    parser.add_argument(
        "--log-level",
        choices=sorted(LOG_LEVELS),
        default=None,
        help="configure the repro logging channel (stderr)",
    )
    if command is None:
        groups, metavar = list(dict.fromkeys(COMMANDS.values())), None
    else:
        groups, metavar = [COMMANDS[command]], "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for group in groups:
        import_module(f"repro.cli.{group}").register(sub)
    return parser


def _named_command(argv: Sequence[str]) -> str | None:
    """The command ``argv`` names, if that can be told without parsing.

    Only ``--log-level`` may precede the command; anything else in front
    of it (``--help``, ``--version``, an abbreviation, a typo) answers
    ``None`` and gets the whole parser.
    """
    index = 0
    while index < len(argv):
        token = argv[index]
        if token == "--log-level":
            index += 2
        elif token.startswith("--log-level="):
            index += 1
        else:
            return token if token in COMMANDS else None
    return None


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.errors import ConfigurationError

    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(_named_command(argv))
    args = parser.parse_args(argv)
    if args.log_level is not None:
        from repro.telemetry.log import configure_logging

        configure_logging(args.log_level)
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        # Lazily-resolved knobs (REPRO_SIM_CORE, REPRO_TIMING_MODEL, ...)
        # surface here; follow the usage-error convention.
        print(f"error: {exc}", file=sys.stderr)
        return 2
