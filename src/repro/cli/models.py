"""``models list`` and ``models atlas``: the timing-model zoo.
"""

from __future__ import annotations

import json

from repro.cli.common import (
    _add_observability_args,
    _add_sim_core_arg,
    _install_sim_core,
    _with_observability,
)


def cmd_models_list(args) -> int:
    from repro.models import model_names, resolve_model

    if args.json:
        print(
            json.dumps(
                [resolve_model(name).describe() for name in model_names()],
                sort_keys=True,
            )
        )
        return 0
    for name in model_names():
        model = resolve_model(name)
        default = " (default)" if name == "realistic" else ""
        print(f"{name}{default} — {model.summary}")
        print(f"    source: {model.source}")
        print(
            f"    tracks: {', '.join(model.tracks)}; "
            f"mc: {'yes' if model.mc_supported else 'no'}"
        )
        if not model.preserves_eventual_delivery:
            print(
                "    drops messages permanently: termination is "
                "degradation data, not a liveness obligation"
            )
        for knob in model.knobs:
            print(f"    knob {knob.name} = {knob.default}: {knob.help}")
    return 0


def cmd_models_atlas(args) -> int:
    return _with_observability(args, lambda: _cmd_models_atlas(args))


def _cmd_models_atlas(args) -> int:
    from repro.models.atlas import (
        AtlasConfig,
        reference_protocol_safe,
        render_atlas,
        run_atlas,
        write_atlas_report,
    )

    _install_sim_core(args.sim_core)
    config = AtlasConfig(
        protocols=tuple(args.protocols.split(",")),
        models=tuple(args.models.split(",")) if args.models else (),
        n=args.n,
        t=args.t,
        K=args.K,
        trials=args.trials,
        base_seed=args.seed,
        max_steps=args.max_steps,
        over_budget_fraction=args.over_budget_fraction,
        all_commit_fraction=args.all_commit_fraction,
    )
    report = run_atlas(config, workers=args.workers)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(render_atlas(report))
    if args.out:
        path = write_atlas_report(report, args.out)
        if not args.json:
            print(f"atlas report written to {path}")
    return 0 if reference_protocol_safe(report) else 1



def register(sub) -> None:
    """Add ``models`` to the top-level subparsers."""
    models_parser = sub.add_parser(
        "models",
        help=(
            "the timing-model zoo (see: models list, models atlas)"
        ),
    )
    models_sub = models_parser.add_subparsers(
        dest="models_command", required=True
    )
    models_list_parser = models_sub.add_parser(
        "list",
        help=(
            "list registered timing models: semantics, track support, "
            "fast-core whitelist status, and knobs"
        ),
    )
    models_list_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the registry as a JSON array",
    )
    models_list_parser.set_defaults(fn=cmd_models_list)

    atlas_parser = models_sub.add_parser(
        "atlas",
        help=(
            "sweep a protocol battery across the timing-model zoo and "
            "tabulate termination, latency, and machine-checked safety "
            "per (protocol, model) cell"
        ),
    )
    atlas_parser.add_argument(
        "--protocols",
        default="protocol1,protocol2,twopc,threepc",
        help=(
            "comma-separated battery: protocol1, protocol2, twopc, "
            "twopc-block, threepc (default: all four classics)"
        ),
    )
    atlas_parser.add_argument(
        "--models",
        default="",
        help=(
            "comma-separated timing models (default: every registered "
            "model; see repro models list)"
        ),
    )
    atlas_parser.add_argument(
        "--n", type=int, default=5, help="processors per trial"
    )
    atlas_parser.add_argument(
        "--t", type=int, default=None, help="fault budget (default (n-1)//2)"
    )
    atlas_parser.add_argument(
        "--K", type=int, default=4, help="on-time bound"
    )
    atlas_parser.add_argument(
        "--trials",
        type=int,
        default=25,
        help="seeded trials per (protocol, model) cell",
    )
    atlas_parser.add_argument(
        "--seed", type=int, default=0, help="base seed; trial i uses seed+i"
    )
    atlas_parser.add_argument(
        "--max-steps",
        type=int,
        default=6_000,
        help="simulator step horizon per trial",
    )
    atlas_parser.add_argument(
        "--over-budget-fraction",
        type=float,
        default=0.25,
        help="fraction of plans drawing more than t crashes",
    )
    atlas_parser.add_argument(
        "--all-commit-fraction",
        type=float,
        default=0.6,
        help="fraction of trials voting all-commit",
    )
    atlas_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes per cell sweep (default: cpu count via "
            "REPRO_WORKERS/os.cpu_count; 1 forces serial)"
        ),
    )
    atlas_parser.add_argument(
        "--out", default=None, help="write the atlas report JSON here"
    )
    atlas_parser.add_argument(
        "--json",
        action="store_true",
        help="print the full report document instead of the table",
    )
    _add_sim_core_arg(atlas_parser)
    _add_observability_args(atlas_parser)
    atlas_parser.set_defaults(fn=cmd_models_atlas)

