"""``service start | submit | status | kill | load``: the crash-recovery
commit service over TCP, one process per node.

A node process imports this module, :mod:`repro.cli.common` and what
``service start`` itself needs, nothing else of the CLI (see
``scripts/start_budget.py``).
"""

from __future__ import annotations

import json
import sys

from repro.cli.common import _add_observability_args, _with_observability


def cmd_service_start(args) -> int:
    return _with_observability(args, lambda: _cmd_service_start(args))


def _cmd_service_start(args) -> int:
    import asyncio
    import os
    import signal
    from pathlib import Path

    from repro.engine.seeds import SERVICE_NODE_STREAM, derive_keyed
    from repro.service.recovery import NodeConfig
    from repro.service.server import ServiceServer, peer_address
    from repro.service.wal import FileWalStore

    votes = [int(v) for v in args.votes.split(",")]
    n = len(votes)
    if not 0 <= args.node < n:
        print(
            f"error: --node {args.node} out of range for {n} votes",
            file=sys.stderr,
        )
        return 2
    t = args.t if args.t is not None else (n - 1) // 2
    config = NodeConfig(
        pid=args.node,
        n=n,
        t=t,
        K=args.K,
        vote=votes[args.node],
        tape_seed=derive_keyed(args.seed, SERVICE_NODE_STREAM, args.node),
        variant=args.variant,
        multi_txn=args.multi_txn,
        commit_bias=args.commit_bias,
    )
    node_dir = Path(args.data_dir) / f"node{args.node}"
    store = FileWalStore(node_dir)
    peers = [
        peer_address(args.base_port, pid, args.host) for pid in range(n)
    ]
    server = ServiceServer(
        config,
        store,
        peers,
        tick_interval=args.tick_interval,
        fsync=not args.no_fsync,
        hold_for_submit=(args.node == 0 and not args.no_hold),
        snapshot_every=args.snapshot_every,
        seed=args.seed,
    )
    (node_dir / "pid").write_text(f"{os.getpid()}\n")

    async def serve() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, server.halt)
        await server.serve()

    asyncio.run(serve())
    return 0


def cmd_service_submit(args) -> int:
    from repro.errors import ServiceError
    from repro.service.client import submit

    try:
        status = submit(
            args.host, args.port, timeout=args.timeout, txn=args.txn
        )
    except (ServiceError, OSError, TimeoutError) as exc:
        print(
            f"error: submit to {args.host}:{args.port} failed: {exc}",
            file=sys.stderr,
        )
        return 2
    print(json.dumps(status, sort_keys=True))
    return 0


def cmd_service_status(args) -> int:
    from repro.errors import ServiceError
    from repro.service.client import status as node_status

    nodes: list[dict] = []
    for pid in range(args.n):
        port = args.base_port + pid
        try:
            doc = node_status(args.host, port, timeout=args.timeout)
        except (ServiceError, OSError, TimeoutError) as exc:
            doc = {"pid": pid, "unreachable": str(exc)}
        nodes.append(doc)
    print(json.dumps({"nodes": nodes}, sort_keys=True))
    if args.check:
        decisions = {
            doc.get("decision")
            for doc in nodes
            if "unreachable" not in doc
        }
        reachable = sum(1 for doc in nodes if "unreachable" not in doc)
        if (
            reachable < args.n
            or None in decisions
            or len(decisions) != 1
        ):
            return 1
    return 0


def cmd_service_kill(args) -> int:
    import os
    import signal
    from pathlib import Path

    pid_path = Path(args.data_dir) / f"node{args.node}" / "pid"
    try:
        pid = int(pid_path.read_text().strip())
    except FileNotFoundError:
        print(f"node {args.node}: no pidfile at {pid_path}; nothing to kill")
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {pid_path}: {exc}", file=sys.stderr)
        return 2
    signum = signal.SIGKILL if args.signal == "KILL" else signal.SIGTERM
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        # A crashed/killed node leaves its pidfile behind; treat the
        # stale entry as already-dead rather than an error so kill is
        # idempotent in restart scripts.
        pid_path.unlink(missing_ok=True)
        print(
            f"node {args.node}: pid {pid} is not running "
            f"(stale pidfile removed)"
        )
        return 0
    except OSError as exc:
        print(f"error: kill {pid} failed: {exc}", file=sys.stderr)
        return 2
    print(f"sent SIG{args.signal} to node {args.node} (pid {pid})")
    return 0


def cmd_service_load(args) -> int:
    return _with_observability(args, lambda: _cmd_service_load(args))


def _cmd_service_load(args) -> int:
    from repro.errors import ReproError
    from repro.runtime.cluster import TERMINATED
    from repro.service.load import run_load

    if args.txns is not None:
        txns = args.txns
    else:
        txns = max(1, int(args.rate * args.duration))
    try:
        report = run_load(
            txns=txns,
            rate=args.rate,
            shards=args.shards,
            group_size=args.group_size,
            K=args.K,
            seed=args.seed,
            tick_interval=args.tick_interval,
            kills=args.kills,
            commit_bias=args.commit_bias,
            snapshot_every=args.snapshot_every,
            deadline=args.deadline,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = report.to_dict()
    print(json.dumps(doc, indent=2, sort_keys=True))
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    if report.safety_violations or report.outcome != TERMINATED:
        return 1
    return 0



def register(sub) -> None:
    """Add ``service`` to the top-level subparsers."""
    service_parser = sub.add_parser(
        "service",
        help=(
            "deployable crash-recovery commit service over TCP "
            "(see: service start, submit, status, kill, load)"
        ),
    )
    service_sub = service_parser.add_subparsers(
        dest="service_command", required=True
    )

    start_parser = service_sub.add_parser(
        "start",
        help=(
            "run one node of the commit service: recover from its WAL "
            "(if any), listen on base-port + node, serve until decided "
            "and halted"
        ),
    )
    start_parser.add_argument(
        "--node", type=int, required=True, help="this node's pid (0 = coordinator)"
    )
    start_parser.add_argument(
        "--votes",
        default="1,1,1,1,1",
        help="comma-separated votes for the whole cluster (length = n)",
    )
    start_parser.add_argument(
        "--t", type=int, default=None, help="fault budget (default (n-1)//2)"
    )
    start_parser.add_argument("--K", type=int, default=4, help="on-time bound")
    start_parser.add_argument(
        "--seed", type=int, default=0, help="cluster seed (same on every node)"
    )
    start_parser.add_argument(
        "--variant",
        default="commit",
        help="protocol variant: commit or broken-commit",
    )
    start_parser.add_argument(
        "--host", default="127.0.0.1", help="listen/peer host"
    )
    start_parser.add_argument(
        "--base-port",
        type=int,
        default=7400,
        help="node p listens on base-port + p",
    )
    start_parser.add_argument(
        "--data-dir",
        required=True,
        help="durable root; this node's WAL lives in <data-dir>/node<p>/",
    )
    start_parser.add_argument(
        "--tick-interval",
        type=float,
        default=0.02,
        help="protocol step granularity in seconds",
    )
    start_parser.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip fsync on WAL appends (testing only)",
    )
    start_parser.add_argument(
        "--no-hold",
        action="store_true",
        help=(
            "start the commit immediately instead of waiting for "
            "`repro service submit` (coordinator only; other nodes "
            "never hold)"
        ),
    )
    start_parser.add_argument(
        "--snapshot-every",
        type=int,
        default=256,
        help="compact the WAL into a snapshot every N steps (0 = never)",
    )
    start_parser.add_argument(
        "--multi-txn",
        action="store_true",
        help=(
            "host many concurrent transactions (lazily created per "
            "txn id) instead of the single default transaction"
        ),
    )
    start_parser.add_argument(
        "--commit-bias",
        type=float,
        default=1.0,
        help=(
            "Bernoulli parameter of derived per-transaction votes "
            "(multi-txn only; 1.0 = always vote yes)"
        ),
    )
    _add_observability_args(start_parser)
    start_parser.set_defaults(fn=cmd_service_start)

    submit_parser = service_sub.add_parser(
        "submit",
        help="release the coordinator's held transaction (start the commit)",
    )
    submit_parser.add_argument("--host", default="127.0.0.1")
    submit_parser.add_argument(
        "--port", type=int, default=7400, help="the coordinator's port"
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=5.0, help="request timeout in seconds"
    )
    submit_parser.add_argument(
        "--txn",
        type=int,
        default=0,
        help=(
            "transaction id to submit to a multi-transaction node "
            "(0 = the node's default held transaction)"
        ),
    )
    submit_parser.set_defaults(fn=cmd_service_submit)

    status_parser = service_sub.add_parser(
        "status",
        help="query every node's decision and incarnation over TCP",
    )
    status_parser.add_argument("--host", default="127.0.0.1")
    status_parser.add_argument(
        "--base-port", type=int, default=7400, help="node p answers on base-port + p"
    )
    status_parser.add_argument(
        "--n", type=int, default=5, help="cluster size (ports probed)"
    )
    status_parser.add_argument(
        "--timeout", type=float, default=2.0, help="per-node timeout in seconds"
    )
    status_parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit 1 unless every node is reachable, decided, and all "
            "decisions agree"
        ),
    )
    status_parser.set_defaults(fn=cmd_service_status)

    kill_parser = service_sub.add_parser(
        "kill",
        help="signal a node process via its <data-dir>/node<p>/pid file",
    )
    kill_parser.add_argument("--node", type=int, required=True)
    kill_parser.add_argument("--data-dir", required=True)
    kill_parser.add_argument(
        "--signal",
        choices=("TERM", "KILL"),
        default="KILL",
        help="TERM halts cleanly; KILL simulates a crash (default)",
    )
    kill_parser.set_defaults(fn=cmd_service_kill)

    load_parser = service_sub.add_parser(
        "load",
        help=(
            "open-loop multi-transaction load run on the virtual clock: "
            "sharded commit groups, optional kill/recover faults, "
            "txn/s + p50/p99 latency report"
        ),
    )
    load_parser.add_argument(
        "--rate",
        type=float,
        default=500.0,
        help="offered arrival rate in transactions per virtual second",
    )
    load_parser.add_argument(
        "--duration",
        type=float,
        default=1.0,
        help="submission window in virtual seconds (txns = rate * duration)",
    )
    load_parser.add_argument(
        "--txns",
        type=int,
        default=None,
        help="exact transaction count (overrides --duration)",
    )
    load_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="independent commit groups (txn i goes to shard i %% shards)",
    )
    load_parser.add_argument(
        "--group-size", type=int, default=5, help="processors per group"
    )
    load_parser.add_argument("--K", type=int, default=4, help="on-time bound")
    load_parser.add_argument("--seed", type=int, default=0)
    load_parser.add_argument(
        "--tick-interval",
        type=float,
        default=0.002,
        help="virtual seconds per protocol step",
    )
    load_parser.add_argument(
        "--kills",
        type=int,
        default=0,
        help="seeded kill/recover faults to inject during the run",
    )
    load_parser.add_argument(
        "--commit-bias",
        type=float,
        default=1.0,
        help="Bernoulli parameter of derived per-transaction votes",
    )
    load_parser.add_argument(
        "--snapshot-every",
        type=int,
        default=32,
        help="node snapshot-compaction period in steps (0 = never)",
    )
    load_parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="virtual-time budget (default: window + recovery tail)",
    )
    load_parser.add_argument(
        "--out",
        default=None,
        help="also write the JSON report to this path (e.g. BENCH_throughput.json)",
    )
    _add_observability_args(load_parser)
    load_parser.set_defaults(fn=cmd_service_load)

