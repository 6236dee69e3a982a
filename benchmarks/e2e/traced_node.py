"""A service node with spans recorded around its public layer functions.

``python traced_node.py <span-file> service start ...`` wraps the layer
boundaries listed in :func:`install`, then calls :func:`repro.cli.main`
with the remaining arguments, unchanged.  The spans stay in memory and
are written to ``<span-file>`` when ``main`` returns — that is, after
SIGTERM/SIGINT made the server halt.  A SIGKILLed incarnation takes its
spans with it; the driver reports how many incarnations were lost.

Nothing under ``src/`` knows about this file.
"""

from __future__ import annotations

import os
import sys
import time

from spans import SpanRecorder


def install(recorder: SpanRecorder) -> None:
    """Wrap the service's layer boundaries (layer names are module names)."""
    from repro.service import node, server, txn, wal, wire

    recorder.wrap(
        wire.ServiceEnvelope,
        "encode",
        "wire.encode",
        count=lambda args, line: {"wire.bytes": len(line)},
    )
    recorder.wrap(
        wire.ServiceEnvelope,
        "decode",
        "wire.decode",
        count=lambda args, envelope: {"wire.bytes": len(args[1])},
    )
    recorder.wrap(
        wal,
        "encode_record",
        "wal.encode_record",
        count=lambda args, line: {"wal.bytes": len(line)},
    )
    recorder.wrap(wal.WriteAheadLog, "append", "wal.append")
    recorder.wrap(wal.FileWalStore, "sync", "wal.fsync")
    # ``node`` imported ``write_snapshot`` by name: wrap it where it is called.
    recorder.wrap(node, "write_snapshot", "wal.snapshot")
    recorder.wrap(
        wal.FileWalStore,
        "write_snapshot",
        "wal.snapshot_write",
        count=lambda args, _none: {"wal.snapshot_bytes": len(args[1])},
    )
    recorder.wrap(
        txn.InstanceMux,
        "apply_step",
        "txn.apply_step",
        count=lambda args, _effects: {
            "txn.step_msgs": len(args[1]),
            "txn.empty_steps": 0 if args[1] else 1,
        },
    )
    recorder.wrap(node.ServiceNode, "deliver", "node.deliver")
    recorder.wrap(
        node.ServiceNode, "submit_txn", "node.submit", txn=lambda args: args[1]
    )
    recorder.wrap(node.ServiceNode, "snapshot_state", "node.status")
    recorder.wrap(
        server.ServiceServer,
        "_send",
        "server.send",
        count=lambda args, _none: {
            "server.retransmits": 1 if args[2].kind == "msg" and args[3] > 0 else 0
        },
    )
    recorder.wrap(server.ServiceServer, "_transmit", "server.transmit")
    recorder.wrap(server.ServiceServer, "_handle", "server.accept")


def main(argv: list[str]) -> int:
    span_file, service_argv = argv[0], argv[1:]
    from repro.cli import main as repro_main

    recorder = SpanRecorder()
    install(recorder)
    started = time.perf_counter()
    try:
        return repro_main(service_argv)
    finally:
        cpu = os.times()
        recorder.dump(
            span_file,
            pid=os.getpid(),
            wall_s=time.perf_counter() - started,
            cpu_s=cpu.user + cpu.system,
        )


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
