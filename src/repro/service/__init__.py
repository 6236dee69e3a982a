"""The deployable commit service: Protocol 2 in the crash-recovery model.

The simulator (:mod:`repro.sim`) executes the paper's protocols in the
*fail-stop* model — a crashed processor is gone forever.  This package
runs the same state machines as a *service* in the crash-**recovery**
model, of which fail-stop is the case with no restart:

* every node owns a checksummed, fsync'd write-ahead log and snapshot
  (:mod:`repro.service.wal`);
* a killed node's next life replays its durable records into a
  byte-identical protocol state (:mod:`repro.service.recovery`);
* reliability is node-level retry-until-acked with durable receiver
  dedup, so it survives restarts (:mod:`repro.service.node`);
* a recovering node that missed the outcome adopts it through the
  ``state-query`` / ``state-transfer`` handshake;
* one node process hosts many concurrent Protocol 2 instances — one per
  transaction — behind an instance multiplexer, with account-sharded
  commit groups and an open-loop load generator
  (:mod:`repro.service.txn`, :mod:`repro.service.load`);
* clusters run over an in-memory bus on the virtual clock for fault
  campaigns (:mod:`repro.service.cluster`,
  :mod:`repro.service.bus`) or over real TCP as separate OS
  processes (:mod:`repro.service.server`, :mod:`repro.service.client`).

See ``docs/SERVICE.md`` for the process layout, the WAL format, the
recovery handshake, and how a node hosts its transactions by id.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "bus": ("ServiceBus",),
        "cluster": (
            "ServiceCluster",
            "ServiceClusterResult",
            "TxnSubmission",
            "TxnWorkload",
            "node_configs",
            "shard_configs",
        ),
        "load": ("LoadReport", "run_load"),
        "node": ("ServiceNode", "ServiceNodeSnapshot"),
        "recovery": ("NodeConfig", "ReplayResult", "replay", "state_digest"),
        "txn": (
            "DEFAULT_TXN",
            "InstanceMux",
            "ShardMap",
            "TxnInstance",
            "txn_tape_seed",
            "txn_vote",
        ),
        "wal": (
            "FileWalStore",
            "MemoryWalStore",
            "WriteAheadLog",
            "durable_records",
            "read_log",
            "read_snapshot",
            "split_log_suffix",
            "write_snapshot",
        ),
        "wire": ("ServiceEnvelope",),
    },
)

__all__ = [
    "DEFAULT_TXN",
    "FileWalStore",
    "InstanceMux",
    "LoadReport",
    "MemoryWalStore",
    "NodeConfig",
    "ReplayResult",
    "ServiceBus",
    "ServiceCluster",
    "ServiceClusterResult",
    "ServiceEnvelope",
    "ServiceNode",
    "ServiceNodeSnapshot",
    "ShardMap",
    "TxnInstance",
    "TxnSubmission",
    "TxnWorkload",
    "WriteAheadLog",
    "durable_records",
    "node_configs",
    "read_log",
    "read_snapshot",
    "replay",
    "run_load",
    "shard_configs",
    "split_log_suffix",
    "state_digest",
    "txn_tape_seed",
    "txn_vote",
    "write_snapshot",
]
