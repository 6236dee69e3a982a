"""Asyncio deployment substrate.

Runs the *same* protocol state machines as the deterministic simulator on
real asyncio concurrency: an in-memory transport with configurable delay
models, per-node step loops, crash injection, and cluster orchestration.
This is the track the reproduction plan calls "asyncio simulation": it
demonstrates the protocols working under genuine (non-adversarial)
asynchrony and is what the example applications build on.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "cluster": (
            "NONTERMINATED",
            "TERMINATED",
            "Cluster",
            "ClusterResult",
            "CrashInjection",
            "run_commit_cluster",
        ),
        "delays": (
            "DelayModel",
            "ExponentialDelay",
            "FixedDelay",
            "SpikeDelay",
            "UniformDelay",
        ),
        "node": ("Node", "NodeResult"),
        "transport": (
            "AsyncTransport",
            "LinkFaultPolicy",
            "LinkVerdict",
            "Reliability",
            "TransportStats",
            "WireMessage",
        ),
        "virtualtime": ("VirtualClockEventLoop", "run_virtual"),
    },
)

__all__ = [
    "AsyncTransport",
    "Cluster",
    "ClusterResult",
    "CrashInjection",
    "DelayModel",
    "ExponentialDelay",
    "FixedDelay",
    "LinkFaultPolicy",
    "LinkVerdict",
    "NONTERMINATED",
    "Node",
    "NodeResult",
    "Reliability",
    "SpikeDelay",
    "TERMINATED",
    "TransportStats",
    "UniformDelay",
    "VirtualClockEventLoop",
    "WireMessage",
    "run_commit_cluster",
]
