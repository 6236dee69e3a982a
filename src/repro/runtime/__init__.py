"""What the commit service is built on below the node.

Every service node takes its retransmission parameters from
:mod:`repro.runtime.reliability`; the in-memory bus
(:mod:`repro.service.bus`) takes a delivery-delay model
(:mod:`repro.runtime.delays`) and a link-fault policy
(:mod:`repro.runtime.transport`); and co-hosted clusters run on the
virtual-clock event loop (:mod:`repro.runtime.virtualtime`),
deterministically and fast.  The paper's fail-stop model needs no node
stack of its own: it is the service with ``recover_cycle=None``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "delays": (
            "DelayModel",
            "ExponentialDelay",
            "FixedDelay",
            "SpikeDelay",
            "UniformDelay",
        ),
        "reliability": ("Reliability",),
        "transport": ("LinkFaultPolicy", "LinkVerdict"),
        "virtualtime": ("VirtualClockEventLoop", "run_virtual"),
    },
)

__all__ = [
    "DelayModel",
    "ExponentialDelay",
    "FixedDelay",
    "LinkFaultPolicy",
    "LinkVerdict",
    "Reliability",
    "SpikeDelay",
    "UniformDelay",
    "VirtualClockEventLoop",
    "run_virtual",
]
