"""Retransmission parameters of the commit service's node.

:class:`Reliability` configures the retry-until-acked loops of
:mod:`repro.service.node`, over TCP and over the in-memory bus alike.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Reliability:
    """Retransmission parameters for lossy links.

    Attributes:
        base_timeout: seconds before the first retransmission.
        max_backoff: cap on the (exponentially growing) timeout.
        jitter: fractional timeout spread; each wait is scaled by a
            factor uniform in ``[1 - jitter, 1 + jitter]``.
        max_retries: retransmission budget per envelope; ``None`` retries
            until acknowledged, a crash, or transport close.
    """

    base_timeout: float = 0.012
    max_backoff: float = 0.2
    jitter: float = 0.4
    max_retries: int | None = None

    def __post_init__(self) -> None:
        if self.base_timeout <= 0:
            raise ValueError(
                f"base_timeout must be positive, got {self.base_timeout}"
            )
        if self.max_backoff < self.base_timeout:
            raise ValueError(
                f"max_backoff {self.max_backoff} below base_timeout "
                f"{self.base_timeout}"
            )
        if not 0 <= self.jitter < 1:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
