"""Parameter sweeps: run a trial batch per point of a parameter grid."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    from repro.analysis.montecarlo import TrialBatch


@dataclass(frozen=True)
class SweepPoint:
    """One grid point with its trial batch."""

    params: Mapping[str, object]
    batch: TrialBatch

    def __getitem__(self, key: str) -> object:
        return self.params[key]


def grid(**axes: Sequence[object]) -> Iterable[dict[str, object]]:
    """Cartesian product of named parameter axes, in axis order.

    Example::

        for point in grid(n=[4, 8], crashes=[0, 1]):
            ...  # {'n': 4, 'crashes': 0}, {'n': 4, 'crashes': 1}, ...
    """
    names = list(axes)
    for values in itertools.product(*(axes[name] for name in names)):
        yield dict(zip(names, values))


def sweep(
    axes: Mapping[str, Sequence[object]],
    run_point: Callable[[dict[str, object]], TrialBatch],
) -> list[SweepPoint]:
    """Run ``run_point`` for every grid point and collect results."""
    points = []
    for params in grid(**dict(axes)):
        points.append(SweepPoint(params=params, batch=run_point(params)))
    return points
