"""Summary statistics for Monte-Carlo trial results.

All of the paper's quantitative claims are about *expected* values, so
the primary object here is a mean with a Student-t confidence interval.

scipy is an optional extra, and the only one this package uses: it is
imported the first time an interval needs a t quantile (a summary of
two or more samples with nonzero spread), not when the module loads, so
a process that runs trials without computing such an interval never
pays for scipy and numpy.  Without scipy the quantile falls back to the
normal approximation, which is narrower at small sample sizes (1.96
against 2.78 at 4 degrees of freedom); each use of the fallback is
counted in ``analysis_t_quantile_fallbacks_total``, and the first
lookup that finds no scipy logs one warning.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import InsufficientDataError
from repro.telemetry import registry as telemetry
from repro.telemetry.log import get_logger

_log = get_logger("analysis")


@functools.cache
def _student_t() -> Any:
    """``scipy.stats.t``, or ``None`` without scipy; looked up once."""
    try:
        from scipy.stats import t
    except ImportError:
        _log.warning(
            "scipy is not installed: confidence intervals use the "
            "normal quantile, narrower than Student-t at small n"
        )
        return None
    return t


def _t_quantile(confidence: float, dof: int) -> float:
    """Two-sided Student-t quantile, with a counted normal fallback."""
    student_t = _student_t()
    if student_t is not None:
        return float(student_t.ppf(0.5 + confidence / 2.0, dof))
    telemetry.count(
        "analysis_t_quantile_fallbacks_total",
        help="confidence intervals computed with the normal quantile "
        "because scipy is not installed",
    )
    # Normal approximation (exact enough for dof >= 30; conservative
    # callers should install scipy).  Abramowitz-Stegun inverse-erf.
    p = 0.5 + confidence / 2.0
    # Beasley-Springer-Moro style rational approximation.
    a = [
        -3.969683028665376e01,
        2.209460984245205e02,
        -2.759285104469687e02,
        1.383577518672690e02,
        -3.066479806614716e01,
        2.506628277459239e00,
    ]
    b = [
        -5.447609879822406e01,
        1.615858368580409e02,
        -1.556989798598866e02,
        6.680131188771972e01,
        -1.328068155288572e01,
    ]
    q = p - 0.5
    r = q * q
    numerator = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5])
    denominator = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    return numerator * q / denominator


@dataclass(frozen=True)
class Summary:
    """Mean and spread of one metric over Monte-Carlo trials.

    Attributes:
        count: number of samples.
        mean: sample mean.
        stdev: sample standard deviation (0 for a single sample).
        minimum / maximum: range.
        ci_low / ci_high: confidence interval for the mean.
        confidence: the confidence level used.
    """

    count: int
    mean: float
    stdev: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float
    confidence: float

    def __str__(self) -> str:
        return (
            f"{self.mean:.2f} ± {(self.ci_high - self.mean):.2f} "
            f"(n={self.count}, range [{self.minimum:.0f}, {self.maximum:.0f}])"
        )


def summarize(samples: Sequence[float], confidence: float = 0.95) -> Summary:
    """Summarise samples with a confidence interval for the mean.

    Raises:
        InsufficientDataError: with no samples at all.
    """
    if not samples:
        raise InsufficientDataError("cannot summarise zero samples")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    values = [float(v) for v in samples]
    count = len(values)
    mean = statistics.fmean(values)
    stdev = statistics.stdev(values) if count > 1 else 0.0
    if count > 1 and stdev > 0.0:
        half_width = _t_quantile(confidence, count - 1) * stdev / math.sqrt(count)
    else:
        half_width = 0.0
    return Summary(
        count=count,
        mean=mean,
        stdev=stdev,
        minimum=min(values),
        maximum=max(values),
        ci_low=mean - half_width,
        ci_high=mean + half_width,
        confidence=confidence,
    )


def proportion(successes: int, trials: int) -> float:
    """A guarded ratio for rate metrics.

    Raises:
        InsufficientDataError: when ``trials`` is zero.
    """
    if trials <= 0:
        raise InsufficientDataError("cannot compute a rate over zero trials")
    if not 0 <= successes <= trials:
        raise ValueError(
            f"successes {successes} out of range for trials {trials}"
        )
    return successes / trials
