"""Variability statistics for non-deterministic workloads.

The paper measures performance "using accepted statistical methods
required for non-deterministic workloads" [Alameldeen & Wood, HPCA
2003]: each configuration runs several times with small random timing
perturbations (our ``MachineConfig.latency_jitter``), and results are
reported as means with 95% confidence intervals from the Student
t-distribution.  The t quantile is computed here with the standard
library (:func:`t_quantile`), so the package has no dependencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ConfidenceInterval:
    """A sample mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    n: int
    confidence: float = 0.95

    @property
    def low(self) -> float:
        """Lower bound of the interval."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper bound of the interval."""
        return self.mean + self.half_width

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        """True if the two intervals overlap (difference not significant)."""
        return self.low <= other.high and other.low <= self.high

    def __str__(self) -> str:
        return f"{self.mean:.4f} ± {self.half_width:.4f}"


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for aa in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return h


def _beta_regularized(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def t_quantile(p: float, df: int) -> float:
    """The ``p`` quantile (``0.5 <= p < 1``) of Student's t with ``df`` dof.

    Bisects the upper tail ``P(T > t) = I_{df/(df+t^2)}(df/2, 1/2) / 2``
    to the last bit of a double; agrees with ``scipy.stats.t.ppf`` to a
    relative 1e-12 or better.
    """
    tail = 1.0 - p

    def upper(t: float) -> float:
        return 0.5 * _beta_regularized(df / 2.0, 0.5, df / (df + t * t))

    lo, hi = 0.0, 1.0
    while upper(hi) > tail:
        lo, hi = hi, hi * 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if upper(mid) > tail:
            lo = mid
        else:
            hi = mid


def mean_ci(samples: list[float], confidence: float = 0.95) -> ConfidenceInterval:
    """Mean and t-distribution confidence half-width of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return ConfidenceInterval(mean=mean, half_width=0.0, n=1, confidence=confidence)
    var = sum((x - mean) ** 2 for x in samples) / (n - 1)
    sem = math.sqrt(var / n)
    t = t_quantile(0.5 + confidence / 2, n - 1)
    return ConfidenceInterval(mean=mean, half_width=t * sem, n=n, confidence=confidence)


def speedup_ci(
    baseline: list[float], variant: list[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """CI of the speedup of ``variant`` over ``baseline`` run times.

    Speedup is baseline_time / variant_time, computed pairwise when the
    sample counts match (common random seeds), else on the ratio of
    means with a conservative combined half-width.
    """
    if len(baseline) == len(variant) and len(baseline) > 1:
        ratios = [b / v for b, v in zip(baseline, variant)]
        return mean_ci(ratios, confidence)
    base_ci = mean_ci(baseline, confidence)
    var_ci = mean_ci(variant, confidence)
    mean = base_ci.mean / var_ci.mean
    rel = 0.0
    if base_ci.mean:
        rel += base_ci.half_width / base_ci.mean
    if var_ci.mean:
        rel += var_ci.half_width / var_ci.mean
    return ConfidenceInterval(
        mean=mean, half_width=mean * rel, n=min(len(baseline), len(variant)),
        confidence=confidence,
    )
