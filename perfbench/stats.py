"""Order statistics of the benchmark's time samples."""

from __future__ import annotations

import math


def tail_percentile(n: int) -> float:
    """The percentile reported as op_s.p90: 90, or for short runs the
    highest one with at least ten samples above it, but never below the
    median."""
    return max(0.5, min(0.9, 1 - 10 / n))


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by its continued
    fraction (modified Lentz)."""
    if x <= 0 or x >= 1:
        return float(x >= 1)
    if x > (a + 1) / (a + b + 2):
        return 1 - _betainc(b, a, 1 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    c, d, f = 1.0, 0.0, 1.0
    for i in range(400):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1 + num * d
        d = 1 / (d if abs(d) > tiny else tiny)
        c = 1 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1 - c * d) < 1e-14:
            break
    return front * (f - 1)


def percentile(samples, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a weighted mean of all
    order statistics, with beta(q(n+1), (1-q)(n+1)) weights.  It moves
    less from run to run than a single order statistic when the
    operations near the quantile have spread-out times."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum(x * (cdf[i + 1] - cdf[i]) for i, x in enumerate(ordered))
