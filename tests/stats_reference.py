"""The statistics kernels as generator expressions, one pass per sum.

A reference for :mod:`citemetric.stats`, which must return the same floats
bit for bit: it streams the same terms into ``math.fsum`` in the same order
and shares the mean and the sum of squared deviations between its outputs.
A column whose values are all equal has a sum of squared deviations of 0.0.
Where a product of moments is 0 or subnormal, the moments are taken again
from deviations scaled by the power of two that puts the largest in
[0.5, 1).
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

from citemetric.errors import InsufficientDataError, LengthMismatchError, ZeroVarianceError
from citemetric.model import StatsSummary
from citemetric.stats import median


def _ss(xs: Sequence[float], m: float) -> float:
    if all(x == xs[0] for x in xs):
        return 0.0
    return math.fsum((x - m) ** 2 for x in xs)


def _scaled(xs: Sequence[float], m: float) -> list[float]:
    k = -math.frexp(max(abs(x - m) for x in xs))[1]
    return [math.ldexp(x - m, k) for x in xs]


def sample_sd(xs: Sequence[float]) -> float:
    n = len(xs)
    if n < 2:
        raise InsufficientDataError(f"sample sd needs at least 2 values, got {n}")
    m = math.fsum(xs) / n
    return math.sqrt(_ss(xs, m) / (n - 1))


def skewness(xs: Sequence[float]) -> float:
    n = len(xs)
    if n < 3:
        raise InsufficientDataError(f"skewness needs at least 3 values, got {n}")
    m = math.fsum(xs) / n
    m2 = _ss(xs, m) / n
    if m2 == 0.0:
        raise ZeroVarianceError("skewness undefined on a constant sequence")
    m3 = math.fsum((x - m) ** 3 for x in xs) / n
    if m2 * m2 * m2 < sys.float_info.min:
        ds = _scaled(xs, m)
        m2 = math.fsum(d**2 for d in ds) / n
        m3 = math.fsum(d**3 for d in ds) / n
    magnitude = math.sqrt(n * (n - 1) * m3 * m3 / (m2 * m2 * m2)) / (n - 2)
    return math.copysign(magnitude, m3)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    if n != len(ys):
        raise LengthMismatchError(f"length mismatch: {n} vs {len(ys)}")
    if n < 2:
        raise InsufficientDataError(f"correlation needs at least 2 pairs, got {n}")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = _ss(xs, mx)
    syy = _ss(ys, my)
    if sxx == 0.0 or syy == 0.0:
        raise ZeroVarianceError("correlation undefined on a constant sequence")
    if sxx * syy < sys.float_info.min:
        dxs, dys = _scaled(xs, mx), _scaled(ys, my)
        sxx = math.fsum(dx**2 for dx in dxs)
        syy = math.fsum(dy**2 for dy in dys)
        sxy = math.fsum(dx * dy for dx, dy in zip(dxs, dys))
    else:
        sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return min(1.0, max(-1.0, sxy / math.sqrt(sxx * syy)))


def summarize(values: Sequence[float], label: str = "values") -> StatsSummary:
    n = len(values)
    if n < 2:
        raise InsufficientDataError(f"{label}: summary needs at least 2 values, got {n}")
    try:
        skew = skewness(values)
    except (InsufficientDataError, ZeroVarianceError):
        skew = None
    lo = float(min(values))
    hi = float(max(values))
    avg = min(hi, max(lo, math.fsum(values) / n))
    return StatsSummary(n, avg, median(values), sample_sd(values), skew, lo, hi)
