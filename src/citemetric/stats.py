"""Deterministic statistics kernel and report-data exports.

All reductions go through ``math.fsum`` (exactly rounded summation), so
results are bit-identical across runs and safe on counts spanning many orders
of magnitude. Terms are streamed into ``fsum`` through ``map``, so no column
of deviations is ever stored.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_right
from dataclasses import asdict
from itertools import compress, repeat
from operator import mul, sub
from typing import IO, Iterator, Sequence

from .errors import (
    EmptyInputError,
    InsufficientDataError,
    LengthMismatchError,
    OutOfRangeError,
    ZeroVarianceError,
)
from .ingest import csv_field
from .metrics import Column, columns_of
from .model import CorrelationReport, JournalKey, JournalMetrics, StatsSummary

HISTOGRAM_HEADER = ("bin_lower", "bin_upper", "count")
SCATTER_HEADER = ("journal", "log10_total", "scite_index")

#: Default binning for the scite-index distribution: 0.02-wide bins over [0, 1].
SI_HISTOGRAM_BINS = 50

#: The smallest positive normal float; a product of moments below it has
#: lost precision or underflowed to 0.
_MIN_NORMAL = sys.float_info.min


def mean(xs: Sequence[float]) -> float:
    """Arithmetic mean."""
    if not xs:
        raise EmptyInputError("mean of empty sequence")
    return math.fsum(xs) / len(xs)


def median(xs: Sequence[float]) -> float:
    """Middle order statistic; mean of the two middle values for even length."""
    n = len(xs)
    if n == 0:
        raise EmptyInputError("median of empty sequence")
    ordered = sorted(xs)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def sample_sd(xs: Sequence[float]) -> float:
    """Square root of the unbiased (n-1 denominator) sample variance."""
    n = len(xs)
    if n < 2:
        raise InsufficientDataError(f"sample sd needs at least 2 values, got {n}")
    _, ss = _centre_of(xs)
    return math.sqrt(ss / (n - 1))


def skewness(xs: Sequence[float]) -> float:
    """Adjusted Fisher-Pearson standardized moment coefficient (G1).

    G1 = sqrt(n(n-1))/(n-2) * m3 / m2^(3/2) with m2, m3 the 1/n central
    moments. Computed under a single square root so that exactly-representable
    moment ratios stay exact.
    """
    n = len(xs)
    if n < 3:
        raise InsufficientDataError(f"skewness needs at least 3 values, got {n}")
    skew = _skew(xs, *_centre_of(xs))
    if skew is None:
        raise ZeroVarianceError("skewness undefined on a constant sequence")
    return skew


def _centre(xs: Sequence[float]) -> tuple[float, float]:
    """The mean fsum(xs)/n and the sum of squared deviations from it, which
    is 0.0 when every value is equal."""
    n = len(xs)
    m = math.fsum(xs) / n
    if xs.count(xs[0]) == n:
        # fsum(xs)/n can miss a constant by an ulp, which would leave
        # nonzero deviations.
        return m, 0.0
    return m, math.fsum(map(pow, map(sub, xs, repeat(m)), repeat(2)))


def _centre_of(xs: Sequence[float]) -> tuple[float, float]:
    """:func:`_centre` of ``xs``; for a :class:`.metrics.Column`, computed
    once and kept on it, so ``report``'s columns are each centred once
    though ``summarize`` and ``correlation_report`` both read them."""
    if type(xs) is not Column:
        return _centre(xs)
    try:
        return xs.centre
    except AttributeError:
        xs.centre = _centre(xs)
        return xs.centre


def _scaled_deviations(xs: Sequence[float], m: float) -> Iterator[float]:
    """The deviations from ``m``, each times the one power of two that puts
    the largest in [0.5, 1), so that their powers cannot underflow."""
    k = -math.frexp(max(map(abs, map(sub, xs, repeat(m)))))[1]
    return map(math.ldexp, map(sub, xs, repeat(m)), repeat(k))


def _skew(xs: Sequence[float], m: float, ss: float) -> float | None:
    """G1 of at least 3 values with mean ``m`` and squared deviations summing
    to ``ss``; None when they are constant."""
    n = len(xs)
    m2 = ss / n
    if m2 == 0.0:
        return None
    if m2 * m2 * m2 < _MIN_NORMAL:
        # G1 does not change when the data are scaled.
        m2 = math.fsum(map(pow, _scaled_deviations(xs, m), repeat(2))) / n
        deviations = _scaled_deviations(xs, m)
    else:
        deviations = map(sub, xs, repeat(m))
    m3 = math.fsum(map(pow, deviations, repeat(3))) / n
    magnitude = math.sqrt(n * (n - 1) * m3 * m3 / (m2 * m2 * m2)) / (n - 2)
    return math.copysign(magnitude, m3)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient, clamped to [-1, 1]."""
    n = len(xs)
    if n != len(ys):
        raise LengthMismatchError(f"length mismatch: {n} vs {len(ys)}")
    if n < 2:
        raise InsufficientDataError(f"correlation needs at least 2 pairs, got {n}")
    (mx, sxx), (my, syy) = _centre_of(xs), _centre_of(ys)
    if sxx == 0.0 or syy == 0.0:
        raise ZeroVarianceError("correlation undefined on a constant sequence")
    if sxx * syy < _MIN_NORMAL:
        # r does not change when either column is scaled.
        sxx = math.fsum(map(pow, _scaled_deviations(xs, mx), repeat(2)))
        syy = math.fsum(map(pow, _scaled_deviations(ys, my), repeat(2)))
        dx, dy = _scaled_deviations(xs, mx), _scaled_deviations(ys, my)
    else:
        dx, dy = map(sub, xs, repeat(mx)), map(sub, ys, repeat(my))
    sxy = math.fsum(map(mul, dx, dy))
    return min(1.0, max(-1.0, sxy / math.sqrt(sxx * syy)))


def summarize(values: Sequence[float], label: str = "values") -> StatsSummary:
    """Descriptive summary of one column (count/mean/median/sd/skew/min/max).

    ``skew`` is omitted when undefined (n < 3 or constant input). ``label``
    only improves error messages.
    """
    n = len(values)
    if n < 2:
        raise InsufficientDataError(f"{label}: summary needs at least 2 values, got {n}")
    m, ss = _centre_of(values)
    skew = _skew(values, m, ss) if n >= 3 else None
    lo = float(min(values))
    hi = float(max(values))
    # fsum is exact but the final division can land one ulp outside the data
    # range; clamp so min <= mean <= max holds.
    avg = min(hi, max(lo, m))
    return StatsSummary(n, avg, median(values), math.sqrt(ss / (n - 1)), skew, lo, hi)


def correlation_report(metrics: Sequence[JournalMetrics]) -> CorrelationReport:
    """Correlate supporting/disputing (all journals) and scite index
    (eligible journals only) against total citations."""
    table = columns_of(metrics)
    return CorrelationReport(
        _corr(table.supporting, table.totals, "supporting vs total"),
        _corr(table.disputing, table.totals, "disputing vs total"),
        _corr(table.scite_index, table.eligible_totals, "scite index vs total"),
    )


def _corr(xs: Sequence[float], ys: Sequence[float], name: str) -> float:
    """pearson(xs, ys), its errors named ``name``."""
    try:
        return pearson(xs, ys)
    except (InsufficientDataError, ZeroVarianceError) as exc:
        raise type(exc)(f"{name}: {exc}") from None


def histogram(
    values: Sequence[float],
    lo: float,
    hi: float,
    bins: int,
) -> list[tuple[float, float, int]]:
    """Equal-width binning of ``values`` over [lo, hi].

    Bins are half-open [lower, upper) except the last, which is closed so
    ``hi`` itself is counted. Bin counts always sum to ``len(values)``.

    Raises:
        OutOfRangeError: if any value (or NaN) falls outside [lo, hi].
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    edges = [lo + (hi - lo) * i / bins for i in range(bins + 1)]
    edges[-1] = hi
    counts = [0] * bins
    for v in values:
        if not lo <= v <= hi:
            raise OutOfRangeError(f"value {v!r} outside [{lo}, {hi}]")
        idx = bisect_right(edges, v) - 1
        if idx == bins:  # v == hi, closed upper edge
            idx = bins - 1
        counts[idx] += 1
    return [(edges[i], edges[i + 1], counts[i]) for i in range(bins)]


def scatter_points(
    metrics: Sequence[JournalMetrics],
) -> list[tuple[JournalKey, float, float]]:
    """(journal, log10 total citations, scite index) for eligible journals.

    Eligibility guarantees total >= 1, so the log is always defined.
    """
    table = columns_of(metrics)
    journals = compress(table.journals, table.eligible)
    return list(zip(journals, map(math.log10, table.eligible_totals), table.scite_index))


def write_summary_json(summaries: dict[str, StatsSummary], out: IO[str]) -> None:
    """One StatsSummary object per column, keyed by column name."""
    json.dump({key: asdict(s) for key, s in summaries.items()}, out, indent=2)
    out.write("\n")


def write_correlations_json(report: CorrelationReport, out: IO[str]) -> None:
    json.dump(asdict(report), out, indent=2)
    out.write("\n")


def write_histogram_csv(rows: Sequence[tuple[float, float, int]], out: IO[str]) -> None:
    out.write(",".join(HISTOGRAM_HEADER) + "\n")
    out.writelines(f"{lower},{upper},{count}\n" for lower, upper, count in rows)


def write_scatter_csv(points: Sequence[tuple[JournalKey, float, float]], out: IO[str]) -> None:
    """The journal is quoted by :func:`.ingest.csv_field`, as in the tally CSV."""
    out.write(",".join(SCATTER_HEADER) + "\n")
    out.writelines(f"{csv_field(journal)},{x},{y}\n" for journal, x, y in points)
