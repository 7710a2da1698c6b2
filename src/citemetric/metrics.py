"""Scite index and eligibility filtering over tally tables."""

from __future__ import annotations

from typing import IO, Iterable

from .errors import UndefinedIndexError
from .ingest import csv_field
from .model import JournalKey, JournalMetrics, JournalTally, MetricsConfig

METRICS_HEADER = (
    "journal",
    "supporting",
    "disputing",
    "mentioning",
    "total",
    "classified",
    "eligible",
    "scite_index",
)

_DEFAULT_CONFIG = MetricsConfig()


def scite_index(tally: JournalTally) -> float:
    """supporting / (supporting + disputing), in [0, 1].

    The mentioning count has no effect. Raises UndefinedIndexError when there
    are no classified citations (zero denominator).
    """
    s, d, _ = tally
    classified = s + d
    if classified == 0:
        raise UndefinedIndexError("scite index undefined with no classified citations")
    return s / classified


def evaluate_journal(
    journal: JournalKey,
    tally: JournalTally,
    config: MetricsConfig = _DEFAULT_CONFIG,
) -> JournalMetrics:
    """Apply the eligibility rule and compute the index when it applies.

    Eligible means total() strictly exceeds ``min_total_citations`` and
    classified() is at least ``min_classified``.
    """
    s, d, m = tally
    if s + d + m > config.min_total_citations and s + d >= config.min_classified:
        return JournalMetrics(journal, tally, scite_index(tally), True)
    # An ineligible row, with no index, holds JournalMetrics' invariant by
    # construction, so it skips the check.
    return tuple.__new__(JournalMetrics, (journal, tally, None, False))


def build_metrics_table(
    tallies: dict[JournalKey, JournalTally],
    config: MetricsConfig = _DEFAULT_CONFIG,
) -> list[JournalMetrics]:
    """Evaluate every journal, sorted by journal key."""
    return [evaluate_journal(key, tallies[key], config) for key in sorted(tallies)]


def write_metrics_csv(metrics: Iterable[JournalMetrics], out: IO[str]) -> None:
    """Serialize the metrics table; scite_index is 4-decimal, empty when absent.

    The journal is quoted by :func:`.ingest.csv_field`, as in the tally CSV.
    """
    out.write(",".join(METRICS_HEADER) + "\n")
    write = out.write
    for journal, (s, d, m), si, eligible in metrics:
        index = f"true,{si:.4f}" if eligible else "false,"
        write(f"{csv_field(journal)},{s},{d},{m},{s + d + m},{s + d},{index}\n")
