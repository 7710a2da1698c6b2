"""Scite index and eligibility filtering over tally tables.

:func:`build_metrics_table` evaluates a whole table a column at a time and
returns a :class:`MetricsTable`, whose rows are built only as they are read;
:mod:`.stats` and the ``report`` command read its columns instead.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress, repeat
from operator import add, and_, ge, getitem, gt, itemgetter, truediv
from typing import IO, Iterable, Iterator

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

#: Makes a journal eligible exactly when its index is defined: when it has a
#: classified citation, and so a total above 0.
_INDEX_DEFINED = MetricsConfig(0, 1)


class Column(tuple):
    """One column of a :class:`MetricsTable`, read-only as a tuple is.

    Unlike a tuple it takes attributes: :mod:`.stats` keeps the column's
    ``centre`` there, so a column that several statistics read is centred
    once. The column cannot change, so what is kept cannot go stale.
    """

    centre: tuple[float, float]


class MetricsTable(Sequence[JournalMetrics]):
    """A read-only sequence of JournalMetrics, one per journal in key order,
    held as columns; a row is built only when it is indexed or iterated.

    ``journals``, ``tallies`` and ``eligible`` and the columns
    ``supporting``, ``disputing`` and ``totals`` hold one entry per journal;
    the columns ``scite_index`` and ``eligible_totals`` one per eligible
    journal. A table equals another, or a list, that holds equal rows.

    Its rows are built without JournalMetrics' check, so only this module
    builds a table: from columns it evaluated, or from checked rows.
    """

    __slots__ = (
        "journals",
        "tallies",
        "supporting",
        "disputing",
        "totals",
        "eligible",
        "scite_index",
        "eligible_totals",
        "_indices",
    )

    def __init__(
        self,
        journals: tuple[JournalKey, ...],
        tallies: tuple[JournalTally, ...],
        supporting: Column,
        disputing: Column,
        totals: Column,
        eligible: tuple[bool, ...],
        scite_index: Column,
    ) -> None:
        self.journals = journals
        self.tallies = tallies
        self.supporting = supporting
        self.disputing = disputing
        self.totals = totals
        self.eligible = eligible
        self.scite_index = scite_index
        self.eligible_totals = Column(compress(totals, eligible))
        # Each row's index: the next eligible index where the row is
        # eligible, None where it is not.
        pick = (repeat(None), iter(scite_index))
        self._indices = tuple(map(next, map(getitem, repeat(pick), eligible)))

    def _row_columns(self) -> tuple[tuple, ...]:
        """The columns of the rows' four fields."""
        return self.journals, self.tallies, self._indices, self.eligible

    def __len__(self) -> int:
        return len(self.journals)

    def __iter__(self) -> Iterator[JournalMetrics]:
        return map(tuple.__new__, repeat(JournalMetrics), zip(*self._row_columns()))

    def __getitem__(self, i: int | slice) -> JournalMetrics | list[JournalMetrics]:  # type: ignore[override]
        fields = [column[i] for column in self._row_columns()]
        if isinstance(i, slice):
            return list(map(tuple.__new__, repeat(JournalMetrics), zip(*fields)))
        return tuple.__new__(JournalMetrics, fields)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MetricsTable):
            return self._row_columns() == other._row_columns()
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


def _counts(tallies: tuple[JournalTally, ...]) -> tuple[Column, Column, Column]:
    """The supporting, disputing and total columns of ``tallies``."""
    supporting = Column(map(itemgetter(0), tallies))
    disputing = Column(map(itemgetter(1), tallies))
    totals = Column(map(add, map(add, supporting, disputing), map(itemgetter(2), tallies)))
    return supporting, disputing, totals


def _evaluate(
    journals: tuple[JournalKey, ...], tallies: tuple[JournalTally, ...], config: MetricsConfig
) -> MetricsTable:
    """The table of ``journals`` and their ``tallies``, in the same order:
    the one definition of the eligibility rule and of the index, both
    computed a column at a time.

    Eligible means the total strictly exceeds ``min_total_citations`` and
    the classified count is at least ``min_classified``. The index,
    supporting / classified, is computed for the eligible journals only,
    whose classified count is at least 1.
    """
    supporting, disputing, totals = _counts(tallies)
    over = map(gt, totals, repeat(config.min_total_citations))
    enough = map(ge, map(add, supporting, disputing), repeat(config.min_classified))
    eligible = tuple(map(and_, over, enough))
    classified = map(add, supporting, disputing)
    index = Column(map(truediv, compress(supporting, eligible), compress(classified, eligible)))
    return MetricsTable(journals, tallies, supporting, disputing, totals, eligible, index)


def scite_index(tally: JournalTally) -> float:
    """supporting / (supporting + disputing), in [0, 1].

    The mentioning count has no effect. Raises UndefinedIndexError when there
    are no classified citations (zero denominator).
    """
    journal = _evaluate(("",), (tally,), _INDEX_DEFINED)[0]
    if not journal.eligible:
        raise UndefinedIndexError("scite index undefined with no classified citations")
    return journal.scite_index


def evaluate_journal(
    journal: JournalKey,
    tally: JournalTally,
    config: MetricsConfig = _DEFAULT_CONFIG,
) -> JournalMetrics:
    """Apply the eligibility rule and compute the index when it applies.

    Eligible means total() strictly exceeds ``min_total_citations`` and
    classified() is at least ``min_classified``.
    """
    return _evaluate((journal,), (tally,), config)[0]


def build_metrics_table(
    tallies: dict[JournalKey, JournalTally],
    config: MetricsConfig = _DEFAULT_CONFIG,
) -> MetricsTable:
    """Evaluate every journal, sorted by journal key.

    The result is a read-only sequence of JournalMetrics; ``list()`` of it
    is the list of rows.
    """
    journals = tuple(sorted(tallies))
    return _evaluate(journals, tuple(map(tallies.__getitem__, journals)), config)


def columns_of(metrics: Iterable[JournalMetrics]) -> MetricsTable:
    """The columns of ``metrics``: a :class:`MetricsTable` is handed back as
    it is, and any other JournalMetrics rows are read into one by C-level
    passes, their eligibility and index taken as they are."""
    if isinstance(metrics, MetricsTable):
        return metrics
    journals, tallies, indices, eligible = tuple(zip(*metrics)) or ((), (), (), ())
    return MetricsTable(journals, tallies, *_counts(tallies), eligible, Column(compress(indices, eligible)))


def write_metrics_csv(metrics: Iterable[JournalMetrics], out: IO[str]) -> None:
    """Serialize the metrics table; scite_index is 4-decimal, empty when absent.

    The journal is quoted by :func:`.ingest.csv_field`, as in the tally CSV.
    """
    out.write(",".join(METRICS_HEADER) + "\n")
    write = out.write
    for journal, (s, d, m), si, eligible in metrics:
        index = f"true,{si:.4f}" if eligible else "false,"
        write(f"{csv_field(journal)},{s},{d},{m},{s + d + m},{s + d},{index}\n")
