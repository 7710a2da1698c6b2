"""Fold citation records into a per-journal tally table.

Tables form a commutative monoid under :func:`merge_tables` with the empty
table as identity, so shards can aggregate independently and merge in any
order with identical results. :func:`add_counts` is the one summing kernel:
merges, single records and workers' rows all add and overflow-check there.
"""

from __future__ import annotations

import csv
from functools import reduce
from typing import IO, Iterable, Iterator

from .errors import ArithmeticOverflowError, EmptyKeyError, MalformedLineError
from .model import (
    U64_MAX,
    CitationClass,
    CitationRecord,
    JournalKey,
    JournalTally,
    normalize_journal_key,
)

TALLY_HEADER = ("journal", "supporting", "disputing", "mentioning", "total")

TallyTable = dict[JournalKey, JournalTally]

_IDX = {
    CitationClass.SUPPORTING: 0,
    CitationClass.DISPUTING: 1,
    CitationClass.MENTIONING: 2,
}
#: Each class's one-hot (supporting, disputing, mentioning) row.
_ONE = {klass: tuple(int(i == j) for j in range(3)) for klass, i in _IDX.items()}


def empty_tally() -> JournalTally:
    """The monoid identity: all three counts zero."""
    return JournalTally(0, 0, 0)


def add_record(table: TallyTable, record: CitationRecord) -> TallyTable:
    """Increment the record's class count for its journal, in place.

    Returns the same mapping for fold-style use.
    """
    return add_counts(table, ((record.journal, *_ONE[record.klass]),))


def merge_tables(a: TallyTable, b: TallyTable) -> TallyTable:
    """Union of two tables with component-wise count sums on shared keys.

    Pure function: neither input is mutated. Raises ArithmeticOverflowError
    if a summed count leaves the unsigned 64-bit range.
    """
    # Shared keys start from a's tally, then b's counts are added. Keys come
    # out in b's order, not a's, which is safe: every consumer sorts or compares.
    shared = ((k, t.supporting, t.disputing, t.mentioning) for k, t in b.items() if k in a)
    return add_counts({**b, **a}, shared)


def add_counts(table: TallyTable, rows: Iterable[tuple[JournalKey, int, int, int]]) -> TallyTable:
    """Add ``(journal, supporting, disputing, mentioning)`` rows into a table,
    in place.

    The one summing kernel, behind :func:`merge_tables`, :func:`add_record`
    and the rows forked workers stream back. Returns the same mapping. Raises
    ArithmeticOverflowError if a summed count leaves the unsigned 64-bit range.
    """
    for key, s, d, m in rows:
        t = table.get(key)
        if t is not None:
            s += t.supporting
            d += t.disputing
            m += t.mentioning
            if s > U64_MAX or d > U64_MAX or m > U64_MAX:
                raise ArithmeticOverflowError(f"count overflow for journal {key!r}")
        table[key] = JournalTally(s, d, m)
    return table


def aggregate_corpus(records: Iterable[CitationRecord], shards: int = 1) -> TallyTable:
    """Tally a record stream; the result is independent of the shard count.

    With ``shards > 1`` records are dealt round-robin to independent folds
    whose tables are then merged with :func:`merge_tables`. Output equals the
    sequential fold for every shard count. The ``aggregate`` command does not
    take this path: it adds its forked workers' rows with :func:`add_counts`.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards == 1:
        return _fold(records)
    dealt = list(records)
    return reduce(merge_tables, (_fold(dealt[i::shards]) for i in range(shards)), {})


def _fold(records: Iterable[CitationRecord]) -> TallyTable:
    # Hot path: plain int lists while folding, immutable tallies at the end.
    acc: dict[JournalKey, list[int]] = {}
    get = acc.get
    idx = _IDX
    for _, journal, klass in records:
        counts = get(journal)
        if counts is None:
            counts = acc[journal] = [0, 0, 0]
        counts[idx[klass]] += 1
    return {k: JournalTally(*v) for k, v in acc.items()}


def write_tally_csv(table: TallyTable, out: IO[str]) -> None:
    """Serialize a table as CSV, rows in ascending journal-key order.

    Columns: journal,supporting,disputing,mentioning,total with total the row
    sum. Sorted output makes identical tables byte-identical files.
    """
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TALLY_HEADER)
    for key in sorted(table):
        t = table[key]
        writer.writerow((key, t.supporting, t.disputing, t.mentioning, t.total()))


def read_tally_csv(source: Iterable[str]) -> TallyTable:
    """Parse a tally CSV back into a table, validating counts and totals.

    A BOM before the header is dropped, as in corpus files.
    """
    reader = csv.reader(source)
    try:
        return _read_tally_rows(reader)
    except csv.Error as exc:
        raise MalformedLineError(f"line {reader.line_num}: invalid CSV: {exc}") from None


def _read_tally_rows(reader: Iterator[list[str]]) -> TallyTable:
    header = tuple(next(reader, ()))
    if header and header[0].startswith("\ufeff"):
        header = (header[0][1:], *header[1:])
    if header != TALLY_HEADER:
        raise MalformedLineError(
            f"expected tally header {','.join(TALLY_HEADER)!r}, got {','.join(header)!r}"
        )
    table: TallyTable = {}
    for rownum, row in enumerate(reader, start=2):
        if len(row) != len(TALLY_HEADER):
            raise MalformedLineError(f"row {rownum}: expected {len(TALLY_HEADER)} fields, got {len(row)}")
        raw_key, *fields = row
        try:
            s, d, m, total = (int(x) for x in fields)
            key = normalize_journal_key(raw_key)
            tally = JournalTally(s, d, m)
        except (ValueError, EmptyKeyError) as exc:
            raise MalformedLineError(f"row {rownum}: {exc}") from None
        if tally.total() != total:
            raise MalformedLineError(f"row {rownum}: total {total} != {tally.total()}")
        if key in table:
            raise MalformedLineError(f"row {rownum}: duplicate journal {key!r}")
        table[key] = tally
    return table
