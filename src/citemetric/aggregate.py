"""Fold citation records into a per-journal tally table.

:func:`aggregate_corpus` is the one fold. It counts the runs
:func:`.ingest.runs_of` hands it: the ``(citing_ids, keys, classes)``
columns of many records, counted a column at a time by C-level passes.

Tables form a commutative monoid under :func:`merge_tables` with the empty
table as identity, so the byte ranges and the input files that ``aggregate``
folds apart combine in any order with identical results. :func:`add_counts`
is the one summing kernel: merges, single records and workers' rows all add
and overflow-check there.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress, repeat
from operator import add, is_, sub
from typing import IO, Iterable

from .errors import ArithmeticOverflowError, EmptyKeyError, MalformedLineError
from .ingest import batches, csv_field, csv_row, csv_rows, runs_of
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

#: Each class's one-hot (supporting, disputing, mentioning) row; the
#: members iterate in that order.
_ONE = {klass: tuple(int(k is klass) for k in CitationClass) for klass in CitationClass}


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
    # Shared keys start from the larger table's tally, then the smaller one's
    # counts are added, so only the smaller table is walked. Key order depends
    # on the sizes, which is safe: every consumer sorts or compares.
    if len(b) > len(a):
        a, b = b, a
    shared = ((k, *t) for k, t in b.items() if k in a)
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
            s += t[0]
            d += t[1]
            m += t[2]
            if s > U64_MAX or d > U64_MAX or m > U64_MAX:
                raise ArithmeticOverflowError(f"count overflow for journal {key!r}")
        table[key] = JournalTally(s, d, m)
    return table


def aggregate_corpus(records: Iterable[CitationRecord]) -> TallyTable:
    """Tally a record stream: the table :func:`add_record` would build.

    The records are counted in the runs :func:`.ingest.runs_of` makes of
    them, so a stream :func:`.ingest.ingest_stream` returned and nothing
    has iterated is folded without building a record.
    """
    # Each journal's records, and those of its supporting and disputing
    # ones, counted a run at a time; its mentioning count is the rest.
    total: Counter[JournalKey] = Counter()
    supporting: Counter[JournalKey] = Counter()
    disputing: Counter[JournalKey] = Counter()
    for _, keys, classes in runs_of(records):
        total.update(keys)
        supporting.update(compress(keys, map(is_, classes, repeat(CitationClass.SUPPORTING))))
        disputing.update(compress(keys, map(is_, classes, repeat(CitationClass.DISPUTING))))
    journals = list(total)
    s = list(map(supporting.get, journals, repeat(0)))
    d = list(map(disputing.get, journals, repeat(0)))
    m = map(sub, map(sub, map(total.__getitem__, journals), s), d)
    # A total, supporting or disputing count is a number of records counted,
    # and a mentioning count is a total less two counts of its records, so
    # each is an int in [0, records folded]: this is the one place a tally is
    # built without JournalTally's check.
    return dict(zip(journals, map(tuple.__new__, repeat(JournalTally), zip(s, d, m))))


def write_tally_csv(table: TallyTable, out: IO[str]) -> None:
    """Serialize a table as CSV, rows in ascending journal-key order.

    Columns: journal,supporting,disputing,mentioning,total with total the row
    sum. Sorted output makes identical tables byte-identical files. Keys are
    quoted by :func:`.ingest.csv_field`.
    """
    out.write(",".join(TALLY_HEADER) + "\n")
    keys = sorted(table)  # sorting bare str keys is much faster than sorting items
    out.writelines(
        f"{csv_field(key)},{s},{d},{m},{s + d + m}\n" for key, (s, d, m) in zip(keys, map(table.__getitem__, keys))
    )


def read_tally_csv(source: Iterable[str]) -> TallyTable:
    """Parse a tally CSV back into a table, validating counts and totals.

    Each item of ``source`` is one line and holds one row, so row N is line
    N and a quoted field cannot run on into the next line. Counts must be
    ASCII decimal digits; any other field is an invalid count.

    Line 1 is read by :func:`.ingest.batches`, as a CSV corpus's is: a BOM
    is dropped before it is parsed, it must then be the header, and an error
    in it is worded as a corpus's, ``line 1: …``. The other lines are read
    ahead and parsed in the batches it cuts; a batch that fails a check is
    read again line by line, so its error is that of a line-at-a-time read.
    A line that holds U+0000 is refused, ``line N: invalid CSV: line
    contains NUL``, on every Python.
    """
    table: TallyTable = {}
    for lineno, batch in batches(source, TALLY_HEADER):
        rows = csv_rows(batch)
        if rows is None or not _add_columns(table, rows):
            _add_rows(table, batch, lineno)
    return table


def _add_columns(table: TallyTable, rows: list[list[str]]) -> bool:
    """Add the rows to the table if they pass every check of :func:`_add_rows`,
    made a column at a time by C-level passes (only normalize_journal_key
    runs Python code per row). Otherwise return False and leave the table
    unchanged."""
    if set(map(len, rows)) != {len(TALLY_HEADER)}:
        return False
    raw_keys, *count_columns = zip(*rows)
    digits = "".join(chain.from_iterable(count_columns))
    if not (digits.isdigit() and digits.isascii()):
        return False
    try:  # int() also refuses an empty count, which the join hid
        s, d, m, total = (list(map(int, column)) for column in count_columns)
        keys = list(map(normalize_journal_key, raw_keys))
    except (ValueError, EmptyKeyError):
        return False
    if (
        max(max(s), max(d), max(m)) > U64_MAX
        or list(map(add, map(add, s, d), m)) != total
        or len(set(keys)) < len(keys)
        or not table.keys().isdisjoint(keys)
    ):
        return False
    # Every count is a checked int in [0, 2**64 - 1], so the tallies are
    # built without JournalTally's check.
    table.update(zip(keys, map(tuple.__new__, repeat(JournalTally), zip(s, d, m))))
    return True


def _add_rows(table: TallyTable, lines: list[str], start: int) -> None:
    """Read, check and add the rows of ``lines`` one at a time, ``start``
    being the first's row number; the only code that words the error of a
    tally's data line (line 2 on). :func:`.ingest.batches` words line 1's."""
    for rownum, line in enumerate(lines, start=start):
        try:
            row = csv_row(line)
            raw_key, s, d, m, total = row
        except MalformedLineError as exc:
            raise MalformedLineError(f"line {rownum}: {exc}") from None
        except ValueError:
            raise MalformedLineError(f"row {rownum}: expected {len(TALLY_HEADER)} fields, got {len(row)}") from None
        # Counts are ASCII decimal digits only, as written: int() alone would
        # also take " 5", "+1", "1_0" and non-ASCII digits. An empty count
        # would vanish from the concatenation, so it is tested first.
        digits = s + d + m + total
        if not (s and d and m and total and digits.isdigit() and digits.isascii()):
            bad = next(x for x in (s, d, m, total) if not (x.isascii() and x.isdigit()))
            raise MalformedLineError(f"row {rownum}: invalid count {bad!r}")
        try:
            s, d, m, total = int(s), int(d), int(m), int(total)
            key = normalize_journal_key(raw_key)
            tally = JournalTally(s, d, m)
        except (ValueError, EmptyKeyError) as exc:
            raise MalformedLineError(f"row {rownum}: {exc}") from None
        if s + d + m != total:
            raise MalformedLineError(f"row {rownum}: total {total} != {s + d + m}")
        if key in table:
            raise MalformedLineError(f"row {rownum}: duplicate journal {key!r}")
        table[key] = tally
