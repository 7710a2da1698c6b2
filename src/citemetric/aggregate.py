"""Fold citation records into a per-journal tally table.

:func:`aggregate_corpus` is the one fold. It counts the runs
:func:`.ingest.runs_of` hands it: the ``(citing_ids, keys, classes)``
columns of many records, counted a column at a time by C-level passes.

Tables form a commutative monoid under :func:`merge_tables` with the empty
table as identity, so the byte ranges and the input files that ``aggregate``
folds apart combine in any order with identical results. :func:`add_counts`
is the one summing kernel: merges, single records and workers' rows all add
and overflow-check there.

:func:`write_tally_csv` and :func:`read_tally_csv` carry a table through a
tally CSV. ``_add_rows`` is the one check of a tally's data rows: it takes
a batch a check at a time, and a single row when a batch fails and the
reader words its error line by line.
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
    ahead and parsed in the batches it cuts, and each batch is checked by
    :func:`_add_rows`. A batch that fails is read again line by line:
    :func:`.ingest.csv_row` words a line's CSV error, ``line N: …``, and
    the same :func:`_add_rows` words its row's, ``row N: …``, so the error
    is that of a line-at-a-time read. A line that holds U+0000 is refused,
    ``line N: invalid CSV: line contains NUL``, on every Python.
    """
    table: TallyTable = {}
    for lineno, batch in batches(source, TALLY_HEADER):
        rows = csv_rows(batch)
        if rows is not None and _add_rows(table, rows) is None:
            continue
        for rownum, line in enumerate(batch, start=lineno):
            try:
                row = csv_row(line)
            except MalformedLineError as exc:
                raise MalformedLineError(f"line {rownum}: {exc}") from None
            error = _add_rows(table, [row])
            if error is not None:
                raise MalformedLineError(f"row {rownum}: {error}")
    return table


def _add_rows(table: TallyTable, rows: list[list[str]]) -> str | None:
    """Add the non-empty list of tally data rows to the table and return
    None if every row passes every check; otherwise leave the table
    unchanged and return the error of the first check that fails, worded
    for the first row that fails it. The one check of a tally data row.

    The checks, in order: field count, count syntax, ``int()``, key
    normalization, the count range, the total, duplicates (within the rows
    and against the table). Each is made over all the rows by C-level
    passes (only normalize_journal_key runs Python code per row); only a
    failing check walks the rows to word its error.
    """
    size = len(TALLY_HEADER)
    if set(map(len, rows)) != {size}:
        return next(f"expected {size} fields, got {len(row)}" for row in rows if len(row) != size)
    fields = list(chain.from_iterable(rows))
    raw_keys = fields[::size]
    del fields[::size]  # the count fields are left, row by row
    # Counts are ASCII decimal digits only, as written: int() alone would
    # also take " 5", "+1", "1_0" and non-ASCII digits. An empty count
    # would vanish from the concatenation, so all() tests it.
    digits = "".join(fields)
    if not (all(fields) and digits.isdigit() and digits.isascii()):
        return f"invalid count {next(x for x in fields if not (x.isascii() and x.isdigit()))!r}"
    try:
        # int() refuses a count of more digits than its limit; the fields
        # go row by row, so the first row's such count raises.
        counts = list(map(int, fields))
        keys = list(map(normalize_journal_key, raw_keys))
        s, d, m, total = (counts[i :: size - 1] for i in range(size - 1))
        if max(max(s), max(d), max(m)) > U64_MAX:
            list(map(JournalTally, s, d, m))  # raises the first such row's error
    except (ValueError, EmptyKeyError) as exc:
        return str(exc)
    sums = list(map(add, map(add, s, d), m))
    if sums != total:
        return next(f"total {t} != {x}" for t, x in zip(total, sums) if t != x)
    if len(set(keys)) < len(keys) or not table.keys().isdisjoint(keys):
        seen = set(table)
        # set.add returns None, so a key is named at its first repeat.
        return next(f"duplicate journal {key!r}" for key in keys if key in seen or seen.add(key))
    # Every count is a checked int in [0, 2**64 - 1], so the tallies are
    # built without JournalTally's check.
    table.update(zip(keys, map(tuple.__new__, repeat(JournalTally), zip(s, d, m))))
    return None
