"""The tally-CSV reader one line at a time.

A reference for :func:`citemetric.aggregate.read_tally_csv`, which reads
lines in batches and must return the same table, or raise the same
MalformedLineError, for every input: each line is read on its own by a
``csv.reader`` of its own, as one row, and checked and added before the
next is read. So row N is line N, and a quoted field that runs on into the
next line leaves its first line one field. Line 1 is read by a corpus's
rule: a BOM is dropped before it is parsed, and it must then be the header
without its line end.
"""

from __future__ import annotations

import csv
from typing import Iterable

from citemetric.aggregate import TALLY_HEADER, TallyTable
from citemetric.errors import EmptyKeyError, MalformedLineError
from citemetric.model import JournalTally, normalize_journal_key


def read_tally_csv(source: Iterable[str]) -> TallyTable:
    lines = enumerate(source, start=1)
    _, first = next(lines, (1, None))
    if first is None:
        raise MalformedLineError("line 1: missing CSV header")
    first = first.removeprefix("\ufeff").rstrip("\r\n")
    if tuple(_row(first, 1)) != TALLY_HEADER:
        raise MalformedLineError(f"line 1: expected CSV header {','.join(TALLY_HEADER)!r}, got {first!r}")
    table: TallyTable = {}
    for rownum, line in lines:
        row = _row(line, rownum)
        if len(row) != len(TALLY_HEADER):
            raise MalformedLineError(f"row {rownum}: expected {len(TALLY_HEADER)} fields, got {len(row)}")
        raw_key, *counts = row
        for count in counts:
            if not (count.isascii() and count.isdigit()):
                raise MalformedLineError(f"row {rownum}: invalid count {count!r}")
        try:
            s, d, m, total = map(int, counts)
            key = normalize_journal_key(raw_key)
            tally = JournalTally(s, d, m)
        except (ValueError, EmptyKeyError) as exc:
            raise MalformedLineError(f"row {rownum}: {exc}") from None
        if s + d + m != total:
            raise MalformedLineError(f"row {rownum}: total {total} != {s + d + m}")
        if key in table:
            raise MalformedLineError(f"row {rownum}: duplicate journal {key!r}")
        table[key] = tally
    return table


def _row(line: str, lineno: int) -> list[str]:
    """The fields of ``line``, line ``lineno``, parsed alone; a line that
    holds U+0000 is refused as Python 3.10's csv module refuses it, on
    every Python."""
    if "\0" in line:
        raise MalformedLineError(f"line {lineno}: invalid CSV: line contains NUL")
    try:
        return next(csv.reader([line]), [])
    except csv.Error as exc:
        # csv's own advice, after " - ", is dropped from the message.
        raise MalformedLineError(f"line {lineno}: invalid CSV: {str(exc).partition(' - ')[0]}") from None
