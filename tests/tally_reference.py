"""The tally-CSV reader one row at a time.

A reference for :func:`citemetric.aggregate.read_tally_csv`, which reads
rows in chunks and must return the same table, or raise the same
MalformedLineError, for every input: each row is checked, and added, before
the next is read.
"""

from __future__ import annotations

import csv
from typing import Iterable

from citemetric.aggregate import TALLY_HEADER, TallyTable
from citemetric.errors import EmptyKeyError, MalformedLineError
from citemetric.model import JournalTally, normalize_journal_key


def read_tally_csv(source: Iterable[str]) -> TallyTable:
    reader = csv.reader(source)
    try:
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
    except csv.Error as exc:
        # csv's own advice, after " - ", is dropped from the message.
        raise MalformedLineError(f"line {reader.line_num}: invalid CSV: {str(exc).partition(' - ')[0]}") from None
