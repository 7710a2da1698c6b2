"""Parse citation-event files into validated record streams.

Two line-oriented formats are supported: headered CSV
(``citing_id,journal,class``) and JSONL (one object per line with those
keys, ``citing_id`` optional). Files must be UTF-8; a BOM on the first line
is dropped before the line is parsed. A line ends at ``\n`` and only there;
CRs just before it are dropped, and any other CR is data. Because parsing is
line-by-line, fields may not contain a ``\n``, and no line may hold more
than ``MAX_LINE_BYTES`` bytes. The parser hands out runs, one per block of
lines, each the columns of the block's accepted records;
:class:`RecordStream` turns them into records and :func:`runs_of` turns
records back into runs, so the fold never sees which it was given. The
package's one CSV quoting rule, one read-ahead loop and one CSV line reader
live here too. :func:`read_lines` reads a file in decoded blocks of whole
lines, and a corpus and a tally CSV are both cut into numbered blocks by
:func:`batches`, the one reader of line 1 (its BOM, its header and their
errors). A block reaches its column parser whole, no ``str`` made per line:
a JSONL block as one JSON array, a CSV block through one ``csv.reader``
(:func:`csv_rows`). A refused block is read a line at a time, a corpus
line split by :func:`_fields`. :func:`csv_row` is the one place a CSV line's
error, U+0000 included, is worded.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import chain, compress, count, islice, repeat, starmap
from operator import itemgetter, ne, not_
from typing import Iterable, Iterator, Sequence

from .errors import CitemetricError, MalformedLineError, UnknownClassError
from .model import CitationClass, CitationRecord, JournalKey, normalize_journal_key

CSV_HEADER = ("citing_id", "journal", "class")

#: Cap on per-stream error detail kept in an IngestReport.
MAX_REPORTED_ERRORS = 20

_CLASS_BY_LABEL = {c.value: c for c in CitationClass}
_CLASSES = frozenset(CitationClass)

#: Most bytes a line, its ``\n`` included, may hold; read_lines refuses a
#: longer one before it holds more.
MAX_LINE_BYTES = 1 << 20

#: Bytes read per block (at most MAX_LINE_BYTES); each block is decoded up
#: to its last newline.
_BLOCK_BYTES = 1 << 14

#: Lines batches reads ahead from a line iterable other than read_lines's,
#: for ingest_stream and read_tally_csv to parse together, and records
#: runs_of reads into one run.
_BATCH_LINES = 256

#: A failed lookup is kept in its cache only while the cache holds fewer
#: entries than this, so bad values cannot grow it with the record count.
_FAILED_LOOKUPS_BELOW = 1 << 10


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A decoded JSON object, unless it repeats a key (last-wins would hide it)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise MalformedLineError(f"duplicate key {key!r}")
    return obj


_decode_json = json.JSONDecoder().decode
_decode_json_unique = json.JSONDecoder(object_pairs_hook=_unique_keys).decode
#: A ``\n`` that no ``{`` follows: a JSONL line that does not start with
#: one. Searching for it costs half what counting ``\n{`` does.
_BARE_LINE_END = re.compile(r"\n(?!\{)").search


def csv_field(text: str) -> str:
    """``text`` as a CSV field: double-quoted, its double quotes doubled, when
    it holds a comma, a double quote, CR or LF. Every CSV the package writes
    quotes this way. For text without a CR these are the bytes of the ``csv``
    module's writer, at a fraction of its per-row cost; that writer quotes a
    CR only from Python 3.13, and ``csv.reader`` refuses a bare CR in an
    unquoted field."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def read_ahead(source: Iterable, size: int) -> Iterator[list]:
    """The items of ``source`` in lists of ``size``, then one shorter list,
    maybe empty. An ``Exception`` from ``source`` is re-raised only after the
    list read before it is handed out, so a fault among those items wins. A
    ``KeyboardInterrupt``, or any other non-``Exception``, passes at once."""
    items = iter(source)
    while True:
        chunk = []
        try:
            chunk.extend(islice(items, size))  # extend, unlike list(), keeps what was read
        except Exception:
            yield chunk
            raise
        yield chunk
        if len(chunk) < size:
            return


class Format(Enum):
    CSV = "csv"
    JSONL = "jsonl"


class Policy(Enum):
    """Error policy: STRICT aborts on the first bad line, SKIP drops it."""

    STRICT = "strict"
    SKIP = "skip"


@dataclass
class IngestReport:
    """Counts of accepted/rejected lines plus the first few failure reasons.

    Filled in while the record stream is consumed; totals are final once the
    stream is exhausted.
    """

    accepted: int = 0
    rejected: int = 0
    first_errors: list[tuple[int, str]] = field(default_factory=list)

    def extend(self, later: IngestReport) -> None:
        """Append the report of the lines after this one's, shifting its line
        numbers; at most ``MAX_REPORTED_ERRORS`` first errors are kept."""
        shift = self.accepted + self.rejected
        room = MAX_REPORTED_ERRORS - len(self.first_errors)
        self.first_errors.extend((lineno + shift, reason) for lineno, reason in later.first_errors[:room])
        self.accepted += later.accepted
        self.rejected += later.rejected


#: A block of lines. As a file is read: ``(text, n)``, its ``n`` lines,
#: each ended by a ``\n`` in the file, joined by those ``\n`` (the last left
#: out). As any other line iterable is read, and for a file's last line if
#: it lacks its ``\n``: a list of lines, one line an item, its end optional.
Block = tuple[str, int] | list[str]


class Lines:
    """The lines of a file, or of a byte range of one, as :func:`read_lines`
    reads them: its decoded blocks.

    Iterating it, and ``next()`` on it, read one C-level chain of the
    blocks' lines, ends included, built on first iteration. Until then
    :func:`batches` hands over the blocks themselves, so no ``str`` is made
    per line.
    """

    __slots__ = ("blocks", "_lines")

    def __init__(self, blocks: Iterable[Block]) -> None:
        self.blocks = iter(blocks)
        self._lines: Iterator[str] | None = None

    def __iter__(self) -> Iterator[str]:
        if self._lines is None:
            self._lines = chain.from_iterable(map(lines_of, self.blocks))
        return self._lines

    def __next__(self) -> str:
        return next(self._lines or iter(self))


def read_lines(path: str, start: int = 0, length: int | None = None) -> Lines:
    """The lines, ends included, of ``length`` bytes of ``path`` from
    ``start`` (to EOF if None): for a whole file, those text-mode
    ``open(path, encoding="utf-8", newline="\\n")`` yields. A line ends at
    ``\\n`` only, untranslated, as the cap and ``ranges.plan_ranges`` count
    lines; a CR is data. The bytes are read once, pipes included, in blocks
    of ``_BLOCK_BYTES`` cut at their last ``\\n`` (no character is split),
    each decoded whole and its lines counted once; no Python frame runs per
    line.

    Raises:
        MalformedLineError: invalid UTF-8, named at its offset in the file,
            after the lines before its ``\\n``-terminated line are yielded;
            or a line of more than ``MAX_LINE_BYTES`` bytes up to its
            ``\\n``, named at the offset it starts at, after the lines
            before it are yielded.
    """
    return Lines(_blocks(path, start, length))


def _blocks(path: str, start: int, length: int | None) -> Iterator[Block]:
    """The blocks of :func:`read_lines`: one ``(text, n)`` per block read
    that holds a ``\\n``, then the last line, if it lacks its ``\\n``."""
    with open(path, "rb", buffering=0) as fh:
        if start:
            fh.seek(start)
        left = float("inf") if length is None else length
        offset, head, held = start, [], 0  # head: the bytes read since the last newline, from offset on; held: their count
        while left > 0 and (block := fh.read(min(_BLOCK_BYTES, left))):
            left -= len(block)
            # Each line after the block's first newline lies in the block,
            # so only the line head starts can pass the cap.
            if held + (block.find(b"\n") + 1 or len(block)) > MAX_LINE_BYTES:
                raise MalformedLineError(f"line too long: the line at byte {offset} holds more than {MAX_LINE_BYTES} bytes")
            cut = block.rfind(b"\n")
            if cut >= 0:
                data = b"".join((*head, block[:cut]))
                yield from _decode(data, offset)
                offset, head, held, block = offset + len(data) + 1, [], 0, block[cut + 1 :]
            head.append(block)
            held += len(block)
        if held:  # the last line, which lacks its \n
            for text, _ in _decode(b"".join(head), offset):
                yield [text]


def _decode(data: bytes, offset: int) -> Iterator[tuple[str, int]]:
    """The block of ``data``, lines joined by ``\\n`` that start at byte
    ``offset`` of the file: the lines before the first invalid UTF-8, if
    there is any, and then its error."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        end = data.rfind(b"\n", 0, exc.start)
        if end >= 0:
            yield from _decode(data[:end], offset)
        first, last = offset + exc.start, offset + exc.end - 1
        one = f"byte 0x{data[exc.start]:02x} in position {first}"
        where = one if first == last else f"bytes in position {first}-{last}"
        raise MalformedLineError(f"invalid UTF-8: 'utf-8' codec can't decode {where}: {exc.reason}") from None
    yield text, text.count("\n") + 1


def lines_of(block: Block) -> list[str]:
    """The lines of ``block``, each with the end it has."""
    if isinstance(block, list):
        return block
    return [line + "\n" for line in block[0].split("\n")]


def _text(block: Block) -> tuple[str, int] | None:
    """``block`` as ``(text, n)``: its ``n`` lines, each without its
    ``\\n``, joined by ``\\n``; None when a listed line holds a ``\\n``
    before its end, so the text could not tell it from two."""
    if isinstance(block, tuple):
        return block
    text = "\n".join(map(str.removesuffix, block, repeat("\n")))
    return (text, len(block)) if text.count("\n") == len(block) - 1 else None


def csv_row(line: str) -> list[str]:
    """The fields of the CSV ``line`` on its own; the one place a CSV line's
    error is worded.

    Raises:
        MalformedLineError: the line holds U+0000, or ``csv`` refuses it.
    """
    if "\0" in line:
        # Python 3.10's csv.reader refuses such a line, in these words, where
        # later readers accept it; the package refuses it on every Python.
        raise MalformedLineError("invalid CSV: line contains NUL")
    try:
        return next(csv.reader((line,)), [])
    except csv.Error as exc:
        # Without the advice some csv errors end in (universal-newline mode,
        # or newline=''), which a program that opens every input itself
        # cannot act on.
        raise MalformedLineError(f"invalid CSV: {str(exc).partition(' - ')[0]}") from None


def csv_rows(block: Block) -> list[list[str]] | None:
    """The rows of the CSV ``block``, one per line, read by one
    ``csv.reader`` over its text split at each ``\\n``; None when a line
    holds U+0000, ``csv`` fails on a line, or a quoted field is still open
    at a line's end. Each line of a refused block is then read on its own
    by :func:`csv_row`, which words its error.

    A CR before a line's ``\\n`` only ends its row, as it does once the
    line is stripped of it, so CRs are left in. An empty line after the
    last takes up a quoted field still open there, which would otherwise
    read as closed without its line end."""
    body = _text(block)
    if body is None or "\0" in body[0]:
        return None
    lines = body[0].split("\n")
    lines.append("")
    try:
        rows = list(csv.reader(lines))
    except csv.Error:
        return None
    if len(rows) != len(lines):
        return None
    rows.pop()
    return rows


def batches(source: Iterable[str], header: tuple[str, ...] | None) -> Iterator[tuple[int, Block]]:
    """The blocks of ``source``, each with the 1-based number of its first
    line; the one reader of line 1 of a corpus or a tally, and the one
    place blocks are cut and numbered. A :class:`Lines` never iterated
    hands over the blocks it read; any other iterable of lines is read ahead
    in lists of ``_BATCH_LINES`` or fewer. A BOM is dropped from line 1.
    Unless ``header`` is None, line 1 must be that CSV header, and is not
    handed out. No block handed out is empty.

    Raises:
        MalformedLineError: ``line 1:`` a missing header, an invalid CSV
            line 1, or one that is not ``header``.
    """
    if isinstance(source, Lines) and source._lines is None:
        blocks: Iterator[Block] = source.blocks
    else:
        blocks = filter(None, read_ahead(source, _BATCH_LINES))
    first = next(blocks, None)
    if isinstance(first, tuple):
        first = (first[0].removeprefix("\ufeff"), first[1])
    elif first is not None:
        first[0] = first[0].removeprefix("\ufeff")
    lineno = 1
    if header is not None:
        if first is None:
            raise MalformedLineError("line 1: missing CSV header")
        if isinstance(first, tuple):
            line, _, rest = first[0].partition("\n")
            first = (rest, first[1] - 1) if first[1] > 1 else None
        else:
            line, first = first[0], first[1:]
        line = line.rstrip("\r\n")
        try:
            fields = tuple(csv_row(line))
        except MalformedLineError as exc:
            raise MalformedLineError(f"line 1: {exc}") from None
        if fields != header:
            raise MalformedLineError(f"line 1: expected CSV header {','.join(header)!r}, got {line!r}")
        lineno = 2
    for block in filter(None, chain((first,), blocks)):
        yield lineno, block
        lineno += block[1] if isinstance(block, tuple) else len(block)


def _fields(line: str, fmt: Format) -> tuple[str, str, str]:
    """Split one data line into its raw ``(citing_id, journal, label)``.

    Raises:
        MalformedLineError: wrong field count, invalid CSV or JSON, a JSON
            object that repeats a key, or a non-string field.
    """
    if fmt is Format.JSONL:
        try:
            obj = _decode_json(line)
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting deeper than the stack
            raise MalformedLineError(f"invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise MalformedLineError("JSONL line is not an object")
        # Each key-value pair has a ':', so a line with no more ':' than the
        # object kept keys repeats none; only the other lines pay for a check.
        if line.count(":") > len(obj):
            _decode_json_unique(line)
        try:
            journal = obj["journal"]
            label = obj["class"]
        except KeyError as exc:
            raise MalformedLineError(f"missing key {exc}") from None
        citing_id = obj.get("citing_id", "")
        if not (isinstance(journal, str) and isinstance(label, str) and isinstance(citing_id, str)):
            raise MalformedLineError("citing_id, journal and class must be strings")
    elif fmt is Format.CSV:
        row = csv_row(line)
        if len(row) != len(CSV_HEADER):
            raise MalformedLineError(f"expected {len(CSV_HEADER)} CSV fields, got {len(row)}")
        citing_id, journal, label = row
    else:
        raise ValueError(f"unsupported format: {fmt!r}")
    return citing_id, journal, label


def _class_of(label: str) -> CitationClass:
    klass = _CLASS_BY_LABEL.get(label.casefold())
    if klass is None:
        raise UnknownClassError(f"unknown citation class {label!r}")
    return klass


def _key_of(journal: str) -> str:
    """The normalized key of ``journal``; the one place a journal is resolved.

    Raises:
        EmptyKeyError: nothing remains after normalization.
        MalformedLineError: the key holds a lone surrogate (a JSON ``\\ud800``
            escape), which the tally CSV could not be written with; or
            U+0000, whose tally line the tally reader refuses.
    """
    key = normalize_journal_key(journal)
    if "\0" in key:
        raise MalformedLineError("journal holds U+0000, which a tally CSV cannot carry")
    if not key.isascii():
        try:
            key.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedLineError("journal holds a lone surrogate, which UTF-8 cannot encode") from None
    return journal if key == journal else key  # share the raw string when it is already normalized


#: Stands in for a malformed line, or a CSV row of the wrong length: its
#: empty label never resolves, so ``ingest_stream`` masks the line out of
#: its batch's run and hands it to ``reject``, which words the error.
_NO_ROW = ("", "", "")


def _csv_columns(block: Block) -> tuple[tuple[str, ...], ...] | None:
    """The ``(citing_id, journal, class)`` columns of the CSV ``block``;
    None when :func:`csv_rows` refuses it. A row of the wrong length is
    replaced in place by ``_NO_ROW``, so the block is never rebuilt and
    only such a row costs a Python step."""
    rows = csv_rows(block)
    if rows is None:
        return None
    for i in compress(count(), map(ne, map(len, rows), repeat(len(CSV_HEADER)))):
        rows[i] = _NO_ROW
    return tuple(zip(*rows))


def _jsonl_columns(block: Block) -> tuple[list[str], list[str], list[str]] | None:
    """The ``(citing_id, journal, class)`` columns of the JSONL ``block``,
    its text decoded as one JSON array, each ``\\n`` a ``,``; None unless
    :func:`_fields` would accept each line with the same values.

    Each line must start with the only ``{`` it holds, and the array must
    have as many elements as there are lines, each an object. Then no object
    nests or spans lines, so each line is exactly one object and what the
    separators add is whitespace (a CR before a ``\\n`` included). Every
    key-value pair has a ``:``, so as many ``:`` as kept keys, summed,
    means no object repeats a key; only a block with more, say a ``:`` in a
    value, is decoded again to check.
    """
    body = _text(block)
    if body is None:
        return None
    text, n = body
    if text.count("{") != n or not text.startswith("{") or _BARE_LINE_END(text):
        return None
    array = "[" + text.replace("\n", ",") + "]"
    try:
        objs = _decode_json(array)
    except (ValueError, RecursionError):
        return None
    if len(objs) != n:
        return None
    try:
        ids = list(map(dict.get, objs, repeat("citing_id"), repeat("")))  # a TypeError unless each is an object
        journals = list(map(itemgetter("journal"), objs))
        labels = list(map(itemgetter("class"), objs))
        list(map("".join, (ids, journals, labels)))  # a TypeError unless each is a string
    except (KeyError, TypeError):
        return None
    if text.count(":") != sum(map(len, objs)):
        try:
            _decode_json_unique(array)
        except MalformedLineError:
            return None
    return ids, journals, labels


_COLUMNS = {Format.CSV: _csv_columns, Format.JSONL: _jsonl_columns}


def _stripped_lines(block: Block) -> list[str]:
    """The lines of ``block``, each without its ``\\n`` and the CRs before it."""
    if isinstance(block, tuple):
        return list(map(str.rstrip, block[0].split("\n"), repeat("\r")))
    return list(map(str.rstrip, block, repeat("\r\n")))


def _lookup(cache: dict, raws, resolve) -> list:
    """``cache[raw]`` for each of ``raws``, None where ``resolve`` fails.
    Each raw value missing from the cache is resolved once and kept; one
    that fails is kept as None while the cache holds fewer than
    ``_FAILED_LOOKUPS_BELOW`` entries, and is resolved again when met again
    after that."""
    try:
        return list(map(cache.__getitem__, raws))
    except KeyError:
        pass
    for raw in set(raws).difference(cache):
        try:
            cache[raw] = resolve(raw)
        except CitemetricError:
            if len(cache) < _FAILED_LOOKUPS_BELOW:
                cache[raw] = None
    return list(map(cache.get, raws))


def parse_record(line: str, fmt: Format) -> CitationRecord:
    """Parse one data line into a record with a normalized journal key.

    Class labels are matched case-insensitively against exactly
    supporting/disputing/mentioning.

    Raises:
        MalformedLineError: wrong field count, invalid CSV or invalid JSON
            object, or a journal holding a lone surrogate.
        UnknownClassError: class label outside the taxonomy.
        EmptyKeyError: journal field normalizes to the empty string.
    """
    citing_id, journal, label = _fields(line, fmt)
    klass = _class_of(label)
    return CitationRecord(citing_id, _key_of(journal), klass)


def format_record(record: CitationRecord, fmt: Format) -> str:
    """Serialize a record to a single CSV or JSONL line (no trailing newline).

    Inverse of :func:`parse_record`: re-parsing the line yields an equal
    record. In CSV an empty ``citing_id`` is an empty field; in JSONL it is
    omitted. CSV cannot carry newlines in ``citing_id``.
    """
    if fmt is Format.JSONL:
        obj: dict[str, str] = {}
        if record.citing_id:
            obj["citing_id"] = record.citing_id
        obj["journal"] = record.journal
        obj["class"] = record.klass.value
        return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))
    if "\n" in record.citing_id:
        raise ValueError("citing_id with newlines cannot be serialized to CSV; use JSONL")
    return ",".join(map(csv_field, (record.citing_id, record.journal, record.klass.value)))


#: A run of accepted lines: their ``(citing_ids, keys, classes)`` columns,
#: of one length, keys normalized.
Run = tuple[Sequence[str], Sequence[JournalKey], Sequence[CitationClass]]


class RecordStream:
    """The lazy record stream of :func:`ingest_stream`: the parser's runs,
    one per batch of lines, turned into records only as the stream is read.

    Iterating it, and ``next()`` on it, read one C-level chain over the
    runs' records, built on first iteration. Until then :func:`runs_of`
    hands over the runs themselves.
    """

    __slots__ = ("_runs", "_records")

    def __init__(self, runs: Iterator[Run]) -> None:
        self._runs = runs
        self._records: Iterator[CitationRecord] | None = None

    def __iter__(self) -> Iterator[CitationRecord]:
        if self._records is None:
            build = partial(map, tuple.__new__, repeat(CitationRecord))  # one run's records
            self._records = chain.from_iterable(map(build, starmap(zip, self._runs)))
        return self._records

    def __next__(self) -> CitationRecord:
        return next(self._records or iter(self))


def runs_of(records: Iterable[CitationRecord]) -> Iterator[Run]:
    """The records as runs: a :class:`RecordStream` never iterated hands
    over its parser's runs, so no record is built; anything else is read in
    lists of ``_BATCH_LINES`` records, each checked by :func:`_columns`."""
    if isinstance(records, RecordStream) and records._records is None:
        return records._runs
    return map(_columns, read_ahead(records, _BATCH_LINES))


def _columns(records: list[CitationRecord]) -> Run:
    """The columns of ``records``; the one place records become a run. Each
    must unpack to ``(citing_id, journal, klass)`` with a hashable journal
    and a CitationClass; the first that does not raises what unpacking it,
    hashing its journal or looking its class up raises."""
    try:
        if set(map(len, records)) == {3}:
            columns = tuple(zip(*records))
            if _CLASSES >= set(columns[2]):
                return columns
    except TypeError:
        pass
    return tuple(zip(*map(_checked, records))) or ((), (), ())


def _checked(record: CitationRecord) -> tuple[str, JournalKey, CitationClass]:
    citing_id, journal, klass = record
    hash(journal)
    if klass not in _CLASSES:
        raise KeyError(klass)
    return citing_id, journal, klass


def ingest_stream(
    source: Iterable[str],
    fmt: Format,
    policy: Policy = Policy.STRICT,
) -> tuple[RecordStream, IngestReport]:
    """Turn a line stream into a lazy record stream plus an ingest report.

    Record order matches line order. Under STRICT the first parse error is
    re-raised annotated with its 1-based line number and ends the stream;
    under SKIP bad lines are counted and the stream continues. A BOM on line
    1 is dropped. In CSV format line 1 must be the exact header
    ``citing_id,journal,class``; a bad or missing header raises under either
    policy since the whole file is then suspect. The returned report is
    shared with the stream and is complete only after the stream has been
    fully consumed.

    Each item of ``source`` is one line; the ``\\n`` and any CRs at its end
    are dropped. :func:`batches` reads line 1 and cuts ``source`` into
    blocks: a :class:`Lines` from :func:`read_lines` hands over its decoded
    blocks, so a clean block reaches the column parser with no ``str`` made
    per line; any other iterable is read ahead a few hundred lines at a
    time. A block the column parser refuses is split one line at a time
    instead, a malformed line standing in as ``_NO_ROW``. Each block then
    hands out one run: the ``(citing_ids, keys, classes)`` columns of its
    accepted lines, a ``compress`` mask dropping the others (under STRICT,
    every line from the first bad one on). Each bad line is parsed again by
    :func:`parse_record`, only to word its error. The :class:`RecordStream`
    builds records from the runs once it is iterated; until then
    ``aggregate_corpus`` counts the runs themselves. Errors still surface in
    line order: the records of the lines before a bad line, or before an
    exception raised by ``source`` itself, come out first. A STRICT error
    ends the stream's one generator, so a caller that catches it and reads
    on gets no more records.
    """
    report = IngestReport()
    # Per-stream caches of lookups, a few failed ones kept as None (see
    # _lookup): reject words each line that carries one through
    # parse_record, so error counts and line numbers match a plain per-line
    # parse_record.
    classes: dict[str, CitationClass | None] = {}
    keys: dict[str, str | None] = {}
    columns = _COLUMNS.get(fmt)

    def row(line: str) -> tuple[str, str, str]:
        try:
            return _fields(line, fmt)
        except MalformedLineError:
            return _NO_ROW

    def reject(line: str, lineno: int) -> None:
        """Count ``line``, line ``lineno``, which its block's lookups refused,
        wording its error through parse_record, which fails on the same
        fields; raise it under STRICT."""
        try:
            parse_record(line, fmt)
        except CitemetricError as exc:
            report.rejected += 1
            if len(report.first_errors) < MAX_REPORTED_ERRORS:
                report.first_errors.append((lineno, f"{type(exc).__name__}: {exc}"))
            if policy is Policy.STRICT:
                raise type(exc)(f"line {lineno}: {exc}") from None

    def runs() -> Iterator[Run]:
        """One run per block, of its accepted rows, then each refused line
        of the block to ``reject``; under STRICT the run stops before the
        first refused line."""
        for lineno, block in batches(source, CSV_HEADER if fmt is Format.CSV else None):
            parsed = columns(block) if columns else None
            lines = None if parsed else _stripped_lines(block)
            # A block the column parser refuses is split one line at a time.
            ids, journals, labels = parsed or zip(*map(row, lines))
            klasses = _lookup(classes, labels, _class_of)
            found = _lookup(keys, journals, _key_of)
            kept = ()  # a clean block builds no mask
            if not (all(found) and all(klasses)):  # keys are non-empty, classes truthy
                kept = list(map(all, zip(found, klasses)))
                if policy is Policy.STRICT:
                    del kept[kept.index(False) + 1 :]
                ids, found, klasses = (list(compress(column, kept)) for column in (ids, found, klasses))
            if ids:
                report.accepted += len(ids)
                yield ids, found, klasses
            for i in compress(count(), map(not_, kept)):
                lines = lines or _stripped_lines(block)
                reject(lines[i], lineno + i)

    return RecordStream(runs()), report
