"""Parse citation-event files into validated record streams.

Two line-oriented formats are supported: headered CSV
(``citing_id,journal,class``) and JSONL (one object per line with those keys,
``citing_id`` optional). Files must be UTF-8; a BOM on the first line is
stripped. Because parsing is line-by-line, fields may not contain newlines.
The package's one CSV quoting rule and one read-ahead loop live here too.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, count, islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import CitemetricError, MalformedLineError, UnknownClassError
from .model import CitationClass, CitationRecord, JournalKey, normalize_journal_key

CSV_HEADER = ("citing_id", "journal", "class")

#: Cap on per-stream error detail kept in an IngestReport.
MAX_REPORTED_ERRORS = 20

_CLASS_BY_LABEL = {c.value: c for c in CitationClass}

#: Bytes read per block; each block is decoded up to its last newline.
_BLOCK_BYTES = 1 << 14

#: Lines ingest_stream reads ahead and parses together.
_BATCH_LINES = 256


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A decoded JSON object, unless it repeats a key (last-wins would hide it)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise MalformedLineError(f"duplicate key {key!r}")
    return obj


_decode_json = json.JSONDecoder().decode
_decode_json_unique = json.JSONDecoder(object_pairs_hook=_unique_keys).decode


def csv_field(text: str) -> str:
    """``text`` as a CSV field: double-quoted, its double quotes doubled, when
    it holds a comma, a double quote, CR or LF. Every CSV the package writes
    quotes this way. For text without a CR these are the bytes of the ``csv``
    module's writer, at a fraction of its per-row cost; that writer quotes a
    CR only from Python 3.13, and a bare CR could not be read back."""
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


def read_lines(path: str, start: int = 0, length: int | None = None) -> Iterator[str]:
    """Yield the lines, ends included, of ``length`` bytes of ``path`` from
    ``start`` (to EOF if None): for a whole file, those text-mode
    ``open(path, encoding="utf-8")`` yields. The bytes are read once, pipes
    included, in blocks cut after their last ``\\n`` (no character or
    ``\\r\\n`` pair is split), and no Python frame runs per line.

    Raises:
        MalformedLineError: invalid UTF-8, named at its offset in the file,
            after the lines before its ``\\n``-terminated line are yielded.
    """
    return chain.from_iterable(_blocks(path, start, length))


def _blocks(path: str, start: int, length: int | None) -> Iterator[Iterator[str]]:
    with open(path, "rb", buffering=0) as fh:
        if start:
            fh.seek(start)
        left = float("inf") if length is None else length
        offset, head = start, []  # head: the bytes read since the last newline, from offset on
        while left > 0 and (block := fh.read(min(_BLOCK_BYTES, left))):
            left -= len(block)
            cut = block.rfind(b"\n") + 1
            if cut:
                data = b"".join((*head, block[:cut]))
                yield from _decode(data, offset)
                offset, head, block = offset + len(data), [], block[cut:]
            head.append(block)
        yield from _decode(b"".join(head), offset)


def _decode(data: bytes, offset: int) -> Iterator[Iterator[str]]:
    """The lines of ``data``, which starts at byte ``offset`` of its file, in StringIOs."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        good = data[: data.rfind(b"\n", 0, exc.start) + 1]
        yield io.StringIO(good.decode("utf-8"), newline=None)
        first, last = offset + exc.start, offset + exc.end - 1
        one = f"byte 0x{data[exc.start]:02x} in position {first}"
        where = one if first == last else f"bytes in position {first}-{last}"
        raise MalformedLineError(f"invalid UTF-8: 'utf-8' codec can't decode {where}: {exc.reason}") from None
    yield io.StringIO(text, newline=None)


def _csv_row(line: str) -> list[str]:
    try:
        return next(csv.reader((line,)), [])
    except csv.Error as exc:
        raise MalformedLineError(f"invalid CSV: {exc}") from None


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
        row = _csv_row(line)
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
            escape), which the tally CSV could not be written with.
    """
    key = normalize_journal_key(journal)
    if not key.isascii():
        try:
            key.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedLineError("journal holds a lone surrogate, which UTF-8 cannot encode") from None
    return journal if key == journal else key  # share the raw string when it is already normalized


def _check_header(line: str) -> None:
    try:
        header = tuple(_csv_row(line))
    except MalformedLineError as exc:
        raise MalformedLineError(f"line 1: {exc}") from None
    if header != CSV_HEADER:
        raise MalformedLineError(f"line 1: expected CSV header {','.join(CSV_HEADER)!r}, got {line!r}")


#: Stands in for a CSV row of the wrong length: its empty label never
#: resolves, so the row goes to ``ingest_stream``'s ``one_line``, which
#: words the error.
_NO_ROW = ("", "", "")


def _csv_columns(lines: list[str]) -> tuple[tuple[str, ...], ...] | None:
    """The ``(citing_id, journal, class)`` columns of the CSV ``lines``, with
    ``_NO_ROW`` for a row of the wrong length; None when csv fails on a line
    or a quoted field runs on into the next line."""
    try:
        rows = list(csv.reader(lines))
    except csv.Error:
        return None
    if len(rows) != len(lines):
        return None
    if list(map(len, rows)).count(len(CSV_HEADER)) != len(rows):
        rows = [row if len(row) == len(CSV_HEADER) else _NO_ROW for row in rows]
    return tuple(zip(*rows))


def _jsonl_columns(lines: list[str]) -> tuple[list[str], list[str], list[str]] | None:
    """The ``(citing_id, journal, class)`` columns of the JSONL ``lines``,
    decoded as one JSON array; None unless :func:`_fields` would accept each
    line with the same values.

    Each line must start with the only ``{`` it holds, and the array must
    have as many elements as there are lines, each an object. Then no object
    nests or spans lines, so each line is exactly one object and what the
    separators add is whitespace. Every key-value pair has a ``:``, so as
    many ``:`` as kept keys, summed, means no object repeats a key; only a
    batch with more, say a ``:`` in a value, is decoded again to check.
    """
    text = ",".join(lines)
    if text.count("{") != len(lines) or not all(map(str.startswith, lines, repeat("{"))):
        return None
    try:
        objs = _decode_json(f"[{text}]")
    except (ValueError, RecursionError):
        return None
    if len(objs) != len(lines) or not all(map(isinstance, objs, repeat(dict))):
        return None
    if text.count(":") != sum(map(len, objs)):
        try:
            _decode_json_unique(f"[{text}]")
        except MalformedLineError:
            return None
    try:
        journals = list(map(itemgetter("journal"), objs))
        labels = list(map(itemgetter("class"), objs))
    except KeyError:
        return None
    ids = list(map(dict.get, objs, repeat("citing_id"), repeat("")))
    if not all(map(isinstance, chain(ids, journals, labels), repeat(str))):
        return None
    return ids, journals, labels


_COLUMNS = {Format.CSV: _csv_columns, Format.JSONL: _jsonl_columns}


def _lookup(cache: dict, raws, resolve) -> list:
    """``cache[raw]`` for each of ``raws``, None where ``resolve`` fails.
    Each raw value missing from the cache is resolved once, and kept only if
    that succeeds."""
    try:
        return list(map(cache.__getitem__, raws))
    except KeyError:
        pass
    for raw in set(raws).difference(cache):
        try:
            cache[raw] = resolve(raw)
        except CitemetricError:
            pass
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
    if "\n" in record.citing_id or "\r" in record.citing_id:
        raise ValueError("citing_id with newlines cannot be serialized to CSV; use JSONL")
    return ",".join(map(csv_field, (record.citing_id, record.journal, record.klass.value)))


#: A run of accepted lines: their ``(citing_ids, keys, classes)`` columns,
#: of one length, keys normalized.
Run = tuple[Sequence[str], Sequence[JournalKey], Sequence[CitationClass]]


class RecordStream:
    """The lazy record stream of :func:`ingest_stream`: the parser's runs,
    turned into records only as the stream is read.

    Iterating it hands out one C-level chain over the runs' records, which
    ``next()`` on the stream shares. :meth:`take_runs` hands out the runs not
    yet read instead, so :func:`.aggregate.aggregate_corpus` folds an unread
    stream without building a record, and a partly read one building only
    the rest of the run it is in.
    """

    __slots__ = ("_runs", "_head", "_records")

    def __init__(self, runs: Iterator[Run]) -> None:
        self._runs = runs
        #: The records not yet read of the run being read, in a list that
        #: the chain's generator fills (the stream itself would make a cycle).
        self._head: list[Iterator[CitationRecord]] = [iter(())]
        self._records = chain.from_iterable(_records_of(runs, self._head))

    def __iter__(self) -> Iterator[CitationRecord]:
        return self._records

    def __next__(self) -> CitationRecord:
        return next(self._records)

    def take_runs(self) -> Iterator[Run]:
        """The runs not yet read, the unread rest of the run being read
        first. Reading them reads the stream; of its records, only that
        rest is built."""
        rest = list(self._head[0])
        if rest:
            yield tuple(zip(*rest))
        yield from self._runs


def _records_of(runs: Iterator[Run], head: list[Iterator[CitationRecord]]) -> Iterator[Iterator[CitationRecord]]:
    for run in runs:
        head[0] = map(tuple.__new__, repeat(CitationRecord), zip(*run))
        yield head[0]


def ingest_stream(
    source: Iterable[str],
    fmt: Format,
    policy: Policy = Policy.STRICT,
) -> tuple[RecordStream, IngestReport]:
    """Turn a line stream into a lazy record stream plus an ingest report.

    Record order matches line order. Under STRICT the first parse error is
    re-raised annotated with its 1-based line number and ends the stream;
    under SKIP bad lines are counted and the stream continues. In CSV format
    line 1 must be the exact header ``citing_id,journal,class``; a bad or
    missing header raises under either policy since the whole file is then
    suspect. The returned report is shared with the stream and is complete
    only after the stream has been fully consumed.

    Lines are read ahead from ``source`` in batches of a few hundred. The
    parser hands out runs: the ``(citing_ids, keys, classes)`` columns of a
    batch's accepted lines, built without a Python step per line, split
    only around its bad lines. Every other line, and each line of a batch
    the column parser refuses, is parsed on its own by ``one_line``, the only
    code that words an error, and is a run of one if accepted. The
    :class:`RecordStream` builds records from the runs as it is read, and
    ``aggregate_corpus`` counts the runs not yet read. Errors still surface in
    line order: the records of the lines before a bad line, or before an
    exception raised by ``source`` itself, come out first. A STRICT error
    ends the stream's one generator, so a caller that catches it and reads on
    gets no more records.
    """
    report = IngestReport()
    # Per-stream caches of successful lookups only: a failing label or
    # journal raises again on every line that carries it, so error counts
    # and line numbers match a plain per-line parse_record.
    classes: dict[str, CitationClass] = {}
    keys: dict[str, str] = {}
    columns = _COLUMNS.get(fmt)

    def one_line(line: str, lineno: int) -> Run | None:
        """The one-line run of ``line``, line ``lineno``, or None if it is
        skipped; the only code that words an error."""
        try:
            citing_id, journal, label = _fields(line, fmt)
            klass = classes.get(label)
            if klass is None:
                klass = classes[label] = _class_of(label)
            key = keys.get(journal)
            if key is None:
                key = keys[journal] = _key_of(journal)
        except CitemetricError as exc:
            report.rejected += 1
            if len(report.first_errors) < MAX_REPORTED_ERRORS:
                report.first_errors.append((lineno, f"{type(exc).__name__}: {exc}"))
            if policy is Policy.STRICT:
                raise type(exc)(f"line {lineno}: {exc}") from None
            return None
        report.accepted += 1
        return (citing_id,), (key,), (klass,)

    def runs() -> Iterator[Run]:
        """The runs of accepted rows, each a batch's columns or a slice of
        them, and the ``one_line`` run of every other line, in line order."""
        lineno = 0
        for batch in read_ahead(source, _BATCH_LINES):
            lines = list(map(str.rstrip, batch, repeat("\r\n")))
            if lineno == 0 and lines:
                lines[0] = lines[0].removeprefix("\ufeff")
                if fmt is Format.CSV:
                    _check_header(lines.pop(0))
                    lineno = 1
            cols = columns(lines) if columns and lines else None
            if cols is None:
                yield from filter(None, map(one_line, lines, count(lineno + 1)))
            else:
                ids, journals, labels = cols
                klasses = _lookup(classes, labels, _class_of)
                found = _lookup(keys, journals, _key_of)
                bad: list[int] = []  # a clean batch skips the per-line search
                if None in found or None in klasses:
                    bad = [i for i, (key, klass) in enumerate(zip(found, klasses)) if key is None or klass is None]
                start = 0
                for end in (*bad, len(lines)):
                    if start < end:
                        report.accepted += end - start
                        yield ids[start:end], found[start:end], klasses[start:end]
                    if end < len(lines) and (run := one_line(lines[end], lineno + end + 1)):
                        yield run
                    start = end + 1
            lineno += len(lines)
        if fmt is Format.CSV and lineno == 0:
            raise MalformedLineError("line 1: missing CSV header")

    return RecordStream(runs()), report
