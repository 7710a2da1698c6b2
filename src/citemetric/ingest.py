"""Parse citation-event files into validated record streams.

Two line-oriented formats are supported: headered CSV
(``citing_id,journal,class``) and JSONL (one object per line with those keys,
``citing_id`` optional). Files must be UTF-8; a BOM on the first line is
stripped. A line ends at ``\n`` and only there; CRs just before it are
dropped, and any other CR is data. Because parsing is line-by-line, fields
may not contain a ``\n``, and no line may hold more than ``MAX_LINE_BYTES``
bytes. The parser hands out runs, one per batch of lines, each the columns
of the batch's accepted records; :class:`RecordStream` turns them
into records and :func:`runs_of` turns records back into runs, so the fold
never sees which it was given. The package's one CSV quoting rule and one
read-ahead loop live here too.
"""

from __future__ import annotations

import csv
import io
import json
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

#: Lines ingest_stream reads ahead and parses together, and records
#: runs_of reads into one run.
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


def read_lines(path: str, start: int = 0, length: int | None = None) -> Iterator[str]:
    """Yield the lines, ends included, of ``length`` bytes of ``path`` from
    ``start`` (to EOF if None): for a whole file, those text-mode
    ``open(path, encoding="utf-8", newline="\\n")`` yields. A line ends at
    ``\\n`` only, untranslated, as the cap and ``ranges.plan_ranges`` count
    lines; a CR is data. The bytes are read once, pipes included, in blocks
    cut after their last ``\\n`` (no character is split), and no Python
    frame runs per line.

    Raises:
        MalformedLineError: invalid UTF-8, named at its offset in the file,
            after the lines before its ``\\n``-terminated line are yielded;
            or a line of more than ``MAX_LINE_BYTES`` bytes up to its
            ``\\n``, named at the offset it starts at, after the lines
            before it are yielded.
    """
    return chain.from_iterable(_blocks(path, start, length))


def _blocks(path: str, start: int, length: int | None) -> Iterator[Iterator[str]]:
    """The lines of :func:`read_lines`, one iterator per block of whole
    ``\\n``-terminated lines (the last may lack its ``\\n``)."""
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
            cut = block.rfind(b"\n") + 1
            if cut:
                data = b"".join((*head, block[:cut]))
                yield from _decode(data, offset)
                offset, head, held, block = offset + len(data), [], 0, block[cut:]
            head.append(block)
            held += len(block)
        yield from _decode(b"".join(head), offset)


def _decode(data: bytes, offset: int) -> Iterator[Iterator[str]]:
    """The lines of ``data``, which starts at byte ``offset`` of its file, in StringIOs."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        good = data[: data.rfind(b"\n", 0, exc.start) + 1]
        yield io.StringIO(good.decode("utf-8"), newline="\n")
        first, last = offset + exc.start, offset + exc.end - 1
        one = f"byte 0x{data[exc.start]:02x} in position {first}"
        where = one if first == last else f"bytes in position {first}-{last}"
        raise MalformedLineError(f"invalid UTF-8: 'utf-8' codec can't decode {where}: {exc.reason}") from None
    yield io.StringIO(text, newline="\n")


def csv_error(exc: csv.Error) -> str:
    """The words of a ``csv`` error, without the advice some of its messages
    end in (to open the file in universal-newline mode, or with
    ``newline=''``), which a program that opens every input itself cannot
    act on."""
    return f"invalid CSV: {str(exc).partition(' - ')[0]}"


def _csv_row(line: str) -> list[str]:
    try:
        return next(csv.reader((line,)), [])
    except csv.Error as exc:
        raise MalformedLineError(csv_error(exc)) from None


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
            escape), which the tally CSV could not be written with; or
            U+0000, which ``csv.reader`` refuses on Python 3.10, so the
            tally could not be read back there.
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


def _check_header(line: str) -> None:
    try:
        header = tuple(_csv_row(line))
    except MalformedLineError as exc:
        raise MalformedLineError(f"line 1: {exc}") from None
    if header != CSV_HEADER:
        raise MalformedLineError(f"line 1: expected CSV header {','.join(CSV_HEADER)!r}, got {line!r}")


#: Stands in for a malformed line, or a CSV row of the wrong length: its
#: empty label never resolves, so ``ingest_stream`` masks the line out of
#: its batch's run and hands it to ``reject``, which words the error.
_NO_ROW = ("", "", "")


def _csv_columns(lines: list[str]) -> tuple[tuple[str, ...], ...] | None:
    """The ``(citing_id, journal, class)`` columns of the CSV ``lines``; None
    when csv fails on a line or a quoted field runs on into the next line.
    A row of the wrong length is replaced in place by ``_NO_ROW``, so the
    batch is never rebuilt and only such a row costs a Python step."""
    try:
        rows = list(csv.reader(lines))
    except csv.Error:
        return None
    if len(rows) != len(lines):
        return None
    for i in compress(count(), map(ne, map(len, rows), repeat(len(CSV_HEADER)))):
        rows[i] = _NO_ROW
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
    under SKIP bad lines are counted and the stream continues. In CSV format
    line 1 must be the exact header ``citing_id,journal,class``; a bad or
    missing header raises under either policy since the whole file is then
    suspect. The returned report is shared with the stream and is complete
    only after the stream has been fully consumed.

    Each item of ``source`` is one line; the ``\\n`` and any CRs at its end
    are dropped. Lines are read ahead from ``source`` in batches of a few
    hundred. A batch the column parser refuses is split one line at a time
    instead, a malformed line standing in as ``_NO_ROW``. Each batch then
    hands out one run: the ``(citing_ids, keys, classes)`` columns of its
    accepted lines, a ``compress`` mask dropping the others (under STRICT,
    every line from the first bad one on). Each bad line is parsed again by
    :func:`parse_record`, only to word its error. The :class:`RecordStream`
    builds records from the runs once it is iterated;
    until then ``aggregate_corpus`` counts the runs themselves. Errors still
    surface in line order: the records of the lines before a bad line, or
    before an exception raised by ``source`` itself, come out first. A
    STRICT error ends the stream's one generator, so a caller that catches
    it and reads on gets no more records.
    """
    report = IngestReport()
    # Per-stream caches of successful lookups only: a failing label or
    # journal raises again on every line that carries it, so error counts
    # and line numbers match a plain per-line parse_record.
    classes: dict[str, CitationClass] = {}
    keys: dict[str, str] = {}
    columns = _COLUMNS.get(fmt)

    def row(line: str) -> tuple[str, str, str]:
        try:
            return _fields(line, fmt)
        except MalformedLineError:
            return _NO_ROW

    def reject(line: str, lineno: int) -> None:
        """Count ``line``, line ``lineno``, which its batch's lookups refused,
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
        """One run per batch, of its accepted rows, then each refused line
        of the batch to ``reject``; under STRICT the run stops before the
        first refused line."""
        lineno = 0
        for batch in read_ahead(source, _BATCH_LINES):
            lines = list(map(str.rstrip, batch, repeat("\r\n")))
            if lineno == 0 and lines:
                lines[0] = lines[0].removeprefix("\ufeff")
                if fmt is Format.CSV:
                    _check_header(lines.pop(0))
                    lineno = 1
            if not lines:
                continue
            # A batch the column parser refuses is split one line at a time.
            ids, journals, labels = columns and columns(lines) or zip(*map(row, lines))
            klasses = _lookup(classes, labels, _class_of)
            found = _lookup(keys, journals, _key_of)
            kept = ()  # a clean batch builds no mask
            if None in found or None in klasses:
                kept = list(map(all, zip(found, klasses)))  # keys are non-empty, classes truthy
                if policy is Policy.STRICT:
                    del kept[kept.index(False) + 1 :]
                ids, found, klasses = (list(compress(column, kept)) for column in (ids, found, klasses))
            if ids:
                report.accepted += len(ids)
                yield ids, found, klasses
            for i in compress(count(), map(not_, kept)):
                reject(lines[i], lineno + i + 1)
            lineno += len(lines)
        if fmt is Format.CSV and lineno == 0:
            raise MalformedLineError("line 1: missing CSV header")

    return RecordStream(runs()), report
