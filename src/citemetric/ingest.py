"""Parse citation-event files into validated record streams.

Two line-oriented formats are supported: headered CSV
(``citing_id,journal,class``) and JSONL (one object per line with those keys,
``citing_id`` optional). Files must be UTF-8; a BOM on the first line is
stripped. Because parsing is line-by-line, fields may not contain newlines.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Iterable, Iterator

from .errors import CitemetricError, MalformedLineError, UnknownClassError
from .model import CitationClass, CitationRecord, normalize_journal_key

CSV_HEADER = ("citing_id", "journal", "class")

#: Cap on per-stream error detail kept in an IngestReport.
MAX_REPORTED_ERRORS = 20

_CLASS_BY_LABEL = {c.value: c for c in CitationClass}

#: Bytes read per block; each block is decoded up to its last newline.
_BLOCK_BYTES = 1 << 14


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A decoded JSON object, unless it repeats a key (last-wins would hide it)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise MalformedLineError(f"duplicate key {key!r}")
    return obj


_decode_json = json.JSONDecoder().decode
_decode_json_unique = json.JSONDecoder(object_pairs_hook=_unique_keys).decode


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
        except ValueError as exc:
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


def parse_record(line: str, fmt: Format) -> CitationRecord:
    """Parse one data line into a record with a normalized journal key.

    Class labels are matched case-insensitively against exactly
    supporting/disputing/mentioning.

    Raises:
        MalformedLineError: wrong field count, invalid CSV or invalid JSON object.
        UnknownClassError: class label outside the taxonomy.
        EmptyKeyError: journal field normalizes to the empty string.
    """
    citing_id, journal, label = _fields(line, fmt)
    klass = _class_of(label)
    return CitationRecord(citing_id, normalize_journal_key(journal), klass)


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
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(
        (record.citing_id, record.journal, record.klass.value)
    )
    return buf.getvalue()[:-1]


def ingest_stream(
    source: Iterable[str],
    fmt: Format,
    policy: Policy = Policy.STRICT,
) -> tuple[Iterator[CitationRecord], IngestReport]:
    """Turn a line stream into a lazy record stream plus an ingest report.

    Record order matches line order. Under STRICT the first parse error is
    re-raised annotated with its 1-based line number; under SKIP bad lines are
    counted and the stream continues. In CSV format line 1 must be the exact
    header ``citing_id,journal,class``; a bad or missing header raises under
    either policy since the whole file is then suspect. The returned report is
    shared with the generator and is complete only after the stream has been
    fully consumed.
    """
    report = IngestReport()

    def records() -> Iterator[CitationRecord]:
        # Per-stream caches of successful lookups only: a failing label or
        # journal raises again on every line that carries it, so error counts
        # and line numbers match a plain per-line parse_record.
        classes: dict[str, CitationClass] = {}
        keys: dict[str, str] = {}
        fields, new_record = _fields, tuple.__new__
        need_header = fmt is Format.CSV
        lineno = 0
        for raw in source:
            lineno += 1
            line = raw.rstrip("\r\n")
            if lineno == 1 and line.startswith("\ufeff"):
                line = line[1:]
            if need_header:
                try:
                    header = tuple(_csv_row(line))
                except MalformedLineError as exc:
                    raise MalformedLineError(f"line 1: {exc}") from None
                if header != CSV_HEADER:
                    raise MalformedLineError(
                        f"line 1: expected CSV header {','.join(CSV_HEADER)!r}, got {line!r}"
                    )
                need_header = False
                continue
            try:
                citing_id, journal, label = fields(line, fmt)
                klass = classes.get(label)
                if klass is None:
                    klass = classes[label] = _class_of(label)
                key = keys.get(journal)
                if key is None:
                    key = normalize_journal_key(journal)
                    # Share the raw string when it is already normalized.
                    key = keys[journal] = journal if key == journal else key
            except CitemetricError as exc:
                report.rejected += 1
                if len(report.first_errors) < MAX_REPORTED_ERRORS:
                    report.first_errors.append((lineno, f"{type(exc).__name__}: {exc}"))
                if policy is Policy.STRICT:
                    raise type(exc)(f"line {lineno}: {exc}") from None
                continue
            report.accepted += 1
            yield new_record(CitationRecord, (citing_id, key, klass))
        if need_header:
            raise MalformedLineError("line 1: missing CSV header")

    return records(), report
