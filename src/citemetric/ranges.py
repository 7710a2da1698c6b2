"""Newline-aligned byte ranges of corpus files, folded in forked workers.

A file is cut into at most one range per usable CPU, each at least
``MIN_RANGE_BYTES`` long. Cuts fall right after a ``\\n``, so the lines a text
reader yields per range, concatenated, are the lines of the whole file (a
``\\r\\n`` pair is never split and a bare ``\\r`` stays inside its range). A cut
never lands before a line that starts with a byte order mark, which only a
file's first line may carry.

:func:`fold_file` folds the first range in this process and every other
one in a forked worker, which streams its tally back over a pipe as
marshalled frames: lists of at most ``ROWS_PER_CHUNK`` ``(journal,
supporting, disputing, mentioning)`` rows, then one closing tuple,
``("ok", accepted, rejected, first_errors)``, ``("data", error class name,
message)`` or ``("io", message)``. The rows are added into the first range's
table in place, and the ranges' reports and errors are taken in file order.
"""

from __future__ import annotations

import contextlib
import io
import marshal
import os
import re
import signal
import stat
from itertools import islice
from typing import IO, Callable

from . import errors
from .aggregate import TallyTable, add_counts
from .errors import CitemetricError
from .ingest import MAX_REPORTED_ERRORS, IngestReport

#: Smallest range worth a worker of its own.
MIN_RANGE_BYTES = 1 << 20
#: Most rows a worker marshals into one frame.
ROWS_PER_CHUNK = 4096

#: (start, length) in bytes; a length of None reads to EOF.
Range = tuple[int, int | None]

#: Folds the range (start, length) of a file it was made for.
RangeFold = Callable[[int, "int | None"], tuple[TallyTable, IngestReport]]

_BOM = b"\xef\xbb\xbf"  # U+FEFF in UTF-8
_LINE_PREFIX = re.compile(r"^line (\d+): ")


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def plan_ranges(path: str, parts: int) -> list[Range]:
    """Cut ``path`` into at most ``parts`` ranges; the last reads to EOF.

    Anything but a regular file is one range. Opening the file here raises
    the same OSError a plain ``open`` would.
    """
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            return [(0, None)]
        size = info.st_size
        parts = max(1, min(parts, size // MIN_RANGE_BYTES))
        cuts = [0]
        for i in range(1, parts):
            fh.seek(max(size * i // parts - 1, cuts[-1]))
            fh.readline()
            cut = fh.tell()
            while fh.read(len(_BOM)) == _BOM:
                fh.seek(cut)
                fh.readline()
                cut = fh.tell()
            if cut >= size:
                break
            cuts.append(cut)
    return [(a, b - a) for a, b in zip(cuts, cuts[1:])] + [(cuts[-1], None)]


class _Slice(io.RawIOBase):
    """The next ``left`` bytes of an unbuffered binary file."""

    def __init__(self, raw: io.RawIOBase, left: int) -> None:
        self._raw, self._left = raw, left

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = self._raw.readinto(memoryview(buf)[: min(len(buf), self._left)]) if self._left else 0
        self._left -= n
        return n

    def close(self) -> None:
        self._raw.close()
        super().close()


def open_range(path: str, start: int, length: int | None) -> io.TextIOWrapper:
    """The range as UTF-8 text with universal newlines, as ``open`` reads files."""
    raw = open(path, "rb", buffering=0)
    if start:
        raw.seek(start)
    if length is not None:
        raw = _Slice(raw, length)
    return io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8")


def first_invalid_utf8(path: str, start: int, length: int | None) -> tuple[int, str] | None:
    """Offset of the first ``\\n``-terminated line in the range that is not
    UTF-8, and the decoder's complaint with positions counted from the start
    of the file; None if there is none."""
    end = None if length is None else start + length
    with open(path, "rb") as fh:
        fh.seek(start)
        offset = start
        for line in fh:
            if end is not None and offset >= end:
                break
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                first, last = offset + exc.start, offset + exc.end - 1
                where = (
                    f"byte 0x{line[exc.start]:02x} in position {first}"
                    if first == last
                    else f"bytes in position {first}-{last}"
                )
                return offset, f"'utf-8' codec can't decode {where}: {exc.reason}"
            offset += len(line)
    return None


def _send(obj: object, out: IO[bytes]) -> None:
    # Each frame is a marshalled bytes object holding the marshalled value:
    # the reader then gets it in one read and decodes it with marshal.loads,
    # many times faster than marshal.load pulling a value through a pipe.
    marshal.dump(marshal.dumps(obj), out)


def _work(fold: RangeFold, rng: Range, out: IO[bytes]) -> None:
    try:
        table, report = fold(*rng)
    except CitemetricError as exc:
        _send(("data", type(exc).__name__, str(exc)), out)
        return
    except OSError as exc:
        _send(("io", str(exc)), out)
        return
    items = iter(table.items())
    while chunk := [(k, t.supporting, t.disputing, t.mentioning) for k, t in islice(items, ROWS_PER_CHUNK)]:
        _send(chunk, out)
    _send(("ok", report.accepted, report.rejected, report.first_errors), out)


def _fork_worker(fold: RangeFold, rng: Range) -> tuple[int, IO[bytes]]:
    """Fold ``rng`` in a forked process; return its pid and the read end of
    its pipe. The worker leaves through ``os._exit``, so it never flushes or
    writes the standard streams it inherited."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # pragma: no cover - runs in the worker
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as out:
                _work(fold, rng, out)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _receive(pipe: IO[bytes], table: TallyTable) -> tuple | None:
    """Add a worker's rows into ``table`` in place; return its closing tuple,
    or None if its stream stops short."""
    try:
        while isinstance(frame := marshal.loads(marshal.load(pipe)), list):
            add_counts(table, frame)
    except (EOFError, ValueError, TypeError):
        return None
    return frame


def _add_report(total: IngestReport, accepted: int, rejected: int, first_errors: list) -> None:
    """Append the report of the range after those ``total`` covers; its line
    numbers shift by the data lines before it."""
    shift = total.accepted + total.rejected
    room = MAX_REPORTED_ERRORS - len(total.first_errors)
    total.first_errors.extend((lineno + shift, reason) for lineno, reason in first_errors[:room])
    total.accepted += accepted
    total.rejected += rejected


def fold_file(path: str, fold: RangeFold) -> tuple[TallyTable, IngestReport]:
    """Tally ``path`` with ``fold`` over its ranges, one per usable CPU.

    The result, and the error raised if a range fails, are those of
    ``fold(0, None)``: the first failing range decides, and its ``line N``
    counts from the start of the file. Errors name ``path``. A worker that
    dies or stops short is an OSError; every worker is reaped before return.
    """
    (start, length), *rest = plan_ranges(path, usable_cpus())
    workers: list[tuple[int, IO[bytes]]] = []
    try:
        for rng in rest:
            workers.append(_fork_worker(fold, rng))
        try:
            table, report = fold(start, length)
        except CitemetricError as exc:
            raise type(exc)(f"{path}: {exc}") from None
        for start, length in rest:
            pid, pipe = workers[0]
            with pipe:
                outcome = _receive(pipe, table)
            status = os.waitpid(pid, 0)[1]
            del workers[0]
            if outcome is None or status != 0:
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                how = how if code else "output cut short"
                end = "EOF" if length is None else start + length
                raise OSError(f"{path}: worker for bytes {start}-{end} failed ({how})")
            kind, *detail = outcome
            if kind == "io":
                raise OSError(detail[0])
            if kind == "data":
                name, message = detail
                shift = report.accepted + report.rejected
                message = _LINE_PREFIX.sub(lambda m: f"line {int(m[1]) + shift}: ", message, count=1)
                raise getattr(errors, name)(f"{path}: {message}")
            _add_report(report, *detail)
    finally:
        for pid, pipe in workers:  # left only if a range failed or we were interrupted
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return table, report
