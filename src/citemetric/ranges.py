"""Newline-aligned byte ranges of corpus files, folded in forked workers.

A file is cut into at most one range per usable CPU, each at least
``MIN_RANGE_BYTES`` long, and each range is read through
:func:`citemetric.ingest.read_lines`. Cuts fall right after a ``\\n``, the
only line end, so the lines read per range, concatenated, are the lines of
the whole file (a CR is data, and a ``\\r\\n`` pair is never split). A cut
never lands before a line that starts with a byte order mark, which only a
file's first line may carry. A cut's scan for a ``\\n`` stops after
``MAX_LINE_BYTES + 1`` bytes, so only a line that ``read_lines`` refuses can
hold a cut; the range before the cut holds more than ``MAX_LINE_BYTES`` of
it and refuses it at the offset where it starts, as a whole-file read would.

:func:`fold_file` folds the first range in this process and every other
one in a forked worker, which streams its tally back over a pipe as
marshalled frames: lists of at most ``ROWS_PER_CHUNK`` ``(journal,
supporting, disputing, mentioning)`` rows, then one closing tuple: ``("ok",
accepted, rejected, first_errors)``, the fields of its ingest report, or
``("raised", module, class name, args)``, the exception its fold raised as
``__reduce__`` takes it apart (an argument ``marshal`` cannot carry goes as
its ``str``), which is rebuilt and raised as the first range's own. The
rows are added into the first range's table in place, and the ranges'
reports and errors are taken in file order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import marshal
import os
import re
import signal
import stat
import sys
from itertools import islice
from typing import IO, Callable

from .aggregate import TallyTable, add_counts
from .errors import CitemetricError
from .ingest import MAX_LINE_BYTES, IngestReport

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

    Decided by one ``os.stat``, which raises the OSError ``open`` would. Only
    a regular file cut in two or more is opened here; anything else is one
    range, so a pipe or FIFO is opened once, by the reader that drains it.
    """
    info = os.stat(path)
    size = info.st_size
    parts = min(parts, size // MIN_RANGE_BYTES)
    if parts < 2 or not stat.S_ISREG(info.st_mode):
        return [(0, None)]
    cuts = [0]
    with open(path, "rb") as fh:
        for i in range(1, parts):
            fh.seek(max(size * i // parts - 1, cuts[-1]))
            fh.readline(MAX_LINE_BYTES + 1)
            cut = fh.tell()
            while fh.read(len(_BOM)) == _BOM:
                fh.seek(cut)
                fh.readline(MAX_LINE_BYTES + 1)
                cut = fh.tell()
            if cut >= size:
                break
            cuts.append(cut)
    return [(a, b - a) for a, b in zip(cuts, cuts[1:])] + [(cuts[-1], None)]


def _send(obj: object, out: IO[bytes]) -> None:
    # Each frame is a marshalled bytes object holding the marshalled value:
    # the reader then gets it in one read and decodes it with marshal.loads,
    # many times faster than marshal.load pulling a value through a pipe.
    marshal.dump(marshal.dumps(obj), out)


def _work(fold: RangeFold, rng: Range, out: IO[bytes]) -> None:
    try:
        table, report = fold(*rng)
    except BaseException as exc:
        cls, args = exc.__reduce__()[:2]
        raised = ("raised", cls.__module__, cls.__qualname__)
        try:
            _send((*raised, args), out)
        except ValueError:  # marshal refuses an argument; nothing was written
            _send((*raised, tuple(map(str, args))), out)
        return
    items = iter(table.items())
    while chunk := [(k, *t) for k, t in islice(items, ROWS_PER_CHUNK)]:
        _send(chunk, out)
    _send(("ok", *dataclasses.astuple(report)), out)


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


def _worded(exc: BaseException, path: str, shift: int) -> BaseException:
    """``exc`` as a one-range fold of ``path`` raises it: a CitemetricError
    names ``path``, and its ``line N`` counts the ``shift`` lines before its
    range; any other exception is itself."""
    if not isinstance(exc, CitemetricError):
        return exc
    message = _LINE_PREFIX.sub(lambda m: f"line {int(m[1]) + shift}: ", str(exc), count=1)
    return type(exc)(f"{path}: {message}")


def fold_file(path: str, fold: RangeFold) -> tuple[TallyTable, IngestReport]:
    """Tally ``path`` with ``fold`` over its ranges, one per usable CPU.

    The result, and the exception raised if a range fails, are those of
    ``fold(0, None)``, whatever their class and whichever process folds the
    range: the first failing range decides, a CitemetricError names ``path``
    and its ``line N`` counts from the start of the file. A worker that dies
    or stops short is an OSError; every worker is reaped before return.
    """
    (start, length), *rest = plan_ranges(path, usable_cpus())
    workers: list[tuple[int, IO[bytes]]] = []
    try:
        for rng in rest:
            workers.append(_fork_worker(fold, rng))
        try:
            table, report = fold(start, length)
        except CitemetricError as exc:
            raise _worded(exc, path, 0) from None
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
            if kind == "raised":
                module, name, args = detail
                raise _worded(getattr(sys.modules[module], name)(*args), path, report.accepted + report.rejected)
            report.extend(IngestReport(*detail))
    finally:
        for pid, pipe in workers:  # left only if a range failed or we were interrupted
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return table, report
