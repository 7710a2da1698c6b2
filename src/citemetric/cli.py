"""Command-line frontend: ``synth`` | ``aggregate`` | ``report``.

The three stages communicate through files, with the per-journal tally CSV
as the checkpoint between aggregation and reporting:

    citemetric synth --preset paper -o corpus.jsonl
    citemetric aggregate -f jsonl corpus.jsonl -o tallies.csv
    citemetric report tallies.csv -o out/

``aggregate`` takes its files in order and folds each one's newline-aligned
byte ranges on every usable CPU, with the ingest report, errors and line
numbers of a single pass (see :mod:`citemetric.ranges`).

Exit codes are a stable scripting contract: 0 success, 1 usage error,
2 data error, 3 I/O error (a stderr that cannot be written and running out
of memory included), 130 interrupted (Ctrl-C or SIGTERM). All outputs, the
``synth`` corpus included, are deterministic for fixed inputs and renamed into place once
complete, so a failed run leaves no partial file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import os
import signal
import stat
import sys
import threading
from functools import partial
from itertools import chain, groupby, islice
from pathlib import Path
from typing import IO, Callable, Iterator, NoReturn, Sequence

from .aggregate import (
    TallyTable,
    aggregate_corpus,
    merge_tables,
    read_tally_csv,
    write_tally_csv,
)
from .errors import CitemetricError, InvalidParamsError, MalformedLineError
from .ingest import CSV_HEADER, Format, IngestReport, Policy, format_record, ingest_stream, read_lines
from .metrics import build_metrics_table, write_metrics_csv
from .model import MetricsConfig
from .stats import (
    SI_HISTOGRAM_BINS,
    correlation_report,
    histogram,
    scatter_points,
    summarize,
    write_correlations_json,
    write_histogram_csv,
    write_scatter_csv,
    write_summary_json,
)
from .synth import SynthParams, default_paper_regime, generate_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3
#: 128 + SIGINT, what a shell reports for a command stopped by Ctrl-C;
#: a run stopped by SIGTERM exits with it too.
EXIT_INTERRUPTED = 130

PROG = "citemetric"

#: Most copies of one synth line joined into a single write.
_SYNTH_CHUNK_LINES = 1024


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; our contract says 1."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse ``type`` that takes an integer of at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=PROG, description="Citation tally aggregation and scite-index reporting.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    agg = sub.add_parser(
        "aggregate",
        help="aggregate corpus files into a per-journal tally CSV",
        description="Ingest citation records and write per-journal tallies sorted by journal.",
    )
    agg.add_argument("inputs", nargs="+", metavar="FILE", help="corpus files to ingest")
    agg.add_argument(
        "-f", "--format", choices=("csv", "jsonl"), default="jsonl", help="corpus format (default: jsonl)"
    )
    agg.add_argument(
        "--policy",
        choices=("strict", "skip"),
        default="strict",
        help="strict: fail on the first malformed record; skip: drop and count them",
    )
    agg.add_argument("-o", "--output", required=True, metavar="TALLY_CSV", help="tally CSV to write")
    agg.set_defaults(func=_cmd_aggregate)

    rep = sub.add_parser(
        "report",
        help="compute metrics, summary statistics, correlations and figure data",
        description="Read a tally CSV and write metrics.csv, summary.json, "
        "correlations.json, si_histogram.csv and si_scatter.csv.",
    )
    rep.add_argument("tally", metavar="TALLY_CSV", help="tally CSV produced by aggregate")
    rep.add_argument(
        "--min-citations",
        type=_int_at_least(0),
        default=100,
        help="index requires total citations strictly above this (default: 100)",
    )
    rep.add_argument(
        "--min-classified",
        type=_int_at_least(1),
        default=1,
        help="index requires at least this many classified citations (default: 1)",
    )
    rep.add_argument("-o", "--outdir", required=True, metavar="DIR", help="output directory")
    rep.set_defaults(func=_cmd_report)

    syn = sub.add_parser(
        "synth",
        help="generate a deterministic synthetic corpus",
        description="Write a seeded synthetic citation corpus. Flags override preset values.",
    )
    syn.add_argument("--preset", choices=("paper",), help="parameter preset to start from")
    syn.add_argument("--journals", type=_int_at_least(1), help="number of journals")
    syn.add_argument("--lognormal-mu", type=float, help="log-scale location of classified totals")
    syn.add_argument("--lognormal-sigma", type=float, help="log-scale spread of classified totals")
    syn.add_argument("--beta-alpha", type=float, help="support propensity Beta alpha")
    syn.add_argument("--beta-beta", type=float, help="support propensity Beta beta")
    syn.add_argument("--mention-ratio", type=float, help="fraction of statements that are mentions")
    syn.add_argument("--seed", type=int, help="64-bit master seed")
    syn.add_argument(
        "-f", "--format", choices=("csv", "jsonl"), default="jsonl", help="corpus format (default: jsonl)"
    )
    syn.add_argument("-o", "--output", required=True, metavar="FILE", help="corpus file to write")
    syn.set_defaults(func=_cmd_synth)

    return parser


def _fold_range(
    path: str, fmt: Format, policy: Policy, start: int, length: int | None
) -> tuple[TallyTable, IngestReport]:
    """Tally one byte range of ``path`` (see :mod:`citemetric.ranges`).

    Line numbers, in the report and in ``line N:`` errors, count from the
    range's first data line as if it were the file's: a CSV range after the
    first is read behind a copy of the header. Invalid UTF-8 is a
    MalformedLineError at its byte offset in the file, raised unless an
    earlier line fails first.
    """
    lines = read_lines(path, start, length)
    lines = chain((",".join(CSV_HEADER),), lines) if start and fmt is Format.CSV else lines
    records, report = ingest_stream(lines, fmt, policy)
    return aggregate_corpus(records), report


def _print_report(path: str, report: IngestReport) -> None:
    print(f"{path}: {report.accepted} accepted, {report.rejected} rejected", file=sys.stderr)
    for lineno, reason in report.first_errors:
        print(f"  {path}:{lineno}: {reason}", file=sys.stderr)


@contextlib.contextmanager
def _atomic_write(path: str | Path) -> Iterator[IO[str]]:
    """Write UTF-8 text, newlines untranslated, to a hidden file beside
    ``path`` and rename it over ``path`` once the block completes; on failure
    only the hidden file goes, and it goes. The result has the mode bits
    ``open(path, "w")`` would give it. A destination that is not a regular
    file is written in place."""
    target = os.path.realpath(path)
    try:
        info = os.stat(target)
    except FileNotFoundError:
        info = None
    if info is not None and not stat.S_ISREG(info.st_mode):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    head, tail = os.path.split(target)
    # The random part keeps a name a killed run left behind, under a pid
    # that is now this process's, from blocking the "x" open below.
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
    except OSError as exc:  # name the destination, as open(path, "w") would
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    except BaseException:  # an interrupt as open returns: the file is made
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    try:
        with fh:
            yield fh
        if info is not None:
            os.chmod(tmp, stat.S_IMODE(info.st_mode))
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _cmd_aggregate(args: argparse.Namespace) -> int:
    from . import ranges  # here, not at the top: report and synth start faster

    fmt = Format(args.format)
    policy = Policy(args.policy)
    paths: list[str] = args.inputs
    combined: TallyTable = {}
    reports = []
    for path in paths:
        table, report = ranges.fold_file(path, partial(_fold_range, path, fmt, policy))
        combined = merge_tables(combined, table)
        del table  # merged: the next file folds with only the running total held
        reports.append(report)
    for path, report in zip(paths, reports):
        _print_report(path, report)
    with _atomic_write(args.output) as fh:
        write_tally_csv(combined, fh)
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        table = read_tally_csv(read_lines(args.tally))
    except MalformedLineError as exc:
        raise MalformedLineError(f"{args.tally}: {exc}") from None
    config = MetricsConfig(args.min_citations, args.min_classified)
    metrics = build_metrics_table(table, config)
    del table  # the metrics hold every tally; freeing the dict lowers the peak
    summaries = {
        "supporting": summarize(metrics.supporting, "supporting"),
        "disputing": summarize(metrics.disputing, "disputing"),
        "scite_index": summarize(metrics.scite_index, "scite_index"),
    }
    correlations = correlation_report(metrics)
    si_histogram = histogram(metrics.scite_index, 0.0, 1.0, SI_HISTOGRAM_BINS)
    points = scatter_points(metrics)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    artifacts = (
        ("metrics.csv", write_metrics_csv, metrics),
        ("summary.json", write_summary_json, summaries),
        ("correlations.json", write_correlations_json, correlations),
        ("si_histogram.csv", write_histogram_csv, si_histogram),
        ("si_scatter.csv", write_scatter_csv, points),
    )
    # All five temporary files are written and closed before the first is
    # renamed, so a failed write leaves every previous artifact in place.
    with contextlib.ExitStack() as stack:
        for name, write, data in artifacts:
            fh = stack.enter_context(_atomic_write(outdir / name))
            write(data, fh)
            fh.close()
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(SynthParams)}
    given = {name: value for name, value in values.items() if value is not None}
    if args.preset == "paper":
        params = dataclasses.replace(default_paper_regime(), **given)
    elif "journals" in given:
        params = SynthParams(**given)
    else:
        raise InvalidParamsError("--journals is required unless --preset paper is given")
    fmt = Format(args.format)
    with _atomic_write(args.output) as fh:
        if fmt is Format.CSV:
            fh.write(",".join(CSV_HEADER) + "\n")
        # Each (journal, class) run is formatted once, written in chunks counted in C.
        for record, run in groupby(generate_corpus(params)):
            line = format_record(record, fmt) + "\n"
            while n := len(list(islice(run, _SYNTH_CHUNK_LINES))):
                fh.write(line * n)
    return EXIT_OK


def _say(message: str) -> None:
    """Print ``citemetric: message`` to stderr. A stderr that cannot be
    written loses the line but raises nothing, so the exit code still says
    what failed."""
    with contextlib.suppress(OSError, ValueError):
        print(f"{PROG}: {message}", file=sys.stderr, flush=True)


@contextlib.contextmanager
def _sigterm_interrupts() -> Iterator[None]:
    """Let SIGTERM raise KeyboardInterrupt in the block, as Ctrl-C does, so a
    terminated run also reaps its workers and removes its temporary file. The
    old handler is restored on leaving; outside the main thread, which alone
    may set handlers, nothing changes."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    old = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, old)


def run(argv: Sequence[str] | None = None) -> int:
    """Parse ``argv`` (default: ``sys.argv[1:]``), run a command, return the
    exit code. Never raises on expected failures; see module docstring for
    the code contract."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        with _sigterm_interrupts():
            return args.func(args)
    except InvalidParamsError as exc:
        _say(f"error: {exc}")
        return EXIT_USAGE
    except CitemetricError as exc:
        _say(f"error: {exc}")
        return EXIT_DATA
    except OSError as exc:
        _say(f"error: {exc}")
        return EXIT_IO
    except MemoryError:
        _say("error: out of memory")
        return EXIT_IO
    except KeyboardInterrupt:
        _say("interrupted")
        return EXIT_INTERRUPTED


def main() -> NoReturn:
    """The program entry, of ``python -m citemetric.cli`` and of the
    ``citemetric`` script: exit with the code of :func:`run`.

    The objects made by the imports live as long as the process, so they
    are frozen out of the cyclic garbage collector first, which then never
    walks them. Only the entry freezes: a caller of :func:`run` in its own
    process keeps its collector as it was.
    """
    gc.freeze()
    sys.exit(run())


if __name__ == "__main__":
    main()
