"""The traced run: per-layer spans and counts, taken from outside the program.

Spans are recorded only in benchmark code, in two ways:

- Around the calls ``citemetric.cli`` makes into the other modules. While a
  traced stage runs in-process, the layer functions bound in the ``cli``
  module's namespace are replaced by wrappers that record a span per call, so
  those spans nest inside the stage's ``cli.run`` span and ``cli.run``'s self
  time is what the CLI does itself (argument parsing, the thread pool, file
  handling). Lazy streams are drained inside their span: the wrapped
  ``ingest_stream`` first reads and decodes the whole file (``cli.read_decode``),
  then parses it (``ingest.ingest_stream``), so ``aggregate_corpus`` times the
  fold alone.
- Around probe passes after ``cli.run``, for calls made deeper than the CLI
  boundary: ``parse_record`` and ``normalize_journal_key`` over the stage's
  input lines, and ``journal_counts`` over the synth parameters. ``rng`` draws
  are counted, never timed, in an untimed pass.

Every span records its name, start, end, parent and stage-run id, stays in
memory and is written to ``spans.json`` when the run ends. Self time is a
span's duration minus the union of its children's intervals, so spans of the
aggregate stage's worker threads, which overlap, are not counted twice.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import statistics
import threading
import time
import traceback
from array import array
from itertools import islice
from pathlib import Path

import citemetric.cli as cli
import citemetric.synth as synth
from citemetric.errors import CitemetricError, EmptyKeyError
from citemetric.ingest import Format, parse_record
from citemetric.model import normalize_journal_key
from citemetric.synth import journal_counts

from run import PIPELINES, Checker, Launcher, StageRun, run_reference, run_stage
from workloads import CLASSES, ERROR_CLASSES

#: Stages every traced run times; workloads without a synth stage run the
#: synth layer on their synth parameters so that every layer metric exists.
TRACED_STAGES = ("synth", "aggregate", "report")
#: Traced pipelines run per measurement even when they overrun ``--seconds``.
MIN_TRACED_REPS = 2

_STAGE_METRICS = {
    f"cli.{stage}.{metric}": unit
    for stage in TRACED_STAGES
    for metric, unit in (
        ("wall_s", "s"), ("cpu_user_s", "s"), ("cpu_sys_s", "s"),
        ("run_s", "s"), ("self_s", "s"), ("unaccounted_share", "ratio"),
    )
}

PER_LAYER = {
    "synth.journal_counts_s": "s",
    "synth.generate_corpus_s": "s",
    "synth.records": "count",
    "rng.draws": "count",
    "ingest.format_record_s": "s",
    "ingest.parse_record_s": "s",
    "ingest.ingest_stream_s": "s",
    "ingest.lines": "count",
    **{f"ingest.rejected.{name}": "count" for name in ERROR_CLASSES},
    "ingest.repeated_line_share": "ratio",
    "model.normalize_journal_key_s": "s",
    "model.normalize_calls": "count",
    "model.distinct_raw_keys": "count",
    "model.distinct_keys": "count",
    "aggregate.fold_s": "s",
    "aggregate.merge_tables_s": "s",
    "aggregate.write_tally_csv_s": "s",
    "aggregate.read_tally_csv_s": "s",
    "aggregate.journals": "count",
    "metrics.build_metrics_table_s": "s",
    "metrics.write_metrics_csv_s": "s",
    "metrics.eligible": "count",
    "stats.summarize_s": "s",
    "stats.correlation_report_s": "s",
    "stats.histogram_s": "s",
    "stats.scatter_points_s": "s",
    "stats.write_s": "s",
    "cli.read_decode_s": "s",
    "cli.workers": "count",
    **_STAGE_METRICS,
    "reference_s": "s",
    "trace.pipeline_s": "s",
    "trace.untraced_pipeline_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}

#: Names bound in ``citemetric.cli`` whose calls get one span each.
_CLI_SPANS = {
    "aggregate_corpus": "aggregate.fold",
    "merge_tables": "aggregate.merge_tables",
    "write_tally_csv": "aggregate.write_tally_csv",
    "read_tally_csv": "aggregate.read_tally_csv",
    "build_metrics_table": "metrics.build_metrics_table",
    "write_metrics_csv": "metrics.write_metrics_csv",
    "summarize": "stats.summarize",
    "correlation_report": "stats.correlation_report",
    "histogram": "stats.histogram",
    "scatter_points": "stats.scatter_points",
    "write_summary_json": "stats.write",
    "write_correlations_json": "stats.write",
    "write_histogram_csv": "stats.write",
    "write_scatter_csv": "stats.write",
}


class Tracer:
    """Spans in columnar arrays; span ids are indices.

    A span's parent is the innermost open span of its thread or, in a thread
    with none open (a CLI worker thread), the innermost open span of the
    thread that started the stage.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.runs = array("q")
        self.run_id = -1
        self._owner = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else -1

    def add(self, name: str, start: float, end: float) -> int:
        """Record a closed leaf span."""
        with self._lock:
            sid = len(self.names)
            self.names.append(name)
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(self._parent(self._stack()))
            self.runs.append(self.run_id)
        return sid

    def leaf_recorder(self, name: str):
        """A cheaper ``add`` for per-record calls: parent and stage run are
        fixed to those open in the calling thread now."""
        parent, run, lock = self._parent(self._stack()), self.run_id, self._lock
        appends = (self.names.append, self.starts.append, self.ends.append,
                   self.parents.append, self.runs.append)

        def record(start: float, end: float) -> None:
            with lock:
                for append, value in zip(appends, (name, start, end, parent, run)):
                    append(value)
        return record

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = self.add(name, time.perf_counter(), float("nan"))
        stack.append(sid)
        try:
            yield sid
        finally:
            stack.pop()
            self.ends[sid] = time.perf_counter()

    def spans(self):
        return zip(range(len(self.names)), self.names, self.starts, self.ends, self.parents, self.runs)

    def write(self, path: Path) -> None:
        """Write the spans as columns; span i is entry i of each column, times
        are integer nanoseconds from the first span's start."""
        origin = self.starts[0] if self.starts else 0.0
        labels = sorted(set(self.names))
        index = {label: i for i, label in enumerate(labels)}
        columns = {
            "labels": labels,
            "name": [index[n] for n in self.names],
            "start_ns": [round((t - origin) * 1e9) for t in self.starts],
            "end_ns": [round((t - origin) * 1e9) for t in self.ends],
            "parent": list(self.parents),
            "run": list(self.runs),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(columns, fh, separators=(",", ":"))


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals,
    clipped to the span. ``spans`` yields (id, name, start, end, parent, run)."""
    bounds = {}
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _, start, end, parent, _ in spans:
        bounds[sid] = (start, end)
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for sid, (start, end) in bounds.items():
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[sid] = (end - start) - covered
    return result


class StageTrace:
    """Counts the wrappers observe during one traced stage run."""

    def __init__(self) -> None:
        self.threads: set[int] = set()
        self.records = 0
        self.journals = 0
        self.eligible = 0


@contextlib.contextmanager
def traced_cli(tracer: Tracer, seen: StageTrace):
    """Swap span-recording wrappers into ``citemetric.cli`` for the block."""
    originals = {name: getattr(cli, name) for name in (*_CLI_SPANS, "ingest_stream", "generate_corpus", "format_record")}

    def spanned(fn, span_name):
        def wrapper(*args, **kwargs):
            with tracer.span(span_name):
                return fn(*args, **kwargs)
        return wrapper

    def ingest_stream(source, fmt, policy):
        seen.threads.add(threading.get_ident())
        with tracer.span("cli.read_decode"):
            lines = list(source)
        with tracer.span("ingest.ingest_stream"):
            records, report = originals["ingest_stream"](lines, fmt, policy)
            records = list(records)
        return iter(records), report

    def generate_corpus(params):
        with tracer.span("synth.generate_corpus"):
            records = list(originals["generate_corpus"](params))
        seen.records = len(records)
        return iter(records)

    record_span = tracer.leaf_recorder("ingest.format_record")

    def format_record(record, fmt, _real=originals["format_record"], _clock=time.perf_counter):
        start = _clock()
        line = _real(record, fmt)
        record_span(start, _clock())
        return line

    def write_tally_csv(table, out):
        seen.journals = len(table)
        with tracer.span(_CLI_SPANS["write_tally_csv"]):
            return originals["write_tally_csv"](table, out)

    def build_metrics_table(*args, **kwargs):
        with tracer.span(_CLI_SPANS["build_metrics_table"]):
            metrics = originals["build_metrics_table"](*args, **kwargs)
        seen.eligible = sum(m.eligible for m in metrics)
        return metrics

    wrappers = {name: spanned(originals[name], span) for name, span in _CLI_SPANS.items()}
    wrappers.update(
        ingest_stream=ingest_stream, generate_corpus=generate_corpus, format_record=format_record,
        write_tally_csv=write_tally_csv, build_metrics_table=build_metrics_table,
    )
    for name, fn in wrappers.items():
        setattr(cli, name, fn)
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)


def run_in_process(stage: str, args: list[str]) -> StageRun:
    """``cli.run(args)`` in this process, timed, with its stderr captured."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.run(args)
        except Exception:  # an exception the CLI let through: keep its traceback
            traceback.print_exc()
            code = 1
    return StageRun(stage, time.perf_counter() - start, code, err.getvalue())


def _data_lines(path: Path, fmt: Format) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        lines = [raw.rstrip("\r\n") for raw in fh]
    if lines and lines[0].startswith("\ufeff"):
        lines[0] = lines[0][1:]
    return lines[1:] if fmt is Format.CSV else lines


def _raw_journal(line: str, fmt: Format) -> str | None:
    """The journal field ``parse_record`` normalizes, or None when it stops
    at the field-count or class check first."""
    if fmt is Format.JSONL:
        try:
            obj = json.loads(line)
        except ValueError:
            return None
        if not isinstance(obj, dict):
            return None
        journal, label = obj.get("journal"), obj.get("class")
        if not (isinstance(journal, str) and isinstance(label, str) and isinstance(obj.get("citing_id", ""), str)):
            return None
    else:
        row = next(csv.reader([line]), [])
        if len(row) != 3:
            return None
        _, journal, label = row
    return journal if label.casefold() in CLASSES else None


def probe_ingest(tracer: Tracer, workload, counts: dict[str, float]) -> None:
    """Time ``parse_record`` and ``normalize_journal_key`` over the aggregate
    stage's input lines, and count what the input holds."""
    args = workload.stages["aggregate"]
    fmt = Format(args[args.index("-f") + 1])
    lines = [line for path in workload.inputs for line in _data_lines(path, fmt)]
    rejected = dict.fromkeys(ERROR_CLASSES, 0)
    with tracer.span("ingest.parse_record"):
        for line in lines:
            try:
                parse_record(line, fmt)
            except CitemetricError as exc:
                name = type(exc).__name__
                rejected[name] = rejected.get(name, 0) + 1
    raws = [raw for raw in (_raw_journal(line, fmt) for line in lines) if raw is not None]
    keys = []
    with tracer.span("model.normalize_journal_key"):
        for raw in raws:
            try:
                keys.append(normalize_journal_key(raw))
            except EmptyKeyError:
                pass
    counts.update({
        "ingest.lines": len(lines),
        **{f"ingest.rejected.{name}": n for name, n in rejected.items()},
        "ingest.repeated_line_share": 1.0 - len(set(lines)) / len(lines) if lines else 0.0,
        "model.normalize_calls": len(raws),
        "model.distinct_raw_keys": len(set(raws)),
        "model.distinct_keys": len(set(keys)),
    })


def probe_synth(tracer: Tracer, params, counts: dict[str, float]) -> None:
    """Time ``journal_counts`` over every journal; count rng draws untimed."""
    with tracer.span("synth.journal_counts"):
        for index in range(params.journals):
            journal_counts(params, index)
    draws = [0]

    class CountingSplitMix64(synth.SplitMix64):
        __slots__ = ()

        def next_u64(self) -> int:
            draws[0] += 1
            return super().next_u64()

    real = synth.SplitMix64
    synth.SplitMix64 = CountingSplitMix64
    try:
        for index in range(params.journals):
            journal_counts(params, index)
    finally:
        synth.SplitMix64 = real
    counts["rng.draws"] = draws[0]


def traced_rep(workload, checker: Checker, tracer: Tracer) -> dict[str, float]:
    """Run every traced stage in-process under the tracer, then its probes;
    return the rep's per-layer values."""
    values: dict[str, float] = {}
    for stage in TRACED_STAGES:
        args = workload.stages[stage]
        seen = StageTrace()
        tracer.run_id += 1
        first = len(tracer.names)
        with tracer.span(f"stage.{stage}"):
            with tracer.span("cli.run") as run_span, traced_cli(tracer, seen):
                run = run_in_process(stage, args)
            if stage == "synth":
                probe_synth(tracer, workload.synth_params, values)
            elif stage == "aggregate":
                probe_ingest(tracer, workload, values)
        if stage == "aggregate":
            run.problems.extend(_probe_problems(workload, values))
        checker.check(run)
        spans = list(islice(tracer.spans(), first, None))
        busy: dict[str, float] = {}
        for _, name, start, end, _, _ in spans:
            busy[name] = busy.get(name, 0.0) + (end - start)
        for name, total in busy.items():
            if not name.startswith(("stage.", "cli.run")):
                values[f"{name}_s"] = values.get(f"{name}_s", 0.0) + total
        run_s = busy["cli.run"]
        own = self_times(spans)[run_span]
        values.update({
            f"cli.{stage}.run_s": run_s,
            f"cli.{stage}.self_s": own,
            f"cli.{stage}.unaccounted_share": own / run_s,
        })
        if stage == "synth":
            values["synth.records"] = seen.records
        elif stage == "aggregate":
            values["cli.workers"] = len(seen.threads)
            values["aggregate.journals"] = seen.journals
        else:
            values["metrics.eligible"] = seen.eligible
    values["trace.pipeline_s"] = sum(values[f"cli.{s}.run_s"] for s in PIPELINES[workload.name])
    return values


def _probe_problems(workload, values: dict[str, float]) -> list[str]:
    oracle = workload.oracle
    problems = []
    if values["ingest.lines"] != oracle.lines:
        problems.append(f"probe read {values['ingest.lines']} lines, oracle says {oracle.lines}")
    for name, expected in oracle.rejected_by_class.items():
        if values[f"ingest.rejected.{name}"] != expected:
            problems.append(f"parse_record rejected {values[f'ingest.rejected.{name}']} lines "
                            f"with {name}, oracle says {expected}")
    return problems


def untraced_rep(workload, checker: Checker) -> float:
    """The workload's own stages in-process without wrappers; their total time."""
    total = 0.0
    for stage in PIPELINES[workload.name]:
        total += checker.check(run_in_process(stage, workload.stages[stage])).wall_s
    return total


def measure(launcher: Launcher, workload, checker: Checker, seconds: float, workdir: Path) -> dict[str, float]:
    """One pass of the reference and the traced stages as child processes,
    for their wall and CPU times, then alternate untraced and traced
    in-process pipelines until ``seconds`` would be overrun (at least
    MIN_TRACED_REPS each); per-layer medians."""
    children = {"reference_s": run_reference(launcher, workdir)}
    for stage in TRACED_STAGES:
        run = checker.check(run_stage(launcher, stage, workload.stages[stage], workdir))
        children[f"cli.{stage}.wall_s"] = run.wall_s
        children[f"cli.{stage}.cpu_user_s"] = run.cpu_user_s
        children[f"cli.{stage}.cpu_sys_s"] = run.cpu_sys_s
    tracer = Tracer()
    reps: list[dict[str, float]] = []
    untraced: list[float] = []
    start = time.perf_counter()
    while True:
        untraced.append(untraced_rep(workload, checker))
        reps.append(traced_rep(workload, checker, tracer))
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_TRACED_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    tracer.write(workdir / "spans.json")
    values = {name: statistics.median(rep[name] for rep in reps) for name in reps[0]}
    values.update(children)
    values["trace.untraced_pipeline_s"] = statistics.median(untraced)
    values["trace.overhead_s"] = values["trace.pipeline_s"] - values["trace.untraced_pipeline_s"]
    values["trace.overhead_share"] = values["trace.overhead_s"] / values["trace.untraced_pipeline_s"]
    values["reps"] = len(reps)
    return values
