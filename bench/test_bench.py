"""Tests of the benchmark itself, on tiny workloads.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from citemetric.aggregate import aggregate_corpus, merge_tables, write_tally_csv  # noqa: E402
from citemetric.ingest import Format, Policy, ingest_stream  # noqa: E402

WORKLOADS = sorted(workloads.BUILDERS)


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    """Workloads small enough for a test, scratch files under tmp_path."""
    monkeypatch.setattr(workloads, "PAPER_RECORDS", 20_000)
    monkeypatch.setattr(workloads, "WIDE_JOURNALS", 5_000)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")


def _inputs_bytes(workload) -> list[bytes]:
    return [path.read_bytes() for path in workload.inputs if path.exists()]


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_deterministic_per_seed(name, tmp_path):
    build = workloads.BUILDERS[name]
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first, second, other = build(7, dirs[0]), build(7, dirs[1]), build(8, dirs[2])
    assert _inputs_bytes(first) == _inputs_bytes(second)
    assert first.oracle.tally_csv == second.oracle.tally_csv
    assert first.oracle.corpus_sha256 == second.oracle.corpus_sha256
    assert first.oracle.tally_csv != other.oracle.tally_csv


@pytest.mark.parametrize("name", ["distinct-jsonl", "wide-dirty-csv"])
def test_oracle_equals_aggregate_corpus(name, tmp_path):
    workload = workloads.BUILDERS[name](3, tmp_path)
    fmt, policy = (Format.CSV, Policy.SKIP) if name == "wide-dirty-csv" else (Format.JSONL, Policy.STRICT)
    table = {}
    for path in workload.inputs:
        with open(path, encoding="utf-8") as fh:
            records, report = ingest_stream(fh, fmt, policy)
            table = merge_tables(table, aggregate_corpus(records))
        assert (report.accepted, report.rejected) == workload.oracle.per_file[str(path)]
    out = tmp_path / "tally.csv"
    with open(out, "w", encoding="utf-8", newline="") as fh:
        write_tally_csv(table, fh)
    assert out.read_bytes() == workload.oracle.tally_csv


def test_paper_oracle_matches_synth_corpus(tmp_path):
    from citemetric.ingest import format_record
    from citemetric.synth import generate_corpus

    workload = workloads.build_paper_pipeline(5, tmp_path)
    lines = "".join(format_record(r, Format.JSONL) + "\n" for r in generate_corpus(workload.synth_params))
    assert workloads.hashlib.sha256(lines.encode()).hexdigest() == workload.oracle.corpus_sha256
    with open(tmp_path / "tally.csv", "w", encoding="utf-8", newline="") as fh:
        write_tally_csv(aggregate_corpus(generate_corpus(workload.synth_params)), fh)
    assert (tmp_path / "tally.csv").read_bytes() == workload.oracle.tally_csv


def test_self_time_on_hand_built_tree():
    # (id, name, start, end, parent, run)
    spans = [
        (0, "root", 0.0, 10.0, -1, 0),
        (1, "a", 1.0, 4.0, 0, 0),
        (2, "b", 3.0, 6.0, 0, 0),  # overlaps a, as worker threads do
        (3, "c", 8.0, 12.0, 0, 0),  # runs past its parent's end
        (4, "a.1", 2.0, 3.0, 1, 0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 10 - 5 - 2, 1: 3 - 1, 2: 3, 3: 4, 4: 1})


def test_tracer_nests_spans_and_assigns_worker_threads_to_open_span():
    import threading

    tracer = tracing.Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            pass
        worker = threading.Thread(target=lambda: tracer.add("leaf", 0.0, 0.0))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    parents = dict(zip(tracer.names, tracer.parents))
    assert parents == {"outer": -1, "inner": outer, "leaf": outer}


class _Workload:
    def __init__(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("x\n")
        self.stages = {"synth": ["synth", "-o", str(corpus)]}
        self.oracle = workloads.Oracle(b"", {}, {}, 0, "not-the-digest")


@pytest.mark.parametrize(
    "code, stderr, problem",
    [
        (0, "", "synth corpus differs from the oracle"),
        (2, "", "exit code 2, expected 0"),
        (-9, "", "exit code -9 outside the 0/1/2/3 contract"),
        (1, "Traceback (most recent call last):\n", "traceback on stderr"),
    ],
)
def test_checker_counts_each_kind_of_failure(tmp_path, code, stderr, problem):
    checker = run.Checker(_Workload(tmp_path))
    checker.check(run.StageRun("synth", 0.1, code, stderr))
    assert (checker.attempted, checker.failed) == (1, 1)
    assert f"synth: {problem}" in checker.problems


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_has_no_failures(name, trace, monkeypatch):
    monkeypatch.setattr(run, "SETUPS", (1, 1))
    result = run.run_workload(name, seed=1, seconds=0.1, trace=trace)
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= 3
    expected = tracing.PER_LAYER if trace else run.END_TO_END
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    if trace:
        share = result["metrics"]["ingest.repeated_line_share"]["value"]
        assert share > 0.9 if name == "paper-pipeline" else share == 0.0


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.PIPELINES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
