import ast
import contextlib
import csv
import errno
import gc
import hashlib
import io
import itertools
import json
import os
import random
import re
import runpy
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from collections import deque
from functools import partial
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import citemetric.cli as cli
from citemetric import ingest, ranges, stats, synth
from citemetric.cli import EXIT_DATA, EXIT_INTERRUPTED, EXIT_IO, EXIT_OK, EXIT_USAGE, run
from citemetric.ingest import CSV_HEADER, Format, format_record
from citemetric.synth import SynthParams, generate_corpus, journal_counts

#: A field longer than the csv module's default field size limit (131072).
HUGE = "x" * 200_000
#: The most bytes a line may hold, its newline included.
MIB = 1 << 20

GOOD_LINES = [
    '{"journal":"alpha","class":"supporting"}',
    '{"journal":"alpha","class":"disputing"}',
    '{"journal":"beta","class":"mentioning"}',
]


def write_lines(path: Path, lines) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def cli_child(args, prelude: str = "") -> dict:
    """``args`` and ``env`` for a subprocess call that runs ``citemetric
    ARGS`` from this checkout's package, after running ``prelude``."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"{prelude}\nimport sys\nfrom citemetric.cli import run\nsys.exit(run(sys.argv[1:]))"
    return {"args": [sys.executable, "-c", code, *map(str, args)], "env": env}


def make_tally(path: Path, rows) -> Path:
    lines = ["journal,supporting,disputing,mentioning,total"]
    for journal, s, d, m in rows:
        lines.append(f"{journal},{s},{d},{m},{s + d + m}")
    return write_lines(path, lines)


class TestUsageErrors:
    def test_no_command(self):
        assert run([]) == EXIT_USAGE

    def test_unknown_command(self):
        assert run(["frobnicate"]) == EXIT_USAGE

    def test_aggregate_requires_output(self, tmp_path):
        src = write_lines(tmp_path / "in.jsonl", GOOD_LINES)
        assert run(["aggregate", str(src)]) == EXIT_USAGE

    def test_synth_requires_journals_or_preset(self, tmp_path, capsys):
        assert run(["synth", "-o", str(tmp_path / "c.jsonl")]) == EXIT_USAGE
        assert "--journals" in capsys.readouterr().err

    def test_synth_invalid_params_exit_usage(self, tmp_path, capsys):
        code = run(["synth", "--journals", "5", "--beta-alpha", "0", "-o", str(tmp_path / "c")])
        assert code == EXIT_USAGE
        assert "beta_alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            pytest.param("synth", "--journals", "abc", "invalid int value: 'abc'", id="journals-abc"),
            pytest.param("synth", "--journals", "0", "must be >= 1, got 0", id="journals-0"),
            pytest.param("report", "--min-citations", "x", "invalid int value: 'x'", id="min-citations-x"),
            pytest.param("report", "--min-citations", "-1", "must be >= 0, got -1", id="min-citations-negative"),
            pytest.param("report", "--min-classified", "0", "must be >= 1, got 0", id="min-classified-0"),
        ],
    )
    def test_bad_int_option(self, tmp_path, capsys, command, flag, value, message):
        tally = [make_tally(tmp_path / "t.csv", [("a", 5, 5, 100)])] if command == "report" else []
        code = run([command, *map(str, tally), flag, value, "-o", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(f"citemetric {command}: error: argument {flag}: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_help_exits_zero(self):
        assert run(["--help"]) == EXIT_OK


class TestAggregate:
    def test_happy_path_and_report_on_stderr(self, tmp_path, capsys):
        src = write_lines(tmp_path / "in.jsonl", GOOD_LINES)
        out = tmp_path / "tallies.csv"
        assert run(["aggregate", "-f", "jsonl", str(src), "-o", str(out)]) == EXIT_OK
        assert out.read_text() == (
            "journal,supporting,disputing,mentioning,total\n"
            "alpha,1,1,0,2\n"
            "beta,0,0,1,1\n"
        )
        err = capsys.readouterr().err
        assert "3 accepted, 0 rejected" in err

    @pytest.mark.parametrize(
        "bad_line, parts",
        [
            pytest.param(bad_line, parts, id=bad_line if parts == 1 else f"{bad_line}-forked")
            for parts in (1, 2)
            # a batch's columns split around it; a batch parsed line by line
            for bad_line in ("w2,alpha,bogus", 'w2,"alpha,supporting')
        ],
    )
    def test_folds_without_building_a_record(self, tmp_path, monkeypatch, bad_line, parts):
        def read(stream):
            raise AssertionError("a RecordStream was iterated")

        monkeypatch.setattr(ingest.RecordStream, "__iter__", read)
        monkeypatch.setattr(ingest.RecordStream, "__next__", read)
        monkeypatch.setattr(ingest, "CitationRecord", None)  # a record built in ingest raises TypeError
        # Forked workers inherit the patches: one that builds a record exits
        # non-zero, and the run exits 3.
        monkeypatch.setattr(ranges, "usable_cpus", lambda: parts)
        monkeypatch.setattr(ranges, "MIN_RANGE_BYTES", 32)
        lines = ["citing_id,journal,class", "w1,alpha,supporting", bad_line, "w3,beta,mentioning", "w4,alpha,disputing"]
        src = write_lines(tmp_path / "in.csv", lines)
        assert len(ranges.plan_ranges(str(src), parts)) == parts
        out = tmp_path / "t.csv"
        assert run(["aggregate", "-f", "csv", "--policy", "skip", str(src), "-o", str(out)]) == EXIT_OK
        assert out.read_text() == (
            "journal,supporting,disputing,mentioning,total\n"
            "alpha,1,1,0,2\n"
            "beta,0,0,1,1\n"
        )

    def test_csv_format(self, tmp_path):
        src = write_lines(
            tmp_path / "in.csv",
            ["citing_id,journal,class", "w1,alpha,supporting", "w2,alpha,disputing"],
        )
        out = tmp_path / "t.csv"
        assert run(["aggregate", "-f", "csv", str(src), "-o", str(out)]) == EXIT_OK
        assert "alpha,1,1,0,2" in out.read_text()

    def test_missing_input_is_io_error_naming_path(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run(["aggregate", str(tmp_path / "nope.jsonl"), "-o", str(out)]) == EXIT_IO
        assert "nope.jsonl" in capsys.readouterr().err

    def test_strict_failure_names_file_and_line(self, tmp_path, capsys):
        src = write_lines(tmp_path / "in.jsonl", [GOOD_LINES[0], "garbage", GOOD_LINES[1]])
        assert run(["aggregate", str(src), "-o", str(tmp_path / "t.csv")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "in.jsonl" in err and "line 2" in err

    def test_skip_policy_continues(self, tmp_path, capsys):
        src = write_lines(tmp_path / "in.jsonl", [GOOD_LINES[0], "garbage", GOOD_LINES[1]])
        out = tmp_path / "t.csv"
        code = run(["aggregate", "--policy", "skip", str(src), "-o", str(out)])
        assert code == EXIT_OK
        assert "2 accepted, 1 rejected" in capsys.readouterr().err
        assert "alpha,1,1,0,2" in out.read_text()

    def test_two_files_equal_concatenation_either_order(self, tmp_path):
        one = write_lines(tmp_path / "one.jsonl", GOOD_LINES[:2])
        two = write_lines(tmp_path / "two.jsonl", GOOD_LINES[2:] * 3)
        both = write_lines(tmp_path / "both.jsonl", GOOD_LINES[:2] + GOOD_LINES[2:] * 3)
        outs = []
        for i, inputs in enumerate(([one, two], [two, one], [both])):
            out = tmp_path / f"t{i}.csv"
            assert run(["aggregate", *map(str, inputs), "-o", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_each_file_is_merged_as_soon_as_it_is_folded(self, tmp_path, monkeypatch):
        calls = []

        def spy(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return call

        monkeypatch.setattr(ranges, "fold_file", spy("fold", ranges.fold_file))
        monkeypatch.setattr(cli, "merge_tables", spy("merge", cli.merge_tables))
        inputs = [write_lines(tmp_path / f"in{i}.jsonl", GOOD_LINES[i:]) for i in range(3)]
        assert run(["aggregate", *map(str, inputs), "-o", str(tmp_path / "t.csv")]) == EXIT_OK
        assert calls == ["fold", "merge"] * 3

    def test_non_utf8_input_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        src.write_bytes(b'{"journal":"a","class":"supporting"}\n\xff\xfe\n')
        assert run(["aggregate", str(src), "-o", str(tmp_path / "t.csv")]) == EXIT_DATA
        assert "UTF-8" in capsys.readouterr().err

    def test_oversized_csv_field_is_a_rejected_line(self, tmp_path, capsys):
        src = write_lines(
            tmp_path / "in.csv",
            ["citing_id,journal,class", "w1,alpha,supporting", f"w2,{HUGE},supporting", "w3,alpha,disputing"],
        )
        out = tmp_path / "t.csv"
        assert run(["aggregate", "-f", "csv", "--policy", "skip", str(src), "-o", str(out)]) == EXIT_OK
        err = capsys.readouterr().err
        assert "2 accepted, 1 rejected" in err
        assert "in.csv:3: MalformedLineError: invalid CSV: field larger than field limit" in err
        assert "alpha,1,1,0,2" in out.read_text()
        assert run(["aggregate", "-f", "csv", str(src), "-o", str(out)]) == EXIT_DATA
        assert "line 3" in capsys.readouterr().err

    def test_a_bare_cr_in_a_csv_field_is_worded_without_csv_advice(self, tmp_path, capsys):
        src = write_lines(tmp_path / "in.csv", ["citing_id,journal,class", "w1,alpha,supporting", "w2,Na\rture,supporting"])
        out = tmp_path / "t.csv"
        reason = "invalid CSV: new-line character seen in unquoted field"
        assert run(["aggregate", "-f", "csv", str(src), "-o", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == f"citemetric: error: {src}: line 3: {reason}\n"
        assert run(["aggregate", "-f", "csv", "--policy", "skip", str(src), "-o", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == f"{src}: 1 accepted, 1 rejected\n  {src}:3: MalformedLineError: {reason}\n"

    @pytest.mark.parametrize("bad", ["w\0x,Nature,supporting", "w1,Na\0ture,supporting", "w1,Nature,supporting\0"])
    def test_a_nul_in_a_csv_line_is_refused_on_every_python(self, tmp_path, capsys, bad):
        src = write_lines(tmp_path / "in.csv", ["citing_id,journal,class", "w0,Nature,supporting", bad])
        out = tmp_path / "t.csv"
        reason = "invalid CSV: line contains NUL"
        assert run(["aggregate", "-f", "csv", str(src), "-o", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == f"citemetric: error: {src}: line 3: {reason}\n"
        assert run(["aggregate", "-f", "csv", "--policy", "skip", str(src), "-o", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == f"{src}: 1 accepted, 1 rejected\n  {src}:3: MalformedLineError: {reason}\n"
        assert out.read_text() == "journal,supporting,disputing,mentioning,total\nnature,1,0,0,1\n"

    @pytest.mark.parametrize(
        "bad, message",
        [
            (r'{"journal":"\ud800","class":"supporting"}', "journal holds a lone surrogate, which UTF-8 cannot encode"),
            (r'{"journal":"na\u0000ture","class":"supporting"}', "journal holds U+0000, which a tally CSV cannot carry"),
            ("[" * 100_000, "invalid JSON: "),
            ('{"journal":"a","class":"supporting","x":' + "[" * 100_000 + "]" * 100_000 + "}", "invalid JSON: "),
        ],
        ids=["lone-surrogate", "nul", "deep-array", "deep-value"],
    )
    def test_lone_surrogate_or_deep_nesting_is_a_rejected_line(self, tmp_path, capsys, bad, message):
        src = write_lines(tmp_path / "in.jsonl", [bad, GOOD_LINES[0]])
        out = tmp_path / "t.csv"
        assert run(["aggregate", str(src), "-o", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"citemetric: error: {src}: line 1: {message}")
        assert err.count("\n") == 1 and not out.exists()
        assert run(["aggregate", "--policy", "skip", str(src), "-o", str(out)]) == EXIT_OK
        err = capsys.readouterr().err
        assert err.startswith(f"{src}: 1 accepted, 1 rejected\n  {src}:1: MalformedLineError: {message}")
        assert out.read_text() == "journal,supporting,disputing,mentioning,total\nalpha,1,0,0,1\n"

    def test_oversized_csv_header_is_data_error(self, tmp_path, capsys):
        src = write_lines(tmp_path / "in.csv", [f"citing_id,{HUGE},class", "w1,alpha,supporting"])
        code = run(["aggregate", "-f", "csv", "--policy", "skip", str(src), "-o", str(tmp_path / "t.csv")])
        assert code == EXIT_DATA
        assert "line 1: invalid CSV" in capsys.readouterr().err

    @staticmethod
    def journal_line(size: int) -> tuple[str, str]:
        """A JSONL line of ``size`` bytes, its newline included, without the
        newline, and its journal."""
        head, tail = '{"journal":"', '","class":"supporting"}\n'
        journal = "x" * (size - len(head) - len(tail))
        return head + journal + tail[:-1], journal

    @pytest.mark.parametrize("policy", ["strict", "skip"])
    def test_a_line_over_the_cap_is_a_data_error_at_its_offset(self, tmp_path, capsys, policy):
        src = write_lines(tmp_path / "in.jsonl", [GOOD_LINES[0], self.journal_line(MIB + 1)[0], GOOD_LINES[1]])
        out = tmp_path / "t.csv"
        assert run(["aggregate", "--policy", policy, str(src), "-o", str(out)]) == EXIT_DATA
        offset = len(GOOD_LINES[0]) + 1
        assert capsys.readouterr().err == (
            f"citemetric: error: {src}: line too long: the line at byte {offset} holds more than 1048576 bytes\n"
        )
        assert not out.exists()

    def test_a_line_of_exactly_the_cap_is_accepted(self, tmp_path, capsys):
        line, journal = self.journal_line(MIB)
        src = write_lines(tmp_path / "in.jsonl", [GOOD_LINES[0], line, GOOD_LINES[1]])
        out = tmp_path / "t.csv"
        assert run(["aggregate", str(src), "-o", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == f"{src}: 3 accepted, 0 rejected\n"
        assert out.read_text() == (
            "journal,supporting,disputing,mentioning,total\n"
            "alpha,1,1,0,2\n"
            f"{journal},1,0,0,1\n"
        )

    def test_one_long_line_without_a_newline_is_never_held(self, tmp_path):
        # 32 MiB in one line: refused after its first MiB, with no range
        # cut scanning the rest for a newline.
        src = tmp_path / "in.jsonl"
        with open(src, "wb") as fh:
            fh.write(b'{"journal":"')
            for _ in range(32):
                fh.write(b"x" * (1 << 20))
            fh.write(b'","class":"supporting"}')
        # Peak RSS from os.wait4 in a small waiter process: a child of this
        # test process would count this process's pages as its own.
        child = cli_child(["aggregate", src, "-o", tmp_path / "t.csv"])
        waiter = (
            "import os, sys\n"
            "_, status, usage = os.wait4(os.spawnv(os.P_NOWAIT, sys.argv[1], sys.argv[1:]), 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", waiter, *child["args"]], env=child["env"], capture_output=True, text=True, timeout=60
        )
        code, peak_kib = map(int, proc.stdout.split())
        assert code == EXIT_DATA
        assert proc.stderr.endswith("line too long: the line at byte 0 holds more than 1048576 bytes\n")
        assert peak_kib < 64 * 1024
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


class TestUnwritableStderr:
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    def test_unwritable_stderr_is_io_error(self, tmp_path, monkeypatch):
        src = write_lines(tmp_path / "in.jsonl", GOOD_LINES)
        monkeypatch.setattr(sys, "stderr", self.Full())
        assert run(["aggregate", str(src), "-o", str(tmp_path / "t.csv")]) == EXIT_IO
        # The error print fails too; the first error still sets the code.
        bad = write_lines(tmp_path / "bad.jsonl", ["garbage"])
        assert run(["aggregate", str(bad), "-o", str(tmp_path / "t.csv")]) == EXIT_DATA
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl", "in.jsonl"]

    class FailsOnce(io.StringIO):
        """A stderr whose ``k``-th write raises EIO; 0 never fails."""

        def __init__(self, k):
            super().__init__()
            self.k, self.writes = k, 0

        def write(self, text):
            self.writes += 1
            if self.writes == self.k:
                raise OSError(errno.EIO, "Input/output error")
            return super().write(text)

    def test_failed_kth_stderr_write_is_io_error(self, tmp_path, monkeypatch):
        a = write_lines(tmp_path / "a.jsonl", [*GOOD_LINES, "garbage", "{}"])
        b = write_lines(tmp_path / "b.jsonl", ["garbage", *GOOD_LINES])
        args = ["aggregate", "--policy", "skip", str(a), str(b), "-o", str(tmp_path / "t.csv")]
        counting = self.FailsOnce(0)
        monkeypatch.setattr(sys, "stderr", counting)
        assert run(args) == EXIT_OK
        (tmp_path / "t.csv").unlink()
        assert counting.writes == 10  # five report lines, each a text and a newline write
        for k in range(1, counting.writes + 1):
            stderr = self.FailsOnce(k)
            monkeypatch.setattr(sys, "stderr", stderr)
            assert run(args) == EXIT_IO, k
            assert sorted(p.name for p in tmp_path.iterdir()) == ["a.jsonl", "b.jsonl"], k
            assert "Traceback" not in stderr.getvalue(), k

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_stderr_on_a_full_device_exits_3(self, tmp_path):
        src = write_lines(tmp_path / "in.jsonl", GOOD_LINES)
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(**cli_child(["aggregate", src, "-o", tmp_path / "t.csv"]), stderr=full, timeout=60)
        assert proc.returncode == EXIT_IO


class TestEntry:
    """``python -m citemetric.cli`` and the ``citemetric`` script run
    ``main``, which freezes the import-time heap out of the cyclic garbage
    collector; ``run``, which callers use in-process, never freezes."""

    def report_argv(self, tmp_path):
        return ["report", str(make_tally(tmp_path / "t.csv", TestReport.ROWS)), "-o", str(tmp_path / "out")]

    def test_main_freezes_once_then_exits_with_the_code_of_run(self, tmp_path, monkeypatch):
        frozen = []
        monkeypatch.setattr(gc, "freeze", lambda: frozen.append("freeze"))
        assert run(self.report_argv(tmp_path)) == EXIT_OK
        assert frozen == []
        monkeypatch.setattr(sys, "argv", ["citemetric", *self.report_argv(tmp_path)])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == EXIT_OK and len(frozen) == 1
        monkeypatch.setattr(sys, "argv", ["citemetric", "report"])
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
            cli.main()
        assert exc.value.code == EXIT_USAGE and len(frozen) == 2

    def test_module_and_script_run_main(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(sys, "argv", ["citemetric", *self.report_argv(tmp_path)])
        with pytest.raises(SystemExit) as exc, warnings.catch_warnings():
            # runpy warns that the module it runs as __main__ is imported already.
            warnings.simplefilter("ignore", RuntimeWarning)
            runpy.run_module("citemetric.cli", run_name="__main__")
        assert exc.value.code == EXIT_OK and calls == ["freeze"]
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        assert '\ncitemetric = "citemetric.cli:main"\n' in pyproject


#: The names bench/tracing.py swaps in cli's namespace to time each stage.
TRACED = {
    "aggregate": ("ingest_stream", "aggregate_corpus", "merge_tables", "write_tally_csv"),
    "report": (
        "read_tally_csv",
        "build_metrics_table",
        "write_metrics_csv",
        "summarize",
        "correlation_report",
        "histogram",
        "scatter_points",
        "write_summary_json",
        "write_correlations_json",
        "write_histogram_csv",
        "write_scatter_csv",
    ),
    "synth": ("generate_corpus", "format_record"),
}


@pytest.mark.parametrize("command, name", [(c, n) for c, names in TRACED.items() for n in names])
def test_traced_names_are_called_through_the_cli_namespace(tmp_path, monkeypatch, command, name):
    calls = []
    real = getattr(cli, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    if command == "aggregate":
        args = [write_lines(tmp_path / "in.jsonl", GOOD_LINES), "-o", tmp_path / "t.csv"]
    elif command == "report":
        args = [make_tally(tmp_path / "t.csv", TestReport.ROWS), "-o", tmp_path / "out"]
    else:
        args = ["--journals", "3", "--seed", "1", "-o", tmp_path / "c.jsonl"]
    assert run([command, *map(str, args)]) == EXIT_OK
    assert calls


def test_traced_names_match_the_benchmark_tracer():
    # Read, not imported, so that the names are checked without the benchmark's imports.
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "tracing.py").read_text(encoding="utf-8"))
    spans = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "_CLI_SPANS" for t in node.targets)
    )
    traced_cli = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "traced_cli")
    loops = [
        node.iter
        for node in ast.walk(traced_cli)
        if isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.target, ast.Name) and node.target.id == "name"
    ]
    assert len(loops) == 1 and isinstance(loops[0], ast.Tuple)
    swapped = {ast.literal_eval(key) for key in spans.keys}
    swapped.update(ast.literal_eval(elt) for elt in loops[0].elts if not isinstance(elt, ast.Starred))
    assert swapped == {name for names in TRACED.values() for name in names}


class TestReport:
    ROWS = [
        ("alpha", 150, 50, 0),
        ("beta", 10, 30, 100),
        ("gamma", 1, 1, 1),
        ("delta", 120, 2, 30),
    ]

    def run_report(self, tmp_path, extra=()):
        tally = make_tally(tmp_path / "t.csv", self.ROWS)
        outdir = tmp_path / "out"
        code = run(["report", str(tally), *extra, "-o", str(outdir)])
        return code, outdir

    def test_writes_all_five_artifacts(self, tmp_path):
        code, outdir = self.run_report(tmp_path)
        assert code == EXIT_OK
        names = sorted(p.name for p in outdir.iterdir())
        assert names == [
            "correlations.json",
            "metrics.csv",
            "si_histogram.csv",
            "si_scatter.csv",
            "summary.json",
        ]
        summary = json.loads((outdir / "summary.json").read_text())
        assert set(summary) == {"supporting", "disputing", "scite_index"}
        assert summary["supporting"]["count"] == 4
        assert summary["scite_index"]["count"] == 3  # eligible journals only

    def test_si_count_at_most_journal_count(self, tmp_path):
        _, outdir = self.run_report(tmp_path)
        with open(outdir / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sum(r["scite_index"] != "" for r in rows) <= len(rows)

    def test_zero_threshold_gives_index_to_every_classified_journal(self, tmp_path):
        code, outdir = self.run_report(tmp_path, ("--min-citations", "0"))
        assert code == EXIT_OK
        with open(outdir / "metrics.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                assert (row["eligible"] == "true") == (int(row["classified"]) >= 1)

    def test_rerun_byte_identical(self, tmp_path):
        _, first = self.run_report(tmp_path)
        tally = make_tally(tmp_path / "t2.csv", self.ROWS)
        second = tmp_path / "out2"
        assert run(["report", str(tally), "-o", str(second)]) == EXIT_OK
        for name in ARTIFACTS:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_corrupt_tally_is_data_error(self, tmp_path, capsys):
        bad = write_lines(tmp_path / "t.csv", ["journal,supporting,disputing,mentioning,total", "a,1,2,3,99"])
        assert run(["report", str(bad), "-o", str(tmp_path / "out")]) == EXIT_DATA
        assert "row 2" in capsys.readouterr().err

    def test_count_the_writer_never_writes_is_data_error(self, tmp_path, capsys):
        rows = ["journal,supporting,disputing,mentioning,total", "a,1_0,0,0,10", "b, 5,+1,\u0663,9"]
        bad = write_lines(tmp_path / "t.csv", rows)
        assert run(["report", str(bad), "-o", str(tmp_path / "out")]) == EXIT_DATA
        assert capsys.readouterr().err == f"citemetric: error: {bad}: row 2: invalid count '1_0'\n"
        assert not (tmp_path / "out" / "metrics.csv").exists()

    def test_insufficient_data_names_statistic(self, tmp_path, capsys):
        tally = make_tally(tmp_path / "t.csv", [("solo", 5, 5, 100)])
        assert run(["report", str(tally), "-o", str(tmp_path / "out")]) == EXIT_DATA
        assert "supporting" in capsys.readouterr().err

    def test_missing_tally_is_io_error(self, tmp_path):
        assert run(["report", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "out")]) == EXIT_IO

    def test_non_utf8_tally_is_data_error(self, tmp_path, capsys):
        tally = tmp_path / "t.csv"
        tally.write_bytes(b"journal,supporting,disputing,mentioning,total\n\xff\xfe,1,2,3,6\n")
        assert run(["report", str(tally), "-o", str(tmp_path / "out")]) == EXIT_DATA
        assert "UTF-8" in capsys.readouterr().err

    def test_interrupt_during_the_tally_read_exits_130(self, tmp_path, monkeypatch, capsys):
        def read_lines(path):
            yield "journal,supporting,disputing,mentioning,total\n"
            yield "a,1,0,0,5\n"  # a bad row, read before the interrupt
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "read_lines", read_lines)
        assert run(["report", str(tmp_path / "t.csv"), "-o", str(tmp_path / "out")]) == EXIT_INTERRUPTED
        assert capsys.readouterr().err == "citemetric: interrupted\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_of_memory_while_decoding_is_exit_3_and_keeps_the_old_artifacts(
        self, tmp_path, monkeypatch, capsys
    ):
        code, outdir = self.run_report(tmp_path)
        assert code == EXIT_OK
        old = {p.name: p.read_bytes() for p in outdir.iterdir()}
        capsys.readouterr()

        def decode(data, offset):
            raise MemoryError

        monkeypatch.setattr(ingest, "_decode", decode)
        assert run(["report", str(tmp_path / "t.csv"), "--min-citations", "0", "-o", str(outdir)]) == EXIT_IO
        assert capsys.readouterr().err == "citemetric: error: out of memory\n"
        assert {p.name: p.read_bytes() for p in outdir.iterdir()} == old

    def test_each_column_is_centred_once(self, tmp_path, monkeypatch):
        # summarize and correlation_report read the supporting, disputing
        # and index columns; correlation_report reads the totals twice.
        centred = []
        real = stats._centre

        def centre(xs):
            centred.append(tuple(xs))
            return real(xs)

        monkeypatch.setattr(stats, "_centre", centre)
        code, _ = self.run_report(tmp_path)
        assert code == EXIT_OK
        s, d, m = zip(*(counts for _, *counts in sorted(self.ROWS)))
        totals = tuple(map(sum, zip(s, d, m)))
        eligible_totals = tuple(t for t in totals if t > 100)
        assert len(centred) == 5 and len(set(centred)) == 5
        assert {s, d, totals, eligible_totals} < set(centred)

    def test_a_nul_in_the_tally_is_refused_on_every_python(self, tmp_path, capsys):
        tally = write_lines(tmp_path / "t.csv", ["journal,supporting,disputing,mentioning,total", "a,1,0,0,1", "b\0,1,0,0,1"])
        assert run(["report", str(tally), "-o", str(tmp_path / "out")]) == EXIT_DATA
        assert capsys.readouterr().err == f"citemetric: error: {tally}: line 3: invalid CSV: line contains NUL\n"
        assert not (tmp_path / "out").exists()

    def test_tally_errors_name_the_tally(self, tmp_path, capsys):
        bad = write_lines(tmp_path / "t.csv", ["journal,supporting,disputing,mentioning,total", "a,1,2,3,99"])
        assert run(["report", str(bad), "-o", str(tmp_path / "out")]) == EXIT_DATA
        assert capsys.readouterr().err == f"citemetric: error: {bad}: row 2: total 99 != 6\n"

    def test_invalid_utf8_in_tally_is_named_at_its_file_offset(self, tmp_path, capsys):
        tally = make_tally(tmp_path / "t.csv", [(f"j{i:05d}", 1, 2, 3) for i in range(1500)])
        body = tally.read_bytes()
        assert len(body) > 16384  # past the first 8 KiB and the first read block
        tally.write_bytes(body + b"\xff,1,2,3,6\n")
        assert run(["report", str(tally), "-o", str(tmp_path / "out")]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"citemetric: error: {tally}: invalid UTF-8: 'utf-8' codec can't decode byte 0xff "
            f"in position {len(body)}: invalid start byte\n"
        )

    def test_oversized_tally_field_is_data_error(self, tmp_path, capsys):
        tally = make_tally(tmp_path / "t.csv", [("alpha", 1, 2, 3), (HUGE, 1, 2, 3)])
        assert run(["report", str(tally), "-o", str(tmp_path / "out")]) == EXIT_DATA
        assert "line 3: invalid CSV: field larger than field limit" in capsys.readouterr().err

    def test_a_bare_cr_in_a_tally_row_is_worded_without_csv_advice(self, tmp_path, capsys):
        tally = make_tally(tmp_path / "t.csv", [("alpha", 1, 2, 3), ("na\rture", 1, 2, 3)])
        assert run(["report", str(tally), "-o", str(tmp_path / "out")]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"citemetric: error: {tally}: line 3: invalid CSV: new-line character seen in unquoted field\n"
        )

    def test_a_quoted_journal_split_across_lines_is_a_data_error(self, tmp_path, capsys):
        # A tally line is one row: the journal "a\nb" does not read as "a b".
        tally = write_lines(tmp_path / "t.csv", ["journal,supporting,disputing,mentioning,total", '"a', 'b",1,0,0,1'])
        assert run(["report", str(tally), "-o", str(tmp_path / "out")]) == EXIT_DATA
        assert capsys.readouterr().err == f"citemetric: error: {tally}: row 2: expected 5 fields, got 1\n"
        assert not (tmp_path / "out").exists()

    def test_a_tally_line_over_the_cap_is_a_data_error(self, tmp_path, capsys):
        tally = make_tally(tmp_path / "t.csv", [("alpha", 1, 2, 3), ("x" * MIB, 1, 2, 3)])
        assert run(["report", str(tally), "-o", str(tmp_path / "out")]) == EXIT_DATA
        offset = len("journal,supporting,disputing,mentioning,total\nalpha,1,2,3,6\n")
        assert capsys.readouterr().err == (
            f"citemetric: error: {tally}: line too long: the line at byte {offset} holds more than 1048576 bytes\n"
        )
        assert not (tmp_path / "out").exists()

    def test_bom_before_tally_header_is_tolerated(self, tmp_path):
        _, plain = self.run_report(tmp_path)
        tally = tmp_path / "bom.csv"
        tally.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "t.csv").read_bytes())
        assert run(["report", str(tally), "-o", str(tmp_path / "bom")]) == EXIT_OK
        for name in ARTIFACTS:
            assert (tmp_path / "bom" / name).read_bytes() == (plain / name).read_bytes()


ARTIFACTS = ("metrics.csv", "summary.json", "correlations.json", "si_histogram.csv", "si_scatter.csv")


def write_pinned_tally(path: Path, journals: int = 3000) -> Path:
    """A seeded tally: raw keys with commas, quotes, spacing and case to
    normalize, ISSN forms with a lowercase check digit, eligible and
    ineligible journals, journals with no disputing citation (the SI = 1.0
    atom) and a few counts near 2**64."""
    rnd = random.Random(20210)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("journal", "supporting", "disputing", "mentioning", "total"))
        for i in range(journals):
            kind = i % 4
            if kind == 0:
                key = f"{i:04d}-{rnd.randrange(1000):03d}{rnd.choice('0123456789Xx')}"
            elif kind == 1:
                key = f' Annals of "Applied", Series  {i} '
            else:
                key = f"{rnd.choice(('Journal', 'REVIEW', 'letters'))}\t{i}, part {rnd.randrange(9)}"
            if i % 500 == 7:
                s, d, m = (rnd.randrange(2**62, 2**63) for _ in range(3))
            elif kind == 3:  # eligible at the default threshold
                s, d, m = rnd.randrange(1, 5000), rnd.randrange(3) * rnd.randrange(400), rnd.randrange(2000)
            else:
                s, d, m = rnd.randrange(60), rnd.randrange(20), rnd.randrange(30)
            writer.writerow((key, s, d, m, s + d + m))
    return path


class TestPinnedReport:
    #: sha256 of each artifact of ``report`` on :func:`write_pinned_tally`'s tally.
    DIGESTS = {
        "metrics.csv": "fa57c8f571b0bc0212a44ee42a585ff2021e0b9c552005d9af3884ee5c3f6edf",
        "summary.json": "f532a4696bf56961cc74e5d5c772ba24323fc84d75b953386a9004e59ef9c4f9",
        "correlations.json": "69edcab4a50dee94514df2efad4a47cad9c99f8aa9c6a0fff0c58633e041f96f",
        "si_histogram.csv": "f7f5f8f7206dbd7c0a88f15580abbf120a40900c8cf6e409b974b4961f19bc6c",
        "si_scatter.csv": "f20c2c7a90e5e400512b0e5196a32e2e00aea1ce7e496368b3017649cce3c74f",
    }

    def test_artifact_bytes(self, tmp_path):
        tally = write_pinned_tally(tmp_path / "t.csv")
        assert run(["report", str(tally), "-o", str(tmp_path / "out")]) == EXIT_OK
        got = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in ARTIFACTS}
        assert got == self.DIGESTS


class TestAtomicWrites:
    @staticmethod
    def failing(real):
        def write(data, fh):
            real(data, fh)
            raise OSError(28, "No space left on device")

        return write

    def test_failed_tally_write_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        src = write_lines(tmp_path / "in.jsonl", GOOD_LINES)
        monkeypatch.setattr(cli, "write_tally_csv", self.failing(cli.write_tally_csv))
        assert run(["aggregate", str(src), "-o", str(tmp_path / "t.csv")]) == EXIT_IO
        assert "No space left on device" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]

    def test_unopenable_temporary_file_names_the_destination(self, tmp_path, capsys):
        src = write_lines(tmp_path / "in.jsonl", GOOD_LINES)
        out = tmp_path / "missing" / "t.csv"
        assert run(["aggregate", str(src), "-o", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert f"No such file or directory: {str(out)!r}" in err and ".tmp" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]

    def test_interrupt_as_the_temporary_file_opens_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        # A signal handled just as open returns raises at the call, after the
        # file is made: a SIGTERM sent once the .tmp shows can land there.
        def opened_then_interrupted(*args, **kwargs):
            open(*args, **kwargs).close()
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "open", opened_then_interrupted, raising=False)
        assert run(["synth", "--journals", "2", "-o", str(tmp_path / "c.jsonl")]) == EXIT_INTERRUPTED
        assert capsys.readouterr().err == "citemetric: interrupted\n"
        assert list(tmp_path.iterdir()) == []

    def test_failed_tally_write_keeps_the_old_tally(self, tmp_path, monkeypatch):
        src = write_lines(tmp_path / "in.jsonl", GOOD_LINES)
        out = tmp_path / "t.csv"
        out.write_text("old\n")
        monkeypatch.setattr(cli, "write_tally_csv", self.failing(cli.write_tally_csv))
        assert run(["aggregate", str(src), "-o", str(out)]) == EXIT_IO
        assert out.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "t.csv"]

    def test_failed_artifact_write_leaves_no_file(self, tmp_path, monkeypatch):
        tally = make_tally(tmp_path / "t.csv", TestReport.ROWS)
        monkeypatch.setattr(cli, "write_histogram_csv", self.failing(cli.write_histogram_csv))
        assert run(["report", str(tally), "-o", str(tmp_path / "out")]) == EXIT_IO
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("k", range(1, len(ARTIFACTS) + 1))
    def test_failed_artifact_write_keeps_every_old_artifact(self, tmp_path, monkeypatch, capsys, k):
        tally = make_tally(tmp_path / "t.csv", TestReport.ROWS)
        out = tmp_path / "out"
        out.mkdir()
        old = {name: f"old {name}\n".encode() for name in ARTIFACTS}
        for name, body in old.items():
            (out / name).write_bytes(body)
        real = cli._atomic_write
        opened = []

        @contextlib.contextmanager
        def full_on_the_kth(path):
            opened.append(path)
            with real(path) as fh:
                if len(opened) == k:
                    raise OSError(errno.ENOSPC, "No space left on device")
                yield fh

        monkeypatch.setattr(cli, "_atomic_write", full_on_the_kth)
        assert run(["report", str(tally), "-o", str(out)]) == EXIT_IO
        assert capsys.readouterr().err == "citemetric: error: [Errno 28] No space left on device\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "t.csv"]

    @pytest.mark.parametrize("k", range(1, len(ARTIFACTS) + 1))
    def test_failed_rename_leaves_each_artifact_old_or_new(self, tmp_path, monkeypatch, capsys, k):
        # The renames run in reverse order, si_scatter.csv first, so the k-1
        # artifacts renamed before the failure are new and the rest old.
        tally = make_tally(tmp_path / "t.csv", TestReport.ROWS)
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        assert run(["report", str(tally), "-o", str(fresh)]) == EXIT_OK
        assert run(["report", str(tally), "--min-citations", "0", "-o", str(out)]) == EXIT_OK
        old = {p.name: p.read_bytes() for p in out.iterdir()}
        new = {p.name: p.read_bytes() for p in fresh.iterdir()}
        assert sorted(old) == sorted(new) == sorted(ARTIFACTS)
        assert all(old[name] != new[name] for name in ARTIFACTS)
        capsys.readouterr()
        real = os.replace
        renamed = []

        def replace(src, dst):
            renamed.append(dst)
            if len(renamed) == k:
                raise OSError(errno.ENOSPC, "No space left on device")
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert run(["report", str(tally), "-o", str(out)]) == EXIT_IO
        assert capsys.readouterr().err == "citemetric: error: [Errno 28] No space left on device\n"
        got = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(got) == sorted(ARTIFACTS)  # no .tmp left
        assert all(got[name] in (old[name], new[name]) for name in ARTIFACTS)
        assert [name for name in ARTIFACTS if got[name] == new[name]] == list(ARTIFACTS[len(ARTIFACTS) - k + 1 :])

    def test_mode_bits_are_those_of_a_plain_open(self, tmp_path):
        src = write_lines(tmp_path / "in.jsonl", GOOD_LINES)
        fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
        kept.write_text("old\n")
        kept.chmod(0o640)
        umask = os.umask(0o027)
        try:
            for out in (fresh, kept):
                assert run(["aggregate", str(src), "-o", str(out)]) == EXIT_OK
        finally:
            os.umask(umask)
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o640
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert fresh.read_bytes() == kept.read_bytes()

    def test_a_leftover_temporary_file_under_this_pid_blocks_nothing(self, tmp_path, monkeypatch):
        # Containers reuse low pids, so a SIGKILLed run's leftover can carry
        # the pid of a later run writing the same destination.
        monkeypatch.chdir(tmp_path)
        leftover = Path(f".t.jsonl.{os.getpid()}.tmp")
        leftover.write_bytes(b"left by a killed run\n")
        assert run(["synth", "--journals", "1", "-o", "t.jsonl"]) == EXIT_OK
        assert Path("t.jsonl").stat().st_size > 0
        assert leftover.read_bytes() == b"left by a killed run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [leftover.name, "t.jsonl"]

    def test_a_directory_destination_is_named_as_given(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["synth", "--journals", "1", "-o", "."]) == EXIT_IO
        assert capsys.readouterr().err == "citemetric: error: [Errno 21] Is a directory: '.'\n"

    def test_symlink_destination_is_followed(self, tmp_path):
        src = write_lines(tmp_path / "in.jsonl", GOOD_LINES)
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        assert run(["aggregate", str(src), "-o", str(link)]) == EXIT_OK
        assert link.is_symlink() and target.read_text().startswith("journal,")

    def test_fifo_destination_is_written_in_place(self, tmp_path):
        src = write_lines(tmp_path / "in.jsonl", GOOD_LINES)
        fifo = tmp_path / "tally.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
        reader.start()
        assert run(["aggregate", str(src), "-o", str(fifo)]) == EXIT_OK
        reader.join(timeout=10)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert not reader.is_alive()
        assert received == [b"journal,supporting,disputing,mentioning,total\nalpha,1,1,0,2\nbeta,0,0,1,1\n"]


class _TickingFile:
    """A text file whose ``write`` and ``writelines`` call ``tick`` first."""

    def __init__(self, fh, tick):
        self._fh, self._tick = fh, tick

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def write(self, text):
        self._tick()
        return self._fh.write(text)

    def writelines(self, lines):
        self._tick()
        return self._fh.writelines(lines)


def _killed_at(k: int, args) -> tuple[int, int]:
    """Run ``citemetric ARGS`` in a forked child that SIGKILLs itself at its
    k-th call to an output file's write or writelines or to os.replace;
    return the child's pid and wait status."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        code = 99
        try:
            calls = 0
            real_replace = os.replace

            def tick():
                nonlocal calls
                calls += 1
                if calls == k:
                    os.kill(os.getpid(), signal.SIGKILL)

            def opening(file, mode="r", *rest, **kwargs):
                fh = open(file, mode, *rest, **kwargs)
                return _TickingFile(fh, tick) if mode == "x" else fh

            def replace(src, dst):
                tick()
                real_replace(src, dst)

            cli.open, os.replace = opening, replace
            with contextlib.redirect_stderr(io.StringIO()):
                code = run(args)
        finally:
            os._exit(code)
    return pid, os.waitpid(pid, 0)[1]


class TestKillAnywhere:
    """A run SIGKILLed at any write to an output file or at any rename
    leaves each destination with its old bytes (or absent, if it was) or its
    new bytes, and nothing else in its directory but ``.NAME.PID.RANDOM.tmp``
    files, NAME a destination's and PID the killed run's.

    Each destination is checked on its own. That ``report``'s five artifacts
    come from one run is not asserted: a kill between two of its renames
    leaves some artifacts new and the rest old, as the README says, and that
    window is still open."""

    #: Each command's arguments, with ``in/`` naming a run directory's inputs
    #: and ``out`` its output directory, and the destinations it writes.
    COMMANDS = {
        "synth": (["synth", "--journals", "6", "--seed", "3", "-o", "out/c.jsonl"], ["c.jsonl"]),
        "aggregate": (["aggregate", "in/c.jsonl", "-o", "out/t.csv"], ["t.csv"]),  # one range: no workers
        "report": (["report", "in/t.csv", "-o", "out"], list(ARTIFACTS)),
    }
    #: Destinations that do not exist before the run.
    ABSENT = {"t.csv", "si_scatter.csv"}

    @staticmethod
    def inputs(where: Path) -> None:
        """Write the corpus ``c.jsonl`` and its tally ``t.csv`` in ``where``."""
        where.mkdir(parents=True)
        assert run(["synth", "--journals", "6", "--seed", "1", "-o", str(where / "c.jsonl")]) == EXIT_OK
        assert run(["aggregate", str(where / "c.jsonl"), "-o", str(where / "t.csv")]) == EXIT_OK

    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_destination_holds_its_old_or_its_new_bytes(self, tmp_path, command):
        args, names = self.COMMANDS[command]

        def at(where):
            return [str(where / arg) if arg.split("/")[0] in ("in", "out") else arg for arg in args]

        before = tmp_path / "before"
        self.inputs(before / "in")
        (before / "out").mkdir()
        old = {name: f"old {name}\n".encode() for name in names if name not in self.ABSENT}
        for name, body in old.items():
            (before / "out" / name).write_bytes(body)
        shutil.copytree(before, tmp_path / "after")
        assert run(at(tmp_path / "after")) == EXIT_OK
        new = {p.name: p.read_bytes() for p in (tmp_path / "after" / "out").iterdir()}
        assert sorted(new) == sorted(names) and all(old.get(name) != new[name] for name in names)
        leftover = re.compile(r"\.(.+)\.(\d+)\.[0-9a-f]{8}\.tmp")

        for k in itertools.count(1):
            where = tmp_path / f"kill{k}"
            shutil.copytree(before, where)
            pid, status = _killed_at(k, at(where))
            got = {p.name: p.read_bytes() for p in (where / "out").iterdir()}
            if not os.WIFSIGNALED(status):
                break
            assert os.WTERMSIG(status) == signal.SIGKILL
            for name in names:
                assert got.get(name) in (old.get(name), new[name]), (k, name)
            for name in got.keys() - set(names):
                match = leftover.fullmatch(name)
                assert match and match[1] in names and int(match[2]) == pid, (k, name)
            shutil.rmtree(where)
        assert os.waitstatus_to_exitcode(status) == EXIT_OK
        assert got == new
        assert k > 2 * len(names)  # every destination had a write and a rename to be killed at


class TestPipedInput:
    """Invalid UTF-8 read from a pipe or FIFO, which can be read only once,
    is a data error named at its offset in the stream."""

    BODY = (GOOD_LINES[0] + "\n").encode() * 500
    DATA = BODY + b'{"journal":"\xff"}\n'
    OFFSET = len(BODY) + len('{"journal":"')

    def message(self, path) -> str:
        return (
            f"citemetric: error: {path}: invalid UTF-8: 'utf-8' codec can't decode byte 0xff "
            f"in position {self.OFFSET}: invalid start byte\n"
        )

    def test_pipe(self, tmp_path, capsys):
        read_fd, write_fd = os.pipe()
        try:
            os.write(write_fd, self.DATA)  # fits the pipe's buffer
            os.close(write_fd)
            path = f"/dev/fd/{read_fd}"
            assert run(["aggregate", path, "-o", str(tmp_path / "t.csv")]) == EXIT_DATA
        finally:
            os.close(read_fd)
        assert capsys.readouterr().err == self.message(path)
        assert not (tmp_path / "t.csv").exists()

    @staticmethod
    def aggregate_fifo(tmp_path, data: bytes) -> tuple[int, str, bytes | None]:
        """Run aggregate in a child process on a FIFO that a write-only
        writer fills and closes; return the exit code, stderr and tally."""
        fifo, out = tmp_path / "in.fifo", tmp_path / "t.csv"
        if not fifo.exists():
            os.mkfifo(fifo)
        out.unlink(missing_ok=True)

        def feed():
            with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as fh:  # waits for a reader
                fh.write(data)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            proc = subprocess.run(
                **cli_child(["aggregate", fifo, "-o", out]), capture_output=True, text=True, timeout=30
            )
        finally:
            with contextlib.suppress(OSError):  # let a writer still waiting for a reader go
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=10)
        assert not writer.is_alive()
        return proc.returncode, proc.stderr, out.read_bytes() if out.exists() else None

    def test_named_fifo(self, tmp_path):
        code, err, tally = self.aggregate_fifo(tmp_path, self.DATA)
        assert (code, err, tally) == (EXIT_DATA, self.message(tmp_path / "in.fifo"), None)

    def test_named_fifo_is_read_whole_by_one_open(self, tmp_path):
        # A writer that writes and closes loses its data if aggregate opens
        # the FIFO, closes it and opens it again; then the second open waits
        # for a writer forever.
        fifo = tmp_path / "in.fifo"
        for _ in range(20):
            code, err, tally = self.aggregate_fifo(tmp_path, self.BODY)
            assert (code, err) == (EXIT_OK, f"{fifo}: 500 accepted, 0 rejected\n")
            assert tally == b"journal,supporting,disputing,mentioning,total\nalpha,500,0,0,500\n"


class TestArbitraryInput:
    """Any bytes, fields over the csv module's 131072-char limit included,
    give an exit code of the contract and never a traceback."""

    PIECES = [
        b"\n", b"\r\n", b"\r", b",", b'"', b"\xef\xbb\xbf", b"\xff", b"\xe2\x82",
        b"citing_id,journal,class\n", b"journal,supporting,disputing,mentioning,total\n",
        b"w1,alpha,supporting", b"alpha,1,2,3,6", b"1,2,3", b"-1", b"99999999999999999999999",
        b'{"journal":"a","class":"supporting"}', b'{"journal":"a","class":"supporting","journal":"b"}',
        b'{"journal":', b"[]", b"null", HUGE.encode(), b'"' + HUGE.encode() + b'"',
        b'{"journal":"' + HUGE.encode() + b'","class":"supporting"}',
    ]
    inputs = st.lists(st.one_of(st.binary(max_size=24), st.sampled_from(PIECES)), max_size=16).map(b"".join)

    @staticmethod
    def run_captured(args) -> tuple[int, str]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(args)
        return code, err.getvalue()

    @given(data=inputs)
    @settings(max_examples=60, deadline=None)
    def test_exit_code_in_contract_without_traceback(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "in"
            src.write_bytes(data)
            runs = [
                ["aggregate", "-f", fmt, "--policy", policy, str(src), "-o", str(Path(tmp) / "t.csv")]
                for fmt in ("csv", "jsonl")
                for policy in ("strict", "skip")
            ]
            runs.append(["report", str(src), "-o", str(Path(tmp) / "out")])
            for args in runs:
                code, err = self.run_captured(args)
                assert code in (EXIT_OK, EXIT_DATA, EXIT_IO), (args, err)
                assert "Traceback" not in err


class TestSynth:
    def test_failed_synth_keeps_the_old_corpus(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "c.jsonl"
        out.write_bytes(b"old corpus\n")
        real = cli.generate_corpus

        def failing(params):
            yield from islice(real(params), 5000)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "generate_corpus", failing)
        assert run(["synth", "--journals", "40", "--seed", "1", "-o", str(out)]) == EXIT_IO
        assert "No space left on device" in capsys.readouterr().err
        assert out.read_bytes() == b"old corpus\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl"]

    def test_out_of_memory_is_exit_3_and_keeps_the_old_corpus(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "c.jsonl"
        out.write_bytes(b"old corpus\n")
        real = cli.generate_corpus

        def exhausted(params):
            yield from islice(real(params), 5000)
            raise MemoryError

        monkeypatch.setattr(cli, "generate_corpus", exhausted)
        assert run(["synth", "--journals", "40", "--seed", "1", "-o", str(out)]) == EXIT_IO
        assert capsys.readouterr().err == "citemetric: error: out of memory\n"
        assert out.read_bytes() == b"old corpus\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl"]

    # Chunks of 1 and 2 lines end runs on and just past a chunk; the default
    # 1024 ends most runs inside one.
    @pytest.mark.parametrize(
        "fmt, chunk",
        [pytest.param(fmt, chunk, id=f"{fmt}" if chunk == 1024 else f"{fmt}-chunk{chunk}") for fmt in Format for chunk in (1, 2, 1024)],
    )
    def test_output_equals_per_record_formatting(self, tmp_path, monkeypatch, fmt, chunk):
        monkeypatch.setattr(cli, "_SYNTH_CHUNK_LINES", chunk)
        params = SynthParams(journals=30, seed=11)
        reference = "".join(format_record(rec, fmt) + "\n" for rec in generate_corpus(params))
        if fmt is Format.CSV:
            reference = ",".join(CSV_HEADER) + "\n" + reference
        out = tmp_path / "c"
        args = ["synth", "--journals", "30", "--seed", "11", "-f", fmt.value, "-o", str(out)]
        assert run(args) == EXIT_OK
        assert out.read_bytes() == reference.encode("utf-8")

    # Recorded on x86-64 Linux/glibc; like the acceptance goldens, a libm
    # that rounds log/exp/cos differently could move a count (README).
    @pytest.mark.parametrize(
        "fmt, digest",
        [
            (Format.JSONL, "c52b8a4b1d254f650f367c5ce2fcff5c3a3eb0d207d33c2880882f833cf71c62"),
            (Format.CSV, "5dd166e5b2ac126a74ddb761fa3bc1d4077c07051379524c83ee90de4e221153"),
        ],
    )
    def test_paper_preset_corpus_bytes_are_pinned(self, tmp_path, fmt, digest):
        out = tmp_path / "c"
        assert run(["synth", "--preset", "paper", "--journals", "500", "-f", fmt.value, "-o", str(out)]) == EXIT_OK
        data = out.read_bytes()
        assert data.count(b"\n") == 356_775 + (fmt is Format.CSV)
        assert hashlib.sha256(data).hexdigest() == digest

    def test_no_python_frame_runs_per_record(self, tmp_path):
        params = SynthParams(journals=40, lognormal_mu=7.0, lognormal_sigma=0.1, seed=3)
        records = sum(c + m for c, _, _, m in map(partial(journal_counts, params), range(params.journals)))
        assert records == 222_530

        def frames(fn):
            calls = 0

            def profile(frame, event, arg):
                nonlocal calls
                calls += event == "call"

            old = sys.getprofile()
            sys.setprofile(profile)
            try:
                fn()
            finally:
                sys.setprofile(old)
            return calls

        assert frames(lambda: deque(generate_corpus(params), maxlen=0)) < records / 10
        out = tmp_path / "c.jsonl"
        args = ["synth", "--journals", "40", "--lognormal-mu", "7", "--lognormal-sigma", "0.1", "--seed", "3", "-o", str(out)]
        assert frames(lambda: run(args)) < records / 10
        assert out.read_bytes().count(b"\n") == records

    def test_a_journal_that_fails_mid_corpus_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        params = SynthParams(journals=40, seed=7)
        totals = [c + m for c, _, _, m in map(partial(journal_counts, params), range(params.journals))]
        k = next(i for i in range(1, params.journals) if totals[i] > max(totals[:i]))
        monkeypatch.setattr(synth, "MAX_JOURNAL_RECORDS", totals[k] - 1)
        assert run(["synth", "--journals", "40", "--seed", "7", "-o", str(tmp_path / "c.jsonl")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"citemetric: error: cannot draw journal {k} with ")
        assert list(tmp_path.iterdir()) == []

    def test_a_journal_past_the_corpus_bound_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        params = SynthParams(journals=40, seed=7)
        totals = [c + m for c, _, _, m in map(partial(journal_counts, params), range(params.journals))]
        bound = sum(totals[:20]) + totals[20] - 1
        monkeypatch.setattr(synth, "MAX_CORPUS_RECORDS", bound)
        assert run(["synth", "--journals", "40", "--seed", "7", "-o", str(tmp_path / "c.jsonl")]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"citemetric: error: cannot draw journal 20: the corpus would hold {bound + 1} records, "
            f"more than the {bound} it may hold\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_beta_shapes_summing_below_1e_8_exit_quickly(self, tmp_path):
        # Each Beta try succeeds with odds of about 744 * (alpha + beta), so
        # these shapes would redraw for ~7 * 10**11 tries.
        args = ["synth", "--journals", "1", "--beta-alpha", "1e-15", "--beta-beta", "1e-15", "-o", tmp_path / "c.jsonl"]
        proc = subprocess.run(**cli_child(args), capture_output=True, text=True, timeout=5)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("citemetric: error: cannot draw journal 0 with ")
        assert "beta_alpha=1e-15, beta_beta=1e-15" in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["synth", "--journals", "10", "--seed", "7"]
        assert run([*args, "-o", str(a)]) == EXIT_OK
        assert run([*args, "-o", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert a.stat().st_size > 0

    def test_preset_with_override_runs_quickly_and_parses(self, tmp_path):
        out = tmp_path / "c.jsonl"
        assert run(["synth", "--preset", "paper", "--journals", "25", "-o", str(out)]) == EXIT_OK
        tallies = tmp_path / "t.csv"
        assert run(["aggregate", str(out), "-o", str(tallies)]) == EXIT_OK

    def test_csv_format_round_trips_through_aggregate(self, tmp_path):
        corpus = tmp_path / "c.csv"
        assert run(["synth", "--journals", "12", "--seed", "3", "-f", "csv", "-o", str(corpus)]) == EXIT_OK
        assert corpus.read_text().splitlines()[0] == "citing_id,journal,class"
        via_csv = tmp_path / "via_csv.csv"
        assert run(["aggregate", "-f", "csv", str(corpus), "-o", str(via_csv)]) == EXIT_OK

        jsonl = tmp_path / "c.jsonl"
        assert run(["synth", "--journals", "12", "--seed", "3", "-o", str(jsonl)]) == EXIT_OK
        via_jsonl = tmp_path / "via_jsonl.csv"
        assert run(["aggregate", str(jsonl), "-o", str(via_jsonl)]) == EXIT_OK
        assert via_csv.read_bytes() == via_jsonl.read_bytes()

    def test_flag_overrides_apply(self, tmp_path):
        out = tmp_path / "c.jsonl"
        assert run(["synth", "--journals", "8", "--seed", "1", "--mention-ratio", "0.0", "-o", str(out)]) == EXIT_OK
        assert "mentioning" not in out.read_text()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--journals", "3", "--lognormal-mu", "40"], "lognormal_mu=40.0"),
            (["--journals", "3", "--lognormal-mu", "800"], "lognormal_mu=800.0"),
            (["--journals", "3", "--lognormal-sigma", "400"], "lognormal_sigma=400.0"),
            (["--journals", "2", "--beta-alpha", "1e-300", "--beta-beta", "1e-300"], "beta_alpha=1e-300, beta_beta=1e-300"),
            # Totals of 1e17 to 1e19 fit a float; the record bound stops them.
            *((["--journals", "3", "--lognormal-mu", "40", "--seed", f"{n}"], "a journal may hold") for n in range(1, 6)),
        ],
    )
    def test_draws_outside_float_range_are_a_usage_error(self, tmp_path, flags, named):
        # A child process, so that a sampler that never returns fails by timeout.
        args = ["synth", *flags, "-o", tmp_path / "c.jsonl"]
        proc = subprocess.run(**cli_child(args), capture_output=True, text=True, timeout=30)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("citemetric: error: cannot draw journal 0 with ")
        assert proc.stderr.count("\n") == 1 and named in proc.stderr
        assert list(tmp_path.iterdir()) == []


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestSigterm:
    """SIGTERM takes the Ctrl-C path in every stage: one stderr line, exit
    130, no worker left running and no temporary file."""

    #: Prints each forked worker's pid, then "ready" from the fold of the
    #: parent's range; the workers sleep until they are killed.
    AGGREGATE = """
import os, time
from citemetric import cli, ranges
ranges.usable_cpus = lambda: 3
ranges.MIN_RANGE_BYTES = 1
fork_worker, fold_range = ranges._fork_worker, cli._fold_range
def fork(*args):
    pid, pipe = fork_worker(*args)
    print(pid, flush=True)
    return pid, pipe
def fold(path, fmt, policy, start, length):
    if start:
        time.sleep(60)
    print("ready", flush=True)
    return fold_range(path, fmt, policy, start, length)
ranges._fork_worker, cli._fold_range = fork, fold
"""

    #: Prints "ready" while the histogram artifact is half written.
    REPORT = """
import time
from citemetric import cli
def write(histogram, fh):
    fh.write("bin_lo")
    print("ready", flush=True)
    time.sleep(60)
cli.write_histogram_csv = write
"""

    @staticmethod
    def terminate_when_ready(args, prelude) -> tuple[int, str, list[int]]:
        """Run ``args`` after ``prelude``; send SIGTERM once it prints
        "ready". Return the exit code, stderr and the pids it printed first
        that are still running."""
        proc = subprocess.Popen(
            **cli_child(args, prelude), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        pids = []
        try:
            for line in proc.stdout:
                if line == "ready\n":
                    break
                pids.append(int(line))
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=30)
            left = [pid for pid in pids if _running(pid)]
        finally:
            for pid in pids:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            proc.kill()
            _, err = proc.communicate()
        return code, err, left

    def test_aggregate_reaps_its_workers(self, tmp_path):
        src = write_lines(tmp_path / "in.jsonl", GOOD_LINES * 100)
        out = tmp_path / "out"
        out.mkdir()
        code, err, left = self.terminate_when_ready(["aggregate", src, "-o", out / "t.csv"], self.AGGREGATE)
        assert (code, err, left) == (EXIT_INTERRUPTED, "citemetric: interrupted\n", [])
        assert list(out.iterdir()) == []

    def test_report_leaves_no_temporary_file(self, tmp_path):
        tally = make_tally(tmp_path / "t.csv", TestReport.ROWS)
        out = tmp_path / "out"
        code, err, _ = self.terminate_when_ready(["report", tally, "-o", out], self.REPORT)
        assert (code, err) == (EXIT_INTERRUPTED, "citemetric: interrupted\n")
        assert list(out.iterdir()) == []

    def test_synth_leaves_no_temporary_file(self, tmp_path):
        proc = subprocess.Popen(
            **cli_child(["synth", "--preset", "paper", "-o", tmp_path / "c.jsonl"]), stderr=subprocess.PIPE, text=True
        )
        try:
            deadline = time.monotonic() + 30
            while not list(tmp_path.glob(".c.jsonl.*.tmp")) and time.monotonic() < deadline:
                time.sleep(0.005)
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
        assert (proc.returncode, err) == (EXIT_INTERRUPTED, "citemetric: interrupted\n")
        assert list(tmp_path.iterdir()) == []

    def test_handler_is_restored(self, tmp_path):
        before = signal.getsignal(signal.SIGTERM)
        assert run(["synth", "--journals", "2", "-o", str(tmp_path / "c.jsonl")]) == EXIT_OK
        assert signal.getsignal(signal.SIGTERM) is before

    def test_run_outside_the_main_thread_leaves_the_handler_alone(self, tmp_path):
        # Only the main thread may set a signal handler; elsewhere run keeps
        # the one it finds.
        before = signal.getsignal(signal.SIGTERM)
        codes = []
        args = ["synth", "--journals", "3", "-o", str(tmp_path / "thread.jsonl")]
        thread = threading.Thread(target=lambda: codes.append(run(args)))
        thread.start()
        thread.join(timeout=30)
        assert codes == [EXIT_OK]
        assert signal.getsignal(signal.SIGTERM) is before
        assert run(["synth", "--journals", "3", "-o", str(tmp_path / "main.jsonl")]) == EXIT_OK
        corpus = (tmp_path / "thread.jsonl").read_bytes()
        assert corpus and corpus == (tmp_path / "main.jsonl").read_bytes()
