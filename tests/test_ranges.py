"""Range-split aggregation: byte-range planning, equivalence of split and
one-range runs, and the failure paths of forked range workers."""

import contextlib
import csv
import io
import json
import os
import signal
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import citemetric.cli as cli
from citemetric import ranges
from citemetric.cli import EXIT_DATA, EXIT_IO, EXIT_OK, run

BOM = "\ufeff"
GOOD = '{"journal":"alpha","class":"supporting"}'


def _no_children_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@contextlib.contextmanager
def split_into(parts: int, min_bytes: int = 1):
    """Let aggregate cut every file into up to ``parts`` ranges of at least
    ``min_bytes``, as on a ``parts``-CPU machine."""
    with mock.patch.object(ranges, "usable_cpus", lambda: parts), mock.patch.object(
        ranges, "MIN_RANGE_BYTES", min_bytes
    ):
        yield


def aggregate(args) -> tuple[int, str, bytes | None]:
    """Run ``aggregate ARGS -o OUT`` in a fresh directory; return the exit
    code, stderr and the tally bytes (None when no tally was written)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "tally.csv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(["aggregate", *map(str, args), "-o", str(out)])
        leftovers = sorted(p.name for p in Path(tmp).iterdir() if p != out)
        assert leftovers == [], leftovers
        return code, err.getvalue(), out.read_bytes() if out.exists() else None


# --- planning --------------------------------------------------------------

_chunks = st.lists(
    st.sampled_from([b"a", b"bc", b"\n", b"\r", b"\r\n", BOM.encode(), b"\xff", b"xyz" * 5]),
    max_size=60,
)


@given(data=_chunks.map(b"".join), parts=st.integers(1, 8), min_bytes=st.integers(1, 16))
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_plan_cuts_after_newlines_and_never_before_a_bom(tmp_path, data, parts, min_bytes):
    path = tmp_path / "f"
    path.write_bytes(data)
    with mock.patch.object(ranges, "MIN_RANGE_BYTES", min_bytes):
        plan = ranges.plan_ranges(str(path), parts)
    assert 1 <= len(plan) <= max(1, min(parts, len(data) // min_bytes))
    starts = [start for start, _ in plan]
    assert starts[0] == 0 and plan[-1][1] is None
    for (start, length), nxt in zip(plan, starts[1:]):
        assert start + length == nxt
    for cut in starts[1:]:
        assert 0 < cut < len(data)
        assert data[cut - 1 : cut] == b"\n"
        assert not data[cut:].startswith(BOM.encode())


def test_small_file_is_one_range(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text((GOOD + "\n") * 10)
    assert ranges.plan_ranges(str(path), 8) == [(0, None)]


def test_non_regular_file_is_one_range():
    assert ranges.plan_ranges("/dev/null", 8) == [(0, None)]


def test_no_fork_means_one_cpu(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert ranges.usable_cpus() == 1


# --- split runs equal the one-range run ----------------------------------

_JOURNALS = ["Nature", " nature ", "NA  TURE", "1234-567x", 'Cell, "Reports"', "cell,  reports"]
_LABELS = ["supporting", "Disputing", "MENTIONING"]

_line_kinds = st.sampled_from(
    ["good", "good", "good", "good", "malformed", "unknown_class", "empty_key", "interior_bom", "blank"]
)


def _line(kind: str, i: int, fmt: str) -> str:
    journal, label = _JOURNALS[i % len(_JOURNALS)], _LABELS[i % len(_LABELS)]
    if kind == "unknown_class":
        label = "contrasting"
    elif kind == "empty_key":
        journal = "  \t "
    elif kind == "malformed":
        return "garbage" if fmt == "jsonl" else "a,b"
    elif kind == "blank":
        return ""
    if fmt == "jsonl":
        line = json.dumps({"citing_id": f"w{i}", "journal": journal, "class": label})
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow((f"w{i}", journal, label))
        line = buf.getvalue()
    return BOM + line if kind == "interior_bom" else line


@st.composite
def dirty_corpora(draw, fmt):
    kinds = draw(st.lists(_line_kinds, min_size=0, max_size=40))
    lines = [_line(kind, i, fmt) for i, kind in enumerate(kinds)]
    if fmt == "csv":
        lines.insert(0, "citing_id,journal,class")
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    endings = draw(st.lists(ends, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, endings))
    if draw(st.booleans()):
        text = BOM + text
    data = text.encode()
    if draw(st.integers(0, 9)) == 0:  # now and then, one line that is not UTF-8
        cut = data.find(b"\n", draw(st.integers(0, max(0, len(data) - 1)))) + 1
        data = data[:cut] + b'{"journal":"\xff"}\n' + data[cut:]
    return data


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("policy", ["strict", "skip"])
@given(data=st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_split_run_equals_one_range_run(tmp_path, fmt, policy, data):
    files = []
    for n in range(data.draw(st.integers(1, 2), label="files")):
        path = tmp_path / f"in{n}.{fmt}"
        path.write_bytes(data.draw(dirty_corpora(fmt), label=f"file {n}"))
        files.append(path)
    args = ["-f", fmt, "--policy", policy, *files]
    with split_into(1):
        want = aggregate(args)
    parts = data.draw(st.integers(2, 5), label="parts")
    min_bytes = data.draw(st.integers(1, 64), label="min bytes")
    with split_into(parts, min_bytes):
        got = aggregate(args)
    assert got == want
    assert _no_children_left()


def test_split_run_reports_global_line_numbers(tmp_path, capsys):
    lines = [GOOD] * 200
    lines[150] = "garbage"
    src = tmp_path / "in.jsonl"
    src.write_text("".join(line + "\n" for line in lines))
    with split_into(4):
        assert len(ranges.plan_ranges(str(src), 4)) == 4
        assert run(["aggregate", str(src), "-o", str(tmp_path / "t.csv")]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"citemetric: error: {src}: line 151: invalid JSON: Expecting value: line 1 column 1 (char 0)\n"
        )
        assert run(["aggregate", "--policy", "skip", str(src), "-o", str(tmp_path / "t.csv")]) == EXIT_OK
        err = capsys.readouterr().err
    assert f"{src}: 199 accepted, 1 rejected\n  {src}:151: MalformedLineError" in err


def test_split_run_reports_the_first_errors_of_the_file(tmp_path):
    src = tmp_path / "in.jsonl"
    src.write_text("".join(("garbage" if i % 3 == 0 else GOOD) + "\n" for i in range(300)))
    with split_into(1):
        want = aggregate(["--policy", "skip", src])
    with split_into(4):
        got = aggregate(["--policy", "skip", src])
    assert got == want
    listed = [line for line in got[1].splitlines() if line.startswith("  ")]
    assert len(listed) == 20 and listed[-1].startswith(f"  {src}:58: ")


def test_one_cpu_never_forks(tmp_path):
    src = tmp_path / "in.jsonl"
    src.write_text((GOOD + "\n") * 100)
    with split_into(1), mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
        code, err, tally = aggregate([src])
    assert code == EXIT_OK and tally == b"journal,supporting,disputing,mentioning,total\nalpha,100,0,0,100\n"


def test_invalid_utf8_reported_at_file_offset_in_line_order(tmp_path, capsys):
    body = (GOOD + "\n") * 3
    src = tmp_path / "in.jsonl"
    src.write_bytes(body.encode() + b'{"journal":"\xff"}\n')
    offset = len(body.encode()) + len('{"journal":"')
    assert run(["aggregate", str(src), "-o", str(tmp_path / "t.csv")]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"citemetric: error: {src}: invalid UTF-8: 'utf-8' codec can't decode byte 0xff "
        f"in position {offset}: invalid start byte\n"
    )
    # A strict error on an earlier line comes first.
    src.write_bytes(b"garbage\n" + body.encode() + b'{"journal":"\xff"}\n')
    assert run(["aggregate", str(src), "-o", str(tmp_path / "t.csv")]) == EXIT_DATA
    assert "line 1: invalid JSON" in capsys.readouterr().err


# --- failure paths -------------------------------------------------------


def test_data_error_in_first_file_beats_missing_second_file(tmp_path, capsys):
    bad = tmp_path / "f1.jsonl"
    bad.write_text(f"{GOOD}\ngarbage\n")
    code = run(["aggregate", str(bad), str(tmp_path / "missing.jsonl"), "-o", str(tmp_path / "t.csv")])
    assert code == EXIT_DATA
    assert "f1.jsonl: line 2" in capsys.readouterr().err


def _big_corpus(tmp_path, bad_line=None) -> Path:
    lines = [GOOD] * 400
    if bad_line is not None:
        lines[bad_line - 1] = "garbage"
    src = tmp_path / "in.jsonl"
    src.write_text("".join(line + "\n" for line in lines))
    return src


def _dies_in_worker(how):
    real = cli._fold_range

    def fold(path, fmt, policy, start, length):
        if start:
            how()
        return real(path, fmt, policy, start, length)

    return fold


@pytest.mark.parametrize(
    "how, reason",
    [
        (lambda: os._exit(1), "exit code 1"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
    ],
)
def test_dead_worker_is_io_error_without_output(tmp_path, how, reason):
    src = _big_corpus(tmp_path)
    with split_into(3), mock.patch.object(cli, "_fold_range", _dies_in_worker(how)):
        code, err, tally = aggregate([src])
    assert code == EXIT_IO and tally is None
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"citemetric: error: {src}: worker for bytes " in err and f"failed ({reason})" in err
    assert _no_children_left()


def test_truncated_worker_output_is_io_error(tmp_path):
    src = _big_corpus(tmp_path)

    def cut_short(fold, rng, out):
        out.write(b"\xda\x00")

    with split_into(3), mock.patch.object(ranges, "_work", cut_short):
        code, err, tally = aggregate([src])
    assert code == EXIT_IO and tally is None
    assert "failed (output cut short)" in err
    assert _no_children_left()


@pytest.mark.parametrize("bad_line", [10, 390])  # in the parent's range, in the last worker's
def test_strict_error_reaps_every_worker(tmp_path, bad_line):
    src = _big_corpus(tmp_path, bad_line)
    with split_into(3):
        code, err, tally = aggregate([src])
    assert code == EXIT_DATA and tally is None
    assert err == (
        f"citemetric: error: {src}: line {bad_line}: "
        f"invalid JSON: Expecting value: line 1 column 1 (char 0)\n"
    )
    assert _no_children_left()
