"""Range-split aggregation: byte-range planning, equivalence of split and
one-range runs, and the failure paths of forked range workers."""

import contextlib
import errno
import io
import os
import signal
import tempfile
import threading
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import BOM, assert_tally_types, dirty_line, line_kinds, lines_and_error

import citemetric.cli as cli
from citemetric import ingest, ranges
from citemetric.cli import EXIT_DATA, EXIT_INTERRUPTED, EXIT_IO, EXIT_OK, run

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


@given(
    data=_chunks.map(b"".join),
    parts=st.integers(1, 8),
    min_bytes=st.integers(1, 16),
    block=st.one_of(st.integers(1, 7), st.just(ingest._BLOCK_BYTES)),
)
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_range_lines_concatenate_to_the_file_lines(tmp_path, data, parts, min_bytes, block):
    path = tmp_path / "f"
    path.write_bytes(data)
    with mock.patch.object(ranges, "MIN_RANGE_BYTES", min_bytes), mock.patch.object(ingest, "_BLOCK_BYTES", block):
        want = lines_and_error(ingest.read_lines(str(path)))
        got, error = [], None
        for start, length in ranges.plan_ranges(str(path), parts):
            lines, error = lines_and_error(ingest.read_lines(str(path), start, length))
            got += lines
            if error:
                break
    assert (got, error) == want


def not_opened():
    return mock.patch.object(ranges, "open", side_effect=AssertionError("opened"), create=True)


def test_small_file_is_one_range(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text((GOOD + "\n") * 10)
    with not_opened():
        assert ranges.plan_ranges(str(path), 8) == [(0, None)]
        with mock.patch.object(ranges, "MIN_RANGE_BYTES", 1):
            assert ranges.plan_ranges(str(path), 1) == [(0, None)]


def test_non_regular_file_is_one_range():
    with not_opened():
        assert ranges.plan_ranges("/dev/null", 8) == [(0, None)]


def test_fifo_is_one_range_and_not_opened(tmp_path):
    # With no writer, opening the FIFO to read would wait for one.
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)
    plans = []
    planner = threading.Thread(target=lambda: plans.append(ranges.plan_ranges(str(fifo), 2)), daemon=True)
    planner.start()
    planner.join(timeout=10)
    waited = planner.is_alive()
    if waited:  # release it: a writer that opens and closes at once
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        planner.join(timeout=10)
    assert not waited and plans == [[(0, None)]]


def test_missing_file_raises_what_open_raises(tmp_path):
    path = str(tmp_path / "missing.jsonl")
    with pytest.raises(FileNotFoundError) as planned:
        ranges.plan_ranges(path, 2)
    with pytest.raises(FileNotFoundError) as opened:
        open(path, "rb")
    assert str(planned.value) == str(opened.value)


def test_no_fork_means_one_cpu(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert ranges.usable_cpus() == 1


def test_no_affinity_means_every_cpu(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert ranges.usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert ranges.usable_cpus() == 1


# --- split runs equal the one-range run ----------------------------------

@st.composite
def dirty_corpora(draw, fmt):
    kinds = draw(st.lists(line_kinds, min_size=0, max_size=40))
    lines = [dirty_line(kind, i, fmt) for i, kind in enumerate(kinds)]
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


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_a_bad_line_is_numbered_by_the_newlines_before_it(tmp_path, fmt):
    """Only ``\\n`` ends a line: a ``\\r\\n`` ending counts once, and a bare
    ``\\r`` joins two lines into one bad line, in one range or several."""
    good = dirty_line("good", 0, fmt)
    pieces = ["garbage" if i % 31 == 5 else good for i in range(240)]
    ends = ["\r" if i % 37 == 3 else "\r\n" if i % 2 else "\n" for i in range(240)]
    data = "".join(map(str.__add__, pieces, ends))
    if fmt == "csv":
        data = "citing_id,journal,class\n" + data
    src = tmp_path / f"in.{fmt}"
    src.write_bytes(data.encode())
    lines = data.split("\n")[:-1]
    bad = [n for n, line in enumerate(lines, 1) if line.rstrip("\r") not in (good, "citing_id,journal,class")]
    assert 10 < len(bad) <= 20 and bad[-1] > len(lines) * 3 // 4  # all listed, some in the last range
    for parts in (1, 3):
        with split_into(parts, min_bytes=64):
            assert len(ranges.plan_ranges(str(src), parts)) == parts
            code, err, _ = aggregate(["-f", fmt, "--policy", "skip", src])
            assert code == EXIT_OK
            assert [int(line.split(":")[1]) for line in err.splitlines() if line.startswith("  ")] == bad
            assert f"{len(lines) - (fmt == 'csv') - len(bad)} accepted, {len(bad)} rejected" in err
            code, err, _ = aggregate(["-f", fmt, src])
            assert code == EXIT_DATA and err.startswith(f"citemetric: error: {src}: line {bad[0]}: ")


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


def _many_journals(tmp_path) -> Path:
    """Journals the two halves share, then journals only the second half has."""
    classes = ["supporting", "disputing", "mentioning"]
    lines = [f'{{"journal":"j{i % 50}","class":"{classes[i % 3]}"}}' for i in range(300)]
    lines += [f'{{"journal":"tail {i}","class":"{classes[i % 3]}"}}' for i in range(100)]
    src = tmp_path / "in.jsonl"
    src.write_text("".join(line + "\n" for line in lines))
    return src


def test_multi_frame_worker_stream_equals_one_range_run(tmp_path):
    src = _many_journals(tmp_path)
    with split_into(1):
        want = aggregate([src])
    frames = []
    real = ranges.add_counts

    def add_counts(table, rows):
        frames.append(len(rows))
        return real(table, rows)

    with split_into(2, min_bytes=64), mock.patch.object(ranges, "ROWS_PER_CHUNK", 2), mock.patch.object(
        ranges, "add_counts", add_counts
    ):
        assert len(ranges.plan_ranges(str(src), 2)) == 2
        got = aggregate([src])
    assert got == want and want[0] == EXIT_OK
    assert len(frames) > 10 and max(frames) == 2  # the worker's ~150 journals, two a frame
    assert _no_children_left()


def test_forked_fold_file_values_are_tallies(tmp_path):
    src = str(_many_journals(tmp_path))
    fold = partial(cli._fold_range, src, ingest.Format.JSONL, ingest.Policy.STRICT)
    with split_into(2, min_bytes=64):
        assert len(ranges.plan_ranges(src, 2)) == 2
        table, report = ranges.fold_file(src, fold)
    assert (report.accepted, len(table)) == (400, 150)
    assert_tally_types(table)
    assert _no_children_left()


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


@pytest.mark.parametrize("parts", [2, 3, 5])
@pytest.mark.parametrize("policy", ["strict", "skip"])
def test_a_line_over_the_cap_that_holds_cuts_is_refused_at_its_start(tmp_path, parts, policy):
    body = (GOOD + "\n") * 100
    src = tmp_path / "in.jsonl"
    src.write_bytes(f'{body}{{"journal":"{"x" * (3 << 20)}","class":"supporting"}}\n{body}'.encode())
    with split_into(1):
        want = aggregate(["--policy", policy, src])
    assert want == (EXIT_DATA, f"citemetric: error: {src}: line too long: the line at byte {len(body)} holds more than 1048576 bytes\n", None)
    with split_into(parts, min_bytes=64):
        assert len(ranges.plan_ranges(str(src), parts)) == parts  # each cut after a scan of 1 MiB + 1 byte
        assert aggregate(["--policy", policy, src]) == want
    assert _no_children_left()


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


def test_worker_io_error_reads_as_in_the_parent(tmp_path):
    src = _big_corpus(tmp_path)
    real = cli._fold_range

    def fails(in_worker):
        def fold(path, fmt, policy, start, length):
            if bool(start) == in_worker:
                raise OSError(errno.EIO, os.strerror(errno.EIO), path)
            return real(path, fmt, policy, start, length)

        return fold

    runs = []
    for in_worker in (True, False):
        with split_into(3), mock.patch.object(cli, "_fold_range", fails(in_worker)):
            runs.append(aggregate([src]))
        assert _no_children_left()
    expected = f"citemetric: error: [Errno {errno.EIO}] {os.strerror(errno.EIO)}: {str(src)!r}\n"
    assert runs[0] == runs[1] == (EXIT_IO, expected, None)


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


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


@pytest.mark.parametrize("where", ["fold", "tally write"])
def test_interrupt_is_one_line_and_exit_130(tmp_path, where):
    src = _big_corpus(tmp_path)
    real = cli._fold_range

    def fold(path, fmt, policy, start, length):
        if start == 0:  # in this process, while the workers run
            _interrupt()
        return real(path, fmt, policy, start, length)

    def write(table, out):
        out.write("partial")
        _interrupt()

    patch = mock.patch.object(cli, "_fold_range", fold) if where == "fold" else mock.patch.object(
        cli, "write_tally_csv", write
    )
    with split_into(3), patch:
        code, err, tally = aggregate([src])
    assert (code, tally) == (EXIT_INTERRUPTED, None)
    assert err.endswith("citemetric: interrupted\n") and "Traceback" not in err
    assert _no_children_left()
