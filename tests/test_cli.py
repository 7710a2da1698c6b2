import csv
import json
import os
import stat
import threading
from pathlib import Path

import pytest

import citemetric.cli as cli
from citemetric.cli import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_USAGE, run
from citemetric.ingest import CSV_HEADER, Format, format_record
from citemetric.synth import SynthParams, generate_corpus

#: A field longer than the csv module's default field size limit (131072).
HUGE = "x" * 200_000

GOOD_LINES = [
    '{"journal":"alpha","class":"supporting"}',
    '{"journal":"alpha","class":"disputing"}',
    '{"journal":"beta","class":"mentioning"}',
]


def write_lines(path: Path, lines) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


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

    def test_report_rejects_negative_threshold(self, tmp_path):
        tally = make_tally(tmp_path / "t.csv", [("a", 5, 5, 100)])
        code = run(["report", str(tally), "--min-citations", "-1", "-o", str(tmp_path / "out")])
        assert code == EXIT_USAGE

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

    def test_oversized_csv_header_is_data_error(self, tmp_path, capsys):
        src = write_lines(tmp_path / "in.csv", [f"citing_id,{HUGE},class", "w1,alpha,supporting"])
        code = run(["aggregate", "-f", "csv", "--policy", "skip", str(src), "-o", str(tmp_path / "t.csv")])
        assert code == EXIT_DATA
        assert "line 1: invalid CSV" in capsys.readouterr().err


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

    def test_oversized_tally_field_is_data_error(self, tmp_path, capsys):
        tally = make_tally(tmp_path / "t.csv", [("alpha", 1, 2, 3), (HUGE, 1, 2, 3)])
        assert run(["report", str(tally), "-o", str(tmp_path / "out")]) == EXIT_DATA
        assert "line 3: invalid CSV: field larger than field limit" in capsys.readouterr().err

    def test_bom_before_tally_header_is_tolerated(self, tmp_path):
        _, plain = self.run_report(tmp_path)
        tally = tmp_path / "bom.csv"
        tally.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "t.csv").read_bytes())
        assert run(["report", str(tally), "-o", str(tmp_path / "bom")]) == EXIT_OK
        for name in ARTIFACTS:
            assert (tmp_path / "bom" / name).read_bytes() == (plain / name).read_bytes()


ARTIFACTS = ("metrics.csv", "summary.json", "correlations.json", "si_histogram.csv", "si_scatter.csv")


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
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "correlations.json",
            "metrics.csv",
            "summary.json",
        ]

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


class TestSynth:
    @pytest.mark.parametrize("fmt", list(Format))
    def test_output_equals_per_record_formatting(self, tmp_path, fmt):
        params = SynthParams(journals=30, seed=11)
        reference = "".join(format_record(rec, fmt) + "\n" for rec in generate_corpus(params))
        if fmt is Format.CSV:
            reference = ",".join(CSV_HEADER) + "\n" + reference
        out = tmp_path / "c"
        args = ["synth", "--journals", "30", "--seed", "11", "-f", fmt.value, "-o", str(out)]
        assert run(args) == EXIT_OK
        assert out.read_bytes() == reference.encode("utf-8")

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
