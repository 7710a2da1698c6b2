import csv
import io
import sys
from functools import reduce
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import tally_reference
from conftest import assert_tally_types, make_records, tallies, tally_tables

from citemetric import aggregate, ingest
from citemetric.aggregate import (
    TALLY_HEADER,
    add_counts,
    add_record,
    aggregate_corpus,
    merge_tables,
    read_tally_csv,
    write_tally_csv,
)
from citemetric.errors import ArithmeticOverflowError, MalformedLineError
from citemetric.model import U64_MAX, CitationClass, CitationRecord, JournalTally, normalize_journal_key

SUP = CitationClass.SUPPORTING
DIS = CitationClass.DISPUTING
MEN = CitationClass.MENTIONING


def rec(journal, klass):
    return CitationRecord("", journal, klass)


class TestAddRecord:
    def test_new_journal(self):
        table = add_record({}, rec("a", SUP))
        assert table == {"a": JournalTally(1, 0, 0)}
        assert_tally_types(table)

    def test_increments_by_class(self):
        table = {}
        for k in (SUP, DIS, DIS, MEN, MEN, MEN):
            add_record(table, rec("a", k))
        assert table["a"] == JournalTally(1, 2, 3)
        assert_tally_types(table)

    def test_in_place_and_returns_table(self):
        table = {}
        assert add_record(table, rec("a", SUP)) is table

    def test_overflow(self):
        table = {"a": JournalTally(U64_MAX, 0, 0)}
        with pytest.raises(ArithmeticOverflowError):
            add_record(table, rec("a", SUP))


class TestMergeTables:
    def test_disjoint_union(self):
        a = {"x": JournalTally(1, 0, 0)}
        b = {"y": JournalTally(0, 2, 0)}
        assert merge_tables(a, b) == {"x": JournalTally(1, 0, 0), "y": JournalTally(0, 2, 0)}

    def test_shared_keys_sum(self):
        a = {"x": JournalTally(1, 2, 3)}
        b = {"x": JournalTally(10, 20, 30)}
        assert merge_tables(a, b) == {"x": JournalTally(11, 22, 33)}

    def test_pure(self):
        a = {"x": JournalTally(1, 0, 0)}
        b = {"x": JournalTally(1, 0, 0)}
        merge_tables(a, b)
        assert a["x"].supporting == 1 and b["x"].supporting == 1

    def test_overflow(self):
        a = {"x": JournalTally(U64_MAX, 0, 0)}
        b = {"x": JournalTally(1, 0, 0)}
        with pytest.raises(ArithmeticOverflowError):
            merge_tables(a, b)

    @given(tally_tables, tally_tables)
    def test_commutative(self, a, b):
        assert merge_tables(a, b) == merge_tables(b, a)

    @given(tally_tables, tally_tables)
    def test_values_are_tallies(self, a, b):
        assert_tally_types(merge_tables(a, b))

    @given(tally_tables, tally_tables, tally_tables)
    @settings(max_examples=60)
    def test_associative(self, a, b, c):
        assert merge_tables(merge_tables(a, b), c) == merge_tables(a, merge_tables(b, c))

    @given(tally_tables)
    def test_identity(self, a):
        assert merge_tables(a, {}) == a
        assert merge_tables({}, a) == a

    def test_empty_tally_is_identity_element(self):
        assert JournalTally() == (0, 0, 0)
        assert merge_tables({"x": JournalTally()}, {"x": JournalTally(1, 2, 3)}) == {
            "x": JournalTally(1, 2, 3)
        }


class TestAddCounts:
    def test_in_place_with_new_and_shared_keys(self):
        table = {"x": JournalTally(1, 2, 3)}
        same = table
        assert add_counts(table, [("x", 10, 20, 30), ("y", 0, 4, 0), ("x", 1, 0, 0)]) is same
        assert table == {"x": JournalTally(12, 22, 33), "y": JournalTally(0, 4, 0)}
        assert_tally_types(table)

    @pytest.mark.parametrize("row", [("y", -1, 0, 0), ("x", 0, -5, 0), ("y", 0, 1.5, 0)])
    def test_rows_are_validated(self, row):
        with pytest.raises(ValueError):
            add_counts({"x": JournalTally(1, 2, 3)}, [row])

    @given(tally_tables, tally_tables)
    def test_equals_merge_tables(self, a, b):
        rows = [(k, t.supporting, t.disputing, t.mentioning) for k, t in b.items()]
        assert add_counts(dict(a), rows) == merge_tables(a, b)

    @pytest.mark.parametrize("field", range(3))
    def test_overflow_message_matches_merge_tables(self, field):
        counts = [0, 0, 0]
        counts[field] = U64_MAX
        big = {"x": JournalTally(*counts)}
        one = [0, 0, 0]
        one[field] = 1
        with pytest.raises(ArithmeticOverflowError) as merged:
            merge_tables(big, {"x": JournalTally(*one)})
        with pytest.raises(ArithmeticOverflowError) as added:
            add_counts(dict(big), [("x", *one)])
        table = dict(big)
        with pytest.raises(ArithmeticOverflowError) as recorded:
            add_record(table, rec("x", [SUP, DIS, MEN][field]))
        assert table == big
        assert str(added.value) == str(merged.value) == str(recorded.value) == "count overflow for journal 'x'"


class TestAggregateCorpus:
    def test_empty(self):
        assert aggregate_corpus([]) == {}

    def test_basic(self):
        records = [rec("a", SUP), rec("b", MEN), rec("a", DIS), rec("a", SUP)]
        assert aggregate_corpus(records) == {
            "a": JournalTally(2, 1, 0),
            "b": JournalTally(0, 0, 1),
        }

    def test_shard_invariance(self, rnd):
        records = make_records(rnd, 600)
        baseline = aggregate_corpus(iter(records))
        for shards in range(2, 9):
            folds = (aggregate_corpus(records[i::shards]) for i in range(shards))
            assert reduce(merge_tables, folds, {}) == baseline

    def test_values_are_tallies(self, rnd):
        table = aggregate_corpus(make_records(rnd, 300))
        assert table
        assert_tally_types(table)

    def test_matches_add_record_fold(self, rnd):
        records = make_records(rnd, 300)
        table = {}
        for r in records:
            add_record(table, r)
        assert aggregate_corpus(records) == table

    def test_accepts_generator(self):
        assert aggregate_corpus(rec("a", SUP) for _ in range(3)) == {"a": JournalTally(3, 0, 0)}

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (("i2", "k", "disputing"), KeyError, "'disputing'"),
            (("i2", "k", None), KeyError, "None"),
            (("i2", "k"), ValueError, "not enough values to unpack (expected 3, got 2)"),
            (("i2", "k", DIS, "extra"), ValueError, "too many values to unpack (expected 3)"),
            (("i2", ["k"], DIS), TypeError, "unhashable type: 'list'"),
            (5, TypeError, "cannot unpack non-iterable int object"),
            (("i2", "k", []), TypeError, "unhashable type: 'list'"),
        ],
    )
    @pytest.mark.parametrize("before", [1, 600])
    @pytest.mark.parametrize("after", [[], [("i3", "k", "mentioning", "extra")]])
    def test_malformed_record_raises(self, bad, error, message, before, after):
        # The first malformed record raises, whichever run it is in; a later
        # one with another fault does not win.
        records = [("i", "j", SUP)] * before + [bad, *after]
        with pytest.raises(error) as info:
            aggregate_corpus(records)
        assert str(info.value) == message


class TestTallyCsv:
    def test_write_sorted_with_total(self):
        table = {"b": JournalTally(1, 2, 3), "a": JournalTally(0, 0, 1)}
        buf = io.StringIO()
        write_tally_csv(table, buf)
        assert buf.getvalue() == (
            "journal,supporting,disputing,mentioning,total\n" "a,0,0,1,1\n" "b,1,2,3,6\n"
        )

    @given(
        st.dictionaries(
            st.text(st.sampled_from(',"\n ') | st.characters(blacklist_characters="\r\x00"), max_size=10),
            tallies,
            max_size=8,
        )
    )
    def test_write_equals_csv_writer(self, table):
        # Keys with a CR are left out: csv.writer quotes them only from Python 3.13.
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(TALLY_HEADER)
        for key in sorted(table):
            t = table[key]
            writer.writerow((key, t.supporting, t.disputing, t.mentioning, t.total()))
        got = io.StringIO()
        write_tally_csv(table, got)
        assert got.getvalue() == want.getvalue()

    def test_write_quotes_a_key_with_a_cr(self):
        buf = io.StringIO()
        write_tally_csv({'a\rb "c"': JournalTally(1, 2, 3)}, buf)
        assert buf.getvalue() == ",".join(TALLY_HEADER) + '\n"a\rb ""c""",1,2,3,6\n'

    @given(tally_tables)
    @settings(max_examples=60)
    def test_round_trip(self, table):
        buf = io.StringIO()
        write_tally_csv(table, buf)
        buf.seek(0)
        read = read_tally_csv(buf)
        assert read == table
        assert_tally_types(read)

    def test_read_rejects_bad_header(self):
        with pytest.raises(MalformedLineError, match="header"):
            read_tally_csv(["journal,supporting\n", "a,1\n"])

    def test_read_rejects_missing_header(self):
        with pytest.raises(MalformedLineError, match="header"):
            read_tally_csv([])

    def test_read_drops_a_bom_before_parsing_line_1(self):
        # Parsed first, the BOM would join the quoted field's text: \ufeff"journal".
        lines = ['\ufeff"journal",supporting,disputing,mentioning,total\n', "a,1,0,0,1\n"]
        assert read_tally_csv(lines) == tally_reference.read_tally_csv(lines) == {"a": JournalTally(1, 0, 0)}

    @pytest.mark.parametrize(
        "lines, got",
        [
            ([], None),  # None: the header is missing
            (["\n", "a,1,0,0,1\n"], ""),
            (["foo,bar\n", "a,1,0,0,1\n"], "foo,bar"),
            (['\ufeff"jo"x,1\r\n', "a,1,0,0,1\n"], '"jo"x,1'),
        ],
        ids=["empty", "blank", "wrong", "bom-quoted-crlf"],
    )
    def test_a_corpus_and_a_tally_word_a_bad_line_1_alike(self, lines, got):
        def message(header):
            if got is None:
                return "line 1: missing CSV header"
            return f"line 1: expected CSV header {','.join(header)!r}, got {got!r}"

        corpus = [line.replace("a,1,0,0,1", "w1,a,supporting") for line in lines]
        with pytest.raises(MalformedLineError) as corpus_error:
            aggregate_corpus(ingest.ingest_stream(corpus, ingest.Format.CSV)[0])
        assert str(corpus_error.value) == message(ingest.CSV_HEADER)
        for read in (read_tally_csv, tally_reference.read_tally_csv):
            with pytest.raises(MalformedLineError) as tally_error:
                read(lines)
            assert str(tally_error.value) == message(TALLY_HEADER)

    @pytest.mark.parametrize(
        "row",
        [
            "a,1,2,3\n",  # too few fields
            "a,1,2,3,6,9\n",  # too many fields
            "a,x,2,3,5\n",  # non-integer
            "a,-1,2,3,4\n",  # negative
            "a,1,2,3,7\n",  # wrong total
            " ,1,2,3,6\n",  # empty key
            "a,1_0,0,0,10\n",  # digits int() takes but the writer never writes
            "b, 5,+1,\u0663,9\n",
            "a,+1,0,0,1\n",
            "a,1,0,\u0663,4\n",  # ARABIC-INDIC DIGIT THREE
            "a,1,2,3,6 \n",
            "a,1,,3,4\n",
            f"a,{2**64},0,0,{2**64}\n",  # past U64_MAX
        ],
    )
    def test_read_rejects_bad_rows(self, row):
        header = ",".join(TALLY_HEADER) + "\n"
        with pytest.raises(MalformedLineError, match="row 2"):
            read_tally_csv([header, row])

    @pytest.mark.parametrize(
        "row, field",
        [
            ("a,x,2,3,5\n", "x"),
            ("a,1_0,0,0,10\n", "1_0"),
            ("b, 5,+1,\u0663,9\n", " 5"),
            ("a,1,+1,3,5\n", "+1"),
            ("a,1,2,\u0663,6\n", "\u0663"),
            ("a,1,2,3,\n", ""),
        ],
    )
    def test_read_names_the_invalid_count(self, row, field):
        header = ",".join(TALLY_HEADER) + "\n"
        with pytest.raises(MalformedLineError) as exc:
            read_tally_csv([header, row])
        assert str(exc.value) == f"row 2: invalid count {field!r}"

    @pytest.mark.parametrize(
        "row, message",
        [
            (f"  ,{2**64},0,0,{2**64}\n", "journal key is empty after normalization"),
            ("a,1,2,3,007\n", "total 7 != 6"),
            ("a,x,2,3\n", "expected 5 fields, got 4"),
            (f"a,{2**64},0,0,{2**64}\n", f"supporting count {2**64} outside [0, 2**64 - 1]"),
            (
                " ,1,2,3," + "9" * 5000 + "\n",
                "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits; "
                "use sys.set_int_max_str_digits() to increase the limit",
            ),
        ],
        ids=["empty-key-before-range", "total", "field-count", "range", "int-digit-limit-before-key"],
    )
    def test_read_message_and_which_fault_wins(self, row, message):
        # The checks run in a fixed order: field count, count syntax, int(),
        # key normalization, the count range, the total, duplicates. A row
        # with two faults is named by the first check it fails.
        header = ",".join(TALLY_HEADER) + "\n"
        with pytest.raises(MalformedLineError) as exc:
            read_tally_csv([header, "good,1,2,3,6\n", row])
        assert str(exc.value) == f"row 3: {message}"

    @pytest.mark.parametrize(
        "after", ["c,1,0,0,2\n", "c\r,1,0,0,1\n", "c\0,1,0,0,1\n"], ids=["total", "csv-error", "nul"]
    )
    def test_a_quoted_journal_split_across_lines_is_refused_at_its_first_line(self, after):
        # Each line is one row, so the first line of the split field is a row
        # of one field, refused before a fault on a later line is read.
        with pytest.raises(MalformedLineError) as exc:
            read_tally_csv([TALLY_HEAD, '"a\n', 'b",1,0,0,1\n', after])
        assert str(exc.value) == "row 2: expected 5 fields, got 1"

    def test_a_corpus_and_a_tally_refuse_a_split_field_on_the_same_line(self):
        corpus = ["citing_id,journal,class\n", "w1,a,supporting\n", 'w2,"b\n', 'c",supporting\n']
        tally = [TALLY_HEAD, "a,1,0,0,1\n", '"b\n', 'c",1,0,0,1\n']
        with pytest.raises(MalformedLineError) as corpus_error:
            aggregate_corpus(ingest.ingest_stream(corpus, ingest.Format.CSV)[0])
        with pytest.raises(MalformedLineError) as tally_error:
            read_tally_csv(tally)
        assert str(corpus_error.value) == "line 3: expected 3 CSV fields, got 2"
        assert str(tally_error.value) == "row 3: expected 5 fields, got 1"

    def test_read_rejects_duplicate_journal(self):
        header = ",".join(TALLY_HEADER) + "\n"
        with pytest.raises(MalformedLineError, match="duplicate"):
            read_tally_csv([header, "a,1,0,0,1\n", "A ,1,0,0,1\n"])

    def test_read_normalizes_keys(self):
        header = ",".join(TALLY_HEADER) + "\n"
        table = read_tally_csv([header, "  Nature Medicine ,1,2,3,6\n"])
        assert table == {"nature medicine": JournalTally(1, 2, 3)}


CHUNK = ingest._BATCH_LINES  # read_tally_csv's batch of data lines
TALLY_HEAD = ",".join(TALLY_HEADER) + "\n"

#: Row ``i`` of a tally CSV for each kind of row, the faulty ones named by
#: the check they fail. "source" is not a row: the source raises there.
TALLY_ROWS = {
    "good": lambda i: f"k{i},{i % 7},{i % 3},{i % 5},{i % 7 + i % 3 + i % 5}\n",
    "unnormalized": lambda i: f"  K{i}  x ,1,2,3,6\n",
    "quoted": lambda i: f'"k{i}, ""q""",1,0,0,1\n',
    "quoted-newline": lambda i: f'"k{i}\nq",1,0,0,1\n',
    "blank": lambda i: "\n",
    "few-fields": lambda i: f"k{i},1,2,3\n",
    "many-fields": lambda i: f"k{i},1,2,3,6,0\n",
    "sign": lambda i: f"k{i},1,+2,3,6\n",
    "empty-count": lambda i: f"k{i},1,,3,4\n",
    "non-ascii-digit": lambda i: f"k{i},1,2,\u0663,6\n",
    "digit-limit": lambda i: f"k{i},1,2,3," + "9" * 5000 + "\n",
    "empty-key": lambda i: " \t,1,2,3,6\n",
    "range": lambda i: f"k{i},{2**64},0,0,{2**64}\n",
    "total": lambda i: f"k{i},1,2,3,7\n",
    "duplicate": lambda i: f" K{i // 2} ,1,0,0,1\n",
    "duplicate-later": lambda i: f"k{i + 3},0,0,1,1\n",
    "csv-error": lambda i: f"k{i}\r,1,2,3,6\n",
    "nul": lambda i: f"k{i}\0,1,2,3,6\n",
    "source": None,
}


def tally_lines(rows: int, placed: dict[int, str]):
    """The lines of a tally CSV of ``rows`` data rows, good except where
    ``placed`` puts another kind; a "source" fault raises from the source.
    A row whose quoted field holds a newline is two lines."""
    yield TALLY_HEAD
    for i in range(rows):
        kind = placed.get(i, "good")
        if kind == "source":
            raise MalformedLineError(f"source fails before row {i + 2}")
        yield from io.StringIO(TALLY_ROWS[kind](i), newline="\n")


def read_outcome(read, rows, placed):
    try:
        return read(tally_lines(rows, placed)), None
    except MalformedLineError as exc:
        return None, str(exc)


#: Row indexes at chunk starts and ends, and either side of each boundary.
near_boundaries = st.sampled_from(sorted({max(0, k * CHUNK + o) for k in range(4) for o in range(-2, 3)}))


class TestChunkedRead:
    @given(
        st.integers(0, 3 * CHUNK + 3),
        st.dictionaries(
            near_boundaries | st.integers(0, 3 * CHUNK), st.sampled_from(sorted(TALLY_ROWS)), max_size=4
        ),
    )
    @settings(max_examples=150, deadline=None)
    @example(CHUNK + 20, {CHUNK + 3: "total", CHUNK + 10: "csv-error"})
    @example(CHUNK + 20, {CHUNK + 3: "empty-key", CHUNK + 10: "source"})
    @example(2 * CHUNK, {CHUNK - 1: "csv-error", CHUNK: "range"})
    @example(2 * CHUNK, {CHUNK - 1: "good", CHUNK: "duplicate"})
    @example(2 * CHUNK, {CHUNK - 1: "quoted-newline", CHUNK + 1: "total"})
    @example(2 * CHUNK, {CHUNK - 3: "quoted-newline", CHUNK - 2: "csv-error"})
    def test_same_table_or_error_as_row_by_row(self, rows, placed):
        got = read_outcome(read_tally_csv, rows, placed)
        assert got == read_outcome(tally_reference.read_tally_csv, rows, placed)
        table, _ = got
        if table is not None:
            assert_tally_types(table)

    @pytest.mark.parametrize(
        "placed, message",
        [
            ({CHUNK + 3: "total", CHUNK + 10: "csv-error"}, f"row {CHUNK + 5}: total 7 != 6"),
            ({CHUNK + 10: "csv-error", 2 * CHUNK - 1: "total"}, f"line {CHUNK + 12}: invalid CSV: "),
            ({CHUNK + 3: "sign", CHUNK + 10: "source"}, f"row {CHUNK + 5}: invalid count '+2'"),
            ({CHUNK - 1: "good", CHUNK: "duplicate"}, f"row {CHUNK + 2}: duplicate journal 'k{CHUNK // 2}'"),
            ({CHUNK + 3: "total", CHUNK + 10: "nul"}, f"row {CHUNK + 5}: total 7 != 6"),
            ({CHUNK + 10: "nul", CHUNK + 11: "csv-error"}, f"line {CHUNK + 12}: invalid CSV: line contains NUL"),
            ({CHUNK + 10: "nul", CHUNK + 11: "source"}, f"line {CHUNK + 12}: invalid CSV: line contains NUL"),
        ],
        ids=[
            "bad-row-before-csv-error",
            "csv-error-before-bad-row",
            "bad-row-before-source-error",
            "duplicate-across-chunks",
            "bad-row-before-nul",
            "nul-before-csv-error",
            "nul-before-source-error",
        ],
    )
    def test_first_fault_wins(self, placed, message):
        _, error = read_outcome(read_tally_csv, 2 * CHUNK, placed)
        assert error.startswith(message)

    def test_an_interrupt_after_a_bad_row_is_not_deferred(self):
        def source():
            yield TALLY_HEAD
            yield "k0,1,0,0,5\n"  # row 2: total 5 != 1
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            read_tally_csv(source())

    def test_a_clean_read_runs_no_python_step_per_row(self):
        """Reading 40 batches of good rows makes fewer than 100 Python and C
        calls a batch, not counting those of normalize_journal_key: no row
        takes a Python step of the reader's own."""
        n = 40 * CHUNK
        lines = list(tally_lines(n, {}))
        key_code = normalize_journal_key.__code__
        events = 0

        def profile(frame, event, arg):
            nonlocal events
            events += event in ("call", "c_call") and frame.f_code is not key_code

        old = sys.getprofile()
        sys.setprofile(profile)
        try:
            table = read_tally_csv(lines)
        finally:
            sys.setprofile(old)
        assert len(table) == n
        assert events < 100 * 40

    @given(
        st.integers(0, 40),
        st.dictionaries(st.integers(0, 40), st.sampled_from(sorted(set(TALLY_ROWS) - {"source"})), max_size=4),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
        st.booleans(),
        st.one_of(st.integers(1, 7), st.just(ingest._BLOCK_BYTES)),
    )
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_a_file_read_in_blocks_reads_as_its_lines(self, tmp_path, rows, placed, end, bom, last_end, block):
        """A tally file read by ``read_lines``, in blocks of any size, gives
        the table or the error its lines give as a list."""
        text = "".join(tally_lines(rows, placed)).replace("\n", end)
        text = ("\ufeff" if bom else "") + (text if last_end else text.removesuffix(end))
        path = tmp_path / "tally.csv"
        path.write_bytes(text.encode())
        with open(path, encoding="utf-8", newline="\n") as fh:
            lines = list(fh)

        def outcome(read, source):
            try:
                return read(source), None
            except MalformedLineError as exc:
                return None, str(exc)

        want = outcome(tally_reference.read_tally_csv, lines)
        assert outcome(read_tally_csv, lines) == want
        with mock.patch.object(ingest, "_BLOCK_BYTES", block):
            assert outcome(read_tally_csv, ingest.read_lines(str(path))) == want


def _row(journal, *counts):
    return [journal, *map(str, counts)]


class TestRowCheck:
    """``aggregate._add_rows``, the one check of tally data rows: a list of
    rows that fails names the first check that fails, worded for the first
    row that fails it, and leaves the table as it was."""

    BIG = 2**64

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([_row("a", 1, 0, 0, 2), _row("b", 1, 0, 0)], "expected 5 fields, got 4"),
            ([_row("a", 1, 0, 0, 2), _row("b", "x", 0, 0, 1), _row("c", 1, "", 0, 1)], "invalid count 'x'"),
            ([_row("a", 1, 0, 0, 1), _row("b", 1, "", 0, 1), _row("c", "+1", 0, 0, 1)], "invalid count ''"),
            (
                [_row(" ", 1, 0, "9" * 4400, 1), _row("b", "9" * 5000, 0, 0, 1)],
                "Exceeds the limit (4300 digits) for integer string conversion: value has 4400 digits; "
                "use sys.set_int_max_str_digits() to increase the limit",
            ),
            ([_row("a", 1, 0, BIG, 1), _row(" ", 1, 0, 0, 1)], "journal key is empty after normalization"),
            (
                [_row("a", 1, 0, 0, 2), _row("b", 0, BIG, 0, BIG), _row("c", BIG, 0, 0, BIG)],
                f"disputing count {BIG} outside [0, 2**64 - 1]",
            ),
            (
                [_row("a", 1, 0, 0, 1), _row("A", 1, 0, 0, 1), _row("c", 1, 2, 3, 9), _row("d", 1, 0, 0, 3)],
                "total 9 != 6",
            ),
            ([_row("b", 1, 0, 0, 1), _row("t ", 1, 0, 0, 1), _row("B", 1, 0, 0, 1)], "duplicate journal 't'"),
            ([_row("b", 1, 0, 0, 1), _row("c", 1, 0, 0, 1), _row(" B", 1, 0, 0, 1)], "duplicate journal 'b'"),
        ],
        ids=[
            "field-count",
            "count-syntax",
            "empty-count",
            "int-digit-limit",
            "key",
            "range",
            "total",
            "duplicate-of-the-table",
            "duplicate-within",
        ],
    )
    def test_the_first_check_that_fails_words_its_first_failing_row(self, rows, message):
        table = {"t": JournalTally(1, 0, 0)}
        assert aggregate._add_rows(table, rows) == message
        assert table == {"t": JournalTally(1, 0, 0)}
