import csv
import io
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tally_reference
from conftest import assert_tally_types, make_records, tallies, tally_tables

from citemetric import aggregate
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
from citemetric.model import U64_MAX, CitationClass, CitationRecord, JournalTally

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

    def test_read_rejects_duplicate_journal(self):
        header = ",".join(TALLY_HEADER) + "\n"
        with pytest.raises(MalformedLineError, match="duplicate"):
            read_tally_csv([header, "a,1,0,0,1\n", "A ,1,0,0,1\n"])

    def test_read_normalizes_keys(self):
        header = ",".join(TALLY_HEADER) + "\n"
        table = read_tally_csv([header, "  Nature Medicine ,1,2,3,6\n"])
        assert table == {"nature medicine": JournalTally(1, 2, 3)}


CHUNK = aggregate._CHUNK_ROWS
TALLY_HEAD = ",".join(TALLY_HEADER) + "\n"

#: Row ``i`` of a tally CSV for each kind of row, the faulty ones named by
#: the check they fail. "source" is not a row: the source raises there.
TALLY_ROWS = {
    "good": lambda i: f"k{i},{i % 7},{i % 3},{i % 5},{i % 7 + i % 3 + i % 5}\n",
    "unnormalized": lambda i: f"  K{i}  x ,1,2,3,6\n",
    "quoted": lambda i: f'"k{i}, ""q""",1,0,0,1\n',
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
    "source": None,
}


def tally_lines(rows: int, placed: dict[int, str]):
    """The lines of a tally CSV of ``rows`` data rows, good except where
    ``placed`` puts another kind; a "source" fault raises from the source."""
    yield TALLY_HEAD
    for i in range(rows):
        kind = placed.get(i, "good")
        if kind == "source":
            raise MalformedLineError(f"source fails before row {i + 2}")
        yield TALLY_ROWS[kind](i)


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
        ],
        ids=[
            "bad-row-before-csv-error",
            "csv-error-before-bad-row",
            "bad-row-before-source-error",
            "duplicate-across-chunks",
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
