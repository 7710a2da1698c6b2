import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_records, tally_tables

from citemetric.aggregate import (
    TALLY_HEADER,
    add_counts,
    add_record,
    aggregate_corpus,
    empty_tally,
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

    def test_increments_by_class(self):
        table = {}
        for k in (SUP, DIS, DIS, MEN, MEN, MEN):
            add_record(table, rec("a", k))
        assert table["a"] == JournalTally(1, 2, 3)

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

    @given(tally_tables, tally_tables, tally_tables)
    @settings(max_examples=60)
    def test_associative(self, a, b, c):
        assert merge_tables(merge_tables(a, b), c) == merge_tables(a, merge_tables(b, c))

    @given(tally_tables)
    def test_identity(self, a):
        assert merge_tables(a, {}) == a
        assert merge_tables({}, a) == a

    def test_empty_tally_is_identity_element(self):
        assert empty_tally() == JournalTally()
        assert merge_tables({"x": empty_tally()}, {"x": JournalTally(1, 2, 3)}) == {
            "x": JournalTally(1, 2, 3)
        }


class TestAddCounts:
    def test_in_place_with_new_and_shared_keys(self):
        table = {"x": JournalTally(1, 2, 3)}
        same = table
        assert add_counts(table, [("x", 10, 20, 30), ("y", 0, 4, 0), ("x", 1, 0, 0)]) is same
        assert table == {"x": JournalTally(12, 22, 33), "y": JournalTally(0, 4, 0)}

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

    def test_shards_rejects_zero(self):
        with pytest.raises(ValueError):
            aggregate_corpus([], shards=0)

    def test_shard_invariance(self, rnd):
        records = make_records(rnd, 600)
        baseline = aggregate_corpus(iter(records))
        for shards in range(2, 9):
            assert aggregate_corpus(iter(records), shards=shards) == baseline

    def test_matches_add_record_fold(self, rnd):
        records = make_records(rnd, 300)
        table = {}
        for r in records:
            add_record(table, r)
        assert aggregate_corpus(records) == table

    def test_accepts_generator(self):
        assert aggregate_corpus(rec("a", SUP) for _ in range(3)) == {"a": JournalTally(3, 0, 0)}


class TestTallyCsv:
    def test_write_sorted_with_total(self):
        table = {"b": JournalTally(1, 2, 3), "a": JournalTally(0, 0, 1)}
        buf = io.StringIO()
        write_tally_csv(table, buf)
        assert buf.getvalue() == (
            "journal,supporting,disputing,mentioning,total\n" "a,0,0,1,1\n" "b,1,2,3,6\n"
        )

    @given(tally_tables)
    @settings(max_examples=60)
    def test_round_trip(self, table):
        buf = io.StringIO()
        write_tally_csv(table, buf)
        buf.seek(0)
        assert read_tally_csv(buf) == table

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
        ],
    )
    def test_read_rejects_bad_rows(self, row):
        header = ",".join(TALLY_HEADER) + "\n"
        with pytest.raises(MalformedLineError, match="row 2"):
            read_tally_csv([header, row])

    def test_read_rejects_duplicate_journal(self):
        header = ",".join(TALLY_HEADER) + "\n"
        with pytest.raises(MalformedLineError, match="duplicate"):
            read_tally_csv([header, "a,1,0,0,1\n", "A ,1,0,0,1\n"])

    def test_read_normalizes_keys(self):
        header = ",".join(TALLY_HEADER) + "\n"
        table = read_tally_csv([header, "  Nature Medicine ,1,2,3,6\n"])
        assert table == {"nature medicine": JournalTally(1, 2, 3)}
