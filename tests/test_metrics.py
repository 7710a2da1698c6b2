import csv
import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exact_scite_index

from citemetric.errors import UndefinedIndexError
from citemetric.metrics import (
    METRICS_HEADER,
    build_metrics_table,
    evaluate_journal,
    scite_index,
    write_metrics_csv,
)
from citemetric.model import U64_MAX, JournalTally, MetricsConfig

counts = st.integers(0, U64_MAX)
small = st.integers(0, 200)


class TestSciteIndex:
    @pytest.mark.parametrize(
        "s, d, expected",
        [
            (1, 0, 1.0),
            (0, 1, 0.0),
            (1, 1, 0.5),
            (3, 1, 0.75),
            (87, 13, 0.87),
        ],
    )
    def test_values(self, s, d, expected):
        assert scite_index(JournalTally(s, d, 0)) == expected

    def test_mentions_never_enter(self):
        assert scite_index(JournalTally(3, 1, 0)) == scite_index(JournalTally(3, 1, 10**9))

    def test_undefined_without_classified(self):
        with pytest.raises(UndefinedIndexError):
            scite_index(JournalTally(0, 0, 500))

    @given(st.integers(0, 10**12), st.integers(0, 10**12))
    def test_bit_identical_to_exact_rational(self, s, d):
        if s + d == 0:
            with pytest.raises(UndefinedIndexError):
                scite_index(JournalTally(s, d, 0))
        else:
            got = scite_index(JournalTally(s, d, 0))
            assert got == exact_scite_index(s, d)


class TestEligibility:
    def test_total_100_is_ineligible(self):
        m = evaluate_journal("j", JournalTally(1, 0, 99))
        assert not m.eligible and m.scite_index is None

    def test_total_101_with_one_classified_is_eligible(self):
        m = evaluate_journal("j", JournalTally(1, 0, 100))
        assert m.eligible and m.scite_index == 1.0

    def test_needs_a_classified_citation(self):
        m = evaluate_journal("j", JournalTally(0, 0, 500))
        assert not m.eligible

    def test_custom_thresholds(self):
        cfg = MetricsConfig(min_total_citations=0, min_classified=1)
        m = evaluate_journal("j", JournalTally(0, 1, 0), cfg)
        assert m.eligible and m.scite_index == 0.0

    def test_min_classified_binds(self):
        cfg = MetricsConfig(min_total_citations=0, min_classified=3)
        assert not evaluate_journal("j", JournalTally(2, 0, 500), cfg).eligible
        assert evaluate_journal("j", JournalTally(2, 1, 0), cfg).eligible

    def test_filter_matches_brute_force_recount(self, rnd):
        cfg = MetricsConfig()
        for _ in range(30):
            table = {
                f"j{i}": JournalTally(rnd.randrange(60), rnd.randrange(8), rnd.randrange(90))
                for i in range(50)
            }
            metrics = build_metrics_table(table, cfg)
            flagged = {m.journal for m in metrics if m.eligible}
            recount = {
                k
                for k, t in table.items()
                if t.supporting + t.disputing + t.mentioning > 100
                and t.supporting + t.disputing >= 1
            }
            assert flagged == recount


class TestMetricsTable:
    def test_sorted_by_journal(self):
        table = {"b": JournalTally(1, 0, 0), "a": JournalTally(0, 1, 0)}
        assert [m.journal for m in build_metrics_table(table)] == ["a", "b"]

    def test_csv_format(self):
        table = {
            "alpha": JournalTally(199, 1, 0),
            "beta": JournalTally(1, 2, 0),
        }
        buf = io.StringIO()
        write_metrics_csv(build_metrics_table(table), buf)
        assert buf.getvalue() == (
            "journal,supporting,disputing,mentioning,total,classified,eligible,scite_index\n"
            "alpha,199,1,0,200,200,true,0.9950\n"
            "beta,1,2,0,3,3,false,\n"
        )

    def test_csv_rounds_to_four_decimals(self):
        table = {"j": JournalTally(2, 1, 100)}
        buf = io.StringIO()
        write_metrics_csv(build_metrics_table(table), buf)
        assert ",0.6667\n" in buf.getvalue()

    @given(
        st.dictionaries(
            # Keys with a CR are left out: csv.writer quotes them only from
            # Python 3.13. NUL is left out: it writes one only from 3.11.
            st.text(st.sampled_from(',"') | st.characters(blacklist_characters="\r\n\x00"), max_size=10),
            st.builds(JournalTally, counts, counts, counts) | st.builds(JournalTally, small, small, small),
            max_size=8,
        ),
        # Thresholds on both sides of small and of huge totals, so rows come
        # out eligible and ineligible.
        small | st.integers(0, 2 * U64_MAX),
    )
    @settings(max_examples=200)
    def test_csv_equals_csv_writer(self, table, min_total):
        metrics = build_metrics_table(table, MetricsConfig(min_total, 1))
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(METRICS_HEADER)
        for m in metrics:
            t = m.tally
            si = "" if m.scite_index is None else f"{m.scite_index:.4f}"
            row = (m.journal, *t, t.total(), t.classified(), "true" if m.eligible else "false", si)
            writer.writerow(row)
        got = io.StringIO()
        write_metrics_csv(metrics, got)
        assert got.getvalue() == want.getvalue()

    def test_csv_quotes_a_key_with_a_cr(self):
        buf = io.StringIO()
        write_metrics_csv(build_metrics_table({'a\rb "c"': JournalTally(1, 2, 3)}), buf)
        assert buf.getvalue() == ",".join(METRICS_HEADER) + '\n"a\rb ""c""",1,2,3,6,3,false,\n'
