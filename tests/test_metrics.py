import csv
import io
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import exact_scite_index

from citemetric.errors import CitemetricError, UndefinedIndexError
from citemetric.metrics import (
    METRICS_HEADER,
    build_metrics_table,
    evaluate_journal,
    scite_index,
    write_metrics_csv,
)
from citemetric.model import U64_MAX, CorrelationReport, JournalMetrics, JournalTally, MetricsConfig
from citemetric.stats import correlation_report, pearson, scatter_points

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


def oracle_rows(tallies, config):
    """The metrics table one journal at a time, each row built by the
    checked JournalMetrics constructor."""
    rows = []
    for journal in sorted(tallies):
        tally = tallies[journal]
        s, d, m = tally
        if s + d + m > config.min_total_citations and s + d >= config.min_classified:
            rows.append(JournalMetrics(journal, tally, exact_scite_index(s, d), True))
        else:
            rows.append(JournalMetrics(journal, tally, None, False))
    return rows


def outcome(fn, *args):
    try:
        return fn(*args)
    except CitemetricError as exc:
        return type(exc), str(exc)


def oracle_correlations(rows):
    """correlation_report of the rows, from columns built one row at a time."""
    supporting, disputing, totals, si, eligible_totals = [], [], [], [], []
    for _, (s, d, m), index, eligible in rows:
        supporting.append(s)
        disputing.append(d)
        totals.append(s + d + m)
        if eligible:
            si.append(index)
            eligible_totals.append(s + d + m)
    coefficients = []
    for xs, ys, name in (
        (supporting, totals, "supporting vs total"),
        (disputing, totals, "disputing vs total"),
        (si, eligible_totals, "scite index vs total"),
    ):
        r = outcome(pearson, xs, ys)
        if isinstance(r, tuple):
            return r[0], f"{name}: {r[1]}"
        coefficients.append(r)
    return CorrelationReport(*coefficients)


def metrics_csv(rows) -> str:
    buf = io.StringIO()
    write_metrics_csv(rows, buf)
    return buf.getvalue()


class TestColumnTable:
    @given(
        st.dictionaries(
            st.text(max_size=4),
            st.builds(JournalTally, small, small, small) | st.builds(JournalTally, counts, counts, counts),
            max_size=12,
        ),
        st.builds(MetricsConfig, small | st.integers(0, 2 * U64_MAX), st.integers(1, 300)),
    )
    @settings(max_examples=300)
    @example({}, MetricsConfig())
    @example({"j": JournalTally(1, 0, 100)}, MetricsConfig())
    @example({"a": JournalTally(1, 2, 3), "b": JournalTally(4, 5, 6)}, MetricsConfig())
    def test_equals_the_row_by_row_oracle(self, tallies, config):
        table = build_metrics_table(tallies, config)
        rows = oracle_rows(tallies, config)
        assert list(table) == rows
        assert [type(row) for row in table] == [JournalMetrics] * len(rows)
        assert table == rows and rows == table and table == build_metrics_table(tallies, config)
        assert table != rows[:-1] or not rows
        assert len(table) == len(rows) and bool(table) == bool(rows)
        for i in range(-len(rows), len(rows)):
            assert table[i] == rows[i] and type(table[i]) is JournalMetrics
        assert table[1:-1] == rows[1:-1] and table[::2] == rows[::2]
        with pytest.raises(IndexError):
            table[len(rows)]
        assert [evaluate_journal(j, tallies[j], config) for j in sorted(tallies)] == rows
        assert metrics_csv(table) == metrics_csv(rows)
        for metrics in (table, rows):
            assert outcome(correlation_report, metrics) == oracle_correlations(rows)
            assert scatter_points(metrics) == [
                (r.journal, math.log10(r.tally.total()), r.scite_index) for r in rows if r.eligible
            ]

    def test_is_read_only(self):
        table = build_metrics_table({"a": JournalTally(1, 2, 3)})
        with pytest.raises(TypeError):
            table[0] = table[0]
        with pytest.raises(AttributeError):
            table.extra = 1
        with pytest.raises(TypeError):
            hash(table)

    def test_no_python_step_per_journal(self):
        """Evaluating 5,000 journals, reading the columns report reads, and
        correlating and scattering them, from a table or from a list of
        its rows, enter fewer than 100 Python frames."""
        tallies = {f"j{i}": JournalTally(i % 300, i % 7, i % 11) for i in range(5000)}
        events = 0

        def profile(frame, event, arg):
            nonlocal events
            events += event == "call"

        old = sys.getprofile()
        sys.setprofile(profile)
        try:
            metrics = build_metrics_table(tallies)
            columns = (metrics.supporting, metrics.disputing, metrics.scite_index)
            report = correlation_report(metrics)
            points = scatter_points(metrics)
        finally:
            sys.setprofile(old)
        assert events < 100
        assert len(points) == len(columns[2]) > 100 and len(columns[0]) == 5000
        rows = list(metrics)
        events = 0
        sys.setprofile(profile)
        try:
            assert correlation_report(rows) == report
            assert scatter_points(rows) == points
        finally:
            sys.setprofile(old)
        assert events < 100
