import io
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import stats_reference
from conftest import csv_text, csv_writer_text

from citemetric.errors import (
    EmptyInputError,
    InsufficientDataError,
    LengthMismatchError,
    OutOfRangeError,
    ZeroVarianceError,
)
from citemetric.metrics import build_metrics_table
from citemetric.model import U64_MAX, CorrelationReport, JournalTally
from citemetric.stats import (
    HISTOGRAM_HEADER,
    SCATTER_HEADER,
    correlation_report,
    histogram,
    mean,
    median,
    pearson,
    sample_sd,
    scatter_points,
    skewness,
    summarize,
    write_correlations_json,
    write_histogram_csv,
    write_scatter_csv,
    write_summary_json,
)

# Magnitudes the acceptance suite exercises; kept moderate here for speed.
finite = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)
vectors = st.lists(finite, min_size=2, max_size=40)


def random_vector(rnd, n):
    # log-uniform magnitudes across the interesting range, mixed signs
    return [rnd.choice((-1, 1)) * 10 ** rnd.uniform(-3, 6) for _ in range(n)]


class TestKernelsAgainstOracles:
    @given(vectors)
    @settings(max_examples=80)
    def test_mean(self, xs):
        assert mean(xs) == pytest.approx(float(oracles.exact_mean(xs)), abs=1e-9, rel=1e-12)

    @given(vectors)
    @settings(max_examples=80)
    def test_median(self, xs):
        assert median(xs) == pytest.approx(float(oracles.exact_median(xs)), abs=0)

    @given(vectors)
    @settings(max_examples=80)
    def test_sample_sd(self, xs):
        assert sample_sd(xs) == pytest.approx(oracles.exact_sample_sd(xs), abs=1e-9, rel=1e-12)

    def test_skewness_random(self, rnd):
        for _ in range(60):
            xs = random_vector(rnd, rnd.randrange(3, 60))
            try:
                expected = oracles.exact_skewness_g1(xs)
            except ZeroDivisionError:
                continue
            assert skewness(xs) == pytest.approx(expected, abs=1e-9)

    def test_pearson_random(self, rnd):
        for _ in range(60):
            n = rnd.randrange(2, 60)
            xs = random_vector(rnd, n)
            ys = [x * 0.5 + rnd.uniform(-1, 1) for x in xs]
            try:
                expected = oracles.exact_pearson(xs, ys)
            except ZeroDivisionError:
                continue
            assert pearson(xs, ys) == pytest.approx(expected, abs=1e-9)


def _vectors(n):
    """n ints up to 2**64 - 1 or n floats in [0, 1], either possibly constant."""
    return st.one_of(
        *(
            st.lists(elements, min_size=n, max_size=n) | elements.map(lambda x: [x] * n)
            for elements in (st.integers(0, U64_MAX), st.floats(0.0, 1.0))
        )
    )


sizes = st.integers(2, 30) | st.sampled_from([2, 3])


def _outcome(fn, *args):
    """repr of the result, which tells every float apart (-0.0 too), or the
    error's type and message."""
    try:
        return repr(fn(*args))
    except (InsufficientDataError, ZeroVarianceError) as exc:
        return type(exc), str(exc)


class TestSameBitsAsGeneratorExpressions:
    @given(sizes.flatmap(_vectors))
    @settings(max_examples=300)
    def test_one_column(self, xs):
        for kernel in (summarize, sample_sd, skewness):
            reference = getattr(stats_reference, kernel.__name__)
            assert _outcome(kernel, xs) == _outcome(reference, xs), kernel.__name__

    @given(sizes.flatmap(lambda n: st.tuples(_vectors(n), _vectors(n))))
    @settings(max_examples=300)
    def test_pearson(self, pair):
        xs, ys = pair
        assert _outcome(pearson, xs, ys) == _outcome(stats_reference.pearson, xs, ys)


class TestPinnedValues:
    def test_skewness_outlier_vector_is_exactly_two(self):
        assert skewness([1, 1, 1, 10]) == 2.0

    def test_pearson_small_vector(self):
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(9 / math.sqrt(84), abs=1e-12)

    def test_mean_median(self):
        assert mean([1.0, 2.0, 4.0]) == pytest.approx(7 / 3, rel=1e-15)
        assert median([5.0, 1.0, 3.0]) == 3.0
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5

    def test_sd_two_points(self):
        # variance ((1-2)^2 + (3-2)^2) / 1 = 2
        assert sample_sd([1.0, 3.0]) == math.sqrt(2)

    def test_pearson_perfect_correlation_is_exactly_one(self):
        rng = random.Random(5)
        xs = [rng.uniform(0, 1e6) for _ in range(100)]
        assert pearson(xs, xs) == 1.0
        assert pearson(xs, [-x for x in xs]) == -1.0


class TestTinyAndConstantColumns:
    def test_skewness_when_the_cubed_variance_underflows(self):
        xs = [0.0, 0.0, 5.805182140522114e-112]
        assert skewness(xs) == pytest.approx(oracles.exact_skewness_g1(xs), rel=1e-12)
        assert summarize(xs).skew == skewness(xs)

    def test_pearson_when_the_variance_product_underflows(self):
        xs, ys = [0.0, 1e-120, 3e-120], [1e-130, 0.0, 5e-130]
        assert pearson(xs, ys) == pytest.approx(oracles.exact_pearson(xs, ys), rel=1e-12)

    def test_tiny_constant_columns_do_not_correlate(self):
        xs = [1.0998082249284365e-125] * 5
        with pytest.raises(ZeroDivisionError, match="zero variance"):
            oracles.exact_pearson(xs, xs)
        with pytest.raises(ZeroVarianceError):
            pearson(xs, xs)

    # fsum(xs)/n misses each of these constants by an ulp.
    @pytest.mark.parametrize("c, n", [(0.7597129630855459, 27), (0.1, 3)])
    def test_constant_column_has_zero_variance(self, c, n):
        xs = [c] * n
        assert oracles.exact_sample_sd(xs) == 0.0
        assert sample_sd(xs) == 0.0
        s = summarize(xs)
        assert (s.mean, s.sd, s.skew) == (c, 0.0, None)
        with pytest.raises(ZeroVarianceError):
            skewness(xs)
        with pytest.raises(ZeroVarianceError):
            pearson(xs, list(range(n)))


class TestKernelErrors:
    def test_empty_inputs(self):
        with pytest.raises(EmptyInputError):
            mean([])
        with pytest.raises(EmptyInputError):
            median([])

    def test_insufficient(self):
        with pytest.raises(InsufficientDataError):
            sample_sd([1.0])
        with pytest.raises(InsufficientDataError):
            skewness([1.0, 2.0])
        with pytest.raises(InsufficientDataError):
            pearson([1.0], [2.0])

    def test_zero_variance(self):
        with pytest.raises(ZeroVarianceError):
            skewness([3.0, 3.0, 3.0])
        with pytest.raises(ZeroVarianceError):
            pearson([1.0, 1.0], [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            pearson([1.0, 2.0], [1.0])


class TestSummarize:
    def test_fields(self):
        s = summarize([1.0, 1.0, 1.0, 10.0], "demo")
        assert s.count == 4
        assert s.mean == 3.25
        assert s.median == 1.0
        assert s.skew == 2.0
        assert (s.min, s.max) == (1.0, 10.0)

    def test_skew_none_when_constant(self):
        assert summarize([2.0, 2.0, 2.0]).skew is None

    def test_skew_none_when_n_is_two(self):
        assert summarize([1.0, 2.0]).skew is None

    def test_too_few_values_names_label(self):
        with pytest.raises(InsufficientDataError, match="scite_index"):
            summarize([0.5], "scite_index")

    def test_mean_clamped_into_range(self):
        # fsum([0.1]*3)/3 exceeds 0.1 by one ulp; the summary must keep
        # min <= mean <= max.
        s = summarize([0.1, 0.1, 0.1])
        assert s.mean == s.max == 0.1


class TestHistogram:
    def test_uniform_spread(self):
        rows = histogram([0.05, 0.15, 0.25, 0.35], 0.0, 0.4, 4)
        assert [count for _, _, count in rows] == [1, 1, 1, 1]
        assert rows[0][:2] == (0.0, 0.1)

    def test_half_open_bins_left_edge_inclusive(self):
        rows = histogram([0.0, 0.5], 0.0, 1.0, 2)
        assert [c for *_, c in rows] == [1, 1]

    def test_last_bin_closed(self):
        rows = histogram([1.0], 0.0, 1.0, 2)
        assert [c for *_, c in rows] == [0, 1]

    def test_counts_conserved(self, rnd):
        values = [rnd.random() for _ in range(500)]
        rows = histogram(values, 0.0, 1.0, 50)
        assert sum(c for *_, c in rows) == 500
        assert rows[0][0] == 0.0 and rows[-1][1] == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRangeError):
            histogram([1.5], 0.0, 1.0, 10)
        with pytest.raises(OutOfRangeError):
            histogram([-0.1], 0.0, 1.0, 10)
        with pytest.raises(OutOfRangeError):
            histogram([math.nan], 0.0, 1.0, 10)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            histogram([0.5], 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            histogram([0.5], 1.0, 1.0, 10)

    def test_single_bin(self):
        assert histogram([0.2, 0.9], 0.0, 1.0, 1) == [(0.0, 1.0, 2)]


def _metrics_fixture():
    # two eligible journals (total > 100), one not
    table = {
        "a": JournalTally(150, 50, 0),
        "b": JournalTally(10, 30, 100),
        "c": JournalTally(1, 1, 1),
    }
    return build_metrics_table(table)


class TestReportData:
    def test_scatter_points_eligible_only_log_total(self):
        points = scatter_points(_metrics_fixture())
        assert [p[0] for p in points] == ["a", "b"]
        journal, log_total, si = points[0]
        assert log_total == math.log10(200)
        assert si == 0.75

    def test_correlation_report_shape(self, rnd):
        table = {
            f"j{i}": JournalTally(rnd.randrange(400), rnd.randrange(40), rnd.randrange(200))
            for i in range(80)
        }
        rep = correlation_report(build_metrics_table(table))
        for r in (rep.r_supporting_vs_total, rep.r_disputing_vs_total, rep.r_si_vs_total):
            assert -1.0 <= r <= 1.0

    def test_correlation_report_equals_pearson_of_its_columns(self, rnd):
        table = {
            f"j{i}": JournalTally(rnd.randrange(400), rnd.randrange(40), rnd.randrange(200))
            for i in range(80)
        }
        metrics = build_metrics_table(table)
        totals = [m.tally.total() for m in metrics]
        eligible = [m for m in metrics if m.eligible]
        assert correlation_report(metrics) == CorrelationReport(
            pearson([m.tally.supporting for m in metrics], totals),
            pearson([m.tally.disputing for m in metrics], totals),
            pearson([m.scite_index for m in eligible], [m.tally.total() for m in eligible]),
        )

    def test_correlation_report_names_failing_statistic(self):
        # two journals so the all-journal columns correlate fine, but only
        # one is eligible, starving the SI correlation
        metrics = build_metrics_table({"a": JournalTally(150, 50, 0), "b": JournalTally(1, 2, 0)})
        with pytest.raises(InsufficientDataError, match="scite index vs total"):
            correlation_report(metrics)


class TestWriters:
    def test_summary_json(self):
        buf = io.StringIO()
        write_summary_json({"demo": summarize([1.0, 1.0, 1.0, 10.0])}, buf)
        payload = json.loads(buf.getvalue())
        assert payload == {
            "demo": {
                "count": 4,
                "mean": 3.25,
                "median": 1.0,
                "sd": 4.5,
                "skew": 2.0,
                "min": 1.0,
                "max": 10.0,
            }
        }
        assert buf.getvalue().endswith("\n")

    def test_correlations_json(self):
        buf = io.StringIO()
        write_correlations_json(
            correlation_report(
                build_metrics_table(
                    {
                        "a": JournalTally(150, 50, 0),
                        "b": JournalTally(10, 30, 100),
                        "c": JournalTally(120, 2, 0),
                    }
                )
            ),
            buf,
        )
        payload = json.loads(buf.getvalue())
        assert set(payload) == {
            "r_supporting_vs_total",
            "r_disputing_vs_total",
            "r_si_vs_total",
        }

    def test_histogram_csv(self):
        buf = io.StringIO()
        write_histogram_csv(histogram([0.25, 1.0], 0.0, 1.0, 2), buf)
        assert buf.getvalue() == "bin_lower,bin_upper,count\n0.0,0.5,1\n0.5,1.0,1\n"

    def test_scatter_csv(self):
        buf = io.StringIO()
        write_scatter_csv([("a", 2.0, 0.75)], buf)
        assert buf.getvalue() == "journal,log10_total,scite_index\na,2.0,0.75\n"

    def test_scatter_csv_quotes_a_key_with_a_cr(self):
        buf = io.StringIO()
        write_scatter_csv([("a\rb", 2.0, 0.75)], buf)
        assert buf.getvalue() == ",".join(SCATTER_HEADER) + '\n"a\rb",2.0,0.75\n'

    @given(st.lists(st.tuples(st.floats(), st.floats(), st.integers(0, U64_MAX)), max_size=8))
    def test_histogram_csv_equals_csv_writer(self, rows):
        buf = io.StringIO()
        write_histogram_csv(rows, buf)
        assert buf.getvalue() == csv_writer_text([HISTOGRAM_HEADER, *rows])

    @given(st.lists(st.tuples(csv_text, st.floats(), st.floats()), max_size=8))
    def test_scatter_csv_equals_csv_writer(self, points):
        buf = io.StringIO()
        write_scatter_csv(points, buf)
        assert buf.getvalue() == csv_writer_text([SCATTER_HEADER, *points])
