import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citemetric.errors import EmptyKeyError
from citemetric.model import (
    U64_MAX,
    CitationClass,
    CorrelationReport,
    JournalMetrics,
    JournalTally,
    MetricsConfig,
    StatsSummary,
    normalize_journal_key,
)


class TestNormalizeJournalKey:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("Nature", "nature"),
            ("  The Lancet  ", "the lancet"),
            ("Journal\tof\n Things", "journal of things"),
            ("UPPER  CASE", "upper case"),
            ("j", "j"),
            ("STRASSE", "strasse"),
            ("Straße", "strasse"),  # casefold, not lower
        ],
    )
    def test_plain_names(self, raw, expected):
        assert normalize_journal_key(raw) == expected

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("0028-0836", "0028-0836"),
            ("2049-363x", "2049-363X"),
            (" 2049-363X ", "2049-363X"),
        ],
    )
    def test_issn_kept_verbatim_with_upper_check_digit(self, raw, expected):
        assert normalize_journal_key(raw) == expected

    def test_issn_like_but_longer_is_treated_as_name(self):
        assert normalize_journal_key("0028-08367") == "0028-08367"

    @pytest.mark.parametrize("raw", ["", "   ", "\t\n"])
    def test_empty_rejected(self, raw):
        with pytest.raises(EmptyKeyError):
            normalize_journal_key(raw)

    @given(st.text(min_size=1, max_size=40))
    def test_idempotent(self, raw):
        try:
            once = normalize_journal_key(raw)
        except EmptyKeyError:
            return
        assert normalize_journal_key(once) == once


class TestJournalTally:
    def test_defaults_are_zero(self):
        t = JournalTally()
        assert (t.supporting, t.disputing, t.mentioning) == (0, 0, 0)
        assert t.total() == 0
        assert t.classified() == 0

    def test_total_and_classified(self):
        t = JournalTally(supporting=3, disputing=2, mentioning=10)
        assert t.total() == 15
        assert t.classified() == 5

    def test_max_count_accepted(self):
        t = JournalTally(U64_MAX, 0, 0)
        assert t.supporting == U64_MAX

    @pytest.mark.parametrize("bad", [-1, U64_MAX + 1])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            JournalTally(supporting=bad)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            JournalTally(supporting=1.5)

    def test_immutable_and_hashable(self):
        t = JournalTally(1, 2, 3)
        with pytest.raises(AttributeError):
            t.supporting = 9
        assert t == JournalTally(1, 2, 3)
        assert len({t, JournalTally(1, 2, 3)}) == 1

    def test_repr(self):
        assert repr(JournalTally(1, 2, 3)) == "JournalTally(supporting=1, disputing=2, mentioning=3)"

    def test_error_messages(self):
        with pytest.raises(ValueError) as not_int:
            JournalTally(0, 1.5)
        with pytest.raises(ValueError) as out_of_range:
            JournalTally(0, 0, U64_MAX + 1)
        assert str(not_int.value) == "disputing count must be an integer, got 1.5"
        assert str(out_of_range.value) == f"mentioning count {U64_MAX + 1} outside [0, 2**64 - 1]"

    def test_equals_the_plain_tuple_of_its_counts(self):
        t = JournalTally(1, 2, 3)
        assert t == (1, 2, 3) and tuple(t) == (1, 2, 3) and hash(t) == hash((1, 2, 3))

    def test_int_subclass_is_stored_as_int(self):
        t = JournalTally(True, 0, 0)
        assert t == (1, 0, 0) and type(t.supporting) is int

    @pytest.mark.parametrize(
        "build",
        [
            lambda: JournalTally._make([-1, 0, 0]),
            lambda: JournalTally._make([0, 0, U64_MAX + 1]),
            lambda: JournalTally(1, 2, 3)._replace(supporting=-5),
            lambda: JournalTally(1, 2, 3)._replace(mentioning=0.5),
        ],
    )
    def test_make_and_replace_validate(self, build):
        with pytest.raises(ValueError):
            build()

    def test_make_replace_pickle_and_copy_keep_the_type(self):
        t = JournalTally(1, 2, 3)
        for made in (
            JournalTally._make([1, 2, 3]),
            t._replace(),
            pickle.loads(pickle.dumps(t)),
            copy.copy(t),
            copy.deepcopy(t),
        ):
            assert type(made) is JournalTally and made == t


class TestConfigAndMetrics:
    def test_defaults(self):
        cfg = MetricsConfig()
        assert cfg.min_total_citations == 100
        assert cfg.min_classified == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MetricsConfig(min_total_citations=-1)
        with pytest.raises(ValueError):
            MetricsConfig(min_classified=0)

    def test_index_present_iff_eligible(self):
        t = JournalTally(5, 5, 200)
        with pytest.raises(ValueError):
            JournalMetrics("j", t, None, True)
        with pytest.raises(ValueError):
            JournalMetrics("j", t, 0.5, False)
        with pytest.raises(ValueError):
            JournalMetrics("j", t, 1.5, True)
        m = JournalMetrics("j", t, 0.5, True)
        assert m.eligible and m.scite_index == 0.5


class TestSummaryAndCorrelation:
    def test_summary_invariants(self):
        with pytest.raises(ValueError):
            StatsSummary(1, 0.0, 0.0, 0.0, None, 0.0, 0.0)
        with pytest.raises(ValueError):
            StatsSummary(3, 0.5, 2.0, 1.0, None, 0.0, 1.0)  # median > max
        with pytest.raises(ValueError):
            StatsSummary(3, 2.0, 0.5, 1.0, None, 0.0, 1.0)  # mean > max
        with pytest.raises(ValueError):
            StatsSummary(3, 0.5, 0.5, -0.1, None, 0.0, 1.0)  # negative sd
        s = StatsSummary(3, 0.5, 0.5, 0.1, None, 0.0, 1.0)
        assert s.skew is None

    def test_correlation_range(self):
        with pytest.raises(ValueError):
            CorrelationReport(1.1, 0.0, 0.0)
        r = CorrelationReport(1.0, -1.0, 0.0)
        assert r.r_supporting_vs_total == 1.0


def test_citation_class_labels():
    assert {c.value for c in CitationClass} == {"supporting", "disputing", "mentioning"}
