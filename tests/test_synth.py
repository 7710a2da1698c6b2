import math
from itertools import islice

import pytest

from citemetric import synth
from citemetric.aggregate import aggregate_corpus
from citemetric.errors import InvalidParamsError
from citemetric.model import U64_MAX, CitationClass, JournalTally
from citemetric.synth import (
    SynthParams,
    default_paper_regime,
    generate_corpus,
    journal_counts,
)

SMALL = SynthParams(journals=40, seed=7)


class TestSynthParams:
    def test_defaults_match_documented_regime(self):
        p = default_paper_regime()
        assert p == SynthParams(
            journals=10_000,
            lognormal_mu=3.0,
            lognormal_sigma=1.8,
            beta_alpha=9.0,
            beta_beta=1.4,
            mention_ratio=0.8,
            seed=42,
        )

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(journals=0), "journals"),
            (dict(lognormal_sigma=0.0), "lognormal_sigma"),
            (dict(lognormal_sigma=-1.0), "lognormal_sigma"),
            (dict(lognormal_mu=math.nan), "lognormal_mu"),
            (dict(lognormal_mu=math.inf), "lognormal_mu"),
            (dict(beta_alpha=0.0), "beta_alpha"),
            (dict(beta_beta=-0.5), "beta_beta"),
            (dict(mention_ratio=1.0), "mention_ratio"),
            (dict(mention_ratio=-0.1), "mention_ratio"),
            (dict(seed=-1), "seed"),
            (dict(seed=U64_MAX + 1), "seed"),
        ],
    )
    def test_validation_names_field(self, kwargs, field):
        with pytest.raises(InvalidParamsError, match=field):
            SynthParams(**{"journals": 10, **kwargs})

    def test_mention_ratio_zero_allowed(self):
        p = SynthParams(journals=5, mention_ratio=0.0)
        for i in range(5):
            assert journal_counts(p, i)[3] == 0


class TestJournalCounts:
    def test_conservation(self):
        for i in range(300):
            c, s, d, m = journal_counts(SMALL, i)
            assert s + d == c
            assert 0 <= s <= c
            assert m == round(c * 0.8 / 0.2)

    def test_deterministic_and_order_free(self):
        first = [journal_counts(SMALL, i) for i in range(40)]
        again = [journal_counts(SMALL, i) for i in reversed(range(40))]
        assert first == again[::-1]

    def test_independent_of_journal_count(self):
        # sub-streams are keyed by (seed, index) alone, so growing the corpus
        # never changes existing journals
        bigger = SynthParams(journals=4000, seed=7)
        assert [journal_counts(SMALL, i) for i in range(40)] == [
            journal_counts(bigger, i) for i in range(40)
        ]

    def test_a_journal_over_the_record_bound_is_rejected_before_its_split(self, monkeypatch):
        counts = [journal_counts(SMALL, i) for i in range(40)]
        largest = max(range(40), key=lambda i: counts[i][0] + counts[i][3])
        records = counts[largest][0] + counts[largest][3]
        # A bound that no journal exceeds changes no draw.
        monkeypatch.setattr(synth, "MAX_JOURNAL_RECORDS", records)
        assert [journal_counts(SMALL, i) for i in range(40)] == counts
        monkeypatch.setattr(synth, "MAX_JOURNAL_RECORDS", records - 1)
        monkeypatch.setattr(synth, "beta_variate", None)  # neither the propensity nor the split is drawn
        monkeypatch.setattr(synth, "binomial", None)
        with pytest.raises(InvalidParamsError, match=f"^cannot draw journal {largest} with .*: {records} records exceed the {records - 1} "):
            journal_counts(SMALL, largest)


class TestGenerateCorpus:
    def test_deterministic(self):
        assert list(generate_corpus(SMALL)) == list(generate_corpus(SMALL))

    def test_matches_journal_counts(self):
        table = aggregate_corpus(generate_corpus(SMALL))
        for i in range(SMALL.journals):
            c, s, d, m = journal_counts(SMALL, i)
            key = f"journal-{i:06d}"
            if c == 0 and m == 0:
                assert key not in table
            else:
                assert table[key] == JournalTally(s, d, m)

    def test_zero_count_journals_emit_nothing(self):
        # sigma tiny, mu very negative: every draw rounds to 0
        p = SynthParams(journals=20, lognormal_mu=-30.0, lognormal_sigma=0.01, seed=1)
        assert list(generate_corpus(p)) == []

    def test_class_grouping_order_within_journal(self):
        records = list(generate_corpus(SMALL))
        by_journal: dict[str, list[CitationClass]] = {}
        for r in records:
            by_journal.setdefault(r.journal, []).append(r.klass)
        order = [CitationClass.SUPPORTING, CitationClass.DISPUTING, CitationClass.MENTIONING]
        for seq in by_journal.values():
            assert seq == sorted(seq, key=order.index)

    def test_journals_emitted_in_index_order(self):
        names = [r.journal for r in generate_corpus(SMALL)]
        assert names == sorted(names)

    def test_key_width_grows_past_a_million_journals(self):
        p = SynthParams(journals=2_000_000, seed=7)
        first = next(iter(generate_corpus(p)))
        assert first.journal == "journal-0000000"

    def test_a_journal_that_fails_mid_corpus_ends_it_after_the_earlier_journals(self, monkeypatch):
        records = list(generate_corpus(SMALL))
        totals = [c + m for c, _, _, m in (journal_counts(SMALL, i) for i in range(SMALL.journals))]
        # The first journal past journal 0 that holds more records than every earlier one.
        k = next(i for i in range(1, SMALL.journals) if totals[i] > max(totals[:i]))
        monkeypatch.setattr(synth, "MAX_JOURNAL_RECORDS", totals[k] - 1)
        corpus = generate_corpus(SMALL)
        assert list(islice(corpus, sum(totals[:k]))) == [r for r in records if r.journal < f"journal-{k:06d}"]
        with pytest.raises(InvalidParamsError, match=f"^cannot draw journal {k} with "):
            next(corpus)

    @pytest.mark.parametrize("k", [1, 17, 39])
    def test_the_journal_that_passes_the_corpus_bound_ends_it_before_its_records(self, monkeypatch, k):
        records = list(generate_corpus(SMALL))
        totals = [c + m for c, _, _, m in (journal_counts(SMALL, i) for i in range(SMALL.journals))]
        k = next(i for i in range(k, SMALL.journals) if totals[i])
        # A bound the whole corpus meets changes nothing.
        monkeypatch.setattr(synth, "MAX_CORPUS_RECORDS", sum(totals))
        assert list(generate_corpus(SMALL)) == records
        bound = sum(totals[: k + 1]) - 1
        monkeypatch.setattr(synth, "MAX_CORPUS_RECORDS", bound)
        corpus = generate_corpus(SMALL)
        assert list(islice(corpus, sum(totals[:k]))) == [r for r in records if r.journal < f"journal-{k:06d}"]
        with pytest.raises(InvalidParamsError, match=f"^cannot draw journal {k}: the corpus would hold {bound + 1} records, more than the {bound} it may hold$"):
            next(corpus)

    def test_citing_id_left_empty(self):
        assert all(r.citing_id == "" for r in islice(generate_corpus(SMALL), 200))


class TestRegime:
    def test_symmetric_propensity_centers_si_at_half(self):
        # alpha == beta makes the expected support share exactly 1/2
        p = SynthParams(journals=5_000, beta_alpha=3.0, beta_beta=3.0, seed=5)
        ratios = []
        for i in range(p.journals):
            c, s, _d, _m = journal_counts(p, i)
            if c >= 1:
                ratios.append(s / c)
        assert len(ratios) >= 4_500
        assert sum(ratios) / len(ratios) == pytest.approx(0.5, abs=0.02)

    def test_eligible_si_mean_tracks_beta_mean(self):
        # moderate-spread regime: eligible-journal SI mean approaches
        # alpha/(alpha+beta) = 9/10.4
        p = SynthParams(journals=10_000, lognormal_sigma=1.5, seed=42)
        ratios = []
        for i in range(p.journals):
            c, s, d, m = journal_counts(p, i)
            if c + m > 100 and c >= 1:
                ratios.append(s / (s + d))
        assert sum(ratios) / len(ratios) == pytest.approx(9.0 / 10.4, abs=0.05)
