"""End-to-end acceptance suite.

Each test covers one numbered criterion, prints exactly one
``[criterion N] PASS/FAIL`` line with the measured quantities, and fails
hard if any clause of the criterion does not hold. Every random draw is
seeded, so the suite is deterministic.

Criterion 7 golden values were pinned from the first recorded run of the
default synthetic regime on this platform (see README on cross-platform
tolerance of transcendental rounding). Its expected SI histogram is the
regime's own law: the generator draws each journal's support propensity
from Beta(alpha, beta) independently of its classified total n, and
eligibility depends on n alone, so an eligible journal's SI is
Beta-binomial(n, alpha, beta) / n. ``oracles.expected_si_histogram`` sums
that law over the observed totals.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce
from itertools import islice
from time import perf_counter
from types import SimpleNamespace

import pytest

import oracles

from citemetric import ranges
from citemetric.aggregate import add_record, aggregate_corpus, merge_tables, read_tally_csv
from citemetric.cli import EXIT_OK, _fold_range, run
from citemetric.errors import UndefinedIndexError
from citemetric.ingest import CSV_HEADER, Format, IngestReport, Policy, format_record, ingest_stream
from citemetric.metrics import build_metrics_table, evaluate_journal, scite_index
from citemetric.model import CitationClass, CitationRecord, JournalTally
from citemetric.stats import (
    SI_HISTOGRAM_BINS,
    correlation_report,
    histogram,
    mean,
    median,
    pearson,
    sample_sd,
    skewness,
    summarize,
)
from citemetric.synth import default_paper_regime, generate_corpus

CLASSES = tuple(CitationClass)

# One line per executed criterion; echoed in the terminal summary by
# conftest so the lines survive pytest's stdout capture of passing tests.
CRITERION_LINES: list[str] = []


def criterion(num: int, checks: list[tuple[bool, str]]) -> None:
    ok = all(flag for flag, _ in checks)
    detail = "; ".join(desc for _, desc in checks)
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    CRITERION_LINES.append(line)
    print(line, flush=True)
    assert ok, f"criterion {num} failed: " + "; ".join(d for f, d in checks if not f)


@pytest.fixture(scope="module")
def paper_run():
    """One pipeline run of the default synthetic regime, shared by the
    qualitative-reproduction criteria."""
    t0 = perf_counter()
    params = default_paper_regime()
    table = aggregate_corpus(generate_corpus(params))
    metrics = build_metrics_table(table)
    si = [m.scite_index for m in metrics if m.eligible]
    summaries = {
        "supporting": summarize([m.tally.supporting for m in metrics], "supporting"),
        "disputing": summarize([m.tally.disputing for m in metrics], "disputing"),
        "scite_index": summarize(si, "scite_index"),
    }
    correlations = correlation_report(metrics)
    si_hist = histogram(si, 0.0, 1.0, SI_HISTOGRAM_BINS)
    elapsed = perf_counter() - t0
    return SimpleNamespace(
        table=table,
        metrics=metrics,
        si=si,
        summaries=summaries,
        correlations=correlations,
        si_hist=si_hist,
        elapsed=elapsed,
    )


def test_criterion_1_scite_index_bit_identity():
    rnd = random.Random(1)
    t0 = perf_counter()
    mismatches = 0
    undefined_wrong = 0
    cases = 0
    for _ in range(10_000):
        scale = rnd.choice((10, 10**6, 10**12))
        s = rnd.randrange(scale)
        d = rnd.randrange(scale)
        if rnd.random() < 0.05:
            s = d = 0
        tally = JournalTally(s, d, rnd.randrange(1000))
        cases += 1
        if s + d == 0:
            try:
                scite_index(tally)
                undefined_wrong += 1
            except UndefinedIndexError:
                pass
        else:
            if scite_index(tally) != oracles.exact_scite_index(s, d):
                mismatches += 1
    elapsed = perf_counter() - t0
    criterion(
        1,
        [
            (mismatches == 0, f"{mismatches} float mismatches in {cases} tallies"),
            (undefined_wrong == 0, f"{undefined_wrong} missed UndefinedIndex raises"),
            (elapsed < 1.0, f"runtime {elapsed:.3f}s < 1s"),
        ],
    )


def test_criterion_2_eligibility_semantics():
    at_100 = evaluate_journal("j", JournalTally(1, 0, 99))
    at_101 = evaluate_journal("j", JournalTally(1, 0, 100))
    unclassified = evaluate_journal("j", JournalTally(0, 0, 500))

    rnd = random.Random(2)
    table_mismatches = 0
    for _ in range(20):
        table = {
            f"j{i}": JournalTally(rnd.randrange(70), rnd.randrange(8), rnd.randrange(80))
            for i in range(500)
        }
        flagged = {m.journal for m in build_metrics_table(table) if m.eligible}
        recount = {
            k
            for k, t in table.items()
            if t.supporting + t.disputing + t.mentioning > 100 and t.supporting + t.disputing >= 1
        }
        if flagged != recount:
            table_mismatches += 1
    criterion(
        2,
        [
            (not at_100.eligible, "total=100 ineligible"),
            (at_101.eligible, "total=101 with classified=1 eligible"),
            (not unclassified.eligible, "classified=0 ineligible"),
            (table_mismatches == 0, f"{table_mismatches}/20 brute-force recount mismatches on 500-journal tables"),
        ],
    )


def test_criterion_3_statistics_oracles():
    rnd = random.Random(3)
    t0 = perf_counter()
    worst = {"mean": 0.0, "median": 0.0, "sd": 0.0, "skew": 0.0, "pearson": 0.0}

    def draw(n):
        sign = rnd.random() < 0.5
        return [
            (-1 if sign and rnd.random() < 0.5 else 1) * 10 ** rnd.uniform(-3.0, 6.0)
            for _ in range(n)
        ]

    for _ in range(1_000):
        n = rnd.randrange(2, 501)
        xs = draw(n)
        worst["mean"] = max(worst["mean"], abs(mean(xs) - float(oracles.exact_mean(xs))))
        worst["median"] = max(worst["median"], abs(median(xs) - float(oracles.exact_median(xs))))
        worst["sd"] = max(worst["sd"], abs(sample_sd(xs) - oracles.exact_sample_sd(xs)))
        if n >= 3:
            worst["skew"] = max(worst["skew"], abs(skewness(xs) - oracles.exact_skewness_g1(xs)))
        ys = [x * rnd.uniform(-2.0, 2.0) + rnd.uniform(-10.0, 10.0) for x in xs]
        worst["pearson"] = max(worst["pearson"], abs(pearson(xs, ys) - oracles.exact_pearson(xs, ys)))
    elapsed = perf_counter() - t0

    pinned_skew = skewness([1, 1, 1, 10])
    pinned_r = pearson([1, 2, 3], [1, 2, 4])
    checks = [
        (worst[k] < 1e-9, f"max |{k} - oracle| = {worst[k]:.3e} < 1e-9") for k in worst
    ]
    checks += [
        (pinned_skew == 2.0, f"skewness([1,1,1,10]) = {pinned_skew!r} == 2.0 exactly"),
        (abs(pinned_r - 9 / 84**0.5) < 1e-12, f"pearson([1,2,3],[1,2,4]) = {pinned_r!r} within 1e-12 of 9/sqrt(84)"),
        (elapsed < 10.0, f"runtime {elapsed:.2f}s < 10s"),
    ]
    criterion(3, checks)


def test_criterion_4_monoid_shard_invariance(tmp_path, monkeypatch):
    """Round-robin folds merged with ``merge_tables``, and the byte ranges
    ``aggregate`` folds apart (``ranges.plan_ranges`` → ``cli._fold_range``),
    each equal the sequential fold. The ranges are folded in this process:
    forking is covered by ``tests/test_ranges.py``."""
    monkeypatch.setattr(ranges, "MIN_RANGE_BYTES", 1)
    rnd = random.Random(4)
    t0 = perf_counter()
    shard_mismatches = range_mismatches = 0
    for n in range(200):
        records = [
            CitationRecord("", f"j{rnd.randrange(25):02d}", rnd.choice(CLASSES))
            for _ in range(rnd.randrange(20, 120))
        ]
        sequential = {}
        for r in records:
            add_record(sequential, r)
        for shards in range(1, 9):
            folds = (aggregate_corpus(records[i::shards]) for i in range(shards))
            if reduce(merge_tables, folds, {}) != sequential:
                shard_mismatches += 1

        fmt = (Format.JSONL, Format.CSV)[n % 2]
        path = str(tmp_path / f"corpus-{n}.{fmt.value}")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if fmt is Format.CSV:
                fh.write(",".join(CSV_HEADER) + "\n")
            fh.writelines(format_record(r, fmt) + "\n" for r in records)
        for parts in range(1, 9):
            plan = ranges.plan_ranges(path, parts)
            table, report = {}, IngestReport()
            for start, length in plan:
                part_table, part_report = _fold_range(path, fmt, Policy.SKIP, start, length)
                table = merge_tables(table, part_table)
                report.extend(part_report)
            if len(plan) != parts or table != sequential or (report.accepted, report.rejected) != (len(records), 0):
                range_mismatches += 1

    def random_table():
        return {
            f"j{i}": JournalTally(rnd.randrange(50), rnd.randrange(50), rnd.randrange(50))
            for i in range(rnd.randrange(0, 8))
        }

    law_failures = 0
    for _ in range(100):
        a, b, c = random_table(), random_table(), random_table()
        if merge_tables(a, b) != merge_tables(b, a):
            law_failures += 1
        if merge_tables(merge_tables(a, b), c) != merge_tables(a, merge_tables(b, c)):
            law_failures += 1
        if merge_tables(a, {}) != a or merge_tables({}, a) != a:
            law_failures += 1
    elapsed = perf_counter() - t0
    criterion(
        4,
        [
            (shard_mismatches == 0, f"{shard_mismatches} shard-count mismatches over 200 corpora x shards 1-8"),
            (
                range_mismatches == 0,
                f"{range_mismatches} byte-range mismatches over 200 JSONL/CSV corpus files x ranges 1-8",
            ),
            (law_failures == 0, f"{law_failures} monoid-law failures over 100 random triples"),
            (elapsed < 10.0, f"runtime {elapsed:.2f}s < 10s"),
        ],
    )


def test_criterion_5_si_monotonicity_and_mention_invariance():
    rnd = random.Random(5)
    support_bad = dispute_bad = mention_bad = 0
    cases = 0
    for _ in range(10_000):
        s = rnd.randrange(0, 2_000)
        d = rnd.randrange(0, 2_000)
        if s + d == 0:
            continue
        cases += 1
        m = rnd.randrange(0, 10**6)
        base = scite_index(JournalTally(s, d, m))
        if scite_index(JournalTally(s + 1, d, m)) < base:
            support_bad += 1
        if scite_index(JournalTally(s, d + 1, m)) > base:
            dispute_bad += 1
        if scite_index(JournalTally(s, d, rnd.randrange(0, 10**9))) != base:
            mention_bad += 1
    criterion(
        5,
        [
            (support_bad == 0, f"{support_bad}/{cases} +1-support decreases"),
            (dispute_bad == 0, f"{dispute_bad}/{cases} +1-dispute increases"),
            (mention_bad == 0, f"{mention_bad}/{cases} mention perturbations change SI"),
        ],
    )


def test_criterion_6_table2_reproduction(paper_run):
    r = paper_run.correlations
    criterion(
        6,
        [
            (r.r_supporting_vs_total >= 0.90, f"r_supporting_vs_total = {r.r_supporting_vs_total:.4f} >= 0.90"),
            (abs(r.r_si_vs_total) <= 0.15, f"|r_si_vs_total| = {abs(r.r_si_vs_total):.4f} <= 0.15"),
            (paper_run.elapsed < 30.0, f"pipeline runtime {paper_run.elapsed:.2f}s < 30s"),
        ],
    )


def test_criterion_7_table1_figure2_reproduction(paper_run):
    skew_supp = paper_run.summaries["supporting"].skew
    skew_si = paper_run.summaries["scite_index"].skew
    si_mean = paper_run.summaries["scite_index"].mean
    tallest = max(paper_run.si_hist, key=lambda row: row[2])

    # Golden values pinned from the first recorded run of this regime.
    golden = [
        (skew_supp == pytest.approx(24.1905133658772, rel=1e-9), f"skew(supporting) = {skew_supp:.6f} (golden)"),
        (skew_si == pytest.approx(-1.1493113836165536, rel=1e-9), f"skew(SI) = {skew_si:.6f} (golden)"),
        (si_mean == pytest.approx(0.864628729223559, rel=1e-9), f"mean(SI) = {si_mean:.6f} (golden)"),
        (len(paper_run.si) == 4892, f"eligible journals = {len(paper_run.si)} (golden 4892)"),
        (len(paper_run.table) == 9791, f"journals with records = {len(paper_run.table)} (golden 9791)"),
        (tallest[2] == 511, f"tallest bin count = {tallest[2]} (golden 511)"),
    ]

    # Figure 2's histogram against the regime's expected one. The cells are
    # the 50 bins with the SI = 1.0 atom split out of the top bin.
    params = default_paper_regime()
    cells = oracles.expected_si_histogram(
        [m.tally.supporting + m.tally.disputing for m in paper_run.metrics if m.eligible],
        params.beta_alpha,
        params.beta_beta,
        SI_HISTOGRAM_BINS,
    )
    atom = paper_run.si.count(1.0)
    observed = [count for _, _, count in paper_run.si_hist]
    observed[-1] -= atom
    observed.append(atom)
    expected_hist = [mean_ for mean_, _ in cells[:-1]]
    expected_hist[-1] += cells[-1][0]
    mode = paper_run.si_hist.index(tallest)
    expected_mode = expected_hist.index(max(expected_hist))
    # Pearson's chi-square needs expected counts of about 5 or more per cell.
    fit = [(o, e) for o, (e, _) in zip(observed, cells) if e >= 5.0]
    chi2 = sum((o - e) ** 2 / e for o, e in fit)
    df = len(fit) - 1
    chi2_max = oracles.chi_square_quantile(0.999, df)
    atom_mean, atom_var = cells[-1]
    atom_z = (atom - atom_mean) / math.sqrt(atom_var)
    criterion(
        7,
        [
            (skew_supp > 2.0, f"skew(supporting) = {skew_supp:.2f} > 2"),
            (skew_si < 0.0, f"skew(SI) = {skew_si:.2f} < 0"),
            *golden,
            (
                mode == expected_mode,
                f"SI histogram mode bin [{tallest[0]:.2f}, {tallest[1]:.2f}] == expected mode bin "
                f"[{paper_run.si_hist[expected_mode][0]:.2f}, {paper_run.si_hist[expected_mode][1]:.2f}] "
                f"(expected count {expected_hist[expected_mode]:.1f})",
            ),
            (chi2 < chi2_max, f"chi2 = {chi2:.1f} on {df} df < {chi2_max:.1f} (0.999 quantile)"),
            (
                abs(atom_z) <= 3.0,
                f"SI = 1.0 atom {atom} (expected {atom_mean:.1f} ± {math.sqrt(atom_var):.1f}, "
                f"|z| = {abs(atom_z):.2f} <= 3)",
            ),
            (paper_run.elapsed < 30.0, f"pipeline runtime {paper_run.elapsed:.2f}s < 30s"),
        ],
    )


def test_criterion_8_determinism_and_round_trip(tmp_path):
    artifacts = ("metrics.csv", "summary.json", "correlations.json", "si_histogram.csv", "si_scatter.csv")
    digests = []
    for run_dir in ("one", "two"):
        base = tmp_path / run_dir
        base.mkdir()
        corpus = base / "corpus.jsonl"
        tally = base / "tallies.csv"
        outdir = base / "report"
        assert run(["synth", "--journals", "300", "--seed", "11", "-o", str(corpus)]) == EXIT_OK
        assert run(["aggregate", str(corpus), "-o", str(tally)]) == EXIT_OK
        assert run(["report", str(tally), "-o", str(outdir)]) == EXIT_OK
        digests.append(
            (corpus.read_bytes(), tally.read_bytes(), tuple((outdir / a).read_bytes() for a in artifacts))
        )
    identical = digests[0] == digests[1]

    with open(tmp_path / "one" / "tallies.csv", encoding="utf-8") as fh:
        reread = read_tally_csv(fh)
    original = aggregate_corpus(
        ingest_stream(
            (tmp_path / "one" / "corpus.jsonl").read_text(encoding="utf-8").splitlines(),
            Format.JSONL,
        )[0]
    )
    round_trip = reread == original and build_metrics_table(reread) == build_metrics_table(original)
    criterion(
        8,
        [
            (identical, "synth -> aggregate -> report twice is byte-identical (7 files)"),
            (round_trip, "tally CSV round trip reproduces the identical metrics table"),
        ],
    )


def test_criterion_9_throughput_one_million_records():
    lines = [
        format_record(rec, Format.JSONL)
        for rec in islice(generate_corpus(default_paper_regime()), 1_000_000)
    ]
    assert len(lines) == 1_000_000
    t0 = perf_counter()
    records, report = ingest_stream(lines, Format.JSONL)
    table = aggregate_corpus(records)
    elapsed = perf_counter() - t0
    criterion(
        9,
        [
            (report.accepted == 1_000_000, f"{report.accepted} records ingested"),
            (len(table) > 0, f"{len(table)} journals tallied"),
            (elapsed < 10.0, f"ingest+aggregate took {elapsed:.2f}s < 10s ({1_000_000 / elapsed:,.0f} rec/s)"),
        ],
    )
