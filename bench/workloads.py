"""Seeded workload inputs for the benchmark, each with an exact oracle.

Every workload is built from ``--seed`` alone. The inputs are written by the
benchmark's own code, never by the program under test, so a change to the
program cannot change what it is measured on. Per-journal counts of the two
paper-regime workloads are drawn with ``citemetric.synth.journal_counts``,
whose draws are pinned by the acceptance suite's golden values; that is what
lets the oracle predict the ``synth`` stage's output byte for byte.

Workloads (see README.md for why each exists):

- ``paper-pipeline``: ``synth --preset paper`` scaled to about
  ``PAPER_RECORDS`` records, then ``aggregate`` and ``report``.
- ``distinct-jsonl``: the same counts rewritten with a distinct ``citing_id``
  per record, raw journal-name variants, shuffled, split over two files.
- ``wide-dirty-csv``: one CSV with a long tail of journals, names holding
  commas and quotes, and a fixed share of each class of bad line.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

from citemetric.synth import SynthParams, default_paper_regime, journal_counts

#: Records the paper-pipeline corpus is scaled to (the preset writes ~5M).
PAPER_RECORDS = 100_000
#: Largest relative distance of the paper corpus size from PAPER_RECORDS.
SIZE_TOLERANCE = 0.01
#: Journals in the wide-dirty-csv corpus.
WIDE_JOURNALS = 40_000
#: Share of wide-dirty-csv lines, per error class, that are bad.
WIDE_BAD_SHARE = 0.01

#: Thresholds of ``report``'s default eligibility rule.
MIN_CITATIONS = 100
MIN_CLASSIFIED = 1

CLASSES = ("supporting", "disputing", "mentioning")
ERROR_CLASSES = ("MalformedLineError", "UnknownClassError", "EmptyKeyError")
TALLY_HEADER = ("journal", "supporting", "disputing", "mentioning", "total")

_WORDS = (
    "applied", "clinical", "molecular", "cell", "quantum", "social", "marine",
    "urban", "neural", "plant", "energy", "materials", "economic", "cognitive",
    "chemical", "structural", "computational", "genetic", "public", "ecology",
)


@dataclass
class Oracle:
    """What a correct run of each stage produces on a workload's inputs."""

    tally_csv: bytes
    #: Per aggregate input file: (accepted, rejected) lines.
    per_file: dict[str, tuple[int, int]]
    rejected_by_class: dict[str, int]
    eligible: int
    #: sha256 of the corpus the ``synth`` stage must write.
    corpus_sha256: str

    @property
    def lines(self) -> int:
        return sum(a + r for a, r in self.per_file.values())


@dataclass
class Workload:
    name: str
    #: Stage name -> CLI arguments after ``citemetric``. Every workload has a
    #: synth stage; only paper-pipeline times it (see ``run.PIPELINES``).
    stages: dict[str, list[str]]
    oracle: Oracle
    #: Paper-regime parameters of the synth stage; on the workloads that do
    #: not time synth, the traced run still probes the synth layer with them.
    synth_params: SynthParams
    #: Input files of the aggregate stage.
    inputs: list[Path]


def paper_params(seed: int) -> tuple[SynthParams, list[tuple[int, int, int]]]:
    """The paper regime cut to about PAPER_RECORDS records; returns the
    parameters and each journal's (supporting, disputing, mentioning).

    The regime is heavy-tailed, so a fixed journal count would make the
    corpus size, and every stage time with it, swing with the seed. The
    journal count is the cut whose record count lands closest to the target.
    A single large journal can still leave that cut far off (one seed gave
    119k records for a 100k target), so the synth seed is the first of a
    fixed sequence derived from ``seed`` whose cut lands within
    SIZE_TOLERANCE of the target.
    """
    for attempt in range(1000):
        params = replace(default_paper_regime(), seed=_mix_seed(seed, attempt))
        counts = _cut(params)
        if abs(sum(map(sum, counts)) - PAPER_RECORDS) <= SIZE_TOLERANCE * PAPER_RECORDS:
            return replace(params, journals=len(counts)), counts
    raise RuntimeError(f"no paper-regime seed for {seed} lands near {PAPER_RECORDS} records")


def _mix_seed(seed: int, attempt: int) -> int:
    digest = hashlib.sha256(f"paper-pipeline/{seed}/{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _cut(params: SynthParams) -> list[tuple[int, int, int]]:
    counts: list[tuple[int, int, int]] = []
    total = 0
    while total < PAPER_RECORDS:
        _, s, d, m = journal_counts(params, len(counts))
        counts.append((s, d, m))
        total += s + d + m
    before = total - sum(counts[-1])
    if len(counts) > 1 and PAPER_RECORDS - before < total - PAPER_RECORDS:
        counts.pop()
    return counts


def tally_csv(tally: dict[str, tuple[int, int, int]]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TALLY_HEADER)
    for key in sorted(tally):
        s, d, m = tally[key]
        writer.writerow((key, s, d, m, s + d + m))
    return buf.getvalue().encode("utf-8")


def eligible_count(tally: dict[str, tuple[int, int, int]]) -> int:
    return sum(
        1 for s, d, m in tally.values() if s + d + m > MIN_CITATIONS and s + d >= MIN_CLASSIFIED
    )


def _stage_args(workdir: Path, aggregate: list[str]) -> dict[str, list[str]]:
    return {
        "aggregate": ["aggregate", *aggregate, "-o", str(workdir / "tally.csv")],
        "report": ["report", str(workdir / "tally.csv"), "-o", str(workdir / "report")],
    }


def paper_corpus(params: SynthParams, counts) -> tuple[dict[str, tuple[int, int, int]], int, str]:
    """Tally, line count and sha256 of the corpus ``synth`` writes for
    ``params`` whose journals draw ``counts``."""
    width = max(6, len(str(params.journals - 1)))
    digest = hashlib.sha256()
    tally: dict[str, tuple[int, int, int]] = {}
    for index, (s, d, m) in enumerate(counts):
        if s + d + m == 0:
            continue
        key = f"journal-{index:0{width}d}"
        tally[key] = (s, d, m)
        for label, n in zip(CLASSES, (s, d, m)):
            digest.update(f'{{"journal":"{key}","class":"{label}"}}\n'.encode() * n)
    return tally, sum(map(sum, counts)), digest.hexdigest()


def _synth_stage(params: SynthParams, output: Path) -> list[str]:
    return ["synth", "--preset", "paper", "--journals", str(params.journals),
            "--seed", str(params.seed), "-o", str(output)]


def build_paper_pipeline(seed: int, workdir: Path) -> Workload:
    params, counts = paper_params(seed)
    tally, lines, digest = paper_corpus(params, counts)
    corpus = workdir / "corpus.jsonl"
    stages = {"synth": _synth_stage(params, corpus), **_stage_args(workdir, ["-f", "jsonl", str(corpus)])}
    oracle = Oracle(
        tally_csv(tally), {str(corpus): (lines, 0)}, dict.fromkeys(ERROR_CLASSES, 0),
        eligible_count(tally), digest,
    )
    return Workload("paper-pipeline", stages, oracle, params, [corpus])


def _raw_variants(index: int, rnd: random.Random) -> tuple[str, list[str]]:
    """A journal's normalized key and raw spellings that normalize to it."""
    if index % 10 == 0:
        key = f"{2000 + index // 1000:04d}-{index % 1000:03d}X"
        return key, [key, key[:-1] + "x", f" {key}", f"{key}  "]
    key = f"journal of {rnd.choice(_WORDS)} {rnd.choice(_WORDS)} {index}"
    return key, [key, key.title(), key.upper(), f"  {key.title()}", key.replace(" ", "  "),
                 key.replace(" ", "\t", 1) + " "]


def build_distinct_jsonl(seed: int, workdir: Path) -> Workload:
    params, counts = paper_params(seed)
    rnd = random.Random(f"distinct-jsonl/{seed}")
    tally: dict[str, tuple[int, int, int]] = {}
    lines: list[str] = []
    for index, (s, d, m) in enumerate(counts):
        if s + d + m == 0:
            continue
        key, raws = _raw_variants(index, rnd)
        encoded = [json.dumps(raw) for raw in raws]
        tally[key] = (s, d, m)
        for label, n in zip(CLASSES, (s, d, m)):
            spelled = (label, label.capitalize())
            for _ in range(n):
                lines.append(
                    f'{{"citing_id":"10.5555/{seed}.{len(lines)}","journal":{rnd.choice(encoded)},'
                    f'"class":"{spelled[rnd.random() < 0.05]}"}}\n'
                )
    rnd.shuffle(lines)
    half = len(lines) // 2
    parts = [workdir / "part-1.jsonl", workdir / "part-2.jsonl"]
    per_file = {}
    for path, chunk in zip(parts, (lines[:half], lines[half:])):
        path.write_text("".join(chunk), encoding="utf-8")
        per_file[str(path)] = (len(chunk), 0)
    probe = workdir / "probe-corpus.jsonl"
    oracle = Oracle(
        tally_csv(tally), per_file, dict.fromkeys(ERROR_CLASSES, 0), eligible_count(tally),
        paper_corpus(params, counts)[2],
    )
    stages = {"synth": _synth_stage(params, probe), **_stage_args(workdir, ["-f", "jsonl", *map(str, parts)])}
    return Workload("distinct-jsonl", stages, oracle, params, parts)


def _binomial(rnd: random.Random, n: int, p: float) -> int:
    if n <= 40:
        return sum(rnd.random() < p for _ in range(n))
    sd = math.sqrt(n * p * (1.0 - p))
    return min(n, max(0, round(n * p + sd * rnd.gauss(0.0, 1.0))))


def _wide_name(index: int, rnd: random.Random) -> str:
    a, b = rnd.choice(_WORDS), rnd.choice(_WORDS)
    kind = index % 20
    if kind == 0:
        return f"annals of {a}, {b} and {a} series {index}"
    if kind == 1:
        return f'the "{a}" {b} review {index}'
    if kind == 2:
        return f'bulletin, "{a} {b}" {index}'
    return f"{a} {b} letters {index}"


def build_wide_dirty_csv(seed: int, workdir: Path) -> Workload:
    """Long-tail CSV: each journal gets 1 + floor(0.3 * classified) mentions,
    so every journal appears, and classified = floor(lognormal(0, 1.5)), so
    about 0.2% of journals (~80 of 40k) clear the eligibility threshold."""
    rnd = random.Random(f"wide-dirty-csv/{seed}")
    tally: dict[str, tuple[int, int, int]] = {}
    rows: list[tuple[str, str]] = []
    for index in range(WIDE_JOURNALS):
        key = _wide_name(index, rnd)
        classified = int(rnd.lognormvariate(0.0, 1.5))
        s = _binomial(rnd, classified, rnd.betavariate(9.0, 1.4))
        d, m = classified - s, 1 + int(0.3 * classified)
        tally[key] = (s, d, m)
        for label, n in zip(CLASSES, (s, d, m)):
            rows.extend([(key, label)] * n)
    good = len(rows)
    bad = round(good * WIDE_BAD_SHARE)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        (f"W{n}", journal, label) for n, (journal, label) in enumerate(rows)
    )
    lines = buf.getvalue().splitlines(keepends=True)
    for n in range(bad):
        lines.append(f"B{n}-malformed,{rnd.choice(_WORDS)} letters\n")
        lines.append(f"B{n}-class,{rnd.choice(_WORDS)} letters,{rnd.choice(('refuting', 'neutral', ''))}\n")
        lines.append(f"B{n}-empty,{' ' * rnd.randint(0, 3)},supporting\n")
    rnd.shuffle(lines)
    corpus = workdir / "corpus.csv"
    corpus.write_text("citing_id,journal,class\n" + "".join(lines), encoding="utf-8")
    params, counts = paper_params(seed)
    probe = workdir / "probe-corpus.jsonl"
    oracle = Oracle(
        tally_csv(tally), {str(corpus): (good, 3 * bad)}, dict.fromkeys(ERROR_CLASSES, bad),
        eligible_count(tally), paper_corpus(params, counts)[2],
    )
    stages = {"synth": _synth_stage(params, probe),
              **_stage_args(workdir, ["-f", "csv", "--policy", "skip", str(corpus)])}
    return Workload("wide-dirty-csv", stages, oracle, params, [corpus])


BUILDERS = {
    "paper-pipeline": build_paper_pipeline,
    "distinct-jsonl": build_distinct_jsonl,
    "wide-dirty-csv": build_wide_dirty_csv,
}
