"""Seeded synthetic citation corpora.

The generative model reproduces the qualitative regime of real journal
citation data: per-journal classified totals are heavy-tailed (rounded
lognormal), each journal has a latent support propensity p drawn from a Beta
distribution independent of its size, supporting counts are Binomial(total,
p), and mentions are a fixed multiple of the classified total. Independence
of p from the total makes support counts track totals strongly while the
support ratio stays uncorrelated with size.

Per-journal draws come from independent SplitMix64 sub-streams derived with
:func:`citemetric.rng.stream_seed`, so generation can be partitioned over the
journal index range without changing the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator

from .errors import InvalidParamsError
from .model import U64_MAX, CitationClass, CitationRecord
from .rng import SplitMix64, beta_variate, binomial, lognormal, stream_seed


@dataclass(frozen=True, slots=True)
class SynthParams:
    """Parameters of the corpus generator; the defaults are the paper
    regime (see :func:`default_paper_regime`).

    ``lognormal_mu``/``lognormal_sigma`` shape the per-journal classified
    totals; ``beta_alpha``/``beta_beta`` shape the support propensity;
    ``mention_ratio`` is the fraction of all citation statements that are
    mere mentions.
    """

    journals: int
    lognormal_mu: float = 3.0
    lognormal_sigma: float = 1.8
    beta_alpha: float = 9.0
    beta_beta: float = 1.4
    mention_ratio: float = 0.8
    seed: int = 42

    def __post_init__(self) -> None:
        if self.journals < 1:
            raise InvalidParamsError(f"journals must be >= 1, got {self.journals}")
        for name in ("lognormal_mu", "lognormal_sigma", "beta_alpha", "beta_beta", "mention_ratio"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParamsError(f"{name} must be finite")
        if self.lognormal_sigma <= 0:
            raise InvalidParamsError(f"lognormal_sigma must be > 0, got {self.lognormal_sigma}")
        if self.beta_alpha <= 0:
            raise InvalidParamsError(f"beta_alpha must be > 0, got {self.beta_alpha}")
        if self.beta_beta <= 0:
            raise InvalidParamsError(f"beta_beta must be > 0, got {self.beta_beta}")
        if not 0.0 <= self.mention_ratio < 1.0:
            raise InvalidParamsError(f"mention_ratio must be in [0, 1), got {self.mention_ratio}")
        if not 0 <= self.seed <= U64_MAX:
            raise InvalidParamsError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


def default_paper_regime() -> SynthParams:
    """The documented 'paper' preset: 10,000 journals with heavy-tailed
    totals and strongly support-dominated classifications.

    Aggregates of this corpus show right-skewed supporting/disputing counts,
    support counts strongly correlated with totals, and a support ratio that
    is left-skewed around a mean of roughly 0.87 and uncorrelated with size.
    About 6.6% of eligible journals are expected to have zero disputes (313
    of 4,892 at seed 42); that atom at SI = 1.0 puts the SI histogram's
    tallest bin at [0.98, 1.00].
    """
    return SynthParams(journals=10_000)


def journal_counts(params: SynthParams, index: int) -> tuple[int, int, int, int]:
    """Draw (classified, supporting, disputing, mentioning) for one journal.

    Draw order on the journal's sub-stream is fixed: classified total first
    (rounded lognormal, may be 0), then the support propensity, then the
    binomial split. Mentions are round(classified * ratio / (1 - ratio)),
    with no randomness of their own.
    """
    rng = SplitMix64(stream_seed(params.seed, index))
    try:
        classified = round(lognormal(rng, params.lognormal_mu, params.lognormal_sigma))
        propensity = beta_variate(rng, params.beta_alpha, params.beta_beta)
        supporting = binomial(rng, classified, propensity)
    except (OverflowError, FloatingPointError) as exc:  # a total past float range, or a Beta that only underflows
        raise InvalidParamsError(
            f"cannot draw journal {index} with lognormal_mu={params.lognormal_mu}, "
            f"lognormal_sigma={params.lognormal_sigma}, beta_alpha={params.beta_alpha}, "
            f"beta_beta={params.beta_beta}: {exc}"
        ) from None
    mentioning = round(classified * params.mention_ratio / (1.0 - params.mention_ratio))
    return classified, supporting, classified - supporting, mentioning


def generate_corpus(params: SynthParams) -> Iterator[CitationRecord]:
    """Yield the corpus records, deterministically for a fixed seed.

    Journals are emitted in index order under zero-padded keys
    (``journal-000000``, ...), each journal's records grouped as supporting,
    then disputing, then mentioning. Journals whose drawn counts are all zero
    emit nothing. ``citing_id`` is left empty.
    """
    width = max(6, len(str(params.journals - 1)))
    for index in range(params.journals):
        _, supporting, disputing, mentioning = journal_counts(params, index)
        journal = f"journal-{index:0{width}d}"
        yield from repeat(CitationRecord("", journal, CitationClass.SUPPORTING), supporting)
        yield from repeat(CitationRecord("", journal, CitationClass.DISPUTING), disputing)
        yield from repeat(CitationRecord("", journal, CitationClass.MENTIONING), mentioning)
