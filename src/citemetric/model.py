"""Domain types shared by every stage of the pipeline.

All types are immutable values; the only behaviour beyond construction is
derived counts and invariant checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from .errors import EmptyKeyError

# Counts are capped at unsigned 64-bit capacity; sums beyond this signal
# corrupt input rather than a real corpus.
U64_MAX = 2**64 - 1

#: A normalized journal identifier, as produced by :func:`normalize_journal_key`.
JournalKey = str

_ISSN_FORM = re.compile(r"[0-9]{4}-[0-9]{3}[0-9Xx]")


class CitationClass(Enum):
    """Rhetorical function of a citation statement."""

    SUPPORTING = "supporting"
    DISPUTING = "disputing"
    MENTIONING = "mentioning"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality; it is C-level where Enum's hashes the name
    # in Python, which shows in the per-record tally fold.
    __hash__ = object.__hash__


def normalize_journal_key(raw: str) -> JournalKey:
    """Canonicalize a raw journal identifier.

    Surrounding whitespace is dropped, internal whitespace runs collapse to
    single spaces, and the result is case-folded. Identifiers already in ISSN
    form (``NNNN-NNNX``) are kept verbatim apart from uppercasing a lowercase
    check digit. Normalization is idempotent.

    Raises:
        EmptyKeyError: if nothing remains after normalization.
    """
    s = raw.strip()
    if len(s) == 9 and _ISSN_FORM.fullmatch(s):  # the form has exactly 9 characters
        return s.upper()
    s = " ".join(s.split()).casefold()
    if not s:
        raise EmptyKeyError("journal key is empty after normalization")
    return s


class CitationRecord(NamedTuple):
    """One classified citation event against a journal.

    ``citing_id`` is opaque provenance (may be empty) and never affects any
    metric. ``journal`` must already be normalized.
    """

    citing_id: str
    journal: JournalKey
    klass: CitationClass


class _TallyCounts(NamedTuple):
    """The fields and defaults of :class:`JournalTally`, which adds the checks."""

    supporting: int = 0
    disputing: int = 0
    mentioning: int = 0


class JournalTally(_TallyCounts):
    """Per-journal citation counts; the pipeline's mergeable accumulator.

    An immutable named ``(supporting, disputing, mentioning)`` tuple, so it
    equals the plain tuple of its counts. Every public way to build one
    checks that each count is an int in [0, 2**64 - 1].
    """

    __slots__ = ()

    def __new__(cls, supporting: int = 0, disputing: int = 0, mentioning: int = 0) -> JournalTally:
        if (
            type(supporting) is type(disputing) is type(mentioning) is int
            and 0 <= supporting <= U64_MAX
            and 0 <= disputing <= U64_MAX
            and 0 <= mentioning <= U64_MAX
        ):
            return tuple.__new__(cls, (supporting, disputing, mentioning))
        return tuple.__new__(cls, _checked_counts((supporting, disputing, mentioning)))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> JournalTally:
        # NamedTuple's own _make, which _replace calls, skips __new__.
        return cls(*iterable)

    def total(self) -> int:
        return self.supporting + self.disputing + self.mentioning

    def classified(self) -> int:
        """Citations carrying a supporting or disputing judgement."""
        return self.supporting + self.disputing


def _checked_counts(counts: tuple) -> tuple[int, int, int]:
    """Word the ValueError for the first bad count; int subclasses such as
    bool pass and are stored as plain ints."""
    for name, count in zip(_TallyCounts._fields, counts):
        if not isinstance(count, int):
            raise ValueError(f"{name} count must be an integer, got {count!r}")
        if not 0 <= count <= U64_MAX:
            raise ValueError(f"{name} count {count} outside [0, 2**64 - 1]")
    return tuple(map(int, counts))


@dataclass(frozen=True, slots=True)
class MetricsConfig:
    """Eligibility thresholds for reporting a journal's scite index.

    ``min_total_citations`` is an exclusive bound (total must exceed it);
    ``min_classified`` is inclusive and must be at least 1 because the index
    is undefined with no classified citations.
    """

    min_total_citations: int = 100
    min_classified: int = 1

    def __post_init__(self) -> None:
        if self.min_total_citations < 0:
            raise ValueError("min_total_citations must be >= 0")
        if self.min_classified < 1:
            raise ValueError("min_classified must be >= 1")


class _MetricsFields(NamedTuple):
    """The fields of :class:`JournalMetrics`, which adds the checks."""

    journal: JournalKey
    tally: JournalTally
    scite_index: float | None
    eligible: bool


class JournalMetrics(_MetricsFields):
    """A journal's tally plus its scite index when the journal is eligible.

    An immutable named ``(journal, tally, scite_index, eligible)`` tuple, so
    it equals the plain tuple of its fields. Every public way to build one
    checks that the index is present exactly when the journal is eligible,
    and lies in [0, 1].
    """

    __slots__ = ()

    def __new__(
        cls, journal: JournalKey, tally: JournalTally, scite_index: float | None, eligible: bool
    ) -> JournalMetrics:
        if eligible != (scite_index is not None):
            raise ValueError("scite_index must be present exactly when eligible")
        if scite_index is not None and not 0.0 <= scite_index <= 1.0:
            raise ValueError(f"scite_index {scite_index} outside [0, 1]")
        return tuple.__new__(cls, (journal, tally, scite_index, eligible))

    @classmethod
    def _make(cls, iterable: Iterable) -> JournalMetrics:
        # NamedTuple's own _make, which _replace calls, skips __new__.
        return cls(*iterable)


@dataclass(frozen=True, slots=True)
class StatsSummary:
    """Descriptive summary of one column; ``skew`` is absent when undefined
    (fewer than 3 values or zero variance)."""

    count: int
    mean: float
    median: float
    sd: float
    skew: float | None
    min: float
    max: float

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ValueError("summary requires at least 2 values")
        if self.sd < 0.0:
            raise ValueError("sd must be non-negative")
        if not self.min <= self.median <= self.max:
            raise ValueError("median outside [min, max]")
        if not self.min <= self.mean <= self.max:
            raise ValueError("mean outside [min, max]")


@dataclass(frozen=True, slots=True)
class CorrelationReport:
    """Pearson correlations of citation columns against total citations.

    The supporting/disputing coefficients cover every journal; the scite-index
    coefficient covers the eligible subset only.
    """

    r_supporting_vs_total: float
    r_disputing_vs_total: float
    r_si_vs_total: float

    def __post_init__(self) -> None:
        for name in ("r_supporting_vs_total", "r_disputing_vs_total", "r_si_vs_total"):
            r = getattr(self, name)
            if not -1.0 <= r <= 1.0:
                raise ValueError(f"{name} = {r} outside [-1, 1]")
