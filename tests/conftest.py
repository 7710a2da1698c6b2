"""Shared fixtures and data builders for the test suite."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from citemetric.errors import MalformedLineError
from citemetric.model import CitationClass, CitationRecord, JournalTally

CLASSES = tuple(CitationClass)

# Keys already in normalized form (lowercase, single spaces) so they survive
# round trips unchanged.
journal_keys = st.from_regex(r"[a-z][a-z0-9]{0,7}( [a-z0-9]{1,6}){0,2}", fullmatch=True)

tallies = st.builds(
    JournalTally,
    st.integers(0, 10**9),
    st.integers(0, 10**9),
    st.integers(0, 10**9),
)

tally_tables = st.dictionaries(journal_keys, tallies, max_size=8)


@pytest.fixture
def rnd() -> random.Random:
    """Seeded RNG; tests stay reproducible without global state."""
    return random.Random(0xC17E)


def make_table(rnd: random.Random, journals: int, max_count: int = 5000) -> dict[str, JournalTally]:
    return {
        f"j{i:05d}": JournalTally(
            rnd.randrange(max_count), rnd.randrange(max_count), rnd.randrange(max_count)
        )
        for i in range(journals)
    }


def make_records(rnd: random.Random, n: int, journals: int = 40) -> list[CitationRecord]:
    return [
        CitationRecord(f"w{i}", f"j{rnd.randrange(journals):03d}", rnd.choice(CLASSES))
        for i in range(n)
    ]


def lines_and_error(lines) -> tuple[list[str], str | None]:
    """The lines an iterator yields, and the MalformedLineError that stops it."""
    got = []
    try:
        for line in lines:
            got.append(line)
    except MalformedLineError as exc:
        return got, str(exc)
    return got, None


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criteria result lines after the run, so they are
    visible even though pytest captures stdout of passing tests."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
