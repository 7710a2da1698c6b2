"""Shared fixtures and data builders for the test suite."""

from __future__ import annotations

import csv
import io
import json
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

#: Text for a CSV field, rich in what needs quoting. A CR is left out:
#: csv.writer quotes it only from Python 3.13. NUL too: it writes one only
#: from 3.11.
csv_text = st.text(st.sampled_from(',"\n ') | st.characters(blacklist_characters="\r\x00"), max_size=10)


def csv_writer_text(rows) -> str:
    """What ``csv.writer`` writes for ``rows``, lines ended by LF."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def assert_tally_types(table) -> None:
    """Every value is a JournalTally itself: a plain tuple of the same
    counts would compare equal, so table equality cannot see a lost type."""
    assert [type(v) for v in table.values()] == [JournalTally] * len(table), table


BOM = "\ufeff"

_JOURNALS = ["Nature", " nature ", "NA  TURE", "1234-567x", 'Cell, "Reports"', "cell,  reports"]
_LABELS = ["supporting", "Disputing", "MENTIONING"]

#: Kinds of corpus line dirty_line builds.
LINE_KINDS = ("good", "malformed", "unknown_class", "empty_key", "interior_bom", "blank")
#: A kind of line, good ones four times as likely.
line_kinds = st.sampled_from(["good"] * 3 + list(LINE_KINDS))


def dirty_line(kind: str, i: int, fmt: str) -> str:
    """Data line ``i`` of a corpus in format ``fmt`` ("csv" or "jsonl"), of
    the given kind (see line_kinds), without a line end."""
    journal, label = _JOURNALS[i % len(_JOURNALS)], _LABELS[i % len(_LABELS)]
    if kind == "unknown_class":
        label = "contrasting"
    elif kind == "empty_key":
        journal = "  \t "
    elif kind == "malformed":
        return "garbage" if fmt == "jsonl" else "a,b"
    elif kind == "blank":
        return ""
    if fmt == "jsonl":
        line = json.dumps({"citing_id": f"w{i}", "journal": journal, "class": label})
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow((f"w{i}", journal, label))
        line = buf.getvalue()
    return BOM + line if kind == "interior_bom" else line


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
