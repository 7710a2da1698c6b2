import io
import re
import sys
from functools import reduce
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import BOM, LINE_KINDS, csv_text, csv_writer_text, dirty_line, journal_keys, lines_and_error

from citemetric import ingest
from citemetric.aggregate import add_record, aggregate_corpus
from citemetric.errors import CitemetricError, EmptyKeyError, MalformedLineError, UnknownClassError
from citemetric.ingest import (
    MAX_REPORTED_ERRORS,
    Format,
    IngestReport,
    Policy,
    csv_field,
    format_record,
    ingest_stream,
    parse_record,
    read_ahead,
    read_lines,
    runs_of,
)
from citemetric.model import CitationClass, CitationRecord

SUP = CitationClass.SUPPORTING

#: A journal that JSON decodes to an unpaired surrogate, which no UTF-8
#: tally could hold.
_LONE_SURROGATE = r'{"journal":"\ud800","class":"supporting"}'
#: Nesting far deeper than any interpreter's recursion or stack limit.
_DEEP_ARRAY = "[" * 100_000
_DEEP_VALUE = '{"journal":"a","class":"supporting","x":' + "[" * 100_000 + "]" * 100_000 + "}"


class TestParseRecord:
    def test_csv_basic(self):
        rec = parse_record("w1,Nature,supporting", Format.CSV)
        assert rec == CitationRecord("w1", "nature", SUP)

    def test_csv_quoted_comma(self):
        rec = parse_record('w1,"Cell, Reports",mentioning', Format.CSV)
        assert rec.journal == "cell, reports"

    def test_csv_empty_citing_id(self):
        rec = parse_record(",Nature,disputing", Format.CSV)
        assert rec.citing_id == ""

    @pytest.mark.parametrize("line", ["a,b", "a,b,c,d", ""])
    def test_csv_wrong_field_count(self, line):
        with pytest.raises(MalformedLineError):
            parse_record(line, Format.CSV)

    def test_jsonl_basic(self):
        rec = parse_record('{"citing_id":"w1","journal":"Nature","class":"SUPPORTING"}', Format.JSONL)
        assert rec == CitationRecord("w1", "nature", SUP)

    def test_jsonl_citing_id_optional(self):
        rec = parse_record('{"journal":"n","class":"supporting"}', Format.JSONL)
        assert rec.citing_id == ""

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1,2]",
            '"just a string"',
            '{"journal":"n"}',
            '{"class":"supporting"}',
            '{"journal":5,"class":"supporting"}',
            '{"journal":"n","class":7}',
            '{"journal":"n","class":"supporting","citing_id":3}',
            '{"journal":"a","class":"supporting","journal":"b"}',
            '{"journal":"a: b","class":"supporting","x":{"k":1,"k":2}}',
            pytest.param(_LONE_SURROGATE, id="lone-surrogate"),
            pytest.param(_DEEP_ARRAY, id="deep-array"),
            pytest.param(_DEEP_VALUE, id="deep-value"),
        ],
    )
    def test_jsonl_malformed(self, line):
        with pytest.raises(MalformedLineError):
            parse_record(line, Format.JSONL)

    def test_jsonl_colons_in_values(self):
        rec = parse_record('{"citing_id":"doi:1","journal":"Nature: Reviews","class":"supporting"}', Format.JSONL)
        assert rec == CitationRecord("doi:1", "nature: reviews", SUP)

    def test_unknown_class(self):
        with pytest.raises(UnknownClassError):
            parse_record("w,n,contrasting", Format.CSV)

    def test_class_case_insensitive(self):
        assert parse_record("w,n,Disputing", Format.CSV).klass is CitationClass.DISPUTING

    def test_empty_journal(self):
        with pytest.raises(EmptyKeyError):
            parse_record("w,   ,supporting", Format.CSV)

    def test_a_format_given_as_a_string_is_unsupported(self):
        with pytest.raises(ValueError, match="^unsupported format: 'csv'$"):
            parse_record("x", "csv")
        records, _ = ingest_stream(["x"], "jsonl")
        with pytest.raises(ValueError, match="^unsupported format: 'jsonl'$"):
            list(records)

    def test_jsonl_escaped_surrogate_pair_is_one_character(self):
        # Only a lone surrogate is refused: a pair decodes to one character.
        assert parse_record(r'{"journal":"\ud83d\ude00","class":"supporting"}', Format.JSONL).journal == "\U0001f600"


class TestFormatRecord:
    ids = st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n\x00"),
        max_size=12,
    )

    @given(ids, journal_keys, st.sampled_from(CitationClass), st.sampled_from(Format))
    def test_round_trip(self, citing_id, journal, klass, fmt):
        rec = CitationRecord(citing_id, journal, klass)
        assert parse_record(format_record(rec, fmt), fmt) == rec

    def test_jsonl_omits_empty_citing_id(self):
        line = format_record(CitationRecord("", "nature", SUP), Format.JSONL)
        assert line == '{"journal":"nature","class":"supporting"}'

    def test_csv_quotes_when_needed(self):
        line = format_record(CitationRecord("w", "cell, reports", SUP), Format.CSV)
        assert line == 'w,"cell, reports",supporting'

    @given(ids, csv_text, st.sampled_from(CitationClass))
    def test_csv_equals_csv_writer(self, citing_id, journal, klass):
        line = format_record(CitationRecord(citing_id, journal, klass), Format.CSV)
        assert line + "\n" == csv_writer_text([(citing_id, journal, klass.value)])

    def test_csv_quotes_a_cr_on_every_python_version(self):
        # csv.writer leaves a bare CR unquoted before Python 3.13.
        assert csv_field("a\rb") == '"a\rb"'
        assert format_record(CitationRecord("w", "a\rb", SUP), Format.CSV) == 'w,"a\rb",supporting'

    def test_csv_citing_id_with_a_cr_reads_back(self, tmp_path):
        want = [CitationRecord(i, "nature", SUP) for i in ("a\rb", "\r", "b\r", "\r\rc")]
        path = tmp_path / "c.csv"
        path.write_text("".join(f"{line}\n" for line in [_HEADER, *(format_record(r, Format.CSV) for r in want)]))
        records, report = ingest_stream(read_lines(str(path)), Format.CSV)
        assert (list(records), report.rejected) == (want, 0)

    def test_csv_rejects_newline_in_citing_id(self):
        with pytest.raises(ValueError):
            format_record(CitationRecord("a\nb", "nature", SUP), Format.CSV)

    def test_jsonl_allows_newline_in_citing_id(self):
        rec = CitationRecord("a\nb", "nature", SUP)
        assert parse_record(format_record(rec, Format.JSONL), Format.JSONL) == rec


class TestReadAhead:
    def test_lists_of_size_then_one_shorter(self):
        assert list(read_ahead(range(7), 3)) == [[0, 1, 2], [3, 4, 5], [6]]
        assert list(read_ahead(range(6), 3)) == [[0, 1, 2], [3, 4, 5], []]
        assert list(read_ahead([], 3)) == [[]]

    def test_an_error_comes_after_the_items_read_before_it(self):
        def source():
            yield from range(4)
            raise MalformedLineError("bad")

        chunks = read_ahead(source(), 3)
        assert next(chunks) == [0, 1, 2]
        assert next(chunks) == [3]
        with pytest.raises(MalformedLineError, match="bad"):
            next(chunks)

    def test_an_interrupt_is_not_deferred(self):
        def source():
            yield from range(4)
            raise KeyboardInterrupt

        chunks = read_ahead(source(), 3)
        assert next(chunks) == [0, 1, 2]
        with pytest.raises(KeyboardInterrupt):
            next(chunks)


class TestIngestStream:
    def test_csv_happy_path(self):
        lines = ["citing_id,journal,class", "w1,Nature,supporting", "w2,Nature,disputing"]
        records, report = ingest_stream(lines, Format.CSV)
        out = list(records)
        assert [r.klass for r in out] == [SUP, CitationClass.DISPUTING]
        assert (report.accepted, report.rejected) == (2, 0)

    def test_csv_header_required_even_under_skip(self):
        records, _ = ingest_stream(["w1,Nature,supporting"], Format.CSV, Policy.SKIP)
        with pytest.raises(MalformedLineError, match="header"):
            list(records)

    def test_csv_missing_header_on_empty_file(self):
        records, _ = ingest_stream([], Format.CSV)
        with pytest.raises(MalformedLineError, match="missing CSV header"):
            list(records)

    def test_jsonl_empty_file_is_empty_stream(self):
        records, report = ingest_stream([], Format.JSONL)
        assert list(records) == []
        assert report.accepted == 0

    def test_bom_stripped(self):
        records, _ = ingest_stream(['﻿{"journal":"n","class":"supporting"}'], Format.JSONL)
        assert list(records)[0].journal == "n"

    def test_crlf_tolerated(self):
        lines = ["citing_id,journal,class\r\n", "w1,Nature,supporting\r\n"]
        records, report = ingest_stream(lines, Format.CSV)
        assert list(records)[0].citing_id == "w1"
        assert report.accepted == 1

    def test_strict_raises_with_line_number_and_type(self):
        lines = ["citing_id,journal,class", "w1,Nature,supporting", "w2,Nature,contrasting"]
        records, report = ingest_stream(lines, Format.CSV)
        with pytest.raises(UnknownClassError, match="line 3"):
            list(records)
        assert report.accepted == 1
        assert report.rejected == 1

    def test_skip_counts_and_continues(self):
        lines = [
            '{"journal":"a","class":"supporting"}',
            "garbage",
            '{"journal":"b","class":"mentioning"}',
        ]
        records, report = ingest_stream(lines, Format.JSONL, Policy.SKIP)
        assert [r.journal for r in records] == ["a", "b"]
        assert (report.accepted, report.rejected) == (2, 1)
        assert report.first_errors[0][0] == 2
        assert "MalformedLineError" in report.first_errors[0][1]

    def test_skip_error_detail_capped(self):
        lines = ["junk"] * (MAX_REPORTED_ERRORS + 15)
        records, report = ingest_stream(lines, Format.JSONL, Policy.SKIP)
        assert list(records) == []
        assert report.rejected == MAX_REPORTED_ERRORS + 15
        assert len(report.first_errors) == MAX_REPORTED_ERRORS

    def test_report_extend_shifts_caps_and_sums(self):
        total = IngestReport(3, 2, [(1, "a"), (4, "b")])
        total.extend(IngestReport(5, 1, [(2, "c")]))  # its line 2 is line 5 + 2
        assert total == IngestReport(8, 3, [(1, "a"), (4, "b"), (7, "c")])
        total.extend(IngestReport())
        assert total == IngestReport(8, 3, [(1, "a"), (4, "b"), (7, "c")])
        # 30 more errors over two reports; only the first 17 find room.
        total.extend(IngestReport(0, 15, [(n, "d") for n in range(1, 16)]))
        total.extend(IngestReport(1, 15, [(n, "e") for n in range(2, 17)]))
        assert (total.accepted, total.rejected) == (9, 33)
        assert len(total.first_errors) == MAX_REPORTED_ERRORS
        assert total.first_errors[3:] == [(n, "d") for n in range(12, 27)] + [(28, "e"), (29, "e")]

    def test_blank_interior_line_is_an_error(self):
        records, _ = ingest_stream(['{"journal":"a","class":"supporting"}', ""], Format.JSONL)
        with pytest.raises(MalformedLineError, match="line 2"):
            list(records)

    @pytest.mark.parametrize("policy", list(Policy))
    def test_duplicate_jsonl_key_is_a_malformed_line(self, policy):
        lines = ['{"journal":"a","class":"supporting"}', '{"journal":"a","class":"supporting","journal":"b"}']
        records, report = ingest_stream(lines, Format.JSONL, policy)
        if policy is Policy.STRICT:
            with pytest.raises(MalformedLineError, match=r"^line 2: duplicate key 'journal'$"):
                list(records)
        else:
            assert [r.journal for r in records] == ["a"]
        assert report.first_errors == [(2, "MalformedLineError: duplicate key 'journal'")]

    def test_stream_is_lazy(self):
        def boom():
            yield '{"journal":"a","class":"supporting"}'
            raise RuntimeError("not consumed yet")

        records, _ = ingest_stream(boom(), Format.JSONL)
        assert next(records).journal == "a"


def _dirty_lines(fmt):
    """Data lines that repeat raw journals, labels and failures many times
    over: case, whitespace and ISSN check-digit variants of one journal, names
    that normalize to the empty key, unknown or mixed-case labels, and
    malformed lines."""
    journals = [
        "Nature", "nature", "  NATURE ", "na  ture", "Na\tTure",
        "1234-567x", "1234-567X", " 1234-567x ", "",
        "   ", "\t", "cell, reports", "Cell,  Reports",
    ]
    labels = ["supporting", "Supporting", "DISPUTING", "mentioning", "contrasting", "Contrasting", ""]
    lines = []
    for i in range(3 * len(journals) * len(labels)):
        journal = journals[i % len(journals)]
        label = labels[(i // len(journals)) % len(labels)]
        lines.append(format_record(CitationRecord(f"w{i}", journal, SUP), fmt).replace("supporting", label))
        if i % 17 == 5:
            lines.append("garbage" if fmt is Format.JSONL else "a,b")
        if i % 23 == 7 and fmt is Format.JSONL:
            lines.append('{"journal":"nature","class":"supporting","journal":"cell"}')
    return lines


def _parses(line, fmt):
    try:
        parse_record(line, fmt)
    except CitemetricError:
        return False
    return True


class TestIngestCacheEquivalence:
    @pytest.mark.parametrize("fmt", list(Format))
    @pytest.mark.parametrize("policy", list(Policy))
    def test_matches_per_line_parse_record(self, fmt, policy):
        data = _dirty_lines(fmt)
        if policy is Policy.STRICT:
            # Good lines first, so the strict run makes many cache hits
            # before it stops at its first error.
            data.sort(key=lambda line: not _parses(line, fmt))
        header = ["citing_id,journal,class"] if fmt is Format.CSV else []
        first = len(header) + 1

        # Reference: parse_record on every line, no caches.
        want, errors, error = [], [], None
        for lineno, line in enumerate(data, start=first):
            try:
                want.append(parse_record(line, fmt))
            except CitemetricError as exc:
                errors.append((lineno, f"{type(exc).__name__}: {exc}"))
                if policy is Policy.STRICT:
                    error = type(exc), f"line {lineno}: {exc}"
                    break

        records, report = ingest_stream(header + data, fmt, policy)
        got = []
        if error is None:
            got.extend(records)
        else:
            with pytest.raises(CitemetricError) as info:
                got.extend(records)
            assert (type(info.value), str(info.value)) == error
        assert got == want
        assert (report.accepted, report.rejected) == (len(want), len(errors))
        assert report.first_errors == errors[:MAX_REPORTED_ERRORS]
        assert {r.journal for r in got} == {"nature", "na ture", "1234-567X", "cell, reports"}
        if policy is Policy.SKIP:
            kinds = {reason.split(":")[0] for _, reason in errors}
            assert kinds == {"MalformedLineError", "UnknownClassError", "EmptyKeyError"}


# --- batched ingest_stream against a per-line reference ------------------------

_HEADER = "citing_id,journal,class"
_J = '{"journal":"a","class":"supporting"}'
_READ_ERROR = "invalid UTF-8: 'utf-8' codec can't decode byte 0xff in position 7: invalid start byte"


def per_line_reference(source, fmt, policy):
    """What ``ingest_stream`` yields and reports on ``source``, one
    ``parse_record`` per line: (records, (accepted, rejected, first_errors),
    (error type, message) or None). CSV sources start with the header."""
    records, rejected, first_errors, error = [], 0, [], None
    try:
        for lineno, raw in enumerate(source, start=1):
            line = raw.rstrip("\r\n")
            if lineno == 1:
                line = line.removeprefix(BOM)
                if fmt is Format.CSV:
                    assert line == _HEADER
                    continue
            try:
                records.append(parse_record(line, fmt))
            except CitemetricError as exc:
                rejected += 1
                if len(first_errors) < MAX_REPORTED_ERRORS:
                    first_errors.append((lineno, f"{type(exc).__name__}: {exc}"))
                if policy is Policy.STRICT:
                    error = type(exc), f"line {lineno}: {exc}"
                    break
    except MalformedLineError as exc:  # raised by the source itself
        error = MalformedLineError, str(exc)
    return records, (len(records), rejected, first_errors), error


def _source(lines, fail_at):
    """Yield ``lines``, then, from position ``fail_at`` on, raise the error
    ``read_lines`` raises on invalid UTF-8."""
    for i, line in enumerate(lines):
        if i == fail_at:
            break
        yield line
    if fail_at is not None:
        raise MalformedLineError(_READ_ERROR)


def assert_batched_equals_per_line(lines, fmt, policy, batch, fail_at=None):
    want, want_report, want_error = per_line_reference(_source(lines, fail_at), fmt, policy)
    with mock.patch.object(ingest, "_BATCH_LINES", batch):
        records, report = ingest_stream(_source(lines, fail_at), fmt, policy)
        got, error = [], None
        try:
            for record in records:
                got.append(record)
        except CitemetricError as exc:
            error = type(exc), str(exc)
            assert next(records, None) is None  # an error ends the stream
        assert (got, error) == (want, want_error)
        assert (report.accepted, report.rejected, report.first_errors) == want_report

        # The CLI's composition: the fold takes the unread stream's runs.
        # The traced benchmark's: the stream listed, then the list folded.
        # And a stream read k records in: the fold counts the rest, read
        # through the record path.
        for fold in (aggregate_corpus, lambda records: aggregate_corpus(list(records))):
            records, report = ingest_stream(_source(lines, fail_at), fmt, policy)
            assert_fold_equals(fold, records, want, want_error)
            assert (report.accepted, report.rejected, report.first_errors) == want_report
        for k in sorted({1, len(want) // 2, len(want)} - {0}) if want else ():
            records, report = ingest_stream(_source(lines, fail_at), fmt, policy)
            assert [next(records) for _ in range(k)] == want[:k]
            assert_fold_equals(aggregate_corpus, records, want[k:], want_error)
            assert (report.accepted, report.rejected, report.first_errors) == want_report


def test_a_stream_iterated_but_never_advanced_folds_through_columns(monkeypatch):
    lines = [_J, '{"journal":"b","class":"disputing"}', "garbage", _J]
    batches = []
    columns = ingest._columns
    monkeypatch.setattr(ingest, "_columns", lambda records: batches.append(len(records)) or columns(records))
    records, report = ingest_stream(lines, Format.JSONL, Policy.SKIP)
    want = aggregate_corpus(records)  # never iterated: the parser's own runs
    assert want == {"a": (2, 0, 0), "b": (0, 1, 0)} and batches == []
    records, report = ingest_stream(lines, Format.JSONL, Policy.SKIP)
    iter(records)
    assert aggregate_corpus(records) == want
    assert batches == [3]  # the three records, built and transposed back
    assert (report.accepted, report.rejected) == (3, 1)


@pytest.mark.parametrize("fmt", list(Format))
def test_an_unread_stream_hands_out_one_run_per_batch(fmt):
    """Bad lines in every batch, some of which the column parser refuses,
    still give one run a batch, each of the batch's accepted lines."""
    if fmt is Format.JSONL:
        bad = ["garbage"]  # refuses every batch
        good = ['{"citing_id":"w%d","journal":"J %d","class":"supporting"}' % (i, i % 97) for i in range(5000)]
    else:
        bad = ["a,b", "w,Nature,contrasting", "w,   ,supporting", 'w,"Nature,supporting', "w,Na\rture,mentioning"]
        good = [f"w{i},J {i % 97},disputing" for i in range(5000)]
    lines = []
    for i, line in enumerate(good):
        lines.append(line)
        if i % 100 == 99:  # a bad line after every 100th
            lines.append(bad[i // 100 % len(bad)])
    source = [_HEADER, *lines] if fmt is Format.CSV else lines
    records, report = ingest_stream(source, fmt, Policy.SKIP)
    runs = list(runs_of(records))
    assert len(runs) == -(-len(source) // ingest._BATCH_LINES)
    want, want_report, _ = per_line_reference(source, fmt, Policy.SKIP)
    assert [CitationRecord(*row) for run in runs for row in zip(*run)] == want
    assert (report.accepted, report.rejected, report.first_errors) == want_report
    assert report.rejected == 50


@pytest.mark.parametrize(
    "fmt, bad",
    [
        (Format.CSV, "w,Nature"),
        (Format.CSV, None),
        (Format.JSONL, None),
        (Format.JSONL, '{"journal":"Nature","class":"contrasting"}'),
        (None, None),
    ],
    ids=["csv-short-row", "csv", "jsonl", "jsonl-unknown-class", "records"],
)
def test_a_fold_runs_no_python_step_per_line(fmt, bad):
    """Folding 40 batches of one journal's lines, each with at most one bad
    line, makes fewer than 100 Python and C calls a batch: only a line its
    batch rejects takes a Python step. ``fmt`` None folds a list of records."""
    n = 40 * ingest._BATCH_LINES
    if fmt is None:
        source = [CitationRecord(f"w{i}", "nature", SUP) for i in range(n)]
    else:
        row = "w%d,Nature,supporting" if fmt is Format.CSV else '{"citing_id":"w%d","journal":"Nature","class":"supporting"}'
        source = [bad if bad and i % ingest._BATCH_LINES == 100 else row % i for i in range(n)]
        if fmt is Format.CSV:
            source[0] = _HEADER
    records = source if fmt is None else ingest_stream(source, fmt, Policy.SKIP)[0]
    events = 0

    def profile(frame, event, arg):
        nonlocal events
        events += event in ("call", "c_call")

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        table = aggregate_corpus(records)
    finally:
        sys.setprofile(old)
    assert table == {"nature": (n - (fmt is Format.CSV) - 40 * bool(bad), 0, 0)}
    assert events < 100 * 40


def assert_fold_equals(fold, records, want, want_error):
    try:
        table = fold(records)
    except CitemetricError as exc:
        assert (type(exc), str(exc)) == want_error
    else:
        assert want_error is None
        assert table == reduce(add_record, want, {})
    assert next(records, None) is None  # the fold read the stream to its end or its error


_PINNED = {
    Format.JSONL: [
        # Accepted by an element-count, ':'-count and dict-type rule alone.
        [_J, '{"journal":"a","class":"supporting"},{"journal":"b","class":"supporting"', '"x":1}'],
        [f"{_J},{_J}", '{"journal":"c","class":"supporting","x":[{}', "{}]}"],
        # Pass every check but the element count, or but the object type.
        [_J, '{"journal":"a","class":"supporting","x":[1', "{}]}"],
        [f'{_J}, "ab"', '{"journal":"b","class":"supporting","x":[1', '{"journal":"c","class":"supporting"}]}'],
        [_J, BOM + _J, _J],
        ['{"citing_id":"doi:10.1/{x}","journal":"n","class":"supporting"}', _J],
        ['{"citing_id":"doi:1","journal":"Nature: Reviews","class":"supporting"}', _J],
        ['{"citing_id":"doi:1","journal":"a","class":"supporting"}', '{"journal":"a","class":"Mentioning","journal":"b"}'],
        [_J, '{"journal":"n","class":"supporting","x":{"y":1}}', _J],
        [_J, '{"citing_id":3,"journal":"n","class":"supporting"}', _J],
        [_J, '{"journal":["n"],"class":"supporting"}', _J],
        [_J, '{"journal":"  ","class":"supporting"}', '{"journal":"","class":"supporting"}', _J],
        [_J, '{"journal":"a","class":"supporting","journal":"b"}', _J],
        [_J, '{"journal":"a","class":"supporting"} ', '{"journal":"a","class":"supporting"}x', _J],
        [_J, '{"journal":"a","class":"supporting"}\r\n', "", "\n", "[]", "5"],
        # A CR is data: whitespace between tokens, a control character in a
        # string, and no line end between two objects.
        [BOM + _J, _J, '{"journal":"a"}', '{"class":"supporting"}',
         '{"journal":\r"a",\r"class":"supporting"}\r', '{"journal":"a\rb","class":"supporting"}', _J + "\r" + _J, _J],
    ],
    Format.CSV: [
        [_HEADER, 'w1,"Nature,supporting', 'w2,Cell",mentioning', "w3,Cell,mentioning"],
        [_HEADER, "w1,Nature,supporting", 'w2,"Cell', "w3,Cell,mentioning"],
        [BOM + _HEADER, "w1,Nature,supporting", BOM + "w2,Nature,supporting", ",,", "a,b,c,d"],
        [_HEADER, "w1,Nature,supporting", "w2,   ,supporting", "w3,Nature,contrasting", "", "w4,Cell,Disputing"],
        [_HEADER, "w1,Nature,supporting", "w2," + "x" * 131_073 + ",supporting", "w3,Cell,mentioning"],
        [_HEADER, 'w1,"Na\rture",supporting', "w2,Na\rture,supporting\r", "w3,Cell,mentioning\rw4,Cell,mentioning"],
    ],
}


@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize("batch", [1, 2, 3, 5, 7, ingest._BATCH_LINES])
@pytest.mark.parametrize(
    "fmt, lines", [(fmt, lines) for fmt, cases in _PINNED.items() for lines in cases]
)
def test_batched_ingest_pinned_cases(fmt, lines, policy, batch):
    assert_batched_equals_per_line(lines, fmt, policy, batch)


@pytest.mark.parametrize("batch", [1, 2, 3, 7])
def test_read_error_comes_after_an_earlier_strict_error_in_its_batch(batch):
    lines = [_J, "garbage", _J, _J]
    assert_batched_equals_per_line(lines, Format.JSONL, Policy.STRICT, batch, fail_at=3)
    records, report = ingest_stream(_source(lines, 3), Format.JSONL)
    with pytest.raises(MalformedLineError, match="^line 2: invalid JSON"):
        list(records)
    # Under skip, the lines read before the failure are still counted.
    assert_batched_equals_per_line(lines, Format.JSONL, Policy.SKIP, batch, fail_at=3)
    records, report = ingest_stream(_source(lines, 3), Format.JSONL, Policy.SKIP)
    with pytest.raises(MalformedLineError, match="^invalid UTF-8"):
        list(records)
    assert (report.accepted, report.rejected) == (2, 1)


@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize("fmt, lines", [(Format.JSONL, [_J, "garbage"]), (Format.CSV, [_HEADER, "w1,Nature,supporting", "a,b"])])
def test_an_interrupt_after_a_bad_line_is_not_deferred(fmt, lines, policy):
    def source():
        yield from lines
        raise KeyboardInterrupt

    records, _ = ingest_stream(source(), fmt, policy)
    with pytest.raises(KeyboardInterrupt):
        list(records)


@pytest.mark.parametrize(
    "fmt, lines, refused",
    [
        (Format.JSONL, [_J, '{"journal":"a","class":"contrasting"}', _J, _J], False),
        (Format.JSONL, [_J, "garbage", _J, _J], True),
        (Format.CSV, [_HEADER, "w1,Nature,supporting", "w2,Nature,contrasting", "w3,Cell,mentioning"], False),
        (Format.CSV, [_HEADER, "w1,Nature,supporting", 'w2,"Nature,supporting', "w3,Cell,mentioning"], True),
    ],
)
def test_a_caught_strict_error_ends_the_stream(fmt, lines, refused):
    data = lines[1:] if fmt is Format.CSV else lines
    assert (ingest._COLUMNS[fmt](data) is None) is refused
    records, report = ingest_stream(lines, fmt)
    assert next(records) == parse_record(data[0], fmt)
    with pytest.raises(CitemetricError, match=f"^line {len(lines) - len(data) + 2}: "):
        next(records)
    assert list(records) == []
    assert (report.accepted, report.rejected, len(report.first_errors)) == (1, 1, 1)


@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize("refused", [False, True])
def test_a_lone_surrogate_journal_is_a_malformed_line(refused, policy):
    lines = [_J] * ingest._BATCH_LINES
    lines[100] = _LONE_SURROGATE
    if refused:
        lines[200] = "garbage"
    assert (ingest._jsonl_columns(lines) is None) is refused
    assert_batched_equals_per_line(lines, Format.JSONL, policy, ingest._BATCH_LINES)
    records, report = ingest_stream(lines, Format.JSONL, policy)
    message = "journal holds a lone surrogate, which UTF-8 cannot encode"
    if policy is Policy.STRICT:
        with pytest.raises(MalformedLineError, match=f"^line 101: {message}$"):
            list(records)
    else:
        assert len(list(records)) == ingest._BATCH_LINES - 1 - refused
    assert report.first_errors[0] == (101, f"MalformedLineError: {message}")


@st.composite
def _dirty_streams(draw, fmt):
    pool = _dirty_lines(fmt) + [line for case in _PINNED[fmt] for line in case[1:]]
    pool += [dirty_line(kind, i, fmt.value) for i, kind in enumerate(LINE_KINDS * 6)]
    lines = draw(st.lists(st.sampled_from(pool), max_size=40))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r", ""]), min_size=len(lines), max_size=len(lines)))
    lines = [line + end for line, end in zip(lines, ends)]
    if fmt is Format.CSV:
        lines.insert(0, _HEADER + "\n")
    if lines and draw(st.booleans()):
        lines[0] = BOM + lines[0]
    return lines


@pytest.mark.parametrize("fmt", list(Format))
@pytest.mark.parametrize("policy", list(Policy))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_batched_ingest_equals_per_line_reference(fmt, policy, data):
    lines = data.draw(_dirty_streams(fmt), label="lines")
    batch = data.draw(st.one_of(st.integers(1, 7), st.just(ingest._BATCH_LINES)), label="batch")
    fail_at = data.draw(st.one_of(st.none(), st.integers(0, len(lines))), label="fail_at")
    assert_batched_equals_per_line(lines, fmt, policy, batch, fail_at)


# --- read_lines -------------------------------------------------------------

_byte_pieces = st.sampled_from(
    [b"a", b"bc", b"\n", b"\r", b"\r\n", "\ufeff".encode(), "\u00e9".encode(), "\u20ac".encode(),
     "\U0001f600".encode(), b"\xff", b"\xe2\x82", b"\xed\xa0\x80", b"\xc3"]
)
_block_sizes = st.one_of(st.integers(1, 7), st.just(ingest._BLOCK_BYTES))


@given(data=st.lists(_byte_pieces, max_size=60).map(b"".join), block=_block_sizes)
@settings(max_examples=600, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_lines_matches_text_mode_open(tmp_path, data, block):
    path = tmp_path / "f"
    path.write_bytes(data)
    with mock.patch.object(ingest, "_BLOCK_BYTES", block):
        got, error = lines_and_error(read_lines(str(path)))
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            want = list(fh)
    except UnicodeDecodeError:
        offset = 0
        for line in io.BytesIO(data):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                bad = offset + exc.start
                break
            offset += len(line)
        path.write_bytes(data[:offset])
        with open(path, encoding="utf-8", newline="\n") as fh:
            assert got == list(fh)
        assert error is not None and error.startswith("invalid UTF-8: 'utf-8' codec can't decode ")
        assert int(re.search(r" in position (\d+)", error)[1]) == bad
    else:
        assert (got, error) == (want, None)


def test_read_lines_reads_a_byte_range(tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"one\ntwo\r\nthree\rfour\n")
    assert list(read_lines(str(path), 4, 5)) == ["two\r\n"]
    assert list(read_lines(str(path), 9)) == ["three\rfour\n"]
    assert list(read_lines(str(path), 4, 0)) == []


# --- the line cap -------------------------------------------------------------

_utf8_pieces = st.sampled_from([b"a", b"bc", b"\n", b"\r", b"\r\n", "\u00e9".encode(), "\u20ac".encode(), "\U0001f600".encode()])


@given(
    data=st.lists(_utf8_pieces, max_size=60).map(b"".join),
    limit=st.integers(4, 12),
    block=st.integers(1, 4),
    start=st.integers(0, 8),
)
@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_lines_refuses_a_line_over_the_cap_at_its_offset(tmp_path, data, limit, block, start):
    """The lines before the first one of more than ``limit`` bytes up to its
    ``\\n``, as text-mode ``open`` reads them, then an error at its offset."""
    path = tmp_path / "f"
    path.write_bytes(data)
    starts = [0, *(i + 1 for i, byte in enumerate(data) if byte == ord("\n"))]
    start = starts[start % len(starts)]  # a range starts after a newline
    offset, bad = start, None
    for line in io.BytesIO(data[start:]):
        if len(line) > limit:
            bad = offset
            break
        offset += len(line)
    with mock.patch.object(ingest, "MAX_LINE_BYTES", limit), mock.patch.object(ingest, "_BLOCK_BYTES", block):
        got, error = lines_and_error(read_lines(str(path), start))
    want = list(io.TextIOWrapper(io.BytesIO(data[start:bad]), encoding="utf-8", newline="\n"))
    assert got == want
    assert error == (None if bad is None else f"line too long: the line at byte {bad} holds more than {limit} bytes")


@pytest.mark.parametrize("ending", ["\n", "\r\n", ""])
def test_read_lines_takes_a_line_of_exactly_the_cap(tmp_path, ending):
    path = tmp_path / "f"
    line = "x" * (ingest.MAX_LINE_BYTES - len(ending))
    path.write_bytes(f"a\n{line}{ending}".encode())
    assert lines_and_error(read_lines(str(path))) == (["a\n", line + ending], None)
    path.write_bytes(f"a\n{line}y{ending}b\n".encode())
    error = f"line too long: the line at byte 2 holds more than {ingest.MAX_LINE_BYTES} bytes"
    assert lines_and_error(read_lines(str(path))) == (["a\n"], error)
