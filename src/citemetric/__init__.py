"""citemetric: classified-citation tallies, the scite index, and the
descriptive statistics built on them.

The package is organised as a pipeline of small pure layers:

- :mod:`citemetric.model` — value types and journal key normalization
- :mod:`citemetric.ingest` — CSV/JSONL record parsing and serialization
- :mod:`citemetric.aggregate` — per-journal tallies (a commutative monoid)
- :mod:`citemetric.metrics` — eligibility rule and the scite index
- :mod:`citemetric.stats` — summaries, correlations, figure data
- :mod:`citemetric.synth` — seeded synthetic corpora
- :mod:`citemetric.rng` — the pinned PRNG and distribution samplers
- :mod:`citemetric.cli` — the ``citemetric`` command
"""

from .aggregate import (
    TALLY_HEADER,
    TallyTable,
    add_record,
    aggregate_corpus,
    merge_tables,
    read_tally_csv,
    write_tally_csv,
)
from .errors import (
    ArithmeticOverflowError,
    CitemetricError,
    EmptyInputError,
    EmptyKeyError,
    InsufficientDataError,
    InvalidParamsError,
    LengthMismatchError,
    MalformedLineError,
    OutOfRangeError,
    UndefinedIndexError,
    UnknownClassError,
    ZeroVarianceError,
)
from .ingest import (
    Format,
    IngestReport,
    Policy,
    format_record,
    ingest_stream,
    parse_record,
)
from .metrics import (
    METRICS_HEADER,
    build_metrics_table,
    evaluate_journal,
    scite_index,
    write_metrics_csv,
)
from .model import (
    U64_MAX,
    CitationClass,
    CitationRecord,
    CorrelationReport,
    JournalKey,
    JournalMetrics,
    JournalTally,
    MetricsConfig,
    StatsSummary,
    normalize_journal_key,
)
from .stats import (
    SI_HISTOGRAM_BINS,
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
from .synth import SynthParams, default_paper_regime, generate_corpus, journal_counts

__version__ = "0.1.0"

__all__ = [
    "ArithmeticOverflowError",
    "CitationClass",
    "CitationRecord",
    "CitemetricError",
    "CorrelationReport",
    "EmptyInputError",
    "EmptyKeyError",
    "Format",
    "IngestReport",
    "InsufficientDataError",
    "InvalidParamsError",
    "JournalKey",
    "JournalMetrics",
    "JournalTally",
    "LengthMismatchError",
    "MalformedLineError",
    "METRICS_HEADER",
    "MetricsConfig",
    "OutOfRangeError",
    "Policy",
    "SI_HISTOGRAM_BINS",
    "StatsSummary",
    "SynthParams",
    "TALLY_HEADER",
    "TallyTable",
    "U64_MAX",
    "UndefinedIndexError",
    "UnknownClassError",
    "ZeroVarianceError",
    "add_record",
    "aggregate_corpus",
    "build_metrics_table",
    "correlation_report",
    "default_paper_regime",
    "evaluate_journal",
    "format_record",
    "generate_corpus",
    "histogram",
    "ingest_stream",
    "journal_counts",
    "mean",
    "median",
    "merge_tables",
    "normalize_journal_key",
    "parse_record",
    "pearson",
    "read_tally_csv",
    "sample_sd",
    "scatter_points",
    "scite_index",
    "skewness",
    "summarize",
    "write_correlations_json",
    "write_histogram_csv",
    "write_metrics_csv",
    "write_scatter_csv",
    "write_summary_json",
    "write_tally_csv",
]
