"""Runs edge-case inputs through ``citemetric.cli.run`` and prints, as one
JSON object, each run's exit code, stderr and output sha256s.

    PYTHONPATH=src python3.X tests/interpreter_probe.py WORKDIR

Standard library only, so any interpreter the package supports can run it
without pytest: ``test_python_floor.py`` runs it under each ``python3.10``
to ``python3.13`` on PATH and compares the result with the running
interpreter's. WORKDIR must exist and be empty; its path is written as
``<work>`` in stderr, so the output depends on the inputs alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from citemetric.cli import run

BOM = "\ufeff".encode()
HEADER = b"citing_id,journal,class\n"
TALLY_HEADER = b"journal,supporting,disputing,mentioning,total\n"
GOOD_JSONL = b'{"citing_id":"w1","journal":"Alpha","class":"supporting"}\n'
GOOD_CSV = b"w2,Beta,disputing\n"

#: Corpus name -> bytes. Each is aggregated in both formats under both policies.
CORPORA = {
    "nul-jsonl": GOOD_JSONL + b'{"journal":"a\\u0000b","class":"supporting"}\n' + GOOD_JSONL,
    "nul-raw-jsonl": GOOD_JSONL + b'{"journal":"a\x00b","class":"supporting"}\n',
    "nul-csv": HEADER + GOOD_CSV + b"w3,a\x00b,mentioning\n" + GOOD_CSV,
    "cr-ended-jsonl": GOOD_JSONL.replace(b"\n", b"\r") * 3,
    "crlf-csv": (HEADER + GOOD_CSV * 3).replace(b"\n", b"\r\n"),
    "cr-ended-csv": (HEADER + GOOD_CSV * 3).replace(b"\n", b"\r"),
    "bom-jsonl": BOM + GOOD_JSONL * 2,
    "bom-csv": BOM + HEADER + GOOD_CSV,
    "interior-bom-jsonl": GOOD_JSONL + BOM + GOOD_JSONL,
    "bad-utf8-jsonl": GOOD_JSONL + b'{"journal":"\xff","class":"supporting"}\n' + GOOD_JSONL,
    "bad-utf8-csv": HEADER + GOOD_CSV + b"w4,\xc3\x28,supporting\n",
    "cr-quotes-jsonl": b'{"journal":"A \\"q\\" \\r b","class":"supporting"}\n' + GOOD_JSONL,
    "cr-quotes-csv": HEADER + b'w5,"A ""q"" \r b",mentioning\n' + GOOD_CSV,
    "dirty-jsonl": GOOD_JSONL + b"garbage\n" + b'{"journal":" ","class":"supporting"}\n'
    + b'{"journal":"x","class":"contrasting"}\n' + b"\n" + GOOD_JSONL,
    "dirty-csv": HEADER + b"a,b\n" + b"w6, \t ,supporting\n" + b"w7,x,contrasting\n" + GOOD_CSV,
}

#: Tally name -> bytes, each read by ``report``.
TALLIES = {
    "nul": TALLY_HEADER + b"a\x00b,1,0,0,1\n",
    "bom": BOM + TALLY_HEADER + b"alpha,150,50,0,200\nbeta,120,2,30,152\n",
    "bad-utf8": TALLY_HEADER + b"\xff,1,0,0,1\n",
    "cr-ended": (TALLY_HEADER + b"alpha,150,50,0,200\n").replace(b"\n", b"\r"),
    "cr-quotes": TALLY_HEADER + b'"a ""q"" \r b",150,50,0,200\n' + b"beta,120,2,30,152\n",
}

REPORT_ARTIFACTS = ("metrics.csv", "summary.json", "correlations.json", "si_histogram.csv", "si_scatter.csv")


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def _run(work: Path, args: list[str], outputs: list[Path]) -> dict:
    """Run ``citemetric ARGS``; return its exit code, stderr and the sha256
    of each output (None for one it did not write)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(args)
    stderr = err.getvalue().replace(str(work), "<work>")
    return {"exit": code, "stderr": stderr, "outputs": [_sha256(path) for path in outputs]}


def _report(work: Path, tally: Path, outdir: Path) -> dict:
    args = ["report", str(tally), "--min-citations", "0", "-o", str(outdir)]
    return _run(work, args, [outdir / name for name in REPORT_ARTIFACTS])


def probe(work: Path) -> dict:
    results = {}
    for name, data in CORPORA.items():
        corpus = work / name
        corpus.write_bytes(data)
        for fmt in ("jsonl", "csv"):
            for policy in ("strict", "skip"):
                key = f"{name} {fmt} {policy}"
                tally = work / f"{key}.tally".replace(" ", "_")
                args = ["aggregate", "-f", fmt, "--policy", policy, str(corpus), "-o", str(tally)]
                results[f"aggregate {key}"] = _run(work, args, [tally])
                if tally.is_file():
                    results[f"report {key}"] = _report(work, tally, work / f"{key}.out".replace(" ", "_"))
    for name, data in TALLIES.items():
        tally = work / f"{name}.tally"
        tally.write_bytes(data)
        results[f"report tally {name}"] = _report(work, tally, work / f"{name}.out")
    corpus, tally = work / "synth.jsonl", work / "synth.tally"
    results["synth"] = _run(work, ["synth", "--journals", "200", "--seed", "5", "-o", str(corpus)], [corpus])
    results["synth aggregate"] = _run(work, ["aggregate", str(corpus), "-o", str(tally)], [tally])
    results["synth report"] = _report(work, tally, work / "synth.out")
    return results


if __name__ == "__main__":
    json.dump(probe(Path(sys.argv[1])), sys.stdout, indent=1, sort_keys=True)
    print()
