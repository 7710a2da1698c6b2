"""Fixed reference work, timed beside every benchmark pipeline.

The host this benchmark was built on changes speed by up to ~40% over a few
minutes, in user CPU time as much as in wall time, so raw stage times of two
runs minutes apart are not comparable. This program does a fixed amount of
work of the same kind as the pipeline (decode JSON lines, normalize and count
keys, write sorted CSV) and never changes with the program under test. The
benchmark runs it before and after every stage; a stage time divided by the
mean of the two reference times around it cancels the host's drift.

Run with ``python3 bench/reference.py``; prints nothing.
"""

import csv
import io
import json

LINES = 40_000
JOURNALS = 500


def main() -> None:
    lines = [
        f'{{"citing_id":"r{i}","journal":"  Journal  of {i % JOURNALS} ","class":"supporting"}}'
        for i in range(LINES)
    ]
    counts: dict[str, int] = {}
    for line in lines:
        key = " ".join(json.loads(line)["journal"].split()).casefold()
        counts[key] = counts.get(key, 0) + 1
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for key in sorted(counts):
        writer.writerow((key, counts[key]))
    if len(out.getvalue().splitlines()) != JOURNALS:
        raise SystemExit("reference work miscounted")


if __name__ == "__main__":
    main()
