"""Benchmark of the citemetric CLI pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository; the program is imported
from its ``src`` directory. Inputs are generated from ``--seed`` (see
``workloads.py``), then whole pipelines of ``citemetric`` subprocesses are
run for about ``--seconds`` and each stage's output is checked against the
workload's oracle. With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` the per-layer metrics of ``tracing.py``. The last line of
standard output is one JSON object: ``correct``, ``attempted`` (stage runs),
``failed`` and ``metrics``. Scratch files go to ``.bench_work/<workload>``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Set-ups per run, as (at least, at most); set-up repeats within those
#: counts until SETUP_SECONDS are measured. setup_s is the median.
SETUPS = (3, 30)
SETUP_SECONDS = 2.0
#: Pipelines run per measurement even when they overrun ``--seconds``.
MIN_REPS = 3
#: A stage still running after this long is killed and counted as failed.
STAGE_TIMEOUT_S = 120
#: Exit codes the CLI may return at all: ok, usage, data, I/O.
EXIT_CONTRACT = (0, 1, 2, 3)
REPORT_ARTIFACTS = ("metrics.csv", "summary.json", "correlations.json", "si_histogram.csv", "si_scatter.csv")

#: Workload -> stages it times, in pipeline order.
PIPELINES = {
    "paper-pipeline": ("synth", "aggregate", "report"),
    "distinct-jsonl": ("aggregate", "report"),
    "wide-dirty-csv": ("aggregate", "report"),
}

#: Stage times are reported in ``ref``: multiples of the mean wall time of
#: the two ``reference.py`` runs around the stage (see there and ``measure``).
END_TO_END = {
    "setup_s": "s",
    "pipeline_ref": "ref",
    "aggregate_ref": "ref",
    "aggregate_records_per_ref": "1/ref",
    "report_ref": "ref",
    "peak_rss_mb": "MB",
}
REFERENCE = Path(__file__).with_name("reference.py")


@dataclass
class StageRun:
    """One run of one CLI stage, with what it cost and what was wrong."""

    stage: str
    wall_s: float
    exit_code: int
    stderr: str
    peak_rss_mb: float = 0.0
    cpu_user_s: float = 0.0
    cpu_sys_s: float = 0.0
    problems: list[str] = field(default_factory=list)


class Checker:
    """Checks each stage run against the oracle and counts failures.

    A stage run fails when its exit code is not 0, its stderr holds a Python
    traceback, or its output differs from the oracle. Report artifacts must
    also be byte-identical across every run of the benchmark process.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.report_digest: str | None = None
        self.problems: list[str] = []

    def check(self, run: StageRun) -> StageRun:
        if run.exit_code not in EXIT_CONTRACT:
            run.problems.append(f"exit code {run.exit_code} outside the 0/1/2/3 contract")
        elif run.exit_code != 0:
            run.problems.append(f"exit code {run.exit_code}, expected 0")
        if "Traceback" in run.stderr:
            run.problems.append("traceback on stderr")
        if run.exit_code == 0:
            try:
                run.problems.extend(getattr(self, f"_check_{run.stage}")(run))
            except (OSError, ValueError, IndexError) as exc:
                run.problems.append(f"output unreadable: {exc!r}")
        self.attempted += 1
        if run.problems:
            self.failed += 1
            self.problems.extend(f"{run.stage}: {p}" for p in run.problems)
        return run

    def _check_synth(self, run: StageRun) -> list[str]:
        if _sha256(Path(self.workload.stages["synth"][-1])) != self.workload.oracle.corpus_sha256:
            return ["synth corpus differs from the oracle"]
        return []

    def _check_aggregate(self, run: StageRun) -> list[str]:
        oracle = self.workload.oracle
        problems = []
        for path, (accepted, rejected) in oracle.per_file.items():
            expected = f"{path}: {accepted} accepted, {rejected} rejected"
            if expected not in run.stderr.splitlines():
                problems.append(f"ingest report lacks {expected!r}")
        tally = Path(self.workload.stages["aggregate"][-1]).read_bytes()
        if tally != oracle.tally_csv:
            problems.append("tally CSV differs from the oracle")
        return problems

    def _check_report(self, run: StageRun) -> list[str]:
        outdir = Path(self.workload.stages["report"][-1])
        problems = []
        with open(outdir / "metrics.csv", encoding="utf-8") as fh:
            eligible = sum(1 for line in fh if line.rstrip("\n").rsplit(",", 2)[-2] == "true")
        with open(outdir / "si_histogram.csv", encoding="utf-8") as fh:
            binned = sum(int(line.rsplit(",", 1)[1]) for line in list(fh)[1:])
        expected = self.workload.oracle.eligible
        if eligible != expected:
            problems.append(f"{eligible} eligible journals, oracle says {expected}")
        if binned != expected:
            problems.append(f"histogram holds {binned} journals, oracle says {expected}")
        digest = hashlib.sha256(b"".join(_sha256(outdir / a).encode() for a in REPORT_ARTIFACTS)).hexdigest()
        if self.report_digest is None:
            self.report_digest = digest
        elif digest != self.report_digest:
            problems.append("report artifacts differ from an earlier run")
        return problems


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env() -> dict[str, str]:
    """The caller's environment, with the CLI's thread cap left at its
    default (the CPU count) and the checkout's sources importable."""
    env = {k: v for k, v in os.environ.items() if k != "CITEMETRIC_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


class Launcher:
    """The ``launcher.py`` child through which every CLI stage is spawned."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=STAGE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], stderr: Path) -> dict:
        job = {"argv": argv, "env": child_env(), "stderr": str(stderr), "timeout": STAGE_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("bench launcher exited")
        return json.loads(reply)


def run_stage(launcher: Launcher, stage: str, args: list[str], workdir: Path) -> StageRun:
    """Run ``citemetric <args>`` as a child process; time it and take its
    rusage from ``os.wait4``."""
    err_path = workdir / f"{stage}.stderr"
    reply = launcher.run([sys.executable, "-m", "citemetric.cli", *args], err_path)
    return StageRun(
        stage, reply["wall_s"], os.waitstatus_to_exitcode(reply["status"]),
        err_path.read_text(encoding="utf-8", errors="replace"),
        reply["maxrss_kb"] / 1024.0, reply["utime_s"], reply["stime_s"],
    )


def setup(name: str, seed: int, workdir: Path):
    """Build the workload's inputs and oracle into a fresh directory,
    repeatedly (see SETUPS); return the last build and the median time."""
    from workloads import BUILDERS

    times: list[float] = []
    while len(times) < SETUPS[0] or (sum(times) < SETUP_SECONDS and len(times) < SETUPS[1]):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = time.perf_counter()
        workload = BUILDERS[name](seed, workdir)
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


def warm_up(launcher: Launcher, workdir: Path) -> None:
    """Import every module once in a child so byte-code caches are written
    before timing; users do not pay that on every run."""
    launcher.run([sys.executable, "-m", "citemetric.cli", "--help"], workdir / "warm-up.stderr")


def run_reference(launcher: Launcher, workdir: Path) -> float:
    """Wall time of one run of ``reference.py``."""
    reply = launcher.run([sys.executable, str(REFERENCE)], workdir / "reference.stderr")
    if reply["status"] != 0:
        raise RuntimeError(f"reference run failed with wait status {reply['status']}")
    return reply["wall_s"]


def measure(launcher: Launcher, workload, checker: Checker, seconds: float, workdir: Path) -> dict[str, float]:
    """Run whole pipelines until ``seconds`` would be overrun (at least
    MIN_REPS), with a reference run before the first stage and after every
    stage. Each stage's time in ``ref`` is its wall time over the mean of the
    two reference runs around it. Returns medians over repetitions, in
    ``ref`` and, for the record, in seconds."""
    stages = PIPELINES[workload.name]
    refs = [run_reference(launcher, workdir)]
    reps: list[dict[str, tuple[StageRun, float]]] = []
    start = time.perf_counter()
    while True:
        rep = {}
        for stage in stages:
            run = checker.check(run_stage(launcher, stage, workload.stages[stage], workdir))
            refs.append(run_reference(launcher, workdir))
            rep[stage] = (run, run.wall_s / ((refs[-2] + refs[-1]) / 2))
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break

    def median(value) -> float:
        return statistics.median(value(rep) for rep in reps)

    aggregate_ref = median(lambda rep: rep["aggregate"][1])
    return {
        "reps": len(reps),
        "pipeline_ref": median(lambda rep: sum(ratio for _, ratio in rep.values())),
        "aggregate_ref": aggregate_ref,
        "aggregate_records_per_ref": workload.oracle.lines / aggregate_ref,
        "report_ref": median(lambda rep: rep["report"][1]),
        "peak_rss_mb": median(lambda rep: max(run.peak_rss_mb for run, _ in rep.values())),
        "seconds": {
            "reference_s": statistics.median(refs),
            "pipeline_s": median(lambda rep: sum(run.wall_s for run, _ in rep.values())),
            **{f"{stage}_s": median(lambda rep: rep[stage][0].wall_s) for stage in stages},
        },
    }


def machine_facts() -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict[str, object]:
    """Set up, measure and check one workload; return the result object."""
    workdir = WORK / name
    facts = {"start": machine_facts()}
    with Launcher() as launcher:
        workload, setup_s = setup(name, seed, workdir)
        checker = Checker(workload)
        warm_up(launcher, workdir)
        if trace:
            import tracing

            measured = tracing.measure(launcher, workload, checker, seconds, workdir)
            names = tracing.PER_LAYER
        else:
            measured = measure(launcher, workload, checker, seconds, workdir)
            measured["setup_s"] = setup_s
            names = END_TO_END
    facts["end"] = machine_facts()
    failed_share = checker.failed / checker.attempted
    detail = {
        "workload": name, "seed": seed, "trace": trace, "failed_share": failed_share,
        "machine": facts, "measured": measured, "problems": checker.problems,
    }
    (workdir / f"result-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    for line in checker.problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {name} seed {seed}: {measured['reps']} pipelines, {checker.attempted} stage runs, "
          f"failed_share {failed_share:g}")
    print(f"machine: {json.dumps(facts)}")
    for metric, unit in names.items():
        print(f"  {metric:40s} {measured[metric]:>14.6g} {unit}")
    for metric, value in measured.get("seconds", {}).items():
        print(f"  {metric:40s} {value:>14.6g} s (median, not normalized)")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m: {"value": measured[m], "unit": u} for m, u in names.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PIPELINES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "citemetric" / "cli.py").is_file():
        print(f"bench: no citemetric sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
