"""End-to-end benchmark of the dsekit pipeline: synth -> run -> train -> infer -> report.

    python3 bench/run.py --workload medium-w1 --seed 0 --seconds 15 --trace 0

Drives the command line as a user would, one subprocess per stage, from the
root of a source checkout (the package is imported from `src/`). `synth` is
the set-up and runs several times; then whole rounds of run, train, infer and
report repeat until `--seconds` of rounds have been measured; within a round
the short train, infer and report stages run several times each. Every stage
time is a median. The last round's files are then checked by
`checks.py`, and each stage invocation and each check is one operation in
`attempted`/`failed`.

With `--trace 1` every stage runs through `tracing.py` instead and the result
carries the per-layer metrics; the stage times it measures include the tracing
overhead and are printed on stderr only. See README.md for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

FAMILIES = "smooth,rugged,deceptive,plateau,clustered"
SUITE_SEEDS = "0"
BUDGET = 500
MASTER_SEED = 0
SETUP_REPEATS = 3
# train, infer and report take seconds, while a shared host's speed can shift
# by tens of percent from one second to the next; the median of 4 interleaved
# repeats spans about 15 s. More repeats would push the 70 runs of a full
# benchmark evaluation past an hour.
STAGE_REPEATS = 4
STARTUP_REPEATS = 3
RUN_DEADLINE_S = 170.0
LAST_ROUND_END_S = 110.0
EXPLORERS = ("nsga2", "sa", "aco", "pso", "lattice", "sbo", "eda", "ac", "pg", "qlmoea")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    size: str
    workers: int
    # Worker count of a second `run` on the same suite whose files must be
    # byte-identical to the timed round's (traced runs only); None skips it.
    compare_workers: int | None = None


WORKLOADS = {
    "medium-w1": Workload("medium", 1, compare_workers=max(2, nproc())),
    "small-w1": Workload("small", 1),
    "medium-wN": Workload("medium", nproc()),
}

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("run_evals_per_s", "1/s"),
    ("train_s", "s"),
    ("infer_s", "s"),
    ("pipeline_s", "s"),
    ("run_peak_rss_mb", "MB"),
)


class StageFailed(Exception):
    pass


class Runner:
    """Runs dsekit stages as subprocesses and counts them as operations."""

    def __init__(self, out: Path, trace: bool, deadline: float) -> None:
        self.out = out
        self.trace = trace
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.traces: dict[str, dict] = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )

    def spawn(self, argv: list[str], log: Path) -> tuple[int, float, int]:
        """(exit code, wall seconds, peak RSS in KiB of the process tree)."""
        with log.open("wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=fh, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            # Kill the whole session (pool workers too) if the run's time is up.
            timer = threading.Timer(
                max(1.0, self.deadline - time.monotonic()), os.killpg, (proc.pid, signal.SIGKILL)
            )
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss of a reaped child covers its own reaped children (the pool).
        return proc.returncode, seconds, usage.ru_maxrss

    def stage(self, key: str, args: list[str]) -> tuple[float, int]:
        """Run one dsekit command; (seconds, peak RSS KiB). Raises StageFailed."""
        self.attempted += 1
        if self.trace:
            trace_file = self.out / f"{key}.trace.json"
            argv = [sys.executable, str(BENCH_DIR / "tracing.py"), str(trace_file), *args]
        else:
            argv = [sys.executable, "-m", "dsekit.cli", *args]
        code, seconds, rss = self.spawn(argv, self.out / f"{key}.log")
        if code != 0:
            self.failed += 1
            raise StageFailed(f"{key}: exit code {code}, see {self.out / (key + '.log')}")
        if self.trace:
            self.traces[key] = json.loads(trace_file.read_text(encoding="utf-8"))
        return seconds, rss


def sum_evaluations(runs_path: Path) -> int:
    return sum(
        json.loads(line)["evaluations_used"]
        for line in runs_path.read_text(encoding="utf-8").splitlines()
    )


def pipeline(runner: Runner, key: str, directory: Path, workers: int, seed: int,
             repeats: int = STAGE_REPEATS, budget: int = BUDGET) -> dict:
    """run, then `repeats` x (train -> infer -> report), in `directory`.

    The later stages are short and noisy, so each is repeated and timed by its
    median; the repeats rewrite identical files.
    """
    run_s, rss_kib = runner.stage(
        f"{key}.run",
        ["run", "--dataset", str(directory), "--budget", str(budget),
         "--master-seed", str(MASTER_SEED), "--workers", str(workers)],
    )
    times: dict[str, list[float]] = {"train": [], "infer": [], "report": []}
    for i in range(repeats):
        times["train"].append(runner.stage(
            f"{key}.train{i}",
            ["train", "--dataset", str(directory), "--seed", str(seed),
             "--out", str(directory / "sel")])[0])
        times["infer"].append(runner.stage(
            f"{key}.infer{i}",
            ["infer", "--dataset", str(directory), "--checkpoints", str(directory / "sel"),
             "--budget", str(budget), "--out", str(directory / "inf")])[0])
        times["report"].append(runner.stage(
            f"{key}.report{i}",
            ["report", "--runs", str(directory / "runs.jsonl"), "--labels",
             str(directory / "labels.jsonl"), "--report", str(directory / "inf" / "report.jsonl"),
             "--out", str(directory / "csv")])[0])
    train_s, infer_s, report_s = (statistics.median(times[k]) for k in ("train", "infer", "report"))
    evaluations = sum_evaluations(directory / "runs.jsonl")
    return {
        "run_s": run_s,
        "run_evals_per_s": evaluations / run_s,
        "train_s": train_s,
        "infer_s": infer_s,
        "pipeline_s": run_s + train_s + infer_s + report_s,
        "run_peak_rss_mb": rss_kib / 1024.0,
    }


def fresh_copy(instances: Path, directory: Path) -> Path:
    directory.mkdir(parents=True)
    shutil.copyfile(instances, directory / "instances.jsonl")
    return directory


# -- per-layer metrics from the stage traces -----------------------------------


def _span(trace: dict, name: str, field: int = 0) -> float:
    return trace["spans"].get(name, [0.0, 0.0, 0])[field]


def layer_metrics(traces: dict[str, dict], round_dir: Path, setup_keys: list[str],
                  workers: int) -> dict[str, tuple[float, str]]:
    run, train, infer = (traces[f"{round_dir.name}.{s}"] for s in ("run", "train0", "infer0"))
    setups = [traces[k] for k in setup_keys]
    cells = run["cells"]
    m: dict[str, tuple[float, str]] = {}
    m["benchmarks.synth_s"] = (statistics.median(_span(t, "benchmarks.synth") for t in setups), "s")
    m["benchmarks.features_s"] = (
        statistics.median(_span(t, "benchmarks.features") for t in setups), "s")
    m["surrogate.build_s"] = (_span(run, "surrogate.build"), "s")
    evals = run["counts"]["surrogate.evals"]
    m["surrogate.evals"] = (evals, "count")
    m["surrogate.us_per_eval"] = (1e6 * _span(run, "surrogate.eval") / max(evals, 1), "us")
    for name in EXPLORERS:
        m[f"explorers.{name}.self_s"] = (sum(c["self_s"] for c in cells if c["explorer"] == name), "s")
    proposals = run["counts"]["explorers.proposals"]
    m["explorers.proposals"] = (proposals, "count")
    m["explorers.memo_hits"] = (run["counts"]["explorers.memo_hits"], "count")
    m["explorers.useful_ratio"] = (sum(c["evaluations"] for c in cells) / max(proposals, 1), "ratio")
    m["explorers.short_cells"] = (
        sum(1 for c in cells if c["evaluations"] < min(c["budget"], c["space"])), "count")
    m["scoring.self_s"] = (_span(run, "scoring", 1), "s")
    m["pareto.filter_calls"] = (
        sum(_span(t, "pareto.filter", 2) for t in (run, infer)), "count")
    m["pareto.filter_s"] = (sum(_span(t, "pareto.filter") for t in (run, infer)), "s")
    m["pareto.adrs_s"] = (sum(_span(t, "pareto.adrs") for t in (run, infer)), "s")
    m["dataset.persist_s"] = (_span(run, "dataset.persist"), "s")
    m["dataset.runs_bytes"] = ((round_dir / "runs.jsonl").stat().st_size, "bytes")
    m["dataset.load_s"] = (_span(train, "dataset.load") + _span(infer, "dataset.load"), "s")
    m["dataset.critical_cell_s"] = (max(c["seconds"] for c in cells), "s")
    m["dataset.pool_efficiency"] = (
        sum(c["seconds"] for c in cells) / (workers * _span(run, "dataset.run_suite")), "ratio")
    fnv_s = sum(_span(t, "hashing.fnv") for t in (run, train, infer))
    fnv_bytes = sum(t["counts"].get("hashing.fnv_bytes", 0) for t in (run, train, infer))
    m["hashing.fnv_s"] = (fnv_s, "s")
    m["hashing.fnv_mb_per_s"] = (fnv_bytes / 1e6 / fnv_s, "MB/s")
    m["selector.supervised_ms_per_epoch"] = (
        1e3 * _span(train, "selector.supervised") / train["counts"]["selector.supervised_epochs"], "ms")
    m["selector.rl_ms_per_epoch"] = (
        1e3 * _span(train, "selector.rl") / train["counts"]["selector.rl_epochs"], "ms")
    m["selector.save_s"] = (_span(train, "selector.save"), "s")
    m["selector.checkpoint_bytes"] = ((round_dir / "sel" / "checkpoint.txt").stat().st_size, "bytes")
    m["selector.load_s"] = (_span(infer, "selector.load"), "s")
    m["selector.recommend_ms"] = (
        1e3 * _span(infer, "selector.recommend") / max(_span(infer, "selector.recommend", 2), 1), "ms")
    m["infer.explore_s"] = (sum(c["seconds"] for c in infer["cells"]), "s")
    m["infer.reference_s"] = (_span(infer, "infer.reference"), "s")
    return m


def startup_seconds(runner: Runner) -> float:
    times = []
    for i in range(STARTUP_REPEATS):
        code, seconds, _ = runner.spawn(
            [sys.executable, "-c", "import dsekit.cli"], runner.out / f"startup{i}.log")
        if code != 0:
            raise StageFailed("importing dsekit.cli failed")
        times.append(seconds)
    return statistics.median(times)


def explorer_table(cells: list[dict]) -> str:
    lines = ["explorer  measured_s  modelled_s  self_s  short_cells"]
    for name in EXPLORERS:
        mine = [c for c in cells if c["explorer"] == name]
        lines.append(
            f"{name:8s}  {sum(c['seconds'] for c in mine):10.3f}  "
            f"{sum(c['modelled_s'] for c in mine):10.3f}  {sum(c['self_s'] for c in mine):6.3f}  "
            f"{sum(1 for c in mine if c['evaluations'] < min(c['budget'], c['space'])):11d}"
        )
    return "\n".join(lines)


# -- main -------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="selector training seed (train --seed)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole rounds until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dsekit" / "cli.py").is_file():
        print(f"error: no dsekit sources under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runner = Runner(out, bool(args.trace), started + RUN_DEADLINE_S)

    rounds: list[dict] = []
    setup_times: list[float] = []
    setup_keys = [f"setup{i}.synth" for i in range(SETUP_REPEATS)]
    try:
        for i, key in enumerate(setup_keys):
            seconds, _ = runner.stage(
                key, ["synth", "--families", FAMILIES, "--seeds", SUITE_SEEDS,
                      "--size", workload.size, "--out", str(out / f"setup{i}")])
            setup_times.append(seconds)
        instances = out / "setup0" / "instances.jsonl"
        measured = last_round = 0.0
        # Whole rounds only, and none that would leave too little time for the
        # checks and the comparison run before the run's deadline.
        while not rounds or (
            measured < args.seconds
            and time.monotonic() - started + last_round < LAST_ROUND_END_S
        ):
            key = f"round{len(rounds)}"
            t0 = time.monotonic()
            rounds.append(pipeline(runner, key, fresh_copy(instances, out / key),
                                   workload.workers, args.seed))
            last_round = time.monotonic() - t0
            measured += last_round
        last = out / f"round{len(rounds) - 1}"
        results = checks.run_checks(last, BUDGET)
        # The comparison costs a second `run`; traced runs carry it so that
        # the many untraced runs of a full evaluation stay short.
        if workload.compare_workers is not None and args.trace:
            other = fresh_copy(instances, out / "compare")
            runner.stage("compare.run", ["run", "--dataset", str(other), "--budget", str(BUDGET),
                                         "--master-seed", str(MASTER_SEED),
                                         "--workers", str(workload.compare_workers)])
            runner.stage("compare.train", ["train", "--dataset", str(other), "--seed",
                                           str(args.seed), "--out", str(other / "sel")])
            results["determinism"] = checks.compare_files(last, other)
        if args.trace:
            metrics = layer_metrics(runner.traces, last, setup_keys, workload.workers)
            metrics["cli.startup_s"] = (startup_seconds(runner), "s")
    except StageFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, problems in results.items():
        runner.attempted += 1
        if problems:
            runner.failed += 1
            print(f"check {name} FAILED: {len(problems)} problem(s)", file=sys.stderr)
            for problem in problems[:5]:
                print(f"  {problem}", file=sys.stderr)

    stage = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    stage["setup_s"] = statistics.median(setup_times)
    print(f"workload {args.workload}: {len(rounds)} round(s), {workload.size} suite "
          f"{FAMILIES} seeds {SUITE_SEEDS}, workers {workload.workers}")
    print(f"runs.jsonl fnv1a64 {checks.fnv1a64_hex((last / 'runs.jsonl').read_bytes())}")
    if args.trace:
        (out / "trace.json").write_text(json.dumps(runner.traces), encoding="utf-8")
        print("traced stages: " + ", ".join(f"{k} {v:.3f}" for k, v in stage.items()),
              file=sys.stderr)
        print(explorer_table(runner.traces[f"{last.name}.run"]["cells"]), file=sys.stderr)
    else:
        metrics = {name: (stage[name], unit) for name, unit in END_TO_END}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))  # the checks evaluate fronts with the program's cost model
    sys.exit(main())
