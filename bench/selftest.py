"""Fast self-test of the benchmark: checks, traced run, and rejection of bad files.

    python3 bench/selftest.py

Runs the traced pipeline on a tiny suite (smooth and clustered, seeds 0 and 1,
small spaces, budget 150: two spaces fit the budget, two are searched), then
requires that every output check passes, that every per-layer metric named
in BENCHMARK.json is produced, and that each check rejects a copy of the
outputs with one deliberate fault. Exits 0 when all of that holds. Takes
about ten seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import time
from pathlib import Path

import checks
import run

BUDGET = 150
SEED = 0


def _edit_jsonl(path: Path, index: int, edit) -> None:
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    edit(rows[index])
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def _edit_text(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    if old not in text:
        raise AssertionError(f"{old!r} not found in {path}")
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def _dominated_point(row: dict) -> None:
    p = row["front"][0]
    row["front"].append({"knobs": p["knobs"], "area": p["area"] * 2, "latency": p["latency"] * 2})


def _row_index(directory: Path, searched: bool) -> int:
    """Index of a runs.jsonl row on a space larger than the budget (or one that fits)."""
    sizes = {}
    for line in (directory / "instances.jsonl").read_text().splitlines():
        record = json.loads(line)
        sizes[record["id"]] = math.prod(k["cardinality"] for k in record["schema"])
    rows = [json.loads(line) for line in (directory / "runs.jsonl").read_text().splitlines()]
    return next(i for i, r in enumerate(rows) if (sizes[r["benchmark_id"]] > BUDGET) == searched)


def _bump_curve(directory: Path) -> None:
    path = directory / "sel" / "rl_reward.csv"
    lines = path.read_text().splitlines()
    lines[5] = lines[5].split(",")[0] + ",nan"
    path.write_text("\n".join(lines) + "\n")


def _corruptions(directory: Path) -> dict:
    searched, small = _row_index(directory, True), _row_index(directory, False)
    manifest = json.loads((directory / "manifest.json").read_text())
    return {
        "fronts_nondominated": lambda d: _edit_jsonl(d / "runs.jsonl", searched, _dominated_point),
        "fronts_in_schema": lambda d: _edit_jsonl(
            d / "runs.jsonl", searched, lambda r: r["front"][0]["knobs"].__setitem__(0, 99)),
        "fronts_objectives": lambda d: _edit_jsonl(
            d / "runs.jsonl", searched,
            lambda r: r["front"][-1].__setitem__("latency", r["front"][-1]["latency"] * 0.999)),
        "adrs_reference": lambda d: _edit_jsonl(
            d / "runs.jsonl", searched, lambda r: r.__setitem__("adrs", r["adrs"] + 1e-6)),
        "evaluations_in_budget": lambda d: _edit_jsonl(
            d / "runs.jsonl", searched, lambda r: r.__setitem__("evaluations_used", BUDGET + 1)),
        "small_spaces_exhaustive": lambda d: _edit_jsonl(
            d / "runs.jsonl", small,
            lambda r: r.__setitem__("evaluations_used", r["evaluations_used"] - 1)),
        "labels_argmin": lambda d: _edit_jsonl(
            d / "labels.jsonl", 0, lambda r: r.__setitem__("label_code", (r["label_code"] + 1) % 10)),
        "hashes": lambda d: _edit_text(
            d / "manifest.json", manifest["hashes"]["runs.jsonl"], "0" * 16),
        "training_curves": _bump_curve,
        "report_regret": lambda d: _edit_jsonl(
            d / "inf" / "report.jsonl", 0, lambda r: r.__setitem__("regret", r["regret"] + 0.5)),
        "accuracy_counts": lambda d: _edit_text(d / "csv" / "accuracy.csv", "overall,", "overall,9"),
        "determinism": lambda d: _edit_text(d / "runs.jsonl", '"adrs":', '"adrs": '),
    }


def main() -> int:
    out = run.OUT / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runner = run.Runner(out, trace=True, deadline=time.monotonic() + run.RUN_DEADLINE_S)
    setup = out / "setup0"
    runner.stage("setup0.synth", ["synth", "--families", "smooth,clustered", "--seeds", "0,1",
                                  "--size", "small", "--out", str(setup)])
    good = run.fresh_copy(setup / "instances.jsonl", out / "round0")
    run.pipeline(runner, "round0", good, workers=2, seed=SEED, repeats=1, budget=BUDGET)

    failures = []
    for name, problems in checks.run_checks(good, BUDGET).items():
        if problems:
            failures.append(f"check {name} rejects the program's own output: {problems[:3]}")

    metrics = run.layer_metrics(runner.traces, good, ["setup0.synth"], workers=2)
    metrics["cli.startup_s"] = (run.startup_seconds(runner), "s")
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer"]]
    if sorted(declared) != sorted(metrics):
        failures.append(f"per-layer names differ: {sorted(set(declared) ^ set(metrics))}")
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            failures.append(f"per-layer metric {name} is {value}")

    for name, corrupt in _corruptions(good).items():
        bad = out / f"bad-{name}"
        shutil.copytree(good, bad)
        corrupt(bad)
        if name == "determinism":
            problems = checks.compare_files(good, bad)
        else:
            problems = checks.run_checks(bad, BUDGET)[name]
        if not problems:
            failures.append(f"check {name} accepted a corrupted copy")
        print(f"{name}: {'rejects' if problems else 'ACCEPTS'} the corrupted copy"
              + (f" ({problems[0]})" if problems else ""))

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"selftest: {'FAILED' if failures else 'ok'} ({len(metrics)} per-layer metrics)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    sys.exit(main())
