"""The pipeline benchmark's self-test, run as part of the test suite.

bench/tracing.py rebinds names inside dsekit to timing wrappers, so renaming or
deleting one of them breaks the benchmark. Running its self-test here makes
such a change fail the tests instead of the next traced benchmark run. The
self-test runs at two workers, so the traced one-worker `run` has a test of
its own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from dsekit.cli import main
from dsekit.explorers import ExplorerId

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


def test_traced_one_worker_run_records_each_cell_build_and_scoring_once(tmp_path):
    suite = tmp_path / "suite"
    synth = ["synth", "--families", "smooth,clustered", "--seeds", "0,1", "--size", "small"]
    assert main(synth + ["--out", str(suite)]) == 0
    ids = [json.loads(line)["id"] for line in (suite / "instances.jsonl").read_text().splitlines()]
    trace_path = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracing.py"), str(trace_path),
         "run", "--dataset", str(suite), "--budget", "60", "--workers", "1"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    trace = json.loads(trace_path.read_text())
    cells = sorted((c["benchmark_id"], c["explorer"]) for c in trace["cells"])
    assert cells == sorted((i, e.name.lower()) for i in ids for e in ExplorerId)
    assert trace["spans"]["surrogate.build"][2] == len(ids)
    assert trace["spans"]["scoring"][2] == len(ids)
