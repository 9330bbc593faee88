"""The pipeline benchmark's self-test, run as part of the test suite.

bench/tracing.py rebinds names inside dsekit to timing wrappers, so renaming or
deleting one of them breaks the benchmark. Running its self-test here makes
such a change fail the tests instead of the next traced benchmark run.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

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
