"""The benchmark's seconds-long self-test runs against the current program.

``perfbench/tracing.py`` finds the functions it times by module attribute
name; a renamed or removed target is reported as absent (and its metric as
0) instead of failing.  Running the smoke mode here turns such a rename into
a test failure.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_runs_clean():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:]
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert "absent from the program" not in done.stdout
