"""The benchmark still runs against the program, untraced and traced.

bench/ reaches into the program by name (tracing targets, the write_report
path argument, workload helpers), and a missing target there is only a note.
These runs fail when a change to src/ breaks the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def check_run(workload, trace):
    child = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "42",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stdout[-2000:] + child.stderr[-2000:]
    assert json.loads(child.stdout.splitlines()[-1])["correct"] is True
    assert "targets not found in the program" not in child.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_consonant_dense_runs_correctly(trace):
    check_run("consonant-dense", trace)


def test_sparse_many_cases_runs_correctly():
    # method 2b with the expert table and auto-prune; untraced only, since a
    # traced run takes over half a minute
    check_run("sparse-many-cases", 0)
