"""A smoke test of the benchmark harness: every workload runs, briefly, and
checks out correct with no failed operation.

Each run uses a copy of ``bench/`` and ``src/`` in a temporary directory,
so its outputs stay out of the repository.  ``bench/run.py`` wraps named
countmix bindings (such as ``countmix.ga.em_fit``) as checkpoints and, with
``--trace 1``, every public function, so a lost binding fails here.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    tree = tmp_path_factory.mktemp("bench-smoke")
    ignore = shutil.ignore_patterns("__pycache__", "out")
    for part in ("bench", "src"):
        shutil.copytree(os.path.join(ROOT, part), tree / part, ignore=ignore)
    return tree


@pytest.mark.parametrize(
    "workload, trace",
    [("em_mixed", 0), ("sweep_poisson", 0), ("ga_study", 0), ("ga_study", 1)],
)
def test_workload_runs_correct(bench_copy, workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=bench_copy, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0
    wanted = "ga.evolve_self_s" if trace else "wall_s"
    assert result["metrics"][wanted]["value"] > 0.0
