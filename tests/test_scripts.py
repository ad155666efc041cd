"""The experiment scripts run end to end against the current library API."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script, args",
    [
        ("simulation_study.py", ["--seed", "3", "--gmax", "2", "--restarts", "1"]),
        ("subset_search_demo.py", ["--runs", "5"]),
    ],
)
def test_script_exits_cleanly(script, args):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_bench_pairs_records_a_failed_run_and_goes_on(tmp_path, monkeypatch, capsys):
    # the parent's bench/run.py prints a result; the working tree's exits 1
    import importlib.util
    import json

    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py")
    )
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    result = {
        "metrics": {m: {"value": 1.0} for m in ("wall_s", "setup_s", "peak_rss_mb")},
        "correct": True,
        "failed": 0,
    }
    scripts = {
        "parent": f"print({json.dumps(json.dumps(result))})",
        "change": "import sys\nsys.exit('bench broke')",
    }

    def tree(name):
        def write(*args):
            dest = args[-1]
            os.makedirs(os.path.join(dest, "bench"))
            with open(os.path.join(dest, "bench", "run.py"), "w") as fh:
                fh.write(scripts[name])
        return write

    monkeypatch.setattr(bench_pairs, "_export_revision", tree("parent"))
    monkeypatch.setattr(bench_pairs, "_copy_working_tree", tree("change"))
    assert bench_pairs.main(["--parent", "HEAD", "--workload", "em_mixed", "--seeds", "1-2"]) == 1
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    failed = [r for r in out["runs"] if r["side"] == "after"]
    assert [r["seed"] for r in failed] == [1, 2]
    for row in failed:
        assert row["correct"] is False
        assert row["wall_s"] is None
        assert row["error"] == "exit 1: bench broke"
    assert all(r["correct"] for r in out["runs"] if r["side"] == "before")
    wall = out["summary"]["wall_s"]
    assert wall["before"]["median"] == 1.0
    assert wall["after"]["median"] is None
    assert wall["after_lower_in_pairs"] == "0/0"
