"""Paired benchmark runs: a parent revision against the working tree.

    python3 scripts/bench_pairs.py --parent REV --workload W --seeds A-B

Both sides run from fresh copies in a temporary directory outside the
repository: the parent from ``git archive REV``, the working tree from a
copy of its tracked and untracked files that .gitignore does not exclude.
Nothing is written to the repository or its .git directory.  For each
seed N in A..B it runs ``python3 bench/run.py --workload W --seed N
--seconds 30 --trace 0`` once in each copy, alternating seed by seed
which side runs first.  For every end-to-end metric that BENCHMARK.json
declares it prints each side's median and quartiles and the number of
pairs the working tree wins (ties count for neither side).  A run that
exits non-zero or prints no result is recorded as a row with
``"correct": false``, null metrics and its error, and the comparison goes
on; only the pairs with both runs count.  The last line of standard
output is one JSON object, {"summary": ..., "runs": [...]}, in the
layout of the ``BENCH_*.json`` workload entries.  The exit code is 1 if
any run was incorrect, failed or had failed operations.  The copies are
removed at exit.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range A-B")
    args = parser.parse_args(argv)
    try:
        lo, hi = (int(v) for v in args.seeds.split("-"))
    except ValueError:
        parser.error("--seeds must look like A-B")
    if not 0 <= lo <= hi:
        parser.error("--seeds needs 0 <= A <= B")
    args.seed_list = list(range(lo, hi + 1))
    return args


def _git(*argv) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *argv], check=True, capture_output=True).stdout


def _export_revision(rev, dest):
    """The files of commit ``rev``, from ``git archive``, under ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def _copy_working_tree(dest):
    """The working tree's tracked and untracked, not ignored, files under ``dest``."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for rel in sorted(set(listed.decode().split("\0")) - {""}):
        src = os.path.join(ROOT, rel)
        if os.path.isfile(src):  # a tracked file deleted in the working tree is left out
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def _run(tree, workload, seed, side, metrics):
    """The row of one benchmark run in ``tree``, from its last-line JSON result.

    A run that exits non-zero or prints no result gives a row with
    ``correct`` false, null metrics and the run's error.
    """
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "30", "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    row = {"seed": seed, "side": side}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        stderr = proc.stderr.strip().splitlines()
        row.update({m: None for m in metrics}, correct=False, failed=None)
        row["error"] = f"exit {proc.returncode}: {stderr[-1] if stderr else 'no result'}"
        return row
    result = json.loads(lines[-1])
    row.update({m: round(result["metrics"][m]["value"], 4) for m in metrics})
    row.update(correct=result["correct"], failed=result["failed"])
    return row


def _quartiles(values):
    if not values:
        return None, None, None
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent, change = os.path.join(tmp, "parent"), os.path.join(tmp, "change")
        _export_revision(args.parent, parent)
        _copy_working_tree(change)
        for i, seed in enumerate(args.seed_list):
            order = [("before", parent), ("after", change)]
            for side, tree in order if i % 2 == 0 else order[::-1]:
                row = _run(tree, args.workload, seed, side, metrics)
                runs.append(row)
                print(json.dumps(row), flush=True)

    summary = {}
    print(f"\n{args.workload}, {len(args.seed_list)} pairs, parent {args.parent}")
    for m, better in metrics.items():
        value = {(r["seed"], r["side"]): r[m] for r in runs}  # None for a failed run
        side = {
            s: [value[seed, s] for seed in args.seed_list if value[seed, s] is not None]
            for s in ("before", "after")
        }
        pairs = [
            (value[seed, "after"], value[seed, "before"]) for seed in args.seed_list
            if value[seed, "after"] is not None and value[seed, "before"] is not None
        ]
        wins = sum((a < b) if better == "lower" else (a > b) for a, b in pairs)
        entry = {}
        for s in ("before", "after"):
            q1, med, q3 = (None if v is None else round(v, 4) for v in _quartiles(side[s]))
            entry[s] = {"q1": q1, "median": med, "q3": q3}
            print(f"  {m:<12} {s:<6} median {med}  quartiles {q1} .. {q3}")
        entry[f"after_{better}_in_pairs"] = f"{wins}/{len(pairs)}"
        print(f"  {m:<12} the working tree is {better} in {wins} of {len(pairs)} pairs")
        summary[m] = entry
    bad = [r for r in runs if not r["correct"] or r["failed"]]
    if bad:
        print(f"  {len(bad)} run(s) incorrect or with failed operations")
    print(json.dumps({"summary": summary, "runs": runs}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
