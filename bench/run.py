"""countmix benchmark: one workload per process, serial, from source.

    python3 bench/run.py --workload em_mixed --seed 1 --seconds 30 --trace 0

Runs one untimed warm-up repetition of the workload's job, then timed
repetitions until ``--seconds`` have passed, with blocks of the
calibration job in hostspeed.py run between operations.  The job's time
is the sum over its operations of each operation's median time, scaled
to the reference host speed by the run's median calibration block.  With ``--trace 1`` it then runs the workload's first TRACE_REPS
repetitions again with every public countmix function wrapped (see
tracer.py) and reports per-layer metrics instead.  Repetitions on the
same inputs must give identical outputs, and the first outputs for each
input are checked against reference.py.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import os
import sys
import time


def _process_age_s() -> float:
    """Seconds since this process started, from the kernel's start time."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T_SCRIPT


_T_SCRIPT = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "countmix", "__init__.py")):
    sys.exit(f"bench: no countmix sources under {SRC}")
sys.path.insert(0, SRC)

import countmix.cli  # noqa: E402,F401  (imports the whole package)

SETUP_S = _process_age_s()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import warnings  # noqa: E402

from hostspeed import REFERENCE_BLOCK_S, HostClock, block  # noqa: E402
from tracer import Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


@contextlib.contextmanager
def _checkpoints(bindings, checkpoint):
    """Call ``checkpoint`` after every call through the named bindings."""
    saved = []
    try:
        for module_name, name in bindings:
            module = sys.modules[module_name]
            original = getattr(module, name)

            def wrapped(*args, _original=original, **kwargs):
                result = _original(*args, **kwargs)
                checkpoint()
                return result

            saved.append((module, name, original))
            setattr(module, name, wrapped)
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def main(argv=None) -> int:
    args = _parse(argv)
    # countmix's init fallback prints RuntimeWarnings; no output depends on the filter
    warnings.simplefilter("ignore", RuntimeWarning)
    out_dir = os.path.join(ROOT, "bench", "out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir)

    first = {}  # key -> (digest, outputs) of the first repetition with that key
    mismatches = 0

    def repetition(k, after_op=lambda op_s: op_s):  # untimed repetitions skip calibration
        nonlocal mismatches
        outputs, rep_failed, op_times = workload.run(k, after_op)
        digest = workload.digest(outputs)
        seen = first.setdefault(workload.key(k), (digest, outputs))
        mismatches += digest != seen[0]
        return op_times, rep_failed

    _, failed = repetition(0)  # warm-up
    block()  # the calibration's own warm-up
    rounds = 1
    slots = []  # slots[j]: the times of operation j of the job, one per repetition
    clock = HostClock()
    with _checkpoints(workload.CHECKPOINTS, clock.checkpoint):
        while time.perf_counter() - clock.started < args.seconds:
            op_times, rep_failed = repetition(rounds, clock.after_op)
            slots = slots or [[] for _ in op_times]
            for j, t in enumerate(op_times):
                slots[j].append(t)
            rounds += 1
            failed += rep_failed
    # the job's time: each operation at its median over the repetitions
    host_wall_s = sum(statistics.median(ts) for ts in slots)
    block_s = statistics.median(clock.blocks)
    wall_s = host_wall_s * REFERENCE_BLOCK_S / block_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced = []
        try:
            for k in range(workload.TRACE_REPS):
                op_times, rep_failed = repetition(k)
                traced.append(sum(op_times))
                rounds += 1
                failed += rep_failed
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(out_dir, "trace.json"))
        metrics = per_layer_metrics(tracer, statistics.median(traced), host_wall_s, block_s)
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": SETUP_S, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    problems = workload.check({key: outputs for key, (_, outputs) in first.items()})
    if mismatches:
        problems.append(f"{mismatches} repetition(s) gave outputs that differ from the first")
    for line in problems:
        print(f"bench: {line}", file=sys.stderr)
    print(
        f"bench: {args.workload} seed {args.seed}: {rounds - 1} timed repetitions, "
        f"job {host_wall_s:.4f} s unscaled, {len(clock.blocks)} calibration blocks, "
        f"median {block_s:.5f} s; wall_s {wall_s:.4f} s, setup_s {SETUP_S:.4f} s",
        file=sys.stderr,
    )
    result = {
        "correct": not problems,
        "attempted": rounds * workload.operations(),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
