"""A fixed calibration job that measures how fast the host runs right now.

The host this benchmark was built on changes speed by tens of percent
over seconds to minutes, with CPU time tracking wall time, so no
absolute timing of a job repeats from one run to the next.  The
calibration block below does the same kinds of work as countmix (an
interpreter loop, small numpy array arithmetic, ``scipy.special``, a
small linear solve) but uses nothing from countmix, so no change to the
program moves it.  run.py times blocks of it interleaved with the job,
and scales the job's times by ``REFERENCE_BLOCK_S / block time``: the
result is the time the job would take on the host running at the speed
at which one block takes ``REFERENCE_BLOCK_S``.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import special  # countmix loads it too, so the peak RSS stays put

# the typical median block time on the machine of README.md's figures
REFERENCE_BLOCK_S = 0.030

_LOOP = 25_000
_ROUNDS = 125
_X = np.random.default_rng(12345).standard_normal((160, 3))
_Y = np.random.default_rng(54321).poisson(3.0, 160).astype(float)
_I = np.eye(3)


def block() -> float:
    """Run one calibration block and return its wall time in seconds."""
    t0 = time.perf_counter()
    s, d = 0, {}
    for i in range(_LOOP):
        s += (i * 7) % 13
        d[i & 255] = s
    b = np.zeros(3)
    for _ in range(_ROUNDS):
        eta = _X @ b
        mu = np.exp(eta)
        ll = np.sum(_Y * eta - mu - special.gammaln(_Y + 1.0))
        H = _X.T @ (_X * mu[:, None])
        b = 0.5 * b + 0.01 * np.linalg.solve(H + _I, _X.T @ (_Y - mu))
        special.logsumexp(np.column_stack([eta, -eta]), axis=1)
    if not np.isfinite(ll):
        raise RuntimeError("calibration block diverged")
    return time.perf_counter() - t0


# calibration time as a share of the job's time
SHARE = 0.1


class HostClock:
    """Calibration blocks spread evenly over the job's run.

    Blocks run whenever the blocks so far add up to less than SHARE of
    the other time since the clock started: after every operation of the
    job (``after_op``) and at checkpoints inside long operations
    (``checkpoint``), so that the blocks sample the host's speed evenly
    in time.  Blocks run inside an operation are taken out of its time.
    """

    def __init__(self):
        self.started = time.perf_counter()
        self.spent_s = 0.0
        self.blocks: list[float] = []
        self._inside_s = 0.0

    def _run_owed(self) -> float:
        spent = 0.0
        while self.spent_s < SHARE * (time.perf_counter() - self.started - self.spent_s):
            self.blocks.append(block())
            self.spent_s += self.blocks[-1]
            spent += self.blocks[-1]
        return spent

    def checkpoint(self) -> None:
        self._inside_s += self._run_owed()

    def after_op(self, op_s: float) -> float:
        """The operation's own time, given its wall time ``op_s``."""
        own = op_s - self._inside_s
        self._inside_s = 0.0
        self._run_owed()
        return own
