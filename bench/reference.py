"""Reference speed: rescales measured times to a fixed speed of the machine.

On a shared virtual machine the throughput of a core drifts: the same
operation takes 7 ms one moment and 11 ms a tenth of a second later, and a
whole run can be 30 % slower than the next, while the process keeps its core
all along (thread CPU time tracks wall time).  A median over one run cannot
remove drift that lasts longer than the run.

So the benchmark times a fixed reference kernel, which does not touch polarsh,
right before every timed operation.  A sample is rescaled by
``REFERENCE_S / m``, where ``m`` is the median reference time around it (within
``WINDOW_S`` of the operation, and never fewer than ``MIN_NEAR`` samples).  The
rescaled time is what the operation would take on a machine where the kernel
takes ``REFERENCE_S``.  A change to polarsh moves the operation's time but not
the kernel's, so it shows in full.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.010     # the kernel's nominal time: about its median on a 2-core Xeon VM
WINDOW_S = 2.5
MIN_NEAR = 16

_rng = np.random.default_rng(12345)
_X = _rng.standard_normal(4096)
_A = _rng.standard_normal((48, 48)) / 8.0
_S = _rng.standard_normal(64)
_M1 = _rng.standard_normal(1 << 20)       # 8 MB each: larger than a core's caches
_M2 = _rng.standard_normal(1 << 20)
_M3 = np.empty(1 << 20)
_IDX = _rng.permutation(1 << 18)


def kernel():
    """About 10 ms of the work polarsh does: an interpreted loop, elementwise
    transcendental functions, small matrix products, many small-array calls,
    and passes and a gather over arrays larger than the caches."""
    acc = 0.0
    np.multiply(_M1, _M2, out=_M3)
    np.add(_M3, _M1, out=_M3)
    np.add(_M3, _M2, out=_M3)
    acc += float(_M1[:1 << 18].take(_IDX).sum())
    for i in range(10000):
        acc += (i % 7) * 0.5
    for _ in range(20):
        acc += float((np.cos(_X) * np.sin(_X) + np.sqrt(np.abs(_X))).sum())
    b = _A
    for _ in range(50):
        b = np.tanh(_A @ b)
    for _ in range(500):
        acc += float((_S * _S).sum())
    return acc + float(b.sum())


class SpeedLog:
    """Reference-kernel samples, each with the midpoint of its timing."""

    def __init__(self):
        self.at = []
        self.seconds = []

    def sample(self, n=1):
        for _ in range(n):
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.at.append(0.5 * (t0 + t1))
            self.seconds.append(t1 - t0)

    def factor(self, t0, t1):
        """``REFERENCE_S`` over the median reference time near ``[t0, t1]``;
        1.0 before any sample was taken."""
        if not self.seconds:
            return 1.0
        at = np.asarray(self.at)
        gap = np.maximum(0.0, np.maximum(t0 - at, at - t1))
        near = gap <= WINDOW_S
        if near.sum() < MIN_NEAR:
            near = np.argsort(gap, kind="stable")[:MIN_NEAR]
        return REFERENCE_S / float(np.median(np.asarray(self.seconds)[near]))
