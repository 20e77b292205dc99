"""Machine-speed calibration of op times.

The machine the benchmark shares changes speed by up to half for tens of
seconds at a time, far longer than any op, so the run-to-run spread of
plain wall times is set by the machine and not by the library.  A
reference kernel of the benchmark's own, pure Python of the same kind as
the library's inner loops (a dict-of-dicts polynomial product, building
and sorting small tuples), is timed between ops, before the first op
that starts ``EVERY_NS`` or more after its last run.  An op's wall time
is scaled by ``REF_NS`` over the mean reference time within
``WINDOW_NS`` of the op: a calibrated time is the op's wall time on a
machine where the reference kernel takes ``REF_NS``.
The reference never calls the library, so a change to the library moves
only the op times.
"""
from __future__ import annotations

import bisect
import random
import time

import workloads as W

# About the kernel's median time on the 2-vCPU machine the benchmark was
# written on (Python 3.11), where it ranged from 3.0 to 4.4 ms.
REF_NS = 3_500_000
EVERY_NS = 100_000_000
WINDOW_NS = 1_000_000_000

_rng = random.Random(5)
_TERMS = {
    tuple(_rng.randint(0, 3) for _ in range(5)): {(_rng.randint(0, 2), _rng.randint(0, 2)): _rng.randint(-3, 3)}
    for _ in range(25)
}


def kernel() -> int:
    out = {}
    for e1, c1 in _TERMS.items():
        for e2, c2 in _TERMS.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            acc = dict(out.get(key, {}))
            for (q1, t1), v1 in c1.items():
                for (q2, t2), v2 in c2.items():
                    qt = (q1 + q2, t1 + t2)
                    acc[qt] = acc.get(qt, 0) + v1 * v2
            out[key] = acc
    n = len(out)
    for c in W.compositions(9):
        n += len(sorted(c, reverse=True))
    for p in W.partitions(14):
        n += len(p)
    return n


class Clock:
    """Reference times, each at the midpoint of its run."""

    def __init__(self):
        self.mid: list[int] = []
        self.ns: list[int] = []

    def sample(self) -> None:
        start = time.perf_counter_ns()
        kernel()
        end = time.perf_counter_ns()
        self.mid.append((start + end) // 2)
        self.ns.append(end - start)

    def due(self) -> bool:
        return not self.mid or time.perf_counter_ns() - self.mid[-1] >= EVERY_NS

    def scale(self, start: int, end: int) -> float:
        """REF_NS over the mean reference time within WINDOW_NS of
        [start, end], or of the nearest sample if none is that close."""
        lo = bisect.bisect_left(self.mid, start - WINDOW_NS)
        hi = bisect.bisect_right(self.mid, end + WINDOW_NS)
        near = self.ns[lo:hi]
        if not near:
            i = bisect.bisect_left(self.mid, start)
            near = [self.ns[min(i, len(self.ns) - 1)]]
        return REF_NS * len(near) / sum(near)
