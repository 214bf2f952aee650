"""Machine-speed calibration for the end-to-end times.

On a shared host, the speed of one core drifts: for tens of seconds to
minutes, every process on it can run 1.5 times slower. That moves a
20-second run's median op time by more than any bound worth setting. So a
fixed calibration kernel is timed before the first op and after every op,
and each op's time is multiplied by CALIBRATION_REF_S over the mean kernel
time sampled within WINDOW_S of the op. A slowdown of the host moves the
kernel and the op alike and leaves the rescaled time in place. A slower
program moves only the op. Averaging over a window rather than taking the
samples next to the op keeps one noisy kernel sample from inflating one op,
which would set the tail.

The kernel uses no edgesim code, so no change to the program can move it.
"""

from __future__ import annotations

import time

# The kernel's best time on the reference machine (2-vCPU Xeon VM, 2.1 GHz,
# Python 3.11) in a quiet phase, so rescaled times read as seconds there.
CALIBRATION_REF_S = 0.0022
WINDOW_S = 1.0


class _Slot:
    __slots__ = ("counts", "cost")

    def __init__(self):
        self.counts = [0] * 8
        self.cost = 0.0

    def bump(self, n, k):
        self.counts[n] += k
        self.cost += k * 0.5


def calibration_kernel():
    """Fixed pure-Python work with the simulator's mix of operations:
    tuple-keyed dict updates, list indexing, float arithmetic, builtin calls,
    small-object allocation, sorting and method calls on slotted objects."""
    counts = {}
    cells = [0.0] * 64
    acc = 0.0
    for i in range(3000):
        key = (i & 7, i & 3)
        counts[key] = counts.get(key, 0) + 1
        j = (i * 7) & 63
        cells[j] += i * 0.5
        acc += min(cells[j], acc + 1.0)
    table = {}
    for i in range(1500):
        table[(i % 97, i % 13)] = (i, float(i))
    ordered = sorted(table.items(), key=lambda kv: (kv[1][1], kv[0]))
    slots = [_Slot() for _ in range(32)]
    for i in range(2500):
        slots[i & 31].bump(i & 7, 1)
    return acc + len(ordered) + sum(s.cost for s in slots)


def calibration_s():
    """Best of three kernel times: the machine's current speed."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        calibration_kernel()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedLog:
    """Kernel times with the moment each was taken."""

    def __init__(self):
        self.samples = []

    def sample(self):
        self.samples.append((time.perf_counter(), calibration_s()))

    def rescale(self, seconds, start, end):
        """`seconds`, measured from `start` to `end`, at the reference speed."""
        near = [k for t, k in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return seconds * CALIBRATION_REF_S * len(near) / sum(near)
