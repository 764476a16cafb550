"""A fixed calibration kernel that tracks how fast the host runs right now.

The host this benchmark runs on changes speed by up to about 2x within
tens of seconds, with no steal time and with process time tracking wall
time, so plain host time of two runs of the same code can differ by more
than any useful bound. The kernel below does the same kinds of work as one
simulated task (numpy calls on a few hundred rows, a z-score and argmin,
heap pushes and pops, attribute updates on slotted objects), and its code
never changes with the simulator. Timed right before and right after each
simulation run, it gives the host's speed around that run; `run.py` scales
every host time it reports to a host on which one unit takes
REFERENCE_UNIT_S. The garbage collector is off while the kernel runs, so
the objects a simulation leaves alive do not change the kernel's time.
"""

from __future__ import annotations

import gc
import heapq
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Time of one unit on the reference host; this 2-vCPU machine took
# 49-80 us per unit as its speed drifted.
REFERENCE_UNIT_S = 50e-6
# Units run before and again after a simulation run, per host second the
# last run took (2-3% of its time each side), and never fewer than MIN_UNITS.
UNITS_PER_S = 400
MIN_UNITS = 30
WARMUP_UNITS = 200

ROWS = 342  # the VMs of a 300-mist constellation


@dataclass(slots=True)
class _Item:
    id: int
    t: float = 0.0
    state: int = 0
    vm: int = -1


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._pos = rng.normal(size=(ROWS, 3)) * 7e6
        self._diff = np.empty((ROWS, 3))
        self._dist = np.empty(ROWS)
        self._host = np.arange(ROWS)[::-1].copy()
        self._dist_vm = np.empty(ROWS)
        self._queue = np.zeros(ROWS)
        self._items = [_Item(i) for i in range(256)]
        self._heap: list[tuple] = []
        self._seq = 0
        self.run(WARMUP_UNITS)

    def _unit(self) -> None:
        pos, diff, dist = self._pos, self._diff, self._dist
        np.subtract(pos, pos[self._seq % ROWS], out=diff)
        np.multiply(diff, diff, out=diff)
        np.sum(diff, axis=1, out=dist)
        np.sqrt(dist, out=dist)
        np.take(dist, self._host, out=self._dist_vm)
        feasible = self._dist_vm <= 3.2e7
        z = (self._dist_vm - self._dist_vm.mean()) / (self._dist_vm.std() + 1.0)
        best = int(np.argmin(np.where(feasible, z + self._queue, np.inf)))
        self._queue[best] += 1.0
        if self._seq % 64 == 0:
            self._queue[:] = 0.0
        heap = self._heap
        for _ in range(8):
            self._seq += 1
            item = self._items[(self._seq * 7) & 255]
            item.t += math.sqrt(self._seq) * 1e-3
            item.state = (item.state + 1) % 5
            item.vm = best
            heapq.heappush(heap, (item.t, self._seq, item.state, item.id))
        for _ in range(8):
            heapq.heappop(heap)

    def run(self, units: int) -> float:
        """Run `units` units; return host seconds per unit."""
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        for _ in range(units):
            self._unit()
        elapsed = perf_counter() - start
        if collecting:
            gc.enable()
        return elapsed / units

    def speed(self, run_s: float) -> float:
        """Host speed relative to the reference, sampled next to a run of run_s seconds."""
        return REFERENCE_UNIT_S / self.run(max(MIN_UNITS, int(run_s * UNITS_PER_S)))
