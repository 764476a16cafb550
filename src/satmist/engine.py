"""Event-driven simulation of task generation, placement, and execution.

Events are ordered by (time, seq), so simultaneous events resolve by seq
and a run is a pure function of its configuration. Every event changes
some task's state. Of n tasks, task i's arrival has seq i and is read in
place from the task list, which is in creation order; only in-flight
events (uploads, executions, downloads) enter a heap, with seqs n, n+1,
... in push order. The run takes the earlier of the next arrival and the
heap's first event, the arrival on a time tie, as its seq is the lower.
Satellite i hosts VM i, a FIFO clock whose queue length lives only in
the candidate view that placement reads. Mist satellites generate tasks
from Poisson streams seeded by (seed, origin) alone, so the arrivals
drawn at one mist count hold those of every smaller count (unless
task.rate_is_global splits the rate by the count); sweep.run_sweep draws
them once per seed and passes them to each run. What a constellation
fixes, its orbits, nodes and layer codes, is a Geometry; run_sweep
builds one per constellation and shares it among that constellation's
runs, each of which keeps its own VMs and placement state. Each task is
placed once, at creation time, over a snapshot of every VM in the
constellation. Its distance column is computed only if the policy reads
it. Where feasibility is checked per task on the built-in orbits, nearly
every policy reads the arrival's feasible set instead, computed with
those of the next arrivals in one block of columns, and run_sweep keeps
the blocks in a SetStore that the runs of one constellation and one draw
of arrivals share; weight_greedy computes its distance and energy terms
over each block. In trade_off runs with static feasibility the far VMs'
compute terms are kept as floats, updated at each queue change (see
orchestrate.trade_off_term_hook), and round_robin's picks are a cycle
over the feasible VMs (orchestrate.round_robin_turns). On Walker shells
a Geometry also holds a PlaneQuery over its first layer, which finds the
VMs near a busy origin for weight_greedy. Transfers charge radio energy
on both ends; results are censored, not extrapolated, at the simulation
horizon.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import partial
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from . import metrics as metrics_mod
from .config import SimulationConfig, validate
from .errors import ConfigurationError
from .infra import Vm, build_nodes
from .layers import LAYER_CODE, LAYER_ORDER, Layer
from .netenergy import rx_energy, tx_energy
from .orbital import (ConstellationSpec, OrbitPositions, Phasing, PlaneQuery, build_constellation,
                      constellation_key)
from .orchestrate import (DEFAULT_TRADEOFF_LAYER_WEIGHTS, CandidateView, FarSet, PlacementError,
                          PolicyId, far_term_hook, feasible_terms, reach_row, round_robin_turns,
                          select, trade_off_term_hook)


class TaskState(str, Enum):
    CREATED = "created"
    UPLOADING = "uploading"
    QUEUED = "queued"
    EXECUTING = "executing"
    DOWNLOADING = "downloading"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


class FailureCause(str, Enum):
    NONE = "none"
    DEADLINE = "deadline"
    MOBILITY = "mobility"
    NO_DESTINATION = "no_destination"


class EventKind(IntEnum):
    TASK_GENERATED = 0
    UPLOAD_COMPLETE = 1
    EXECUTION_COMPLETE = 2
    DOWNLOAD_COMPLETE = 3
    SIM_END = 4


# Heap entries, in-flight events only, carry the kind as a plain int; Simulation.run
# dispatches on it.
_UPLOAD_COMPLETE = EventKind.UPLOAD_COMPLETE.value
_EXECUTION_COMPLETE = EventKind.EXECUTION_COMPLETE.value
_DOWNLOAD_COMPLETE = EventKind.DOWNLOAD_COMPLETE.value


@dataclass(slots=True)
class Task:
    id: int
    origin_satellite: int
    created_at: float
    length_mi: float
    input_bits: float
    output_bits: float
    max_latency_s: float
    state: TaskState = TaskState.CREATED
    assigned_vm: int = -1
    service_start_s: float = math.nan
    finished_at: float = math.nan
    failure_cause: FailureCause = FailureCause.NONE

    @property
    def e2e_s(self) -> float:
        return self.finished_at - self.created_at


@dataclass(frozen=True)
class Event:
    time: float
    seq: int
    kind: EventKind
    task_id: int


def generate_tasks(config: SimulationConfig, rng: random.Random) -> list[float]:
    """Poisson arrival times of one mist satellite over [0, duration), drawn from `rng`.

    With rate_is_global set, the profile rate is split evenly across mist
    satellites.
    """
    profile = config.task
    rate_per_s = profile.rate_per_min / 60.0
    if profile.rate_is_global and config.constellation.mist > 0:
        rate_per_s /= config.constellation.mist
    times: list[float] = []
    if rate_per_s <= 0:
        return times
    t = rng.expovariate(rate_per_s)
    while t < config.duration_s:
        times.append(t)
        t += rng.expovariate(rate_per_s)
    return times


def draw_arrivals(config: SimulationConfig) -> tuple[np.ndarray, np.ndarray]:
    """(created_at, origin) arrays of every arrival at config's mist satellites,
    sorted by (created_at, origin).

    Mist satellite i is satellite i, and its stream is generate_tasks' from
    an RNG seeded by (seed, i) alone, so the arrivals of a smaller mist
    count are those whose origin is below it, still in order, unless
    rate_is_global ties the rate to the count.
    """
    times: list[float] = []
    origins: list[int] = []
    for origin in range(config.constellation.mist):
        stream = generate_tasks(config, random.Random(f"{config.seed}:arrivals:{origin}"))
        times += stream
        origins += [origin] * len(stream)
    created_at, origin = np.array(times, dtype=np.float64), np.array(origins, dtype=np.int64)
    order = np.lexsort((origin, created_at))
    return created_at[order], origin[order]


def _arrival_tasks(config: SimulationConfig, arrivals) -> list[Task]:
    """Fresh tasks, ids 0..n-1 in order, for the `arrivals` whose origin is one of
    config's mist satellites."""
    created_at, origins = arrivals
    mist = config.constellation.mist
    keep = origins < mist
    n, p = int(np.count_nonzero(keep)), config.task
    # one int object per origin, shared by its tasks: an int per task would add
    # about 150 KB to a 5,000-task run's peak memory
    origin = list(range(mist)).__getitem__
    return list(map(Task, range(n), map(origin, origins[keep].tolist()), created_at[keep].tolist(),
                    repeat(p.length_mi, n), repeat(p.input_bits, n), repeat(p.output_bits, n),
                    repeat(p.max_latency_s, n)))


# values in a block of far rows: arrivals x far satellites, sized so the
# block's few working arrays stay in a core's cache
_BLOCK_VALUES = 4096
# values in a block of whole columns: arrivals x satellites. Its working
# arrays, 6 to 8 values per block value (at most 0.5 MB), stay within a
# 2 MB cache; at 1,042 satellites 7 columns a block cost 20-25% less per
# column than 3, at 342 about 10% less for 23 than 11
_COLUMN_BLOCK_VALUES = 8192
# bytes a SetStore keeps, at most: a feasible entry takes 10 B (a uint16 VM
# index and a float64 distance) at 257 to 65,536 satellites, 9 B (uint8) at
# 256 or fewer, and an arrival 8 B, so about 400,000 entries; a sparse_links
# sweep key holds about 304,000 over its 20 s
_SET_STORE_BYTES = 4 << 20


class SetStore:
    """Each arrival's feasible set, kept for the runs of one sweep key: one
    constellation and one draw of arrivals, so one reach row and one task
    list, whatever the policy.

    Block b holds arrivals bB to bB+B-1, B being _Distances' whole-column
    block rows, as (bounds, idx, d): arrival bB+i's entries are bounds[i]
    to bounds[i+1], idx holds their VMs, in index order and the smallest
    unsigned dtype that holds n-1, and d their float64 distances. The
    first run that reads a block fills it and keeps it here if the store
    then holds at most _SET_STORE_BYTES; later runs slice it. Past that
    they fill their own blocks, so what is kept stays bounded however long
    the run. The arrays are read-only, and the store holds no block
    rows, no per-run terms and no reference to a run. `bind` also keeps,
    outside that cap, what it checks runs against: the constellation_key,
    the reach row and each arrival's time and origin, 16 B an arrival.
    """

    def __init__(self):
        self.blocks: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.nbytes = 0
        self._bound = None  # the constellation, reach row and arrivals the blocks are for

    def bind(self, key: tuple, reach: np.ndarray, created_at: np.ndarray,
             origins: np.ndarray) -> None:
        """Ties the store to its first run's constellation_key, reach row and
        arrivals' (created_at, origin) arrays; raises ConfigurationError for a
        run with others."""
        if self._bound is None:
            self._bound = key, reach.copy(), created_at, origins
            self._dtype = np.min_scalar_type(len(reach) - 1)
        elif not (key == self._bound[0] and all(
                np.array_equal(a, b) for a, b in zip(self._bound[1:], (reach, created_at, origins)))):
            raise ConfigurationError(
                "set store was filled for another constellation, reach row or task list")

    def keep(self, b: int, bounds: np.ndarray, idx: np.ndarray, d: np.ndarray) -> None:
        """Keeps block b, its VM indices in the store's dtype, if it fits."""
        size = bounds.nbytes + idx.size * self._dtype.itemsize + d.nbytes
        if self.nbytes + size <= _SET_STORE_BYTES:
            idx = idx.astype(self._dtype)
            for a in (bounds, idx, d):
                a.flags.writeable = False
            self.nbytes += size
            self.blocks[b] = bounds, idx, d


class _Distances:
    """Origin-to-VM distances at one arrival, from a position source; the
    placement view's `source`, and the only owner of its distances.

    VM i is satellite i, so VM indices are satellite indices here.

    `at(k)` sets the instant that `column`, `far_row`, `far_terms`,
    `feasible`, `feasible_terms` and `to_vm` measure from: arrival k's
    origin at its creation time. `column` is the distance to every
    satellite, computed on its first read at each instant, by one
    positions_all call, into a buffer the next instant's column
    overwrites. `pair` is one distance at any time, from the two
    satellites' orbit rows in Python floats on the C library's cos and sin,
    which numpy's float64 cos and sin are. Every read equals the others bit
    for bit where they overlap.

    With `reach` set (see orchestrate.reach_row), for runs that check
    feasibility per task on an OrbitPositions, nearly every placement
    reads its feasible set, and `feasible` slices it from a block of them
    that covers arrivals bB to bB+B-1, b being k // B: the columns of those
    arrivals, by OrbitPositions.positions_over in one numpy pass, compared
    with `reach`, leave every row's feasible VMs and their distances,
    ragged, row after row. With a SetStore `shared` the block is read from
    it when a run of the same sweep key has kept it there, and else filled
    and offered to it; the first reader pays the compact copy the store
    keeps. With the hook `feasible_terms` (weight_greedy runs) each run
    computes weight_greedy's distance and energy terms over a block's
    entries as it loads the block, which `feasible_terms` slices. `to_vm`
    reads the pick's distance from the block's row where this run filled
    the block, else from its feasible slice, where every pick lies, so no
    placement on this path reads a column.

    Otherwise, with a far set, `far_row` is the distance to the far set's
    satellites, far.start on, from arrival k's row of a block that covers
    arrivals k to k+B-1 of `tasks`, computed on the first read outside the
    current block: the far satellites' coordinates by `far_positions`, an
    OrbitPositions over them alone whose positions_over takes one cos and
    sin per distinct angle and arrival (7 angles for the 42 default far
    satellites), the origins' by positions_at. A 97-arrival block took
    about 109 µs against 157 µs with the far satellites through
    positions_at (best of 7 timeit repeats, 2-vCPU host). Its rows are
    valid until the next fill. With the hook `terms`, which
    orchestrate.far_term_hook makes, that pass orders each row's enabled
    columns nearest first, and `far_terms` reads arrival k's row and order.
    With a PlaneQuery `near` over the first block, `near(r)` gives the
    first-block satellites it finds within r of the origin and their
    distances, computed as `pair` computes them, and `near_radius` is the
    radius weight_greedy's busy-origin path asks for first (None without
    a query, which leaves busy origins on the full path). `to_vm` reads
    what this placement computed, else `pair`. Holds no reference to the
    Simulation, so its view keeps no finished run alive.
    """

    def __init__(self, positions, tasks: Sequence[Task], far: FarSet | None = None,
                 terms: Callable | None = None, *, reach: np.ndarray | None = None,
                 feasible_terms: Callable | None = None, shared: SetStore | None = None,
                 near: PlaneQuery | None = None, far_positions: OrbitPositions | None = None):
        n = len(positions)
        self._positions = positions
        self._tasks = tasks
        self._column = np.empty(n)
        self._diff = np.empty((3, n))
        self._acc = np.empty(n)
        self._orbits = positions._by_satellite if isinstance(positions, OrbitPositions) else None
        self._whole = whole = reach is not None
        self._start = n if far is None else far.start  # the far block's satellites, start on
        self._far_positions = far_positions
        values, width = (_COLUMN_BLOCK_VALUES, n) if whole else (_BLOCK_VALUES, n - self._start)
        self._block_rows = max(1, values // max(1, width))
        self._rows = np.empty((self._block_rows, n - self._start))  # the far block's buffer
        self._block, self._first = self._rows[:0], 0
        self._work = None  # the whole block's buffers, made at its first fill
        self._terms_of, self._terms = terms, None
        self._reach, self._feasible_terms_of, self._shared = reach, feasible_terms, shared
        self._sets, self._set_block = None, -1  # the loaded block of feasible sets, and its b
        self._near = near
        # two slots each way in the origin's plane: on full_walker (seed 1, 15 s) one
        # spacing left 41 of 1,123 busy origins above the cap and 65% asking twice,
        # two left 1, none asking twice, at 5.8 candidates
        self.near_radius = None if near is None else 2.0 * near.spacing

    def at(self, k: int) -> None:
        task = self._tasks[k]
        self._k, self.origin, self.now = k, task.origin_satellite, task.created_at
        self._filled, self._tail = False, None

    def column(self) -> np.ndarray:
        """Distance from satellite `origin` to every VM, computed once per instant
        into a buffer the next instant's column overwrites."""
        if not self._filled:
            pos = self._positions.positions_all(self.now).T
            _from_point(pos[:, self.origin].tolist(), pos, self._diff, self._acc, self._column)
            self._filled = True
        return self._column

    def _block_index(self) -> int:
        """This arrival's row in the far block, filling the block on a miss; keeps
        the row for far_row and to_vm (with `reach`, `_tail` keeps the arrival's
        feasible slice instead)."""
        i = self._k - self._first
        if not 0 <= i < len(self._block):
            self._fill_block()
            i = 0
        self._tail = self._block[i]
        return i

    def _set_row(self) -> int:
        """This arrival's row in its block of feasible sets, loading the block on a miss."""
        b, i = divmod(self._k, self._block_rows)
        if b != self._set_block:
            self._load_sets(b)
        return i

    def _load_sets(self, b: int) -> None:
        """Block b of feasible sets, from the store or filled, with this run's terms."""
        shared = self._shared
        kept = None if shared is None else shared.blocks.get(b)
        if kept is None:
            bounds, idx, d = self._fill_whole(b)
            if shared is not None:
                shared.keep(b, bounds, idx, d)
        else:
            bounds, idx, d = kept
            idx = idx.astype(np.intp)  # numpy gathers by intp indices fastest
        terms = None
        if self._feasible_terms_of is not None:
            first = b * self._block_rows
            bits = [task.input_bits for task in self._tasks[first:first + len(bounds) - 1]]
            rows = np.repeat(np.arange(len(bits)), np.diff(bounds))
            terms = self._feasible_terms_of(d, rows, bounds, bits)
        self._sets, self._set_block = (bounds.tolist(), idx, d, terms), b
        self._own_rows = kept is None  # the block's rows are in _work until the next fill

    def _fill_whole(self, b: int):
        """(bounds, idx, d) of block b, arrivals bB to bB+B-1: their columns by
        positions_over at their times, then _from_point's operations,
        elementwise, each row from its own origin, compared with `reach`."""
        first = b * self._block_rows
        tasks = self._tasks[first:first + self._block_rows]
        m = len(tasks)
        n = len(self._positions)
        if self._work is None:
            shape = (self._block_rows, n)
            self._work = np.empty(shape), np.empty(shape, dtype=bool), np.arange(shape[0] + 1)
        block, feasible, arrivals = self._work
        block, feasible = block[:m], feasible[:m]
        # the differences are taken in positions_over's buffer, which it lets callers overwrite
        diff = self._positions.positions_over([task.created_at for task in tasks])
        diff -= diff[:, arrivals[:m], [task.origin_satellite for task in tasks]][:, :, None]
        diff *= diff
        np.add(diff[0], diff[1], out=block)
        block += diff[2]
        np.sqrt(block, out=block)
        # every row's feasible VMs, row by row in index order, as flat block indices
        np.less_equal(block, self._reach, out=feasible)
        idx = np.flatnonzero(feasible)
        d = block.ravel().take(idx)
        bounds = np.searchsorted(idx, arrivals[:m + 1] * n)  # row i's entries: bounds[i] on
        idx %= n  # each entry's VM
        return bounds, idx, d

    def _fill_block(self) -> None:
        """Far rows of arrivals k to k+B-1, by _from_point's operations, elementwise,
        into this source's buffer, and their walk order when the hook `terms` is
        set. The far satellites' coordinates come from `far_positions`, one
        cos and sin per distinct angle and time, the origins' from positions_at."""
        k = self._k
        tasks = self._tasks[k:k + self._block_rows]
        t = [task.created_at for task in tasks]
        origin = self._positions.positions_at(
            np.array([task.origin_satellite for task in tasks]), np.array(t))
        # positions_over's buffers, which it lets callers overwrite
        dx, dy, dz = self._far_positions.positions_over(t)
        for diff, o in zip((dx, dy, dz), origin):
            diff -= o[:, None]
            diff *= diff
        dx += dy
        dx += dz
        self._block, self._first = np.sqrt(dx, out=self._rows[:len(tasks)]), k
        if self._terms_of is not None:
            self._terms = self._terms_of(self._block)

    def feasible(self):
        """(indices, distances) of this arrival's feasible VMs: its slice of its
        block of feasible sets, kept for to_vm."""
        if self._tail is None:
            i = self._set_row()
            bounds, idx, d, _ = self._sets
            lo, hi = bounds[i], bounds[i + 1]
            self._tail = idx[lo:hi], d[lo:hi]
        return self._tail

    def feasible_terms(self):
        """(indices, distance terms, energy terms) of this arrival's feasible VMs:
        its slice of what the hook `feasible_terms` computed over its block."""
        i = self._set_row()
        bounds, idx, _, (dn, en) = self._sets
        lo, hi = bounds[i], bounds[i + 1]
        return idx[lo:hi], dn[lo:hi], en[lo:hi]

    def far_terms(self):
        """(far row, order) for weight_greedy's shortlist walk: this arrival's
        far_row and its enabled columns nearest first, which the hook `terms`
        computed with the block."""
        i = self._block_index()
        return self._tail, self._terms[i]

    def far_row(self) -> np.ndarray:
        """column's distances to the far satellites, far.start on, alone: this
        arrival's row of the block, the same IEEE operations on the same
        coordinates. Index i is satellite far.start + i."""
        self._block_index()
        return self._tail

    def to_vm(self, vm: int) -> float:
        """column's distance to VM `vm`: with `reach`, from this arrival's block row
        if this run filled the block, else from its feasible slice, which must
        hold `vm`; else from what this instant computed, else alone."""
        if self._whole:
            i = self._set_row()
            if self._own_rows:
                return self._work[0].item(i, vm)
            idx, d = self.feasible()
            return d.item(idx.searchsorted(vm))
        if self._filled:
            return float(self._column[vm])
        if self._tail is not None and vm >= self._start:
            return float(self._tail[vm - self._start])
        return self.pair(self.origin, vm, self.now)

    def pair(self, origin: int, host: int, now: float) -> float:
        """column's distance from `origin` to `host` at `now`, computed alone."""
        if self._orbits is not None:
            return _orbits_apart(self._orbits[origin], self._orbits[host], now)
        return _apart(*self._positions.positions_all(now)[[origin, host]].tolist())

    def near(self, r: float) -> tuple[list[int], list[float]]:
        """(indices, distances) of the satellites the PlaneQuery `near` finds within
        `r` of this arrival's origin, a superset of those whose column distance is
        at most r, and their column distances, as `pair` computes them, with the
        origin's position computed once."""
        orbits, now = self._orbits, self.now
        ox, oy, oz = _orbit_point(orbits[self.origin], now)
        ids = self._near.within(ox, oy, oz, now, r)
        distances = []
        for j in ids:
            x, y, z = _orbit_point(orbits[j], now)
            dx, dy, dz = x - ox, y - oy, z - oz
            distances.append(math.sqrt((dx * dx + dy * dy) + dz * dz))
        return ids, distances


def _from_point(o, pos: np.ndarray, diff: np.ndarray, acc: np.ndarray, out: np.ndarray) -> None:
    """Distance from point `o` to each column of the (3, n) `pos`, into `out`.

    Each coordinate row has o's coordinate subtracted as a scalar, and
    squares are summed as (dx*dx + dy*dy) + dz*dz, the order an (n, 3)
    np.sum(axis=1) uses.
    """
    ox, oy, oz = o
    np.subtract(pos[0], ox, out=diff[0])
    np.subtract(pos[1], oy, out=diff[1])
    np.subtract(pos[2], oz, out=diff[2])
    np.multiply(diff, diff, out=diff)
    np.add(diff[0], diff[1], out=acc)
    acc += diff[2]
    np.sqrt(acc, out=out)


def _apart(o, h) -> float:
    """Distance between points o and h, squares summed in _from_point's order."""
    dx, dy, dz = h[0] - o[0], h[1] - o[1], h[2] - o[2]
    return math.sqrt((dx * dx + dy * dy) + dz * dz)


def _orbits_apart(o, h, now: float) -> float:
    """Distance at `now` between the satellites on OrbitPositions orbit rows o
    and h: _orbit_point's operations for each, written out, then _apart's.
    Every download takes one; with two _orbit_point calls here, full_walker's
    round_robin tasks per second fell 5.8% and random_vm's 3.7%, in 6 of 6
    alternating perfbench pairs (seed 1, 40 s, 2-vCPU host)."""
    a, rate, phase, ci, si, co, so = o
    theta = rate * now + phase
    ct, st = math.cos(theta), math.sin(theta)
    buf = st * ci
    ox, oy, oz = a * (ct * co - buf * so), a * (buf * co + ct * so), a * (st * si)
    a, rate, phase, ci, si, co, so = h
    theta = rate * now + phase
    ct, st = math.cos(theta), math.sin(theta)
    buf = st * ci
    dx = a * (ct * co - buf * so) - ox
    dy = a * (buf * co + ct * so) - oy
    dz = a * (st * si) - oz
    return math.sqrt((dx * dx + dy * dy) + dz * dz)


def _orbit_point(row, now: float) -> tuple[float, float, float]:
    """Position at `now` of the satellite on OrbitPositions orbit row `row`:
    positions_all's float operations, in Python floats on math.cos and
    math.sin."""
    a, rate, phase, ci, si, co, so = row
    theta = rate * now + phase
    ct, st = math.cos(theta), math.sin(theta)
    buf = st * ci
    return a * (ct * co - buf * so), a * (buf * co + ct * so), a * (st * si)


class Geometry:
    """What one constellation fixes for every run of it: the build_constellation
    list, the nodes, the orbits and each satellite's layer code; `near`,
    a PlaneQuery over the first layer's block where it is a walker_delta
    shell that other layers follow (None elsewhere); and `far_positions`,
    an OrbitPositions over the satellites after that block, which fills
    the far rows (None where there are none).

    sweep.run_sweep builds one per constellation_key and hands it to that
    key's runs. Runs only read it: each keeps its VMs, view, distances,
    blocks of distances and far set to itself, and the geometry refers to
    none of them. Its OrbitPositions reuse their buffers on every call, so
    it is not for runs on other threads.
    """

    def __init__(self, spec: ConstellationSpec):
        self.key = constellation_key(spec)
        self.layered = build_constellation(spec)
        self.nodes, _ = build_nodes(self.layered)  # VMs are each run's own
        self.positions = OrbitPositions([elements for _, elements in self.layered])
        self.layer_codes = np.array([LAYER_CODE[node.layer] for node in self.nodes],
                                    dtype=np.int64)
        self.layer_codes.flags.writeable = False  # every run's view shares it
        # orbit radius of each layer that has satellites
        self.radius = {layer: elements.semi_major_axis_m for layer, elements in self.layered}
        # the first layer block's planes, and the far satellites' own orbits, where a
        # far set follows that block (see _far_set)
        first = int(np.count_nonzero(self.layer_codes == self.layer_codes[0]))
        far = first < len(self.layered)
        self.near = (PlaneQuery(self.positions._by_satellite[:first])
                     if spec.phasing is Phasing.WALKER_DELTA and far else None)
        self.far_positions = (OrbitPositions([elements for _, elements in self.layered[first:]])
                              if far else None)


def _orbit_bounds(config: SimulationConfig, geometry: Geometry):
    """(static feasible index or None, bound on every distance), from the orbit radii.

    On circular orbits |p| is the orbit radius, so no origin lies farther
    than r_max + r_h from a layer-h host, r_max being the largest orbit
    radius. The 1e-9 relative slack covers the computed antipodal chord,
    which can come out one rounding step above r_1 + r_2. The index, every
    VM of an enabled layer, is None when some enabled layer's range falls
    short of its bound: feasibility is then checked per task.
    """
    radius = geometry.radius
    r_max = max(radius.values())
    needed = {layer: (r_max + r) * (1.0 + 1e-9) for layer, r in radius.items()}
    reach = config.link.range_by_layer
    if any(reach[layer] < bound for layer, bound in needed.items() if layer in config.architecture):
        return None, max(needed.values())
    enabled = np.array([layer in config.architecture for layer in LAYER_ORDER])
    return np.flatnonzero(enabled[geometry.layer_codes]), max(needed.values())


def _far_set(geometry: Geometry) -> FarSet | None:
    """The far set: the satellites after the first layer's block, or None when
    there are none.

    weight_greedy and trade_off score shortlisted placements on the far
    VMs' block rows (see _Distances) in place of the column, which pays at
    every size: weight_greedy's `select` on its shortlisted placements of
    a 10 s run, best of 3 runs under a timing wrapper, on a 2-vCPU host,
    took 11-12 µs with its block row and walk order at 142, 342 and 1,042
    VMs (14-16 µs plus a 2.9 µs block row when it scored every far VM in
    numpy), against 33 µs for the full path at 142 VMs, 38 at 342 and 54
    at 1,042. On a Walker shell the source's neighbour query lets
    weight_greedy's busy origins walk the far row and score the
    first-block VMs near them too: a median of 25-27 µs a placement at
    1,042 VMs against 59 µs for the full path (seed 1, 15 s, under a
    timing wrapper, same host).
    """
    layered, layer_codes = geometry.layered, geometry.layer_codes
    n = len(layered)
    start = int(np.count_nonzero(layer_codes == layer_codes[0]))  # layered is layer-major
    if start == n:
        return None
    r = layered[0][1].semi_major_axis_m
    return FarSet(start, (r + r) * (1.0 + 1e-9))


class Simulation:
    """One configured run; single use, call run() once.

    The run's tasks come from one of three places. By default they are
    drawn with draw_arrivals. `arrivals` passes draw_arrivals' arrays for
    this config's seed, task profile and duration at this mist count or a
    larger one (this one when task.rate_is_global), as sweep.run_sweep
    does, and the run takes fresh tasks for its own origins. Injected
    `tasks` must have ids 0..n-1, be in creation order (created_at
    non-decreasing) and originate at satellites of the constellation.
    run() reads arrivals from `tasks` in order; its heap holds in-flight
    events only.

    `geometry` passes a Geometry built for this config's constellation (a
    different constellation_key raises ConfigurationError), as run_sweep
    does for the runs of one constellation; by default the run builds its
    own. The run reads it and writes none of it: VMs, queue lengths,
    distances and the far set are made fresh per run.

    `set_store` passes a SetStore shared by runs of this constellation and
    these arrivals, as run_sweep does for the runs of one sweep key. Where
    feasibility is checked per task on the built-in orbits, the run reads
    the feasible sets other runs kept there and keeps those it fills;
    elsewhere it reads none. A store filled for another constellation_key,
    reach row (orchestrate.reach_row) or task list, compared arrival by
    arrival, raises ConfigurationError.

    An injected `positions` source replaces the built-in orbits. It needs
    only `__len__`, one entry per satellite, and `positions_all(t)`, which
    returns an (n, 3) array of coordinates in meters.
    """

    def __init__(self, config: SimulationConfig, *,
                 tasks: Sequence[Task] | None = None,
                 arrivals: tuple[np.ndarray, np.ndarray] | None = None,
                 geometry: Geometry | None = None,
                 set_store: SetStore | None = None,
                 positions=None,
                 on_transfer: Callable[[int, float, float, float, float], None] | None = None,
                 record_events: bool = False):
        validate(config)
        self.config = config
        if geometry is None:
            geometry = Geometry(config.constellation)
        elif geometry.key != constellation_key(config.constellation):
            raise ConfigurationError("geometry was built for another constellation than the config's")
        self.nodes = geometry.nodes
        profiles = config.profiles
        self.vms = [Vm(node.id, node.layer, profiles[node.layer].mips) for node in self.nodes]
        self.positions = positions if positions is not None else geometry.positions
        if len(self.positions) != len(self.nodes):
            raise ConfigurationError(
                f"position source covers {len(self.positions)} satellites, "
                f"constellation has {len(self.nodes)}"
            )
        self.on_transfer = on_transfer
        self.record_events = record_events
        self.events: list[Event] = []

        if tasks is None:
            self.tasks = _arrival_tasks(config, draw_arrivals(config) if arrivals is None
                                        else arrivals)
        elif arrivals is not None:
            raise ConfigurationError("pass injected tasks or arrivals, not both")
        else:
            self.tasks = list(tasks)
            n_satellites = len(self.nodes)
            for i, task in enumerate(self.tasks):
                if task.id != i:
                    raise ConfigurationError("injected task ids must be 0..n-1 in order")
                if i and not self.tasks[i - 1].created_at <= task.created_at:
                    raise ConfigurationError("injected tasks must be in creation order")
                if not 0 <= task.origin_satellite < n_satellites:
                    raise ConfigurationError(
                        f"injected task {i} originates at satellite {task.origin_satellite}, "
                        f"outside 0..{n_satellites - 1}")

        layer_codes = geometry.layer_codes
        n_vms = len(self.vms)
        view = self._view = CandidateView(
            vm_ids=np.arange(n_vms, dtype=np.int64),
            layer_codes=layer_codes,
            source=None,
            queue_lens=np.zeros(n_vms),
            mips=np.array([profiles[layer].mips for layer in LAYER_ORDER])[layer_codes],
            assigned=np.zeros(n_vms, dtype=np.int64),
        )
        if positions is None:
            view.static_feasible, view.max_distance = _orbit_bounds(config, geometry)
            if view.static_feasible is not None:
                view.far = _far_set(geometry)
        weight_greedy = config.policy is PolicyId.WEIGHT_GREEDY
        terms = far_term_hook(view, config.architecture, config.radio) if weight_greedy else None
        # with feasibility per task on the built-in orbits, nearly every placement
        # reads its feasible set, so the source computes them a block of arrivals at
        # a time, or reads them from the store, and weight_greedy's distance and
        # energy terms with them
        reach = set_terms = None
        if positions is None and view.static_feasible is None:
            view.feasible_sets = True
            reach = reach_row(view, config.architecture, config.link)
            if set_store is not None:
                if arrivals is None:  # drawn here, or injected tasks
                    arrivals = (np.array([task.created_at for task in self.tasks]),
                                np.array([task.origin_satellite for task in self.tasks]))
                else:
                    keep = arrivals[1] < config.constellation.mist
                    arrivals = arrivals[0][keep], arrivals[1][keep]
                set_store.bind(geometry.key, reach, *arrivals)
            if weight_greedy:
                set_terms = partial(feasible_terms, radio=config.radio)
        else:
            set_store = None
        view.source = self._distances = _Distances(self.positions, self.tasks, view.far, terms,
                                                   reach=reach, feasible_terms=set_terms,
                                                   shared=set_store,
                                                   near=None if view.far is None else geometry.near,
                                                   far_positions=geometry.far_positions)
        if config.policy is PolicyId.ROUND_ROBIN:
            view.turns = round_robin_turns(view)
        self._layer_weights = {**DEFAULT_TRADEOFF_LAYER_WEIGHTS,
                               Layer.CLOUD: config.tradeoff_cloud_weight}
        # trade_off's kept far compute terms, updated at each queue change; None in
        # every other run
        self._on_queue = (trade_off_term_hook(view, self._layer_weights, config.task.length_mi)
                          if config.policy is PolicyId.TRADE_OFF else None)
        self._policy_rng = random.Random(f"{config.seed}:policy")

        # in-flight events (time, seq, kind, task id); arrival i, seq i, is read from tasks
        self._heap: list[tuple[float, int, int, int]] = []
        self._seq = len(self.tasks)

        self.total_energy_j = 0.0
        self._e2e: list[float] = []
        self._ran = False

    def _push(self, time: float, kind: int, task_id: int) -> None:
        heapq.heappush(self._heap, (time, self._seq, kind, task_id))
        self._seq += 1

    def run(self) -> metrics_mod.MetricsRecord:
        if self._ran:
            raise RuntimeError("Simulation.run() is single use")
        self._ran = True
        duration = self.config.duration_s
        heap, tasks, pop = self._heap, self.tasks, heapq.heappop
        on_task_generated = self.on_task_generated
        # indexed by the heap entries' kind codes 1-3
        handlers = (None, self.on_upload_complete,
                    self.on_execution_complete, self.on_download_complete)
        events = self.events if self.record_events else None
        for task in tasks:
            now = task.created_at
            if not now <= duration:
                break
            # in-flight events before this arrival; one at its time has a higher seq
            while heap and heap[0][0] < now:
                time, seq, kind, task_id = pop(heap)
                if events is not None:
                    events.append(Event(time, seq, EventKind(kind), task_id))
                handlers[kind](tasks[task_id], time)
            if events is not None:
                events.append(Event(now, task.id, EventKind.TASK_GENERATED, task.id))
            on_task_generated(task, now)
        while heap and heap[0][0] <= duration:
            time, seq, kind, task_id = pop(heap)
            if events is not None:
                events.append(Event(time, seq, EventKind(kind), task_id))
            handlers[kind](tasks[task_id], time)
        for task in tasks:
            # a queued task started when its predecessor's EXECUTION_COMPLETE,
            # at exactly its service_start_s, was processed
            if task.state is TaskState.QUEUED and task.service_start_s <= duration:
                task.state = TaskState.EXECUTING
        if events is not None:
            events.append(Event(duration, self._seq, EventKind.SIM_END, -1))
        return self._build_record()

    # -- event handlers -------------------------------------------------

    def on_task_generated(self, task: Task, now: float) -> None:
        origin = task.origin_satellite
        view = self._view
        view.local = origin
        self._distances.at(task.id)
        try:
            sel = select(
                self.config.policy,
                view,
                task,
                self.config.architecture,
                rng=self._policy_rng,
                link=self.config.link,
                radio=self.config.radio,
                layer_weights=self._layer_weights,
            )
        except PlacementError:
            self._fail(task, FailureCause.NO_DESTINATION, now)
            return
        vm_index = sel.vm_id
        view.assigned[vm_index] += 1
        task.assigned_vm = vm_index
        if vm_index == origin:
            self._enqueue(task, self.vms[vm_index], now)
            return
        d = self._distances.to_vm(vm_index)
        bits = task.input_bits
        self._charge_transfer(task, bits, d)
        task.state = TaskState.UPLOADING
        link = self.config.link
        self._push(now + (bits / link.bandwidth_bps + d / link.propagation_speed_mps),
                   _UPLOAD_COMPLETE, task.id)

    def on_upload_complete(self, task: Task, now: float) -> None:
        self._enqueue(task, self.vms[task.assigned_vm], now)

    def on_execution_complete(self, task: Task, now: float) -> None:
        """Frees the task's place in its VM's queue, then downloads its output
        unless its host has left the origin's range; a queue change, so trade_off's
        kept term of the VM is updated."""
        vm_index = task.assigned_vm
        self._view.queue_lens[vm_index] -= 1.0
        if self._on_queue is not None:
            self._on_queue(vm_index)
        origin = task.origin_satellite
        if vm_index == origin:
            task.state = TaskState.DOWNLOADING
            self._push(now, _DOWNLOAD_COMPLETE, task.id)
            return
        d = self._distances.pair(origin, vm_index, now)
        link = self.config.link
        if d > link.range_by_layer[self.vms[vm_index].host_layer]:
            self._fail(task, FailureCause.MOBILITY, now)
            return
        bits = task.output_bits
        self._charge_transfer(task, bits, d)
        task.state = TaskState.DOWNLOADING
        self._push(now + (bits / link.bandwidth_bps + d / link.propagation_speed_mps),
                   _DOWNLOAD_COMPLETE, task.id)

    def on_download_complete(self, task: Task, now: float) -> None:
        task.finished_at = now
        if now - task.created_at <= task.max_latency_s:
            task.state = TaskState.SUCCEEDED
            self._e2e.append(now - task.created_at)
        else:
            task.state = TaskState.FAILED
            task.failure_cause = FailureCause.DEADLINE

    def on_mobility_tick(self, now: float) -> None:
        """Never scheduled: positions are computed lazily at events.

        Kept only because perfbench/spans.py wraps it by name."""

    # -- internals -------------------------------------------------------

    def _enqueue(self, task: Task, vm: Vm, now: float) -> None:
        """Queues the task on `vm` and schedules its completion; a queue change,
        so trade_off's kept term of the VM is updated."""
        starts_now = vm.busy_until <= now
        task.service_start_s = now if starts_now else vm.busy_until
        completion = vm.enqueue(now, task.length_mi / vm.mips, self.config.duration_s)
        task.state = TaskState.EXECUTING if starts_now else TaskState.QUEUED
        self._view.queue_lens[vm.id] += 1.0
        if self._on_queue is not None:
            self._on_queue(vm.id)
        self._push(completion, _EXECUTION_COMPLETE, task.id)

    def _charge_transfer(self, task: Task, bits: float, distance_m: float) -> None:
        tx = tx_energy(bits, distance_m, self.config.radio)
        rx = rx_energy(bits, self.config.radio)
        self.total_energy_j += tx + rx
        if self.on_transfer is not None:
            self.on_transfer(task.id, bits, distance_m, tx, rx)

    def _fail(self, task: Task, cause: FailureCause, now: float) -> None:
        task.state = TaskState.FAILED
        task.failure_cause = cause
        task.finished_at = now

    def _build_record(self) -> metrics_mod.MetricsRecord:
        succeeded = failed_deadline = failed_mobility = failed_no_dest = 0
        for task in self.tasks:
            if task.state is TaskState.SUCCEEDED:
                succeeded += 1
            elif task.state is TaskState.FAILED:
                if task.failure_cause is FailureCause.DEADLINE:
                    failed_deadline += 1
                elif task.failure_cause is FailureCause.MOBILITY:
                    failed_mobility += 1
                else:
                    failed_no_dest += 1
        generated = len(self.tasks)
        assigned, codes = self._view.assigned, self._view.layer_codes
        per_layer = {layer: int(assigned[codes == LAYER_CODE[layer]].sum()) for layer in Layer}
        unfinished = generated - succeeded - failed_deadline - failed_mobility - failed_no_dest
        return metrics_mod.MetricsRecord(
            policy=self.config.policy,
            satellite_count=self.config.constellation.mist,
            seed=self.config.seed,
            generated=generated,
            succeeded=succeeded,
            failed_deadline=failed_deadline,
            failed_mobility=failed_mobility,
            failed_no_destination=failed_no_dest,
            unfinished=unfinished,
            success_rate_pct=metrics_mod.success_rate(succeeded, generated, unfinished),
            avg_e2e_s=metrics_mod.avg_e2e(self._e2e),
            total_energy_j=self.total_energy_j,
            total_energy_db=metrics_mod.energy_db_or_neg_inf(self.total_energy_j),
            avg_vm_cpu_pct=metrics_mod.avg_cpu(self.vms, self.config.duration_s),
            per_layer_task_counts=per_layer,
        )
