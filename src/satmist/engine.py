"""Event-driven simulation of task generation, placement, and execution.

The run is a single priority queue of (time, seq) ordered events, so
simultaneous events resolve by seq and a run is a pure function of its
configuration. Every event changes some task's state: of n tasks, task
i's arrival has seq i and enters the heap only when arrival i-1 leaves
it, and in-flight events (uploads, executions, downloads) take seqs n,
n+1, ... in push order. Satellite i hosts VM i, a FIFO clock whose queue
length lives only in the candidate view that placement reads. Mist
satellites generate tasks from seeded Poisson streams; each task is
placed once, at creation time, over a snapshot of every VM in the
constellation whose distance column is computed only if the policy reads
it; transfers charge radio energy on both ends; results are censored,
not extrapolated, at the simulation horizon.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import metrics as metrics_mod
from .config import SimulationConfig, validate
from .errors import ConfigurationError
from .infra import Vm, build_nodes
from .layers import LAYER_CODE, LAYER_ORDER, Layer
from .netenergy import rx_energy, tx_energy
from .orbital import OrbitPositions, build_constellation
from .orchestrate import DEFAULT_TRADEOFF_LAYER_WEIGHTS, CandidateView, PlacementError, select


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


# Heap entries carry the kind as a plain int; Simulation.run dispatches on it.
_TASK_GENERATED = EventKind.TASK_GENERATED.value
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


def generate_tasks(config: SimulationConfig, origin: int,
                   rng: random.Random) -> list[Task]:
    """Poisson arrivals for mist satellite `origin` over [0, duration).

    Task ids are local placeholders; the runner renumbers globally by
    (created_at, origin). With rate_is_global set, the profile rate is
    split evenly across mist satellites.
    """
    profile = config.task
    rate_per_s = profile.rate_per_min / 60.0
    if profile.rate_is_global and config.constellation.mist > 0:
        rate_per_s /= config.constellation.mist
    tasks: list[Task] = []
    if rate_per_s <= 0:
        return tasks
    t = rng.expovariate(rate_per_s)
    while t < config.duration_s:
        tasks.append(
            Task(
                id=len(tasks),
                origin_satellite=origin,
                created_at=t,
                length_mi=profile.length_mi,
                input_bits=profile.input_bits,
                output_bits=profile.output_bits,
                max_latency_s=profile.max_latency_s,
            )
        )
        t += rng.expovariate(rate_per_s)
    return tasks


class _Distances:
    """Origin-to-VM distances at one instant, from a position source.

    VM i is satellite i, so VM indices are satellite indices here.

    `at(origin, now)` sets the instant that `fill`, `to_vms` and `to_vm`
    measure from. Holds no reference to the Simulation, so a view that
    defers to it keeps no finished run alive.
    """

    def __init__(self, positions):
        n = len(positions)
        self._positions = positions
        self._diff = np.empty((3, n))
        self._acc = np.empty(n)
        self._rows = (positions.positions_of if isinstance(positions, OrbitPositions)
                      else partial(_rows_of_all, positions))
        self.at(0, 0.0)

    def at(self, origin: int, now: float) -> None:
        self.origin, self.now, self._known = origin, now, None

    def fill(self, out: np.ndarray) -> None:
        """Distance from satellite `origin` to every VM, into `out`.

        Each coordinate row has the origin's coordinate subtracted as a
        scalar, and squares are summed as (dx*dx + dy*dy) + dz*dz, the
        order an (n, 3) np.sum(axis=1) uses.
        """
        pos = self._positions.positions_all(self.now).T
        diff, acc = self._diff, self._acc
        ox, oy, oz = pos[:, self.origin].tolist()
        np.subtract(pos[0], ox, out=diff[0])
        np.subtract(pos[1], oy, out=diff[1])
        np.subtract(pos[2], oz, out=diff[2])
        np.multiply(diff, diff, out=diff)
        np.add(diff[0], diff[1], out=acc)
        acc += diff[2]
        np.sqrt(acc, out=out)

    def to_vms(self, vms: list[int]) -> list[float]:
        """fill's distances to VMs `vms` alone, remembered for to_vm."""
        out = self.between(self.origin, vms, self.now)
        self._known = dict(zip(vms, out))
        return out

    def to_vm(self, vm: int) -> float:
        """fill's distance to VM `vm`, from the last to_vms at this instant if it had it."""
        known = self._known
        if known is not None and vm in known:
            return known[vm]
        return self.pair(self.origin, vm, self.now)

    def between(self, origin: int, hosts: list[int], now: float) -> list[float]:
        """Distances from satellite `origin` to satellites `hosts`, computed alone:
        the same IEEE operations on the same coordinates, so each equals fill's."""
        o, *rows = self._rows([origin, *hosts], now)
        return [_apart(o, h) for h in rows]

    def pair(self, origin: int, host: int, now: float) -> float:
        """`between` for one host."""
        return _apart(*self._rows((origin, host), now))


def _apart(o, h) -> float:
    """Distance between points o and h, squares summed in fill's order."""
    dx, dy, dz = h[0] - o[0], h[1] - o[1], h[2] - o[2]
    return math.sqrt((dx * dx + dy * dy) + dz * dz)


def _rows_of_all(positions, ids, now: float):
    """Rows `ids` of any position source's positions_all(now)."""
    return positions.positions_all(now)[list(ids)].tolist()


def _orbit_bounds(config: SimulationConfig, layered, layer_codes: np.ndarray):
    """(static feasible index or None, bound on every distance), from the orbit radii.

    On circular orbits |p| is the orbit radius, so no origin lies farther
    than r_max + r_h from a layer-h host, r_max being the largest orbit
    radius. The 1e-9 relative slack covers the computed antipodal chord,
    which can come out one rounding step above r_1 + r_2. The index, every
    VM of an enabled layer, is None when some enabled layer's range falls
    short of its bound: feasibility is then checked per task.
    """
    radius = {layer: elements.semi_major_axis_m for layer, elements in layered}
    r_max = max(radius.values())
    needed = {layer: (r_max + r) * (1.0 + 1e-9) for layer, r in radius.items()}
    reach = config.link.range_by_layer
    if any(reach[layer] < bound for layer, bound in needed.items() if layer in config.architecture):
        return None, max(needed.values())
    enabled = np.array([layer in config.architecture for layer in LAYER_ORDER])
    return np.flatnonzero(enabled[layer_codes]), max(needed.values())


class Simulation:
    """One configured run; single use, call run() once.

    Injected `tasks` must have ids 0..n-1 and be in creation order
    (created_at non-decreasing). An injected `positions` source replaces
    the built-in orbits. It needs only `__len__`, one entry per satellite,
    and `positions_all(t)`, which returns an (n, 3) array of coordinates
    in meters.
    """

    def __init__(self, config: SimulationConfig, *,
                 tasks: Sequence[Task] | None = None,
                 positions=None,
                 on_transfer: Callable[[int, float, float, float, float], None] | None = None,
                 record_events: bool = False):
        validate(config)
        self.config = config
        layered = build_constellation(config.constellation)
        self.nodes, self.vms = build_nodes(layered, config.profiles)
        self.positions = positions if positions is not None else OrbitPositions(
            [elements for _, elements in layered]
        )
        if len(self.positions) != len(self.nodes):
            raise ConfigurationError(
                f"position source covers {len(self.positions)} satellites, "
                f"constellation has {len(self.nodes)}"
            )
        self.on_transfer = on_transfer
        self.record_events = record_events
        self.events: list[Event] = []

        layer_codes = np.array([LAYER_CODE[vm.host_layer] for vm in self.vms], dtype=np.int64)
        n_vms = len(self.vms)
        distances = self._distances = _Distances(self.positions)
        view = self._view = CandidateView(
            vm_ids=np.arange(n_vms, dtype=np.int64),
            layer_codes=layer_codes,
            distances=np.empty(n_vms),
            queue_lens=np.zeros(n_vms),
            mips=np.array([vm.mips for vm in self.vms]),
            assigned=np.zeros(n_vms, dtype=np.int64),
        )
        view.defer_distances(distances.fill, distances.to_vms)
        if positions is None:
            view.static_feasible, view.max_distance = _orbit_bounds(config, layered, layer_codes)
        self._layer_weights = {**DEFAULT_TRADEOFF_LAYER_WEIGHTS,
                               Layer.CLOUD: config.tradeoff_cloud_weight}
        self._policy_rng = random.Random(f"{config.seed}:policy")

        if tasks is None:
            self.tasks = self._generated_tasks()
        else:
            self.tasks = list(tasks)
            for i, task in enumerate(self.tasks):
                if task.id != i:
                    raise ConfigurationError("injected task ids must be 0..n-1 in order")
                if i and not self.tasks[i - 1].created_at <= task.created_at:
                    raise ConfigurationError("injected tasks must be in creation order")

        # arrival i is (created_at, i): only the first is pushed here, run() pushes the rest
        self._heap: list[tuple[float, int, int, int]] = []
        if self.tasks:
            self._heap.append((self.tasks[0].created_at, 0, _TASK_GENERATED, 0))
        self._seq = len(self.tasks)

        self.total_energy_j = 0.0
        self._e2e: list[float] = []
        self._ran = False

    def _generated_tasks(self) -> list[Task]:
        raw: list[Task] = []
        for node in self.nodes:
            if node.layer is not Layer.MIST:
                continue
            rng = random.Random(f"{self.config.seed}:arrivals:{node.id}")
            raw.extend(generate_tasks(self.config, node.id, rng))
        raw.sort(key=lambda task: (task.created_at, task.origin_satellite))
        for i, task in enumerate(raw):
            task.id = i
        return raw

    def _push(self, time: float, kind: int, task_id: int) -> None:
        heapq.heappush(self._heap, (time, self._seq, kind, task_id))
        self._seq += 1

    def run(self) -> metrics_mod.MetricsRecord:
        if self._ran:
            raise RuntimeError("Simulation.run() is single use")
        self._ran = True
        duration = self.config.duration_s
        heap, tasks, pop, push = self._heap, self.tasks, heapq.heappop, heapq.heappush
        last_arrival = len(tasks) - 1
        # indexed by the heap entries' kind codes 0-3
        handlers = (self.on_task_generated, self.on_upload_complete,
                    self.on_execution_complete, self.on_download_complete)
        events = self.events if self.record_events else None
        while heap and heap[0][0] <= duration:
            time, seq, kind, task_id = pop(heap)
            if events is not None:
                events.append(Event(time, seq, EventKind(kind), task_id))
            if kind == _TASK_GENERATED and task_id < last_arrival:
                following = task_id + 1
                push(heap, (tasks[following].created_at, following, _TASK_GENERATED, following))
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
        self._distances.at(origin, now)
        view.distances_pending = True
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
        if view.distances_pending:
            d = self._distances.to_vm(vm_index)
        else:
            d = float(view.distances[vm_index])
        bits = task.input_bits
        self._charge_transfer(task, bits, d)
        task.state = TaskState.UPLOADING
        link = self.config.link
        self._push(now + (bits / link.bandwidth_bps + d / link.propagation_speed_mps),
                   _UPLOAD_COMPLETE, task.id)

    def on_upload_complete(self, task: Task, now: float) -> None:
        self._enqueue(task, self.vms[task.assigned_vm], now)

    def on_execution_complete(self, task: Task, now: float) -> None:
        vm_index = task.assigned_vm
        self._view.queue_lens[vm_index] -= 1.0
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
        starts_now = vm.busy_until <= now
        task.service_start_s = now if starts_now else vm.busy_until
        completion = vm.enqueue(now, task.length_mi / vm.mips, self.config.duration_s)
        task.state = TaskState.EXECUTING if starts_now else TaskState.QUEUED
        self._view.queue_lens[vm.id] += 1.0
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
