"""Test-side records and readers: candidate lists, task stand-ins, a distance
source, a reference event loop, a reference distance source and the CSV reader.

The simulator places over a CandidateView and writes results.csv; the
tests build views from plain Candidate records, over a fixed distance
column, run a Simulation by the single-heap loop its two-source loop
replaced or on columns computed one placement at a time, and read the
CSV back.
"""

from __future__ import annotations

import csv
import heapq
import io
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from satmist.engine import Event, EventKind, TaskState, _Distances
from satmist.layers import LAYER_CODE, Layer
from satmist.metrics import CSV_COLUMNS, MetricsRecord
from satmist.orchestrate import CandidateView, PolicyId, far_term_hook


@dataclass(frozen=True)
class Candidate:
    """One VM as seen at decision time."""

    vm_id: int
    host_layer: Layer
    distance_m: float
    queue_len: int
    vm_mips: float
    assigned_count: int


class TaskInfo(NamedTuple):
    """The task fields placement cares about."""

    length_mi: float
    input_bits: float = 0.0


class ColumnSource:
    """A view's distance source over a fixed column, logging each read in `reads`:
    "fill" for the first `column()` call, "row" for `far_row`, "terms" for
    `far_terms` and "near" for `near`. Like the engine's source it serves the
    column, the column's tail from `far_start`, the distances to the far set's
    VMs, that tail with weight_greedy's walk order over it, as the engine's
    block does, and the VMs before `far_start` within a radius of the origin,
    found by brute force: `terms` is the engine's hook, set by
    far_term_source, or a function of the tail that gives the order, and
    `near_radius` the first radius weight_greedy asks `near` for, None to
    leave busy origins on the full path. Without a far set there is no far
    read."""

    def __init__(self, column, far_start: int | None = None):
        self._column = np.asarray(column, dtype=np.float64)
        self._filled = False
        self.far_start = far_start
        self.reads: list = []
        self.terms = None
        self.near_radius = None

    def column(self) -> np.ndarray:
        if not self._filled:
            self._filled = True
            self.reads.append("fill")
        return self._column

    def far_row(self) -> np.ndarray:
        assert self.far_start is not None, "far row read without a far set"
        self.reads.append("row")
        return self._column[self.far_start:]

    def far_terms(self):
        self.reads.append("terms")
        row = self._column[self.far_start:]
        return row, self.terms(row[None])[0]

    def near(self, r: float):
        """(indices, distances) of the VMs before `far_start` at most `r` from the origin."""
        self.reads.append("near")
        first = self._column[:self.far_start]
        ids = np.flatnonzero(first <= r).tolist()
        return ids, first[ids].tolist()


def far_term_source(view: CandidateView, architecture, radio) -> ColumnSource:
    """A ColumnSource over the view's column whose `far_terms` gives the
    engine's row and order: orchestrate.far_term_hook's function on the
    column's far tail. The view must have its far set and static facts."""
    source = ColumnSource(view.distances, view.far.start)
    source.terms = far_term_hook(view, architecture, radio)
    return source


def view_from_candidates(cands: Sequence[Candidate]) -> CandidateView:
    """A CandidateView holding the candidates' fields, in order."""
    return CandidateView(
        vm_ids=np.array([c.vm_id for c in cands], dtype=np.int64),
        layer_codes=np.array([LAYER_CODE[c.host_layer] for c in cands], dtype=np.int64),
        source=ColumnSource([c.distance_m for c in cands]),
        queue_lens=np.array([c.queue_len for c in cands], dtype=np.float64),
        mips=np.array([c.vm_mips for c in cands], dtype=np.float64),
        assigned=np.array([c.assigned_count for c in cands], dtype=np.int64),
    )


def run_single_heap(sim):
    """Run `sim` as Simulation.run did while arrivals went through its heap, and
    return the record.

    One heap holds every event: arrival i, keyed (created_at, i), is pushed
    when arrival i-1 is popped, and in-flight events take seqs n, n+1, ...
    So this is the reference for run()'s event order and its record_events log.
    """
    tasks, heap, duration = sim.tasks, sim._heap, sim.config.duration_s
    generated = EventKind.TASK_GENERATED.value
    if tasks:
        heap.append((tasks[0].created_at, 0, generated, 0))
    handlers = (sim.on_task_generated, sim.on_upload_complete,
                sim.on_execution_complete, sim.on_download_complete)
    sim._ran = True
    while heap and heap[0][0] <= duration:
        time, seq, kind, task_id = heapq.heappop(heap)
        if sim.record_events:
            sim.events.append(Event(time, seq, EventKind(kind), task_id))
        if kind == generated and task_id < len(tasks) - 1:
            following = task_id + 1
            heapq.heappush(heap, (tasks[following].created_at, following, generated, following))
        handlers[kind](tasks[task_id], time)
    for task in tasks:
        if task.state is TaskState.QUEUED and task.service_start_s <= duration:
            task.state = TaskState.EXECUTING
    if sim.record_events:
        sim.events.append(Event(duration, sim._seq, EventKind.SIM_END, -1))
    return sim._build_record()


def columns_per_placement(sim):
    """`sim`, not yet run, with a distance source that computes each placement's
    column alone, by one positions_all call, as runs with static feasibility
    do, and policies that find the feasible set and weight_greedy's terms in
    it. The reference for the blocks of columns, feasible sets and terms
    that runs checking feasibility per task read; everything else is sim's
    own."""
    own = sim._distances
    sim._distances = sim._view.source = _Distances(sim.positions, sim.tasks, sim._view.far,
                                                   own._terms_of, near=own._near,
                                                   far_positions=own._far_positions)
    sim._view.feasible_sets = False
    return sim


def parse_csv(data: bytes | str) -> list[MetricsRecord]:
    """Inverse of metrics.emit_csv, to the printed precision."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty metrics CSV") from None
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"bad metrics header: {header!r}")
    records = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(row)}")
        records.append(
            MetricsRecord(
                policy=PolicyId(row[0]),
                satellite_count=int(row[1]),
                seed=int(row[2]),
                generated=int(row[3]),
                succeeded=int(row[4]),
                failed_deadline=int(row[5]),
                failed_mobility=int(row[6]),
                failed_no_destination=int(row[7]),
                unfinished=int(row[8]),
                success_rate_pct=float(row[9]) if row[9] else None,
                avg_e2e_s=float(row[10]) if row[10] else None,
                total_energy_j=float(row[11]),
                total_energy_db=float(row[12]),
                avg_vm_cpu_pct=float(row[13]),
            )
        )
    return records
