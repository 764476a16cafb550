"""Placement and accounting invariants on small random configurations.

Ranges are drawn either long enough for the engine's static feasibility
or short enough that feasibility and downloads depend on positions at
each event, over both Walker and random phasing.
"""

from __future__ import annotations

from collections import defaultdict

from hypothesis import example, given, settings
from hypothesis import strategies as st

from satmist.config import parse_config
from satmist.engine import EventKind, FailureCause, Simulation, TaskState
from satmist.metrics import emit_csv

POLICIES = ("distance_only", "round_robin", "trade_off", "random_vm", "weight_greedy")
LAYER_SETS = ("mist", "edge_dc", "cloud", "mist,edge_dc", "edge_dc,cloud", "mist,edge_dc,cloud")


@st.composite
def config_texts(draw) -> str:
    lines = [
        f"constellation.mist={draw(st.integers(1, 8))}",
        f"constellation.edge_dc={draw(st.integers(0, 3))}",
        f"constellation.cloud={draw(st.integers(0, 3))}",
        f"constellation.phasing={draw(st.sampled_from(['walker_delta', 'random_uniform']))}",
        f"policy.name={draw(st.sampled_from(POLICIES))}",
        f"architecture.layers={draw(st.sampled_from(LAYER_SETS))}",
        f"task.rate_per_min={draw(st.integers(5, 60))}",
        f"task.length_mi={draw(st.sampled_from([10_000, 100_000, 400_000]))}",
        f"task.max_latency_s={draw(st.sampled_from([2, 5, 12, 60]))}",
        f"simulation.duration_s={draw(st.integers(5, 60))}",
        f"rng.seed={draw(st.integers(0, 10_000))}",
    ]
    if draw(st.booleans()):  # short links: feasibility varies per task
        for name in ("mist", "edge", "cloud"):
            lines.append(f"link.range_{name}_m={draw(st.integers(3, 25)) * 1e6}")
    return "\n".join(lines) + "\n"


# a config known to lose a download to mobility, so that path is always run
MOBILITY_LOSS = (
    "constellation.mist=8\nconstellation.edge_dc=3\nconstellation.cloud=3\n"
    "constellation.phasing=random_uniform\npolicy.name=random_vm\n"
    "task.rate_per_min=60\nsimulation.duration_s=60\n"
    "link.range_mist_m=8e6\nlink.range_edge_m=9e6\nlink.range_cloud_m=17e6\n"
)


def _run(text: str):
    sim = Simulation(parse_config(text), record_events=True)
    return sim, sim.run()


@settings(max_examples=60, deadline=None)
@given(config_texts())
@example(MOBILITY_LOSS)
def test_invariants_hold_on_random_configs(text):
    sim, record = _run(text)
    if text == MOBILITY_LOSS:
        assert record.failed_mobility > 0
    tasks = sim.tasks

    # conservation: every generated task is counted exactly once
    by_state = defaultdict(int)
    for task in tasks:
        cause = task.failure_cause if task.state is TaskState.FAILED else None
        by_state[task.state, cause] += 1
    assert record.generated == len(tasks)
    assert record.succeeded == by_state[TaskState.SUCCEEDED, None]
    assert record.failed_deadline == by_state[TaskState.FAILED, FailureCause.DEADLINE]
    assert record.failed_mobility == by_state[TaskState.FAILED, FailureCause.MOBILITY]
    assert record.failed_no_destination == by_state[TaskState.FAILED, FailureCause.NO_DESTINATION]
    assert (record.succeeded + record.failed_deadline + record.failed_mobility
            + record.failed_no_destination + record.unfinished) == record.generated
    placed = [task for task in tasks if task.assigned_vm >= 0]
    assert sum(record.per_layer_task_counts.values()) == len(placed)
    assert len(placed) + record.failed_no_destination == record.generated

    # schedule keys: arrival i has seq i, every other event n or more
    n, events = len(tasks), sim.events
    assert [(e.seq, e.task_id) for e in events if e.kind is EventKind.TASK_GENERATED] \
        == [(i, i) for i in range(n)]
    assert all(e.seq >= n for e in events if e.kind is not EventKind.TASK_GENERATED)

    # end states: an unfinished task is executing iff its service started in the run
    duration = sim.config.duration_s
    for task in tasks:
        if task.state is TaskState.QUEUED:
            assert task.service_start_s > duration
        elif task.state is TaskState.EXECUTING:
            assert task.service_start_s <= duration

    # when, and in which order, each placed task reached its VM's queue: at
    # creation when it runs on its own satellite, else when its upload completed
    arrived = {}
    for event in sim.events:
        if event.task_id < 0:
            continue
        task = tasks[event.task_id]
        if task.assigned_vm < 0:
            continue
        local = task.assigned_vm == task.origin_satellite
        if event.kind is (EventKind.TASK_GENERATED if local else EventKind.UPLOAD_COMPLETE):
            arrived[task.id] = event.time
    queued = [task for task in placed if task.id in arrived]

    # FIFO: each VM starts its tasks in arrival order, one after another
    per_vm = defaultdict(list)
    for task_id in arrived:  # dicts keep insertion order, here the event order
        per_vm[tasks[task_id].assigned_vm].append(tasks[task_id])
    for vm_index, run in per_vm.items():
        exec_s = [task.length_mi / sim.vms[vm_index].mips for task in run]
        for k in range(1, len(run)):
            assert run[k].service_start_s >= run[k - 1].service_start_s + exec_s[k - 1]

    # non-negative upload, queue and download delays
    for task in queued:
        assert arrived[task.id] >= task.created_at
        assert task.service_start_s >= arrived[task.id]
    for task in tasks:
        if task.state is TaskState.SUCCEEDED or task.failure_cause is FailureCause.DEADLINE:
            done = task.service_start_s + task.length_mi / sim.vms[task.assigned_vm].mips
            assert task.finished_at >= done


@settings(max_examples=25, deadline=None)
@given(config_texts())
def test_same_config_gives_byte_identical_results_rows(text):
    _, first = _run(text)
    _, second = _run(text)
    assert emit_csv([first]) == emit_csv([second])
