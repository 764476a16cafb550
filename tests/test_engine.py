from __future__ import annotations

import math
import random
from dataclasses import astuple, replace

import numpy as np
import pytest

from satmist.config import parse_config
from satmist.engine import (
    EventKind,
    FailureCause,
    Simulation,
    Task,
    TaskState,
    generate_tasks,
)
from satmist.errors import ConfigurationError
from satmist.layers import Layer
from satmist.netenergy import rx_energy, tx_energy
from satmist.orbital import angular_rate_rad_s, build_constellation


class StaticPositions:
    """Fixed satellite coordinates, ignoring time."""

    def __init__(self, points):
        self._points = np.asarray(points, dtype=np.float64)

    def __len__(self):
        return len(self._points)

    def positions_all(self, t):
        return self._points


class DriftingPositions:
    """Second satellite jumps out of range once t reaches `jump_at`."""

    def __init__(self, near_m, far_m, jump_at):
        self.near_m = near_m
        self.far_m = far_m
        self.jump_at = jump_at

    def __len__(self):
        return 2

    def _gap(self, t):
        return self.far_m if t >= self.jump_at else self.near_m

    def positions_all(self, t):
        return np.array([[0.0, 0.0, 0.0], [self._gap(t), 0.0, 0.0]])


def heavy_task(task_id=0, origin=0, created=0.0, deadline=12.0):
    return Task(
        id=task_id,
        origin_satellite=origin,
        created_at=created,
        length_mi=20_000.0,
        input_bits=8e6,
        output_bits=8e5,
        max_latency_s=deadline,
    )


def test_single_satellite_local_execution():
    cfg = parse_config("constellation.mist=1\nconstellation.edge_dc=0\nconstellation.cloud=0\ntask.rate_per_min=0\n")
    sim = Simulation(cfg, tasks=[heavy_task()])
    record = sim.run()
    task = sim.tasks[0]
    assert task.state is TaskState.SUCCEEDED
    assert task.e2e_s == 2.0
    assert record.succeeded == 1
    assert record.avg_e2e_s == 2.0
    assert record.total_energy_j == 0.0
    assert record.total_energy_db == float("-inf")
    assert record.per_layer_task_counts[Layer.MIST] == 1


def test_two_satellite_offload_hand_trace():
    cfg = parse_config(
        "constellation.mist=1\nconstellation.edge_dc=1\nconstellation.cloud=0\n"
        "task.rate_per_min=0\nvm.edge_mips=10000\narchitecture.layers=edge_dc\n"
    )
    positions = StaticPositions([[0.0, 0.0, 0.0], [1e6, 0.0, 0.0]])
    sim = Simulation(cfg, tasks=[heavy_task()], positions=positions)
    record = sim.run()
    task = sim.tasks[0]
    assert task.state is TaskState.SUCCEEDED
    # 0.008 tx + 0.0033333 prop + 2.0 exec + 0.0008 tx + 0.0033333 prop
    assert task.e2e_s == pytest.approx(2.0154667, abs=1e-7)
    expected_energy = (
        tx_energy(8e6, 1e6) + rx_energy(8e6) + tx_energy(8e5, 1e6) + rx_energy(8e5)
    )
    assert record.total_energy_j == pytest.approx(expected_energy, rel=1e-12)
    assert record.per_layer_task_counts[Layer.EDGE_DC] == 1
    assert record.per_layer_task_counts[Layer.MIST] == 0


def test_upload_event_timing_matches_delay_formulas():
    cfg = parse_config(
        "constellation.mist=1\nconstellation.edge_dc=1\nconstellation.cloud=0\n"
        "task.rate_per_min=0\narchitecture.layers=edge_dc\n"
    )
    positions = StaticPositions([[0.0, 0.0, 0.0], [3e6, 0.0, 0.0]])
    sim = Simulation(cfg, tasks=[heavy_task()], positions=positions,
                     record_events=True)
    sim.run()
    uploads = [e for e in sim.events if e.kind is EventKind.UPLOAD_COMPLETE]
    assert len(uploads) == 1
    assert uploads[0].time == pytest.approx(0.008 + 0.01, rel=1e-12)


def test_no_destination_when_architecture_layer_absent():
    cfg = parse_config(
        "constellation.mist=1\nconstellation.edge_dc=0\nconstellation.cloud=0\n"
        "task.rate_per_min=0\narchitecture.layers=cloud\n"
    )
    sim = Simulation(cfg, tasks=[heavy_task()])
    record = sim.run()
    task = sim.tasks[0]
    assert task.state is TaskState.FAILED
    assert task.failure_cause is FailureCause.NO_DESTINATION
    assert task.finished_at == 0.0
    assert record.failed_no_destination == 1
    assert record.total_energy_j == 0.0


def test_no_destination_when_out_of_range():
    cfg = parse_config(
        "constellation.mist=1\nconstellation.edge_dc=1\nconstellation.cloud=0\n"
        "task.rate_per_min=0\narchitecture.layers=edge_dc\n"
    )
    positions = StaticPositions([[0.0, 0.0, 0.0], [5e7, 0.0, 0.0]])  # > 3.6e7
    sim = Simulation(cfg, tasks=[heavy_task()], positions=positions)
    record = sim.run()
    assert record.failed_no_destination == 1
    assert record.success_rate_pct == 0.0


def test_mobility_failure_when_origin_drifts_away():
    cfg = parse_config(
        "constellation.mist=1\nconstellation.edge_dc=1\nconstellation.cloud=0\n"
        "task.rate_per_min=0\nvm.edge_mips=10000\narchitecture.layers=edge_dc\n"
    )
    positions = DriftingPositions(near_m=1e6, far_m=5e7, jump_at=1.0)
    sim = Simulation(cfg, tasks=[heavy_task()], positions=positions)
    record = sim.run()
    task = sim.tasks[0]
    assert task.state is TaskState.FAILED
    assert task.failure_cause is FailureCause.MOBILITY
    assert record.failed_mobility == 1
    # only the input transfer was charged before the link broke
    expected = tx_energy(8e6, 1e6) + rx_energy(8e6)
    assert record.total_energy_j == pytest.approx(expected, rel=1e-12)


def test_deadline_boundary_is_inclusive():
    cfg = parse_config(
        "constellation.mist=1\nconstellation.edge_dc=0\nconstellation.cloud=0\ntask.rate_per_min=0\n"
    )
    exact = Simulation(cfg, tasks=[heavy_task(deadline=2.0)])
    assert exact.run().succeeded == 1

    brushed = Simulation(cfg, tasks=[heavy_task(deadline=1.9999)])
    record = brushed.run()
    assert record.failed_deadline == 1
    task = brushed.tasks[0]
    assert task.e2e_s > task.max_latency_s


def test_event_at_exact_sim_end_is_processed():
    cfg = parse_config(
        "constellation.mist=1\nconstellation.edge_dc=0\nconstellation.cloud=0\n"
        "task.rate_per_min=0\nsimulation.duration_s=2\n"
    )
    sim = Simulation(cfg, tasks=[heavy_task()])
    record = sim.run()
    assert record.succeeded == 1
    assert record.unfinished == 0


def test_unfinished_tasks_are_censored_not_failed():
    cfg = parse_config(
        "constellation.mist=1\nconstellation.edge_dc=0\nconstellation.cloud=0\n"
        "task.rate_per_min=0\nsimulation.duration_s=10\n"
    )
    tasks = [heavy_task(0, created=0.0), heavy_task(1, created=9.5)]
    sim = Simulation(cfg, tasks=tasks)
    record = sim.run()
    assert record.succeeded == 1
    assert record.unfinished == 1
    assert sim.tasks[1].state in (TaskState.QUEUED, TaskState.EXECUTING)
    assert math.isnan(sim.tasks[1].finished_at)
    assert record.success_rate_pct == 100.0


def test_queue_backlog_execution_states():
    cfg = parse_config(
        "constellation.mist=1\nconstellation.edge_dc=0\nconstellation.cloud=0\n"
        "task.rate_per_min=0\nsimulation.duration_s=3\n"
    )
    tasks = [heavy_task(0, created=0.0), heavy_task(1, created=0.5),
             heavy_task(2, created=0.6)]
    sim = Simulation(cfg, tasks=tasks)
    sim.run()
    # 2 s service each: first done at 2, second executing (2..4), third queued
    assert sim.tasks[0].state is TaskState.SUCCEEDED
    assert sim.tasks[1].state is TaskState.EXECUTING
    assert sim.tasks[2].state is TaskState.QUEUED


def test_conservation_and_deadline_bounds():
    cfg = parse_config(
        "constellation.mist=8\nsimulation.duration_s=90\ntask.rate_per_min=30\n"
    )
    for policy in ("distance_only", "round_robin", "trade_off", "random_vm",
                   "weight_greedy"):
        sim = Simulation(replace(cfg, policy=type(cfg.policy)(policy)))
        record = sim.run()
        assert record.generated == (
            record.succeeded + record.failed_deadline + record.failed_mobility
            + record.failed_no_destination + record.unfinished
        )
        for task in sim.tasks:
            if task.state is TaskState.SUCCEEDED:
                assert task.e2e_s <= task.max_latency_s
            if task.failure_cause is FailureCause.DEADLINE:
                assert task.e2e_s > task.max_latency_s


def test_energy_matches_per_transfer_recorder():
    cfg = parse_config(
        "constellation.mist=6\nsimulation.duration_s=60\npolicy.name=round_robin\n"
    )
    transfers = []
    sim = Simulation(cfg, on_transfer=lambda *args: transfers.append(args))
    record = sim.run()
    total = sum(tx + rx for _, _, _, tx, rx in transfers)
    assert record.total_energy_j == pytest.approx(total, rel=1e-12)
    assert transfers, "expected remote transfers under round_robin"
    for _, bits, d, tx, rx in transfers:
        assert tx == tx_energy(bits, d)
        assert rx == rx_energy(bits)


def test_determinism_full_event_log():
    text = (
        "constellation.mist=5\nsimulation.duration_s=45\npolicy.name=random_vm\n"
        "constellation.phasing=random_uniform\nrng.seed=7\n"
    )
    sim_a = Simulation(parse_config(text), record_events=True)
    sim_b = Simulation(parse_config(text), record_events=True)
    rec_a, rec_b = sim_a.run(), sim_b.run()
    assert rec_a == rec_b
    assert sim_a.events == sim_b.events


def test_events_processed_in_time_seq_order():
    cfg = parse_config("constellation.mist=3\nsimulation.duration_s=30\n")
    sim = Simulation(cfg, record_events=True)
    sim.run()
    keys = [(e.time, e.seq) for e in sim.events]
    assert keys == sorted(keys)


def test_sim_end_recorded_last():
    cfg = parse_config("constellation.mist=2\nsimulation.duration_s=20\n")
    sim = Simulation(cfg, record_events=True)
    sim.run()
    assert sim.events[-1].kind is EventKind.SIM_END
    assert sim.events[-1].time == 20.0


def test_generate_tasks_zero_rate():
    cfg = parse_config("task.rate_per_min=0\n")
    assert generate_tasks(cfg, 0, random.Random(1)) == []


def test_generate_tasks_seed_replay():
    cfg = parse_config("constellation.mist=4\n")
    a = generate_tasks(cfg, 2, random.Random("x"))
    b = generate_tasks(cfg, 2, random.Random("x"))
    assert [t.created_at for t in a] == [t.created_at for t in b]


def test_generate_tasks_poisson_envelope():
    # rate 20/min over 600 s: mean 200, +/-5 sigma envelope
    cfg = parse_config("")
    for seed in (1, 2, 3):
        n = len(generate_tasks(cfg, 0, random.Random(seed)))
        assert 200 - 5 * math.sqrt(200) <= n <= 200 + 5 * math.sqrt(200)
    tasks = generate_tasks(cfg, 0, random.Random(1))
    times = [t.created_at for t in tasks]
    assert times == sorted(times)
    assert all(0 <= t < 600 for t in times)
    assert all(t.length_mi == cfg.task.length_mi for t in tasks)


def test_global_rate_splits_across_origins():
    local = parse_config("constellation.mist=10\ntask.rate_per_min=20\n")
    shared = parse_config(
        "constellation.mist=10\ntask.rate_per_min=20\ntask.rate_is_global=true\n"
    )
    n_local = sum(
        len(generate_tasks(local, i, random.Random(i))) for i in range(10)
    )
    n_shared = sum(
        len(generate_tasks(shared, i, random.Random(i))) for i in range(10)
    )
    # 10x rate difference: ~2000 vs ~200 expected tasks
    assert n_local > 5 * n_shared


def test_arrival_streams_stable_under_constellation_growth():
    small = Simulation(parse_config("constellation.mist=3\nsimulation.duration_s=60\n"))
    large = Simulation(parse_config("constellation.mist=8\nsimulation.duration_s=60\n"))
    times_small = [t.created_at for t in small.tasks if t.origin_satellite == 1]
    times_large = [t.created_at for t in large.tasks if t.origin_satellite == 1]
    assert times_small == times_large


def test_run_is_single_use():
    cfg = parse_config("constellation.mist=1\nconstellation.edge_dc=0\nconstellation.cloud=0\ntask.rate_per_min=0\n")
    sim = Simulation(cfg, tasks=[heavy_task()])
    sim.run()
    with pytest.raises(RuntimeError):
        sim.run()


def test_injected_tasks_must_be_densely_numbered():
    cfg = parse_config("constellation.mist=1\nconstellation.edge_dc=0\nconstellation.cloud=0\ntask.rate_per_min=0\n")
    with pytest.raises(ConfigurationError):
        Simulation(cfg, tasks=[heavy_task(task_id=5)])


def test_injected_tasks_must_be_in_creation_order():
    cfg = parse_config("constellation.mist=1\nconstellation.edge_dc=0\nconstellation.cloud=0\ntask.rate_per_min=0\n")
    with pytest.raises(ConfigurationError, match="creation order"):
        Simulation(cfg, tasks=[heavy_task(0, created=2.0), heavy_task(1, created=1.0)])


def test_position_source_length_must_match_constellation():
    cfg = parse_config("constellation.mist=2\nconstellation.edge_dc=0\nconstellation.cloud=0\n")
    with pytest.raises(ConfigurationError):
        Simulation(cfg, positions=StaticPositions([[0.0, 0.0, 0.0]]))


def test_zero_rate_run_reports_absent_rates():
    cfg = parse_config("constellation.mist=2\ntask.rate_per_min=0\nsimulation.duration_s=30\n")
    record = Simulation(cfg).run()
    assert record.generated == 0
    assert record.success_rate_pct is None
    assert record.avg_e2e_s is None
    assert record.total_energy_j == 0.0
    assert record.avg_vm_cpu_pct == 0.0


def _reference_distances(elements, origin, t):
    """Every satellite's distance from `origin` at t, computed as positions
    were before satellites shared their orbit angles: each satellite its
    own cos/sin, positions as (n, 3) rows, squares summed by np.sum."""
    a, rate, phase, ci, si, co, so = np.array([
        [e.semi_major_axis_m for e in elements],
        [angular_rate_rad_s(e) for e in elements],
        [e.phase_rad for e in elements],
        [math.cos(e.inclination_rad) for e in elements],
        [math.sin(e.inclination_rad) for e in elements],
        [math.cos(e.raan_rad) for e in elements],
        [math.sin(e.raan_rad) for e in elements],
    ])
    th = rate * t
    th += phase
    ct, st = np.cos(th), np.sin(th)
    buf = st * ci
    pos = np.empty((len(elements), 3))
    x = pos[:, 0]
    np.multiply(buf, so, out=x)
    np.negative(x, out=x)
    x += ct * co
    x *= a
    y = pos[:, 1]
    np.multiply(buf, co, out=y)
    y += ct * so
    y *= a
    z = pos[:, 2]
    np.multiply(st, si, out=z)
    z *= a
    diff = pos - pos[origin]
    np.multiply(diff, diff, out=diff)
    return np.sqrt(np.sum(diff, axis=1))


@pytest.mark.parametrize("make_config", [
    pytest.param(lambda: parse_config("task.rate_per_min=0\n"), id="walker_delta"),
    pytest.param(lambda: parse_config("constellation.phasing=random_uniform\ntask.rate_per_min=0\n"),
                 id="random_uniform"),
    # 18 cloud satellites over 8 planes: 3 slots in two planes, 2 in six
    pytest.param(lambda: parse_config("constellation.mist=0\nconstellation.edge_dc=0\n"),
                 id="uneven_planes"),
])
def test_pair_distance_equals_snapshot_bit_for_bit(make_config):
    # subsets of lengths either side of the SIMD kernels' vector widths, whose
    # tails they treat differently, with repeated VMs and the origin's own VM
    sim = Simulation(make_config())
    elements = [e for _, e in build_constellation(sim.config.constellation)]
    distances = sim._distances
    n = len(elements)
    rng = random.Random(77)
    column = np.empty(n)
    for _ in range(400):
        now = rng.uniform(0.0, 600.0)
        origin, host = rng.randrange(n), rng.randrange(n)
        expected = _reference_distances(elements, origin, now)
        distances.at(origin, now)
        distances.fill(column)
        assert np.array_equal(column, expected)
        assert distances.between(origin, [host], now) == [expected[host]]
        vms = [rng.randrange(n) for _ in range(rng.choice((1, 2, 3, 7, 8, 9, 16, 17, 41)))]
        vms[rng.randrange(len(vms))] = origin
        if len(vms) > 2:
            vms[-1] = vms[0]
        assert distances.to_vms(vms) == column[vms].tolist()
        other = rng.randrange(n)  # remembered from to_vms or not
        assert distances.to_vm(vms[-1]) == column[vms[-1]]
        assert distances.to_vm(other) == column[other]


def test_download_distance_equals_upload_distance_on_an_injected_source():
    cfg = parse_config(
        "constellation.mist=6\nconstellation.edge_dc=2\nconstellation.cloud=1\n"
        "task.rate_per_min=30\nsimulation.duration_s=60\npolicy.name=round_robin\n"
    )
    rng = np.random.default_rng(5)
    points = rng.uniform(-7e6, 7e6, size=(9, 3))
    transfers = []
    sim = Simulation(cfg, positions=StaticPositions(points),
                     on_transfer=lambda *args: transfers.append(args))
    sim.run()
    upload = {task_id: d for task_id, bits, d, _, _ in transfers if bits == cfg.task.input_bits}
    download = {task_id: d for task_id, bits, d, _, _ in transfers if bits == cfg.task.output_bits}
    assert len(download) > 10
    for task_id, d in download.items():
        task = sim.tasks[task_id]
        host = task.assigned_vm
        diff = points - points[task.origin_satellite]
        assert d == upload[task_id] == np.sqrt(np.sum(diff * diff, axis=1))[host]


def test_colocated_mist_satellites_keep_distance_only_local():
    cfg = parse_config(
        "constellation.mist=2\nconstellation.edge_dc=0\nconstellation.cloud=0\n"
        "task.rate_per_min=0\n"
    )
    point = [7e6, 0.0, 0.0]
    sim = Simulation(cfg, tasks=[heavy_task(origin=1)],
                     positions=StaticPositions([point, point]))
    record = sim.run()
    assert sim.tasks[0].assigned_vm == 1
    assert sim.tasks[0].state is TaskState.SUCCEEDED
    assert record.total_energy_j == 0.0


def test_static_feasibility_only_when_no_link_can_break():
    # defaults: the largest chord (2 x 16,371 km cloud radius) is below every range
    default = Simulation(parse_config("constellation.mist=20\ntask.rate_per_min=0\n"))
    assert default._view.static_feasible.tolist() == list(range(20 + 24 + 18))
    no_mist = Simulation(parse_config(
        "constellation.mist=20\ntask.rate_per_min=0\narchitecture.layers=edge_dc,cloud\n"))
    assert no_mist._view.static_feasible.tolist() == list(range(20, 20 + 24 + 18))
    # a cloud range one part in 1e8 short of 2 x 16,371 km leaves the check per task
    short = Simulation(parse_config(
        "constellation.mist=20\ntask.rate_per_min=0\nlink.range_cloud_m=32741999\n"))
    assert short._view.static_feasible is None
    # so does an injected position source
    injected = Simulation(
        parse_config("constellation.mist=2\nconstellation.edge_dc=0\nconstellation.cloud=0\n"),
        positions=StaticPositions([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    assert injected._view.static_feasible is None


def test_finished_run_is_freed_without_the_cycle_collector():
    import gc
    import weakref

    cfg = parse_config("constellation.mist=10\nsimulation.duration_s=30\npolicy.name=round_robin\n")
    sim = Simulation(cfg)
    sim.run()
    ref = weakref.ref(sim)
    gc.disable()
    try:
        del sim
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("policy", ["random_vm", "weight_greedy"])
def test_recording_events_changes_no_result(policy):
    # short ranges and random phasing: uploads, downloads, mobility and no-destination failures
    cfg = parse_config(
        "constellation.mist=60\nsimulation.duration_s=60\nconstellation.phasing=random_uniform\n"
        "link.range_mist_m=6e6\nlink.range_edge_m=4e6\nlink.range_cloud_m=12e6\n"
        f"architecture.layers=edge_dc,cloud\npolicy.name={policy}\n"
    )
    plain, recorded = Simulation(cfg), Simulation(cfg, record_events=True)
    assert plain.run() == recorded.run()
    assert not plain.events
    assert [repr(astuple(task)) for task in plain.tasks] \
        == [repr(astuple(task)) for task in recorded.tasks]  # repr: nan == nan
    kinds = {event.kind for event in recorded.events}
    assert {EventKind.TASK_GENERATED, EventKind.UPLOAD_COMPLETE, EventKind.EXECUTION_COMPLETE,
            EventKind.DOWNLOAD_COMPLETE, EventKind.SIM_END} <= kinds
    assert all(isinstance(event.kind, EventKind) for event in recorded.events)
    causes = {task.failure_cause for task in recorded.tasks}
    assert FailureCause.NO_DESTINATION in causes
    assert policy != "random_vm" or FailureCause.MOBILITY in causes
