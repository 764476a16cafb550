from __future__ import annotations

import math
import operator
import random
from dataclasses import astuple, replace

import numpy as np
import pytest

from satmist import engine, orchestrate
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
from satmist.layers import LAYER_CODE, LAYER_ORDER, Layer
from satmist.netenergy import rx_energy, tx_energy
from satmist.orbital import OrbitPositions, Phasing, angular_rate_rad_s, build_constellation
from satmist.orchestrate import FarSet
from support import columns_per_placement, run_single_heap


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
    # the exactly rounded sum of every transfer's charge, in whatever order charged
    assert record.total_energy_j == math.fsum(tx + rx for _, _, _, tx, rx in transfers)
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
    assert generate_tasks(cfg, random.Random(1)) == []


def test_generate_tasks_seed_replay():
    cfg = parse_config("constellation.mist=4\n")
    a = generate_tasks(cfg, random.Random("x"))
    assert a and a == generate_tasks(cfg, random.Random("x"))


def test_generate_tasks_poisson_envelope():
    # rate 20/min over 600 s: mean 200, +/-5 sigma envelope
    cfg = parse_config("")
    for seed in (1, 2, 3):
        n = len(generate_tasks(cfg, random.Random(seed)))
        assert 200 - 5 * math.sqrt(200) <= n <= 200 + 5 * math.sqrt(200)
    times = generate_tasks(cfg, random.Random(1))
    assert times == sorted(times)
    assert all(0 <= t < 600 for t in times)
    task = Simulation(replace(cfg, duration_s=30.0)).tasks[0]
    assert (task.length_mi, task.input_bits, task.output_bits, task.max_latency_s) == (
        cfg.task.length_mi, cfg.task.input_bits, cfg.task.output_bits, cfg.task.max_latency_s)


def test_global_rate_splits_across_origins():
    local = parse_config("constellation.mist=10\ntask.rate_per_min=20\n")
    shared = parse_config(
        "constellation.mist=10\ntask.rate_per_min=20\ntask.rate_is_global=true\n"
    )
    n_local = sum(
        len(generate_tasks(local, random.Random(i))) for i in range(10)
    )
    n_shared = sum(
        len(generate_tasks(shared, random.Random(i))) for i in range(10)
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


@pytest.mark.parametrize("origin", [-1, 52, 9999])
def test_injected_tasks_must_originate_at_a_satellite(origin):
    # 10 mist + 24 edge + 18 cloud: satellites 0..51
    cfg = parse_config("constellation.mist=10\ntask.rate_per_min=0\n")
    with pytest.raises(ConfigurationError, match="originates at satellite"):
        Simulation(cfg, tasks=[heavy_task(0, origin=3), heavy_task(1, origin=origin, created=1.0)])


def test_injected_tasks_and_arrivals_are_exclusive():
    cfg = parse_config("constellation.mist=1\nconstellation.edge_dc=0\nconstellation.cloud=0\n")
    with pytest.raises(ConfigurationError, match="not both"):
        Simulation(cfg, tasks=[heavy_task()], arrivals=engine.draw_arrivals(cfg))


def test_arrival_at_a_completion_time_is_handled_before_it(monkeypatch):
    # task 0 runs 2 s on its own satellite; task 1 arrives as it completes, so
    # its placement still sees task 0 in the queue, and its arrival is logged first
    cfg = parse_config(
        "constellation.mist=1\nconstellation.edge_dc=0\nconstellation.cloud=0\n"
        "simulation.duration_s=10\n")
    seen = []
    select = engine.select

    def select_seeing_queues(policy, view, *args, **kwargs):
        seen.append(view.queue_lens.tolist())
        return select(policy, view, *args, **kwargs)

    monkeypatch.setattr(engine, "select", select_seeing_queues)
    sim = Simulation(cfg, tasks=[heavy_task(0), heavy_task(1, created=2.0)], record_events=True)
    sim.run()
    assert seen == [[0.0], [1.0]]
    assert [(e.time, e.seq, e.kind, e.task_id) for e in sim.events[:3]] == [
        (0.0, 0, EventKind.TASK_GENERATED, 0),
        (2.0, 1, EventKind.TASK_GENERATED, 1),
        (2.0, 2, EventKind.EXECUTION_COMPLETE, 0),
    ]
    assert sim.tasks[1].service_start_s == 2.0


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


_GEOMETRIES = [
    pytest.param(lambda: parse_config("task.rate_per_min=0\n"), id="walker_delta"),
    pytest.param(lambda: parse_config("constellation.phasing=random_uniform\ntask.rate_per_min=0\n"),
                 id="random_uniform"),
    # 18 cloud satellites over 8 planes: 3 slots in two planes, 2 in six
    pytest.param(lambda: parse_config("constellation.mist=0\nconstellation.edge_dc=0\n"),
                 id="uneven_planes"),
]


def _far_set(sim):
    """The engine's far set, or one from satellite 5 on where it sets none (the cloud-only shell)."""
    return sim._view.far or FarSet(5, 0.0)


def _far_distances(sim, tasks, far_set):
    """A _Distances over `tasks` whose far rows, far_set.start on, come from the
    run's far-only OrbitPositions, or from one built here over those satellites
    where the run has none; checks that a Walker shell's far satellites share
    orbit angles, so the rows take fewer cos and sin than satellites."""
    far_positions = sim._distances._far_positions or OrbitPositions(
        [e for _, e in build_constellation(sim.config.constellation)][far_set.start:])
    shared = len(far_positions._rate) < len(far_positions)
    assert shared == (sim.config.constellation.phasing is Phasing.WALKER_DELTA)
    return engine._Distances(sim.positions, tasks, far_set, far_positions=far_positions)


@pytest.mark.parametrize("make_config", _GEOMETRIES)
def test_pair_distance_equals_snapshot_bit_for_bit(make_config):
    # pair and to_vm before any read of the placement, including the origin's own
    # VM; the far satellites' block rows, from their own OrbitPositions and read in
    # a random arrival order, and to_vm from them; then the column
    sim = Simulation(make_config())
    elements = [e for _, e in build_constellation(sim.config.constellation)]
    n, far_set = len(elements), _far_set(sim)
    start = far_set.start
    rng = random.Random(77)
    tasks = [heavy_task(k, rng.randrange(n), rng.uniform(0.0, 600.0)) for k in range(400)]
    distances = _far_distances(sim, tasks, far_set)
    for k in rng.sample(range(len(tasks)), len(tasks)):
        origin, now, host = tasks[k].origin_satellite, tasks[k].created_at, rng.randrange(n)
        expected = _reference_distances(elements, origin, now)
        assert distances.pair(origin, host, now) == expected[host]
        distances.at(k)
        other = rng.randrange(n)
        assert distances.to_vm(origin) == expected[origin] == 0.0
        assert distances.to_vm(other) == expected[other]
        assert distances.far_row().tolist() == expected[start:].tolist()
        for vm in (rng.randrange(start, n), rng.randrange(n)):  # from the far row or alone
            assert distances.to_vm(vm) == expected[vm]
        assert np.array_equal(distances.column(), expected)
        assert distances.to_vm(other) == expected[other]  # from the column


@pytest.mark.parametrize("mist", [100, 300, 1000])
def test_near_finds_every_first_block_vm_within_the_radius(mist):
    # random origins, times and radii on 8 planes, uneven at 100 and 300 mist
    # (planes of 13 and 12, and of 38 and 37 slots), radii at and one step below
    # a column distance among them: near's VMs hold every first-block VM whose
    # column distance is at most r, each once, none more than R = r (1 + 1e-9)
    # + 1 m away, with the column's distances bit for bit
    cfg = parse_config(f"constellation.mist={mist}\ntask.rate_per_min=0\n")
    geometry = engine.Geometry(cfg.constellation)
    far = engine._far_set(geometry)
    rng = random.Random(mist)
    tasks = [heavy_task(k, rng.randrange(mist), rng.uniform(0.0, 600.0)) for k in range(150)]
    distances = engine._Distances(geometry.positions, tasks, far, near=geometry.near)
    assert far.start == mist and distances.near_radius == 2.0 * geometry.near.spacing
    found = 0
    for k, task in enumerate(tasks):
        distances.at(k)
        column = _column_alone(geometry.positions, task.origin_satellite, task.created_at)[:mist]
        some = float(column[rng.randrange(mist)])
        for r in (rng.uniform(0.0, 4e6), some, float(np.nextafter(some, 0.0)), distances.near_radius,
                  0.0, -1.0):
            ids, d = distances.near(r)
            assert set(np.flatnonzero(column <= r).tolist()) <= set(ids), (k, r)
            assert len(set(ids)) == len(ids) and all(0 <= i < mist for i in ids)
            assert d == column[ids].tolist(), (k, r)
            assert all(x <= r * (1.0 + 1e-9) + 1.0 for x in d), (k, r)
            found += len(ids)
    assert found > 10 * len(tasks)


def test_near_query_only_for_walker_phasing_with_a_far_set():
    # the run's source asks its first neighbour query at two slot spacings; random_uniform
    # gives every satellite a plane of its own, and a single layer has no far set
    radii = {}
    for name, text in (("walker", ""), ("scattered", "constellation.phasing=random_uniform\n"),
                       ("one_layer", "constellation.edge_dc=0\nconstellation.cloud=0\n")):
        cfg = parse_config(text + "task.rate_per_min=0\n")
        geometry = engine.Geometry(cfg.constellation)
        sim = Simulation(cfg, geometry=geometry)
        assert (geometry.near is None) == (name != "walker")
        assert (sim._view.far is None) == (name == "one_layer")
        radii[name] = sim._distances.near_radius
        if geometry.near is not None:
            assert radii[name] == 2.0 * geometry.near.spacing > 0.0
    assert radii["scattered"] is None and radii["one_layer"] is None


def _hex(values: np.ndarray) -> list[str]:
    return [float.hex(x) for x in values.tolist()]


@pytest.mark.parametrize("make_config", _GEOMETRIES)
def test_every_far_row_equals_the_column_bit_for_bit(make_config):
    # every arrival of a seeded run, read in order as the engine reads them,
    # so rows 0, B-1 and B of each block and the last, partial block are all read
    cfg = make_config()
    sim = Simulation(replace(cfg, duration_s=1.5, task=replace(cfg.task, rate_per_min=20.0)))
    n, far_set = len(sim.positions), _far_set(sim)
    start = far_set.start
    distances = _far_distances(sim, sim.tasks, far_set)
    rows = distances._block_rows
    if not sim.tasks:  # the cloud-only shell generates none: every satellite originates some
        sim.tasks[:] = [heavy_task(k, k % n, 0.05 * k) for k in range(2 * rows + rows // 2)]
    assert len(sim.tasks) > 2 * rows and len(sim.tasks) % rows
    for k in range(len(sim.tasks)):
        distances.at(k)
        far = distances.far_row()
        assert distances._first == k - k % rows
        assert _hex(far) == _hex(distances.column()[start:]), k


def test_far_rows_of_injected_tasks_equal_the_column_bit_for_bit():
    cfg = parse_config("constellation.mist=40\npolicy.name=weight_greedy\n")
    rng = random.Random(3)
    times = sorted(rng.uniform(0.0, 60.0) for _ in range(150))
    tasks = [heavy_task(k, rng.randrange(40), t) for k, t in enumerate(times)]
    sim = Simulation(cfg, tasks=tasks)
    distances, start = sim._distances, sim._view.far.start
    for k in (0, 1, 149, 40, 41, 42, 99, 100):  # blocks start wherever a read misses
        distances.at(k)
        far = distances.far_row()
        assert _hex(far) == _hex(distances.column()[start:]), k


# ranges below the inter-shell distances, so feasibility is checked per task
_SHORT_LINKS = "link.range_mist_m=6e6\nlink.range_edge_m=9e6\nlink.range_cloud_m=17e6\n"


def _column_alone(positions, origin: int, now: float) -> np.ndarray:
    """The column as a placement computes it alone: positions_all, then _norms."""
    pos = positions.positions_all(now).T
    return engine._norms(pos - pos[:, origin, None], np.empty(pos.shape[1]))


def _check_block_row(sim, k: int, rows: int) -> np.ndarray:
    """Arrival k's column computed alone; its feasible slice, read from block
    k // rows, and to_vm of each feasible VM must equal it bit for bit."""
    task, distances = sim.tasks[k], sim._distances
    expected = _column_alone(sim.positions, task.origin_satellite, task.created_at)
    distances.at(k)
    idx, d = distances.feasible()
    assert distances._set_block == k // rows, k
    assert _hex(d) == _hex(expected[idx]), k
    assert [distances.to_vm(vm) for vm in idx.tolist()] == expected[idx].tolist(), k
    column = distances.column()
    assert distances.column() is column and sim._view.distances is column
    assert _hex(column) == _hex(expected), k
    return idx


@pytest.mark.parametrize("mist, phasing, duration", [
    (40, "walker_delta", 18.0), (40, "random_uniform", 18.0),
    (1000, "walker_delta", 0.55), (1000, "random_uniform", 0.55),
])
def test_every_block_feasible_slice_and_to_vm_equal_the_column_alone_bit_for_bit(mist, phasing,
                                                                                  duration):
    # every arrival of a seeded run, read in order as the engine reads them, so
    # rows 0, B-1 and B of each block and the last, partial block are all read;
    # blocks start at multiples of B, and to_vm reads each feasible VM's distance
    # from the arrival's slice
    cfg = parse_config(f"constellation.mist={mist}\nconstellation.phasing={phasing}\n"
                       f"simulation.duration_s={duration}\n" + _SHORT_LINKS)
    sim = Simulation(cfg)
    distances, n = sim._distances, len(sim.positions)
    rows = distances._block_rows
    assert sim._view.static_feasible is None and distances._whole
    assert rows == engine._COLUMN_BLOCK_VALUES // n
    assert len(sim.tasks) > 2 * rows and len(sim.tasks) % rows
    sizes = [_check_block_row(sim, k, rows).size for k in range(len(sim.tasks))]
    assert min(sizes) > 0 and max(sizes) > 1


def test_feasible_slices_of_injected_tasks_read_back_and_forth_equal_the_column_alone():
    # injected tasks from satellites of every layer, with ties in time; the read
    # order goes back and forth, and each read finds its arrival's block at k // B
    cfg = parse_config("constellation.mist=40\nconstellation.phasing=random_uniform\n"
                       "policy.name=trade_off\n" + _SHORT_LINKS)
    rng = random.Random(5)
    times = sorted(round(rng.uniform(0.0, 60.0), 1) for _ in range(250))
    tasks = [heavy_task(k, rng.randrange(82), t) for k, t in enumerate(times)]
    sim = Simulation(cfg, tasks=tasks)
    rows = sim._distances._block_rows
    assert rows == engine._COLUMN_BLOCK_VALUES // 82
    for k in (0, 1, 249, rows - 1, rows, rows + 1, 2, 2 * rows - 1, 2 * rows, 248):
        _check_block_row(sim, k, rows)


def test_feasible_slices_of_one_row_blocks_past_the_block_size():
    # more satellites than a block holds values: each block is one arrival's set
    cfg = parse_config("constellation.mist=8200\n" + _SHORT_LINKS)
    tasks = [heavy_task(k, origin, 2.5 * (k // 2)) for k, origin in enumerate((0, 8199, 8241, 17))]
    sim = Simulation(cfg, tasks=tasks)
    n = len(sim.positions)
    assert n > engine._COLUMN_BLOCK_VALUES and sim._distances._block_rows == 1
    for k in (0, 1, 3, 2):
        assert _check_block_row(sim, k, 1).size > 0


def _check_feasible_row(sim, k: int) -> int:
    """Arrival k's feasible set from the source against the column computed alone:
    the VMs of an enabled layer within its range, their distances, and, in a
    weight_greedy run, the distance and energy terms weight_greedy's full path
    gives over them, bit for bit. Returns the set's size."""
    cfg, task, distances = sim.config, sim.tasks[k], sim._distances
    column = _column_alone(sim.positions, task.origin_satellite, task.created_at)
    codes = sim._view.layer_codes
    enabled = np.isin(codes, [LAYER_CODE[layer] for layer in cfg.architecture])
    reach = np.array([cfg.link.range_by_layer[layer] for layer in LAYER_ORDER])[codes]
    expected = np.flatnonzero(enabled & (column <= reach))
    distances.at(k)
    idx, d = distances.feasible()
    assert idx.tolist() == expected.tolist(), k
    assert _hex(d) == _hex(column[expected]), k
    if cfg.policy is orchestrate.PolicyId.WEIGHT_GREEDY:
        same, dn, en = distances.feasible_terms()
        assert same.tolist() == expected.tolist(), k
        if d.size == 0:
            assert dn.size == en.size == 0, k
            return 0
        energy = np.array([tx_energy(task.input_bits, x, cfg.radio) for x in d.tolist()])
        assert _hex(dn) == _hex(orchestrate._minmax_into(d, 6.0, np.empty(d.size))), k
        assert _hex(en) == _hex(orchestrate._minmax_into(energy, 3.0, energy)), k
    return expected.size


@pytest.mark.parametrize("mist, phasing, duration, text", [
    (40, "walker_delta", 18.0, ""),
    (40, "random_uniform", 18.0, "radio.eps_mp=1.2e-15\n"),  # energy falls at the crossover
    (40, "random_uniform", 18.0, "architecture.layers=mist,cloud\npolicy.name=trade_off\n"),
    (1000, "random_uniform", 0.55, ""),
])
def test_every_block_row_feasible_set_and_terms_equal_the_full_path(mist, phasing, duration, text):
    # every arrival of a seeded run, read in order as the engine reads them, so
    # rows 0, B-1 and B of each block and the last, partial block are all read;
    # the tasks' input bits vary, 0 among them
    cfg = parse_config(f"constellation.mist={mist}\nconstellation.phasing={phasing}\n"
                       f"simulation.duration_s={duration}\npolicy.name=weight_greedy\n"
                       + _SHORT_LINKS + text)
    sim = Simulation(cfg)
    rows = sim._distances._block_rows
    assert sim._view.feasible_sets and len(sim.tasks) > 2 * rows and len(sim.tasks) % rows
    assert (sim._distances._feasible_terms_of is not None) == (cfg.policy.value == "weight_greedy")
    rng = random.Random(mist)
    for task in sim.tasks:
        task.input_bits = rng.choice((0.0, 8e6, 1.6e9, 3.3e5, 1.0))
    sizes = [_check_feasible_row(sim, k) for k in range(len(sim.tasks))]
    assert min(sizes) > 0 and max(sizes) > 1


# every mist origin finds no VM: no mist VM is enabled, and the edge and cloud
# shells lie farther than their ranges (1.6e6 and 9.6e6 m up); every edge or
# cloud origin finds its own VM, at 0 m
_NO_VM_FROM_MIST = ("architecture.layers=edge_dc,cloud\npolicy.name=weight_greedy\n"
                    "link.range_edge_m=1e6\nlink.range_cloud_m=9e6\n")


def test_block_rows_with_no_feasible_vm_inside_and_at_the_end_of_a_block():
    # B = 99 rows at 82 satellites. Block 0 has empty rows in its middle and as
    # its last row, block 1 has none but empty rows, and the last, partial block
    # ends with two; each raises PlacementError in the run, a NO_DESTINATION failure
    cfg = parse_config("constellation.mist=40\nconstellation.phasing=random_uniform\n"
                       + _NO_VM_FROM_MIST)
    rows = engine._COLUMN_BLOCK_VALUES // 82
    empty = {0: {50, 51, 98}, 1: set(range(rows)), 2: {1, 3, 4}}
    rng = random.Random(9)
    tasks = [heavy_task(k, rng.randrange(40) if k % rows in empty[k // rows] else rng.randrange(40, 82),
                        0.1 * k) for k in range(2 * rows + 5)]
    sim = Simulation(cfg, tasks=tasks)
    assert sim._distances._block_rows == rows
    sizes = [_check_feasible_row(sim, k) for k in range(len(tasks))]
    assert [k for k, size in enumerate(sizes) if size == 0] \
        == [k for k in range(len(tasks)) if k % rows in empty[k // rows]]
    assert max(sizes) > 1
    record = Simulation(cfg, tasks=[replace(task) for task in tasks]).run()
    assert record.failed_no_destination == sizes.count(0)


def test_block_feasible_sets_keep_a_vm_at_exactly_its_range():
    # the range is inclusive: the edge range set to one arrival's distance to an
    # edge VM keeps that VM in the arrival's set, and one step less drops it
    text = "constellation.mist=40\nconstellation.phasing=random_uniform\n" + _SHORT_LINKS
    probe = Simulation(parse_config(text))
    task = probe.tasks[5]
    column = _column_alone(probe.positions, task.origin_satellite, task.created_at)
    edge = 40 + int(column[40:64].argmin())
    for reach, kept in ((column[edge], True), (np.nextafter(column[edge], 0.0), False)):
        sim = Simulation(parse_config(text + f"link.range_edge_m={float(reach)!r}\n"))
        _check_feasible_row(sim, 5)
        assert (edge in sim._distances.feasible()[0].tolist()) == kept


def test_one_row_block_feasible_sets_past_the_block_size():
    # more satellites than a block holds values: each block is one arrival's row,
    # and the mist origins' rows are empty
    cfg = parse_config("constellation.mist=8200\n" + _NO_VM_FROM_MIST)
    tasks = [heavy_task(k, origin, 2.5 * (k // 2))
             for k, origin in enumerate((0, 8241, 8200, 17, 8199))]
    sim = Simulation(cfg, tasks=tasks)
    assert len(sim.positions) > engine._COLUMN_BLOCK_VALUES and sim._distances._block_rows == 1
    sizes = {k: _check_feasible_row(sim, k) for k in (0, 1, 4, 3, 2)}
    assert [k for k in sorted(sizes) if sizes[k] == 0] == [0, 3, 4]  # the mist origins


def test_random_vm_draws_alike_on_blocks_and_per_placement_when_placements_fail():
    # one draw per call, before the feasible set is read, also when no VM is
    # feasible: the policy RNG ends in the same state on both sources
    text = ("constellation.mist=100\nconstellation.phasing=random_uniform\npolicy.name=random_vm\n"
            "architecture.layers=edge_dc,cloud\nsimulation.duration_s=10\n"
            "link.range_edge_m=4e6\nlink.range_cloud_m=6e6\n")
    blocks = Simulation(parse_config(text))
    alone = columns_per_placement(Simulation(parse_config(text)))
    record = blocks.run()
    assert record == alone.run()
    assert 0 < record.failed_no_destination < record.generated
    assert [task.assigned_vm for task in blocks.tasks] == [task.assigned_vm for task in alone.tasks]
    assert blocks._policy_rng.getstate() == alone._policy_rng.getstate()
    assert blocks._view.feasible_sets and not alone._view.feasible_sets


def _outcomes(sim) -> list[tuple]:
    return [(task.assigned_vm, task.state, task.failure_cause) for task in sim.tasks]


def test_distance_only_off_its_origins_layer_picks_from_the_feasible_set():
    # no mist VM is enabled, so every placement leaves the origin: the nearest VM
    # of the arrival's feasible slice, first of equal minima, is the column's
    # nearest, and no placement reads a column
    text = ("constellation.mist=100\nconstellation.phasing=random_uniform\n"
            "policy.name=distance_only\narchitecture.layers=edge_dc,cloud\n"
            "simulation.duration_s=10\nlink.range_edge_m=4e6\nlink.range_cloud_m=6e6\n")
    sets = Simulation(parse_config(text))
    alone = columns_per_placement(Simulation(parse_config(text)))
    sets.positions.positions_all = lambda t: pytest.fail("a column read on the per-task path")
    record = sets.run()
    assert sets._view.feasible_sets and not alone._view.feasible_sets
    assert record == alone.run()
    assert 0 < record.failed_no_destination < record.generated
    assert _outcomes(sets) == _outcomes(alone)


# configs with per-task feasibility: a radio whose energy falls at the crossover,
# tasks with no input, a short mist range with no edge layer, and no mist layer
# with short edge and cloud ranges (NO_DESTINATION failures)
_PER_TASK_CONFIGS = [
    "radio.eps_mp=1.2e-15\n",
    "task.input_bits=0\n",
    "architecture.layers=mist,cloud\nlink.range_mist_m=1e6\n",
    "architecture.layers=edge_dc,cloud\nlink.range_edge_m=4e6\nlink.range_cloud_m=6e6\n",
]


@pytest.mark.parametrize("text", _PER_TASK_CONFIGS, ids=["split_radio", "no_input", "mist_cloud",
                                                         "edge_cloud"])
@pytest.mark.parametrize("policy", list(orchestrate.PolicyId))
@pytest.mark.parametrize("shared", [False, True], ids=["own_rows", "stored_slices"])
def test_to_vm_on_the_per_task_path_equals_the_column_alone_bit_for_bit(text, policy, shared):
    # every upload's distance, from the block row this run filled or from the
    # pick's feasible slice of a stored block, against the column computed alone
    # for that arrival
    cfg = parse_config("constellation.mist=60\nconstellation.phasing=random_uniform\n"
                       f"simulation.duration_s=20\npolicy.name={policy.value}\n"
                       + _SHORT_LINKS + text)
    store = None
    if shared:  # a run of the same key keeps every block first
        store = engine.SetStore()
        Simulation(replace(cfg, policy=orchestrate.PolicyId.ROUND_ROBIN), set_store=store).run()
    sim = Simulation(cfg, set_store=store)
    distances = sim._distances
    assert distances._whole
    to_vm, checked = distances.to_vm, []

    def checked_to_vm(vm):
        got = to_vm(vm)
        assert distances._own_rows is not shared
        task = sim.tasks[distances._k]
        expected = _column_alone(sim.positions, task.origin_satellite, task.created_at)[vm]
        assert float.hex(got) == float.hex(float(expected)), (distances._k, vm)
        checked.append(vm)
        return got

    distances.to_vm = checked_to_vm
    record = sim.run()
    uploads = sum(task.assigned_vm not in (-1, task.origin_satellite) for task in sim.tasks)
    assert len(checked) == uploads
    assert uploads > 0 or (policy is orchestrate.PolicyId.DISTANCE_ONLY and "edge_dc" not in text)
    assert record.generated > 50


@pytest.mark.parametrize("policy", list(orchestrate.PolicyId))
def test_feasibility_per_task_reads_every_column_from_blocks(monkeypatch, policy):
    # the feasible sets come from positions_over, a block at a time, and no placement
    # reads positions_all; distance_only keeps each task on its own enabled mist VM
    # and reads none. No far set, so neither weight_greedy's shortlist nor its
    # busy-origin path runs, and no neighbour query is asked
    cfg = parse_config(f"constellation.mist=100\nconstellation.phasing=random_uniform\n"
                       f"policy.name={policy.value}\nsimulation.duration_s=5\n" + _SHORT_LINKS)
    sim = Simulation(cfg)
    calls = []
    positions_over = sim.positions.positions_over
    sim.positions.positions_all = lambda t: pytest.fail("a column from positions_all")
    sim.positions.positions_over = lambda times: calls.append(len(times)) or positions_over(times)
    sim._distances.near = lambda r: pytest.fail("a neighbour query")
    assert sim._view.static_feasible is None and sim._view.far is None
    record = sim.run()
    assert record.generated > 100
    rows = sim._distances._block_rows
    assert bool(calls) == (policy is not orchestrate.PolicyId.DISTANCE_ONLY)
    assert len(calls) <= -(-record.generated // rows) and all(0 < m <= rows for m in calls)


@pytest.mark.parametrize("text, positions", [
    *((f"policy.name={policy.value}\n", None) for policy in orchestrate.PolicyId),
    ("policy.name=random_vm\n" + _SHORT_LINKS, StaticPositions(np.zeros((142, 3)))),
], ids=[*(policy.value for policy in orchestrate.PolicyId), "injected_positions"])
def test_only_feasibility_per_task_on_the_orbits_fills_column_blocks(monkeypatch, text, positions):
    # with static feasibility, as with an injected position source, each placement
    # computes the column it reads, and no block of columns or feasible sets is filled
    monkeypatch.setattr(engine._Distances, "_fill_whole", lambda self, b: pytest.fail("column block"))
    sim = Simulation(parse_config("constellation.mist=100\nsimulation.duration_s=3\n" + text),
                     positions=positions)
    assert not sim._distances._whole and not sim._view.feasible_sets
    assert sim.run().generated > 100


def test_distance_column_computed_once_per_instant():
    # column() reads the positions on its first call after each at(), and the
    # view's distances are that column; the far reads never read them all
    sim = Simulation(parse_config("constellation.mist=20\ntask.rate_per_min=0\npolicy.name=weight_greedy\n"),
                     tasks=[heavy_task(0, origin=3, created=5.0), heavy_task(1, origin=4, created=5.0)])
    times = []
    positions_all = sim.positions.positions_all
    sim.positions.positions_all = lambda t: times.append(t) or positions_all(t)
    distances = sim._distances
    distances.at(0)
    distances.far_row()
    distances.far_terms()
    distances.to_vm(50)
    assert times == []
    column = distances.column()
    assert distances.column() is column and sim._view.distances is column
    assert times == [5.0]
    assert distances.to_vm(40) == column[40] and times == [5.0]
    distances.at(1)  # a new placement at the same time fills again
    assert sim._view.distances[3] == column[3] > 0.0
    assert times == [5.0, 5.0]


def test_to_vm_reads_a_far_row_only_when_the_placement_read_it(monkeypatch):
    blocks = []
    fill_block = engine._Distances._fill_block
    monkeypatch.setattr(engine._Distances, "_fill_block",
                        lambda self: blocks.append(self._k) or fill_block(self))
    sim = Simulation(parse_config("constellation.mist=20\ntask.rate_per_min=0\n"),
                     tasks=[heavy_task(k, origin=k, created=float(k)) for k in range(3)])
    distances = sim._distances
    distances.at(0)
    assert distances.to_vm(30) == distances.pair(0, 30, 0.0)
    assert blocks == []
    distances.far_row()
    assert blocks == [0]
    distances.at(1)  # the block holds arrival 1's row, but this placement has not read it
    distances._block[1, 30 - 20] = -1.0
    assert distances.to_vm(30) == distances.pair(1, 30, 1.0) > 0.0
    distances.far_row()
    assert distances.to_vm(30) == -1.0 and blocks == [0]


@pytest.mark.parametrize("policy", ["round_robin", "random_vm"])
def test_policies_that_read_no_far_distance_compute_no_block(monkeypatch, policy):
    monkeypatch.setattr(engine._Distances, "_fill_block", lambda self: pytest.fail("block"))
    sim = Simulation(parse_config(f"policy.name={policy}\nsimulation.duration_s=2\n"))
    assert sim._view.far is not None
    assert sim.run().generated > 100


@pytest.mark.parametrize("text", [
    "architecture.layers=mist,edge_dc,cloud\n",
    "architecture.layers=mist,cloud\n",
    # two edge VMs alone: from some origins and times both lie within the mist chord
    "architecture.layers=mist,edge_dc\nconstellation.edge_dc=2\n",
], ids=["every_layer", "no_edge", "no_cloud"])
def test_far_term_orders_walk_the_enabled_far_row_nearest_first(text):
    # every arrival's far row and walk order, read in order as the engine reads
    # them (rows 0, B-1 and B of each block and the last, partial block): the row
    # is the column's far tail, bit for bit, and the order holds each enabled far
    # column once, nearest first, so its last is the largest enabled distance
    cfg = parse_config("constellation.mist=100\npolicy.name=weight_greedy\n" + text)
    rng = random.Random(41)
    rows = engine._BLOCK_VALUES // (len(build_constellation(cfg.constellation)) - 100)
    times = sorted(rng.uniform(0.0, 600.0) for _ in range(2 * rows + rows // 2))
    tasks = [heavy_task(k, rng.randrange(100), t) for k, t in enumerate(times)]
    sim = Simulation(cfg, tasks=tasks)
    distances, far = sim._distances, sim._view.far
    assert distances._block_rows == rows
    enabled = [LAYER_CODE[layer] for layer in cfg.architecture]
    codes = sim._view.layer_codes
    columns = np.flatnonzero(np.isin(codes[far.start:], enabled))
    ends = far.runs.tolist() + [len(codes)]
    assert ends[:2] == [0, far.start] and ends == sorted(set(ends))
    runs = [(ends[k], ends[k + 1]) for k, _ in far.layers]
    assert [vm for lo, hi in runs for vm in range(lo, hi)] == (columns + far.start).tolist()
    assert all(len(set(codes[lo:hi].tolist())) == 1 for lo, hi in zip(ends, ends[1:]))
    short = 0
    for k in range(len(tasks)):
        distances.at(k)
        row, order = distances.far_terms()
        assert distances._first == k - k % rows
        assert _hex(row) == _hex(distances.column()[far.start:]), k
        assert sorted(order) == columns.tolist(), k
        walked = row[order]
        assert np.all(walked[:-1] <= walked[1:]) and walked[-1] == row[columns].max(), k
        short += walked[-1] < far.chord
    assert short < len(tasks) and (short > 0) == ("cloud" not in text), short


@pytest.mark.parametrize("text", [
    "policy.name=distance_only\n",
    "policy.name=round_robin\n",
    "policy.name=trade_off\n",
    "policy.name=random_vm\n",
    "policy.name=weight_greedy\nlink.range_cloud_m=32741999\n",  # feasibility per task
    "policy.name=weight_greedy\nradio.eps_mp=1.2e-15\n",  # energy falls at the crossover
    "policy.name=weight_greedy\narchitecture.layers=mist\n",  # no far VM enabled
    "policy.name=weight_greedy\n",
], ids=["distance_only", "round_robin", "trade_off", "random_vm", "per_task_feasibility",
        "split_radio", "no_far_layer", "weight_greedy"])
def test_term_rows_computed_only_where_weight_greedy_reads_them(monkeypatch, text):
    calls = []
    far_terms = orchestrate.far_terms
    monkeypatch.setattr(orchestrate, "far_terms",
                        lambda *args, **kwargs: calls.append(len(args[0])) or far_terms(*args, **kwargs))
    sim = Simulation(parse_config(text + "simulation.duration_s=2\n"))
    assert sim.run().generated > 100
    reads = text == "policy.name=weight_greedy\n"
    assert (sim._distances._terms_of is not None) == reads
    assert bool(calls) == reads


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


def test_far_set_only_where_it_pays():
    # the VMs after the first layer's block: the 42 edge and cloud satellites
    default = Simulation(parse_config("task.rate_per_min=0\n"))._view.far
    assert default.start == 1000
    assert default.chord == 2 * (6_371e3 + 400e3) * (1.0 + 1e-9)
    # at 100 mist too (42 of 142), and after the edge block without mist
    assert Simulation(parse_config("constellation.mist=100\ntask.rate_per_min=0\n"))._view.far.start == 100
    no_mist = Simulation(parse_config("constellation.mist=0\ntask.rate_per_min=0\n"))._view.far
    assert no_mist.start == 24 and no_mist.chord == 2 * (6_371e3 + 2_000e3) * (1.0 + 1e-9)
    # not in a one-layer shell, nor where feasibility or positions are not static
    for text, positions in (("constellation.mist=0\nconstellation.edge_dc=0\n", None),
                            ("link.range_cloud_m=32741999\n", None),
                            ("", StaticPositions(np.zeros((1042, 3))))):
        sim = Simulation(parse_config(text + "task.rate_per_min=0\n"), positions=positions)
        assert sim._view.far is None


@pytest.mark.parametrize("text", ["", "architecture.layers=mist,cloud\n"],
                         ids=["every_layer", "no_edge"])
def test_far_set_changes_no_weight_greedy_placement(monkeypatch, text):
    # with and without the far set: the same VM for every task, the same record,
    # and nearly every placement made without the distance column: busy origins
    # too, which ask for their near VMs, and some of those pick one
    cfg = parse_config("policy.name=weight_greedy\nsimulation.duration_s=6\n" + text)
    shortlisted, full = Simulation(cfg), Simulation(cfg)
    full._view.far = None
    fills = {}  # the column is each run's only positions_all caller
    for name, sim in (("shortlisted", shortlisted), ("full", full)):
        positions_all, fills[name] = sim.positions.positions_all, []
        sim.positions.positions_all = \
            lambda t, f=positions_all, calls=fills[name]: calls.append(t) or f(t)
    asked = []
    near = engine._Distances.near
    monkeypatch.setattr(engine._Distances, "near",
                        lambda self, r: asked.append(self._k) or near(self, r))
    assert shortlisted.run() == full.run()
    assert [task.assigned_vm for task in shortlisted.tasks] == [task.assigned_vm for task in full.tasks]
    assert any(task.assigned_vm >= 1000 for task in full.tasks)
    assert len(fills["full"]) == len(full.tasks)
    busy = set(asked)
    assert len(busy) > len(full.tasks) / 10
    assert len(fills["shortlisted"]) < len(busy) / 10
    near_picks = [k for k in busy if shortlisted.tasks[k].assigned_vm not in (
        shortlisted.tasks[k].origin_satellite, *range(1000, 1042))]
    assert len(near_picks) > len(busy) / 10


def test_weight_greedy_reads_every_far_row_it_fills(monkeypatch):
    # on the 1000 + 24 + 18 Walker constellation each placement, busy origins
    # among them, reads its far row: the blocks compute no row that goes unread
    sim = Simulation(parse_config("policy.name=weight_greedy\nsimulation.duration_s=5\n"))
    filled, read = [], set()
    fill_block, far_terms = engine._Distances._fill_block, engine._Distances.far_terms

    def filling(self):
        fill_block(self)
        filled.extend(range(self._first, self._first + len(self._block)))

    monkeypatch.setattr(engine._Distances, "_fill_block", filling)
    monkeypatch.setattr(engine._Distances, "far_terms",
                        lambda self: read.add(self._k) or far_terms(self))
    record = sim.run()
    assert record.generated > 1000
    assert sorted(filled) == sorted(read) == list(range(len(sim.tasks)))


@pytest.mark.parametrize("text", ["constellation.mist=100\nsimulation.duration_s=20\n",
                                  "simulation.duration_s=3\narchitecture.layers=edge_dc,cloud\n"],
                         ids=["mist_100", "no_mist"])
def test_round_robin_turns_change_no_placement(text):
    # the table of turns and the argmin over assignments pick alike, and the
    # per-layer counts still come from every pick
    cfg = parse_config("policy.name=round_robin\n" + text)
    turned, argmin = Simulation(cfg), Simulation(cfg)
    assert turned._view.turns is not None
    argmin._view.turns = None
    assert turned.run() == argmin.run()
    assert [t.assigned_vm for t in turned.tasks] == [t.assigned_vm for t in argmin.tasks]
    assert np.array_equal(turned._view.assigned, argmin._view.assigned)
    assert turned._view.assigned.sum() == len(turned.tasks) > 100


@pytest.mark.parametrize("policy, shortlist", [("trade_off", "far_row"),
                                               ("weight_greedy", "far_terms")])
def test_reading_the_column_before_select_changes_no_placement(monkeypatch, policy, shortlist):
    # a traced benchmark run reads view.distances before each select, for its
    # oracle: the policy still takes its shortlist path, picking the same VMs
    cfg = parse_config(f"policy.name={policy}\nsimulation.duration_s=3\n")
    plain = Simulation(cfg)
    plain_record = plain.run()
    select = engine.select

    def select_after_reading(policy, view, *args, **kwargs):
        view.distances
        return select(policy, view, *args, **kwargs)

    calls = []
    read = getattr(engine._Distances, shortlist)
    monkeypatch.setattr(engine, "select", select_after_reading)
    monkeypatch.setattr(engine._Distances, shortlist,
                        lambda self, *args: calls.append(args) or read(self, *args))
    read_first = Simulation(cfg)
    assert read_first.run() == plain_record
    assert [t.assigned_vm for t in read_first.tasks] == [t.assigned_vm for t in plain.tasks]
    assert len(calls) > 100


@pytest.mark.parametrize("layers", ["mist,edge_dc,cloud", "mist,cloud", "edge_dc,cloud", "mist"])
@pytest.mark.parametrize("weight", [1.2, 0.5, 2.0])
@pytest.mark.parametrize("mist, duration", [(1000, 15), (300, 10)])
def test_kept_trade_off_terms_equal_the_numpy_terms_after_every_event(mist, duration, weight,
                                                                      layers):
    # trade_off's far compute terms, updated at each queue change, equal bit for
    # bit what its numpy path computes from the view's queue lengths, after every
    # event; a far VM of a disabled layer keeps +inf, and c0 is the first block's
    # smallest term at queue 0
    sim = Simulation(parse_config(
        f"policy.name=trade_off\nconstellation.mist={mist}\nsimulation.duration_s={duration}\n"
        f"policy.tradeoff_cloud_weight={weight}\narchitecture.layers={layers}\n"))
    view, far = sim._view, sim._view.far
    assert sim._on_queue is not None and far.terms is not None
    start, length = far.start, sim.config.task.length_mi
    weights = orchestrate._spread(view, "weights", sim._layer_weights, operator.getitem)
    feasible = np.zeros(len(view), dtype=bool)
    feasible[view.static_feasible] = True

    def numpy_terms(queue_lens, vms):  # the numpy path's terms of VMs `vms`, a slice
        score = queue_lens[vms] + 1.0
        score *= weights[vms]
        score *= length
        score /= view.mips[vms]
        return np.where(feasible[vms], score, math.inf).tolist()

    assert far.c0 == min(numpy_terms(np.zeros(len(view)), slice(start)))
    seen = set()

    def checking(handler):
        def handle_then_check(task, now):
            handler(task, now)
            assert list(map(float.hex, far.terms)) \
                == list(map(float.hex, numpy_terms(view.queue_lens, slice(start, None))))
            seen.add(tuple(far.terms))
        return handle_then_check

    for name in ("on_task_generated", "on_upload_complete", "on_execution_complete",
                 "on_download_complete"):
        setattr(sim, name, checking(getattr(sim, name)))
    sim.run()
    assert len(sim.tasks) > 100
    if layers == "mist":  # every far VM is disabled
        assert seen == {(math.inf,) * (len(view) - start)}
    else:
        assert len(seen) > 100


def test_finished_run_is_freed_without_the_cycle_collector():
    import gc
    import weakref

    cfg = parse_config("constellation.mist=10\nsimulation.duration_s=30\npolicy.name=round_robin\n")
    geometry = engine.Geometry(cfg.constellation)
    # a run that builds its own geometry, then one built on a shared geometry
    for shared in (None, geometry):
        sim = Simulation(cfg, geometry=shared)
        sim.run()
        ref = weakref.ref(sim)
        gc.disable()
        try:
            del sim
            assert ref() is None
        finally:
            gc.enable()
    geometry_ref = weakref.ref(geometry)
    gc.disable()
    try:
        del geometry, shared
        assert geometry_ref() is None
    finally:
        gc.enable()


# run back to back on one geometry: every variant a run may change without
# changing the constellation, and weight_greedy, which sets the far set's ids
# from the architecture, before and after each architecture
_SHARED_GEOMETRY_RUNS = [
    *(f"policy.name={policy.value}\n" for policy in orchestrate.PolicyId),
    "policy.name=weight_greedy\narchitecture.layers=mist\n",
    "policy.name=trade_off\narchitecture.layers=mist,edge_dc\n",
    "policy.name=weight_greedy\narchitecture.layers=mist,edge_dc\n",
    "policy.name=weight_greedy\n",
    "policy.name=trade_off\nvm.mist_mips=20000\nvm.edge_mips=30000\nvm.cloud_mips=50000\n",
    "policy.name=weight_greedy\nvm.mist_mips=20000\nvm.edge_mips=30000\nvm.cloud_mips=50000\n",
    "policy.name=weight_greedy\nradio.eps_mp=1.2e-15\n",
    "policy.name=trade_off\n",
    "policy.name=random_vm\nlink.range_mist_m=6e6\nlink.range_edge_m=9e6\n",
    "policy.name=weight_greedy\nrng.seed=2\n",
]


@pytest.mark.parametrize("phasing", ["walker_delta", "random_uniform"])
def test_runs_sharing_a_geometry_equal_runs_made_alone(phasing):
    base = ("constellation.mist=40\nconstellation.edge_dc=6\nconstellation.cloud=4\n"
            f"constellation.phasing={phasing}\nsimulation.duration_s=30\n")
    geometry = engine.Geometry(parse_config(base).constellation)
    fresh = engine.OrbitPositions([elements for _, elements in geometry.layered])

    def snapshot():
        return (geometry.layer_codes.tobytes(), geometry.positions._orbits.tobytes(),
                geometry.positions.positions_all(17.0).tobytes(), list(geometry.layered),
                list(geometry.nodes), dict(geometry.radius))

    before = snapshot()
    assert before[2] == fresh.positions_all(17.0).tobytes()
    for text in _SHARED_GEOMETRY_RUNS:
        if phasing == "random_uniform" and "rng.seed" in text:
            continue  # another constellation under random phasing
        cfg = parse_config(base + text)
        shared = Simulation(cfg, geometry=geometry)
        alone = Simulation(cfg)
        assert shared.run() == alone.run(), text
        assert [task.assigned_vm for task in shared.tasks] \
            == [task.assigned_vm for task in alone.tasks], text
    assert snapshot() == before


def test_geometry_of_another_constellation_is_refused():
    # without the check, the run would simulate the geometry's constellation
    walker = parse_config("constellation.mist=10\nsimulation.duration_s=5\n")
    shuffled = parse_config("constellation.mist=10\nsimulation.duration_s=5\n"
                            "constellation.phasing=random_uniform\n")
    for cfg, spec in [(walker, replace(walker.constellation, mist=11)),
                      (walker, replace(walker.constellation, planes=4)),
                      (walker, shuffled.constellation),
                      (shuffled, walker.constellation),
                      (shuffled, replace(shuffled.constellation, rng_seed=2))]:
        with pytest.raises(ConfigurationError, match="another constellation"):
            Simulation(cfg, geometry=engine.Geometry(spec))
    # walker phasing never reads the seed, so runs of other seeds share the geometry
    Simulation(replace(walker, seed=2, constellation=replace(walker.constellation, rng_seed=2)),
               geometry=engine.Geometry(walker.constellation)).run()


@pytest.mark.parametrize("policy", ["distance_only", "round_robin", "random_vm", "weight_greedy"])
def test_recording_events_changes_no_result(policy):
    # short ranges and random phasing: uploads, downloads, mobility and no-destination failures
    cfg = parse_config(
        "constellation.mist=60\nsimulation.duration_s=60\nconstellation.phasing=random_uniform\n"
        "link.range_mist_m=6e6\nlink.range_edge_m=4e6\nlink.range_cloud_m=12e6\n"
        f"architecture.layers=edge_dc,cloud\npolicy.name={policy}\n"
    )
    # a queue-blind policy's plain run takes the phased path, its recorded run the
    # event loop; each of the others takes the event loop both times
    plain, recorded = Simulation(cfg), Simulation(cfg, record_events=True)
    assert plain.run() == recorded.run()
    assert not plain.events
    phased = plain._seq == len(plain.tasks)  # nothing went through the heap
    assert phased == (cfg.policy in orchestrate.QUEUE_BLIND_POLICIES)
    assert [repr(astuple(task)) for task in plain.tasks] \
        == [repr(astuple(task)) for task in recorded.tasks]  # repr: nan == nan
    kinds = {event.kind for event in recorded.events}
    assert {EventKind.TASK_GENERATED, EventKind.UPLOAD_COMPLETE, EventKind.EXECUTION_COMPLETE,
            EventKind.DOWNLOAD_COMPLETE, EventKind.SIM_END} <= kinds
    assert all(isinstance(event.kind, EventKind) for event in recorded.events)
    causes = {task.failure_cause for task in recorded.tasks}
    assert FailureCause.NO_DESTINATION in causes
    assert policy != "random_vm" or FailureCause.MOBILITY in causes


class _QueueBlindView(orchestrate.CandidateView):
    """A CandidateView whose `queue_lens` raises on any read."""

    __slots__ = ()

    @property
    def queue_lens(self):
        raise AssertionError("a queue-blind policy read queue_lens")


@pytest.mark.parametrize("policy", sorted(orchestrate.QUEUE_BLIND_POLICIES))
@pytest.mark.parametrize("links", ["", "link.range_mist_m=6e6\nlink.range_edge_m=9e6\n"
                                       "link.range_cloud_m=17e6\nconstellation.phasing=random_uniform\n"])
@pytest.mark.parametrize("layers", ["mist,edge_dc,cloud", "edge_dc,cloud"])
def test_queue_blind_policies_pick_alike_without_reading_queues(policy, links, layers):
    # the phased path rests on these policies never reading a queue: with one that
    # raises on any read they pick what the event loop, whose queues fill and
    # drain, has them pick, on static and on per-task feasibility
    cfg = parse_config(
        "constellation.mist=30\nsimulation.duration_s=30\ntask.rate_per_min=40\n"
        f"task.length_mi=200000\n{links}architecture.layers={layers}\npolicy.name={policy}\n")
    blind, loop = Simulation(cfg), Simulation(cfg)
    blind._view.__class__ = _QueueBlindView
    with pytest.raises(AssertionError, match="read queue_lens"):
        blind._view.queue_lens
    assert blind.run() == run_single_heap(loop)
    assert loop._view.queue_lens.any()  # tasks still queue at the horizon
    assert [task.assigned_vm for task in blind.tasks] == [task.assigned_vm for task in loop.tasks]


def _tie_config(duration_s=10.0):
    # satellite 0 is mist, 1 and 2 edge; only edge VMs take tasks, 4 s each
    cfg = parse_config(
        "constellation.mist=1\nconstellation.edge_dc=2\nconstellation.cloud=0\n"
        "task.rate_per_min=0\nvm.edge_mips=10000\narchitecture.layers=edge_dc\n"
        "policy.name=distance_only\n")
    return replace(cfg, duration_s=duration_s)


def _tie_task(task_id, origin, created):
    return Task(task_id, origin, created, 40_000.0, 8e6, 8e5, 60.0)


def _both_paths(cfg, tasks, positions):
    """(phased run, event-loop run) of `tasks` under `cfg`, each run to its record."""
    phased = Simulation(cfg, tasks=tasks(), positions=positions)
    loop = Simulation(cfg, tasks=tasks(), positions=positions)
    assert phased.run() == run_single_heap(loop)
    assert phased._seq == len(phased.tasks) < loop._seq
    assert [repr(astuple(task)) for task in phased.tasks] \
        == [repr(astuple(task)) for task in loop.tasks]  # repr: nan == nan
    return phased, loop


def test_local_arrival_goes_before_an_upload_ending_at_its_time():
    # task 0 uploads from mist satellite 0 to edge VM 1, 3e6 m away; task 1 arrives
    # on satellite 1 itself as that upload ends, and is served first
    link = _tie_config().link
    upload_end = 0.0 + (8e6 / link.bandwidth_bps + 3e6 / link.propagation_speed_mps)
    positions = StaticPositions([[0.0, 0.0, 0.0], [3e6, 0.0, 0.0], [9e7, 0.0, 0.0]])

    def tasks():
        return [_tie_task(0, 0, 0.0), _tie_task(1, 1, upload_end)]

    phased, _ = _both_paths(_tie_config(), tasks, positions)
    first, second = phased.tasks[1], phased.tasks[0]
    assert first.assigned_vm == second.assigned_vm == 1
    assert first.service_start_s == upload_end
    assert second.service_start_s == upload_end + 4.0
    download = 8e5 / link.bandwidth_bps + 3e6 / link.propagation_speed_mps
    assert (first.finished_at, second.finished_at) == (upload_end + 4.0,
                                                       upload_end + 8.0 + download)
    assert first.state is second.state is TaskState.SUCCEEDED


def test_uploads_ending_at_one_instant_are_served_in_task_order():
    # mist origins on either side of edge VM 2, each 3e6 m from it, and equal creation
    # times: both uploads end together, and the lower task id goes first
    positions = StaticPositions([[0.0, 0.0, 0.0], [3e6, 0.0, 0.0], [6e6, 0.0, 0.0]])
    cfg = replace(_tie_config(), constellation=replace(_tie_config().constellation, mist=2,
                                                       edge_dc=1))

    def tasks():
        return [_tie_task(0, 1, 0.5), _tie_task(1, 0, 0.5)]

    phased, _ = _both_paths(cfg, tasks, positions)
    first, second = phased.tasks
    assert first.assigned_vm == second.assigned_vm == 2
    assert second.service_start_s == first.service_start_s + 4.0
    assert first.state is second.state is TaskState.SUCCEEDED


@pytest.mark.parametrize("at", ["upload_end", "completion", "remote_completion", "download_end"])
def test_events_at_the_horizon_are_processed_alike_on_both_paths(at):
    # the horizon falls exactly on one of the local-arrival tie's events
    link = _tie_config().link
    upload_end = 0.0 + (8e6 / link.bandwidth_bps + 3e6 / link.propagation_speed_mps)
    completion = upload_end + 4.0
    download_end = (completion + 4.0) + (8e5 / link.bandwidth_bps
                                         + 3e6 / link.propagation_speed_mps)
    horizon = {"upload_end": upload_end, "completion": completion,
               "remote_completion": completion + 4.0, "download_end": download_end}[at]
    positions = StaticPositions([[0.0, 0.0, 0.0], [3e6, 0.0, 0.0], [9e7, 0.0, 0.0]])

    def tasks():
        return [_tie_task(0, 0, 0.0), _tie_task(1, 1, upload_end)]

    phased, _ = _both_paths(_tie_config(horizon), tasks, positions)
    local, remote = phased.tasks[1], phased.tasks[0]
    want = {
        "upload_end": (TaskState.EXECUTING, TaskState.QUEUED),
        "completion": (TaskState.SUCCEEDED, TaskState.EXECUTING),
        "remote_completion": (TaskState.SUCCEEDED, TaskState.DOWNLOADING),
        "download_end": (TaskState.SUCCEEDED, TaskState.SUCCEEDED),
    }[at]
    assert (local.state, remote.state) == want
