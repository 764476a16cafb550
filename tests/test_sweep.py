from __future__ import annotations

import gc
import weakref
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satmist import engine
from satmist import sweep as sweep_mod
from satmist.config import parse_config, validate
from satmist.engine import Simulation, draw_arrivals
from satmist.errors import ConfigurationError
from satmist.orchestrate import PolicyId
from satmist.sweep import (
    DEFAULT_COUNTS,
    PLOT_METRICS,
    SweepSpec,
    derive_config,
    plot_data,
    run_sweep,
)
from support import parse_csv

FAST_BASE = parse_config(
    "constellation.mist=2\nconstellation.edge_dc=1\nconstellation.cloud=1\n"
    "simulation.duration_s=20\n"
)

SMALL = SweepSpec(
    satellite_counts=(2, 4),
    policies=(PolicyId.DISTANCE_ONLY, PolicyId.ROUND_ROBIN),
    seeds=(1, 2),
)


def test_default_grid_shape():
    spec = SweepSpec()
    assert spec.satellite_counts == tuple(range(100, 1001, 100))
    assert spec.policies == tuple(PolicyId)
    assert len(spec.policies) == 5
    assert DEFAULT_COUNTS[0] == 100 and DEFAULT_COUNTS[-1] == 1000


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        SweepSpec(satellite_counts=())
    with pytest.raises(ConfigurationError):
        SweepSpec(satellite_counts=(0, 5))
    with pytest.raises(ConfigurationError):
        SweepSpec(satellite_counts=(5, 5))
    with pytest.raises(ConfigurationError):
        SweepSpec(satellite_counts=(10, 5))
    with pytest.raises(ConfigurationError):
        SweepSpec(policies=())
    with pytest.raises(ConfigurationError):
        SweepSpec(policies=(PolicyId.RANDOM_VM, PolicyId.RANDOM_VM))
    with pytest.raises(ConfigurationError):
        SweepSpec(seeds=())
    with pytest.raises(ConfigurationError):
        SweepSpec(seeds=(3, 3))


def test_derive_config_replaces_mist_and_seed():
    cfg = derive_config(FAST_BASE, 50, PolicyId.TRADE_OFF, 9, False)
    assert cfg.constellation.mist == 50
    assert cfg.constellation.edge_dc == FAST_BASE.constellation.edge_dc
    assert cfg.constellation.cloud == FAST_BASE.constellation.cloud
    assert cfg.constellation.rng_seed == 9
    assert cfg.seed == 9
    assert cfg.policy is PolicyId.TRADE_OFF
    # base is untouched
    assert FAST_BASE.constellation.mist == 2


def test_derive_config_scaling_floors_at_one():
    base = parse_config(
        "constellation.mist=100\nconstellation.edge_dc=24\nconstellation.cloud=18\n"
    )
    scaled = derive_config(base, 200, PolicyId.DISTANCE_ONLY, 1, True)
    assert scaled.constellation.edge_dc == 48
    assert scaled.constellation.cloud == 36
    tiny = derive_config(base, 1, PolicyId.DISTANCE_ONLY, 1, True)
    assert tiny.constellation.edge_dc == 1
    assert tiny.constellation.cloud == 1


NO_EDGE_BASE = parse_config(
    "constellation.mist=100\nconstellation.edge_dc=0\nconstellation.cloud=6\n"
    "architecture.layers=mist,cloud\n"
)


@pytest.mark.parametrize("count, expected", [
    pytest.param(100, (100, 0, 6), id="count_equal_to_base_returns_base"),
    pytest.param(300, (300, 0, 18), id="empty_layer_stays_empty"),
    pytest.param(1, (1, 0, 1), id="positive_layer_below_half_rounds_up_to_one"),
])
def test_scale_all_layers_counts(count, expected):
    cfg = derive_config(NO_EDGE_BASE, count, PolicyId.DISTANCE_ONLY, 1, True)
    const = cfg.constellation
    assert (const.mist, const.edge_dc, const.cloud) == expected
    validate(cfg)


def test_records_follow_construction_order():
    records = run_sweep(SMALL, FAST_BASE)
    assert len(records) == 8
    keys = [(r.satellite_count, r.policy, r.seed) for r in records]
    assert keys == [
        (count, policy, seed)
        for count in (2, 4)
        for policy in (PolicyId.DISTANCE_ONLY, PolicyId.ROUND_ROBIN)
        for seed in (1, 2)
    ]


def test_parallel_matches_sequential():
    sequential = run_sweep(SMALL, FAST_BASE, parallel=1)
    pooled = run_sweep(SMALL, FAST_BASE, parallel=2)
    assert pooled == sequential
    with pytest.raises(ConfigurationError):
        run_sweep(SMALL, FAST_BASE, parallel=0)


_SHORT_LINKS = "link.range_mist_m=6e6\nlink.range_edge_m=9e6\nlink.range_cloud_m=17e6\n"
# no mist VM enabled and short edge and cloud ranges: many placements find no VM
_NO_DESTINATION = ("architecture.layers=edge_dc,cloud\n"
                   "link.range_mist_m=6e6\nlink.range_edge_m=4e6\nlink.range_cloud_m=9e6\n")


@pytest.mark.parametrize("text", [
    "constellation.phasing=random_uniform\n",
    "constellation.phasing=random_uniform\ntask.rate_is_global=true\ntask.rate_per_min=90\n",
    "task.rate_per_min=0\n",
    # feasibility per task: the runs of both seeds share a Walker geometry, and the
    # runs of each seed one store of feasible sets
    _SHORT_LINKS,
    # random phasing: each seed has its own constellation
    "constellation.phasing=random_uniform\n" + _SHORT_LINKS,
    "constellation.phasing=random_uniform\n" + _NO_DESTINATION,
], ids=["per_satellite_rate", "global_rate", "zero_rate", "short_links", "random_short_links",
        "no_destination"])
def test_sweep_records_equal_standalone_runs(text):
    # shared arrivals, drawn at 12 mist and filtered for 3 and 7, give each run
    # the record it gets alone, inline and in worker processes
    base = parse_config("constellation.mist=7\nconstellation.edge_dc=3\nconstellation.cloud=2\n"
                        "simulation.duration_s=15\n" + text)
    per_task = "link.range" in text
    assert (Simulation(base)._view.static_feasible is None) == per_task
    policies = (tuple(PolicyId) if per_task
                else (PolicyId.DISTANCE_ONLY, PolicyId.RANDOM_VM, PolicyId.WEIGHT_GREEDY))
    spec = SweepSpec(satellite_counts=(3, 7, 12), policies=policies, seeds=(1, 2),
                     scale_all_layers=True)
    standalone = [Simulation(derive_config(base, count, policy, seed, True)).run()
                  for count in spec.satellite_counts for policy in spec.policies
                  for seed in spec.seeds]
    assert any(record.generated for record in standalone) == ("rate_per_min=0" not in text)
    if "edge_dc,cloud" in text:
        assert any(record.failed_no_destination for record in standalone)
    assert run_sweep(spec, base, parallel=1) == standalone
    assert run_sweep(spec, base, parallel=2) == standalone


class Outcomes(Simulation):
    """A Simulation that logs each finished run's tasks' (assigned_vm, state,
    failure_cause), its set store's bytes, and the bytes of every live store."""

    log: list = []
    stores: list = []

    def __init__(self, config, **kwargs):
        super().__init__(config, **kwargs)
        self._store = kwargs["set_store"]

    def run(self):
        record = super().run()
        Outcomes.log.append(([(task.assigned_vm, task.state, task.failure_cause)
                              for task in self.tasks], self._store.nbytes,
                             sum(ref().nbytes for ref in Outcomes.stores if ref() is not None)))
        return record


class ListedStore(engine.SetStore):
    def __init__(self):
        super().__init__()
        Outcomes.stores.append(weakref.ref(self))


@pytest.mark.parametrize("budget", ["none", "half", "ample"])
def test_sweep_outcomes_equal_unshared_runs_whatever_the_store_budget(monkeypatch, budget):
    # with no budget every run fills its own blocks; with half a key's sets the
    # first reader keeps the first blocks, and the later runs read those and
    # fill the rest: the records and every task's outcome are the runs' alone
    base = parse_config("constellation.mist=20\nsimulation.duration_s=60\n"
                        "constellation.phasing=random_uniform\n" + _SHORT_LINKS)
    spec = SweepSpec(satellite_counts=(20,), policies=tuple(PolicyId), seeds=(1, 2))
    unshared, blocks, nbytes = [], [], []
    for seed in spec.seeds:
        for policy in spec.policies:
            sim = Simulation(derive_config(base, 20, policy, seed, False))
            unshared.append((sim.run(), [(task.assigned_vm, task.state, task.failure_cause)
                                         for task in sim.tasks]))
        full = engine.SetStore()
        sim = Simulation(derive_config(base, 20, PolicyId.ROUND_ROBIN, seed, False), set_store=full)
        sim.run()
        assert len(full.blocks) == -(-len(sim.tasks) // sim._distances._block_rows) > 2
        blocks.append(len(full.blocks))
        nbytes.append(full.nbytes)
    # half of the smaller key's bytes run out during each key's first reader's run
    limit = {"none": 0, "half": min(nbytes) // 2, "ample": max(nbytes)}[budget]
    monkeypatch.setattr(engine, "_SET_STORE_BYTES", limit)
    monkeypatch.setattr(sweep_mod, "Simulation", Outcomes)
    monkeypatch.setattr(sweep_mod, "SetStore", ListedStore)
    fills = []
    fill_whole = engine._Distances._fill_whole
    monkeypatch.setattr(engine._Distances, "_fill_whole",
                        lambda self, b: fills.append(b) or fill_whole(self, b))
    Outcomes.log, Outcomes.stores = [], []
    gc.disable()
    try:
        records = run_sweep(spec, base)
    finally:
        gc.enable()
    # the grid's records are policy-major; the runs go seed by seed
    assert [(r.policy, r.seed) for r in records] == [(p, s) for p in spec.policies
                                                    for s in spec.seeds]
    assert [record for record, _ in unshared] == [records[len(spec.seeds) * j + i]
                                                  for i in range(len(spec.seeds))
                                                  for j in range(len(spec.policies))]
    assert [tasks for _, tasks in unshared] == [tasks for tasks, _, _ in Outcomes.log]
    kept = [kept for _, kept, _ in Outcomes.log]
    assert len(Outcomes.stores) == 2 and all(ref() is None for ref in Outcomes.stores)
    # one store is live at a time, and it never holds more than the budget
    assert [live for _, kept, live in Outcomes.log] == kept and max(kept) <= limit
    every = 4 * sum(blocks)  # every policy but distance_only reads each block
    per_key = len(spec.policies)
    if budget == "none":
        assert len(fills) == every and max(kept) == 0
    elif budget == "half":
        # each key's first reader, round_robin, keeps what fits (distance_only reads no block)
        assert all(0 < kept[k * per_key + 1] <= limit for k in range(len(spec.seeds)))
        assert sum(blocks) < len(fills) < every
    else:
        assert len(fills) == sum(blocks)  # one fill per block
        assert kept[per_key - 1::per_key] == nbytes


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 30), st.integers(0, 30),
       st.sampled_from([0, 7, 20, 60]), st.integers(1, 40))
def test_arrivals_drawn_at_a_larger_count_hold_a_fresh_draw(seed, count, extra, rate, duration):
    # the top count's arrivals, filtered to origins below `count`, are the tasks
    # a run at `count` draws itself: times, origins, ids and order
    config = parse_config(f"constellation.mist={count}\ntask.rate_per_min={rate}\n"
                          f"simulation.duration_s={duration}\nrng.seed={seed}\n")
    top = replace(config, constellation=replace(config.constellation, mist=count + extra))
    fresh = Simulation(config).tasks
    shared = Simulation(config, arrivals=draw_arrivals(top)).tasks
    assert [repr(astuple(task)) for task in shared] == [repr(astuple(task)) for task in fresh]
    assert all(task.origin_satellite < count for task in fresh)


@pytest.mark.parametrize("text, counts, seeds, builds", [
    ("", (100, 200, 300), (1, 2), 3),  # the benchmark's desk_sweep grid
    ("", (1000,), (1,), 1),  # full_walker's
    ("constellation.phasing=random_uniform\n", (300,), (1,), 1),  # sparse_links'
    ("constellation.phasing=random_uniform\n", (100, 200), (1, 2), 4),
], ids=["desk_sweep", "full_walker", "sparse_links", "random_two_seeds"])
def test_each_constellation_is_built_once_per_sweep(monkeypatch, text, counts, seeds, builds):
    built = []
    build = engine.build_constellation
    monkeypatch.setattr(engine, "build_constellation", lambda spec: built.append(spec) or build(spec))
    spec = SweepSpec(satellite_counts=counts, seeds=seeds)
    records = run_sweep(spec, parse_config("simulation.duration_s=1\n" + text))
    assert len(records) == len(counts) * len(PolicyId) * len(seeds)
    assert len(built) == builds


def test_sweep_twice_gives_the_same_records_and_keeps_no_geometry_or_store(monkeypatch):
    refs, alive_at_build = [], []
    stores, live_at_run = [], []

    class Tracked(engine.Geometry):
        def __init__(self, spec):
            alive_at_build.append(sum(ref() is not None for ref in refs))
            super().__init__(spec)
            refs.append(weakref.ref(self))

    class TrackedStore(engine.SetStore):
        def __init__(self):
            super().__init__()
            stores.append(weakref.ref(self))

    class Logged(Simulation):
        def __init__(self, config, **kwargs):
            # the sweep keys whose stores are alive as this run starts
            live_at_run.append(sum(ref() is not None for ref in stores))
            super().__init__(config, **kwargs)

    monkeypatch.setattr(sweep_mod, "Geometry", Tracked)
    monkeypatch.setattr(sweep_mod, "SetStore", TrackedStore)
    monkeypatch.setattr(sweep_mod, "Simulation", Logged)
    # random phasing: the two seeds' constellations differ, and alternate in grid
    # order; short links, so the runs read their feasible sets from the stores
    base = parse_config("constellation.mist=7\nconstellation.edge_dc=3\nconstellation.cloud=2\n"
                        "simulation.duration_s=15\nconstellation.phasing=random_uniform\n"
                        + _SHORT_LINKS)
    spec = SweepSpec(satellite_counts=(3, 7),
                     policies=(PolicyId.WEIGHT_GREEDY, PolicyId.TRADE_OFF, PolicyId.RANDOM_VM),
                     seeds=(1, 2))
    gc.disable()
    try:
        first = run_sweep(spec, base)
        assert len(refs) == 4 and all(ref() is None for ref in refs)
        assert len(stores) == 4 and all(ref() is None for ref in stores)
        second = run_sweep(spec, base)
        assert len(refs) == 8 and all(ref() is None for ref in refs)
        assert len(stores) == 8 and all(ref() is None for ref in stores)
    finally:
        gc.enable()
    assert first == second
    # the runs go seed by seed within a count, so each geometry and each store is
    # dropped after its key's last run, before the next key's are made
    assert alive_at_build == [0, 0, 0, 0] * 2
    assert live_at_run == [1] * 24


def test_store_keeps_whole_blocks_only_within_its_bytes(monkeypatch):
    # a block is kept whole or not at all, read-only, its indices in the smallest
    # unsigned dtype that holds n-1; size is checked in that dtype
    monkeypatch.setattr(engine, "_SET_STORE_BYTES", 88)

    def block():  # 16 + 3 + 24 = 43 bytes once kept
        return np.array([0, 3]), np.array([1, 4, 9]), np.array([1.0, 2.0, 3.0])

    store = engine.SetStore()
    store.bind(("key",), np.zeros(256), np.array([0.5]), np.array([0]))
    for b in range(3):
        store.keep(b, *block())
    assert sorted(store.blocks) == [0, 1] and store.nbytes == 86
    assert store.blocks[1][1].dtype == np.uint8 and store.blocks[1][1].tolist() == [1, 4, 9]
    assert not any(a.flags.writeable for a in store.blocks[1])
    wide = engine.SetStore()
    wide.bind(("key",), np.zeros(257), np.array([0.5]), np.array([0]))
    wide.keep(0, *block())
    assert wide.blocks[0][1].dtype == np.uint16 and wide.nbytes == 46


def test_store_refuses_a_run_with_another_constellation_reach_row_or_task_list():
    # a store's blocks are one constellation's and one reach row's sets of one
    # task list's arrivals
    text = ("constellation.mist=20\nsimulation.duration_s=10\npolicy.name=round_robin\n"
            "constellation.phasing=random_uniform\n" + _SHORT_LINKS)
    cfg = parse_config(text)
    store = engine.SetStore()
    Simulation(cfg, set_store=store).run()
    assert store.blocks
    Simulation(replace(cfg, policy=PolicyId.TRADE_OFF), set_store=store).run()  # the same key
    Simulation(cfg, tasks=Simulation(cfg).tasks, set_store=store).run()  # its tasks, injected
    refused = "another constellation, reach row or task list"
    # other orbits with the same layer counts, reach row and tasks
    moved = replace(cfg, constellation=replace(cfg.constellation,
                                               rng_seed=cfg.constellation.rng_seed + 1))
    assert Simulation(moved).tasks == Simulation(cfg).tasks
    with pytest.raises(ConfigurationError, match=refused):
        Simulation(moved, set_store=store)
    # another range, another layer set; fewer arrivals, other arrivals
    for extra in ("link.range_edge_m=8e6\n", "architecture.layers=mist,edge_dc\n",
                  "simulation.duration_s=9\n", "task.rate_per_min=40\n"):
        with pytest.raises(ConfigurationError, match=refused):
            Simulation(parse_config(text + extra), set_store=store)
    # one middle arrival from another origin, or at its predecessor's time
    tasks = Simulation(cfg).tasks
    k = len(tasks) // 2
    for changed in (replace(tasks[k], origin_satellite=(tasks[k].origin_satellite + 1) % 20),
                    replace(tasks[k], created_at=tasks[k - 1].created_at)):
        assert changed != tasks[k]
        with pytest.raises(ConfigurationError, match=refused):
            Simulation(cfg, tasks=tasks[:k] + [changed] + tasks[k + 1:], set_store=store)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline."""

    created: list[int] = []

    def __init__(self, max_workers):
        RecordingPool.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "parallel, cpus, expected",
    [
        (64, 16, 8),   # SMALL has 8 runs
        (64, 2, 2),    # CPU count binds
        (3, 8, 3),     # request binds
        (64, None, None),  # unknown CPU count: one worker, inline
        (1, 8, None),  # one worker runs inline, no pool
    ],
)
def test_parallel_clamped_to_runs_and_cpus(monkeypatch, parallel, cpus, expected):
    RecordingPool.created = []
    monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: cpus)
    records = run_sweep(SMALL, FAST_BASE, parallel=parallel)
    assert len(records) == 8
    assert RecordingPool.created == ([] if expected is None else [expected])


def test_output_files(tmp_path):
    spec = SweepSpec(
        satellite_counts=SMALL.satellite_counts,
        policies=SMALL.policies,
        seeds=SMALL.seeds,
        output_dir=tmp_path,
    )
    records = run_sweep(spec, FAST_BASE)
    parsed = parse_csv((tmp_path / "results.csv").read_bytes())
    assert [(r.policy, r.satellite_count, r.seed) for r in parsed] == [
        (r.policy, r.satellite_count, r.seed) for r in records
    ]
    for metric in PLOT_METRICS:
        lines = (tmp_path / f"plot_{metric}.csv").read_text().splitlines()
        assert lines[0] == "satellites,distance_only,round_robin"
        assert len(lines) == 1 + len(spec.satellite_counts)
        assert lines[1].startswith("2,")
        assert lines[2].startswith("4,")


def test_plot_cells_average_over_seeds():
    records = run_sweep(SMALL, FAST_BASE)
    table = plot_data(SMALL, records, "avg_e2e_s").decode().splitlines()
    first_cell = table[1].split(",")[1]
    values = [
        r.avg_e2e_s
        for r in records
        if r.satellite_count == 2 and r.policy is PolicyId.DISTANCE_ONLY
    ]
    assert first_cell == "%.6g" % (sum(values) / len(values))


def test_plot_cells_absent_when_any_seed_undefined():
    base = parse_config(
        "constellation.mist=2\nsimulation.duration_s=20\ntask.rate_per_min=0\n"
    )
    spec = SweepSpec(satellite_counts=(2,), policies=(PolicyId.DISTANCE_ONLY,),
                     seeds=(1,))
    records = run_sweep(spec, base)
    assert records[0].success_rate_pct is None
    table = plot_data(spec, records, "success_rate_pct").decode().splitlines()
    assert table[1] == "2,"


def test_reruns_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    spec_a = SweepSpec(satellite_counts=(2,), policies=(PolicyId.RANDOM_VM,),
                       seeds=(1, 2), output_dir=out_a)
    spec_b = SweepSpec(satellite_counts=(2,), policies=(PolicyId.RANDOM_VM,),
                       seeds=(1, 2), output_dir=out_b)
    run_sweep(spec_a, FAST_BASE)
    run_sweep(spec_b, FAST_BASE, parallel=2)
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    for metric in PLOT_METRICS:
        name = f"plot_{metric}.csv"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_invalid_grid_point_rejected_before_any_run():
    base = parse_config("orbit.mist_altitude_m=400000\n")
    bad = SweepSpec(satellite_counts=(2,), policies=(PolicyId.DISTANCE_ONLY,),
                    seeds=(1,))
    # duration 0 invalidates every grid point
    from dataclasses import replace

    with pytest.raises(ConfigurationError):
        run_sweep(bad, replace(base, duration_s=0.0))
