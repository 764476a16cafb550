"""Placement and accounting invariants on small random configurations.

Ranges are drawn either long enough for the engine's static feasibility
or short enough that feasibility and downloads depend on positions at
each event, over both Walker and random phasing.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import astuple, replace
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from satmist import orchestrate
from satmist.config import parse_config
from satmist.engine import EventKind, FailureCause, Simulation, Task, TaskState
from satmist.layers import Layer
from satmist.metrics import emit_csv
from satmist.orchestrate import PolicyId
from support import columns_per_placement, run_single_heap

POLICIES = ("distance_only", "round_robin", "trade_off", "random_vm", "weight_greedy")
LAYER_SETS = ("mist", "edge_dc", "cloud", "mist,edge_dc", "edge_dc,cloud", "mist,edge_dc,cloud")


@st.composite
def config_texts(draw, policies=POLICIES, layer_sets=LAYER_SETS) -> str:
    lines = [
        f"constellation.mist={draw(st.integers(1, 8))}",
        f"constellation.edge_dc={draw(st.integers(0, 3))}",
        f"constellation.cloud={draw(st.integers(0, 3))}",
        f"constellation.phasing={draw(st.sampled_from(['walker_delta', 'random_uniform']))}",
        f"policy.name={draw(st.sampled_from(policies))}",
        f"architecture.layers={draw(st.sampled_from(layer_sets))}",
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


# with no mist VM enabled and short edge and cloud ranges, many tasks find no
# feasible VM: placements fail with NO_DESTINATION, on blocks and per placement
NO_DESTINATION = tuple(
    "constellation.mist=8\nconstellation.edge_dc=3\nconstellation.cloud=3\n"
    f"constellation.phasing=random_uniform\npolicy.name={policy}\n"
    "architecture.layers=edge_dc,cloud\ntask.rate_per_min=60\nsimulation.duration_s=30\n"
    "link.range_mist_m=6e6\nlink.range_edge_m=4e6\nlink.range_cloud_m=9e6\n"
    for policy in ("weight_greedy", "random_vm", "trade_off"))
# short links with a radio whose energy falls at the crossover distance
SPLIT_RADIO = (
    "constellation.mist=8\nconstellation.edge_dc=3\nconstellation.cloud=3\n"
    "policy.name=weight_greedy\ntask.rate_per_min=60\nsimulation.duration_s=30\n"
    "task.input_bits=8e6\nradio.eps_mp=1.2e-15\n"
    "link.range_mist_m=9e6\nlink.range_edge_m=12e6\nlink.range_cloud_m=17e6\n"
)


def _outcomes(sim) -> list[tuple]:
    return [(task.assigned_vm, task.state, task.failure_cause) for task in sim.tasks]


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


@settings(max_examples=60, deadline=None)
@given(config_texts())
@example(MOBILITY_LOSS)
@example(NO_DESTINATION[0])
@example(NO_DESTINATION[1])
@example(NO_DESTINATION[2])
@example(SPLIT_RADIO)
def test_column_blocks_change_no_result(text):
    # where feasibility is checked per task, placements read their columns,
    # feasible sets and weight_greedy's distance and energy terms from blocks of
    # arrivals; the same run with a column computed per placement, and the set
    # and terms found in it, gives the same record, and every task the same VM,
    # state and failure cause
    blocks = Simulation(parse_config(text))
    alone = columns_per_placement(Simulation(parse_config(text)))
    per_task = blocks._view.static_feasible is None
    assert blocks._distances._whole == blocks._view.feasible_sets == per_task
    assert not alone._distances._whole and not alone._view.feasible_sets
    record = blocks.run()
    assert record == alone.run()
    assert _outcomes(blocks) == _outcomes(alone)
    if text in NO_DESTINATION:
        assert 0 < record.failed_no_destination < record.generated
    if text == SPLIT_RADIO:
        assert per_task and record.per_layer_task_counts[Layer.EDGE_DC] > 0


@settings(max_examples=80, deadline=None)
@given(config_texts(policies=("weight_greedy",),
                    layer_sets=("mist", "mist,edge_dc", "mist,cloud", "mist,edge_dc,cloud"))
       .filter(lambda text: "link.range" not in text),
       st.sampled_from([0.0, 8e6, 1.6e9]), st.sampled_from([1.3e-15, 1.2e-15]))
def test_weight_greedy_far_set_changes_no_placement(text, input_bits, eps_mp):
    # the shortlist over the far set, with its per-block distance and energy
    # terms, picks what the full path over every feasible VM picks; the configs
    # have the static feasibility and the enabled first layer it needs, and
    # "mist" alone disables every far layer
    text += f"task.input_bits={input_bits}\nradio.eps_mp={eps_mp}\n"
    shortlisted, full = Simulation(parse_config(text)), Simulation(parse_config(text))
    full._view.far = None
    assert shortlisted.run() == full.run()
    assert [task.assigned_vm for task in shortlisted.tasks] == [task.assigned_vm for task in full.tasks]


@settings(max_examples=30, deadline=None)
@given(st.integers(8, 120), st.integers(0, 24), st.integers(0, 18),
       st.sampled_from(["mist", "mist,edge_dc", "mist,cloud", "mist,edge_dc,cloud"]),
       st.integers(20, 240),
       st.sampled_from([2_000, 10_000, 100_000]), st.sampled_from([0.0, 8e6, 1.6e9]),
       st.integers(0, 10_000))
@example(100, 24, 18, "mist,edge_dc,cloud", 240, 100_000, 0.0, 3)
def test_weight_greedy_walk_changes_no_placement(mist, edge, cloud, layers, rate, length,
                                                 input_bits, seed):
    # Walker shells large enough that busy origins ask for their near VMs and the
    # walk meets far VMs of both layers: the run with far_term_hook's walk order
    # (hooked) and the same run with the hook's far layers unset, every placement
    # on the full path (unhooked), give the same record and picks
    text = (f"constellation.mist={mist}\nconstellation.edge_dc={edge}\n"
            f"constellation.cloud={cloud}\n"
            f"architecture.layers={layers}\npolicy.name=weight_greedy\n"
            f"task.rate_per_min={rate}\ntask.length_mi={length}\ntask.input_bits={input_bits}\n"
            f"simulation.duration_s=8\nrng.seed={seed}\n")
    hooked, unhooked = Simulation(parse_config(text)), Simulation(parse_config(text))
    if unhooked._view.far is not None:
        unhooked._view.far.layers = None
    assert hooked.run() == unhooked.run()
    assert [task.assigned_vm for task in hooked.tasks] == [task.assigned_vm for task in unhooked.tasks]


def _scanned_random_vm(view, task, architecture, rng, *, link):
    """random_vm as it was before its draw table: the first feasible index at or
    after the draw, by searchsorted, wrapping to the first."""
    n = len(view)
    if n == 0:
        raise orchestrate.PlacementError("no feasible candidate")
    drawn = rng.randrange(n)
    idx = orchestrate._feasible_indices(view, architecture, link)
    j = int(idx.searchsorted(drawn))
    return orchestrate.Selection(int(view.vm_ids[idx[j] if j < idx.size else idx[0]]))


@settings(max_examples=40, deadline=None)
@given(config_texts(policies=("random_vm",)).filter(lambda text: "link.range" not in text))
def test_random_vm_draw_table_changes_no_placement(text):
    # under static feasibility random_vm reads each draw's pick from its table;
    # the scan it replaced gives the same record and picks, disabled layers and
    # runs with no feasible VM among the configs
    table, scanned = Simulation(parse_config(text)), Simulation(parse_config(text))
    assert table._view.static_feasible is not None
    record = table.run()
    with mock.patch.object(orchestrate, "random_vm", _scanned_random_vm):
        assert scanned.run() == record
    assert _outcomes(table) == _outcomes(scanned)


# a load that deepens the cloud and edge queues until the idle mist VMs join
# trade_off's shortlist, so its kept far terms alternate with its numpy path
HEAVY_TRADE_OFF = (
    "constellation.mist=8\nconstellation.edge_dc=3\nconstellation.cloud=3\n"
    "policy.name=trade_off\ntask.rate_per_min=300\ntask.length_mi=100000\n"
    "simulation.duration_s=30\n"
)


@settings(max_examples=60, deadline=None)
@given(config_texts(policies=("trade_off",)).filter(lambda text: "link.range" not in text),
       st.sampled_from(["", "task.rate_per_min=300\n"]), st.sampled_from([1.2, 0.5, 2.0]))
@example(HEAVY_TRADE_OFF, "", 1.2)
def test_trade_off_kept_terms_change_no_placement(text, load, cloud_weight):
    # trade_off with its far compute terms kept at each queue change gives the
    # record and the picks of the same run computing every VM's terms per
    # placement; the configs have the static feasibility the kept terms need, and
    # heavy loads bring the first block onto the shortlist, where the numpy path
    # places
    text += f"{load}policy.tradeoff_cloud_weight={cloud_weight}\n"
    kept, numpy = Simulation(parse_config(text)), Simulation(parse_config(text))
    if numpy._view.far is not None:
        numpy._view.far.terms = numpy._on_queue = None
    fallbacks = []
    feasible = orchestrate._feasible_indices
    with mock.patch.object(orchestrate, "_feasible_indices",
                           lambda *args: fallbacks.append(True) or feasible(*args)):
        record = kept.run()
    assert record == numpy.run()
    assert [task.assigned_vm for task in kept.tasks] == [task.assigned_vm for task in numpy.tasks]
    if text.startswith(HEAVY_TRADE_OFF):
        assert 0 < len(fallbacks) < record.generated - 100


@settings(max_examples=60, deadline=None)
@given(config_texts(),
       st.none() | st.lists(st.tuples(st.integers(0, 80), st.integers(0, 7),
                                      st.sampled_from([10_000.0, 20_000.0, 40_000.0])),
                            max_size=40),
       st.booleans())
def test_event_log_equals_the_single_heap_loops(text, grid, local):
    # the two-source loop against the loop that pushed each arrival into its heap:
    # the same log, record and task states. Injected arrivals sit on a 0.25 s
    # grid, and with `local` distance_only runs each on its own mist VM in 1, 2
    # or 4 s, so arrivals tie with completions
    config = parse_config(text)
    if grid is not None and local:
        config = replace(config, policy=PolicyId.DISTANCE_ONLY, architecture=frozenset(Layer))

    def injected():
        mist, deadline = config.constellation.mist, config.task.max_latency_s
        return None if grid is None else [
            Task(i, origin % mist, 0.25 * step, length, 8e6, 8e5, deadline)
            for i, (step, origin, length) in enumerate(sorted(grid))]

    two = Simulation(config, tasks=injected(), record_events=True)
    one = Simulation(config, tasks=injected(), record_events=True)
    assert two.run() == run_single_heap(one)
    assert two.events == one.events
    assert [repr(astuple(task)) for task in two.tasks] \
        == [repr(astuple(task)) for task in one.tasks]  # repr: nan == nan
