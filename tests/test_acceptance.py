"""End-to-end acceptance gate.

Ten behavioral criteria covering trend reproduction at desk scale
(energy, delay, success rate, CPU orderings across the five placement
policies), the radio energy unit values, oracle equivalence of the
policy implementations, byte-level determinism, conservation accounting,
orbit invariants, and a full-scale smoke run. Each test prints one
PASS/FAIL line on the real stdout, bypassing capture.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from random import Random

import pytest

from satmist.cli import main
from satmist.config import parse_config
from satmist.engine import Simulation, TaskState
from satmist.layers import Layer
from satmist.metrics import MetricsRecord
from satmist.netenergy import (
    LinkParams,
    RadioParams,
    energy_db,
    rx_energy,
    tx_energy,
)
from satmist.orbital import (
    OrbitalElements,
    build_constellation,
    orbital_period_s,
)
from satmist.orchestrate import PlacementError, PolicyId, select
from satmist.sweep import PLOT_METRICS, SweepSpec, run_sweep
from support import Candidate, TaskInfo, position_at, view_from_candidates

DESK_COUNTS = (100, 200, 300)
DESK_SEEDS = (1, 2, 3)


def report(capsys, number: int, ok: bool, label: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance {number:2d}] {verdict} {label}", flush=True)
    assert ok, f"acceptance criterion {number} failed: {label}"


@pytest.fixture(scope="module")
def desk_sweep():
    """mist in {100, 200, 300} x all five policies x 3 seeds, defaults."""
    spec = SweepSpec(satellite_counts=DESK_COUNTS, seeds=DESK_SEEDS)
    start = time.perf_counter()
    records = run_sweep(spec, parse_config(None))
    elapsed = time.perf_counter() - start
    by_cell: dict[tuple[int, int], dict[PolicyId, MetricsRecord]] = {}
    for rec in records:
        by_cell.setdefault((rec.satellite_count, rec.seed), {})[rec.policy] = rec
    assert len(by_cell) == len(DESK_COUNTS) * len(DESK_SEEDS)
    assert all(len(cell) == 5 for cell in by_cell.values())
    # the sweep is desk-scale: well under 2 minutes per run
    assert elapsed <= 120.0 * len(records)
    return by_cell


def test_acceptance_01_energy_trend(desk_sweep, capsys):
    ok = True
    for cell in desk_sweep.values():
        lowest = cell[PolicyId.DISTANCE_ONLY].total_energy_db
        others = [
            rec.total_energy_db
            for policy, rec in cell.items()
            if policy is not PolicyId.DISTANCE_ONLY
        ]
        ok = ok and all(lowest < value for value in others)
    report(capsys, 1, ok,
           "distance_only has strictly the lowest total_energy_db at every "
           "desk-sweep point and seed")


def test_acceptance_02_delay_trend(desk_sweep, capsys):
    do_is_min = True
    tradeoff_never_min = True
    for cell in desk_sweep.values():
        delays = {policy: rec.avg_e2e_s for policy, rec in cell.items()}
        floor = min(delays.values())
        do_is_min = do_is_min and delays[PolicyId.DISTANCE_ONLY] == floor
        tradeoff_never_min = tradeoff_never_min and delays[PolicyId.TRADE_OFF] > floor
    report(capsys, 2, do_is_min and tradeoff_never_min,
           "distance_only has the minimum avg_e2e_s at every desk-sweep "
           "point and trade_off never does")


def test_acceptance_03_success_rate_trend(capsys):
    base = parse_config("constellation.mist=100\n")
    light = Simulation(base).run()
    light_ok = light.success_rate_pct == 100.0

    overload_ok = True
    for overload_text in (
        "constellation.mist=100\ntask.rate_per_min=60\n",
        "constellation.mist=100\nvm.mist_mips=5000\n",
    ):
        rec = Simulation(parse_config(overload_text)).run()
        overload_ok = overload_ok and (
            rec.success_rate_pct < 100.0
            and rec.failed_deadline > 0
            and rec.failed_mobility == 0
            and rec.failed_no_destination == 0
        )
    report(capsys, 3, light_ok and overload_ok,
           "distance_only reaches 100.0% success at light load and drops "
           "below 100% with deadline failures under both overloads")


def test_acceptance_04_cpu_trend(desk_sweep, capsys):
    ok = True
    for cell in desk_sweep.values():
        top = cell[PolicyId.DISTANCE_ONLY].avg_vm_cpu_pct
        ok = ok and all(
            top >= cell[policy].avg_vm_cpu_pct
            for policy in (PolicyId.ROUND_ROBIN, PolicyId.TRADE_OFF,
                           PolicyId.RANDOM_VM)
        )
    report(capsys, 4, ok,
           "distance_only's avg_vm_cpu_pct >= round_robin, trade_off, and "
           "random_vm at every desk-sweep point")


def test_acceptance_05_energy_unit_values(capsys):
    checks = []
    # multipath example: 8e6 bits across 100 km
    expected_mp = 8e6 * (5e-8 + 1.3e-15 * (1e5) ** 4)
    checks.append(math.isclose(tx_energy(8e6, 1e5), expected_mp, rel_tol=1e-9))
    # free-space example: 1000 bits across 50 m
    expected_fs = 1000 * (5e-8 + 1e-11 * 50.0**2)
    checks.append(math.isclose(tx_energy(1000, 50.0), expected_fs, rel_tol=1e-9))
    # reception example: 2e7 bits cost exactly 1 J of electronics energy
    checks.append(rx_energy(2e7) == 2e7 * 5e-8 == 1.0)
    # branch continuity at the crossover distance
    d0 = RadioParams().crossover_m
    below = tx_energy(1e6, math.nextafter(d0, 0.0))
    at = tx_energy(1e6, d0)
    checks.append(math.isclose(below, at, rel_tol=1e-9))
    checks.append(energy_db(1.0) == 0.0)
    report(capsys, 5, all(checks),
           "tx/rx energies match hand values to 1e-9 relative, the d0 "
           "branches meet, and energy_db(1) is exactly 0")


def _oracle_feasible(cand: Candidate, architecture, link: LinkParams) -> bool:
    return (cand.host_layer in architecture
            and cand.distance_m <= link.range_by_layer[cand.host_layer])


def _oracle_distance_only(cands, architecture, link):
    best = None
    for i, c in enumerate(cands):
        if not _oracle_feasible(c, architecture, link):
            continue
        if best is None or c.distance_m < cands[best].distance_m:
            best = i
    return best


def _oracle_round_robin(cands, architecture, link):
    best = None
    for i, c in enumerate(cands):
        if not _oracle_feasible(c, architecture, link):
            continue
        if best is None or c.assigned_count < cands[best].assigned_count:
            best = i
    return best


def _oracle_trade_off(cands, task, architecture, link, layer_weights):
    best, best_score = None, None
    for i, c in enumerate(cands):
        if not _oracle_feasible(c, architecture, link):
            continue
        score = (layer_weights[c.host_layer] * (c.queue_len + 1.0)
                 * task.length_mi / c.vm_mips
                 + c.distance_m / link.propagation_speed_mps)
        if best is None or score < best_score:
            best, best_score = i, score
    return best


def _oracle_weight_greedy(cands, task, architecture, link, radio):
    idx = [i for i, c in enumerate(cands)
           if _oracle_feasible(c, architecture, link)]
    if not idx:
        return None

    def minmax(values):
        lo, hi = min(values), max(values)
        if hi - lo == 0.0:
            return [0.0] * len(values)
        return [(v - lo) / (hi - lo) for v in values]

    distances = [cands[i].distance_m for i in idx]
    cpu = [(cands[i].queue_len + 1.0) * task.length_mi / cands[i].vm_mips
           for i in idx]
    queues = [float(cands[i].queue_len) for i in idx]
    energies = []
    for d in distances:
        d2 = d * d
        if d < radio.crossover_m:
            energies.append(task.input_bits * (radio.e_elec + radio.eps_fs * d2))
        else:
            energies.append(task.input_bits * (radio.e_elec + radio.eps_mp * (d2 * d2)))
    best, best_score = None, None
    for j in range(len(idx)):
        score = (6.0 * minmax(distances)[j] + 6.0 * minmax(cpu)[j]
                 + 5.0 * minmax(queues)[j] + 3.0 * minmax(energies)[j])
        if best is None or score < best_score:
            best, best_score = idx[j], score
    return best


def _oracle_random_vm(cands, architecture, link, drawn):
    feasible = [_oracle_feasible(c, architecture, link) for c in cands]
    if feasible[drawn]:
        return drawn
    for offset in range(1, len(cands) + 1):
        j = (drawn + offset) % len(cands)
        if feasible[j]:
            return j
    return None


def test_acceptance_06_oracle_equivalence(capsys):
    rng = Random(20260816)
    link, radio = LinkParams(), RadioParams()
    layers = list(Layer)
    weights = {Layer.MIST: 1.0, Layer.EDGE_DC: 1.0, Layer.CLOUD: 1.2}
    agreements = {policy: 0 for policy in PolicyId}
    argmin_matches = 0
    trials = 1000
    for _ in range(trials):
        n = rng.randint(1, 10)
        vm_ids = rng.sample(range(1000), n)
        cands = [
            Candidate(
                vm_id=vm_ids[k],
                host_layer=rng.choice(layers),
                distance_m=rng.random() * 4.5e7,
                queue_len=rng.randrange(6),
                vm_mips=rng.choice([1e4, 4e4, 1e5]),
                assigned_count=rng.randrange(50),
            )
            for k in range(n)
        ]
        view = view_from_candidates(cands)
        architecture = frozenset(rng.sample(layers, rng.randint(1, 3)))
        task = TaskInfo(rng.choice([10_000.0, 20_000.0]),
                        rng.choice([8e6, 1.6e9]))
        oracle_picks = {
            PolicyId.DISTANCE_ONLY: _oracle_distance_only(cands, architecture, link),
            PolicyId.ROUND_ROBIN: _oracle_round_robin(cands, architecture, link),
            PolicyId.TRADE_OFF: _oracle_trade_off(cands, task, architecture,
                                                  link, weights),
            PolicyId.WEIGHT_GREEDY: _oracle_weight_greedy(cands, task,
                                                          architecture, link, radio),
        }
        draw_seed = rng.randrange(2**32)
        oracle_picks[PolicyId.RANDOM_VM] = _oracle_random_vm(
            cands, architecture, link, Random(draw_seed).randrange(n))
        for policy, oracle_pick in oracle_picks.items():
            try:
                selection = select(policy, view, task, architecture,
                                   rng=Random(draw_seed))
            except PlacementError:
                agreements[policy] += oracle_pick is None
                continue
            if oracle_pick is not None and selection.vm_id == cands[oracle_pick].vm_id:
                agreements[policy] += 1
                if policy is PolicyId.DISTANCE_ONLY:
                    argmin_matches += 1
        if oracle_picks[PolicyId.DISTANCE_ONLY] is None:
            argmin_matches += 1
    ok = all(count == trials for count in agreements.values())
    ok = ok and argmin_matches == trials
    report(capsys, 6, ok,
           f"all five policies agree with brute-force oracles on {trials} "
           "candidate sets; distance_only equals the raw-distance argmin")


def test_acceptance_07_sweep_determinism(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "constellation.mist=2\nconstellation.edge_dc=1\nconstellation.cloud=1\n"
        "simulation.duration_s=30\nconstellation.phasing=random_uniform\nrng.seed=5\n"
    )
    dirs = (tmp_path / "first", tmp_path / "second")
    for out in dirs:
        code = main([
            "sweep", "--config", str(cfg), "--counts", "2,3",
            "--policies", "distance_only,round_robin,trade_off,random_vm,weight_greedy",
            "--seeds", "1,2", "--out", str(out),
        ])
        assert code == 0
    names = ["results.csv"] + [f"plot_{metric}.csv" for metric in PLOT_METRICS]
    ok = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in names
    )
    report(capsys, 7, ok,
           "two sweep executions with identical config and seeds emit "
           "byte-identical CSV files")


def test_acceptance_08_conservation(desk_sweep, capsys):
    counts_ok = all(
        rec.generated == rec.succeeded + rec.failed_deadline
        + rec.failed_mobility + rec.failed_no_destination + rec.unfinished
        for cell in desk_sweep.values()
        for rec in cell.values()
    )
    energy_ok = True
    deadline_ok = True
    for policy in PolicyId:
        cfg = parse_config(
            f"constellation.mist=10\nsimulation.duration_s=120\npolicy.name={policy.value}\n"
        )
        transfers = []
        sim = Simulation(cfg, on_transfer=lambda *args: transfers.append(args))
        rec = sim.run()
        counts_ok = counts_ok and rec.generated == (
            rec.succeeded + rec.failed_deadline + rec.failed_mobility
            + rec.failed_no_destination + rec.unfinished
        )
        total = sum(tx + rx for _, _, _, tx, rx in transfers)
        if total == 0.0:
            energy_ok = energy_ok and rec.total_energy_j == 0.0
        else:
            energy_ok = energy_ok and math.isclose(
                rec.total_energy_j, total, rel_tol=1e-6)
        deadline_ok = deadline_ok and all(
            task.e2e_s <= task.max_latency_s
            for task in sim.tasks
            if task.state is TaskState.SUCCEEDED
        )
    report(capsys, 8, counts_ok and energy_ok and deadline_ok,
           "task counts balance exactly, energy matches per-transfer sums "
           "to 1e-6 relative, and succeeded tasks respect deadlines")


def test_acceptance_09_orbit_invariants(capsys):
    period = orbital_period_s(OrbitalElements(400_000.0))
    kepler_ok = abs(period - 5545.0) <= 1.0

    constellation = build_constellation(parse_config(None).constellation)
    picks = [0, 137, 999, 1005, 1030]  # mist, edge, and cloud entries
    periodic_ok = True
    altitude_ok = True
    for index in picks:
        layer, elements = constellation[index]
        radius = 6_371_000.0 + elements.altitude_m
        sat_period = orbital_period_s(elements)
        for t in range(0, int(sat_period) + 1):
            p_now = position_at(elements, float(t))
            p_next = position_at(elements, float(t) + sat_period)
            gap = math.dist(p_now, p_next)
            periodic_ok = periodic_ok and gap <= 1e-6 * radius
            sampled_radius = math.hypot(*p_now)
            altitude_ok = altitude_ok and (
                sampled_radius - 6_371_000.0 >= elements.altitude_m - 1e-6 * radius
            )
    report(capsys, 9, kepler_ok and periodic_ok and altitude_ok,
           f"400 km period {period:.2f} s within 5545 +/- 1; positions repeat "
           "each period and never dip below the altitude floor at 1 s sampling")


def test_acceptance_10_full_scale_smoke(capsys):
    base = parse_config(None)
    assert base.constellation.mist == 1000
    assert base.constellation.edge_dc == 24
    assert base.constellation.cloud == 18
    records = []
    start = time.perf_counter()
    for policy in PolicyId:
        records.append(Simulation(replace(base, policy=policy)).run())
    elapsed = time.perf_counter() - start
    metrics_ok = all(
        rec.generated > 0
        and rec.success_rate_pct is not None
        and rec.avg_e2e_s is not None
        and rec.avg_vm_cpu_pct > 0.0
        for rec in records
    )
    ok = elapsed < 600.0 and len(records) == 5 and metrics_ok
    report(capsys, 10, ok,
           f"full-scale run of all five policies took {elapsed:.0f} s "
           "(< 600 s) and produced 5 records with defined metrics")
