from __future__ import annotations

import random
from dataclasses import astuple

import numpy as np
import pytest

from satmist.layers import Layer
from satmist.netenergy import DEFAULT_LINK, DEFAULT_RADIO
from satmist.orchestrate import (
    PlacementError,
    PolicyId,
    distance_only,
    random_vm,
    round_robin,
    round_robin_turns,
    select,
    trade_off,
    weight_greedy,
)
from support import Candidate, TaskInfo, view_from_candidates

ALL_LAYERS = frozenset(Layer)
TASK = TaskInfo(length_mi=20_000.0, input_bits=8e6)
view = view_from_candidates


# -- independent scalar oracles, plain loops and strict-< updates ---------

def oracle_feasible(c: Candidate, architecture) -> bool:
    if c.host_layer not in architecture:
        return False
    return c.distance_m <= DEFAULT_LINK.range_by_layer[c.host_layer]


def oracle_distance_only(cands, architecture):
    best = None
    best_d = None
    for i, c in enumerate(cands):
        if not oracle_feasible(c, architecture):
            continue
        if best is None or c.distance_m < best_d:
            best, best_d = i, c.distance_m
    return best


def oracle_round_robin(cands, architecture):
    best = None
    best_a = None
    for i, c in enumerate(cands):
        if not oracle_feasible(c, architecture):
            continue
        if best is None or c.assigned_count < best_a:
            best, best_a = i, c.assigned_count
    return best


def oracle_trade_off(cands, task, architecture, cloud_weight=1.2):
    weights = {Layer.MIST: 1.0, Layer.EDGE_DC: 1.0, Layer.CLOUD: cloud_weight}
    best = None
    best_s = None
    for i, c in enumerate(cands):
        if not oracle_feasible(c, architecture):
            continue
        score = weights[c.host_layer] * (c.queue_len + 1.0) * task.length_mi / c.vm_mips \
            + c.distance_m / DEFAULT_LINK.propagation_speed_mps
        if best is None or score < best_s:
            best, best_s = i, score
    return best


def oracle_tx_energy(bits, d):
    d2 = d * d
    if d < DEFAULT_RADIO.crossover_m:
        return bits * (DEFAULT_RADIO.e_elec + DEFAULT_RADIO.eps_fs * d2)
    return bits * (DEFAULT_RADIO.e_elec + DEFAULT_RADIO.eps_mp * (d2 * d2))


def oracle_weight_greedy(cands, task, architecture):
    idx = [i for i, c in enumerate(cands) if oracle_feasible(c, architecture)]
    if not idx:
        return None
    dist = [cands[i].distance_m for i in idx]
    cpu = [(cands[i].queue_len + 1.0) * task.length_mi / cands[i].vm_mips for i in idx]
    par = [float(cands[i].queue_len) for i in idx]
    ene = [oracle_tx_energy(task.input_bits, cands[i].distance_m) for i in idx]

    def norm(values):
        lo, hi = min(values), max(values)
        if hi == lo:
            return [0.0] * len(values)
        return [(v - lo) / (hi - lo) for v in values]

    ndist, ncpu, npar, nene = norm(dist), norm(cpu), norm(par), norm(ene)
    best = None
    best_s = None
    for k, i in enumerate(idx):
        score = 6.0 * ndist[k] + 6.0 * ncpu[k] + 5.0 * npar[k] + 3.0 * nene[k]
        if best is None or score < best_s:
            best, best_s = i, score
    return best


def oracle_random_vm(cands, architecture, drawn):
    n = len(cands)
    for step in range(n):
        i = (drawn + step) % n
        if oracle_feasible(cands[i], architecture):
            return i
    return None


def random_candidates(rng: random.Random, n=None, feasible_bias=0.7):
    n = n if n is not None else rng.randint(1, 10)
    ids = rng.sample(range(100), n)  # non-contiguous ids catch id/index mixups
    out = []
    for vm_id in ids:
        layer = rng.choice(list(Layer))
        if rng.random() < feasible_bias:
            d = rng.uniform(0, 3.2e7)
        else:
            d = rng.uniform(3.2e7, 8e7)
        out.append(
            Candidate(
                vm_id=vm_id,
                host_layer=layer,
                distance_m=d,
                queue_len=rng.randint(0, 20),
                vm_mips=rng.choice([10_000.0, 40_000.0, 100_000.0, 7_777.0]),
                assigned_count=rng.randint(0, 50),
            )
        )
    return out


def random_architecture(rng: random.Random):
    masks = [
        ALL_LAYERS,
        frozenset({Layer.MIST}),
        frozenset({Layer.EDGE_DC, Layer.CLOUD}),
        frozenset({Layer.CLOUD}),
        frozenset({Layer.MIST, Layer.EDGE_DC}),
    ]
    return rng.choice(masks)


# -- worked examples -------------------------------------------------------

def mk(vm_id, layer, d, q=0, mips=10_000.0, assigned=0):
    return Candidate(vm_id=vm_id, host_layer=layer, distance_m=d,
                     queue_len=q, vm_mips=mips, assigned_count=assigned)


def test_feasible_examples():
    def feasible(cand, architecture):
        try:
            distance_only(view([cand]), TASK, architecture)
        except PlacementError:
            return False
        return True

    # each layer's range is inclusive at its boundary
    assert feasible(mk(0, Layer.MIST, 3.2e7), ALL_LAYERS)
    assert not feasible(mk(0, Layer.MIST, 3.2e7 + 1), ALL_LAYERS)
    assert feasible(mk(0, Layer.EDGE_DC, 3.6e7), ALL_LAYERS)
    assert not feasible(mk(0, Layer.EDGE_DC, 3.6e7 + 1), ALL_LAYERS)
    assert feasible(mk(0, Layer.CLOUD, 3.9e7), ALL_LAYERS)
    assert not feasible(mk(0, Layer.CLOUD, 4.1e7), ALL_LAYERS)
    assert not feasible(mk(0, Layer.EDGE_DC, 0.0), frozenset({Layer.MIST}))


def test_distance_only_picks_nearest():
    cands = [mk(0, Layer.MIST, 5e6), mk(1, Layer.MIST, 3e6), mk(2, Layer.MIST, 9e6)]
    assert distance_only(view(cands), TASK, ALL_LAYERS).vm_id == 1


def test_distance_only_skips_infeasible_nearest():
    cands = [mk(0, Layer.EDGE_DC, 1e6), mk(1, Layer.MIST, 2e6), mk(2, Layer.MIST, 3e6)]
    sel = distance_only(view(cands), TASK, frozenset({Layer.MIST}))
    assert sel.vm_id == 1


def test_distance_only_prefers_local_vm():
    cands = [mk(0, Layer.CLOUD, 2e7, mips=100_000.0), mk(7, Layer.MIST, 0.0)]
    assert distance_only(view(cands), TASK, ALL_LAYERS).vm_id == 7


def test_distance_only_tie_breaks_by_index():
    cands = [mk(3, Layer.MIST, 1e6), mk(4, Layer.MIST, 1e6)]
    assert distance_only(view(cands), TASK, ALL_LAYERS).vm_id == 3


def test_round_robin_hand_example():
    cands = [mk(0, Layer.MIST, 1e6, assigned=4), mk(1, Layer.MIST, 1e6, assigned=2),
             mk(2, Layer.MIST, 1e6, assigned=7)]
    assert round_robin(view(cands), TASK, ALL_LAYERS).vm_id == 1


def test_round_robin_tie_breaks_by_index():
    cands = [mk(5, Layer.MIST, 1e6, assigned=3), mk(6, Layer.MIST, 1e6, assigned=3)]
    assert round_robin(view(cands), TASK, ALL_LAYERS).vm_id == 5


def test_round_robin_balance_under_repeated_selection():
    counts = [0, 0, 0]
    cands = [mk(i, Layer.MIST, 1e6) for i in range(3)]
    for _ in range(100):
        cands = [
            Candidate(c.vm_id, c.host_layer, c.distance_m, c.queue_len,
                      c.vm_mips, counts[c.vm_id])
            for c in cands
        ]
        chosen = round_robin(view(cands), TASK, ALL_LAYERS).vm_id
        counts[chosen] += 1
        assert max(counts) - min(counts) <= 1


@pytest.mark.parametrize("seed", range(6))
def test_round_robin_turns_pick_as_the_argmin_on_random_static_views(seed):
    # with static feasibility and assignments counted from zero, the k-th pick of
    # the argmin over `assigned` is static_feasible[k % m]: the turns pick alike
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    layers = rng.choice(list(Layer), n)
    arch = frozenset(rng.choice(list(Layer), int(rng.integers(1, 4)), replace=False).tolist())
    cands = [mk(i, layer, float(rng.uniform(0.0, 2e7))) for i, layer in enumerate(layers)]
    cands = [Candidate(3 * c.vm_id + 7, *astuple(c)[1:]) for c in cands]  # ids differ from indices
    argmin, turned = view(cands), view(cands)
    for v in (argmin, turned):
        v.static_feasible = np.flatnonzero([layer in arch for layer in layers])
    turned.turns = round_robin_turns(turned)
    if argmin.static_feasible.size == 0:
        assert turned.turns is None
        return
    for _ in range(3 * argmin.static_feasible.size + 5):
        want = round_robin(argmin, TASK, arch).vm_id
        assert round_robin(turned, TASK, arch).vm_id == want
        for v in (argmin, turned):
            v.assigned[(v.vm_ids == want).nonzero()[0]] += 1
    assert np.array_equal(argmin.assigned, turned.assigned)


def test_round_robin_turns_only_from_zero_assignments():
    v = view([mk(i, Layer.MIST, 1e6) for i in range(3)])
    assert round_robin_turns(v) is None  # no static feasibility
    v.static_feasible = np.arange(3)
    v.assigned[1] = 1
    assert round_robin_turns(v) is None


def test_trade_off_hand_example():
    mist = mk(0, Layer.MIST, 1e6, q=0, mips=10_000.0)
    cloud = mk(1, Layer.CLOUD, 3.9e7, q=0, mips=100_000.0)
    assert trade_off(view([mist, cloud]), TASK, ALL_LAYERS).vm_id == 1
    # mist scores 20000/1e4 + 1e6/3e8 = 2.00333; cloud scores
    # w * 20000/1e5 + 3.9e7/3e8 = 0.2 w + 0.13 (0.37 at w = 1.2), so the
    # choice flips to mist between w = 9.366 and w = 9.367
    for w, winner in ((9.366, 1), (9.367, 0)):
        weights = {Layer.MIST: 1.0, Layer.EDGE_DC: 1.0, Layer.CLOUD: w}
        sel = trade_off(view([mist, cloud]), TASK, ALL_LAYERS, layer_weights=weights)
        assert sel.vm_id == winner


def test_trade_off_prefers_empty_queue():
    a = mk(0, Layer.MIST, 1e6, q=5)
    b = mk(1, Layer.MIST, 1e6, q=0)
    assert trade_off(view([a, b]), TASK, ALL_LAYERS).vm_id == 1


def test_trade_off_prefers_faster_vm():
    a = mk(0, Layer.MIST, 1e6, mips=10_000.0)
    b = mk(1, Layer.MIST, 1e6, mips=100_000.0)
    assert trade_off(view([a, b]), TASK, ALL_LAYERS).vm_id == 1


def test_trade_off_cloud_weight_is_configurable():
    mist = mk(0, Layer.MIST, 0.0, mips=10_000.0)
    cloud = mk(1, Layer.CLOUD, 0.0, mips=100_000.0)
    heavy = {Layer.MIST: 1.0, Layer.EDGE_DC: 1.0, Layer.CLOUD: 150.0}
    assert trade_off(view([mist, cloud]), TASK, ALL_LAYERS).vm_id == 1
    assert trade_off(view([mist, cloud]), TASK, ALL_LAYERS, layer_weights=heavy).vm_id == 0


def test_weight_greedy_selects_dominating_candidate():
    good = mk(0, Layer.MIST, 1e5, q=0, mips=100_000.0)
    bad = mk(1, Layer.MIST, 2e7, q=10, mips=10_000.0)
    worse = mk(2, Layer.MIST, 3e7, q=12, mips=10_000.0)
    assert weight_greedy(view([bad, good, worse]), TASK, ALL_LAYERS).vm_id == 0


def test_weight_greedy_identical_candidates_tie_break():
    cands = [mk(4, Layer.MIST, 1e6, q=2), mk(5, Layer.MIST, 1e6, q=2)]
    assert weight_greedy(view(cands), TASK, ALL_LAYERS).vm_id == 4


def test_weight_greedy_matches_hand_built_table():
    cands = [
        mk(0, Layer.MIST, 1e6, q=3, mips=10_000.0),
        mk(1, Layer.EDGE_DC, 2e7, q=0, mips=40_000.0),
        mk(2, Layer.CLOUD, 3e7, q=1, mips=100_000.0),
    ]
    expected = oracle_weight_greedy(cands, TASK, ALL_LAYERS)
    got = weight_greedy(view(cands), TASK, ALL_LAYERS)
    assert got.vm_id == cands[expected].vm_id


def test_random_vm_forced_choice():
    cands = [mk(9, Layer.MIST, 1e6)]
    for seed in range(5):
        assert random_vm(view(cands), TASK, ALL_LAYERS, random.Random(seed)).vm_id == 9


def test_random_vm_scans_forward_from_infeasible_draw():
    # candidate 0 infeasible, candidate 1 feasible; any draw lands on 1
    cands = [mk(0, Layer.CLOUD, 4.5e7), mk(1, Layer.MIST, 1e6)]
    for seed in range(10):
        assert random_vm(view(cands), TASK, ALL_LAYERS, random.Random(seed)).vm_id == 1


def test_random_vm_wraps_around():
    # feasible only at index 0; a draw of 1 or 2 must wrap to 0
    cands = [mk(0, Layer.MIST, 1e6), mk(1, Layer.CLOUD, 4.5e7), mk(2, Layer.CLOUD, 4.5e7)]
    for seed in range(10):
        assert random_vm(view(cands), TASK, ALL_LAYERS, random.Random(seed)).vm_id == 0


def test_random_vm_seed_replay():
    rng_a = random.Random(123)
    rng_b = random.Random(123)
    cands = random_candidates(random.Random(5), n=8)
    picks_a = [random_vm(view(cands), TASK, ALL_LAYERS, rng_a).vm_id for _ in range(20)]
    picks_b = [random_vm(view(cands), TASK, ALL_LAYERS, rng_b).vm_id for _ in range(20)]
    assert picks_a == picks_b


class CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def randrange(self, *args, **kwargs):
        self.draws += 1
        return super().randrange(*args, **kwargs)


def test_random_vm_consumes_exactly_one_draw():
    rng = CountingRandom(7)
    cands = [mk(0, Layer.CLOUD, 4.5e7), mk(1, Layer.MIST, 1e6), mk(2, Layer.MIST, 2e6)]
    random_vm(view(cands), TASK, ALL_LAYERS, rng)
    assert rng.draws == 1


def test_random_vm_draw_table_picks_as_the_scan_on_static_views():
    # Under static feasibility each draw's pick is read from a table made once for
    # the view. The same candidates with feasibility checked per call, scanned
    # forward from the draw, and the oracle pick alike, draw for draw, one draw a
    # call, with disabled layers among them; every layer disabled raises after
    # the draw on both paths.
    rng = random.Random(2027)
    empty = 0
    for _ in range(150):
        cands = random_candidates(rng, n=rng.randint(1, 30), feasible_bias=1.0)
        arch = random_architecture(rng)
        tabled, scanned = view(cands), view(cands)
        tabled.static_feasible = np.array(
            [i for i, c in enumerate(cands) if c.host_layer in arch], dtype=np.intp)
        seed = rng.randint(0, 10_000)
        rng_t, rng_s, drawn = CountingRandom(seed), CountingRandom(seed), random.Random(seed)
        for _ in range(20):
            index = oracle_random_vm(cands, arch, drawn.randrange(len(cands)))
            picks = []
            for v, r in ((tabled, rng_t), (scanned, rng_s)):
                try:
                    picks.append(random_vm(v, TASK, arch, r).vm_id)
                except PlacementError:
                    picks.append(None)
            assert picks == [None if index is None else cands[index].vm_id] * 2
        assert rng_t.draws == rng_s.draws == 20
        empty += tabled.static_feasible.size == 0
    assert empty > 0


def test_placement_failure_on_empty_list():
    for fn in (distance_only, round_robin, trade_off, weight_greedy):
        with pytest.raises(PlacementError):
            fn(view([]), TASK, ALL_LAYERS)
    rng = CountingRandom(0)
    with pytest.raises(PlacementError):
        random_vm(view([]), TASK, ALL_LAYERS, rng)
    assert rng.draws == 0


def test_placement_failure_when_nothing_feasible():
    cands = [mk(0, Layer.CLOUD, 4.5e7), mk(1, Layer.MIST, 3.3e7)]
    for fn in (distance_only, round_robin, trade_off, weight_greedy):
        with pytest.raises(PlacementError):
            fn(view(cands), TASK, ALL_LAYERS)
    with pytest.raises(PlacementError):
        random_vm(view(cands), TASK, ALL_LAYERS, random.Random(0))


def test_scale_invariance_of_distance_only():
    rng = random.Random(11)
    base = [mk(i, Layer.MIST, rng.uniform(1.0, 100.0)) for i in range(6)]
    baseline = distance_only(view(base), TASK, ALL_LAYERS).vm_id
    for k in (0.5, 2.0, 1e3, 1e4):
        scaled = [
            Candidate(c.vm_id, c.host_layer, c.distance_m * k, c.queue_len,
                      c.vm_mips, c.assigned_count)
            for c in base
        ]
        assert distance_only(view(scaled), TASK, ALL_LAYERS).vm_id == baseline


def test_oracle_equivalence_on_random_sets():
    rng = random.Random(2024)
    checked = 0
    for _ in range(300):
        cands = random_candidates(rng)
        arch = random_architecture(rng)
        expected = {
            PolicyId.DISTANCE_ONLY: oracle_distance_only(cands, arch),
            PolicyId.ROUND_ROBIN: oracle_round_robin(cands, arch),
            PolicyId.TRADE_OFF: oracle_trade_off(cands, TASK, arch),
            PolicyId.WEIGHT_GREEDY: oracle_weight_greedy(cands, TASK, arch),
        }
        for policy, index in expected.items():
            if index is None:
                with pytest.raises(PlacementError):
                    select(policy, view(cands), TASK, arch)
            else:
                sel = select(policy, view(cands), TASK, arch)
                assert sel.vm_id == cands[index].vm_id, (policy, cands, arch)
                assert oracle_feasible(cands[index], arch)
        seed = rng.randint(0, 10_000)
        drawn = random.Random(seed).randrange(len(cands))
        index = oracle_random_vm(cands, arch, drawn)
        if index is None:
            with pytest.raises(PlacementError):
                select(PolicyId.RANDOM_VM, view(cands), TASK, arch, rng=random.Random(seed))
        else:
            sel = select(PolicyId.RANDOM_VM, view(cands), TASK, arch, rng=random.Random(seed))
            assert sel.vm_id == cands[index].vm_id
        checked += 1
    assert checked == 300


def test_candidate_view_matches_list_path():
    # view_from_candidates keeps every field of the candidate list, in order
    rng = random.Random(404)
    for _ in range(50):
        cands = random_candidates(rng)
        v = view(cands)
        assert len(v) == len(cands)
        assert v.vm_ids.tolist() == [c.vm_id for c in cands]
        assert [list(Layer)[code] for code in v.layer_codes] == [c.host_layer for c in cands]
        assert v.distances.tolist() == [c.distance_m for c in cands]
        assert v.queue_lens.tolist() == [float(c.queue_len) for c in cands]
        assert v.mips.tolist() == [c.vm_mips for c in cands]
        assert v.assigned.tolist() == [c.assigned_count for c in cands]


def test_select_requires_rng_for_random_policy():
    cands = [mk(0, Layer.MIST, 1e6)]
    with pytest.raises(ValueError):
        select(PolicyId.RANDOM_VM, view(cands), TASK, ALL_LAYERS)


def _with_hints(cands, architecture, local):
    """The same view, carrying the three hints, and its source's read log."""
    hinted = view(cands)
    hinted.local = local
    enabled = [c.host_layer in architecture for c in cands]
    hinted.static_feasible = np.flatnonzero(enabled)
    hinted.max_distance = max(c.distance_m for c in cands)
    return hinted, hinted.source.reads


def test_static_index_and_local_vm_pick_as_the_full_path():
    # every enabled candidate in range; candidate `local` is the origin's VM at 0 m
    rng = random.Random(512)
    layers = list(Layer)
    skipped_reads = 0
    for _ in range(300):
        arch = frozenset(rng.sample(layers, rng.randint(1, 3)))
        n = rng.randint(1, 12)
        local = rng.randrange(n)
        cands = []
        for i in range(n):
            layer = rng.choice(layers)
            reach = DEFAULT_LINK.range_by_layer[layer]
            d = rng.uniform(1.0, reach if layer in arch else 2 * reach)
            cands.append(Candidate(
                vm_id=100 + 7 * i, host_layer=layer, distance_m=0.0 if i == local else d,
                queue_len=rng.randint(0, 5), vm_mips=10_000.0,
                assigned_count=rng.randint(0, 3)))
        for policy in (PolicyId.DISTANCE_ONLY, PolicyId.ROUND_ROBIN, PolicyId.RANDOM_VM,
                       PolicyId.TRADE_OFF):
            seed = rng.randint(0, 10_000)
            hinted, reads = _with_hints(cands, arch, local)
            try:
                want = select(policy, view(cands), TASK, arch, rng=random.Random(seed)).vm_id
            except PlacementError:
                want = None
            try:
                got = select(policy, hinted, TASK, arch, rng=random.Random(seed)).vm_id
            except PlacementError:
                got = None
            assert got == want, (policy, arch, cands)
            if policy is PolicyId.TRADE_OFF:
                # no far set: a shortlist of one is the pick, a longer one reads the column
                assert reads in ([], ["fill"]), reads
                skipped_reads += not reads
            elif policy is not PolicyId.DISTANCE_ONLY or cands[local].host_layer in arch:
                assert "fill" not in reads, policy  # placed without the distance column
                skipped_reads += 1
    assert skipped_reads > 900


def test_distance_only_keeps_the_origin_vm_on_a_tie_at_zero():
    # candidate 0 sits at the origin's position too; the origin's own VM wins
    cands = [mk(0, Layer.MIST, 0.0), mk(1, Layer.MIST, 0.0), mk(2, Layer.EDGE_DC, 5.0)]
    hinted = view(cands)
    hinted.local = 1
    assert distance_only(hinted, TASK, ALL_LAYERS).vm_id == 1
    assert distance_only(view(cands), TASK, ALL_LAYERS).vm_id == 0
    # with its layer disabled, the origin's VM is not a candidate at all
    assert distance_only(hinted, TASK, frozenset({Layer.EDGE_DC})).vm_id == 2
