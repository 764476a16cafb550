"""weight_greedy and trade_off pick the VM their earlier, plainer form picks.

The reference functions below are verbatim copies (names aside) of the
two policies and their pick and normalization helpers as they stood
before the scoring was rewritten to work in place with fewer array
passes. The
rewrite must perform the same IEEE operations on every candidate, so the
picks must agree exactly: on random full-size views, on views built to
sit exactly on a decision boundary, where one rounding step in any score
term flips the choice, and on the edge values of each indicator.
"""

from __future__ import annotations

import operator
from typing import Mapping, Sequence

import numpy as np
import pytest

from satmist.layers import LAYER_CODE, Layer
from satmist.netenergy import DEFAULT_LINK, DEFAULT_RADIO, LinkParams, RadioParams
from satmist.orchestrate import (
    DEFAULT_TRADEOFF_LAYER_WEIGHTS,
    WEIGHT_GREEDY_RATIOS,
    CandidateView,
    PlacementError,
    Selection,
    TaskInfo,
    _feasible_indices,
    _spread,
    trade_off,
    weight_greedy,
)

N = 1042  # VMs of the default 1000 + 24 + 18 constellation
ALL = frozenset(Layer)
# The default radio's two energy branches agree bit for bit at its crossover;
# this one's differ there by one rounding step, so the strict < is observable.
SPLIT_RADIO = RadioParams(e_elec=5e-8, eps_fs=1e-11, eps_mp=1.2e-15)
RADIOS = (DEFAULT_RADIO, SPLIT_RADIO)
SHORT_LINK = LinkParams(range_by_layer={Layer.MIST: 6e6, Layer.EDGE_DC: 9e6, Layer.CLOUD: 17e6})
CLOUD_HEAVY = {Layer.MIST: 1.0, Layer.EDGE_DC: 1.0, Layer.CLOUD: 1.2}


# -- the earlier implementations, kept verbatim ---------------------------

def reference_trade_off(view: CandidateView, task, architecture, *, link: LinkParams = DEFAULT_LINK,
                        layer_weights: Mapping[Layer, float] = DEFAULT_TRADEOFF_LAYER_WEIGHTS) -> Selection:
    idx = _feasible_indices(view, architecture, link)
    weights = _spread(view, "weights", layer_weights, operator.getitem)
    score = weights * (view.queue_lens + 1.0) * task.length_mi / view.mips \
        + view.distances / link.propagation_speed_mps
    return Selection(int(view.vm_ids[reference_pick_min(score, idx)]))


def reference_pick_min(values: np.ndarray, idx: np.ndarray) -> int:
    """Index (into the full view) of the feasible minimum, first on ties."""
    return int(idx[np.argmin(values[idx])])


def reference_weight_greedy(view: CandidateView, task, architecture, *, link: LinkParams = DEFAULT_LINK,
                            radio: RadioParams = DEFAULT_RADIO,
                            ratios: Sequence[float] = WEIGHT_GREEDY_RATIOS) -> Selection:
    idx = _feasible_indices(view, architecture, link)
    d = view.distances[idx]
    q = view.queue_lens[idx]
    cpu = (q + 1.0) * task.length_mi / view.mips[idx]
    d2 = d * d
    energy = task.input_bits * np.where(
        d < radio.crossover_m,
        radio.e_elec + radio.eps_fs * d2,
        radio.e_elec + radio.eps_mp * (d2 * d2),
    )
    score = ratios[0] * reference_minmax(d) + ratios[1] * reference_minmax(cpu) \
        + ratios[2] * reference_minmax(q) + ratios[3] * reference_minmax(energy)
    return Selection(int(view.vm_ids[idx[int(np.argmin(score))]]))


def reference_minmax(values: np.ndarray) -> np.ndarray:
    lo = values.min()
    span = values.max() - lo
    if span == 0.0:
        return np.zeros(values.shape)
    return (values - lo) / span


# -- views -----------------------------------------------------------------

def make_view(codes, distances, queues, mips, static_feasible=None) -> CandidateView:
    n = len(codes)
    return CandidateView(
        vm_ids=np.arange(1000, 1000 + 3 * n, 3, dtype=np.int64),  # ids differ from indices
        layer_codes=np.asarray(codes, dtype=np.int64),
        distances=np.asarray(distances, dtype=np.float64),
        queue_lens=np.asarray(queues, dtype=np.float64),
        mips=np.asarray(mips, dtype=np.float64),
        assigned=np.zeros(n, dtype=np.int64),
        static_feasible=static_feasible,
    )


def random_view(rng: np.random.Generator, *, feasibility: str, equal_queues=False,
                equal_distances=False, crossover=DEFAULT_RADIO.crossover_m):
    """A 1,042-VM view with edge values planted, and the architecture and link to place on."""
    codes = np.repeat([0, 1, 2], [1000, 24, 18])
    mips = np.choose(codes, [10_000.0, 40_000.0, 100_000.0])
    distances = rng.uniform(0.0, 2.4e7, N)
    queues = rng.integers(0, 8, N).astype(np.float64)
    spots = rng.choice(N, 12, replace=False)
    distances[spots[:3]] = 0.0
    distances[spots[3:6]] = crossover
    distances[spots[6:9]] = np.nextafter(crossover, 0.0)
    distances[spots[9:]] = distances[rng.choice(N, 3)]  # exact distance ties
    twins = rng.choice(N, 20, replace=False)  # exact ties in every column
    distances[twins[10:]], queues[twins[10:]] = distances[twins[:10]], queues[twins[:10]]
    codes[twins[10:]], mips[twins[10:]] = codes[twins[:10]], mips[twins[:10]]
    if equal_queues:
        queues[:] = 3.0
    if equal_distances:
        distances[:] = crossover if rng.random() < 0.5 else 1.5e7
    link, static = DEFAULT_LINK, None
    if feasibility == "every":
        arch = ALL
        static = np.arange(N)
    elif feasibility == "subset":
        arch = frozenset({Layer.EDGE_DC, Layer.CLOUD}) if rng.random() < 0.5 \
            else frozenset({Layer.MIST, Layer.CLOUD})
        static = np.flatnonzero(np.isin(codes, [LAYER_CODE[layer] for layer in arch]))
    else:  # checked per task against short ranges
        arch = ALL if rng.random() < 0.5 else frozenset({Layer.MIST, Layer.EDGE_DC})
        link = SHORT_LINK
    return make_view(codes, distances, queues, mips, static), arch, link


def random_task(rng: np.random.Generator) -> TaskInfo:
    return TaskInfo(length_mi=float(rng.choice([20_000.0, 7_777.0, 1e5])),
                    input_bits=float(rng.choice([8e6, 1.0, 3e9])))


def picks(policy, reference, view, task, arch, **kwargs):
    """(new pick, reference pick), checking the new code left the view's columns alone."""
    before = [column.copy() for column in (view.distances, view.queue_lens, view.mips)]
    try:
        got = policy(view, task, arch, **kwargs).vm_id
    except PlacementError:
        got = None
    after = (view.distances, view.queue_lens, view.mips)
    assert all(np.array_equal(a, b) for a, b in zip(before, after)), "policy wrote into the view"
    try:
        want = reference(view, task, arch, **kwargs).vm_id
    except PlacementError:
        want = None
    return got, want


# -- random full-size views ------------------------------------------------

@pytest.mark.parametrize("feasibility", ["every", "subset", "per_task"])
@pytest.mark.parametrize("spans", ["varied", "equal_queues", "equal_distances", "both_equal"])
def test_weight_greedy_picks_as_reference_on_random_views(feasibility, spans):
    rng = np.random.default_rng([7, len(feasibility), len(spans)])
    for k in range(40):
        radio = RADIOS[k % 2]
        v, arch, link = random_view(rng, feasibility=feasibility,
                                    equal_queues=spans in ("equal_queues", "both_equal"),
                                    equal_distances=spans in ("equal_distances", "both_equal"),
                                    crossover=radio.crossover_m)
        got, want = picks(weight_greedy, reference_weight_greedy, v, random_task(rng), arch,
                          link=link, radio=radio)
        assert got == want


@pytest.mark.parametrize("feasibility", ["every", "subset", "per_task"])
def test_trade_off_picks_as_reference_on_random_views(feasibility):
    rng = np.random.default_rng([11, len(feasibility)])
    for _ in range(60):
        v, arch, link = random_view(rng, feasibility=feasibility,
                                    equal_queues=rng.random() < 0.3)
        weights = CLOUD_HEAVY if rng.random() < 0.5 else {layer: 1.0 for layer in Layer}
        got, want = picks(trade_off, reference_trade_off, v, random_task(rng), arch,
                          link=link, layer_weights=weights)
        assert got == want


@pytest.mark.parametrize("radio", RADIOS, ids=["default_radio", "split_radio"])
def test_weight_greedy_edge_values_pick_as_reference(radio):
    # every distance an edge value: 0 m, the crossover, one ulp below it, and ties
    c = radio.crossover_m
    below = np.nextafter(c, 0.0)
    for distances in ([0.0, c, below, c],
                      [c, below, below, c],
                      [c, c, c],
                      [0.0, 0.0],
                      [below, 2 * c, c]):
        n = len(distances)
        for queues in ([1.0] * n, list(range(n)), list(range(n))[::-1]):
            v = make_view([0] * n, distances, queues, [10_000.0] * n)
            for bits in (8e6, 1.0):
                task = TaskInfo(length_mi=20_000.0, input_bits=bits)
                got, want = picks(weight_greedy, reference_weight_greedy, v, task, ALL,
                                  radio=radio)
                assert got == want, (distances, queues, bits)


# -- views on a decision boundary -----------------------------------------

def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def _float(bits: int) -> float:
    return float(np.int64(bits).view(np.float64))


def boundary_views(reference, codes, base_distances, queues, mips, moving, upto, task, **kwargs):
    """Two views, one rounding step apart in candidate `moving`'s distance, either side
    of a distance below `upto` at which the reference's pick changes."""
    def pick(x):
        distances = list(base_distances)
        distances[moving] = x
        v = make_view(codes, distances, queues, mips)
        return v, reference(v, task, ALL, **kwargs).vm_id

    lo, hi = _bits(base_distances[moving]), _bits(upto)
    near, far = pick(_float(lo))[1], pick(_float(hi))[1]
    assert near != far, "no boundary in the searched interval"
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pick(_float(mid))[1] == near:
            lo = mid
        else:
            hi = mid
    return pick(_float(lo))[0], pick(_float(hi))[0]


@pytest.mark.parametrize("radio", RADIOS, ids=["default_radio", "split_radio"])
def test_weight_greedy_picks_as_reference_on_decision_boundaries(radio):
    # Candidate 1 sits exactly at the crossover (or one ulp below), candidate 2 moves
    # outward until it stops winning; 0 and 3 fix each indicator's minimum and maximum.
    # At the switch the two scores are one rounding step apart, so a change in any
    # operation's rounding, in the crossover branch or in the sum order, shows.
    rng = np.random.default_rng(2024)
    c = radio.crossover_m
    checked = 0
    for at in (c, np.nextafter(c, 0.0)):
        for _ in range(80):
            far = float(rng.uniform(1.2, 3.0)) * c
            queues = [9.0, float(rng.integers(0, 5)), float(rng.integers(0, 5)), 9.0]
            if queues[2] >= queues[1]:
                continue  # candidate 2 must win when it sits close
            mips = [10_000.0, float(rng.choice([10_000.0, 40_000.0])), 10_000.0, 100_000.0]
            task = TaskInfo(length_mi=float(rng.uniform(1e3, 1e5)),
                            input_bits=float(rng.uniform(1.0, 1e7)))
            base = [0.0, at, at * 0.5, far]
            try:
                views = boundary_views(reference_weight_greedy, [0] * 4, base, queues, mips, 2,
                                       2 * far, task, radio=radio)
            except AssertionError:
                continue  # candidate 2 keeps winning all the way out
            for v in views:
                got, want = picks(weight_greedy, reference_weight_greedy, v, task, ALL,
                                  radio=radio)
                assert got == want, (v.distances.tolist(), queues, mips, task)
                checked += 1
    assert checked >= 100


def test_trade_off_picks_as_reference_on_decision_boundaries():
    # Candidate 1 moves outward from 1 m, staying within every layer's range, until
    # candidate 0 wins; 0 and 1 are mist or cloud VMs, weighted 1 or 1.2.
    rng = np.random.default_rng(4048)
    checked = 0
    for _ in range(300):
        codes = [int(rng.choice([0, 2])), int(rng.choice([0, 2])), 0]
        queues = [float(rng.integers(0, 4)), float(rng.integers(0, 4)), 9.0]
        mips = [float(rng.choice([10_000.0, 40_000.0])), 40_000.0, 10_000.0]
        task = TaskInfo(length_mi=float(rng.uniform(1e2, 2e3)), input_bits=8e6)
        base = [float(rng.uniform(1e5, 2e7)), 1.0, 1.5e7]
        try:
            views = boundary_views(reference_trade_off, codes, base, queues, mips, 1, 3e7, task,
                                   layer_weights=CLOUD_HEAVY)
        except AssertionError:
            continue
        for v in views:
            got, want = picks(trade_off, reference_trade_off, v, task, ALL,
                              layer_weights=CLOUD_HEAVY)
            assert got == want, (v.distances.tolist(), queues, mips, task)
            checked += 1
    assert checked >= 100
