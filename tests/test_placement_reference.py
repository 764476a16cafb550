"""weight_greedy and trade_off pick the VM their earlier, plainer form picks.

The reference functions below are verbatim copies (names aside) of the
two policies and their pick and normalization helpers as they stood
before the scoring was rewritten to work in place with fewer array
passes. The
rewrite must perform the same IEEE operations on every candidate, so the
picks must agree exactly: on random full-size views, on views built to
sit exactly on a decision boundary, where one rounding step in any score
term flips the choice, and on the edge values of each indicator.

Each policy's fallback scores the feasible set that _feasible gives:
the column's, or with `feasible_sets` the source's, which the "sets"
views serve from their column against reach_row. trade_off's shortlist,
which its kept far terms give where no first-block VM can join it and
which it scores on the source's `far_row`, and weight_greedy's, which
takes the far set's distance and energy terms from its `far_terms`, run
whenever the view's static facts allow them; the shortlist tests below
put the column behind a logging ColumnSource and compare with the
reference on the same column.
"""

from __future__ import annotations

import math
import operator
from typing import Mapping, Sequence

import numpy as np
import pytest

from satmist import orchestrate
from satmist.layers import LAYER_CODE, Layer
from satmist.netenergy import DEFAULT_LINK, DEFAULT_RADIO, LinkParams, RadioParams
from satmist.orchestrate import (
    DEFAULT_TRADEOFF_LAYER_WEIGHTS,
    WEIGHT_GREEDY_RATIOS,
    CandidateView,
    FarSet,
    PlacementError,
    Selection,
    _feasible_indices,
    _spread,
    distance_only,
    reach_row,
    trade_off,
    weight_greedy,
)
from support import ColumnSource, TaskInfo, far_term_source, serve_sets

N = 1042  # VMs of the default 1000 + 24 + 18 constellation
ALL = frozenset(Layer)
# The default radio's two energy branches agree bit for bit at its crossover;
# this one's differ there by one rounding step, so the strict < is observable.
SPLIT_RADIO = RadioParams(e_elec=5e-8, eps_fs=1e-11, eps_mp=1.2e-15)
RADIOS = (DEFAULT_RADIO, SPLIT_RADIO)
SHORT_LINK = LinkParams(range_by_layer={Layer.MIST: 6e6, Layer.EDGE_DC: 9e6, Layer.CLOUD: 17e6})
CLOUD_HEAVY = {Layer.MIST: 1.0, Layer.EDGE_DC: 1.0, Layer.CLOUD: 1.2}


# -- the earlier implementations, kept verbatim ---------------------------

def reference_distance_only(view: CandidateView, task, architecture, *,
                            link: LinkParams = DEFAULT_LINK) -> Selection:
    """The nearest candidate within reach, first on ties (a view with no `local`)."""
    idx = np.flatnonzero(view.distances <= reach_row(view, architecture, link))
    if idx.size == 0:
        raise PlacementError("no feasible candidate")
    return Selection(int(view.vm_ids[idx[np.argmin(view.distances[idx])]]))


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
        source=ColumnSource(distances),
        queue_lens=np.asarray(queues, dtype=np.float64),
        mips=np.asarray(mips, dtype=np.float64),
        assigned=np.zeros(n, dtype=np.int64),
        static_feasible=static_feasible,
    )


def random_view(rng: np.random.Generator, *, feasibility: str, equal_queues=False,
                equal_distances=False, crossover=DEFAULT_RADIO.crossover_m):
    """A 1,042-VM view with edge values planted, and the architecture and link to place on.

    Feasibility is "every" VM's or a "subset" of layers, static, or checked
    per task against short ranges, on the column ("per_task") or from the
    source's feasible sets ("sets")."""
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
    else:
        arch = ALL if rng.random() < 0.5 else frozenset({Layer.MIST, Layer.EDGE_DC})
        link = SHORT_LINK
    v = make_view(codes, distances, queues, mips, static)
    if feasibility == "sets":
        serve_sets(v, arch, link)
    return v, arch, link


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

FEASIBILITIES = ["every", "subset", "per_task", "sets"]


@pytest.mark.parametrize("feasibility", FEASIBILITIES)
@pytest.mark.parametrize("spans", ["varied", "equal_queues", "equal_distances", "both_equal"])
def test_weight_greedy_picks_as_reference_on_random_views(feasibility, spans):
    rng = np.random.default_rng([7, len(feasibility), len(spans)])
    for k in range(40):
        radio = RADIOS[k % 2]
        v, arch, link = random_view(rng, feasibility=feasibility,
                                    equal_queues=spans in ("equal_queues", "both_equal"),
                                    equal_distances=spans in ("equal_distances", "both_equal"),
                                    crossover=radio.crossover_m)
        task = random_task(rng)
        if feasibility == "sets":  # the terms the engine computes for the task's bits
            serve_sets(v, arch, link, task.input_bits, radio)
        got, want = picks(weight_greedy, reference_weight_greedy, v, task, arch,
                          link=link, radio=radio)
        assert got == want
        assert ("sets" in v.source.reads) == (feasibility == "sets")


@pytest.mark.parametrize("feasibility", FEASIBILITIES)
def test_trade_off_picks_as_reference_on_random_views(feasibility):
    rng = np.random.default_rng([11, len(feasibility)])
    for _ in range(60):
        v, arch, link = random_view(rng, feasibility=feasibility,
                                    equal_queues=rng.random() < 0.3)
        weights = CLOUD_HEAVY if rng.random() < 0.5 else {layer: 1.0 for layer in Layer}
        got, want = picks(trade_off, reference_trade_off, v, random_task(rng), arch,
                          link=link, layer_weights=weights)
        assert got == want
        assert ("sets" in v.source.reads) == (feasibility == "sets")


@pytest.mark.parametrize("feasibility", FEASIBILITIES)
def test_distance_only_picks_as_reference_on_random_views(feasibility):
    # no `local`, so every pick is the nearest feasible VM, on the column or the
    # source's set
    rng = np.random.default_rng([5, len(feasibility)])
    for _ in range(60):
        v, arch, link = random_view(rng, feasibility=feasibility,
                                    equal_distances=rng.random() < 0.2)
        got, want = picks(distance_only, reference_distance_only, v, random_task(rng), arch,
                          link=link)
        assert got == want
        assert ("sets" in v.source.reads) == (feasibility == "sets")


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


# -- trade_off's shortlist -------------------------------------------------

UNIT_TASK = TaskInfo(length_mi=1.0)
EQUAL_WEIGHTS = {layer: 1.0 for layer in Layer}


def kept_path(path: str, seen: list) -> str:
    """kept_picks' path and reads as one of "one" (the kept terms shortlisted one
    VM and read no distance), "row" (they scored more on the far row) or
    "fill" (every feasible VM scored on the column)."""
    if path == "kept":
        assert seen in ([], ["row"]), seen
        return seen[0] if seen else "one"
    assert seen == ["fill"], seen
    return "fill"


@pytest.mark.parametrize("arch", [ALL, frozenset({Layer.EDGE_DC, Layer.CLOUD}),
                                  frozenset({Layer.MIST, Layer.CLOUD})],
                         ids=["every_layer", "no_mist", "no_edge"])
def test_trade_off_shortlist_picks_as_reference_on_tied_views(monkeypatch, arch):
    # Equal weights and mips shared across layers give exact compute-term ties
    # between layers; few queue lengths make shortlists of every size from one
    # up to about 100, and few distances give ties inside them. The far set
    # starts at a random index, whatever the layers on either side: the kept
    # terms place only when no VM before it can join the shortlist, as where
    # those VMs often run at a tenth of the MIPS, and read the far row only for
    # a shortlist of more than one.
    rng = np.random.default_rng([13, len(arch), LAYER_CODE[min(arch)]])
    paths = {"one": 0, "row": 0, "fill": 0}
    for _ in range(400):
        n = int(rng.integers(2, 96))
        codes = rng.integers(0, 3, n)
        codes[rng.integers(n)] = LAYER_CODE[min(arch)]  # at least one feasible
        queues = rng.integers(0, int(rng.integers(1, 6)), n).astype(np.float64)
        mips = rng.choice([10_000.0, 40_000.0], n)
        distances = rng.choice(rng.uniform(0.0, 2.4e7, 4), n)
        task = TaskInfo(length_mi=float(rng.choice([2e3, 2e4, 7_777.0])))
        start = int(rng.integers(1, n))
        if rng.random() < 0.6:
            mips[:start] /= 10.0
        v = make_view(codes, distances, queues, mips)
        v.far = FarSet(start, 0.0)
        got, want, seen, path = kept_picks(monkeypatch, v, task, arch,
                                           float(rng.choice([2.4e7, 3.3e7])), EQUAL_WEIGHTS)
        assert got == want
        paths[kept_path(path, seen)] += 1
    assert min(paths.values()) >= 15, paths


def test_trade_off_shortlist_of_one_reads_no_distance(monkeypatch):
    # cloud VM 3's compute term beats every other by more than any distance can
    # add, and the mist VMs' floor, at a tenth of the far VMs' MIPS, lies above it
    v = make_view([0, 0, 1, 2], [0.0, 5e6, 2e6, 2e7], [4.0, 4.0, 4.0, 0.0],
                  [1_000.0, 1_000.0, 10_000.0, 10_000.0])
    v.far = FarSet(2, CHORD)
    got, want, seen, path = kept_picks(monkeypatch, v, TaskInfo(length_mi=20_000.0), ALL, 2.4e7,
                                       DEFAULT_TRADEOFF_LAYER_WEIGHTS)
    assert got == want == v.vm_ids[3]
    assert path == "kept" and seen == []


@pytest.mark.parametrize("step", [-1, 0, 1], ids=["ulp_below", "at_bound", "ulp_above"])
@pytest.mark.parametrize("order", ["min_first", "min_last"])
def test_trade_off_shortlist_bound_is_exact(monkeypatch, step, order):
    # With unit length, weight and mips the compute term is queue_len + 1. The
    # c_min candidate sits at max_distance, so its score is fl(c_min + D); the
    # other, at 0 m, has its compute term at that bound or one ulp either side.
    # Both are far VMs; the mist VM before them lies beyond the bound, and its
    # MIPS of 0.25 puts the first block's floor c0 at 4, above the bound too, so
    # the kept far terms place with no numpy call.
    max_distance = 2e8
    c_min = 2.0
    bound = c_min + max_distance / DEFAULT_LINK.propagation_speed_mps
    c = bound if step == 0 else float(np.nextafter(bound, np.inf if step > 0 else -np.inf))
    assert (c - 1.0) + 1.0 == c
    queues, distances = [c_min - 1.0, c - 1.0], [max_distance, 0.0]
    if order == "min_last":
        queues, distances = queues[::-1], distances[::-1]
    v = make_view([0, 1, 1], [0.0, *distances], [9.0, *queues], [0.25, 1.0, 1.0])
    v.far = FarSet(1, CHORD)
    got, want, seen, path = kept_picks(monkeypatch, v, UNIT_TASK, ALL, max_distance,
                                       DEFAULT_TRADEOFF_LAYER_WEIGHTS)
    assert v.far.c0 == 4.0 and path == "kept"
    assert got == want
    assert seen == ([] if step > 0 else ["row"])
    if step == 0:  # an exact tie: the first index wins
        assert got == v.vm_ids[1]


def test_trade_off_shortlist_distance_ties_go_to_the_first_index(monkeypatch):
    # far candidates 2, 4 and 5 tie on both terms, below 1 and 3; mist VM 0, at a
    # tenth of their MIPS, lies beyond the bound
    distances = [0.0, 5e6, 2e6, 4e6, 2e6, 2e6]
    v = make_view([0, 1, 1, 2, 2, 2], distances, [9.0, 1.0, 1.0, 1.0, 1.0, 1.0],
                  [1_000.0] + [10_000.0] * 5)
    v.far = FarSet(1, CHORD)
    got, want, seen, path = kept_picks(monkeypatch, v, TaskInfo(length_mi=20_000.0), ALL, 2.4e7,
                                       EQUAL_WEIGHTS)
    assert got == want == v.vm_ids[2]
    assert path == "kept" and seen == ["row"]


def test_trade_off_shortlist_skips_a_disabled_layer(monkeypatch):
    # the edge VMs, between the mist and cloud blocks, have the smallest compute
    # terms but their layer is disabled; the mist VMs, at a tenth of the far VMs'
    # MIPS, lie beyond the bound
    codes = [0, 0, 1, 1, 2, 2]
    queues = [8.0, 8.0, 0.0, 0.0, 1.0, 1.0]
    v = make_view(codes, [0.0, 1e6, 0.0, 0.0, 9e6, 3e6], queues,
                  [1_000.0, 1_000.0] + [10_000.0] * 4)
    v.far = FarSet(2, CHORD)
    got, want, seen, path = kept_picks(monkeypatch, v, TaskInfo(length_mi=20_000.0),
                                       MIST_ONLY_CLOUD, 2.4e7, DEFAULT_TRADEOFF_LAYER_WEIGHTS)
    assert v.static_feasible.tolist() == [0, 1, 4, 5]
    assert got == want == v.vm_ids[5]
    assert path == "kept" and seen == ["row"]


@pytest.mark.parametrize("size", [2, 9, 24, 25, 29, 42])
@pytest.mark.parametrize("mist_member", [False, True], ids=["all_far", "with_mist"])
def test_trade_off_far_shortlist_scored_from_the_row_at_any_length(monkeypatch, size,
                                                                  mist_member):
    # a 1,042-VM layer-major view whose shortlist is `size` edge and cloud VMs
    # tying on the compute term, with tied distances among them. With the mist
    # VMs at a tenth of their MIPS none can join, and the kept terms score the
    # shortlist from the arrival's far row, however long; at the far VMs' MIPS
    # an idle mist VM can join, and every feasible VM is scored on the column
    codes = np.repeat([0, 1, 2], [1000, 24, 18])
    mips = np.where(codes == 0, 10_000.0 if mist_member else 1_000.0, 10_000.0)
    for seed in range(20):
        rng = np.random.default_rng([seed, size])
        queues = np.full(N, 9.0)
        queues[1000 + rng.choice(42, size, replace=False)] = 0.0
        if mist_member:
            queues[rng.integers(1000)] = 0.0
        distances = rng.choice(rng.uniform(R_EDGE - R_MIST, R_CLOUD + R_MIST, 3), N)
        v = make_view(codes, distances, queues, mips)
        v.far = FarSet(1000, CHORD)
        got, want, seen, path = kept_picks(monkeypatch, v, TaskInfo(length_mi=20_000.0), ALL,
                                           2.4e7, EQUAL_WEIGHTS)
        assert got == want
        assert (path, seen) == (("numpy", ["fill"]) if mist_member else ("kept", ["row"]))


# -- weight_greedy's dominance shortlist -----------------------------------

R_MIST, R_EDGE, R_CLOUD = 6_771e3, 8_371e3, 16_371e3  # default orbit radii
CHORD = (R_MIST + R_MIST) * (1.0 + 1e-9)
MIST_ONLY_CLOUD = frozenset({Layer.MIST, Layer.CLOUD})
MIST_ONLY_EDGE = frozenset({Layer.MIST, Layer.EDGE_DC})
NO_MIST = frozenset({Layer.EDGE_DC, Layer.CLOUD})


def far_view(rng: np.random.Generator, local: int, *, busy=False, equal_queues=False,
             equal_mips=False, far_scale=1.0, mist_floor=0):
    """A layer-major 1,042-VM view, origin `local`, with distances in the ranges the
    default orbits give: a mist VM within 2·r_mist of the origin, an edge or cloud
    VM within r_mist of its own radius. Queues are 0-7, mist ones at least
    `mist_floor`; the origin's is its layer's shortest, or one longer with `busy`."""
    codes = np.repeat([0, 1, 2], [1000, 24, 18])
    mips = np.choose(codes, [10_000.0] * 3 if equal_mips else [10_000.0, 40_000.0, 100_000.0])
    near = np.choose(codes, [0.0, R_EDGE - R_MIST, R_CLOUD - R_MIST])
    distances = rng.uniform(near, np.choose(codes, [2 * R_MIST, R_EDGE + R_MIST, R_CLOUD + R_MIST]))
    distances[1000:] *= far_scale
    distances[local] = 0.0
    queues = np.full(N, 3.0) if equal_queues else rng.integers(0, 8, N).astype(np.float64)
    queues[:1000] = np.maximum(queues[:1000], mist_floor)
    others = np.delete(queues[:1000], local)
    queues[local] = others.min() + 1.0 if busy else others.min()
    v = make_view(codes, distances, queues, mips)
    v.local = local
    return v


def far_picks(v, task, arch, radio=DEFAULT_RADIO, near_radius=None, order=None):
    """(pick with v's column behind a fresh ColumnSource and a far set, reference
    pick on the same column, the source's reads before the reference: "terms",
    "near" and/or "fill"). `near_radius` is the source's: where it is set, a
    busy origin asks the source's brute-force `near` for VMs near it. `order`,
    where given, makes the walk order the source gives from the engine's."""
    v.static_feasible = np.flatnonzero(np.isin(v.layer_codes, [LAYER_CODE[x] for x in arch]))
    v.far = FarSet(1000, CHORD)
    v.source = source = far_term_source(v, arch, radio)
    source.near_radius = near_radius
    if order is not None and source.terms is not None:
        source.terms = lambda rows, hook=source.terms: [order(hook(rows)[0])]
    got = weight_greedy(v, task, arch, radio=radio).vm_id
    seen = list(source.reads)
    want = reference_weight_greedy(v, task, arch, radio=radio).vm_id
    return got, want, seen


@pytest.mark.parametrize("arch", [ALL, MIST_ONLY_CLOUD, MIST_ONLY_EDGE, NO_MIST],
                         ids=["every_layer", "no_edge", "no_cloud", "no_mist"])
@pytest.mark.parametrize("busy", [False, True], ids=["idle_origin", "busy_origin"])
def test_weight_greedy_shortlist_picks_as_reference(arch, busy):
    # an idle origin in an enabled layer is scored against the far VMs alone and
    # leaves the column unread; a busy one where the source has no neighbour query,
    # or a disabled mist layer, fills it
    rng = np.random.default_rng([17, len(arch), busy])
    enabled = [LAYER_CODE[layer] for layer in arch]
    origin_picks = shortlisted = 0
    for k in range(30):
        local = 0 if k == 0 else int(rng.integers(1, 1000))
        v = far_view(rng, local, busy=busy, mist_floor=4 * (k % 2))
        far_max = v.distances[1000:][np.isin(v.layer_codes[1000:], enabled)].max(initial=0.0)
        got, want, seen = far_picks(v, random_task(rng), arch)
        assert got == want
        if busy or Layer.MIST not in arch:
            assert seen == ["fill"]
        else:  # the largest far distance may lie below the mist chord without cloud VMs
            assert seen == (["terms"] if far_max >= CHORD else ["terms", "fill"])
        shortlisted += seen == ["terms"]
        origin_picks += got == v.vm_ids[local]
    if busy or Layer.MIST not in arch:
        assert shortlisted == 0
    else:
        assert shortlisted >= 20
        assert 0 < origin_picks < 30, origin_picks  # both the origin and far VMs win


@pytest.mark.parametrize("equal_mips", [False, True], ids=["equal_queues", "constant_cpu_and_queue"])
def test_weight_greedy_shortlist_with_constant_indicators(equal_mips):
    # equal queues give a zero queue span; equal MIPS as well give a zero CPU span
    rng = np.random.default_rng([19, equal_mips])
    for _ in range(10):
        v = far_view(rng, int(rng.integers(0, 1000)), equal_queues=True, equal_mips=equal_mips)
        got, want, seen = far_picks(v, random_task(rng), ALL)
        assert got == want
        assert seen == ["terms"]


def test_weight_greedy_shortlist_falls_back_below_the_chord_bound():
    # far VMs pulled inside the mist chord: their largest distance may not be the
    # column's, so the column is read
    rng = np.random.default_rng(23)
    for _ in range(10):
        v = far_view(rng, int(rng.integers(0, 1000)), far_scale=0.5)
        assert v.distances[1000:].max() < CHORD
        got, want, seen = far_picks(v, random_task(rng), ALL)
        assert got == want
        assert seen == ["terms", "fill"]


def test_weight_greedy_shortlist_checks_the_energy_at_the_crossover():
    # the split radio's energy falls from one step below the crossover to it,
    # so its extrema may not lie at the distance extrema: the full path runs
    rng = np.random.default_rng(29)
    for _ in range(10):
        v = far_view(rng, int(rng.integers(0, 1000)))
        got, want, seen = far_picks(v, random_task(rng), ALL, radio=SPLIT_RADIO)
        assert got == want
        assert seen == ["fill"]


def test_weight_greedy_shortlist_picks_as_reference_on_decision_boundaries():
    # An idle far VM moves outward from its layer's nearest distance until it stops
    # winning; on the two views either side of that switch its score and the
    # winner's are one rounding step apart, so a change in the rounding of the
    # block's distance or energy terms, or in the order of the sum, shows.
    rng = np.random.default_rng(2026)
    checked = 0
    for _ in range(40):
        local, task = int(rng.integers(0, 1000)), random_task(rng)
        v = far_view(rng, local, mist_floor=2)
        distances, queues = v.distances.tolist(), v.queue_lens.tolist()
        j = 1000 + int(rng.integers(0, 42))
        queues[j] = 0.0
        distances[j] = R_EDGE - R_MIST if j < 1024 else R_CLOUD - R_MIST
        try:
            views = boundary_views(reference_weight_greedy, v.layer_codes, distances, queues,
                                   v.mips, j, R_CLOUD + R_MIST, task)
        except AssertionError:
            continue  # the far VM keeps winning all the way out
        for w in views:
            w.local = local
            got, want, seen = far_picks(w, task, ALL)
            assert got == want
            checked += seen == ["terms"]
    assert checked >= 30, checked


def test_weight_greedy_shortlist_keeps_the_origin_against_a_colocated_vm():
    # VM 499 sits 1e-9 m from origin 500 with the same queue: its distance term,
    # about 3e-16, rounds away against the origin's score of 6, so the full argmin
    # picks VM 499 by index and the shortlist keeps the origin
    rng = np.random.default_rng(31)
    v = far_view(rng, 500, equal_queues=True)
    v.queue_lens[:1000] = 5.0  # mist CPU time is the largest: the origin scores 6
    v.queue_lens[1000:] = 20.0
    v.distances[499] = 1e-9
    got, want, seen = far_picks(v, TaskInfo(length_mi=20_000.0, input_bits=8e6), ALL)
    assert want == v.vm_ids[499]
    assert got == v.vm_ids[500]
    assert seen == ["terms"]


def reference_scores(view: CandidateView, task, architecture, radio: RadioParams = DEFAULT_RADIO,
                     ratios: Sequence[float] = WEIGHT_GREEDY_RATIOS) -> np.ndarray:
    """reference_weight_greedy's score of every candidate, +inf where infeasible."""
    idx = _feasible_indices(view, architecture, DEFAULT_LINK)
    d = view.distances[idx]
    q = view.queue_lens[idx]
    cpu = (q + 1.0) * task.length_mi / view.mips[idx]
    d2 = d * d
    energy = task.input_bits * np.where(
        d < radio.crossover_m,
        radio.e_elec + radio.eps_fs * d2,
        radio.e_elec + radio.eps_mp * (d2 * d2),
    )
    out = np.full(len(view), np.inf)
    out[idx] = ratios[0] * reference_minmax(d) + ratios[1] * reference_minmax(cpu) \
        + ratios[2] * reference_minmax(q) + ratios[3] * reference_minmax(energy)
    return out


class Walked(list):
    """A walk order that counts the entries a walk takes from it in `taken`."""

    taken = 0

    def __iter__(self):
        for j in super().__iter__():
            self.taken += 1
            yield j


def tie_view(rng, local, mist_queue, tied, target_of, setup=lambda v: None):
    """far_view with every mist queue `mist_queue`, every far queue 20 but the
    idle edge VM `tied`, then `setup` applied, and the tied VM placed at the
    last distance at which its reference score, its distance term alone (no
    input bits, and its CPU time and queue the set's minima), equals
    target_of(reference scores) exactly; (None, task) where no distance gives
    that score."""
    v = far_view(rng, local)
    v.queue_lens[:1000] = mist_queue
    v.queue_lens[1000:] = 20.0
    v.queue_lens[tied] = 0.0
    setup(v)
    task = TaskInfo(length_mi=20_000.0, input_bits=0.0)
    v.distances[tied] = R_EDGE - R_MIST  # below the largest distance, as where it ends
    target = target_of(reference_scores(v, task, ALL))
    d_hi = v.distances[1000:].max()

    def score(x):
        return x / d_hi * 6.0

    x = target / 6.0 * d_hi  # about where its distance term reaches the target
    while score(x) < target:
        x = np.nextafter(x, np.inf)
    while score(x) > target:
        x = np.nextafter(x, 0.0)
    if score(x) != target:
        return None, task
    while score(np.nextafter(x, np.inf)) == target:
        x = np.nextafter(x, np.inf)
    v.distances[tied] = x
    assert reference_scores(v, task, ALL)[tied] == target
    return v, task


def test_weight_greedy_walk_scores_a_far_vm_whose_bound_equals_the_best():
    # Edge VM 1001, near with queue 1, is the walk's best so far; edge VM 1000,
    # idle and farther, scores its bound fl(dn + en) alone. At the last distance
    # where that equals 1001's score exactly it must be scored, and wins the tie
    # by its lower index; one step farther 1001 wins. Each pick is the reference's.
    rng = np.random.default_rng(61)
    checked = 0

    def near_and_busy(v):
        v.queue_lens[1001] = 1.0
        v.distances[1001] = rng.uniform(R_EDGE - R_MIST, 3e6)

    for _ in range(20):
        v, task = tie_view(rng, int(rng.integers(0, 1000)), 5.0, 1000,
                           lambda scores: scores[1001], near_and_busy)
        if v is None:
            continue
        assert v.distances[1001] < v.distances[1000]
        got, want, seen = far_picks(v, task, ALL)
        assert got == want == v.vm_ids[1000] and seen == ["terms"]
        v.distances[1000] = np.nextafter(v.distances[1000], np.inf)
        got, want, seen = far_picks(v, task, ALL)
        assert got == want == v.vm_ids[1001] and seen == ["terms"]
        checked += 1
    assert checked >= 10, checked


def test_weight_greedy_walk_keeps_the_origin_on_a_far_tie():
    # Idle edge VM 1005 at the last distance where its score, its distance term
    # alone, equals the idle origin's exactly: its bound equals the best, so it is
    # scored, and the tie goes to the origin's lower index, as in the reference;
    # one step farther the origin wins outright, and some steps nearer 1005 does
    rng = np.random.default_rng(67)
    checked = 0
    for _ in range(30):
        local = int(rng.integers(0, 1000))
        v, task = tie_view(rng, local, 1.0, 1005, lambda scores: scores[local])
        if v is None:
            continue
        at = v.distances[1005]
        for d, winner in ((at, local), (np.nextafter(at, np.inf), local),
                          (at * (1.0 - 1e-12), 1005)):
            v.distances[1005] = d
            got, want, seen = far_picks(v, task, ALL)
            assert got == want == v.vm_ids[winner] and seen == ["terms"]
        checked += 1
    assert checked >= 10, checked


@pytest.mark.parametrize("queues", [(0.0, 0.0), (1.0, 0.0)], ids=["tied", "higher_index_wins"])
def test_weight_greedy_walk_order_among_equal_distances_changes_no_pick(queues):
    # Edge VMs 1003 and 1010 at one distance, the nearest far one, are walked with
    # 1010 first: tied, the lower index wins all the same; with 1010's queue the
    # shorter, 1010 wins
    rng = np.random.default_rng([71, queues[0] > 0])
    for _ in range(10):
        v = far_view(rng, int(rng.integers(0, 1000)))
        v.queue_lens[:1000] = 5.0
        v.queue_lens[1000:] = 20.0
        v.queue_lens[[1003, 1010]] = queues
        v.distances[[1003, 1010]] = R_EDGE - R_MIST - 1.0
        swapped = []

        def order(walk):
            walk.remove(10)  # numpy's sort may have put either first
            walk.insert(walk.index(3), 10)
            swapped.append(walk.index(10) < walk.index(3))
            return walk

        task = random_task(rng)
        got, want, seen = far_picks(v, task, ALL, order=order)
        assert swapped == [True] and seen == ["terms"]
        assert got == want == v.vm_ids[1003 if queues[0] == queues[1] else 1010]


@pytest.mark.parametrize("busy", [False, True], ids=["idle_origin", "busy_origin"])
def test_weight_greedy_walk_stops_at_the_first_bound_above_the_best(busy):
    # The walk takes the far VMs nearest first and stops at the first whose bound
    # lies above the best score: every far VM it leaves unscored scores above the
    # reference's best, and on these views it scores few of the 42
    rng = np.random.default_rng([73, busy])
    taken = 0
    for k in range(30):
        local = int(rng.integers(0, 1000))
        v = far_view(rng, local, busy=busy, mist_floor=2 * (k % 2))
        walks = []

        def order(walk):
            walks.append(Walked(walk))
            return walks[-1]

        task = random_task(rng)
        got, want, seen = far_picks(v, task, ALL, near_radius=3e4 if busy else None,
                                    order=order)
        assert got == want and seen[0] == "terms", k
        (walk,) = walks
        scores = reference_scores(v, task, ALL)
        left = [1000 + j for j in list.__iter__(walk)][walk.taken:]
        assert all(scores[vm] > scores.min() for vm in left), k
        taken += walk.taken
    assert taken < 30 * 42 / 4, taken


@pytest.mark.parametrize("busy", [False, True], ids=["idle_origin", "busy_origin"])
@pytest.mark.parametrize("arch", [ALL, MIST_ONLY_CLOUD, MIST_ONLY_EDGE],
                         ids=["every_layer", "no_edge", "no_cloud"])
def test_weight_greedy_walk_picks_as_reference_on_the_split_radio(monkeypatch, arch, busy):
    # The split radio's energy falls only between one step below its crossover
    # (about 91 m) and the crossover, far below every far distance, so with its
    # refusal lifted the walk and the busy-origin path score with it as well
    monkeypatch.setattr(orchestrate, "_energy_rises", lambda radio: True)
    rng = np.random.default_rng([79, len(arch), LAYER_CODE[max(arch)], busy])
    walked = 0
    for k in range(30):
        v = far_view(rng, int(rng.integers(0, 1000)), busy=busy, mist_floor=2 * (k % 2))
        got, want, seen = far_picks(v, random_task(rng), arch, radio=SPLIT_RADIO,
                                    near_radius=3e4 if busy else None)
        assert got == want, k
        walked += seen[-1] != "fill"
    assert walked >= 15, walked


@pytest.mark.parametrize("busy", [False, True], ids=["idle_origin", "busy_origin"])
@pytest.mark.parametrize("spans", ["energy", "energy_and_queue", "energy_queue_and_cpu"])
def test_weight_greedy_walk_picks_as_reference_with_zero_spans(busy, spans):
    # no input bits give a zero energy span; equal queues a zero queue span (idle
    # origins only: a busy one's queue is longer), and equal MIPS as well a zero
    # CPU span. A zero span leaves v - lo, all zeros, as the full path does
    rng = np.random.default_rng([83, busy, len(spans)])
    equal = spans != "energy" and not busy
    for _ in range(15):
        v = far_view(rng, int(rng.integers(0, 1000)), busy=busy, equal_queues=equal,
                     equal_mips=spans == "energy_queue_and_cpu")
        task = TaskInfo(length_mi=float(rng.choice([20_000.0, 7_777.0])), input_bits=0.0)
        got, want, seen = far_picks(v, task, ALL, near_radius=3e4 if busy else None)
        assert got == want
        assert seen[:1] == ["terms"]


# -- weight_greedy's busy-origin path --------------------------------------

@pytest.mark.parametrize("arch", [ALL, MIST_ONLY_CLOUD, MIST_ONLY_EDGE, NO_MIST],
                         ids=["every_layer", "no_edge", "no_cloud", "no_mist"])
def test_weight_greedy_busy_origin_picks_as_reference(monkeypatch, arch):
    # A busy origin is scored with the far VMs and the first-block VMs `near`
    # finds, once or, where the first radius leaves the bound wider, twice; more
    # candidates than the origin and far VMs scored send it to the column. Every
    # way ends on the reference's pick; a disabled mist layer reads the column.
    asked = []
    near = ColumnSource.near

    def asking(self, r):
        ids, d = near(self, r)
        asked.append(ids)
        return ids, d

    monkeypatch.setattr(ColumnSource, "near", asking)
    rng = np.random.default_rng([43, len(arch), LAYER_CODE[max(arch)]])
    ways, mist_picks = set(), 0
    cap = 1 + np.isin(np.repeat([1, 2], [24, 18]), [LAYER_CODE[x] for x in arch]).sum()
    for k in range(60):
        local = int(rng.integers(0, 1000))
        v = far_view(rng, local, busy=True, mist_floor=4 * (k % 3 == 0))
        if k % 3 == 1:  # a few idle mist VMs among long queues
            v.queue_lens[:1000] = np.maximum(v.queue_lens[:1000], 3.0)
            v.queue_lens[local] = 4.0
            v.queue_lens[rng.integers(0, 1000, 5)] = 0.0
        asked.clear()
        got, want, seen = far_picks(v, random_task(rng), arch,
                                    near_radius=float(rng.choice([3e4, 1e5])))
        assert got == want, k
        if Layer.MIST not in arch:
            assert seen == ["fill"]
            continue
        if seen[-1] == "fill":  # the last ask found more than the cap, or the row missed the chord
            assert (len(asked[-1]) > cap) if asked else arch == MIST_ONLY_EDGE, k
        else:
            assert all(len(ids) <= cap for ids in asked)
            mist_picks += got < v.vm_ids[1000]
        ways.add(tuple(seen))
    if Layer.MIST in arch:
        assert {("terms", "near"), ("terms", "near", "near", "fill")} <= ways, ways
        assert mist_picks >= 5, mist_picks


def busy_view(rng, local, mist_from):
    """far_view with origin `local` busy: queue 5 against the mist layer's shortest,
    4, at VM 0; every other mist VM at queue 5 and `mist_from` m or more away,
    and the far VMs at queue 20, so the origin scores below the far VMs and no
    other mist VM lies near it."""
    v = far_view(rng, local)
    v.distances[:1000] = rng.uniform(mist_from, R_MIST + R_MIST, 1000)
    v.distances[local] = 0.0
    v.queue_lens[:1000] = 5.0
    v.queue_lens[0] = 4.0
    v.queue_lens[1000:] = 20.0
    return v


def test_weight_greedy_busy_origin_at_the_bound(monkeypatch):
    # VM 7, idle at the block's shortest queue and with no energy term, lies at
    # the bound r the origin's score sets, so `near` finds it and it loses; one
    # step beyond, it is not asked for and loses too; a part in 1e6 inside, it
    # wins. Each pick is the reference's.
    radii = []
    near = ColumnSource.near
    monkeypatch.setattr(ColumnSource, "near", lambda self, r: radii.append(r) or near(self, r))
    rng = np.random.default_rng(47)
    task = TaskInfo(length_mi=20_000.0, input_bits=0.0)
    v = busy_view(rng, 500, 1.25e7)
    v.queue_lens[7] = 4.0
    v.distances[7] = 1.2e7
    got, want, seen = far_picks(v, task, ALL, near_radius=1.0)
    assert got == want == v.vm_ids[500] and seen == ["terms", "near", "near"]
    r = radii[-1]
    assert 1e6 < r < 1.2e7, r
    for d, winner, found in ((r, 500, True), (np.nextafter(r, np.inf), 500, False),
                             (r * (1.0 - 1e-6), 7, True)):
        v.distances[7] = d
        radii.clear()
        got, want, seen = far_picks(v, task, ALL, near_radius=1.0)
        assert got == want == v.vm_ids[winner], d
        assert radii == [1.0, r] and seen == ["terms", "near", "near"]
        assert found == (7 in near(v.source, r)[0])


def test_weight_greedy_busy_origin_loses_a_tie_to_a_colocated_vm():
    # VM 499 sits 1e-9 m from the busy origin 500 with its queue: its distance term,
    # about 3e-16, rounds away, so it ties with the origin and wins by its lower
    # index on the busy-origin path as in the full argmin; only the idle origin's
    # shortlist keeps the origin
    rng = np.random.default_rng(53)
    v = busy_view(rng, 500, 1.2e7)
    v.distances[499] = 1e-9
    got, want, seen = far_picks(v, TaskInfo(length_mi=20_000.0, input_bits=8e6), ALL,
                                near_radius=1e5)
    assert got == want == v.vm_ids[499]
    assert seen == ["terms", "near", "near"]


def indicator_extrema(d, q, mips, task, radio):
    """(min, max) of each of weight_greedy's four indicators, as float.hex strings."""
    cpu = (q + 1.0) * task.length_mi / mips
    d2 = d * d
    energy = task.input_bits * np.where(d < radio.crossover_m, radio.e_elec + radio.eps_fs * d2,
                                        radio.e_elec + radio.eps_mp * (d2 * d2))
    return [(float(x.min()).hex(), float(x.max()).hex()) for x in (d, cpu, q, energy)]


def record_extremes(monkeypatch) -> list:
    """A list that gets, at each _shortlist_extremes call, the (min, max) it gives
    each indicator, in indicator_extrema's order and form; the distance's minimum
    is the origin's 0 m and its maximum the d_hi it was given."""
    extremes, used = orchestrate._shortlist_extremes, []

    def recording(view, task, radio, lo, hi, d_hi):
        out = e_lo, e_hi, c_lo, c_hi, q_min, q_max = extremes(view, task, radio, lo, hi, d_hi)
        used.append([(float(lo).hex(), float(hi).hex()) for lo, hi in
                     ((0.0, d_hi), (c_lo, c_hi), (q_min, q_max), (e_lo, e_hi))])
        return out

    monkeypatch.setattr(orchestrate, "_shortlist_extremes", recording)
    return used


@pytest.mark.parametrize("arch", [ALL, MIST_ONLY_CLOUD, MIST_ONLY_EDGE],
                         ids=["every_layer", "no_edge", "no_cloud"])
@pytest.mark.parametrize("radio", RADIOS, ids=["default_radio", "split_radio"])
def test_weight_greedy_shortlist_extrema_are_the_feasible_sets(monkeypatch, arch, radio):
    # The minimum and maximum each indicator is normalized with on the shortlist,
    # taken from the origin's 0 m, the largest enabled far distance, each enabled
    # far layer's shortest and longest queues and the first block's, with no
    # pass over the candidates, must be the whole feasible set's, bit for bit: an
    # extremum that is off need not flip a pick. test_engine checks the far rows'
    # order and largest distance. The split radio's energy falls only between one
    # step below its crossover (about 91 m) and the crossover, far from these
    # views' extrema at 0 m and beyond the chord, so its refusal is lifted here to
    # check it as well.
    monkeypatch.setattr(orchestrate, "_energy_rises", lambda radio: True)
    used = record_extremes(monkeypatch)
    rng = np.random.default_rng([37, len(arch), LAYER_CODE[max(arch)], RADIOS.index(radio)])
    checked = raised = 0
    for k in range(40):
        v = far_view(rng, int(rng.integers(0, 1000)), equal_mips=k % 4 == 3,
                     mist_floor=4 * (k % 2))
        if k % 3 == 1:  # far queues below the mist ones: the floor sets the queue maximum
            v.queue_lens[1000:] = rng.integers(0, 3, N - 1000)
        task = random_task(rng)
        used.clear()
        got, want, seen = far_picks(v, task, arch, radio=radio)
        assert got == want
        if seen != ["terms"]:  # without cloud VMs, the largest far distance may miss the chord
            assert arch == MIST_ONLY_EDGE
            continue
        feasible = v.static_feasible
        assert used == [indicator_extrema(v.distances[feasible], v.queue_lens[feasible],
                                          v.mips[feasible], task, radio)], k
        checked += 1
        raised += v.queue_lens[:1000].max() > v.queue_lens[feasible[feasible >= 1000]].max()
    assert checked >= 20 and raised >= 5, (checked, raised)


@pytest.mark.parametrize("arch", [ALL, MIST_ONLY_CLOUD, MIST_ONLY_EDGE],
                         ids=["every_layer", "no_edge", "no_cloud"])
def test_weight_greedy_busy_origin_extrema_are_the_feasible_sets(monkeypatch, arch):
    # The busy-origin path normalizes every indicator by the minimum and maximum
    # the shortlist takes, the first block's shortest and longest queues among
    # them; they must be the whole feasible set's, bit for bit. Long far queues
    # let the block's shortest set the minima. The walk and the near VMs are
    # scored in Python floats: only a placement sent on to the column
    # normalizes in numpy, the full path's four indicators.
    used, scaled = record_extremes(monkeypatch), []
    minmax_into = orchestrate._minmax_into
    monkeypatch.setattr(orchestrate, "_minmax_into",
                        lambda *args: scaled.append(True) or minmax_into(*args))
    rng = np.random.default_rng([59, len(arch), LAYER_CODE[max(arch)]])
    checked = lowered = 0
    for k in range(40):
        local = int(rng.integers(0, 1000))
        v = far_view(rng, local, busy=True, equal_mips=k % 4 == 3, mist_floor=2 * (k % 2))
        if k % 3 == 1:  # far queues above the mist ones: the block's shortest is the minimum
            v.queue_lens[1000:] = rng.integers(9, 20, N - 1000)
        task = random_task(rng)
        used.clear()
        scaled.clear()
        got, want, seen = far_picks(v, task, arch, near_radius=3e4)
        assert got == want
        if "near" not in seen:  # without cloud VMs, the largest far distance may miss the chord
            assert arch == MIST_ONLY_EDGE and seen == ["terms", "fill"]
            continue
        feasible = v.static_feasible
        assert used == [indicator_extrema(v.distances[feasible], v.queue_lens[feasible],
                                          v.mips[feasible], task, DEFAULT_RADIO)], k
        assert len(scaled) == (0 if seen[-1] == "near" else 4), k
        checked += 1
        lowered += v.queue_lens[:1000].min() < v.queue_lens[feasible[feasible >= 1000]].min()
    assert checked >= 20 and lowered >= 5, (checked, lowered)


# -- trade_off's kept far terms --------------------------------------------

def kept_picks(monkeypatch, v, task, arch, max_distance, weights, length_mi=None):
    """(pick with the far terms that trade_off_term_hook keeps for tasks of
    `length_mi`, the task's by default, reference pick, the source's reads
    before the reference read the column, and "kept" or "numpy": whether
    trade_off took its terms from the kept ones or computed every VM's)."""
    v.max_distance = max_distance
    v.source = source = ColumnSource(v.distances, v.far.start)
    v.static_feasible = np.flatnonzero(np.isin(v.layer_codes, [LAYER_CODE[x] for x in arch]))
    length_mi = task.length_mi if length_mi is None else length_mi
    assert orchestrate.trade_off_term_hook(v, weights, length_mi) is not None
    numpy = []

    def counted(*args, **kwargs):
        numpy.append(True)
        return _feasible_indices(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(orchestrate, "_feasible_indices", counted)
        got = trade_off(v, task, arch, layer_weights=weights).vm_id
    seen = list(source.reads)
    want = reference_trade_off(v, task, arch, layer_weights=weights).vm_id
    return got, want, seen, "numpy" if numpy else "kept"


def test_trade_off_kept_terms_pick_as_reference_on_tied_views(monkeypatch):
    # Layer-major views whose first block runs at a tenth of the far VMs' MIPS.
    # An edge and a cloud VM tie on the smallest compute term (equal weights and
    # MIPS), few queue lengths and distances make more ties, and short tasks put
    # VMs of several queue lengths on one shortlist and bring c0 near the bound,
    # so both paths run.
    rng = np.random.default_rng(23)
    paths = {"kept": 0, "numpy": 0}
    for _ in range(300):
        first, edge, cloud = (int(rng.integers(1, k)) for k in (40, 25, 19))
        codes = np.repeat([0, 1, 2], [first, edge, cloud])
        queues = rng.integers(0, int(rng.integers(1, 6)), codes.size).astype(np.float64)
        queues[first:] += rng.integers(3)
        low = queues[first:].min()
        queues[first + rng.integers(edge)] = queues[first + edge + rng.integers(cloud)] = low
        mips = np.choose(codes, [1_000.0, 10_000.0, 10_000.0])
        distances = rng.choice(rng.uniform(0.0, 2.4e7, 4), codes.size)
        v = make_view(codes, distances, queues, mips)
        v.far = FarSet(first, CHORD)
        task = TaskInfo(length_mi=float(rng.choice([100.0, 2e3, 2e4])))
        got, want, seen, path = kept_picks(monkeypatch, v, task, ALL, 2.4e7, EQUAL_WEIGHTS)
        assert got == want
        if path == "kept":  # the kept path reads no column
            assert seen in ([], ["row"])
        paths[path] += 1
    assert min(paths.values()) >= 30, paths


@pytest.mark.parametrize("step", [-1, 0, 1], ids=["ulp_below", "at_bound", "ulp_above"])
def test_trade_off_kept_terms_c0_at_the_bound(monkeypatch, step):
    # Unit length and MIPS make the first block's floor c0 its weight. The idle
    # mist VM 1, at 0 m, scores c0; the edge VM, at max_distance with c_min = 2,
    # scores fl(c_min + D), the bound. Only c0 above the bound keeps the first
    # block off the shortlist; at it the two tie and the lower index wins
    max_distance = 2e8
    bound = 2.0 + max_distance / DEFAULT_LINK.propagation_speed_mps
    c0 = bound if step == 0 else float(np.nextafter(bound, np.inf if step > 0 else -np.inf))
    weights = {Layer.MIST: c0, Layer.EDGE_DC: 1.0, Layer.CLOUD: 1.0}
    v = make_view([0, 0, 1, 2], [0.0, 0.0, max_distance, 0.0], [3.0, 0.0, 1.0, 5.0], [1.0] * 4)
    v.far = FarSet(2, CHORD)
    got, want, seen, path = kept_picks(monkeypatch, v, UNIT_TASK, ALL, max_distance, weights)
    assert v.far.c0 == c0
    assert path == ("kept" if step > 0 else "numpy")
    assert got == want == v.vm_ids[2 if step > 0 else 1]


@pytest.mark.parametrize("arch", [MIST_ONLY_CLOUD, MIST_ONLY_EDGE, NO_MIST],
                         ids=["no_edge", "no_cloud", "no_mist"])
def test_trade_off_kept_terms_skip_a_disabled_layer(monkeypatch, arch):
    # the disabled layer's VMs are idle, with the smallest compute terms of their
    # block; the enabled far VMs tie at queue 1, so their distances decide
    codes = [0, 0, 1, 1, 2, 2]
    off = ({0, 1, 2} - {LAYER_CODE[layer] for layer in arch}).pop()
    queues = [0.0 if code == off else 1.0 for code in codes]
    v = make_view(codes, [0.0, 1e6, 7e6, 3e6, 9e6, 2e6], queues,
                  [1_000.0, 1_000.0] + [10_000.0] * 4)
    v.far = FarSet(2, CHORD)
    got, want, seen, path = kept_picks(monkeypatch, v, TaskInfo(length_mi=20_000.0), arch,
                                       2.4e7, CLOUD_HEAVY)
    kept = [math.inf if LAYER_CODE[layer] == off else 1.0 for layer in (Layer.EDGE_DC,) * 2
            + (Layer.CLOUD,) * 2]
    assert [t == math.inf for t in v.far.terms] == [k == math.inf for k in kept]
    assert v.far.c0 == (math.inf if off == 0 else 20.0)
    assert path == "kept" and seen == ["row"]
    assert got == want


def test_trade_off_kept_terms_of_another_length_or_weights_fall_back(monkeypatch):
    # terms kept for one length, or one weights object, are not another's: the
    # numpy path computes every VM's
    codes = np.repeat([0, 1, 2], [6, 3, 3])
    v = make_view(codes, np.linspace(0.0, 2e7, 12), [4.0] * 6 + [0.0, 1.0, 2.0] * 2,
                  [1_000.0] * 6 + [10_000.0] * 6)
    v.far = FarSet(6, CHORD)
    task = TaskInfo(length_mi=7_777.0)
    got, want, _, path = kept_picks(monkeypatch, v, task, ALL, 2.4e7, CLOUD_HEAVY,
                                    length_mi=20_000.0)
    assert path == "numpy" and got == want
    got, want, _, path = kept_picks(monkeypatch, v, task, ALL, 2.4e7, CLOUD_HEAVY)
    assert path == "kept" and got == want
    v.far.weights = dict(CLOUD_HEAVY)  # equal, but not the object the terms were kept for
    got = trade_off(v, task, ALL, layer_weights=CLOUD_HEAVY).vm_id
    assert got == want
