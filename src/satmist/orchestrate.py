"""Task placement policies over a snapshot of every VM.

Each policy receives the same decision-time CandidateView, one entry per
VM in the constellation held as parallel arrays, and returns the selected
VM. Infeasible candidates (layer disabled by the architecture mask, or
farther than the layer's range) are never selected; score ties go to the
lowest candidate index, except that distance_only keeps a task on the
origin's own VM, and weight_greedy's shortlist for an origin with its
layer's shortest queue keeps it against a VM of the origin's layer within
about 5e-9 m of it (see weight_greedy).
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import cycle
from typing import Iterator, Mapping

import numpy as np

from .layers import LAYER_ORDER, Layer
from .netenergy import DEFAULT_LINK, DEFAULT_RADIO, LinkParams, RadioParams, tx_energy

class PolicyId(str, Enum):
    DISTANCE_ONLY = "distance_only"
    ROUND_ROBIN = "round_robin"
    TRADE_OFF = "trade_off"
    RANDOM_VM = "random_vm"
    WEIGHT_GREEDY = "weight_greedy"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Selection:
    """The chosen VM."""

    vm_id: int


class PlacementError(RuntimeError):
    """No feasible candidate for this task."""


DEFAULT_TRADEOFF_LAYER_WEIGHTS: Mapping[Layer, float] = {
    Layer.MIST: 1.0,
    Layer.EDGE_DC: 1.0,
    Layer.CLOUD: 1.2,
}

WEIGHT_GREEDY_RATIOS = (6.0, 6.0, 5.0, 3.0)


class CandidateView:
    """Column-oriented candidate snapshot: one array per candidate field.

    The distances come from `source`, which owns them: `distances` is
    `source.column()`, the distance from the placement's origin to every
    candidate. The engine's source computes it on its first read for the
    current placement, so a policy that never reads it never pays for it,
    into a buffer the next placement overwrites; policies read it and
    never write it.
    `source.far_row()` gives the same distances to the `far` set's VMs
    alone, far.start on, and `source.far_terms()` gives that row with the
    far VMs weight_greedy scores, nearest first (see far_terms). Where
    `feasible_sets` is set, `source.feasible()`
    gives (indices, distances) of the placement's feasible VMs, in index
    order, the column's values at those indices, and, in weight_greedy
    runs, `source.feasible_terms()` gives (indices, distance terms,
    energy terms) over them (see feasible_terms); both are valid until
    the source loads another block of sets, which a sweep's runs may
    share, so policies never write them.

    Five optional facts, set by whoever builds the view for one run's
    architecture, link and orbits, let policies place without distances
    or read them from the source in a cheaper form. A policy chooses its
    path from these alone, never from whether the column has been read:

    - `local`: index of the origin's own first VM, at exactly 0 m and so
      within any range, or -1 when unknown.
    - `static_feasible`: sorted indices of the feasible candidates when
      feasibility does not depend on the distances (no enabled candidate
      can be out of range), or None when it must be checked per task.
    - `max_distance`: a bound no distance in the column exceeds, or None.
    - `far`: a FarSet, the VMs outside the first layer block, whose
      distances `source.far_row` and `source.far_terms` read from one
      row the source keeps per placement, or None.
    - `feasible_sets`: whether the source gives each placement's feasible
      set, computed against reach_row, when feasibility is checked per
      task; False by default.

    `turns`, None by default, is round_robin's picks in order, where
    round_robin_turns set it (see there).
    """

    __slots__ = ("vm_ids", "layer_codes", "queue_lens", "mips", "assigned", "source",
                 "local", "static_feasible", "max_distance", "far", "feasible_sets", "turns",
                 "_cache")

    def __init__(self, vm_ids, layer_codes, source, queue_lens, mips, assigned, *,
                 static_feasible: np.ndarray | None = None):
        self.vm_ids = vm_ids
        self.layer_codes = layer_codes
        self.source = source
        self.queue_lens = queue_lens
        self.mips = mips
        self.assigned = assigned
        self.local = -1
        self.static_feasible = static_feasible
        self.max_distance: float | None = None
        self.far: FarSet | None = None
        self.feasible_sets = False
        self.turns: Iterator[int] | None = None
        self._cache: dict[str, tuple[object, object]] = {}

    def __len__(self) -> int:
        return len(self.vm_ids)

    @property
    def distances(self) -> np.ndarray:
        return self.source.column()


class FarSet:
    """The VMs after the first layer block of a layer-major view.

    The first block, the VMs below index `start`, shares one MIPS value,
    and `chord` is at least every distance between two of its VMs.
    `runs` are the first indices of the first block and of each run of far
    VMs that share one layer and one MIPS value, and `layers` the enabled
    far runs, the VMs weight_greedy's shortlist scores, as (k, mips),
    runs[k] being the run's first VM. far_term_hook sets them where the
    shortlist runs; None leaves weight_greedy on its full path.

    `terms` is trade_off's compute term of each far VM, far.start + j at
    j, as a Python float for tasks of `length_mi` under the weights
    object `weights`, +inf for a VM outside the static feasible set, and
    `c0` no more than any first-block VM's term (+inf when none is
    feasible). trade_off_term_hook sets them and returns the update the
    engine calls at each queue change; None leaves trade_off on its
    numpy path.
    """

    __slots__ = ("start", "chord", "runs", "layers", "terms", "c0", "length_mi", "weights")

    def __init__(self, start: int, chord: float):
        self.start = start
        self.chord = chord
        self.runs: np.ndarray | None = None
        self.layers: list[tuple[int, float]] | None = None
        self.terms: list[float] | None = None
        self.c0 = self.length_mi = math.inf
        self.weights: Mapping[Layer, float] | None = None


def _spread(view: CandidateView, name: str, source, value_of) -> np.ndarray:
    """`value_of(source, layer)` for each candidate's layer, cached on the view.

    The cache holds one entry per `name` and is rebuilt when `source` is
    a different object; sources (architecture, radio, range and weight
    maps) are never mutated in place.
    """
    hit = view._cache.get(name)
    if hit is None or hit[0] is not source:
        column = np.array([value_of(source, layer) for layer in LAYER_ORDER])[view.layer_codes]
        hit = view._cache[name] = (source, column)
    return hit[1]


def _enabled(view: CandidateView, architecture) -> np.ndarray:
    return _spread(view, "enabled", architecture, operator.contains)


def reach_row(view: CandidateView, architecture, link: LinkParams) -> np.ndarray:
    """Each candidate's range, -inf where its layer is disabled: a candidate
    is feasible exactly when its distance is at most this."""
    return np.where(_enabled(view, architecture),
                    _spread(view, "reach", link.range_by_layer, operator.getitem), -np.inf)


def _feasible_indices(view: CandidateView, architecture, link: LinkParams) -> np.ndarray:
    """Candidates whose layer is enabled and that lie within its range (inclusive),
    in index order: the static set, the source's set, or the column's against
    reach_row."""
    idx = view.static_feasible
    if idx is None:
        idx = (view.source.feasible()[0] if view.feasible_sets
               else np.flatnonzero(view.distances <= reach_row(view, architecture, link)))
    if idx.size == 0:
        raise PlacementError("no feasible candidate")
    return idx


def _pick_min(values: np.ndarray, idx: np.ndarray) -> int:
    """Index (into the full view) of the feasible minimum, first on ties.

    `idx` is sorted and unique, so when it has every index there is
    nothing to gather.
    """
    if idx.size == values.size:
        return int(values.argmin())
    return int(idx[values[idx].argmin()])


def distance_only(view: CandidateView, task, architecture, *,
                  link: LinkParams = DEFAULT_LINK) -> Selection:
    """The origin's own VM when its layer is enabled, else the nearest feasible VM.

    The origin's VM is feasible at exactly 0 m, so it is a nearest
    candidate; it also wins the tie against any other VM at 0 m (another
    satellite at a bit-identical position). Other ties go to the lowest
    index. With `feasible_sets`, the nearest is taken over the distances
    `source.feasible()` gives, in index order, so the first minimum is the
    column's.
    """
    local = view.local
    if local >= 0 and _enabled(view, architecture)[local]:
        return Selection(int(view.vm_ids[local]))
    if view.feasible_sets:
        idx, d = view.source.feasible()
        if idx.size == 0:
            raise PlacementError("no feasible candidate")
        return Selection(int(view.vm_ids[idx[d.argmin()]]))
    idx = _feasible_indices(view, architecture, link)
    return Selection(int(view.vm_ids[_pick_min(view.distances, idx)]))


def round_robin(view: CandidateView, task, architecture, *,
                link: LinkParams = DEFAULT_LINK) -> Selection:
    """Feasible candidate with the fewest assignments so far, first on ties; the
    next of `turns` where round_robin_turns set them."""
    if view.turns is not None:
        return Selection(next(view.turns))
    idx = _feasible_indices(view, architecture, link)
    return Selection(int(view.vm_ids[_pick_min(view.assigned, idx)]))


def round_robin_turns(view: CandidateView) -> Iterator[int] | None:
    """round_robin's picks in order, the static feasible VMs cycled, for a view
    whose `assigned` is all zero and from now on grows by one at each pick
    only, as the engine counts them; None without static feasibility or
    feasible VMs.

    After k picks of the m feasible VMs, k = cm + j, the first j hold c + 1
    assignments and the rest c, so the fewest, first on ties, is the
    (j + 1)-th: pick k is static_feasible[k % m].
    """
    idx = view.static_feasible
    if idx is None or idx.size == 0 or view.assigned.any():
        return None
    return cycle(view.vm_ids[idx].tolist())


def random_vm(view: CandidateView, task, architecture, rng: random.Random, *,
              link: LinkParams = DEFAULT_LINK) -> Selection:
    """Uniform draw over all candidates, then forward cyclic scan to feasibility.

    Exactly one RNG draw per call on a non-empty view and none on an empty
    one, so the outcome is a deterministic function of (seed, call index,
    view). Under static feasibility each draw's pick is read from a table
    made at the view's first call (see _draw_table).
    """
    n = len(view)
    if n == 0:
        raise PlacementError("no feasible candidate")
    drawn = rng.randrange(n)
    if view.static_feasible is not None:
        return Selection(_draw_table(view)[drawn])
    idx = _feasible_indices(view, architecture, link)
    j = int(idx.searchsorted(drawn))  # first feasible index >= drawn
    return Selection(int(view.vm_ids[idx[j] if j < idx.size else idx[0]]))


def _draw_table(view: CandidateView) -> list[int]:
    """random_vm's pick for each draw k under static feasibility: the VM id of
    the first static feasible index at or after k, else of the first one,
    cached on the view for its static_feasible array, which is never changed
    in place; raises PlacementError when that set is empty."""
    idx = view.static_feasible
    hit = view._cache.get("draws")
    if hit is None or hit[0] is not idx:
        if idx.size == 0:
            raise PlacementError("no feasible candidate")
        j = idx.searchsorted(np.arange(len(view)))
        j[j == idx.size] = 0
        hit = view._cache["draws"] = (idx, view.vm_ids[idx[j]].tolist())
    return hit[1]


def trade_off(view: CandidateView, task, architecture, *, link: LinkParams = DEFAULT_LINK,
              layer_weights: Mapping[Layer, float] = DEFAULT_TRADEOFF_LAYER_WEIGHTS) -> Selection:
    """Latency-proxy score mixing queue backlog, VM speed, and distance.

    score = layer_weight * (queue_len + 1) * length_mi / vm_mips
            + distance_m / propagation_speed

    With static feasibility and a `max_distance`, only the shortlist with
    compute term c <= fl(c_min + fl(max_distance / speed)) can win: float
    division and adding a non-negative value are monotone, so any other
    scores above the c_min candidate. One shortlisted VM is the pick; a
    shortlist of `far` VMs alone is scored alone, on the distances of
    `source.far_row`, by the same two IEEE operations (_far_pick). Any
    other shortlist reads the column. With `feasible_sets`, the feasible
    VMs alone are scored, on the distances `source.feasible()` gives with
    them.

    Where trade_off_term_hook keeps the far VMs' compute terms for this
    task's length and these weights, the shortlist comes from them with
    no numpy call: with min_far their smallest, every first-block VM's
    term is at least `far.c0`, so when c0 > fl(min_far + D) none of them
    joins and c_min is min_far. Otherwise, or without kept terms, the
    terms of every VM are computed in numpy.
    """
    speed = link.propagation_speed_mps
    far = view.far
    if far is not None and far.terms is not None and task.length_mi == far.length_mi \
            and layer_weights is far.weights:
        terms = far.terms
        bound = min(terms) + view.max_distance / speed
        if far.c0 > bound:  # no first-block VM can join the shortlist
            cols = [j for j, c in enumerate(terms) if c <= bound]
            if len(cols) == 1:
                return Selection(int(view.vm_ids[far.start + cols[0]]))
            return _far_pick(view, cols, terms, speed)
    if view.feasible_sets:
        idx, d = view.source.feasible()
        if idx.size == 0:
            raise PlacementError("no feasible candidate")
    else:
        idx, d = _feasible_indices(view, architecture, link), None
    score = view.queue_lens + 1.0
    score *= _spread(view, "weights", layer_weights, operator.getitem)
    score *= task.length_mi
    score /= view.mips
    if view.static_feasible is not None and view.max_distance is not None:
        c = score if idx.size == score.size else score[idx]
        short = idx[c <= float(c.min()) + view.max_distance / speed]
        if short.size == 1:
            return Selection(int(view.vm_ids[short[0]]))
        if far is not None and short[0] >= far.start:  # short is sorted: every VM is far
            start = far.start
            return _far_pick(view, (short - start).tolist(), score[start:].tolist(), speed)
    if d is not None:
        score = score[idx]
        score += d / speed
        return Selection(int(view.vm_ids[idx[score.argmin()]]))
    score += view.distances / speed
    return Selection(int(view.vm_ids[_pick_min(score, idx)]))


def _far_pick(view: CandidateView, cols: list[int], terms: list[float], speed: float) -> Selection:
    """trade_off's pick among the far VMs far.start + j, j in `cols` (ascending):
    the first minimum of terms[j] + row[j] / speed, row being `source.far_row()`,
    in Python floats, the numpy path's two IEEE operations."""
    row = view.source.far_row().tolist()
    scores = [terms[j] + row[j] / speed for j in cols]
    return Selection(int(view.vm_ids[view.far.start + cols[scores.index(min(scores))]]))


def trade_off_term_hook(view: CandidateView, layer_weights: Mapping[Layer, float],
                        length_mi: float):
    """Keeps trade_off's far compute terms on `view.far` for tasks of `length_mi`
    under `layer_weights` (that object), and returns the update the engine
    calls after each change of a VM's queue length, with the VM's index; or
    None where trade_off's shortlist never runs: no far set, feasibility per
    task or no `max_distance`.

    Each term is computed from the view's current queue length by the
    numpy path's operations in its order, ((q + 1) * w) * length_mi / mips,
    in Python floats, which are IEEE doubles as numpy's float64 are; a far
    VM outside the static feasible set keeps +inf. `far.c0` is the smallest
    term of a feasible first-block VM at queue 0, which no queue length
    (never negative) lowers, or +inf when there is none.
    """
    far = view.far
    if far is None or view.static_feasible is None or view.max_distance is None:
        return None
    start = far.start
    feasible = np.zeros(len(view), dtype=bool)
    feasible[view.static_feasible] = True
    weights = _spread(view, "weights", layer_weights, operator.getitem)
    c = weights[:start] * float(length_mi)  # (0 + 1) * w is w
    c /= view.mips[:start]
    c = c[feasible[:start]]
    far.c0 = float(c.min()) if c.size else math.inf
    q = view.queue_lens
    w, mips = weights[start:].tolist(), view.mips[start:].tolist()
    on = feasible[start:].tolist()
    terms = far.terms = [math.inf] * len(on)
    far.length_mi, far.weights = length_mi, layer_weights

    def update(vm: int) -> None:
        j = vm - start
        if j >= 0 and on[j]:
            terms[j] = ((q.item(vm) + 1.0) * w[j]) * length_mi / mips[j]

    for vm in range(start, len(view)):
        update(vm)
    return update


def weight_greedy(view: CandidateView, task, architecture, *, link: LinkParams = DEFAULT_LINK,
                  radio: RadioParams = DEFAULT_RADIO) -> Selection:
    """Weighted sum of min-max normalized indicators, lowest score wins.

    Indicators, weighted 6:6:5:3 (WEIGHT_GREEDY_RATIOS): transfer
    distance, CPU time ((queue_len + 1) * length_mi / vm_mips), queued
    parallel tasks, and transmit energy for the task's input at that
    distance: free-space (e_elec + eps_fs * d^2) strictly below the
    crossover distance, multipath (e_elec + eps_mp * d^4) from it on. Each
    indicator is normalized over the feasible set, from its minimum and
    maximum; a constant indicator contributes zeros. The weighted terms
    are summed in indicator order.

    With a `far` set and feasibility static, an origin of the first layer
    block whose layer is enabled and whose queue is that layer's shortest
    is scored against the enabled far VMs alone (see _dominance_shortlist):
    every other VM of its layer has CPU and queue terms at least the
    origin's and a larger distance, so it cannot score lower. Each
    indicator's minimum and maximum over the feasible set then comes from
    a handful of values (see _shortlist_extremes), and the far VMs are
    visited nearest first, in the order the source computes for a block of
    arrivals at once (`source.far_terms`, see far_terms), each scored in
    Python floats by the full path's IEEE operations in its order, until
    one's distance and energy terms alone sum above the best score so far
    (see _shortlist_pick). On `full_walker` (seed 1) that scores 2.05 of
    the 42 far VMs on average, 3.7 on the desk grid. The engine sets a far
    set, the edge and cloud VMs, for its built-in orbits under static
    feasibility. One pick differs from the full argmin's: a VM of the
    origin's layer with a lower index, within about 5e-9 m of the origin,
    whose distance term rounds away in the sum, ties with the origin and
    would win by index; the shortlist keeps the origin, as distance_only
    does.

    An origin whose queue is not its block's shortest takes the busy-origin
    path where the source's `near_radius` is set (see _shortlist_pick):
    the same walk, and then the first-block VMs near enough to win,
    which `source.near` finds, scored in Python floats; ties go to the
    lowest index, as on the full path. Under a timing wrapper on a 2-vCPU
    host (`full_walker`, seed 1, 15 s, medians of 8 runs alternating with
    the numpy scoring of all 43 in one process) an idle origin's `select`
    took 10-11 µs against 14-15 µs, its block row included, and a busy
    origin's 25-27 µs against 29-31 µs; the full path, which busy origins
    take under random_uniform phasing, took 71-79 µs.

    With `feasible_sets`, the distance and energy terms over the feasible
    set come from the source too (`source.feasible_terms()`), computed for
    a block of arrivals at once by feasible_terms from the block's
    feasible distances, and the CPU and queue terms are normalized in
    numpy (_feasible_pick): every placement is scored over its feasible
    set, as on the full path, by the same IEEE operations. A walk would
    score about 29 of the 77 feasible VMs there (`sparse_links`), too many
    to pay in Python floats.
    """
    if view.feasible_sets:
        idx, dn, en = view.source.feasible_terms()
        if idx.size == 0:
            raise PlacementError("no feasible candidate")
        return Selection(int(view.vm_ids[_feasible_pick(view, task, idx, dn, en)]))
    short = _dominance_shortlist(view, architecture)
    if short is not None:
        best = _shortlist_pick(view, task, radio, *short)
        if best >= 0:
            return Selection(int(view.vm_ids[best]))
    idx = _feasible_indices(view, architecture, link)
    every = idx.size == len(view)
    if every:
        d, q, mips = view.distances, view.queue_lens, view.mips
    else:
        d, q, mips = view.distances[idx], view.queue_lens[idx], view.mips[idx]
    ratios = WEIGHT_GREEDY_RATIOS
    score = _minmax_into(d, ratios[0], np.empty(d.size))
    term = _cpu_time(q, task.length_mi, mips)
    score += _minmax_into(term, ratios[1], term)
    score += _minmax_into(q, ratios[2], term)
    d2 = d * d
    np.multiply(d2, d2, out=term)  # energy: multipath everywhere, then free-space below
    term *= radio.eps_mp
    term += radio.e_elec
    for i in (d < radio.crossover_m).nonzero()[0].tolist():
        term[i] = radio.e_elec + radio.eps_fs * d2[i]
    term *= task.input_bits
    score += _minmax_into(term, ratios[3], term)
    best = int(score.argmin())
    return Selection(int(view.vm_ids[best if every else idx[best]]))


def _cpu_time(q: np.ndarray, length_mi: float, mips: np.ndarray) -> np.ndarray:
    """weight_greedy's CPU-time indicator ((q + 1) * length_mi) / mips, in a new array."""
    term = q + 1.0
    term *= length_mi
    term /= mips
    return term


def _feasible_pick(view: CandidateView, task, idx: np.ndarray, dn: np.ndarray,
                   en: np.ndarray) -> int:
    """weight_greedy's pick, as an index, over the feasible set `idx` with its
    distance and energy terms `dn` and `en`: the CPU time and the queue
    normalized over the set, the four terms summed in the full path's order,
    the first on a tie."""
    q = view.queue_lens[idx]
    term = _cpu_time(q, task.length_mi, view.mips[idx])
    score = dn + _minmax_into(term, WEIGHT_GREEDY_RATIOS[1], term)
    score += _minmax_into(q, WEIGHT_GREEDY_RATIOS[2], term)
    score += en
    return idx.item(score.argmin())


def _dominance_shortlist(view: CandidateView, architecture):
    """(lo, hi, far row, order, d_hi) for weight_greedy's shortlist, or None.

    far_term_hook decides once per run whether the shortlist can run at
    all, and which far VMs it scores: None unless it set `far.layers`.
    Each placement then asks for the full path when the origin lies
    outside the first block or in a disabled layer, a VM of the origin's
    layer has a shorter queue and the source has no neighbour query (its
    `near_radius` is None), or d_hi, the largest scored far distance, is
    below the first block's chord. Otherwise the candidates are the
    origin, at 0 m, and the enabled far VMs, and each indicator's minimum
    and maximum over the whole feasible set is one of theirs, but for the
    first block's shortest and longest queues, lo[0] and hi[0]: the
    distance's are 0, the origin's, and d_hi, since no two VMs of the
    first block lie farther apart than `chord`. lo and hi hold the
    shortest and longest queue of each of `far.runs`, by one reduction
    each; the far row and its enabled columns nearest first (`order`) come
    from `source.far_terms()`.
    """
    far, local = view.far, view.local
    if far is None or far.layers is None or not 0 <= local < far.start \
            or not _enabled(view, architecture)[local]:
        return None
    queues = view.queue_lens
    lo = np.minimum.reduceat(queues, far.runs).tolist()
    if queues.item(local) > lo[0] and view.source.near_radius is None:
        return None
    hi = np.maximum.reduceat(queues, far.runs).tolist()
    row, order = view.source.far_terms()
    d_hi = row.item(order[-1])
    if d_hi < far.chord:
        return None
    return lo, hi, row, order, d_hi


def _shortlist_extremes(view: CandidateView, task, radio: RadioParams, lo: list[float],
                        hi: list[float], d_hi: float):
    """(e_lo, e_hi, c_lo, c_hi, q_min, q_max), the minimum and maximum of
    weight_greedy's energy, CPU time and queue over the feasible set of a
    _dominance_shortlist placement, with no pass over its candidates.

    The energy rises with the distance (far_term_hook checks it), so its
    extremes are tx_energy's at 0 m and at d_hi, the values the full path's
    lines give there. The CPU time ((q + 1) * length) / mips rises with the
    queue at one MIPS, so over the first block, which holds the origin, or
    an enabled far run of `far.layers`, its extremes are at the run's
    shortest and longest queues, lo[k] and hi[k].
    """
    length, m = task.length_mi, view.mips.item(view.local)  # the first block's one MIPS
    q_min, q_max = lo[0], hi[0]
    c_lo, c_hi = (q_min + 1.0) * length / m, (q_max + 1.0) * length / m
    for k, mips in view.far.layers:
        a, b = lo[k], hi[k]
        c_lo, c_hi = min(c_lo, (a + 1.0) * length / mips), max(c_hi, (b + 1.0) * length / mips)
        q_min, q_max = min(q_min, a), max(q_max, b)
    bits = task.input_bits
    return (tx_energy(bits, 0.0, radio), tx_energy(bits, d_hi, radio), c_lo, c_hi, q_min, q_max)


def _shortlist_pick(view: CandidateView, task, radio: RadioParams, lo: list[float],
                    hi: list[float], row: np.ndarray, order: list[int], d_hi: float) -> int:
    """weight_greedy's pick, as an index, from _dominance_shortlist's candidates:
    the origin, then the enabled far VMs, far.start + j for j in `order`,
    nearest first by their distances row[j]; -1 where too many first-block
    VMs lie near enough to a busy origin to win: more than the candidates.

    Each candidate is scored in Python floats by the full path's IEEE
    operations in its order, ((dn + cn) + qn) + en, normalized by
    _shortlist_extremes' minima and maxima; a zero span stands as a span
    and ratio of 1, which leaves v - lo as the full path does. (score,
    index) is kept lowest-first, so ties go to the lowest index, the origin
    first, as in the full argmin. The walk stops at the first far VM whose
    bound fl(dn + en) is above the best score S, unscored: its cn and qn
    are not negative and float addition is monotone, so its score is at
    least the bound; dn = (d / d_hi) * 6 and en rise with the distance, so
    every later VM's bound is at least its. A VM whose bound equals S is
    scored. An origin whose queue is lo[0], the first block's shortest,
    wins over the rest of its block (see _dominance_shortlist).

    For a busy origin, one with a longer queue, the first block's other
    VMs are scored only near it. A first-block VM farther than
    r = ((S - c_min - q_min) / 6 + 1e-9) * d_hi, c_min and q_min being the
    terms of the block's shortest queue, scores above S: its distance term
    alone exceeds S - c_min - q_min by 6e-9, which rounding in sums below 20
    (some 1e-14) cannot undo, and its energy term is not negative.
    `source.near(r)` gives the VMs it may hold and their column distances,
    first at `source.near_radius` or r if smaller, then, where the first
    ones leave r larger than that, once more at r, which no later score can
    raise. They are scored as the far VMs are, ties to the lowest index;
    the origin has no precedence here.
    """
    e_lo, e_hi, c_lo, c_hi, q_min, q_max = _shortlist_extremes(view, task, radio, lo, hi, d_hi)
    rc, rq, re = WEIGHT_GREEDY_RATIOS[1:]
    c_span, q_span, e_span = c_hi - c_lo, q_max - q_min, e_hi - e_lo
    if c_span == 0.0:
        c_span = rc = 1.0
    if q_span == 0.0:
        q_span = rq = 1.0
    if e_span == 0.0:
        e_span = re = 1.0
    length, bits, e_elec, eps_fs, eps_mp, crossover = (task.length_mi, task.input_bits,
                                                      radio.e_elec, radio.eps_fs, radio.eps_mp,
                                                      radio.crossover_m)
    queues, mips, local, start = view.queue_lens, view.mips, view.local, view.far.start
    q, m = queues.item(local), mips.item(local)
    # the origin's distance and energy terms are 0.0, which leave its sum as it is
    best, pick = ((q + 1.0) * length / m - c_lo) / c_span * rc + (q - q_min) / q_span * rq, local
    for j in order:
        d = row.item(j)
        d2 = d * d
        e = (e_elec + eps_fs * d2 if d < crossover else d2 * d2 * eps_mp + e_elec) * bits
        dn, en = d / d_hi * 6.0, (e - e_lo) / e_span * re
        if dn + en > best:
            break
        vm = start + j
        qj = queues.item(vm)
        s = dn + ((qj + 1.0) * length / mips.item(vm) - c_lo) / c_span * rc \
            + (qj - q_min) / q_span * rq + en
        if s < best or s == best and vm < pick:
            best, pick = s, vm
    q_lo = lo[0]
    if q == q_lo:
        return pick
    floor = ((q_lo + 1.0) * length / m - c_lo) / c_span * rc + (q_lo - q_min) / q_span * rq
    source, cap = view.source, 1 + len(order)
    bound = ((best - floor) / 6.0 + 1e-9) * d_hi
    r = min(source.near_radius, bound)
    while True:
        ids, distances = source.near(r)
        if len(ids) > cap:
            return -1
        for j, d in zip(ids, distances):
            if d > bound or j == local:  # scores above best, or scored
                continue
            qj = queues.item(j)
            d2 = d * d
            e = (e_elec + eps_fs * d2 if d < crossover else d2 * d2 * eps_mp + e_elec) * bits
            # d - 0.0 is d: the origin's distance is the minimum, and d_hi - 0.0 the span
            s = d / d_hi * 6.0 + ((qj + 1.0) * length / m - c_lo) / c_span * rc \
                + (qj - q_min) / q_span * rq + (e - e_lo) / e_span * re
            if s < best or s == best and j < pick:
                best, pick = s, j
                bound = ((best - floor) / 6.0 + 1e-9) * d_hi
        if bound <= r:
            return pick
        r = bound


def far_term_hook(view: CandidateView, architecture, radio: RadioParams):
    """far_terms with the view's enabled far columns bound, taking a block's far
    rows, or None where weight_greedy's shortlist never runs: no far set,
    feasibility per task, an energy that falls across the crossover under
    `radio`, or no enabled far VM. Where it runs, sets `far.runs` and
    `far.layers` for this architecture."""
    far = view.far
    if far is None or view.static_feasible is None or not _energy_rises(radio):
        return None
    start, codes, mips = far.start, view.layer_codes, view.mips
    on = _enabled(view, architecture)
    cuts = (codes[start + 1:] != codes[start:-1]) | (mips[start + 1:] != mips[start:-1])
    runs = [0, start, *(np.flatnonzero(cuts) + start + 1).tolist()]
    layers = [(k, mips.item(a)) for k, a in enumerate(runs) if k and on[a]]
    if not layers:
        return None
    far.runs, far.layers = np.array(runs), layers
    return partial(far_terms, columns=np.flatnonzero(on[start:]))


def far_terms(rows: np.ndarray, columns: np.ndarray) -> list[list[int]]:
    """weight_greedy's walk order on the shortlists of a block of arrivals.

    rows[i] holds arrival i's distances to the far VMs, and `columns` are
    the rows' enabled entries, the ones scored. Returns, for each row, its
    enabled columns nearest first. Columns at equal distances may come in
    any order: the walk visits all of them or none, and keeps the lowest
    (score, index), so the pick is the same (numpy's default sort took
    half the time of the stable one on 97 by 42 rows).
    """
    return columns[rows[:, columns].argsort(axis=1)].tolist()


def feasible_terms(d: np.ndarray, rows: np.ndarray, bounds: np.ndarray, bits: list[float],
                   radio: RadioParams):
    """weight_greedy's distance and energy terms over the feasible sets of a block of arrivals.

    `d` holds the feasible VMs' distances of every arrival, arrival by
    arrival: entry j belongs to arrival rows[j], and arrival i's entries are
    bounds[i] to bounds[i + 1]. bits[i] is arrival i's task's input bits.
    Returns (dn, en), aligned with `d`: each arrival's entries hold what
    _minmax_into gives the distance (ratio 6) and the energy (ratio 3) over
    them, by the same IEEE operations, the energy computed as
    weight_greedy's lines compute it. The extremes are the entries' own, so
    an energy that falls at the crossover needs no check; arrivals with no
    feasible VM have no entries and are left out of the reductions.
    """
    counts = np.diff(bounds)
    some = counts > 0
    starts, counts = bounds[:-1][some], counts[some]
    energy = _energy_per_bit(d, radio)
    energy *= np.asarray(bits, dtype=np.float64)[rows]
    dn = _minmax_runs(d, WEIGHT_GREEDY_RATIOS[0], starts, counts, np.empty(d.size))
    return dn, _minmax_runs(energy, WEIGHT_GREEDY_RATIOS[3], starts, counts, energy)


def _energy_per_bit(d: np.ndarray, radio: RadioParams) -> np.ndarray:
    """Transmit energy per bit at distances `d`, in a new array, as weight_greedy's
    energy lines compute it: multipath everywhere, then free-space strictly
    below the crossover."""
    d2 = d * d
    energy = d2 * d2
    energy *= radio.eps_mp
    energy += radio.e_elec
    d2 *= radio.eps_fs
    d2 += radio.e_elec
    np.copyto(energy, d2, where=d < radio.crossover_m)
    return energy


def _minmax_runs(values: np.ndarray, ratio: float, starts: np.ndarray, counts: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """_minmax_into on each run of `values`, counts[i] entries from starts[i],
    into `out`, which may be `values`. The runs are non-empty and cover
    `values` in order; a run whose span is 0 keeps values - lo, all +0.0."""
    lo = np.minimum.reduceat(values, starts)
    span = np.maximum.reduceat(values, starts)
    span -= lo
    span[span == 0.0] = 1.0  # values - lo is +0.0 there, and stays so, as with no divide
    np.subtract(values, np.repeat(lo, counts), out=out)
    out /= np.repeat(span, counts)
    out *= ratio
    return out


def _energy_rises(radio: RadioParams) -> bool:
    """Whether weight_greedy's float energy never falls as the distance grows.

    Each branch is monotone, so the only place it can fall is across the
    crossover, from the free-space value one step below it to the
    multipath value at it.
    """
    c = radio.crossover_m
    return tx_energy(1.0, float(np.nextafter(c, 0.0)), radio) <= tx_energy(1.0, c, radio)


def _minmax_into(values: np.ndarray, ratio: float, out: np.ndarray) -> np.ndarray:
    """_scale_into with the values' own minimum and span: ((values - lo) /
    (hi - lo)) * ratio into `out`, which may be `values`."""
    lo = values[values.argmin()]
    return _scale_into(values, ratio, out, lo, values[values.argmax()] - lo)


def _scale_into(values: np.ndarray, ratio: float, out: np.ndarray, lo: float,
                span: float) -> np.ndarray:
    """((values - lo) / span) * ratio into `out`, which may be `values`, or
    values - lo where span is 0: a constant column then gives exact zeros."""
    np.subtract(values, lo, out=out)
    if span != 0.0:
        out /= span
        out *= ratio
    return out


def select(policy: PolicyId, view: CandidateView, task, architecture, *,
           rng: random.Random | None = None,
           link: LinkParams = DEFAULT_LINK,
           radio: RadioParams = DEFAULT_RADIO,
           layer_weights: Mapping[Layer, float] = DEFAULT_TRADEOFF_LAYER_WEIGHTS) -> Selection:
    """Dispatch to one of the five policies."""
    if policy is PolicyId.DISTANCE_ONLY:
        return distance_only(view, task, architecture, link=link)
    if policy is PolicyId.ROUND_ROBIN:
        return round_robin(view, task, architecture, link=link)
    if policy is PolicyId.TRADE_OFF:
        return trade_off(view, task, architecture, link=link, layer_weights=layer_weights)
    if policy is PolicyId.RANDOM_VM:
        if rng is None:
            raise ValueError("random_vm needs an rng")
        return random_vm(view, task, architecture, rng, link=link)
    if policy is PolicyId.WEIGHT_GREEDY:
        return weight_greedy(view, task, architecture, link=link, radio=radio)
    raise ValueError(f"unknown policy {policy!r}")
