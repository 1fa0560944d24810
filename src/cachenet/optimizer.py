"""Joint content placement and cache-budget optimization.

Minimizes total hop-weighted traffic sum_i sum_k q[i,k] * d(i, supplier) * S[k]
subject to: one supplier per (node, object); suppliers must hold the object;
per-node capacity; and a conserved global budget pool. The virtual origin
holds everything, so every placement admits a feasible assignment.

Solvers: exhaustive enumeration (tiny instances, ground truth), greedy
marginal-gain insertion, and a first-improvement swap local search.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .netmodel import Catalog, DemandMatrix, Topology

__all__ = [
    "ORIGIN",
    "Placement",
    "Instance",
    "SolveResult",
    "InstanceTooLargeError",
    "nearest_copy",
    "evaluate_objective",
    "average_hops",
    "check_feasibility",
    "exact_solve",
    "greedy_solve",
    "local_search",
    "solve",
    "placement_digest",
]

# supplier sentinel for the virtual origin server
ORIGIN = -1

# the swap search's initial pricing takes the objects a chunk at a time, so
# that each temporary stays within about this many entries (256 KB of
# float64), or one object's share where that is larger (two objects' for a
# swap's gains): the gain kernel's buffer (objects x n x n), the runner-up
# table (objects x copies x n) and moved requesters' price rows (moved
# requesters x n)
_CHUNK = 1 << 15


class InstanceTooLargeError(ValueError):
    """Instance exceeds the exhaustive solver's enumeration guard."""


@dataclass(eq=False)
class Placement:
    """Cache membership matrix plus per-node budgets.

    x[i, k] is True when object k is resident at router i. Budgets are in
    size units and must sum to the instance's global pool.
    """

    x: np.ndarray
    budgets: np.ndarray

    def copy(self) -> "Placement":
        return Placement(self.x.copy(), self.budgets.copy())


@dataclass(eq=False)
class Instance:
    topology: Topology
    catalog: Catalog
    demand: DemandMatrix
    c_sum: float

    def __post_init__(self):
        if self.demand.rates.shape != (self.n, self.m):
            raise ValueError("demand shape does not match topology/catalog")
        if not (np.isfinite(self.c_sum) and self.c_sum >= 0):
            raise ValueError("c_sum must be finite and nonnegative")

    @property
    def n(self) -> int:
        return self.topology.node_count

    @property
    def m(self) -> int:
        return self.catalog.object_count

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Read-only w[i, k] = rates[i, k] * sizes[k], the weight of a hop,
        rounded to multiples of ``step = 2**(e - 52)``, where ``2**e`` is the
        first power of two above ``sum(w) * max origin distance``. Hop counts
        are whole, so every cost and gain the solvers sum is a whole number of
        steps below about 2**52: exact in float64 in any order (Goldberg
        1991). Integer weights are their own grid while that total is < 2**52;
        a total that is not a finite float, which no grid fits, raises ValueError."""
        w = self.demand.rates * self.catalog.sizes[None, :]
        top = float(w.sum()) * float(self.topology.origin_distances.max())
        if not math.isfinite(top):
            raise ValueError(f"sum(w) * max origin distance is {top}, not a finite float: the demand has no grid")
        e = math.frexp(top)[1]
        w = np.ldexp(np.rint(np.ldexp(w, 52 - e)), e - 52)
        w.flags.writeable = False
        return w


@dataclass(eq=False)
class SolveResult:
    placement: Placement
    cost: float
    diagnostics: dict = field(default_factory=dict)


def nearest_copy(x: np.ndarray, instance: Instance) -> np.ndarray:
    """dist[i, k] = hops from router i to the nearest copy of object k in ``x``,
    the origin included.

    One pass over the routers that hold copies: each lowers its objects'
    distance rows to its own hop row, the rule greedy applies on each pick.
    """
    hop = instance.topology.hop_matrix  # symmetric: row j is every router's distance to j
    origin = instance.topology.origin_distances
    dtype = np.min_scalar_type(max(int(hop.max()), int(origin.max())))  # smaller rows go faster
    hop, origin = hop.astype(dtype), origin.astype(dtype)
    best = np.tile(origin, (x.shape[1], 1))  # best[k] = object k's distance row
    for j in np.flatnonzero(x.any(axis=1)):
        objs = np.flatnonzero(x[j])
        best[objs] = np.minimum(best[objs], hop[j])
    return best.T.astype(float, order="C")


def evaluate_objective(supplier: np.ndarray, instance: Instance) -> float:
    """Total hop-weighted traffic when supplier[i, k], a router or ORIGIN,
    serves object k to router i."""
    hop = instance.topology.hop_matrix
    dorg = instance.topology.origin_distances
    rows = np.arange(instance.n)[:, None]
    origin = supplier == ORIGIN
    dist = np.where(origin, dorg[:, None], hop[rows, np.where(origin, 0, supplier)])
    return _traffic(dist, instance)


def placement_cost(placement: Placement, instance: Instance) -> float:
    """Total hop-weighted traffic of ``placement`` served from nearest copies.
    No solver calls it; the tests keep it as their reference cost."""
    return _traffic(nearest_copy(placement.x, instance), instance)


def _traffic(dist: np.ndarray, instance: Instance) -> float:
    """Total hop-weighted traffic when router i fetches object k over dist[i, k] hops."""
    return float((instance.weights * dist).sum())


def average_hops(cost: float, instance: Instance) -> float:
    """Objective normalized to the plotted metric: hops per unit of demand."""
    return cost / float(instance.weights.sum())


def check_feasibility(placement: Placement, instance: Instance) -> list[str]:
    """Messages for the capacity (3) and conserved-pool (4) constraints that
    ``placement`` breaks, overloaded routers in router order; empty when it
    is feasible.

    The assignment constraints (1, 2) are satisfiable for any placement
    because the origin can always supply, so they never appear as
    violations, and a negative budget gets its router's capacity message.
    Malformed ``x`` or ``budgets`` get one message and no other.
    """
    x, budgets = np.asarray(placement.x), np.asarray(placement.budgets)
    if x.dtype != bool or x.shape != (instance.n, instance.m):
        return [f"membership must be a {instance.n}x{instance.m} boolean matrix, not {x.dtype} {x.shape}"]
    if budgets.shape != (instance.n,) or budgets.dtype.kind not in "iuf" or not np.isfinite(budgets).all():
        return [f"budgets must be {instance.n} finite numbers"]
    used = x @ instance.catalog.sizes
    problems = [f"node {i}: resident size {used[i]} exceeds budget {budgets[i]}"
                for i in np.flatnonzero(used > budgets + 1e-9).tolist()]
    total = float(budgets.sum())
    if abs(total - instance.c_sum) > 1e-9:
        problems.append(f"budgets sum to {total}, pool is {instance.c_sum}")
    return problems


def _budgets_from_usage(x: np.ndarray, sizes: np.ndarray, c_sum: float) -> np.ndarray:
    """Budgets equal to used capacity, slack parked at node 0."""
    budgets = (x @ sizes).astype(float)
    budgets[0] += c_sum - budgets.sum()
    return budgets


def exact_solve(instance: Instance) -> SolveResult:
    """Ground-truth solver: enumerate every placement within the pool.

    Guarded to n*m <= 20 and c_sum <= 6. Returns the lexicographically
    smallest optimal membership matrix (flattened row-major).
    """
    n, m, c_sum = instance.n, instance.m, instance.c_sum
    if n * m > 20 or c_sum > 6:
        raise InstanceTooLargeError(f"exact_solve guard: n*m={n * m}, c_sum={c_sum}")
    sizes = [float(s) for s in instance.catalog.sizes]
    w = instance.weights.tolist()
    hop = instance.topology.hop_matrix.tolist()
    dorg = [float(d) for d in instance.topology.origin_distances]
    cells = [(i, k) for i in range(n) for k in range(m)]

    def cost_of(chosen) -> float:
        holders = [[] for _ in range(m)]
        for ci in chosen:
            i, k = cells[ci]
            holders[k].append(i)
        total = 0.0
        for i in range(n):
            wi = w[i]
            hi = hop[i]
            for k in range(m):
                d = dorg[i]
                for j in holders[k]:
                    if hi[j] < d:
                        d = hi[j]
                total += wi[k] * d
        return total

    min_size = min(sizes)
    max_copies = int(c_sum // min_size)
    best_cost, best_bits = cost_of(()), (0,) * (n * m)
    for r in range(1, max_copies + 1):
        for combo in itertools.combinations(range(n * m), r):
            if sum(sizes[cells[ci][1]] for ci in combo) > c_sum + 1e-9:
                continue
            bits = [0] * (n * m)
            for ci in combo:
                bits[ci] = 1
            best_cost, best_bits = min((best_cost, best_bits), (cost_of(combo), tuple(bits)))
    x = np.array(best_bits, dtype=bool).reshape(n, m)
    placement = Placement(x, _budgets_from_usage(x, instance.catalog.sizes, c_sum))
    return SolveResult(placement, best_cost)


def _gains(qs: np.ndarray, dist: np.ndarray, hop: np.ndarray, saved: np.ndarray) -> np.ndarray:
    """gain[c, 0, j] = cost decrease from adding a copy of object c at router
    j, for weights qs[c, 0, :] (``Instance.weights`` columns) and
    nearest-copy distances dist[c, :, 0]; a ``dist`` of one object serves
    every object. ``saved`` is the caller's scratch buffer of at least
    len(dist) x n x n, overwritten."""
    buf = saved[:len(dist)]
    np.subtract(dist, hop, out=buf)
    np.maximum(buf, 0.0, out=buf)
    return np.matmul(qs, buf)


def _greedy_entry(gain: np.ndarray, size: float, k: int) -> tuple:
    """Heap key of object k's best copy: the best gain per size unit first,
    then the higher gain, the lower router, the lower object."""
    j = int(gain.argmax())  # argmax keeps the lowest router
    g = float(gain[j])
    return -g / size, -g, j, k


def greedy_solve(instance: Instance) -> SolveResult:
    """Greedy: repeatedly add the copy with the best gain per size unit, ties
    to the higher gain, then the lower router, then the lower object.

    A heap holds each object's best copy. A copy changes only its object's
    distances, so a pick rescores only that object's entry and every other
    entry stays exact; the pool only shrinks, so an entry that no longer
    fits is dropped for good."""
    n, m = instance.n, instance.m
    hop = instance.topology.hop_matrix.astype(float)
    dorg = instance.topology.origin_distances.astype(float)
    sizes = instance.catalog.sizes
    size = sizes.tolist()
    wt = instance.weights.T
    x = np.zeros((n, m), dtype=bool)
    curdist = np.tile(dorg, (m, 1))  # curdist[k]: object-major, so a pick updates one row
    saved = np.empty((1, n, n))
    first = wt @ np.maximum(dorg[:, None] - hop, 0.0)  # every object starts from the origin's distances
    heap = [_greedy_entry(first[k], size[k], k) for k in range(m)]
    heapq.heapify(heap)
    pool = float(instance.c_sum)
    smallest = min(size)
    while heap and smallest <= pool + 1e-9:  # else no object fits
        _, neg_gain, j, k = heap[0]
        if size[k] > pool + 1e-9:
            heapq.heappop(heap)
            continue
        if neg_gain >= 0:
            break
        x[j, k] = True
        pool -= size[k]
        np.minimum(curdist[k], hop[j], out=curdist[k])  # hop is symmetric
        # a holder's gain is exactly 0, so it is the best copy only when no
        # copy gains, and then the entry is never picked: no mask needed
        gain = _gains(wt[k, None, None], curdist[k, None, :, None], hop, saved)[0, 0]
        heapq.heapreplace(heap, _greedy_entry(gain, size[k], k))
    out = Placement(x, _budgets_from_usage(x, sizes, instance.c_sum))
    return SolveResult(out, _traffic(curdist.T, instance))


def _runner_up(x: np.ndarray, hop: np.ndarray, dorg: np.ndarray):
    """near[r, k] = router of r's nearest copy of object k in ``x`` (the
    lowest index on ties, -1 without copies), after[r, k] = r's distance
    to k once that copy is gone, and dist[r, k] = r's distance to k now;
    each distance is to a copy or the origin, whichever is nearer."""
    n, b = x.shape
    obj, router = np.nonzero(x.T)  # copies by object, then router
    slot = np.arange(obj.size) - np.searchsorted(obj, np.arange(b))[obj]
    table = np.full((b, max(int(slot.max(initial=0)) + 1, 2)), -1)
    table[obj, slot] = router
    d = hop[table]  # d[k, slot, r]
    d[table < 0] = np.inf
    first = d.argmin(axis=1)  # lowest slot, so lowest router, on ties
    k_ix, r_ix = np.arange(b)[:, None], np.arange(n)[None, :]
    dist = np.minimum(d[k_ix, first, r_ix].T, dorg[:, None])
    d[k_ix, first, r_ix] = np.inf
    return table[k_ix, first].T, np.minimum(d.min(axis=1).T, dorg[:, None]), dist


def _drop_prices(qs, curdist, after, hop, r_ix, k_ix, starts):
    """Loss and insertion-gain column change from dropping copies, each one
    given by its moved requesters r_ix (object k_ix), grouped at ``starts``."""
    q, near, far = qs[r_ix, k_ix], curdist[r_ix, k_ix], after[r_ix, k_ix]
    gap = far - near
    # a requester at `near` that moves to `far` saves max(0, far - h) - max(0, near - h)
    # from a copy h hops away; on whole hop counts that is clip(far - h, 0, far - near),
    # here min then max, which is exact and quicker as far > near for a moved requester
    extra = hop[r_ix]
    np.subtract(far[:, None], extra, out=extra)
    np.minimum(extra, gap[:, None], out=extra)
    np.maximum(extra, 0.0, out=extra)
    extra *= q[:, None]
    return np.add.reduceat(q * gap, starts), np.add.reduceat(extra, starts, axis=0)


def local_search(instance: Instance, placement: Placement, max_iters: int) -> SolveResult:
    """First-improvement swap pass: drop one resident copy, add one absent
    copy that fits the freed capacity plus pool slack.

    Scans residents in (node, object) order and applies the first improving
    swap, restarting until no swap improves or ``max_iters`` swaps applied.

    Dropping the copy at i moves only the requesters whose one nearest copy
    is i, to their runner-up, so every resident's loss and best same-object
    re-insertion gain follow from per-object state, and a whole pass is one
    masked comparison of every resident's loss against the best insertion
    gain that fits the room it frees. A swap reprices only its two objects.
    """
    n, m = instance.n, instance.m
    hop = instance.topology.hop_matrix.astype(float)
    dorg = instance.topology.origin_distances.astype(float)
    sizes = instance.catalog.sizes
    qs = instance.weights
    x = placement.x.copy()
    slack = float(instance.c_sum - (x @ sizes).sum())
    curdist = np.empty((n, m))  # curdist[r, k] = r's distance to the nearest copy of k
    gains = np.empty((n, m))  # gains[j, k] = objective decrease from adding a copy of k at router j
    near = np.empty((n, m), dtype=int)
    after = np.empty((n, m))
    loss = np.zeros((n, m))  # loss[i, k] = objective increase from dropping the copy at i
    regain = np.zeros((n, m))  # regain[i, k] = then the best gain of re-adding k where it is absent
    colmax = np.zeros(m)  # best gain of adding k where it is absent
    step = min(m, max(1, _CHUNK // (n * n)))  # objects per chunk of the initial pricing
    saved = np.empty((max(2, step), n, n))  # _gains' scratch buffer: a chunk or a swap's two objects

    def reprice(objs):  # distinct object indices; priced on local columns, then stored
        objs = np.asarray(objs)
        held = x[:, objs]
        nearest, far, dist = _runner_up(held, hop, dorg)
        gain = _gains(qs.T[objs, None], dist.T[:, :, None], hop, saved)[:, 0].T
        best = np.where(held, -np.inf, gain).max(axis=0)
        near[:, objs], after[:, objs], curdist[:, objs], gains[:, objs] = nearest, far, dist, gain
        colmax[objs] = regain[:, objs] = best
        loss[:, objs] = 0.0
        c_ix, r_ix = np.nonzero((far > dist).T)  # a tie for nearest never moves
        if not r_ix.size:
            return
        k_ix = objs[c_ix]
        key = k_ix * n + nearest[r_ix, c_ix]
        order = np.argsort(key, kind="stable")
        r_ix, k_ix, key = r_ix[order], k_ix[order], key[order]
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))  # each run's first
        rows, cols = near[r_ix[starts], k_ix[starts]], k_ix[starts]
        loss[rows, cols], regains = _drop_prices(qs, curdist, after, hop, r_ix, k_ix, starts)
        regains += gains[:, cols].T
        regains[x[:, cols].T] = -np.inf
        regain[rows, cols] = regains.max(axis=1)

    for start in range(0, m, step):
        reprice(np.arange(start, min(start + step, m)))
    by_size = np.argsort(sizes, kind="stable")
    sorted_sizes = sizes[by_size]
    applied = 0
    while applied < max_iters:
        room = slack + sizes  # capacity once a copy of k is dropped
        # other[k] = best insertion gain of an object no larger than room[k], -inf
        # if none is (a start above the pool); k itself may be that best, since
        # then same >= colmax[k] (dropping a copy only raises gains)
        fits = np.searchsorted(sorted_sizes, room + 1e-9, side="right")
        other = np.concatenate(([-np.inf], np.maximum.accumulate(colmax[by_size])))[fits]
        same = np.where(sizes <= room + 1e-9, regain, -np.inf)
        first = np.flatnonzero(x & (np.maximum(other, same) > loss))
        if not first.size:
            break
        i, k = divmod(int(first[0]), m)
        delta = gains - loss[i, k]
        moved = np.flatnonzero((near[:, k] == i) & (after[:, k] > curdist[:, k]))
        if moved.size:  # re-score column k exactly as reprice did for the test
            shift = _drop_prices(qs, curdist, after, hop, moved, k, [0])[1][0]
            delta[:, k] = gains[:, k] + shift - loss[i, k]
        candidate = ~x & (sizes[None, :] <= room[k] + 1e-9) & (delta > 0)
        j, k2 = divmod(int(np.flatnonzero(candidate.ravel())[0]), m)
        x[i, k] = False
        x[j, k2] = True
        slack = slack + float(sizes[k]) - float(sizes[k2])
        reprice(sorted({k, k2}))
        applied += 1
    out = Placement(x, _budgets_from_usage(x, sizes, instance.c_sum))
    return SolveResult(out, _traffic(curdist, instance), {"iterations": applied})


def solve(instance: Instance) -> SolveResult:
    """Production pipeline: greedy construction plus swap local search."""
    greedy = greedy_solve(instance)
    refined = local_search(instance, greedy.placement, 10 * instance.n * instance.m)
    diagnostics = {"greedy_cost": greedy.cost, "swaps": refined.diagnostics["iterations"]}
    return SolveResult(refined.placement, refined.cost, diagnostics)


def placement_digest(placement: Placement) -> str:
    h = hashlib.sha256()
    h.update(np.packbits(placement.x).tobytes())
    h.update(np.asarray(placement.budgets, dtype=float).tobytes())
    return h.hexdigest()
