"""Joint content placement and cache-budget optimization.

Minimizes total hop-weighted traffic sum_i sum_k q[i,k] * d(i, supplier) over
unit-size objects subject to: one supplier per (node, object); suppliers must
hold the object; per-node capacity; and a conserved global budget pool of
copies. The virtual origin holds everything, so every placement admits a
feasible assignment.

Solvers: greedy marginal-gain insertion and a first-improvement swap local
search.
"""

from __future__ import annotations

import functools
import heapq
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .netmodel import Catalog, DemandMatrix, Topology

__all__ = [
    "ORIGIN",
    "Placement",
    "Instance",
    "SolveResult",
    "nearest_copy",
    "average_hops",
    "check_feasibility",
    "greedy_solve",
    "local_search",
    "solve",
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


@dataclass(eq=False)
class Placement:
    """Cache membership matrix plus per-node budgets.

    x[i, k] is True when object k is resident at router i. Budgets count
    copies and must sum to the instance's global pool.
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
    c_sum: int

    def __post_init__(self):
        if self.demand.rates.shape != (self.n, self.m):
            raise ValueError("demand shape does not match topology/catalog")
        if not (isinstance(self.c_sum, numbers.Integral) and self.c_sum >= 0):
            raise ValueError("c_sum must be a nonnegative integer: the pool counts copies")

    @property
    def n(self) -> int:
        return self.topology.node_count

    @property
    def m(self) -> int:
        return self.catalog.object_count

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Read-only w[i, k] = rates[i, k], the weight of a hop, rounded to
        multiples of ``step = 2**(e - 52)``, where ``2**e`` is the
        first power of two above ``sum(w) * max origin distance``. Hop counts
        are whole, so every cost and gain the solvers sum is a whole number of
        steps below about 2**52: exact in float64 in any order (Goldberg
        1991). Integer weights are their own grid while that total is < 2**52;
        a total that is not a finite float, which no grid fits, raises ValueError."""
        w = self.demand.rates
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
    Malformed ``x`` or ``budgets`` (not n integers: budgets count copies)
    get one message and no other.
    """
    x, budgets = np.asarray(placement.x), np.asarray(placement.budgets)
    if x.dtype != bool or x.shape != (instance.n, instance.m):
        return [f"membership must be a {instance.n}x{instance.m} boolean matrix, not {x.dtype} {x.shape}"]
    if budgets.shape != (instance.n,) or budgets.dtype.kind not in "iu":
        return [f"budgets must be {instance.n} integers, not {budgets.dtype} {budgets.shape}"]
    used = x.sum(axis=1)
    problems = [f"node {i}: {used[i]} copies exceed budget {budgets[i]}"
                for i in np.flatnonzero(used > budgets).tolist()]
    total = sum(budgets.tolist())  # Python ints: an int64 sum could wrap onto the pool
    if total != instance.c_sum:
        problems.append(f"budgets sum to {total}, pool is {instance.c_sum}")
    return problems


def _budgets_from_usage(x: np.ndarray, c_sum: int) -> np.ndarray:
    """Budgets equal to used capacity, slack parked at node 0."""
    budgets = x.sum(axis=1)
    budgets[0] += c_sum - budgets.sum()
    return budgets


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


def _greedy_entry(gain: np.ndarray, k: int) -> tuple:
    """Heap key of object k's best copy: the best gain first, then the lower
    router, the lower object."""
    j = int(gain.argmax())  # argmax keeps the lowest router
    return -float(gain[j]), j, k


def greedy_solve(instance: Instance) -> SolveResult:
    """Greedy: add the copy with the best gain, ties to the lower router,
    then the lower object, until the pool's c_sum copies are placed or no
    copy gains.

    A heap holds each object's best copy. A copy changes only its object's
    distances, so a pick rescores only that object's entry and every other
    entry stays exact."""
    n, m = instance.n, instance.m
    hop = instance.topology.hop_matrix.astype(float)
    dorg = instance.topology.origin_distances.astype(float)
    wt = instance.weights.T
    x = np.zeros((n, m), dtype=bool)
    curdist = np.tile(dorg, (m, 1))  # curdist[k]: object-major, so a pick updates one row
    saved = np.empty((1, n, n))
    first = wt @ np.maximum(dorg[:, None] - hop, 0.0)  # every object starts from the origin's distances
    heap = [_greedy_entry(first[k], k) for k in range(m)]
    heapq.heapify(heap)
    for _ in range(instance.c_sum):
        neg_gain, j, k = heap[0]
        if neg_gain >= 0:
            break
        x[j, k] = True
        np.minimum(curdist[k], hop[j], out=curdist[k])  # hop is symmetric
        # a holder's gain is exactly 0, so it is the best copy only when no
        # copy gains, and then the entry is never picked: no mask needed
        gain = _gains(wt[k, None, None], curdist[k, None, :, None], hop, saved)[0, 0]
        heapq.heapreplace(heap, _greedy_entry(gain, k))
    out = Placement(x, _budgets_from_usage(x, instance.c_sum))
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
    copy. A swap keeps the number of copies, so a start above the pool makes
    none.

    Scans residents in (node, object) order and applies the first improving
    swap, restarting until no swap improves or ``max_iters`` swaps applied.

    Dropping the copy at i moves only the requesters whose one nearest copy
    is i, to their runner-up, so every resident's loss and best same-object
    re-insertion gain follow from per-object state, and a whole pass is one
    masked comparison of every resident's loss against the best insertion
    gain. A swap reprices only its two objects.
    """
    n, m = instance.n, instance.m
    hop = instance.topology.hop_matrix.astype(float)
    dorg = instance.topology.origin_distances.astype(float)
    qs = instance.weights
    x = placement.x.copy()
    if x.sum() > instance.c_sum:
        max_iters = 0
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
    applied = 0
    while applied < max_iters:
        # a resident's best swap gains max(best insertion gain, its own re-insertion
        # gain); colmax[k] may be that best, since regain[:, k] >= colmax[k] (dropping
        # a copy only raises gains)
        first = np.flatnonzero(x & (np.maximum(colmax.max(), regain) > loss))
        if not first.size:
            break
        i, k = divmod(int(first[0]), m)
        delta = gains - loss[i, k]
        moved = np.flatnonzero((near[:, k] == i) & (after[:, k] > curdist[:, k]))
        if moved.size:  # re-score column k exactly as reprice did for the test
            shift = _drop_prices(qs, curdist, after, hop, moved, k, [0])[1][0]
            delta[:, k] = gains[:, k] + shift - loss[i, k]
        j, k2 = divmod(int(np.flatnonzero((~x & (delta > 0)).ravel())[0]), m)
        x[i, k] = False
        x[j, k2] = True
        reprice(sorted({k, k2}))
        applied += 1
    out = Placement(x, _budgets_from_usage(x, instance.c_sum))
    return SolveResult(out, _traffic(curdist, instance), {"iterations": applied})


def solve(instance: Instance) -> SolveResult:
    """Production pipeline: greedy construction plus swap local search."""
    greedy = greedy_solve(instance)
    refined = local_search(instance, greedy.placement, 10 * instance.n * instance.m)
    diagnostics = {"greedy_cost": greedy.cost, "swaps": refined.diagnostics["iterations"]}
    return SolveResult(refined.placement, refined.cost, diagnostics)

