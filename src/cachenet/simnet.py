"""Request-driven simulation of the caching switch fabric.

Requests fetch from the nearest copy over shortest paths, and a telemetry
log records per (node, object) request counts, hits, and served hops. An
installed placement (OPTIMIZED, RANDOM_STATIC, NO_CACHE) is served from one
record of its copies and their nearest-copy distances. The
leave-copy-everywhere schemes keep an LRU or LFU cache per router and insert
the fetched object at every router on the reply path.
"""

from __future__ import annotations

import functools
import heapq
import math
import numbers
import sys
from collections import OrderedDict
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from . import analytics
from .netmodel import (
    Catalog,
    InvalidParameterError,
    Topology,
    bfs_next_hop,
    build_demand,
    generate_power_law_topology,
    shortest_path,
    zipf_popularity,
)
from .optimizer import (
    ORIGIN,
    Instance,
    Placement,
    check_feasibility,
    nearest_copy,
)

__all__ = [
    "Policy",
    "Scheme",
    "SimConfig",
    "Cache",
    "TelemetryLog",
    "NetworkState",
    "EpochMetrics",
    "MetricsReport",
    "handle_request",
    "apply_placement",
    "deterministic_epoch",
    "run_epoch",
    "seed_streams",
    "build_instance",
    "run_simulation",
]


class Policy(Enum):
    LRU = "lru"
    LFU = "lfu"


class Scheme(Enum):
    OPTIMIZED = "OPTIMIZED"
    LCE_LRU = "LCE_LRU"
    LCE_LFU = "LCE_LFU"
    RANDOM_STATIC = "RANDOM_STATIC"
    NO_CACHE = "NO_CACHE"


# A cell's largest arrays grow with three products of its parameters; this is
# roughly their peak size per entry, in bytes (README, "Cell size"):
# - nodes^2: the int hop matrix, the LCE next-hop table and its per-router
#   key lists of Python ints (about 36 each), or the solver's float copy and
#   its gain buffer;
# - nodes x objects: the three telemetry counters, the demand estimate, the
#   solver's working arrays and the object draw's table (under 80 bytes per
#   object, built once per cell);
# - requests_per_epoch: the requester and object draws and what serving
#   derives from them, Python lists on the LCE path.
CELL_TERMS = (("nodes", "router pairs", 64), ("nodes x objects", "(router, object) pairs", 128),
              ("requests_per_epoch", "requests per epoch", 128))
CELL_BYTES_BOUND = 4 << 30  # a cell estimated above this many bytes is rejected
M_ATTACH = 2  # edges each new router attaches in the power-law topology (Barabasi & Albert 1999)


def is_number(value, kind) -> bool:
    """``value`` is an instance of the ``numbers`` ABC ``kind`` and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def brief(value) -> str:
    """``value``'s repr for a message, or its length and type when the repr runs past 40 characters
    (a container's in items). An int's digits are counted from its bit length: Python refuses str()
    past 4,300 digits, so a container holding such an int is named by its items whatever its repr."""
    if is_number(value, numbers.Integral):
        size = abs(int(value))
        # 2**(b - 1) <= size < 2**b for b bits: size has the digits of 2**(b - 1), or one more
        digits = int((size.bit_length() - 1) * math.log10(2)) + 1 if size else 1
        digits += size >= 10 ** digits
        return repr(value) if digits + (value < 0) <= 40 else f"a {digits}-digit {type(value).__name__}"
    try:
        text = repr(value)
    except (ValueError, RecursionError):  # an int past str()'s digit limit inside, or nesting past the stack
        text = None
    if text is not None and len(text) <= 40:
        return text
    if isinstance(value, (list, tuple, dict, set)):
        return f"a {len(value)}-item {type(value).__name__}"
    return f"a {len(text.lstrip('-'))}-character {type(value).__name__}"


@dataclass
class SimConfig:
    scheme: Scheme
    nodes: int = 64
    objects: int = 200
    alpha: float = 0.8
    cache_fraction: float = 0.05
    requests_per_epoch: int = 10_000
    epochs: int = 12
    warmup_epochs: int = 2
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.scheme, str):
            self.scheme = Scheme(self.scheme)
        for f in fields(self):  # types first, so the checks below compare numbers; ints but the seed fit int64
            value = getattr(self, f.name)
            if f.type == "int" and not (is_number(value, numbers.Integral) and (f.name == "seed" or abs(value) < 2**63)):
                raise InvalidParameterError(f"{f.name} must be a 64-bit integer, got {brief(value)}")
            if f.type == "float" and not (is_number(value, numbers.Real) and abs(value) <= sys.float_info.max):
                raise InvalidParameterError(f"{f.name} must be a finite float, got {brief(value)}")
        if self.nodes <= M_ATTACH:
            raise InvalidParameterError(f"nodes must be >= {M_ATTACH + 1}")
        if self.objects < 1:
            raise InvalidParameterError("objects must be >= 1")
        if self.alpha < 0:
            raise InvalidParameterError("alpha must be nonnegative")
        if self.requests_per_epoch < 1:
            raise InvalidParameterError("requests_per_epoch must be positive")
        if self.epochs < 1:
            raise InvalidParameterError("epochs must be positive")
        # no request travels further than nodes - 1 hops plus the origin penalty; below 2**53
        # every hop count and sum the cell records is exact in int64 and float64
        hop_total = (self.nodes - 1 + Topology.origin_penalty) * self.requests_per_epoch * self.epochs
        if hop_total > 2**53:
            raise InvalidParameterError(f"hop total: (nodes - 1 + {Topology.origin_penalty}) x requests_per_epoch "
                                        f"x epochs is {hop_total:.3g}, above 2**53, where hop sums stop being exact")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise InvalidParameterError("warmup_epochs must be < epochs")
        if not 0 < self.cache_fraction <= 1:
            raise InvalidParameterError("cache_fraction must be in (0, 1]")
        if self.scheme is not Scheme.NO_CACHE and self.cache_fraction * self.objects < 1:
            raise InvalidParameterError("cache_fraction * objects must be >= 1 unless NO_CACHE")
        if self.seed < 0:
            raise InvalidParameterError("seed must be nonnegative")
        counts = (self.nodes ** 2, self.nodes * self.objects, self.requests_per_epoch)
        need = [count * per for count, (*_, per) in zip(counts, CELL_TERMS)]
        if sum(need) > CELL_BYTES_BOUND:
            worst = max(range(len(need)), key=need.__getitem__)
            field, what, _ = CELL_TERMS[worst]
            raise InvalidParameterError(
                f"{field}: the cell's arrays need about {sum(need) / 2**30:.3g} GiB, above the "
                f"{CELL_BYTES_BOUND / 2**30:g} GiB a cell may use; its {counts[worst]:.3g} {what} "
                f"take {need[worst] / 2**30:.3g} GiB")

    @property
    def slots_per_node(self) -> int:
        """Per-router cache size in objects: the configured fraction of the catalog."""
        if self.scheme is Scheme.NO_CACHE:
            return 0
        return int(round(self.cache_fraction * self.objects))

    @property
    def c_sum(self) -> int:
        return self.slots_per_node * self.nodes


class Cache:
    """Single-router LCE cache of ``capacity`` slots, a whole number, one
    object each.

    LFU evicts the lowest count, ties to the lowest object id. Its heap holds
    one (count, object) entry per resident; a hit raises only the count in
    ``_items``, so an entry's count is at most its object's, and a top entry
    whose count is current is the minimum.
    """

    def __init__(self, capacity: int, policy: Policy):
        self.capacity = capacity
        self.policy = policy
        # residents in recency order for LRU (OrderedDict), key -> count for LFU
        self._items: OrderedDict = OrderedDict()
        self._heap: list = []

    def __contains__(self, obj: int) -> bool:
        return obj in self._items

    def residents(self) -> list:
        return list(self._items)

    def touch(self, obj: int) -> None:
        """Record an access to a resident object (hit bookkeeping)."""
        if self.policy is Policy.LRU:
            self._items.move_to_end(obj)
        else:
            self._items[obj] += 1

    def insert(self, obj: int) -> list:
        """Insert ``obj``, evicting one resident per policy when every slot is
        taken; returns the evicted objects. A cache without slots admits
        nothing."""
        items = self._items
        if obj in items or self.capacity <= 0:
            return []
        evicted = []
        if self.policy is Policy.LRU:
            if len(items) >= self.capacity:
                evicted.append(items.popitem(last=False)[0])
            items[obj] = None
        else:
            heap = self._heap
            if len(items) >= self.capacity:
                count, victim = heap[0]
                while count < items[victim]:  # lags its hits: re-key it and look again
                    heapq.heapreplace(heap, (items[victim], victim))
                    count, victim = heap[0]
                heapq.heappop(heap)
                del items[victim]
                evicted.append(victim)
            items[obj] = 1
            heapq.heappush(heap, (1, obj))
        return evicted


@dataclass(eq=False)
class TelemetryLog:
    """Per (node, object) counters gathered by the switch monitors."""

    request_count: np.ndarray
    hit_count: np.ndarray
    hops_accumulated: np.ndarray

    @classmethod
    def empty(cls, n: int, m: int) -> "TelemetryLog":
        return cls(np.zeros((n, m), dtype=np.int64),
                   np.zeros((n, m), dtype=np.int64),
                   np.zeros((n, m), dtype=np.int64))

    @property
    def total_requests(self) -> int:
        return int(self.request_count.sum())


class _ReplyStops(dict):
    """(requester, supplier) -> the routers that admit a reply, filled on first
    use: the shortest path without a router supplier, which already holds the
    object, or the whole path to the origin's attachment router."""

    def __init__(self, next_hop: np.ndarray, origin_attach: int):
        super().__init__()
        self.next_hop, self.origin_attach = next_hop, origin_attach

    def __missing__(self, key: tuple) -> tuple:
        node, supplier = key
        path = shortest_path(self.next_hop, node, self.origin_attach if supplier == ORIGIN else supplier)
        self[key] = stops = tuple(path if supplier == ORIGIN else path[:-1])
        return stops


class NetworkState:
    """Mutable simulation state: telemetry, the cell's object draw
    ``draw_objects``, and how requests are served.

    ``NetworkState(instance)`` serves the placement that ``apply_placement``
    installs: ``placement`` and its nearest-copy distances ``placement_dist``
    are the only record of residency. ``NetworkState(instance, capacities,
    policy)`` is a leave-copy-everywhere state with one LRU or LFU cache per
    router, a holder index per object, and the ``_ReplyStops`` memo over
    the next-hop table.
    """

    def __init__(self, instance: Instance, capacities=None, policy: Policy | None = None):
        self.instance = instance
        n, m = instance.n, instance.m
        self.telemetry = TelemetryLog.empty(n, m)
        # the cell's _ObjectDraw, built by its first run_epoch; a plain attribute, as
        # functools.cached_property would materialise __dict__ and slow the LCE
        # path's attribute reads
        self.draw_objects = None
        self.placement = None
        self.placement_dist = None
        if policy is None:
            return
        self.caches = [Cache(capacities[i], policy) for i in range(n)]
        self.holders = [set() for _ in range(m)]
        # python-native copies for the per-request fast path; _key[i][j] =
        # hop(i, j) * n + j orders routers by distance, then by index
        self._key = (instance.topology.hop_matrix * n + np.arange(n)).tolist()
        self._dorg = [int(d) for d in instance.topology.origin_distances]
        self.reply_stops = _ReplyStops(bfs_next_hop(instance.topology.hop_matrix), instance.topology.origin_attach)


def apply_placement(state: NetworkState, placement: Placement) -> None:
    """Install a placement in place of the previous one; keep telemetry.

    The one feasibility check of every placement that serves: an infeasible
    one raises and installs nothing."""
    problems = check_feasibility(placement, state.instance)
    if problems:
        raise InvalidParameterError("infeasible placement: " + "; ".join(problems))
    state.placement = placement.copy()
    state.placement_dist = nearest_copy(placement.x, state.instance)


def _nearest_supplier(state: NetworkState, node: int, obj: int):
    """(supplier, hops) for a fetch; ties prefer routers, then low indexes."""
    d_origin = state._dorg[node]
    holders = state.holders[obj]
    if holders:
        d, j = divmod(min(map(state._key[node].__getitem__, holders)), state.instance.n)
        if d <= d_origin:
            return j, d
    return ORIGIN, d_origin


def handle_request(state: NetworkState, node: int, obj: int) -> int:
    """Serve one request on an LCE state; returns hops traversed (0 on a local hit).

    A miss inserts the object at every router on the reply path, evicting
    per the cache policy. Serves only: ``run_epoch`` records the telemetry.
    """
    cache = state.caches[node]
    if obj in cache._items:
        cache.touch(obj)
        return 0
    supplier, hops = _nearest_supplier(state, node, obj)
    caches, holders = state.caches, state.holders
    # no stop holds obj (the supplier is the nearest copy), so a stop admits it
    # exactly when it has a slot
    for stop in state.reply_stops[node, supplier]:
        cache = caches[stop]
        for victim in cache.insert(obj):
            holders[victim].discard(stop)
        if cache.capacity > 0:
            holders[obj].add(stop)
    return hops


@dataclass
class EpochMetrics:
    avg_hops: float
    hit_ratio: float
    requests: int


def _record(state: NetworkState, cells, hops, hits) -> EpochMetrics:
    """Add an epoch's requests, hops served and local hits to the telemetry log,
    its only writer; returns the epoch's unweighted metrics. ``cells`` are flat
    (router, object) indices, ``router * m + object``: a 1-D index is add.at's
    fast path, about 5x quicker than a (routers, objects) tuple."""
    hops = np.asarray(hops, dtype=np.int64)
    hits = np.asarray(hits, dtype=bool)
    tele = state.telemetry  # C-contiguous counters (TelemetryLog.empty): reshape(-1) is a view
    np.add.at(tele.request_count.reshape(-1), cells, 1)
    np.add.at(tele.hit_count.reshape(-1), cells[hits], 1)  # a bool operand makes add.at ~10x slower
    np.add.at(tele.hops_accumulated.reshape(-1), cells, hops)
    total = len(cells)
    return EpochMetrics(float(hops.sum()) / total, float(hits.sum()) / total, total)


def deterministic_epoch(state: NetworkState) -> EpochMetrics:
    """Request every (node, object) pair once from the installed placement and
    return the average hops weighted by the optimizer's ``Instance.weights``,
    so they equal the optimizer objective exactly, and the hit ratio weighted
    by request rate."""
    if state.placement is None:
        raise InvalidParameterError("a deterministic epoch serves an installed placement, not LCE")
    inst = state.instance
    x, dist = state.placement.x, state.placement_dist
    _record(state, np.arange(x.size), dist.ravel(), x.ravel())
    w, q = inst.weights, inst.demand.rates
    return EpochMetrics(float((w * dist).sum() / w.sum()), float(q[x].sum() / q.sum()), inst.n * inst.m)


class _ObjectDraw:
    """A cell's object draw, built once: called with ``(rng, size)``, it returns
    ``rng.choice(len(popularity), size, p=popularity)`` draw for draw and
    leaves ``rng`` in the same state, from the same cdf and uniforms looked
    up through a guide table (Chen & Asau 1974; Devroye 1986, III.2).

    With ``g`` buckets, at most 8 per object, ``first[b]`` counts the cdf
    values <= b/g, and ``cdf[first[b]]`` is the smallest one above b/g (a
    ``+inf`` sentinel ends the cdf). A uniform ``u`` in bucket
    ``b = floor(u * g)`` draws the number of cdf values <= u: that is
    ``first[b] + (cdf[first[b]] <= u)`` unless the bucket holds two or more
    cdf values (in an empty bucket, ``cdf[first[b]]`` lies above it and the
    comparison is false); only draws in those ``busy`` buckets are
    binary-searched, and ``busy`` is None when there are none."""

    def __init__(self, popularity: np.ndarray):
        cdf = np.cumsum(popularity, dtype=float)
        cdf /= cdf[-1]
        self.g = g = 1 << (4 * len(cdf) - 1).bit_length()  # a power of two: u * g and b / g are exact
        ends = np.bincount(np.ceil(cdf * g).astype(np.intp), minlength=g + 1)  # c <= b/g iff ceil(c * g) <= b
        np.cumsum(ends, out=ends)
        self.first = ends[:-1]
        busy = np.diff(ends) > 1
        self.busy = busy if busy.any() else None  # None at alpha 0.8 with up to 800 objects
        self.cdf = np.append(cdf, np.inf)

    def __call__(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        b = (u * self.g).astype(np.intp)
        objects = self.first[b]
        objects += self.cdf[objects] <= u
        if self.busy is not None:
            busy = np.flatnonzero(self.busy[b])
            objects[busy] = self.cdf.searchsorted(u[busy], side="right")
        return objects


def run_epoch(config: SimConfig, state: NetworkState, rng: np.random.Generator) -> EpochMetrics:
    """Process one epoch of requests and return its metrics: requesters are
    drawn uniformly and objects from the catalog popularity."""
    inst = state.instance
    requesters = rng.integers(0, inst.n, size=config.requests_per_epoch)
    if state.draw_objects is None:
        state.draw_objects = _ObjectDraw(inst.catalog.popularity)
    objects = state.draw_objects(rng, config.requests_per_epoch)
    cells = requesters * inst.m + objects
    if state.placement is not None:  # an installed placement is read-only: vectorise
        return _record(state, cells, state.placement_dist.ravel()[cells], state.placement.x.ravel()[cells])
    hops, hits = [], []
    residents = [cache._items for cache in state.caches]
    for node, obj in zip(requesters.tolist(), objects.tolist()):
        hits.append(obj in residents[node])  # residency before serving: a 0-hop miss is a miss
        hops.append(handle_request(state, node, obj))
    return _record(state, cells, hops, hits)


@dataclass(eq=False)
class MetricsReport:
    epoch_metrics: list
    avg_hops: float
    hit_ratio: float
    total_requests: int
    telemetry: TelemetryLog


def seed_streams(config: SimConfig) -> tuple:
    """A cell's (topology seed, request stream, random-placement stream), from ``config.seed``."""
    topo_ss, req_ss, place_ss = np.random.SeedSequence(config.seed).spawn(3)
    return int(topo_ss.generate_state(1)[0]), req_ss, place_ss


@functools.lru_cache(maxsize=1)
def _topology(nodes: int, seed: int):
    """The seeded topology, kept for the next cell: consecutive cells of one
    seed share one build. Its hop matrix is read-only, so no cell can change
    what the next one gets."""
    topology = generate_power_law_topology(nodes, M_ATTACH, seed)
    topology.hop_matrix.setflags(write=False)
    return topology


def build_instance(config: SimConfig) -> Instance:
    """The cell's true instance: its seeded topology, catalog and uniform demand."""
    topology = _topology(config.nodes, seed_streams(config)[0])
    catalog = Catalog(zipf_popularity(config.objects, config.alpha))
    return Instance(topology, catalog, build_demand(topology, catalog), config.c_sum)


def _initial_state(config: SimConfig, instance: Instance, place_rng: np.random.Generator) -> NetworkState:
    n, m = instance.n, instance.m
    slots = config.slots_per_node
    if config.scheme in (Scheme.LCE_LRU, Scheme.LCE_LFU):
        policy = Policy.LRU if config.scheme is Scheme.LCE_LRU else Policy.LFU
        return NetworkState(instance, [slots] * n, policy)
    # NO_CACHE has zero slots; OPTIMIZED warms up on an empty placement with equal budgets
    x = np.zeros((n, m), dtype=bool)
    if config.scheme is Scheme.RANDOM_STATIC:
        for i in range(n):
            x[i, place_rng.choice(m, size=slots, replace=False)] = True
    state = NetworkState(instance)
    apply_placement(state, Placement(x, np.full(n, slots)))
    return state


def run_simulation(config: SimConfig) -> MetricsReport:
    """Full run: build the instance, warm up, then measure.

    The OPTIMIZED scheme closes the control loop: after each epoch the
    controller re-estimates demand from the cumulative telemetry and
    installs a fresh placement for the next epoch.
    """
    _, req_ss, place_ss = seed_streams(config)
    instance = build_instance(config)
    req_rng = np.random.default_rng(req_ss)
    state = _initial_state(config, instance, np.random.default_rng(place_ss))

    epoch_metrics = []
    for epoch in range(config.epochs):
        epoch_metrics.append(run_epoch(config, state, req_rng))
        if config.scheme is Scheme.OPTIMIZED and epoch < config.epochs - 1:
            decision = analytics.controller_epoch(state.telemetry, instance)
            apply_placement(state, decision.placement)

    measured = epoch_metrics[config.warmup_epochs:]
    total = sum(m.requests for m in measured)
    hops = sum(m.avg_hops * m.requests for m in measured)
    hits = sum(m.hit_ratio * m.requests for m in measured)
    return MetricsReport(epoch_metrics, hops / total, hits / total, total, state.telemetry)

