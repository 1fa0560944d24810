"""The benchmark's workloads: each is a flat JSON sweep spec, as a
``cachenet run`` user writes it, with its cell seeds derived from the
benchmark's ``--seed``.

Every round of a run replays the same spec, so the outputs (and
``avg_hops``) of a seed do not depend on how many rounds fit in the run.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    fields: dict          # sweep spec fields other than seeds and output
    seeds_per_round: int  # distinct simulation seeds per sweep

    def spec(self, seed: int) -> dict:
        """The sweep for benchmark seed ``seed``; cell seeds are disjoint across seeds."""
        k = self.seeds_per_round
        return {**self.fields, "seeds": list(range(seed * k, seed * k + k))}

    def warmup_spec(self, seed: int) -> dict:
        """One tiny cell per scheme: the same code paths at a toy size."""
        return {**self.fields, "values": [0.1], "seeds": [seed], "nodes": 16, "objects": 40,
                "requests_per_epoch": 500, "epochs": 3, "warmup_epochs": 1}

    def cells(self) -> int:
        return len(self.fields["values"]) * len(self.fields["schemes"]) * self.seeds_per_round


WORKLOADS = {w.name: w for w in [
    # The controller loop: analytics -> optimizer (greedy + swap local
    # search) takes nearly all of each cell; serving is vectorised.  The
    # swap count, and with it a cell's cost, depends strongly on the seed's
    # topology, so a run averages many small seeds instead of few 64x200 ones.
    Workload(
        name="closed_loop",
        fields={"sweep": "cache_fraction", "values": [0.05, 0.1], "schemes": ["OPTIMIZED"],
                "nodes": 24, "objects": 80, "alpha": 0.8,
                "requests_per_epoch": 3000, "epochs": 5, "warmup_epochs": 1},
        seeds_per_round=30,
    ),
    # The per-request Python path: nearest supplier, reply-path walk and
    # Cache.insert with evictions on every miss; the optimizer is idle.
    Workload(
        name="lce_replay",
        fields={"sweep": "cache_fraction", "values": [0.05, 0.1], "schemes": ["LCE_LRU", "LCE_LFU"],
                "nodes": 64, "objects": 200, "alpha": 0.8,
                "requests_per_epoch": 20000, "epochs": 3, "warmup_epochs": 1},
        seeds_per_round=3,
    ),
    # Network set-up (topology, hop matrix, next-hop table) and the
    # vectorised pinned epoch on read-only caches; the controller is idle.
    Workload(
        name="large_static",
        fields={"sweep": "cache_fraction", "values": [0.05, 0.1], "schemes": ["RANDOM_STATIC", "NO_CACHE"],
                "nodes": 512, "objects": 800, "alpha": 0.8,
                "requests_per_epoch": 20000, "epochs": 8, "warmup_epochs": 1},
        seeds_per_round=2,
    ),
]}
