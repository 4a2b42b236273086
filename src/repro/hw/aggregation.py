"""Cycle-approximate simulator of SPLATONIC's aggregation unit (Fig. 16).

The unit batches the partial-gradient lists of ``channels`` pixels, merges
same-Gaussian tuples on-chip (merge unit), tracks in-flight Gaussians in a
scoreboard, and accumulates against a Gaussian cache backed by DRAM.  The
point of the design is to *hide* the off-chip latency of reloading
partially-accumulated gradients: while a batch's misses are in flight, the
accumulation unit keeps updating Gaussians whose state is already cached.

``simulate`` replays an actual per-pixel contributing-Gaussian ID stream
(recorded by the backward passes) through an LRU-cache + scoreboard model
and reports cycles, stalls, and DRAM traffic.  A ``naive`` mode models the
ablation without the unit: every tuple is an uncached read-modify-write.
``scaled_cost`` is what the accelerator models charge for a backward pass:
the replayed cost of its recorded ID stream, scaled to its atomic adds.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..obs import trace

__all__ = ["AggregationConfig", "AggregationTrace", "AggregationUnit"]

# Accumulated-gradient record per Gaussian resident in the cache.
CACHE_ENTRY_BYTES = 32
SCOREBOARD_ENTRY_BYTES = 16


@dataclass(frozen=True)
class AggregationConfig:
    """Microarchitectural parameters (defaults from Sec. VI)."""

    channels: int = 4              # pixels' gradient lists merged per batch
    gaussian_cache_bytes: int = 32 * 1024
    scoreboard_bytes: int = 8 * 1024
    dram_latency_cycles: int = 96  # load-to-use for a missed Gaussian
    dram_bytes_per_cycle: float = 51.2   # 4ch LPDDR3-1600 at 500 MHz
    merge_tuples_per_cycle: int = 4
    accum_gaussians_per_cycle: int = 1

    @property
    def cache_entries(self) -> int:
        return self.gaussian_cache_bytes // CACHE_ENTRY_BYTES

    @property
    def scoreboard_entries(self) -> int:
        return self.scoreboard_bytes // SCOREBOARD_ENTRY_BYTES


@dataclass
class AggregationTrace:
    """Outcome of replaying a gradient stream through the unit."""

    cycles: float
    stall_cycles: float
    tuples: int
    unique_accumulations: int
    cache_misses: int
    cache_hits: int
    dram_bytes: float

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 1.0

    @property
    def cycles_per_tuple(self) -> float:
        return self.cycles / self.tuples if self.tuples else 0.0


class AggregationUnit:
    """Replay-based model of the scoreboard aggregation unit."""

    def __init__(self, config: AggregationConfig = AggregationConfig()):
        self.config = config

    def simulate(self, pixel_gaussian_ids: Sequence[np.ndarray]) -> AggregationTrace:
        """Process per-pixel contributing-Gaussian ID lists, in order."""
        with trace.span("hw.aggregation.simulate",
                        pixels=len(pixel_gaussian_ids)):
            return self._simulate(pixel_gaussian_ids)

    def _simulate(self, pixel_gaussian_ids: Sequence[np.ndarray]) -> AggregationTrace:
        cfg = self.config
        cache: "OrderedDict[int, bool]" = OrderedDict()
        cycles = 0.0
        stalls = 0.0
        tuples = 0
        uniques = 0
        misses = 0
        hits = 0
        dram_bytes = 0.0

        lists = [np.asarray(p, dtype=int) for p in pixel_gaussian_ids]
        for start in range(0, len(lists), cfg.channels):
            batch = lists[start:start + cfg.channels]
            ids = np.concatenate(batch) if batch else np.zeros(0, dtype=int)
            if ids.size == 0:
                continue
            tuples += ids.size
            unique = np.unique(ids)
            uniques += unique.size

            batch_misses = 0
            for g in unique:
                key = int(g)
                if key in cache:
                    cache.move_to_end(key)
                    hits += 1
                else:
                    misses += 1
                    batch_misses += 1
                    cache[key] = True
                    if len(cache) > cfg.cache_entries:
                        cache.popitem(last=False)
                        # Evicted partial accumulation spills to DRAM.
                        dram_bytes += CACHE_ENTRY_BYTES
            dram_bytes += batch_misses * CACHE_ENTRY_BYTES

            merge_cycles = ids.size / cfg.merge_tuples_per_cycle
            accum_cycles = unique.size / cfg.accum_gaussians_per_cycle
            fetch_cycles = batch_misses * CACHE_ENTRY_BYTES / cfg.dram_bytes_per_cycle
            busy = max(merge_cycles, accum_cycles, fetch_cycles)

            # Latency is hidden as long as the scoreboard can park the
            # batch's Gaussians while their state streams in; overflow
            # exposes a full DRAM round trip.
            if unique.size > cfg.scoreboard_entries:
                overflow = unique.size / cfg.scoreboard_entries
                stall = cfg.dram_latency_cycles * overflow
            elif busy < cfg.dram_latency_cycles and batch_misses > 0:
                # Small batch with misses: part of the latency peeks out.
                stall = (cfg.dram_latency_cycles - busy) * min(
                    1.0, batch_misses / max(unique.size, 1))
            else:
                stall = 0.0
            cycles += busy + stall
            stalls += stall

        # Final write-back of everything still resident.
        dram_bytes += len(cache) * CACHE_ENTRY_BYTES
        return AggregationTrace(
            cycles=cycles,
            stall_cycles=stalls,
            tuples=tuples,
            unique_accumulations=uniques,
            cache_misses=misses,
            cache_hits=hits,
            dram_bytes=dram_bytes,
        )

    def scaled_cost(self, bwd, scoreboard: bool = True
                    ) -> Tuple[float, float]:
        """``(cycles, dram_bytes)`` of aggregating one backward pass.

        The pass's recorded contributing-Gaussian ID stream
        (``bwd.pixel_contrib_ids``, a proxy) is replayed through
        :meth:`simulate`, or :meth:`simulate_naive` when ``scoreboard`` is
        False, and the result scaled to the pass's ``num_atomic_adds``
        tuples.  A pass with no recorded tuple costs nothing.
        """
        ids = bwd.pixel_contrib_ids
        proxy_tuples = int(sum(len(p) for p in ids))
        if proxy_tuples == 0:
            return 0.0, 0.0
        replay = self.simulate(ids) if scoreboard else self.simulate_naive(ids)
        scale = bwd.num_atomic_adds / proxy_tuples
        return replay.cycles * scale, replay.dram_bytes * scale

    def simulate_naive(self, pixel_gaussian_ids: Sequence[np.ndarray],
                       max_outstanding: int = 4) -> AggregationTrace:
        """Ablation: no merge/scoreboard — every tuple is an off-chip RMW."""
        cfg = self.config
        lists = [np.asarray(p, dtype=int) for p in pixel_gaussian_ids]
        tuples = int(sum(p.size for p in lists))
        # Each tuple reads and writes its Gaussian's accumulator; latency
        # overlaps only across `max_outstanding` requests.
        cycles = tuples * cfg.dram_latency_cycles / max_outstanding
        dram = tuples * CACHE_ENTRY_BYTES * 2
        cycles = max(cycles, dram / cfg.dram_bytes_per_cycle)
        return AggregationTrace(
            cycles=cycles,
            stall_cycles=cycles,
            tuples=tuples,
            unique_accumulations=tuples,
            cache_misses=tuples,
            cache_hits=0,
            dram_bytes=dram,
        )
