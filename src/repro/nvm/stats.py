"""Event counters for the simulated memory hierarchy.

Every interesting event in the simulator increments a counter here; the
benchmark harness measures a phase by snapshotting the stats before and
after and taking the difference (:meth:`MemStats.delta`). Simulated time
(``sim_time_ns``) accumulates the latency model's cost for each event, so
"average request latency" in the reproduced figures is
``delta.sim_time_ns / n_requests``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable


@dataclass(slots=True)
class MemStats:
    """Counters for one :class:`~repro.nvm.memory.NVMRegion`.

    Attributes mirror the quantities the paper reports or reasons about:

    - ``cache_misses`` is the stand-in for the paper's PAPI L3 miss counter
      (Figures 2b and 6).
    - ``sim_time_ns`` is the simulated clock used for request latency
      (Figures 2a, 5, 8a and Table 3).
    - ``nvm_line_writes`` / ``nvm_bytes_written`` quantify write traffic to
      the persistent medium (the endurance argument in Section 2.1).
    """

    #: number of read accesses issued by the program
    reads: int = 0
    #: number of write accesses issued by the program
    writes: int = 0
    #: bytes read by the program
    bytes_read: int = 0
    #: bytes written by the program
    bytes_written: int = 0

    #: accesses that hit in the simulated cache
    cache_hits: int = 0
    #: accesses that missed and caused a demand line fill from NVM
    cache_misses: int = 0
    #: accesses that missed but were covered by the sequential prefetcher
    #: (next-line streams); cheap, and not counted as cache_misses — this
    #: mirrors how a prefetch-satisfied access does not appear as an L3
    #: demand miss in the paper's PAPI counters
    prefetched_fills: int = 0
    #: lines evicted to make room (clean or dirty)
    evictions: int = 0
    #: dirty lines written back to the persistent image (eviction or flush)
    writebacks: int = 0

    #: explicit ``clflush`` instructions executed
    flushes: int = 0
    #: ``clflush`` calls that actually wrote a dirty line back
    dirty_flushes: int = 0
    #: memory fences executed
    fences: int = 0

    #: cachelines written to the persistent medium
    nvm_line_writes: int = 0
    #: bytes written to the persistent medium
    nvm_bytes_written: int = 0
    #: line fills read from the persistent medium
    nvm_line_reads: int = 0

    #: simulated elapsed time in whole nanoseconds
    sim_time_ns: int = 0

    def snapshot(self) -> "MemStats":
        """Return an independent copy of the current counters."""
        return dataclasses.replace(self)

    def delta(self, earlier: "MemStats") -> "MemStats":
        """Return counters accumulated since ``earlier`` was snapshotted."""
        out = MemStats()
        for field in dataclasses.fields(MemStats):
            setattr(
                out,
                field.name,
                getattr(self, field.name) - getattr(earlier, field.name),
            )
        return out

    def merged(self, other: "MemStats") -> "MemStats":
        """Return the element-wise sum of two counter sets."""
        out = MemStats()
        for field in dataclasses.fields(MemStats):
            setattr(
                out,
                field.name,
                getattr(self, field.name) + getattr(other, field.name),
            )
        return out

    @classmethod
    def merged_all(cls, stats: "Iterable[MemStats]") -> "MemStats":
        """Element-wise sum of any number of counter sets (zeros for an
        empty iterable) — the aggregation shards and worker processes
        use instead of hand-rolled merge loops."""
        out = cls()
        for s in stats:
            out = out.merged(s)
        return out

    @property
    def accesses(self) -> int:
        """Total program-issued memory accesses."""
        return self.reads + self.writes

    @property
    def miss_ratio(self) -> float:
        """Cache miss ratio over all accesses (0.0 when idle)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_misses / total if total else 0.0

    def reset(self) -> None:
        """Zero every counter in place."""
        for field in dataclasses.fields(MemStats):
            setattr(self, field.name, 0)

    def as_dict(self) -> dict[str, int]:
        """Return counters as a plain dict (for reports and JSON dumps).

        Every counter, the simulated clock included, is an exact
        ``int``; :meth:`from_dict` round-trips them."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: "dict[str, int]") -> "MemStats":
        """Rebuild a counter set from :meth:`as_dict` output (unknown
        keys are ignored, missing ones default to zero)."""
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})
