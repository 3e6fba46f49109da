"""Set-associative CPU cache simulator.

This stands in for the paper's real L1/L2/L3 hierarchy and its PAPI
L3-miss counters. One simulated level is enough: every effect the paper
measures — ``clflush`` invalidation forcing re-misses (Figures 2b, 6) and
contiguous probe sequences hitting in already-fetched lines (the group
sharing argument) — is a property of *line residency*, which a single
set-associative LRU level models exactly.

The simulator works on **line indices** (byte address // line size); the
owning :class:`~repro.nvm.memory.NVMRegion` does the address arithmetic
and charges latency costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of the simulated cache.

    The default is a scaled-down stand-in for the paper's 15 MB L3: the
    benchmark harness sizes the cache relative to the hash table so the
    cache:table ratio matches the paper's (table ≫ cache), which is what
    produces capacity misses on random probes.
    """

    #: total capacity in bytes
    size_bytes: int = 2 * 1024 * 1024
    #: cacheline size in bytes (64 on every x86 the paper considers)
    line_size: int = 64
    #: ways per set
    associativity: int = 8

    @property
    def n_lines(self) -> int:
        """Total number of lines the cache can hold."""
        return self.size_bytes // self.line_size

    @property
    def n_sets(self) -> int:
        """Number of sets (capacity / (line * ways))."""
        return max(1, self.n_lines // self.associativity)

    def __post_init__(self) -> None:
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ValueError(f"line_size must be a power of two, got {self.line_size}")
        if self.associativity <= 0:
            raise ValueError("associativity must be positive")
        if self.size_bytes < self.line_size * self.associativity:
            raise ValueError(
                "cache must hold at least one full set "
                f"({self.line_size * self.associativity} bytes)"
            )


class CacheSim:
    """LRU set-associative cache over line indices.

    Each set is a ``dict`` mapping line index -> dirty flag; Python dicts
    preserve insertion order, so the first key is always the LRU victim
    and a touch is delete + reinsert. This keeps the per-access cost to a
    few dict operations, which matters because every simulated memory
    access funnels through here.
    """

    __slots__ = ("config", "_n_sets", "_assoc", "_long_run", "_sets")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._n_sets = config.n_sets
        self._assoc = config.associativity
        #: runs at least this long enter a set at a time (see enter_run)
        self._long_run = 2 * self._n_sets * self._assoc
        self._sets: list[dict[int, bool]] = [{} for _ in range(self._n_sets)]

    def access(
        self, line: int, *, is_write: bool
    ) -> tuple[bool, tuple[int, bool] | None]:
        """Touch ``line``; return ``(hit, evicted)``.

        ``evicted`` is ``(victim_line, victim_was_dirty)`` when the fill
        displaced a resident line, else ``None``. The caller is
        responsible for writing back a dirty victim to the persistent
        image (that is how eviction-time persistence happens).
        """
        bucket = self._sets[line % self._n_sets]
        dirty = bucket.pop(line, None)
        if dirty is not None:
            bucket[line] = dirty or is_write
            return True, None
        evicted: tuple[int, bool] | None = None
        if len(bucket) >= self._assoc:
            victim = next(iter(bucket))
            evicted = (victim, bucket.pop(victim))
        bucket[line] = is_write
        return False, evicted

    def enter_run(self, first: int, end: int) -> tuple[int, bool, int, list[int]]:
        """Read-touch lines ``first .. end - 1`` in order; return
        ``(fills, head_filled, evictions, dirty_victims)``.

        The contract is a loop of ``access(line, is_write=False)`` over
        the run: every set ends in the same LRU order with the same dirty
        flags, and the loop's per-line results come back summed — the
        fills, whether ``first`` itself was a fill, the evictions, and
        the dirty victims in eviction order (the caller writes them
        back).

        A run shorter than twice the cache's line capacity goes through
        that loop. A longer one goes a set at a time, which costs
        O(sets × ways) instead of O(lines): set ``s`` receives the run's
        lines ``first + (s - first) % n_sets`` onwards, ``n_sets`` apart,
        and at least ``2 * assoc`` of them. If none of its resident
        lines lies inside the run, each of the set's run lines is a
        fill, they evict the ``b`` resident lines in LRU order (resident
        line ``j`` by the set's run line ``assoc - b + j``) and then each
        other, and the set ends holding its last ``assoc`` run lines,
        clean. A set with a resident line inside the run takes the
        loop's step on its own lines. Dirty victims are sorted by the
        line that evicted them, which is the loop's order, since each
        line evicts at most one victim."""
        sets = self._sets
        n_sets = self._n_sets
        assoc = self._assoc
        head_filled = first < end and first not in sets[first % n_sets]
        dirty: list[tuple[int, int]] = []
        if end - first < self._long_run:
            fills, _, evictions = self._enter_lines(range(first, end), dirty)
            if dirty:
                dirty = [victim for _, victim in dirty]
            return fills, head_filled, evictions, dirty
        fills = evictions = 0
        for start in range(first, first + n_sets):
            index = start % n_sets
            bucket = sets[index]
            lines = range(start, end, n_sets)
            if bucket:
                # a resident line is in the run exactly when it is in lines
                if any(map(lines.__contains__, bucket)):
                    set_fills, _, set_evictions = self._enter_lines(lines, dirty)
                    fills += set_fills
                    evictions += set_evictions
                    continue
                if True in bucket.values():
                    evictor = start + (assoc - len(bucket)) * n_sets
                    for victim, was_dirty in bucket.items():
                        if was_dirty:
                            dirty.append((evictor, victim))
                        evictor += n_sets
            fills += len(lines)
            evictions += len(lines) + len(bucket) - assoc
            sets[index] = dict.fromkeys(lines[-assoc:], False)
        dirty.sort()
        return fills, head_filled, evictions, [victim for _, victim in dirty]

    def _enter_lines(
        self,
        lines,
        dirty: list[tuple[int, int]],
        write: bool = False,
        prev: int | None = None,
    ) -> tuple[int, int, int]:
        """The step of ``access(line, is_write=write)`` for each of
        ``lines`` in order; returns ``(fills, prefetched, evictions)`` and
        appends ``(evicting_line, victim)`` to ``dirty`` per dirty victim.
        A fill is prefetch-covered when it follows the line entered just
        before it (``prev`` before the first)."""
        sets = self._sets
        n_sets = self._n_sets
        assoc = self._assoc
        fills = prefetched = evictions = 0
        for line in lines:
            bucket = sets[line % n_sets]
            flag = bucket.pop(line, None)
            if flag is not None:
                bucket[line] = flag or write
                prev = line
                continue
            fills += 1
            if line - 1 == prev:
                prefetched += 1
            if len(bucket) >= assoc:
                victim = next(iter(bucket))
                evictions += 1
                if bucket.pop(victim):
                    dirty.append((line, victim))
            bucket[line] = write
            prev = line
        return fills, prefetched, evictions

    def touch_mru(self, line: int, is_write: bool) -> None:
        """Repeat-touch a line the caller *knows* is resident and MRU.

        Equivalent to :meth:`access` for that case but skips the LRU
        pop/reinsert: the line is already in MRU position, so only the
        dirty flag may need upgrading, and a dict value assignment does
        not disturb insertion order. :class:`~repro.nvm.memory.NVMRegion`
        uses this from its repeated-same-line fast path; calling it for
        a non-resident line raises ``KeyError`` (by design — it would
        mean the caller's residency invariant is broken).
        """
        bucket = self._sets[line % self._n_sets]
        if is_write and not bucket[line]:
            bucket[line] = True
        else:
            bucket[line]  # noqa: B018 — residency assertion on reads

    def flush(self, line: int) -> tuple[bool, bool]:
        """``clflush`` semantics: invalidate ``line``.

        Returns ``(was_cached, was_dirty)``. Invalidation — not just
        writeback — is the x86 behaviour the paper identifies as the
        source of logging's extra cache misses: the next read of the same
        address misses again.
        """
        bucket = self._sets[line % self._n_sets]
        dirty = bucket.pop(line, None)
        if dirty is None:
            return False, False
        return True, dirty

    def writeback(self, line: int) -> bool:
        """``clwb`` semantics: persist but keep the line resident (clean).

        Returns whether the line was dirty. Used by the ablation that
        separates the flush-latency cost of logging from its
        invalidation-induced re-miss cost.
        """
        bucket = self._sets[line % self._n_sets]
        if line in bucket:
            dirty = bucket[line]
            bucket[line] = False
            return dirty
        return False

    def contains(self, line: int) -> bool:
        """Whether ``line`` is currently resident."""
        return line in self._sets[line % self._n_sets]

    def is_dirty(self, line: int) -> bool:
        """Whether ``line`` is resident and modified."""
        return self._sets[line % self._n_sets].get(line, False)

    def dirty_lines(self) -> Iterator[int]:
        """Iterate over all resident dirty lines (crash-time inspection)."""
        for bucket in self._sets:
            for line, dirty in bucket.items():
                if dirty:
                    yield line

    def resident_lines(self) -> Iterator[int]:
        """Iterate over all resident lines."""
        for bucket in self._sets:
            yield from bucket

    def invalidate_all(self) -> None:
        """Drop every line without writeback (power-loss semantics)."""
        for bucket in self._sets:
            bucket.clear()

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._sets)
