"""Incremental growth: a directory of group-hash segments.

The paper stops at "the capacity of the hash table needs to be
expanded". The obvious answer is a stop-the-world rebuild — every item
re-inserted into a fresh table, a pause proportional to the whole table
(the ``growth`` experiment's legacy baseline). This module avoids it
the way Dash (Lu et al., VLDB 2020) does for persistent-memory
extendible hashing: the table becomes a **directory** of fixed-size
**segments**, where each segment is a complete, unmodified
:class:`~repro.core.group_hash.GroupHashTable` with the paper's commit
discipline. Growth is then local:

1. a full segment is **split alone** — a sibling segment of the same
   size is built, the items whose directory hash selects the new half
   are copied in (each copy is a normal Algorithm 1 commit, so the
   sibling is consistent at every point and invisible until published);
2. the split is **published by 8-byte atomic directory-pointer swings**
   — each redirected directory entry is one naturally-aligned
   ``write_atomic_u64`` + persist, so any crash point leaves that entry
   pointing at either the old or the new segment, never a torn mix;
3. stale copies (items left in the old segment, or copied but never
   published) are cleaned up with ordinary crash-consistent deletes;
   recovery's *tenant sweep* performs the same cleanup after a crash.

When every directory entry of the splitting segment is unique the
directory itself **doubles**: a 2× pointer array is built and persisted
off to the side (new index ``i`` inherits old entry ``i mod old_size``
— least-significant-bit indexing), then committed by a single atomic
root-word swing. The root word packs ``(array_base << 8) | depth`` into
one 8-byte word precisely so that doubling, too, commits atomically.

The payoff is the **stability invariant** documented in DESIGN.md
decision 12: items never move once placed — group hashing never
relocates within a segment, and the only cross-segment movement is a
split, which is bounded by one segment's size. Pauses shrink from
O(table) to O(segment), which the ``growth`` benchmark measures as p99
during-split latency versus the legacy rebuild pause.

Like the rest of the repository, nothing here logs: every transition is
either an idempotent copy into unreachable space or one 8-byte atomic
word, which is exactly the paper's consistency toolkit applied to the
metadata layer.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.group_hash import GroupHashTable
from repro.core.recovery import recover_group_table
from repro.hashes import HashFamily
from repro.nvm.backend import MemoryBackend
from repro.nvm.memory import ATOMIC_UNIT, CACHELINE, SimulatedPowerFailure
from repro.tables.cell import CellCodec, ItemSpec

#: directory-hash seed perturbation: routing between segments must stay
#: independent of placement inside a segment (same pattern as the shard
#: router), or full level-1 cells and full segments would correlate
_DIR_SALT = 0xD12EC7

#: low bits of the root word reserved for the global depth; the array
#: base address occupies the remaining 56 bits
_ROOT_DEPTH_BITS = 8

#: root-block magic ("GDIR"): greppable marker in region dumps
_DIR_MAGIC = int.from_bytes(b"GDIR\0\0\0\0", "little")


class SplitError(RuntimeError):
    """A segment split could not complete (e.g. region out of space)."""


def _auto_group_size(segment_cells: int) -> int:
    """Largest power of two ≤ 128 dividing the segment's level size —
    the same policy as the sharded layer's per-shard default."""
    level = max(2, segment_cells // 2)
    size = 1
    while size < 128 and level % (size * 2) == 0:
        size *= 2
    return size


class DirectoryTable:
    """Extendible directory of :class:`GroupHashTable` segments.

    Presents the single-table surface (insert/query/delete/update,
    ``count``, ``items``, ``reattach``/``recover``, integrity checks) so
    existing callers — the KV store, the crash harnesses, the bench
    drivers — can swap it in for one monolithic table, but ``insert``
    never reports the table full: a full segment splits in place and the
    insert retries. All segments share one backend region and one hash
    seed, so placement is deterministic and crash replays are exact.
    """

    scheme_name = "group-dir"

    def __init__(
        self,
        region: MemoryBackend,
        n_cells: int = 1024,
        spec: ItemSpec | None = None,
        *,
        segment_cells: int = 512,
        group_size: int | None = None,
        n_hash_functions: int = 1,
        seed: int = 0x5EED,
        max_split_attempts: int = 8,
    ) -> None:
        if max_split_attempts < 1:
            raise ValueError("max_split_attempts must be positive")
        self.max_split_attempts = max_split_attempts
        self.log = None  # never logs; kept for the uniform reboot entry
        self.tracer = None
        self.metrics = None
        self.splits = 0
        self.doublings = 0
        #: optional growth observer called with "split" / "doubling"
        #: right after the structural change commits — how the timeline
        #: experiment stamps growth events onto the simulated clock;
        #: purely observational, never touches the region
        self.on_growth = None
        #: (base, size) of a directory array whose root swing is in
        #: flight — reconciled (kept or abandoned) on reattach
        self._pending_dir: tuple[int, int] | None = None

        if n_cells <= 0:
            raise ValueError("n_cells must be positive")
        if segment_cells < 2:
            raise ValueError("segment_cells must be at least 2")
        segment_cells = min(segment_cells, n_cells + (n_cells & 1))
        segment_cells += segment_cells & 1
        n_segments = 1
        while n_segments * segment_cells < n_cells:
            n_segments *= 2
        group_size = group_size or _auto_group_size(segment_cells)

        self.region = region
        self.spec = spec or ItemSpec()
        self.seed = seed
        self.family = HashFamily(seed)
        #: routing hash: ``_dir_hash`` per key, ``_dir_family.hash_many(0,
        #: keys)`` per batch (bit-identical)
        self._dir_family = HashFamily(seed ^ _DIR_SALT)
        self._dir_hash = self._dir_family.function(0)

        # Root block: magic | root word. The root word is the only
        # mutable directory metadata and is always committed with a
        # single 8-byte atomic write.
        self._root_addr = region.alloc(CACHELINE, align=CACHELINE, label="dir.root")
        self._root_word_addr = self._root_addr + 8
        region.write_u64(self._root_addr, _DIR_MAGIC)

        segments = [
            GroupHashTable(
                region,
                segment_cells,
                self.spec,
                group_size=group_size,
                n_hash_functions=n_hash_functions,
                seed=seed,
            )
            for _ in range(n_segments)
        ]

        #: volatile object map: segment info-block address -> table.
        #: The address *is* the identity — it is what directory entries
        #: store — so the map survives simulated crashes and reattach
        #: simply prunes entries the directory no longer reaches.
        self._segments: dict[int, GroupHashTable] = {}
        self._footprint: dict[int, int] = {}
        for seg in segments:
            self._segments[seg._info_addr] = seg
            self._footprint[seg._info_addr] = self._segment_footprint(seg)

        depth = (len(segments) - 1).bit_length()
        self._depth = depth
        self._dir_base = region.alloc(
            8 << depth, align=ATOMIC_UNIT, label="dir.entries"
        )
        addrs = [seg._info_addr for seg in segments]
        for i in range(1 << depth):
            # LSB indexing: when fewer segments than slots (never the
            # case initially — segments is a power of two — but kept for
            # symmetry with doubling), entry i maps to segment i mod n
            region.write_u64(self._dir_base + 8 * i, addrs[i % len(addrs)])
        region.persist(self._dir_base, 8 << depth)
        self._write_root(self._dir_base, depth)

    def _segment_footprint(self, seg: GroupHashTable) -> int:
        """Bytes one segment pins in the region (info block + levels)."""
        codec = CellCodec(seg.spec)
        return CACHELINE + 2 * codec.array_bytes(seg.n_cells // 2)

    # ------------------------------------------------------------------
    # routing

    def _write_root(self, base: int, depth: int) -> None:
        """Commit (array base, global depth) with one atomic 8-byte
        persist — the directory's only metadata commit point."""
        if depth >= 1 << _ROOT_DEPTH_BITS:
            raise SplitError(f"global depth {depth} exceeds root encoding")
        self.region.write_atomic_u64(
            self._root_word_addr, (base << _ROOT_DEPTH_BITS) | depth
        )
        self.region.persist(self._root_word_addr, 8)

    def _dir_index(self, key: bytes) -> int:
        return self._dir_hash(key) & ((1 << self._depth) - 1)

    def _entry_addr(self, index: int) -> int:
        return self._dir_base + 8 * index

    def segment_for(self, key: bytes) -> GroupHashTable:
        """The segment currently serving ``key`` (one directory read)."""
        addr = self.region.read_u64(self._entry_addr(self._dir_index(key)))
        return self._segments[addr]

    def segment_addr(self, key: bytes) -> int:
        """Segment info-block address currently serving ``key``
        (cost-free control-plane lookup: reads the volatile directory
        image and charges nothing — the serving tier's location hints
        come from here)."""
        region = self.region
        return int.from_bytes(
            region.peek_volatile(self._entry_addr(self._dir_index(key)), 8),
            "little",
        )

    def segment_at(self, addr: int) -> GroupHashTable | None:
        """The live segment registered at info address ``addr``, or
        ``None`` — the target of a one-sided (hinted) read. Split
        victims stay registered (their moved tenants are swept), so a
        stale hint resolves to a live segment that simply *misses* on
        moved keys; it can never return a wrong value."""
        return self._segments.get(addr)

    def directory_entries(self) -> list[int]:
        """Segment address per directory slot (cost-free diagnostic)."""
        region = self.region
        return [
            int.from_bytes(region.peek_volatile(self._entry_addr(i), 8), "little")
            for i in range(1 << self._depth)
        ]

    def segment_depths(self) -> dict[int, int]:
        """Local depth per segment address, derived from directory
        sharing (cost-free diagnostic): a segment referenced by ``2^k``
        slots has local depth ``global_depth - k``."""
        entries = self.directory_entries()
        depths: dict[int, int] = {}
        for addr in set(entries):
            shared = entries.count(addr)
            depths[addr] = self._depth - (shared.bit_length() - 1)
        return depths

    # ------------------------------------------------------------------
    # the single-table surface

    def insert(self, key: bytes, value: bytes) -> bool:
        """Insert; a full segment splits (bounded work) and the insert
        retries. False only if ``max_split_attempts`` splits still leave
        the key's home group full — pathological skew, not capacity."""
        seg = self.segment_for(key)
        if seg.insert(key, value):
            return True
        for _ in range(self.max_split_attempts):
            victim = self.region.read_u64(self._entry_addr(self._dir_index(key)))
            self._split(victim)
            seg = self.segment_for(key)
            if seg.insert(key, value):
                return True
        return False

    def query(self, key: bytes) -> bytes | None:
        """Return the value stored for ``key``, or ``None``."""
        return self.segment_for(key).query(key)

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns whether it was present."""
        return self.segment_for(key).delete(key)

    def update(self, key: bytes, value: bytes) -> bool:
        """In-place value update in the key's segment."""
        return self.segment_for(key).update(key, value)

    # ------------------------------------------------------------------
    # batch operations (DESIGN.md decision 13)

    def put_many(self, items: list[tuple[bytes, bytes]]) -> list[bool]:
        """Batched insert; one bool per item, in order.

        Consecutive items routed to the same segment form a *run*
        committed with one coalesced
        :meth:`GroupHashTable._put_many_prefix` call. A run that stops
        short means its next item needs a split, so exactly that item
        takes the scalar :meth:`insert` path (split + retry — the same
        point a scalar loop would have split at), and the remainder is
        re-routed through the post-split directory. Final persistent
        state is byte-identical to the scalar loop."""
        results: list[bool] = []
        i, n = 0, len(items)
        while i < n:
            seg = self.segment_for(items[i][0])
            j = i + 1
            while j < n and self.segment_for(items[j][0]) is seg:
                j += 1
            run = items[i:j]
            consumed = seg._put_many_prefix(run)
            results.extend([True] * consumed)
            i += consumed
            if consumed < len(run):
                key, value = items[i]
                results.append(self.insert(key, value))
                i += 1
        return results

    def get_many(self, keys: list[bytes]) -> list[bytes | None]:
        """Batched lookup: keys grouped per segment, each group resolved
        with that segment's vectorized :meth:`GroupHashTable.get_many`;
        results in input order."""
        out: list[bytes | None] = [None] * len(keys)
        groups: dict[int, list[int]] = {}
        for i, key in enumerate(keys):
            groups.setdefault(self.segment_for(key)._info_addr, []).append(i)
        for addr, idxs in groups.items():
            values = self._segments[addr].get_many([keys[i] for i in idxs])
            for i, value in zip(idxs, values):
                out[i] = value
        return out

    def delete_many(self, keys: list[bytes]) -> list[bool]:
        """Batched delete: keys grouped per segment, each group committed
        with that segment's coalesced :meth:`GroupHashTable.delete_many`.
        Same key twice in one batch: routing is deterministic, so the
        duplicates land in one segment whose batch delete resolves them
        scalar-identically (later occurrences re-probe post-commit)."""
        out: list[bool] = [False] * len(keys)
        groups: dict[int, list[int]] = {}
        for i, key in enumerate(keys):
            groups.setdefault(self.segment_for(key)._info_addr, []).append(i)
        for addr, idxs in groups.items():
            hits = self._segments[addr].delete_many([keys[i] for i in idxs])
            for i, hit in zip(idxs, hits):
                out[i] = hit
        return out

    # ------------------------------------------------------------------
    # growth

    def _entries_of(self, addr: int) -> list[int]:
        """Directory slots currently pointing at segment ``addr``
        (costed scan — the split pays for its own metadata reads)."""
        region = self.region
        base = self._dir_base
        return [
            i
            for i in range(1 << self._depth)
            if region.read_u64(base + 8 * i) == addr
        ]

    @staticmethod
    def _partition_bit(entries: list[int]) -> int:
        """Lowest index bit that splits ``entries`` into two non-empty
        halves. For the usual power-of-two-aligned run this is the
        segment's local depth; after a crash left a partial swing it is
        still a valid (consistent) partition."""
        for bit in range(max(entries).bit_length()):
            mask = 1 << bit
            ones = sum(1 for i in entries if i & mask)
            if 0 < ones < len(entries):
                return bit
        raise SplitError("directory entries cannot be partitioned")

    def _double_directory(self) -> None:
        """Double the pointer array and commit via one atomic root swing.

        The 2× array is fully built and persisted off to the side (LSB
        indexing: new entry ``i`` inherits old entry ``i mod old_size``)
        before the root word moves, so a crash at any point leaves the
        old or the new directory fully visible — never a partial one."""
        region = self.region
        old_base, old_n = self._dir_base, 1 << self._depth
        try:
            new_base = region.alloc(
                16 * old_n, align=ATOMIC_UNIT, label="dir.entries"
            )
        except MemoryError as exc:
            raise SplitError(f"region cannot hold a doubled directory: {exc}") from exc
        # from here until the root swing commits, the new array is the
        # in-flight allocation reattach must reconcile after a crash
        self._pending_dir = (new_base, 16 * old_n)
        for i in range(old_n):
            entry = region.read_u64(old_base + 8 * i)
            region.write_u64(new_base + 8 * i, entry)
            region.write_u64(new_base + 8 * (i + old_n), entry)
        region.persist(new_base, 16 * old_n)
        self._write_root(new_base, self._depth + 1)
        self._pending_dir = None
        region.mark_abandoned(8 * old_n)  # the retired old array
        self._dir_base = new_base
        self._depth += 1
        self.doublings += 1
        if self.metrics is not None:
            self.metrics.counter("directory.doublings").inc()
            self.metrics.gauge("directory.depth").set(self._depth)
        if self.on_growth is not None:
            self.on_growth("doubling")

    def _split(self, victim_addr: int) -> None:
        """Split the segment at ``victim_addr``: copy → swing → delete.

        Crash safety by phase: during the copy the sibling is
        unreachable (pure garbage on crash, accounted by reattach);
        each swing is one 8-byte atomic persist (old or new pointer,
        never torn); the trailing deletes are ordinary crash-consistent
        removals whose loss recovery's tenant sweep repairs."""
        region = self.region
        victim = self._segments[victim_addr]
        tr, mx = self.tracer, self.metrics
        if tr is not None:
            tr.push("split")
        try:
            entries = self._entries_of(victim_addr)
            if len(entries) == 1:
                self._double_directory()
                entries = self._entries_of(victim_addr)
            bit = self._partition_bit(entries)
            mask = 1 << bit
            alloc_before = region.bytes_allocated
            try:
                sibling = GroupHashTable(
                    region,
                    victim.n_cells,
                    victim.spec,
                    group_size=victim.group_size,
                    n_hash_functions=victim.n_hash_functions,
                    seed=victim.family.seed,
                )
            except MemoryError as exc:
                region.mark_abandoned(region.bytes_allocated - alloc_before)
                raise SplitError(
                    f"region cannot hold a {victim.n_cells}-cell sibling "
                    f"segment: {exc}"
                ) from exc
            except SimulatedPowerFailure:
                # crash during construction: nothing references the
                # partial allocation and no object tracks it — account
                # for it here, once
                region.mark_abandoned(region.bytes_allocated - alloc_before)
                raise
            sibling.instrument(self.tracer, self.metrics)
            new_addr = sibling._info_addr
            # registered before any of it becomes reachable: from here
            # on, reattach's prune owns the abandoned-bytes accounting
            self._segments[new_addr] = sibling
            self._footprint[new_addr] = region.bytes_allocated - alloc_before
            # phase 1 — copy: rehash only this segment's items; every
            # copy is a normal Algorithm 1 commit into unreachable space
            moved: list[bytes] = []
            for key, value in victim.scan_items():
                if self._dir_hash(key) & mask:
                    if not sibling.insert(key, value):
                        del self._segments[new_addr]
                        region.mark_abandoned(self._footprint.pop(new_addr))
                        raise SplitError(
                            "sibling segment rejected a rehashed item "
                            "(same keys, half the load — should not happen)"
                        )
                    moved.append(key)
            # phase 2 — publish: swing each redirected entry with one
            # 8-byte atomic persist
            for i in entries:
                if i & mask:
                    entry_addr = self._entry_addr(i)
                    region.write_atomic_u64(entry_addr, new_addr)
                    region.persist(entry_addr, 8)
            # phase 3 — cleanup: drop the moved items from the old
            # segment (each delete crash-consistent on its own)
            for key in moved:
                victim.delete(key)
            self.splits += 1
            if mx is not None:
                mx.counter("directory.splits").inc()
                mx.histogram("directory.split_moved").record(len(moved))
            if self.on_growth is not None:
                self.on_growth("split")
        finally:
            if tr is not None:
                tr.pop()

    # ------------------------------------------------------------------
    # aggregated state

    @property
    def global_depth(self) -> int:
        """log2 of the directory slot count."""
        return self._depth

    @property
    def n_segments(self) -> int:
        """Number of live segments."""
        return len(self._segments)

    @property
    def capacity(self) -> int:
        """Total cells across all live segments."""
        return sum(seg.capacity for seg in self._segments.values())

    @property
    def count(self) -> int:
        """Total occupied cells (volatile mirrors)."""
        return sum(seg.count for seg in self._segments.values())

    @property
    def load_factor(self) -> float:
        """Global count / capacity."""
        return self.count / self.capacity

    @property
    def persisted_count(self) -> int:
        """Sum of every segment's persistent ``count`` field."""
        return sum(seg.persisted_count for seg in self._segments.values())

    def instrument(self, tracer=None, metrics=None) -> None:
        """Attach observability sinks to the directory and every segment
        (future split siblings inherit them)."""
        self.tracer = tracer
        self.metrics = metrics
        for seg in self._segments.values():
            seg.instrument(tracer, metrics)

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Yield all stored pairs, segment by segment (cost-free
        inventory; call at operation boundaries — mid-split both copies
        of a moving item are briefly present)."""
        for seg in self._segments.values():
            yield from seg.items()

    def check_count(self) -> bool:
        """Whether every segment's persistent count matches its
        occupancy."""
        return all(seg.check_count() for seg in self._segments.values())

    # ------------------------------------------------------------------
    # crash / recovery

    def reattach(self) -> None:
        """Reload the directory from NVM after a simulated crash.

        The root word is atomic, so it names either the old or the new
        pointer array; entries are atomic, so each names either the old
        or the new segment. Segments the surviving directory no longer
        references (mid-split orphans) are pruned and their bytes
        recorded as abandoned."""
        region = self.region
        root = region.read_u64(self._root_word_addr)
        depth = root & ((1 << _ROOT_DEPTH_BITS) - 1)
        base = root >> _ROOT_DEPTH_BITS
        if self._pending_dir is not None:
            pend_base, pend_size = self._pending_dir
            if base == pend_base:
                # the doubling's root swing survived: the old array is
                # now the garbage one
                region.mark_abandoned(8 << self._depth)
            else:
                region.mark_abandoned(pend_size)
            self._pending_dir = None
        self._depth = depth
        self._dir_base = base
        reachable = {
            region.read_u64(base + 8 * i) for i in range(1 << depth)
        }
        unknown = reachable - set(self._segments)
        if unknown:
            raise RuntimeError(
                f"directory references unknown segment(s) at {sorted(unknown)}"
            )
        for addr in list(self._segments):
            if addr not in reachable:
                del self._segments[addr]
                region.mark_abandoned(self._footprint.pop(addr, 0))
        for seg in self._segments.values():
            seg.reattach()

    def recover(self) -> None:
        """Post-crash recovery: Algorithm 4 per segment, then the
        **tenant sweep** — delete any item whose directory routing no
        longer points at the segment holding it. The sweep is what makes
        every crash point land on exactly the old or the new mapping: a
        lost swing leaves stale copies in the (unpublished) sibling, a
        survived swing leaves stale originals in the old segment, and in
        both cases the stale side is precisely the set of non-tenants."""
        tr, mx = self.tracer, self.metrics
        if tr is not None:
            tr.push("recover")
        for seg in self._segments.values():
            recover_group_table(seg)
        scan_ne_at = self.region.scan_ne_at
        hash_many = self._dir_family.hash_many
        base, mask = self._dir_base, (1 << self._depth) - 1
        swept = 0
        for addr, seg in self._segments.items():
            keys = [key for key, _ in seg.items()]
            slots = [base + 8 * (h & mask) for h in hash_many(0, keys)]
            # the per-key loop's events: one costed directory read per
            # key, each non-tenant deleted right after its read
            start = 0
            while (i := scan_ne_at(slots[start:], addr)) is not None:
                seg.delete(keys[start + i])
                swept += 1
                start += i + 1
        if mx is not None:
            mx.counter("recovery.tenants_swept").inc(swept)
        if tr is not None:
            tr.pop()

    # ------------------------------------------------------------------
    # diagnostics

    def integrity_violations(self) -> list[str]:
        """Per-segment structural checks plus the directory's own
        invariants: every slot resolves to a live segment, no key is
        stored twice across segments, and every item is a *tenant* of
        the segment its directory routing selects (the stability
        invariant's observable form). Peek-based — no costs charged."""
        problems: list[str] = []
        entries = self.directory_entries()
        known = set(self._segments)
        for i, addr in enumerate(entries):
            if addr not in known:
                problems.append(f"directory slot {i} points at unknown {addr}")
        mask = (1 << self._depth) - 1
        seen: dict[bytes, int] = {}
        for addr, seg in self._segments.items():
            for p in seg.integrity_violations():
                problems.append(f"segment@{addr}: {p}")
            keys = [key for key, _ in seg.items()]
            hashes = self._dir_family.hash_many(0, keys)
            for key, h in zip(keys, hashes):
                if key in seen:
                    problems.append(
                        f"key {key.hex()} stored in segments "
                        f"{seen[key]} and {addr}"
                    )
                seen[key] = addr
                slot = h & mask
                if entries[slot] != addr:
                    problems.append(
                        f"non-tenant: key {key.hex()} in segment {addr} "
                        f"but slot {slot} routes to {entries[slot]}"
                    )
        return problems

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DirectoryTable(depth={self._depth}, "
            f"segments={self.n_segments}, count={self.count}, "
            f"splits={self.splits})"
        )
