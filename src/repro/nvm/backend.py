"""Pluggable memory backends behind one protocol.

Every hash table in this repository is written against
:class:`MemoryBackend` — the read/write/persist/fence/alloc/crash/stats
surface that :class:`~repro.nvm.memory.NVMRegion` pioneered — rather
than against the concrete simulator class. Three implementations ship:

- :class:`SimBackend` — the full cacheline/latency simulator
  (:class:`~repro.nvm.memory.NVMRegion` itself, re-exported unchanged).
  Every figure benchmark runs on it; simulated-ns latencies and miss
  counts are bit-for-bit those of the pre-protocol code.
- :class:`RawBackend` — the simulator's own dual-image core
  (:class:`~repro.nvm.memory.DualImage`: volatile view vs persistent
  image, allocator, crash countdown, 8-byte-word crash) with **no cache
  simulation and no latency model**: dirty lines are a set and each
  access is a couple of slice operations, which makes correctness
  suites and production-style KV workloads several times faster.
  Latency/miss counters stay zero.
- :class:`ShardedBackend` — a container of N independent per-shard
  backends with aggregated statistics and per-shard crash injection.
  It is deliberately *not* one flat address space: shard independence
  (crash one, keep serving the rest) is the property the routing layer
  :class:`~repro.core.sharded.ShardedTable` builds on.

Because both concrete single-region backends follow the same program-
order event semantics (stores dirty data, ``clflush`` persists it,
crash schedules decide the fate of unflushed 8-byte words), a table
driven identically on a :class:`SimBackend` and a :class:`RawBackend`
reaches identical persistent states — the parity property pinned by
``tests/test_backends.py``.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

from repro.nvm.crash import CrashSchedule
from repro.nvm.decode import _U64, _scan_torn_loop
from repro.nvm.memory import (
    ATOMIC_UNIT,
    CACHELINE,
    CrashReport,
    DualImage,
    NVMRegion,
    _MIN_BATCH,
    _apply_stores,
    _flush_batch,
    _store_batch,
    _store_cells_loop,
)
from repro.nvm.stats import MemStats


@runtime_checkable
class MemoryBackend(Protocol):
    """Structural type of a persistent-memory substrate.

    Anything that provides this surface can host every table, the undo
    log, the KV store, and the benchmark runner. The contract mirrors
    x86 + NVDIMM semantics: stores land in a volatile view, ``clflush``
    moves whole lines to the persistent image, ``mfence`` orders, and a
    :meth:`crash` consults a :class:`~repro.nvm.crash.CrashSchedule` at
    8-byte-word granularity for everything still unflushed.
    """

    # -- identity ------------------------------------------------------

    @property
    def name(self) -> str:
        """Human-readable region name (used in error messages)."""
        ...

    @property
    def size(self) -> int:
        """Backend capacity in bytes."""
        ...

    @property
    def line_size(self) -> int:
        """Flush granularity in bytes (the cacheline)."""
        ...

    @property
    def stats(self) -> MemStats:
        """Event counters; simulation-free backends keep latency and
        cache counters at zero but still count program-issued events."""
        ...

    # -- allocation ----------------------------------------------------

    def alloc(self, nbytes: int, *, align: int = ATOMIC_UNIT, label: str = "") -> int:
        """Bump-allocate ``nbytes`` with the given alignment; returns the
        byte address of the extent."""
        ...

    @property
    def bytes_allocated(self) -> int:
        """High-water mark of the bump allocator."""
        ...

    @property
    def abandoned_bytes(self) -> int:
        """Bytes allocated but no longer reachable from any live
        structure (the bump allocator never reuses space, so growth
        machinery reports its garbage here instead of leaking silently)."""
        ...

    def mark_abandoned(self, nbytes: int) -> None:
        """Record ``nbytes`` of allocated space as permanently
        unreachable."""
        ...

    # -- data path -----------------------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        """Load ``size`` bytes from the volatile view."""
        ...

    def write(self, addr: int, data: bytes) -> None:
        """Store ``data``; durable only after a flush (or crash luck)."""
        ...

    def read_u64(self, addr: int) -> int:
        """Load an 8-byte little-endian unsigned integer."""
        ...

    def write_u64(self, addr: int, value: int) -> None:
        """Store an 8-byte little-endian unsigned integer."""
        ...

    def write_atomic_u64(self, addr: int, value: int) -> None:
        """The paper's failure-atomic 8-byte store (asserts alignment)."""
        ...

    # -- bulk probes ---------------------------------------------------
    #
    # Each probe's contract is the *event sequence* of a loop of scalar
    # loads, named per method below: which lines are touched, in which
    # order, and what each touch costs. Both single-region backends share
    # one implementation (repro.nvm.decode.Scans): a decoder finds the
    # answer in the volatile image, and the backend charges the probed
    # prefix — NVMRegion line by line (one cache lookup per line entered,
    # every further touch of that line a hit), RawBackend as read counts.
    # Subclasses, which may remap addresses, run the loop itself.

    def scan_clear_u64(
        self, addr: int, stride: int, count: int, mask: int = 1
    ) -> int | None:
        """Index of the first of ``count`` header words (at ``addr``,
        ``addr+stride``, ...) with ``(word & mask) == 0``, or None.

        Contract: the events of one :meth:`read_u64` per probed word,
        stopping at the first clear one."""
        ...

    def scan_match(
        self,
        addr: int,
        stride: int,
        count: int,
        key: bytes,
        *,
        mask: int = 1,
        key_offset: int = 8,
    ) -> int | None:
        """Index of the first of ``count`` cells whose header *byte 0*
        has a ``mask`` bit set and whose bytes at ``key_offset`` equal
        ``key``, or None.

        Contract: the events of one ``read(cell, key_offset + len(key))``
        per probed cell (header and key travel in one load), stopping at
        the match — the contiguous-probe read pattern of the paper's
        level-2 scan. ``mask`` must fit in the header's low byte."""
        ...

    def scan_occupied_bitmap(
        self, addr: int, stride: int, count: int, mask: int = 1
    ) -> int:
        """Bitmap of the ``mask`` bit over ``count`` strided header
        words (bit ``i`` set iff ``word(addr + i*stride) & mask``).

        Contract: the events of one :meth:`read_u64` per word, full
        scan (no early exit) — the group-filter batch planners use to
        learn a whole level-2 group's occupancy in one call."""
        ...

    def scan_occupied_at(self, addrs, mask: int = 1) -> int:
        """Gather variant of :meth:`scan_occupied_bitmap` over explicit
        addresses; contract: the events of one :meth:`read_u64` per
        address, full scan."""
        ...

    def scan_match_many(
        self,
        addr: int,
        stride: int,
        count: int,
        keys,
        *,
        mask: int = 1,
        key_offset: int = 8,
    ) -> list[int | None]:
        """Multi-key :meth:`scan_match` over one strided window.

        Contract: the concatenation of the per-key :meth:`scan_match`
        event sequences, in key order."""
        ...

    def scan_probe(
        self,
        addr: int,
        stride: int,
        count: int,
        key: bytes,
        *,
        mask: int = 1,
        key_offset: int = 8,
    ) -> tuple[int, bool] | None:
        """First strided cell that is empty or stores ``key``:
        ``(index, matched)``, or None — the linear-probing lookup.

        Contract: the events of one ``read`` of header+key per probed
        cell, stopping at the empty-or-match cell."""
        ...

    def scan_clear_at(self, addrs, mask: int = 1) -> int | None:
        """Gather variant of :meth:`scan_clear_u64`; contract: the
        events of one :meth:`read_u64` per probed address, stopping at
        the first clear word."""
        ...

    def scan_ne_at(self, addrs, value: int) -> int | None:
        """Index of the first address in ``addrs`` whose 8-byte word is
        not ``value``, or None; contract: the events of one
        :meth:`read_u64` per probed address, stopping at the first word
        that differs — the directory's tenant check."""
        ...

    def scan_match_at(
        self, addrs, key: bytes, *, mask: int = 1, key_offset: int = 8
    ) -> int | None:
        """Gather variant of :meth:`scan_match`; contract: the events
        of one ``read`` of header+key per probed address, stopping at
        the match."""
        ...

    def scan_match_pairs(
        self, pairs, *, mask: int = 1, key_offset: int = 8
    ) -> list[bool]:
        """Independent occupied-and-stores-key tests over ``(addr,
        key)`` pairs; contract: the events of one ``read`` of
        header+key per pair, full scan — the batched level-1 home-cell
        probe."""
        ...

    def scan_torn(
        self, addr: int, stride: int, count: int, size: int, mask: int = 1
    ) -> tuple[int | None, int]:
        """``(index, occupied)``: the first of ``count`` strided cells
        whose header byte 0 has no ``mask`` bit while its bytes
        ``[8, size)`` are non-zero (None if none), and the number of
        cells before it whose header byte 0 has a ``mask`` bit.

        Contract: the events of one ``read(cell, size)`` per probed
        cell, stopping at the torn cell — Algorithm 4's recovery scan,
        which resets that cell and resumes after it."""
        ...

    # -- bulk stores ---------------------------------------------------
    #
    # Like the probes, each bulk store's contract is the event sequence
    # of its per-call loop. NVMRegion charges it in one inlined loop and
    # RawBackend applies it natively; subclasses, armed crashes and
    # attached observers run the loop itself.

    def store_cells(
        self, cells, payloads=None, offset: int = 8, mask: int = 0
    ) -> None:
        """Per cell of the sequence ``cells``, in order: ``write(cell +
        offset, payloads[i])``, then ``write_atomic_u64(cell,
        read_u64(cell) | mask)``. ``payloads=None`` skips the first
        half, ``mask=0`` the second — a batch commit's key-value stores
        or its bitmap commits, without their flushes."""
        ...

    def flush_lines(self, lines) -> None:
        """Contract: ``clflush(line * line_size)`` per line number of the
        sequence ``lines``, in order."""
        ...

    # -- persistence primitives ----------------------------------------

    def clflush(self, addr: int) -> None:
        """Flush the line containing ``addr`` to the persistent image."""
        ...

    def flush_range(self, addr: int, size: int) -> None:
        """``clflush`` every line overlapping ``[addr, addr+size)``."""
        ...

    def mfence(self) -> None:
        """Order stores (and charge the fence cost, where modelled)."""
        ...

    def persist(self, addr: int, size: int = 8) -> None:
        """The paper's ``Persist``: flush the range, then fence."""
        ...

    # -- crash/recovery ------------------------------------------------

    def arm_crash(self, after_events: int) -> None:
        """Arm a power failure ``after_events`` persistence-relevant
        events (store/flush/fence) from now."""
        ...

    def disarm_crash(self) -> None:
        """Cancel a pending armed crash."""
        ...

    def crash(self, schedule: CrashSchedule | None = None) -> CrashReport:
        """Simulate a power failure; the schedule picks which unflushed
        8-byte words survive. Afterwards the volatile view equals the
        persistent image."""
        ...

    # -- introspection (cost-free) -------------------------------------

    def peek_persistent(self, addr: int, size: int) -> bytes:
        """Read the persistent image directly (no cost charged)."""
        ...

    def peek_volatile(self, addr: int, size: int) -> bytes:
        """Read the volatile view directly (no cost charged)."""
        ...

    def unpersisted_ranges(self) -> list[tuple[int, int]]:
        """``(addr, size)`` extents where volatile and persistent images
        differ — data at risk in a crash right now."""
        ...


#: The simulator backend: the existing :class:`NVMRegion`, unchanged.
#: An alias (not a subclass) so event counts, latencies and isinstance
#: relationships are bit-for-bit those of the pre-protocol code.
SimBackend = NVMRegion


class RawBackend(DualImage):
    """Simulation-free :class:`MemoryBackend`: the fast path.

    Keeps the same two images as the simulator — volatile view and
    persistent image — and tracks *dirty lines* (stores not yet flushed)
    in a set, but runs no cache model and charges no latency. Program-
    order event semantics are identical to :class:`SimBackend`: the same
    operation sequence leaves the same dirty words at any crash point,
    which is what makes backend parity testable. The crash itself is the
    shared :class:`~repro.nvm.memory.DualImage`'s.

    Intended for correctness suites (crash semantics intact, ~an order
    of magnitude faster) and throughput-oriented KV serving where
    simulated nanoseconds are irrelevant.
    """

    def __init__(
        self, size: int, *, name: str = "raw", line_size: int = CACHELINE
    ) -> None:
        super().__init__(size, line_size, name)
        if line_size <= 0 or line_size % ATOMIC_UNIT:
            raise ValueError("line_size must be a positive multiple of 8")
        #: line numbers holding stores not yet written back
        self._dirty: set[int] = set()
        # scans decode in place on this class only (see Scans)
        self._in_place = self.__class__ is RawBackend

    # ------------------------------------------------------------------
    # data path

    def read(self, addr: int, size: int) -> bytes:
        """Load ``size`` bytes from the volatile view."""
        if addr < 0 or size < 0 or addr + size > self.size:
            self._check_range(addr, size)
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += size
        return bytes(self._volatile[addr : addr + size])

    def write(self, addr: int, data: bytes) -> None:
        """Store ``data`` (dirty until flushed)."""
        size = len(data)
        if addr < 0 or addr + size > self.size:
            self._check_range(addr, size)
        if self._slow:
            self._pre_event("write", addr, size)
        line = self._line
        first = addr // line
        last = (addr + size - 1) // line
        if first == last:
            if size:  # a zero-size store dirties no line
                self._dirty.add(first)
        else:
            self._dirty.update(range(first, last + 1))
        stats = self.stats
        stats.writes += 1
        stats.bytes_written += size
        self._volatile[addr : addr + size] = data

    def read_u64(self, addr: int) -> int:
        """Load an 8-byte little-endian unsigned integer."""
        if addr < 0 or addr + 8 > self.size:
            self._check_range(addr, 8)
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += 8
        return _U64.unpack_from(self._volatile, addr)[0]

    def write_u64(self, addr: int, value: int) -> None:
        """Store an 8-byte little-endian unsigned integer."""
        if addr < 0 or addr + 8 > self.size:
            self._check_range(addr, 8)
        if self._slow:
            self._pre_event("write", addr, 8)
        line = self._line
        first = addr // line
        dirty = self._dirty
        dirty.add(first)
        if (addr + 7) // line != first:
            dirty.add(first + 1)
        stats = self.stats
        stats.writes += 1
        stats.bytes_written += 8
        _U64.pack_into(self._volatile, addr, value)

    # ------------------------------------------------------------------
    # bulk probes

    def _charge_reads(self, cells, size: int) -> None:
        """Count one ``read(a, size)`` per address ``a`` of ``cells``: the
        charge of a scan's probed prefix (no cache, no clock)."""
        n = len(cells)
        stats = self.stats
        stats.reads += n
        stats.bytes_read += n * size

    def scan_torn(
        self, addr: int, stride: int, count: int, size: int, mask: int = 1
    ) -> tuple[int | None, int]:
        """Algorithm 4's scan (see :meth:`Scans.scan_torn`), as its
        per-cell loop of :meth:`read`.

        The loop, not the shared byte-column decoder: a raw recovery
        decoded in place is fast enough that the rest of perfbench's
        ``raw-mixed`` round, the benchmark's own code, takes 22–28 % of
        the traced self time, over the 20 % cap of that benchmark's
        layer check; the decoder lands here with a re-derived cap."""
        return _scan_torn_loop(self, addr, stride, count, size, mask)

    # ------------------------------------------------------------------
    # bulk stores

    def store_cells(
        self, cells, payloads=None, offset: int = 8, mask: int = 0
    ) -> None:
        """The per-cell loop of payload stores and ``mask`` commits (see
        :meth:`NVMRegion.store_cells`), applied natively: slice stores,
        header ORs and dirty lines, with the loop's counts."""
        size = None
        line_size = self._line
        if len(cells) >= _MIN_BATCH and not self._slow:
            size = _store_batch(self, cells, payloads, offset, mask)
        if size is None or size > line_size:
            _store_cells_loop(self, cells, payloads, offset, mask)
            return
        _apply_stores(self, cells, payloads, offset, size, mask)
        # an extent of at most one line spans its first and last line;
        # an aligned header word never straddles (line_size % 8 == 0)
        dirty = self._dirty
        if size:
            end = offset + size - 1
            dirty.update([(cell + offset) // line_size for cell in cells])
            dirty.update([(cell + end) // line_size for cell in cells])
        if mask:
            dirty.update([cell // line_size for cell in cells])

    def flush_lines(self, lines) -> None:
        """``clflush`` per line number of ``lines``, in order; natively,
        the dirty ones written back as one set."""
        if len(lines) < _MIN_BATCH or self._slow or not _flush_batch(self, lines):
            for line in lines:
                self.clflush(line * self._line)
            return
        written = self._dirty.intersection(lines)
        self._dirty -= written
        self._writeback_lines(written)
        stats = self.stats
        stats.flushes += len(lines)
        stats.dirty_flushes += len(written)

    # ------------------------------------------------------------------
    # persistence primitives

    def clflush(self, addr: int) -> None:
        """Write the line containing ``addr`` back to the persistent
        image (idempotent for clean lines)."""
        if addr < 0 or addr + 1 > self.size:
            self._check_range(addr, 1)
        if self._slow:
            self._pre_event("flush", addr, self._line)
        stats = self.stats
        stats.flushes += 1
        line_size = self._line
        line = addr // line_size
        dirty = self._dirty
        if line in dirty:
            dirty.remove(line)
            start = line * line_size
            end = start + line_size
            if end > self.size:
                end = self.size
            self._persistent[start:end] = self._volatile[start:end]
            stats.writebacks += 1
            stats.nvm_line_writes += 1
            stats.nvm_bytes_written += end - start
            stats.dirty_flushes += 1

    def mfence(self) -> None:
        """Order stores (a no-op for correctness here; counts the event
        so crash countdowns stay aligned with the simulator)."""
        if self._slow:
            self._pre_event("fence", 0, 0)
        self.stats.fences += 1

    sfence = mfence

    def persist(self, addr: int, size: int = 8) -> None:
        """Flush the range, then fence — the paper's ``Persist``.

        Fused re-implementation of ``flush_range`` + ``mfence`` (the
        hottest call in the commit discipline: three per insert). Event
        order — per-line flush ticks, then the fence tick — is exactly
        the simulator's, so armed crashes fire at the same point."""
        if size > 0:
            if addr < 0 or addr + size > self.size:
                self._check_range(addr, size)
            line_size = self._line
            first = addr // line_size
            last = (addr + size - 1) // line_size
            slow = self._slow
            stats = self.stats
            dirty = self._dirty
            volatile = self._volatile
            persistent = self._persistent
            for ln in range(first, last + 1):
                if slow:
                    self._pre_event("flush", ln * line_size, line_size)
                stats.flushes += 1
                if ln in dirty:
                    dirty.remove(ln)
                    start = ln * line_size
                    end = start + line_size
                    if end > self.size:
                        end = self.size
                    persistent[start:end] = volatile[start:end]
                    stats.writebacks += 1
                    stats.nvm_line_writes += 1
                    stats.nvm_bytes_written += end - start
                    stats.dirty_flushes += 1
        if self._slow:
            self._pre_event("fence", 0, 0)
        self.stats.fences += 1

    # ------------------------------------------------------------------
    # crash hooks

    def _dirty_lines(self) -> list[int]:
        """The dirty set in ascending line order."""
        return sorted(self._dirty)

    def _forget_cache(self) -> None:
        """Nothing stays dirty after a reboot."""
        self._dirty.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RawBackend(name={self.name!r}, size={self.size}, "
            f"allocated={self._alloc_cursor})"
        )


class ShardedBackend:
    """N independent per-shard backends with aggregated accounting.

    Each shard is a full :class:`MemoryBackend` (any implementation)
    created by ``factory(shard_index)``. The container adds what a
    sharded system needs on top: a merged statistics view, per-shard or
    global crash injection, and stable iteration for recovery sweeps.
    Shards fail independently — crashing one leaves the others' caches
    and dirty data untouched, which :class:`~repro.core.sharded.ShardedTable`
    exploits for partial-failure recovery.
    """

    def __init__(
        self, n_shards: int, factory: Callable[[int], "MemoryBackend"]
    ) -> None:
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        self.shards: list[MemoryBackend] = [factory(i) for i in range(n_shards)]
        self.name = f"sharded[{n_shards}]"

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return len(self.shards)

    def shard(self, index: int) -> "MemoryBackend":
        """The backend serving shard ``index``."""
        if not 0 <= index < len(self.shards):
            raise IndexError(f"shard {index} out of range [0, {len(self.shards)})")
        return self.shards[index]

    def __iter__(self):
        """Iterate over the per-shard backends in shard order."""
        return iter(self.shards)

    @property
    def size(self) -> int:
        """Total capacity across shards, in bytes."""
        return sum(s.size for s in self.shards)

    @property
    def bytes_allocated(self) -> int:
        """Total allocator high-water mark across shards."""
        return sum(s.bytes_allocated for s in self.shards)

    @property
    def abandoned_bytes(self) -> int:
        """Total unreachable (abandoned) bytes across shards."""
        return sum(s.abandoned_bytes for s in self.shards)

    @property
    def stats(self) -> MemStats:
        """Element-wise sum of every shard's counters (a fresh snapshot;
        mutating it does not affect the shards)."""
        return MemStats.merged_all(s.stats for s in self.shards)

    def observe(self, fn: Callable[[str, int, int], None]) -> None:
        """Attach ``fn`` to every shard's event stream."""
        for s in self.shards:
            s.observe(fn)

    def unobserve(self, fn: Callable[[str, int, int], None]) -> None:
        """Detach ``fn`` from every shard."""
        for s in self.shards:
            s.unobserve(fn)

    def crash(
        self,
        schedule: CrashSchedule | None = None,
        *,
        shard: int | None = None,
    ) -> list[CrashReport]:
        """Power-fail one shard (``shard=i``) or all of them.

        Returns one :class:`CrashReport` per crashed shard, in shard
        order. Un-crashed shards are untouched — their caches stay warm
        and their unflushed data stays at risk."""
        targets = self.shards if shard is None else [self.shard(shard)]
        return [s.crash(schedule) for s in targets]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardedBackend(n_shards={self.n_shards}, size={self.size})"
