"""Byte-addressable simulated NVM region.

:class:`NVMRegion` is the substrate every hash table in this repository
runs on. It keeps two images of the memory:

- the **volatile view** — what loads return; includes writes still
  sitting in the simulated CPU cache;
- the **persistent image** — what survives :meth:`NVMRegion.crash`;
  updated only when a dirty line is ``clflush``-ed or evicted.

The images and all that charges nothing (allocator, crash countdown,
word-granular crash, peeks) are :class:`DualImage`'s, which
:class:`~repro.nvm.backend.RawBackend` shares; a subclass adds only what
an access charges and where its dirty lines live.

Data paths mirror x86 + NVDIMM semantics: stores dirty a cacheline,
``clflush`` writes the line to the medium *and invalidates it* (charging
the paper's +300 ns emulation penalty), ``mfence`` orders — in this
sequential simulator, ordering is already program order, so the fence
only charges its cost. Crash semantics are delegated to a
:class:`~repro.nvm.crash.CrashSchedule` at 8-byte-word granularity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import lt

from repro.nvm.cache import CacheConfig, CacheSim
from repro.nvm.crash import CrashSchedule, drop_all_schedule
from repro.nvm.decode import _U64, Scans
from repro.nvm.latency import PAPER_NVM, LatencyModel
from repro.nvm.observe import Observable
from repro.nvm.stats import MemStats
from repro.nvm.wear import WearMap

#: x86 cacheline size; also the alignment unit for table layouts.
CACHELINE = 64

#: failure-atomicity unit of NVM (paper Section 2.2)
ATOMIC_UNIT = 8

#: windows of fewer cells run the per-cell charge loop: below it the
#: per-line path's set-up (a crossing lookup, a cache run) costs more
#: than the loop it replaces
_MIN_WINDOW = 8


@functools.lru_cache(maxsize=1024)
def _crossings(line_size: int, phase: int, step: int, size: int) -> tuple[int, ...]:
    """Prefix counts, over one period of a strided window, of the cells
    that cross a line boundary: element ``i`` counts them among the
    first ``i`` cells of a window starting ``phase`` bytes into a line.
    The offsets repeat every ``line_size / gcd(step, line_size)`` cells,
    the tuple's length minus one."""
    period = line_size // math.gcd(step, line_size)
    counts = [0]
    for i in range(period):
        offset = (phase + i * step) % line_size
        counts.append(counts[-1] + (offset + size > line_size))
    return tuple(counts)


#: strides :func:`image_diff` refines through: 4 KiB chunks, cachelines,
#: then the failure-atomic words a crash schedule rules on
_DIFF_STRIDES = (4096, CACHELINE, ATOMIC_UNIT)


def image_diff(volatile: bytearray, persistent: bytearray) -> list[tuple[int, int]]:
    """Maximal ``(addr, size)`` runs of 8-byte words that differ between
    two equal-length memory images (a trailing partial word counts as a
    word). The diff is exact — it compares bytes, never cache state.

    One whole-image compare settles the clean case; otherwise every 4 KiB
    chunk is one slice compare, and only differing chunks are refined,
    line by line and then word by word."""
    if volatile == persistent:
        return []
    spans = [(0, len(volatile))]
    for stride in _DIFF_STRIDES:
        finer = []
        for start, end in spans:
            for off in range(start, end, stride):
                stop = min(off + stride, end)
                if volatile[off:stop] != persistent[off:stop]:
                    finer.append((off, stop))
        spans = finer
    runs: list[tuple[int, int]] = []
    for start, stop in spans:
        if runs and runs[-1][1] == start:
            runs[-1] = (runs[-1][0], stop)
        else:
            runs.append((start, stop))
    return [(start, stop - start) for start, stop in runs]


def _store_cells_loop(region, cells, payloads, offset: int, mask: int) -> None:
    """``store_cells`` as its per-cell loop: the contract, and the path
    of subclasses, armed crashes, observers, small and odd batches.
    Raises ValueError, before any store, when ``payloads`` and
    ``cells`` differ in length."""
    if payloads is not None and len(payloads) != len(cells):
        raise ValueError(f"{len(payloads)} payloads for {len(cells)} cells")
    for i, cell in enumerate(cells):
        if payloads is not None:
            region.write(cell + offset, payloads[i])
        if mask:
            region.write_atomic_u64(cell, region.read_u64(cell) | mask)


#: batches of fewer cells (or lines) run the bulk stores' per-call loop:
#: below it the batch path's set-up costs more than it saves
_MIN_BATCH = 4


def _store_batch(region, cells, payloads, offset: int, mask: int) -> int | None:
    """The payload size (0 without payloads) when a backend may store a
    batch of at least :data:`_MIN_BATCH` cells natively, or None when
    the per-cell loop must run: nothing to store, a payload count other
    than the cell count, payloads of mixed or zero length, a store
    outside the region, or a mask commit on an unaligned or outside
    cell (the loop then raises where it would)."""
    if payloads is None:
        if not mask:
            return None
    elif len(payloads) != len(cells):
        return None
    lo, hi = min(cells), max(cells)
    size = 0
    if payloads is not None:
        sizes = set(map(len, payloads))
        if len(sizes) != 1:
            return None
        size = sizes.pop()
        if not size or lo + offset < 0 or hi + offset + size > region.size:
            return None
    if mask and not (
        0 < mask < 1 << 64
        and lo >= 0
        and hi + ATOMIC_UNIT <= region.size
        and not any(map((ATOMIC_UNIT - 1).__and__, cells))
    ):
        return None
    return size


def _apply_stores(region, cells, payloads, offset: int, size: int, mask: int) -> None:
    """What :func:`_store_cells_loop` leaves in ``region``'s volatile
    image and access counts, for a batch :func:`_store_batch` accepted
    (``size`` its payload size). The stores land cell by cell in the
    loop's order, so overlapping extents land as they would; payloads
    go through a memoryview, whose slice stores cost half a
    bytearray's."""
    vol = region._volatile
    with memoryview(vol) as view:
        if mask > 0xFF:
            pack, unpack = _U64.pack_into, _U64.unpack_from
            for i, cell in enumerate(cells):
                if size:
                    view[cell + offset : cell + offset + size] = payloads[i]
                pack(vol, cell, unpack(vol, cell)[0] | mask)
        elif not mask:
            for cell, payload in zip(cells, payloads):
                addr = cell + offset
                view[addr : addr + size] = payload
        elif not size:
            for cell in cells:
                vol[cell] |= mask
        else:
            for cell, payload in zip(cells, payloads):
                addr = cell + offset
                view[addr : addr + size] = payload
                vol[cell] |= mask
    n = len(cells)
    stats = region.stats
    if size:
        stats.writes += n
        stats.bytes_written += n * size
    if mask:
        stats.reads += n
        stats.bytes_read += n * ATOMIC_UNIT
        stats.writes += n
        stats.bytes_written += n * ATOMIC_UNIT


def _flush_batch(region, lines) -> bool:
    """Whether a backend may flush ``lines`` natively (else the loop
    runs, and raises where it would)."""
    return min(lines) >= 0 and max(lines) * region.line_size < region.size


class SimulatedPowerFailure(RuntimeError):
    """Raised mid-operation when an armed crash point trips.

    Crash-consistency tests arm a countdown with
    :meth:`NVMRegion.arm_crash`, run an operation, catch this exception,
    and then call :meth:`NVMRegion.crash` to materialise the power
    failure with a chosen schedule.
    """


@dataclass(frozen=True)
class SimConfig:
    """Bundle of latency model + cache geometry for one region."""

    latency: LatencyModel = PAPER_NVM
    cache: CacheConfig = field(default_factory=CacheConfig)
    #: ``clflush`` (True) vs ``clwb`` (False) semantics for persist;
    #: the paper's hardware has only ``clflush``, which invalidates.
    flush_invalidates: bool = True
    #: count medium writes per line (endurance analysis, Section 2.1);
    #: off by default — it adds a counter bump to every writeback
    track_wear: bool = False


@dataclass
class CrashReport:
    """What a simulated crash did to in-flight (unflushed) data."""

    #: dirty lines resident in the cache at crash time
    dirty_lines: int = 0
    #: 8-byte words whose new value reached the persistent image
    words_persisted: int = 0
    #: 8-byte words whose new value was lost
    words_dropped: int = 0

    @property
    def torn(self) -> bool:
        """Whether the crash both persisted and dropped data (a "torn"
        state, the hardest case for recovery)."""
        return self.words_persisted > 0 and self.words_dropped > 0


@dataclass(frozen=True)
class Allocation:
    """One named extent handed out by :meth:`NVMRegion.alloc`."""

    label: str
    addr: int
    size: int


class DualImage(Scans, Observable):
    """The cost-free half of a single-region backend: the two images,
    the bump allocator, the armed-crash countdown and the event gate,
    with everything that charges nothing (allocation, range checks, the
    failure-atomic store, ``flush_range``/``persist`` as loops of the
    subclass's ``clflush``/``mfence``, the word-granular :meth:`crash`,
    the peeks and :meth:`unpersisted_ranges`).

    A subclass decides what an access charges and where its dirty lines
    live; :meth:`crash` asks it through two hooks: ``_dirty_lines()``,
    the lines that may hold unflushed stores, in the order the schedule
    rules on them, and ``_forget_cache()``, which drops that state.

    Each store, flush and fence tests one attribute, ``_slow``, set only
    while a crash is armed or an observer is attached; :meth:`_pre_event`
    then ticks the countdown and calls the observers, in that order.
    Each subclass sets ``_in_place`` (see :class:`Scans`).
    """

    __slots__ = (
        "name",
        "size",
        "stats",
        "_line",
        "_persistent",
        "_volatile",
        "_alloc_cursor",
        "allocations",
        "abandoned_bytes",
        "_crash_countdown",
        "_observers",
        "_notify",
        "_slow",
        "_in_place",
    )

    def __init__(self, size: int, line_size: int, name: str) -> None:
        if size <= 0:
            raise ValueError("region size must be positive")
        self.name = name
        self.size = size
        self.stats = MemStats()
        self._line = line_size
        self._persistent = bytearray(size)
        self._volatile = bytearray(size)
        self._alloc_cursor = 0
        self.allocations: list[Allocation] = []
        #: bytes allocated but no longer reachable from any live structure
        #: (half-built expansion tables, orphaned split segments, retired
        #: directory arrays). The bump allocator never reuses space, so
        #: leaks are permanent — this counter makes them auditable instead
        #: of silent. Volatile bookkeeping: it does not survive a real
        #: reboot, but within one process it bounds the waste.
        self.abandoned_bytes = 0
        self._crash_countdown: int | None = None
        #: observers (:meth:`observe`) called as ``fn(kind, addr, size)``
        #: for "write" / "flush" / "fence" events, in program order.
        #: Tests use them to assert persist *ordering* (e.g. Algorithm 1
        #: flushes the key-value bytes before the bitmap store issues).
        self._observers = ()
        self._notify = None
        # the event gate: True only while an armed crash or an observer
        # needs per-event bookkeeping
        self._slow = False

    # ------------------------------------------------------------------
    # allocation

    def alloc(self, nbytes: int, *, align: int = ATOMIC_UNIT, label: str = "") -> int:
        """Bump-allocate ``nbytes`` with the given alignment.

        This is deliberately a linear allocator: the paper's structures
        are all allocated once at table-creation time, and a linear
        allocator keeps each structure contiguous — which is the property
        group sharing exploits.
        """
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if align <= 0 or align & (align - 1):
            raise ValueError(f"alignment must be a power of two, got {align}")
        addr = (self._alloc_cursor + align - 1) & ~(align - 1)
        if addr + nbytes > self.size:
            raise MemoryError(
                f"region '{self.name}' exhausted: need {nbytes} bytes at "
                f"{addr}, size {self.size}"
            )
        self._alloc_cursor = addr + nbytes
        self.allocations.append(
            Allocation(label or f"alloc{len(self.allocations)}", addr, nbytes)
        )
        return addr

    @property
    def bytes_allocated(self) -> int:
        """High-water mark of the bump allocator."""
        return self._alloc_cursor

    def mark_abandoned(self, nbytes: int) -> None:
        """Record ``nbytes`` of allocated space as permanently
        unreachable (e.g. a half-built expansion table after a failed
        rebuild, or a split segment orphaned by a crash)."""
        if nbytes < 0:
            raise ValueError("abandoned byte count must be non-negative")
        self.abandoned_bytes += nbytes

    @property
    def line_size(self) -> int:
        """Flush granularity in bytes (the cacheline)."""
        return self._line

    def _check_range(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.size:
            raise IndexError(
                f"access [{addr}, {addr + size}) outside region of size {self.size}"
            )

    # ------------------------------------------------------------------
    # the event gate and crash injection

    def _set_observers(self, observers) -> None:
        super()._set_observers(observers)
        self._slow = self._notify is not None or self._crash_countdown is not None

    def _pre_event(self, kind: str, addr: int, size: int) -> None:
        """What a store, flush or fence does first while ``_slow`` is
        set: the armed crash's tick, then the observers."""
        if self._crash_countdown is not None:
            self._crash_tick()
        notify = self._notify
        if notify is not None:
            notify(kind, addr, size)

    def arm_crash(self, after_events: int) -> None:
        """Arm a power failure that fires just before the ``after_events``-th
        subsequent *persistence-relevant* event (store, flush, or fence).

        Counting stores as well as flushes lets the fuzzer land crashes
        between a write and its flush — the window where torn data is
        possible."""
        if after_events <= 0:
            raise ValueError("after_events must be positive")
        self._crash_countdown = after_events
        self._slow = True

    def disarm_crash(self) -> None:
        """Cancel a pending armed crash (if it has not fired)."""
        self._crash_countdown = None
        self._slow = self._notify is not None

    def _crash_tick(self) -> None:
        """Count one event off the armed crash; fail at zero."""
        countdown = self._crash_countdown - 1
        if countdown <= 0:
            self._crash_countdown = None
            self._slow = self._notify is not None
            raise SimulatedPowerFailure("armed crash point reached")
        self._crash_countdown = countdown

    # ------------------------------------------------------------------
    # stores and persists that charge through the subclass

    def write_atomic_u64(self, addr: int, value: int) -> None:
        """The paper's 8-byte failure-atomic write.

        Requires natural alignment so the word cannot straddle two
        atomicity units. Semantically identical to ``write_u64`` (the
        crash model already guarantees aligned 8-byte words never tear);
        the separate name asserts alignment and documents intent at every
        commit point in the hashing schemes.
        """
        if addr % ATOMIC_UNIT:
            raise ValueError(
                f"atomic write requires {ATOMIC_UNIT}-byte alignment, got addr {addr}"
            )
        self.write_u64(addr, value)

    def flush_range(self, addr: int, size: int) -> None:
        """``clflush`` every line overlapping ``[addr, addr+size)``."""
        if size <= 0:
            return
        self._check_range(addr, size)
        line_size = self._line
        first = addr // line_size
        last = (addr + size - 1) // line_size
        for line in range(first, last + 1):
            self.clflush(line * line_size)

    def persist(self, addr: int, size: int = 8) -> None:
        """The paper's ``Persist``: ``clflush`` the range, then ``mfence``."""
        self.flush_range(addr, size)
        self.mfence()

    def _writeback_lines(self, lines) -> None:
        """Copy each of ``lines`` (distinct, any order) from the volatile
        view to the persistent image and count the medium writes, one
        slice copy per run of adjacent lines; a partial last line is
        copied as far as the region goes. No wear is recorded."""
        if not lines:
            return
        lines = sorted(lines)
        line_size = self._line
        written = 0
        start = lines[0]
        for prev, line in zip(lines, lines[1:] + [-1]):
            if line != prev + 1:
                lo, hi = start * line_size, min((prev + 1) * line_size, self.size)
                self._persistent[lo:hi] = self._volatile[lo:hi]
                written += hi - lo
                start = line
        stats = self.stats
        stats.writebacks += len(lines)
        stats.nvm_line_writes += len(lines)
        stats.nvm_bytes_written += written

    # ------------------------------------------------------------------
    # crash/recovery support

    def crash(self, schedule: CrashSchedule | None = None) -> CrashReport:
        """Simulate a power failure.

        For every line ``_dirty_lines()`` names, in its order, the
        schedule picks which modified 8-byte words reach the persistent
        image. Afterwards the volatile view is reset to the persistent
        image, no crash is armed and ``_forget_cache()`` has dropped the
        dirty lines — exactly the state recovery code sees at reboot.
        """
        schedule = schedule or drop_all_schedule()
        self._crash_countdown = None
        self._slow = self._notify is not None
        report = CrashReport()
        volatile, persistent = self._volatile, self._persistent
        for line in self._dirty_lines():
            start = line * self._line
            end = min(start + self._line, self.size)
            dirty_words = [
                off
                for off in range(start, end, ATOMIC_UNIT)
                if volatile[off : off + ATOMIC_UNIT]
                != persistent[off : off + ATOMIC_UNIT]
            ]
            if not dirty_words:
                continue
            report.dirty_lines += 1
            persisted = set(schedule.words_persisted(start, dirty_words))
            for off in dirty_words:
                if off in persisted:
                    persistent[off : off + ATOMIC_UNIT] = volatile[
                        off : off + ATOMIC_UNIT
                    ]
                    report.words_persisted += 1
                else:
                    report.words_dropped += 1
        volatile[:] = persistent
        self._forget_cache()
        return report

    # ------------------------------------------------------------------
    # introspection (tests and debugging; no costs charged)

    def peek_persistent(self, addr: int, size: int) -> bytes:
        """Read the persistent image directly (no cache, no cost)."""
        self._check_range(addr, size)
        return bytes(self._persistent[addr : addr + size])

    def peek_volatile(self, addr: int, size: int) -> bytes:
        """Read the volatile view directly (no cache, no cost)."""
        self._check_range(addr, size)
        return bytes(self._volatile[addr : addr + size])

    def unpersisted_ranges(self) -> list[tuple[int, int]]:
        """Return ``(addr, size)`` extents where the volatile view and the
        persistent image differ — i.e. data that would be at risk in a
        crash right now. Useful for durability assertions in tests."""
        return image_diff(self._volatile, self._persistent)


class NVMRegion(DualImage):
    """A simulated persistent memory region with a cache in front.

    All addresses are offsets into the region. Use :meth:`alloc` to carve
    named extents (tables allocate their levels and metadata blocks this
    way) and the ``read``/``write``/``persist`` family for data access.

    Each access is charged through :class:`~repro.nvm.cache.CacheSim`
    and the latency model; the dirty lines a crash rules on are the cache's.

    ``__slots__`` covers this class; subclasses (e.g.
    :class:`~repro.nvm.wearlevel.WearLevelledRegion`) may still add
    attributes — they get a ``__dict__`` of their own.
    """

    __slots__ = (
        "config",
        "_latency",
        "cache",
        "wear",
        "_prev_line",
        "_fast_line",
        "_per_line",
    )

    def __init__(
        self,
        size: int,
        config: SimConfig | None = None,
        *,
        name: str = "nvm",
    ) -> None:
        config = config or SimConfig()
        super().__init__(size, config.cache.line_size, name)
        self.config = config
        self._latency = config.latency
        self.cache = CacheSim(config.cache)
        self.wear: WearMap | None = (
            WearMap(size, self._line) if config.track_wear else None
        )
        # sequential-stream prefetcher state: the last line touched; a
        # miss on line N+1 right after touching line N is treated as
        # prefetch-covered (see LatencyModel.prefetch_hit_ns)
        self._prev_line = -(1 << 30)
        # fast-path marker: the last line run through the cache, which
        # is therefore resident and in MRU position until something
        # invalidates it (clflush of that line, or a crash). Distinct
        # from _prev_line, which is prefetcher state and must NOT be
        # cleared on invalidation.
        self._fast_line = -1
        # scans decode in place on this class only (see Scans)
        self._in_place = self.__class__ is NVMRegion
        # whether read windows and ascending store batches may be charged
        # once per line: on this class only, and not with wear tracking,
        # whose observers read the clock at each write-back
        self._per_line = self._in_place and self.wear is None

    # ------------------------------------------------------------------
    # cache plumbing

    def _writeback(self, line: int) -> None:
        """Copy one cacheline from the volatile view to the persistent
        image (the medium-write half of a flush or eviction)."""
        start = line * self._line
        end = min(start + self._line, self.size)
        self._persistent[start:end] = self._volatile[start:end]
        self.stats.writebacks += 1
        self.stats.nvm_line_writes += 1
        self.stats.nvm_bytes_written += end - start
        if self.wear is not None:
            self.wear.record(line)

    def _touch(self, addr: int, size: int, is_write: bool) -> None:
        """Run the touched line range through the cache simulator and
        charge hit/fill costs. ``size`` must be positive: a zero-size
        access touches no line, so callers skip the call."""
        line_size = self._line
        first = addr // line_size
        last = (addr + size - 1) // line_size
        stats = self.stats
        latency = self._latency
        if first == last:
            # single-line access — the common case (a header word, or a
            # cell that fits its line; 24-byte cells do straddle: cell 2
            # of a 64-aligned array spans bytes 48–71), kept free of the
            # range loop
            if first == self._fast_line:
                # repeat of the line touched last: still resident and in
                # MRU position (nothing else was accessed since), so
                # this is a hit with no possible eviction — skip the LRU
                # reorder and only upgrade the dirty flag
                self.cache.touch_mru(first, is_write)
                stats.cache_hits += 1
                stats.sim_time_ns += latency.cache_hit_ns
                return
            hit, evicted = self.cache.access(first, is_write=is_write)
            if hit:
                stats.cache_hits += 1
                stats.sim_time_ns += latency.cache_hit_ns
            elif first == self._prev_line + 1:
                # forward unit-stride miss: the stream prefetcher has
                # already pulled this line — cheap, and not a demand miss
                stats.prefetched_fills += 1
                stats.nvm_line_reads += 1
                stats.sim_time_ns += latency.prefetch_hit_ns
            else:
                stats.cache_misses += 1
                stats.nvm_line_reads += 1
                stats.sim_time_ns += latency.line_fill_ns
            self._prev_line = first
            self._fast_line = first
            if evicted is not None:
                victim, victim_dirty = evicted
                stats.evictions += 1
                if victim_dirty:
                    self._writeback(victim)
                    stats.sim_time_ns += latency.eviction_writeback_ns
            return
        for line in range(first, last + 1):
            hit, evicted = self.cache.access(line, is_write=is_write)
            if hit:
                stats.cache_hits += 1
                stats.sim_time_ns += latency.cache_hit_ns
            elif line == self._prev_line + 1:
                # forward unit-stride miss: the stream prefetcher has
                # already pulled this line — cheap, and not a demand miss
                stats.prefetched_fills += 1
                stats.nvm_line_reads += 1
                stats.sim_time_ns += latency.prefetch_hit_ns
            else:
                stats.cache_misses += 1
                stats.nvm_line_reads += 1
                stats.sim_time_ns += latency.line_fill_ns
            self._prev_line = line
            if evicted is not None:
                victim, victim_dirty = evicted
                stats.evictions += 1
                if victim_dirty:
                    self._writeback(victim)
                    stats.sim_time_ns += latency.eviction_writeback_ns
        # the final line is the one most recently run through the cache
        self._fast_line = last

    # ------------------------------------------------------------------
    # data path

    def read(self, addr: int, size: int) -> bytes:
        """Load ``size`` bytes from the volatile view."""
        if addr < 0 or size < 0 or addr + size > self.size:
            self._check_range(addr, size)
        if size:
            self._touch(addr, size, False)
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += size
        return bytes(self._volatile[addr : addr + size])

    def write(self, addr: int, data: bytes) -> None:
        """Store ``data``; it lands in the cache, not yet in NVM."""
        size = len(data)
        if addr < 0 or size < 0 or addr + size > self.size:
            self._check_range(addr, size)
        if self._slow:
            self._pre_event("write", addr, size)
        if size:
            self._touch(addr, size, True)
        stats = self.stats
        stats.writes += 1
        stats.bytes_written += size
        self._volatile[addr : addr + size] = data

    def read_u64(self, addr: int) -> int:
        """Load an 8-byte little-endian unsigned integer.

        Hot path of every header probe (:meth:`scan_clear_u64` funnels
        here), so this class unpacks straight from the volatile
        view instead of slicing a ``bytes`` through :meth:`read`.
        Subclasses that remap addresses (wear leveling) get the
        polymorphic :meth:`read` route; events are identical either way.
        """
        if self.__class__ is not NVMRegion:
            return _U64.unpack(self.read(addr, 8))[0]
        if addr < 0 or addr + 8 > self.size:
            self._check_range(addr, 8)
        self._touch(addr, 8, False)
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += 8
        return _U64.unpack_from(self._volatile, addr)[0]

    def write_u64(self, addr: int, value: int) -> None:
        """Store an 8-byte little-endian unsigned integer."""
        self.write(addr, _U64.pack(value))

    # ------------------------------------------------------------------
    # bulk probes
    #
    # The probes are :class:`~repro.nvm.decode.Scans`: this class
    # decodes a window or gather from the volatile view and charges the
    # event sequence of its per-word loop (the lines touched, in order,
    # and what each touch costs) line by line through
    # :meth:`_charge_reads`; subclasses (which may remap addresses, like
    # wear leveling) and windows with a cell outside the region run the
    # loop itself, so error behaviour is the loop's.

    def _charge_lines(
        self, touches: int, fills: int, prefetched: int, evictions: int, writebacks: int
    ) -> None:
        """Count a per-line charge: of ``touches`` touches, ``fills``
        filled a line (``prefetched`` of them covered by the prefetcher,
        the rest demand misses) and the others hit; the fills caused
        ``evictions`` evictions, ``writebacks`` of them dirty. The clock
        gets each cost times its count, which equals the per-touch adds
        because integer adds commute."""
        misses = fills - prefetched
        hits = touches - fills
        stats = self.stats
        stats.cache_hits += hits
        stats.cache_misses += misses
        stats.prefetched_fills += prefetched
        stats.nvm_line_reads += fills
        stats.evictions += evictions
        latency = self._latency
        stats.sim_time_ns += (
            hits * latency.cache_hit_ns
            + prefetched * latency.prefetch_hit_ns
            + misses * latency.line_fill_ns
            + writebacks * latency.eviction_writeback_ns
        )

    def _charge_window(self, cells: range, size: int) -> None:
        """Charge a strided read window with ``size <= step <= line`` once
        per line.

        Such a window touches every line from its first to its last, in
        non-decreasing order, so each line is entered once:
        :meth:`CacheSim.enter_run` runs them all (in O(sets × ways) once
        the run is at least twice the cache's capacity), and every fill
        after the head line follows the line before it (prefetch-covered).
        The remaining touches, repeats of the line entered last, are hits
        whose number is arithmetic: one touch per cell plus one per line
        boundary a cell crosses. :meth:`_charge_lines` adds them up."""
        n = len(cells)
        stats = self.stats
        line_size = self._line
        step = cells.step
        start = cells.start
        first = start // line_size
        last = (cells[-1] + size - 1) // line_size
        counts = _crossings(line_size, start % line_size, step, size)
        periods, rest = divmod(n, len(counts) - 1)
        touches = n + periods * counts[-1] + counts[rest]
        # a head line still MRU from the last access is a plain hit
        head = first + 1 if first == self._fast_line else first
        fills = misses = evictions = 0
        dirty = ()
        if head <= last:
            fills, head_filled, evictions, dirty = self.cache.enter_run(head, last + 1)
            if head_filled and head != self._prev_line + 1:
                misses = 1
            self._prev_line = last
        self._fast_line = last
        stats.reads += n
        stats.bytes_read += n * size
        for victim in dirty:
            self._writeback(victim)
        self._charge_lines(touches, fills, fills - misses, evictions, len(dirty))

    def _charge_reads(self, cells, size: int) -> None:
        """Charge one ``read(a, size)`` (``size > 0``) per address ``a`` of
        ``cells``, in order — every event of that loop of reads, without
        its per-word calls.

        A strided window of at least :data:`_MIN_WINDOW` cells that
        neither overlap nor skip a line is charged per line by
        :meth:`_charge_window`. Everything else (gathers, short windows,
        other strides, wear tracking, subclasses) runs the loop below:
        :meth:`CacheSim.access` once per line entered; a repeat touch of
        the line charged last is a hit on a resident MRU line, as in
        :meth:`_touch`. Dirty victims are written back in the reads'
        order, and ``_prev_line``/``_fast_line`` end as the reads leave
        them. The counters live in locals written back once at the end;
        the clock is also published before a dirty writeback, whose wear
        observers may read it."""
        if (
            type(cells) is range
            and self._per_line
            and len(cells) >= _MIN_WINDOW
            and size <= cells.step <= self._line
        ):
            self._charge_window(cells, size)
            return
        stats = self.stats
        access = self.cache.access
        latency = self._latency
        hit_ns = latency.cache_hit_ns
        line_size = self._line
        span = size - 1
        fast = self._fast_line
        prev = self._prev_line
        sim = stats.sim_time_ns
        hits = misses = prefetched = evictions = 0
        for addr in cells:
            line = addr // line_size
            last = (addr + span) // line_size
            if line == fast:
                hits += 1
                sim += hit_ns
                if line == last:
                    continue
                line += 1
            while True:
                hit, evicted = access(line, is_write=False)
                if hit:
                    hits += 1
                    sim += hit_ns
                elif line == prev + 1:
                    prefetched += 1
                    sim += latency.prefetch_hit_ns
                else:
                    misses += 1
                    sim += latency.line_fill_ns
                prev = line
                if evicted is not None:
                    evictions += 1
                    if evicted[1]:
                        stats.sim_time_ns = sim
                        self._writeback(evicted[0])
                        sim += latency.eviction_writeback_ns
                if line == last:
                    break
                line += 1
            fast = last
        self._prev_line = prev
        self._fast_line = fast
        n = len(cells)
        stats.reads += n
        stats.bytes_read += n * size
        stats.cache_hits += hits
        if misses or prefetched:  # fills, and the evictions they caused
            stats.cache_misses += misses
            stats.prefetched_fills += prefetched
            stats.nvm_line_reads += misses + prefetched
            stats.evictions += evictions
        stats.sim_time_ns = sim

    # ------------------------------------------------------------------
    # bulk stores
    #
    # Like a probe, a bulk store's contract is the event sequence of its
    # per-call loop (:func:`_store_cells_loop`, and a ``clflush`` per line).
    # This class stores into the volatile view and charges that
    # sequence once per line (ascending store batches) or per flushed
    # line; subclasses, an armed crash and an attached observer run the
    # loop itself, so every event ticks the countdown and reaches the
    # observers.

    def store_cells(
        self, cells, payloads=None, offset: int = 8, mask: int = 0
    ) -> None:
        """Per cell of ``cells``, in order: ``write(cell + offset,
        payloads[i])``, then ``write_atomic_u64(cell, read_u64(cell) |
        mask)`` — Algorithm 1's key-value store and bitmap commit over a
        batch, without the flushes. Either half is skipped:
        ``payloads=None`` or ``mask=0``.

        The contract is the event sequence of that loop. A batch of at
        least :data:`_MIN_BATCH` strictly ascending cells, each touching
        at most ``line_size`` bytes, on a cache of at least 2 sets and
        without wear tracking, is charged once per line by
        :meth:`_store_lines`; every other batch (and every batch of a
        subclass, an armed crash or an observed region) runs
        :func:`_store_cells_loop`."""
        if len(cells) >= _MIN_BATCH and self._per_line and not self._slow:
            size = _store_batch(self, cells, payloads, offset, mask)
            if size is not None and self._store_lines(
                cells, payloads, offset, mask, size
            ):
                return
        _store_cells_loop(self, cells, payloads, offset, mask)

    def _store_lines(self, cells, payloads, offset: int, mask: int, size: int) -> bool:
        """Charge and apply an ascending store batch once per line, or
        return False with nothing changed (DESIGN.md decision 23).

        The batch's touches with repeats of the line touched just before
        (MRU hits) dropped enter the cache as writes in one
        :meth:`CacheSim._enter_lines` call; the other touches are hits,
        counted with the fills by :meth:`_charge_lines`, as in
        :meth:`_charge_window`. The stores land as slices between the
        two halves of the dirty victims: one above the line that
        evicted it has not been reached by the batch yet, one below has
        had all of its stores. That holds because, with strictly
        ascending cells, extents of at most one line and at least 2
        sets, each set's lines are entered in ascending order and every
        touch of a line comes before the next line of its set."""
        line_size = self._line
        extent: list[int] = []
        if size:
            extent += (offset, offset + size)
        if mask:
            extent += (0, ATOMIC_UNIT)
        if (
            max(extent) - min(extent) > line_size
            or self.config.cache.n_sets < 2
            or not all(map(lt, cells, islice(cells, 1, None)))
        ):
            return False
        # per cell: the payload's first and last line (the same line
        # unless it straddles), then the header line, touched twice
        n = len(cells)
        touches = 0
        columns = []
        if size:
            end = offset + size - 1
            firsts = [(cell + offset) // line_size for cell in cells]
            lasts = [(cell + end) // line_size for cell in cells]
            columns += (firsts, lasts)
            touches = n + sum(lasts) - sum(firsts)
        if mask:
            columns.append([cell // line_size for cell in cells])
            touches += 2 * n
        sequence = [0] * (len(columns) * n)
        for i, column in enumerate(columns):
            sequence[i :: len(columns)] = column
        fast = self._fast_line
        cache = self.cache
        if sequence[0] == fast:
            cache.touch_mru(fast, True)
        entered = [
            line
            for before, line in zip(chain((fast,), sequence), sequence)
            if line != before
        ]
        victims: list[tuple[int, int]] = []
        fills, prefetched, evictions = cache._enter_lines(
            entered, victims, True, self._prev_line
        )
        if entered:
            self._prev_line = entered[-1]
        self._fast_line = sequence[-1]
        self._writeback_lines([v for line, v in victims if v > line])
        _apply_stores(self, cells, payloads, offset, size, mask)
        self._writeback_lines([v for line, v in victims if v < line])
        self._charge_lines(touches, fills, prefetched, evictions, len(victims))
        return True

    def flush_lines(self, lines) -> None:
        """``clflush(line * line_size)`` per line number of ``lines``, in
        order — the flush half of a batch commit.

        The contract is the event sequence of that loop; the fused path
        runs each line through the cache once and charges the flush
        costs in the loop's order."""
        if (
            len(lines) < _MIN_BATCH
            or self.__class__ is not NVMRegion
            or self._slow
            or not _flush_batch(self, lines)
        ):
            for line in lines:
                self.clflush(line * self._line)
            return
        stats = self.stats
        cache = self.cache
        invalidate = self.config.flush_invalidates
        clean_ns = self._latency.flush_cost(False)
        dirty_ns = self._latency.flush_cost(True)
        fast = self._fast_line
        sim = stats.sim_time_ns
        dirty = 0
        for line in lines:
            if invalidate:
                was_dirty = cache.flush(line)[1]
                if line == fast:
                    fast = -1
            else:
                was_dirty = cache.writeback(line)
            if was_dirty:
                stats.sim_time_ns = sim
                self._writeback(line)
                dirty += 1
                sim += dirty_ns
            else:
                sim += clean_ns
        self._fast_line = fast
        stats.flushes += len(lines)
        stats.dirty_flushes += dirty
        stats.sim_time_ns = sim

    # ------------------------------------------------------------------
    # persistence primitives

    def clflush(self, addr: int) -> None:
        """Flush (and, with ``clflush`` semantics, invalidate) the line
        containing ``addr``. A dirty line pays the NVM write penalty."""
        self._check_range(addr, 1)
        if self._slow:
            self._pre_event("flush", addr, self._line)
        line = addr // self._line
        if self.config.flush_invalidates:
            was_dirty = self.cache.flush(line)[1]
            if line == self._fast_line:
                # the invalidated line is no longer resident; the
                # prefetcher state (_prev_line) deliberately survives
                self._fast_line = -1
        else:
            was_dirty = self.cache.writeback(line)
        self.stats.flushes += 1
        if was_dirty:
            self._writeback(line)
            self.stats.dirty_flushes += 1
        self.stats.sim_time_ns += self._latency.flush_cost(was_dirty)

    def mfence(self) -> None:
        """Memory fence: orders stores (a no-op for correctness in this
        sequential simulator) and charges its cost."""
        if self._slow:
            self._pre_event("fence", 0, 0)
        self.stats.fences += 1
        self.stats.sim_time_ns += self._latency.fence_ns

    sfence = mfence

    # ------------------------------------------------------------------
    # crash hooks

    def _dirty_lines(self) -> list[int]:
        """The cache's dirty lines, in its own set-major order: a
        ``random_schedule`` crash draws one value per dirty word in this
        order, so it is part of the crash's result."""
        return list(self.cache.dirty_lines())

    def _forget_cache(self) -> None:
        """Reboot with a cold cache."""
        self.cache.invalidate_all()
        self._fast_line = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NVMRegion(name={self.name!r}, size={self.size}, "
            f"allocated={self._alloc_cursor}, tech={self._latency.name})"
        )
