"""Unit tests for NVMRegion: data path, persistence semantics, allocator."""

import pytest

from repro.nvm import CacheConfig, NVMRegion, SimConfig
from repro.nvm.latency import PAPER_NVM
from repro.nvm.memory import SimulatedPowerFailure

CFG = SimConfig(cache=CacheConfig(size_bytes=4096, line_size=64, associativity=2))


def region(size=1 << 16) -> NVMRegion:
    return NVMRegion(size, CFG)


# ---------------------------------------------------------------- basics


def test_read_back_what_was_written():
    r = region()
    r.write(100, b"hello world!")
    assert r.read(100, 12) == b"hello world!"


def test_u64_roundtrip():
    r = region()
    r.write_u64(64, 0xDEADBEEFCAFEF00D)
    assert r.read_u64(64) == 0xDEADBEEFCAFEF00D


def test_out_of_range_access_rejected():
    r = region(1024)
    with pytest.raises(IndexError):
        r.read(1020, 8)
    with pytest.raises(IndexError):
        r.write(1024, b"x")
    with pytest.raises(IndexError):
        r.read(-1, 4)


def test_zero_size_region_rejected():
    with pytest.raises(ValueError):
        NVMRegion(0)


# ----------------------------------------------------------- persistence


def test_write_is_not_persistent_until_flushed():
    r = region()
    r.write(128, b"volatile")
    assert r.peek_volatile(128, 8) == b"volatile"
    assert r.peek_persistent(128, 8) == bytes(8)


def test_clflush_persists_dirty_line():
    r = region()
    r.write(128, b"durable!")
    r.clflush(128)
    assert r.peek_persistent(128, 8) == b"durable!"


def test_persist_covers_multi_line_ranges():
    r = region()
    data = bytes(range(200 % 256)) * 1
    payload = bytes(i % 256 for i in range(200))
    r.write(60, payload)  # spans 5 lines starting mid-line
    r.persist(60, 200)
    assert r.peek_persistent(60, 200) == payload


def test_flush_clean_line_costs_base_only():
    r = region()
    r.read(0, 8)  # line resident, clean
    t0 = r.stats.sim_time_ns
    r.clflush(0)
    assert r.stats.sim_time_ns - t0 == PAPER_NVM.flush_base_ns


def test_flush_dirty_line_costs_write_penalty():
    r = region()
    r.write(0, b"x")
    t0 = r.stats.sim_time_ns
    r.clflush(0)
    assert (
        r.stats.sim_time_ns - t0
        == PAPER_NVM.flush_base_ns + PAPER_NVM.nvm_write_extra_ns
    )


def test_clflush_invalidates_next_read_misses():
    r = region()
    r.write(0, b"x")
    r.clflush(0)
    misses_before = r.stats.cache_misses
    r.read(0, 1)
    assert r.stats.cache_misses == misses_before + 1


def test_clwb_mode_keeps_line_resident():
    cfg = SimConfig(
        cache=CacheConfig(size_bytes=4096, line_size=64, associativity=2),
        flush_invalidates=False,
    )
    r = NVMRegion(1 << 16, cfg)
    r.write(0, b"x")
    r.clflush(0)
    assert r.peek_persistent(0, 1) == b"x"
    misses_before = r.stats.cache_misses
    r.read(0, 1)  # still cached: hit
    assert r.stats.cache_misses == misses_before


def test_eviction_writes_back_dirty_line():
    # associativity 2, 32 sets (4096/64/2): lines 0, 32, 64 share set 0
    r = region()
    r.write(0, b"evictme!")
    r.read(32 * 64, 1)
    r.read(64 * 64, 1)  # evicts line 0 (LRU), which is dirty
    assert r.peek_persistent(0, 8) == b"evictme!"
    assert r.stats.writebacks >= 1


def test_mfence_counts_and_charges():
    r = region()
    fences = r.stats.fences
    t0 = r.stats.sim_time_ns
    r.mfence()
    assert r.stats.fences == fences + 1
    assert r.stats.sim_time_ns - t0 == PAPER_NVM.fence_ns


def test_unpersisted_ranges_tracks_dirty_data():
    r = region(1024)
    assert r.unpersisted_ranges() == []
    r.write(64, b"a" * 16)
    ranges = r.unpersisted_ranges()
    assert ranges == [(64, 16)]
    r.persist(64, 16)
    assert r.unpersisted_ranges() == []


# ---------------------------------------------------------- atomic write


def test_atomic_write_requires_alignment():
    r = region()
    with pytest.raises(ValueError):
        r.write_atomic_u64(12, 1)
    r.write_atomic_u64(16, 7)
    assert r.read_u64(16) == 7


# ------------------------------------------------------------- allocator


def test_alloc_respects_alignment():
    r = region()
    a = r.alloc(10, align=64)
    b = r.alloc(10, align=64)
    assert a % 64 == 0 and b % 64 == 0
    assert b >= a + 10


def test_alloc_exhaustion_raises():
    r = region(256)
    r.alloc(200)
    with pytest.raises(MemoryError):
        r.alloc(100)


def test_alloc_labels_recorded():
    r = region()
    r.alloc(8, label="meta")
    assert r.allocations[-1].label == "meta"
    assert r.bytes_allocated >= 8


def test_alloc_rejects_bad_alignment():
    r = region()
    with pytest.raises(ValueError):
        r.alloc(8, align=12)


# --------------------------------------------------------- crash arming


def test_armed_crash_fires_on_write():
    r = region()
    r.arm_crash(2)
    r.write(0, b"a")  # event 1
    with pytest.raises(SimulatedPowerFailure):
        r.write(8, b"b")  # event 2: boom
    # the failed write never happened
    assert r.peek_volatile(8, 1) == b"\0"


def test_disarm_cancels():
    r = region()
    r.arm_crash(1)
    r.disarm_crash()
    r.write(0, b"a")  # no failure


def test_crash_clears_armed_state():
    r = region()
    r.arm_crash(100)
    r.crash()
    for _ in range(200):
        r.write(0, b"a")  # never fires


def test_arm_crash_rejects_nonpositive():
    r = region()
    with pytest.raises(ValueError):
        r.arm_crash(0)


def test_stats_byte_accounting():
    r = region()
    r.write(0, b"abcdef")
    r.read(0, 4)
    assert r.stats.bytes_written == 6
    assert r.stats.bytes_read == 4
    assert r.stats.writes == 1
    assert r.stats.reads == 1


def test_zero_size_access_touches_no_line():
    """A zero-size read or write is counted but touches, dirties and
    charges no line, aligned or not — and leaves the fast-line marker on
    the line really touched last (an aligned zero-size read once moved it
    to the line before, and the next touch of that line raised KeyError)."""
    r = region()
    r.read(200, 8)
    before = r.stats.snapshot()
    r.read(64, 0)
    r.read(70, 0)
    r.write(128, b"")
    r.write(131, b"")
    delta = r.stats.delta(before)
    assert (delta.reads, delta.writes, delta.bytes_read, delta.bytes_written) == (
        2,
        2,
        0,
        0,
    )
    assert delta.sim_time_ns == 0
    assert delta.cache_hits + delta.cache_misses + delta.prefetched_fills == 0
    assert r._fast_line == 200 // 64
    assert not r.cache.contains(1) and not r.cache.contains(2)
    assert list(r.cache.dirty_lines()) == []
    r.read(0, 8)
    assert r.stats.cache_misses == 2
