"""Tests for the sequential-stream prefetcher model.

The prefetcher is the substrate mechanism behind the paper's central
cache-efficiency argument: contiguous collision cells (linear probing
clusters, group-hashing level-2 groups) are cheap to scan; scattered
ones (path hashing levels) are not.
"""

from repro.nvm import CacheConfig, NVMRegion, SimConfig
from repro.nvm.latency import PAPER_NVM

CFG = SimConfig(cache=CacheConfig(size_bytes=4096, line_size=64, associativity=2))


def region(size=1 << 16) -> NVMRegion:
    return NVMRegion(size, CFG)


def test_sequential_scan_counts_one_demand_miss():
    r = region()
    for line in range(8):
        r.read(line * 64, 8)
    assert r.stats.cache_misses == 1
    assert r.stats.prefetched_fills == 7


def test_random_jumps_all_miss():
    r = region()
    # stride of 3 lines breaks the next-line pattern
    for line in (0, 3, 6, 9):
        r.read(line * 64, 8)
    assert r.stats.cache_misses == 4
    assert r.stats.prefetched_fills == 0


def test_prefetched_access_is_cheaper():
    r1 = region()
    r1.read(0, 8)
    t0 = r1.stats.sim_time_ns
    r1.read(64, 8)  # next line: prefetched
    prefetched_cost = r1.stats.sim_time_ns - t0

    r2 = region()
    r2.read(0, 8)
    t0 = r2.stats.sim_time_ns
    r2.read(3 * 64, 8)  # jump: demand miss
    miss_cost = r2.stats.sim_time_ns - t0

    assert prefetched_cost == PAPER_NVM.prefetch_hit_ns
    assert miss_cost == PAPER_NVM.line_fill_ns
    assert prefetched_cost < miss_cost


def test_multiline_access_prefetches_trailing_lines():
    r = region()
    r.read(0, 200)  # touches lines 0..3
    assert r.stats.cache_misses == 1
    assert r.stats.prefetched_fills == 3


def test_backward_scan_is_not_prefetched():
    r = region()
    for line in (5, 4, 3, 2):
        r.read(line * 64, 8)
    assert r.stats.cache_misses == 4
    assert r.stats.prefetched_fills == 0


def test_hit_does_not_count_as_prefetch():
    r = region()
    r.read(0, 8)
    r.read(0, 8)
    assert r.stats.cache_hits == 1
    assert r.stats.prefetched_fills == 0


def test_stream_resumes_after_interruption():
    """line N hit, then line N+1 miss still counts as prefetched (the
    stream detector keys on the previous touched line, hit or miss)."""
    r = region()
    r.read(0, 8)   # miss line 0
    r.read(0, 16)  # hit line 0
    r.read(64, 8)  # line 1 = prev+1: prefetched
    assert r.stats.prefetched_fills == 1
