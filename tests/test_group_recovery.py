"""Tests for Algorithm 4 — group hashing's crash recovery."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import count_cache_calls, random_items, small_region
from tests.test_scan_primitives import _Ref

from repro import (
    CacheConfig,
    GroupHashTable,
    NVMRegion,
    SimConfig,
    random_schedule,
    recover_group_table,
)
from repro.nvm import SimulatedPowerFailure, persist_all_schedule
from repro.nvm.crash import FunctionSchedule
from repro.obs import MetricsRegistry


def build(n_cells=512, group_size=32, seed=1):
    region = small_region()
    return region, GroupHashTable(region, n_cells, group_size=group_size, seed=seed)


def crash_during(region, table, op, *args, at_event=1, schedule=None):
    """Arm a crash, run op, materialise the failure, reattach."""
    region.arm_crash(at_event)
    with pytest.raises(SimulatedPowerFailure):
        op(*args)
    report = region.crash(schedule or persist_all_schedule())
    table.reattach()
    return report


def test_recovery_returns_count():
    region, table = build()
    items = random_items(60, seed=2)
    for k, v in items:
        table.insert(k, v)
    region.crash()
    table.reattach()
    assert recover_group_table(table) == 60
    assert table.count == 60


def test_fig1_case1_crash_before_bitmap_commit():
    """Figure 1 case 1: kv written (and persisted), crash before the
    bitmap flips → recovery clears the orphan kv; item simply lost."""
    region, table = build()
    pre = random_items(20, seed=3)
    for k, v in pre:
        table.insert(k, v)
    victim_key, victim_value = b"\xAB" * 8, b"\xCD" * 8
    # events in insert: write kv(1), flush(2), fence(3), write bitmap(4)...
    # crash at event 4 = after kv persisted, before bitmap write
    crash_during(region, table, table.insert, victim_key, victim_value, at_event=4)
    table.recover()
    assert table.query(victim_key) is None
    assert table.count == 20
    assert table.check_count()
    for k, v in pre:
        assert table.query(k) == v
    # no cell anywhere contains the orphan payload
    for k, v in table.items():
        assert k != victim_key


def test_fig1_case3_torn_value_write():
    """Figure 1 case 3: the kv write itself tears (one 8-byte word
    persists, the other does not) → recovery resets the partial cell."""
    region, table = build()
    victim_key = b"\xAA" * 8
    # crash ON the kv flush: the kv write happened (event 1), crash at
    # event 2 (the flush), so the line is dirty and the schedule tears it
    tear = FunctionSchedule(lambda line, offs: offs[:1])  # persist only 1 word
    crash_during(
        region, table, table.insert, victim_key, b"\xBB" * 8, at_event=2, schedule=tear
    )
    table.recover()
    assert table.query(victim_key) is None
    assert table.check_count()
    # every unoccupied cell is fully zeroed after recovery
    for addr in table._iter_cell_addrs():
        if not region.peek_persistent(addr, 1)[0] & 1:
            assert region.peek_persistent(addr + 8, 16) == bytes(16)


def test_fig1_case2_count_mismatch_repaired():
    """Figure 1 case 2: bitmap committed but count not yet incremented →
    recovery recounts by scanning (the item IS present)."""
    region, table = build()
    pre = random_items(10, seed=4)
    for k, v in pre:
        table.insert(k, v)
    key, value = b"\x11" * 8, b"\x22" * 8
    # events: kv write(1) flush(2) fence(3) bitmap write(4) flush(5)
    # fence(6) count write(7)... crash at event 7: bitmap persisted,
    # count not updated
    crash_during(region, table, table.insert, key, value, at_event=7)
    assert table.persisted_count == 10  # stale
    table.recover()
    assert table.query(key) == value  # committed by the bitmap flip
    assert table.count == 11
    assert table.check_count()


def test_delete_crash_after_bitmap_clear():
    """Algorithm 3 ordering: bitmap cleared first. A crash between the
    clear and the kv wipe leaves garbage that recovery resets; the
    delete is effectively committed."""
    region, table = build()
    key = b"\x33" * 8
    table.insert(key, b"\x44" * 8)
    count_before = table.count
    # delete events: bitmap write(1) flush(2) fence(3) kv clear(4)...
    crash_during(region, table, table.delete, key, at_event=4)
    table.recover()
    assert table.query(key) is None
    assert table.count == count_before - 1
    assert table.check_count()


def test_delete_crash_before_bitmap_clear_keeps_item():
    region, table = build()
    key = b"\x55" * 8
    table.insert(key, b"\x66" * 8)
    # crash at event 1 = before the bitmap write executes
    crash_during(region, table, table.delete, key, at_event=1)
    table.recover()
    assert table.query(key) == b"\x66" * 8
    assert table.count == 1


def test_recovery_idempotent():
    region, table = build()
    for k, v in random_items(30, seed=5):
        table.insert(k, v)
    crash_during(region, table, table.insert, b"\x77" * 8, b"\x88" * 8, at_event=2)
    table.recover()
    state1 = sorted(table.items())
    count1 = table.count
    table.recover()
    assert sorted(table.items()) == state1
    assert table.count == count1


def test_recovery_cost_scales_with_table_size():
    """Table 3's shape: the recovery scan is linear in table cells."""
    times = []
    for n_cells in (256, 512, 1024):
        region, table = build(n_cells=n_cells, group_size=32)
        region.crash()
        table.reattach()
        before = region.stats.sim_time_ns
        table.recover()
        times.append(region.stats.sim_time_ns - before)
    assert times[1] > times[0]
    assert times[2] > times[1]
    # roughly linear: doubling cells ~doubles time (loose bounds)
    assert 1.5 < times[2] / times[1] < 2.8


def test_recovery_after_clean_crash_touches_nothing():
    """On a cleanly persisted table, recovery must not write any cell
    (only the count field)."""
    region, table = build()
    for k, v in random_items(40, seed=6):
        table.insert(k, v)
    region.crash()
    table.reattach()
    writes_before = region.stats.writes
    table.recover()
    # only the count rewrite
    assert region.stats.writes - writes_before <= 1


# ----------------------------------------------------------------------
# the fused recovery scan against the per-cell loop


def _crashed_table(region_cls, rng, cache, flush_invalidates, crash_at, torn):
    """A 128-cell table on ``region_cls`` with a ``(size_bytes,
    associativity)`` cache after a random op mix, a crash armed
    ``crash_at`` events into further ops, a random crash schedule, and
    non-zero key-value bytes written into the ``torn`` free cells."""
    size_bytes, associativity = cache
    config = SimConfig(
        cache=CacheConfig(
            size_bytes=size_bytes, line_size=64, associativity=associativity
        ),
        flush_invalidates=flush_invalidates,
    )
    region = region_cls(1 << 16, config)
    table = GroupHashTable(region, 128, group_size=16, seed=1)
    metrics = MetricsRegistry()
    table.instrument(metrics=metrics)
    live: list[bytes] = []
    region.arm_crash(crash_at)
    try:
        for _ in range(200):
            if live and rng.random() < 0.3:
                table.delete(live.pop(rng.randrange(len(live))))
            elif table.insert(key := rng.randbytes(8), rng.randbytes(8)):
                live.append(key)
    except SimulatedPowerFailure:
        pass
    region.disarm_crash()
    region.crash(random_schedule(rng.randrange(1 << 30)))
    table.reattach()
    cells = list(table._iter_cell_addrs())
    for i in torn:
        addr = cells[i % len(cells)]
        if not region.peek_volatile(addr, 1)[0] & 1:
            region.write(addr + 8 + rng.randrange(16), b"\x5a")
    return region, table, metrics


def _state(region, table, metrics):
    return (
        table.count,
        region.stats.as_dict(),
        [list(bucket.items()) for bucket in region.cache._sets],
        region._prev_line,
        region._fast_line,
        bytes(region._persistent),
        bytes(region._volatile),
        metrics.as_dict(),
    )


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    cache=st.sampled_from([(1024, 2), (512, 1), (512, 2)]),
    flush_invalidates=st.booleans(),
    crash_at=st.integers(1, 400),
    torn=st.lists(st.sampled_from([0, 1, 2, 63, 64, 127, 5, 70]), max_size=5),
)
def test_fused_recovery_matches_per_cell_loop(
    seed, cache, flush_invalidates, crash_at, torn
):
    """Under random op mixes, crash points and schedules, with torn cells
    at level starts and ends, Algorithm 4 on NVMRegion (fused scans)
    and on a region running the per-cell loops leaves the same count,
    counters, cache sets, markers, both images and recovery metrics.
    A 24-line level window is 1.5x the 16-line cache, so it enters that
    cache line by line, and 3x the 8-line caches, so it enters those a
    set at a time; a torn cell's line, written after the crash, stays
    resident (dirty) inside the window and sends its set down the
    per-line step."""
    states = []
    for region_cls in (NVMRegion, _Ref):
        region, table, metrics = _crashed_table(
            region_cls, random.Random(seed), cache, flush_invalidates, crash_at, torn
        )
        recover_group_table(table)
        assert table.check_count()
        assert table.integrity_violations() == []
        states.append(_state(region, table, metrics))
    assert states[0] == states[1]


def test_cold_recovery_charges_one_access_per_line(monkeypatch):
    """A cold recovery of 4096 24-byte cells (two 64-aligned levels of
    768 lines each) enters each line about once and never runs
    touch_mru; the per-cell loop ran one cache call per cell."""
    region = NVMRegion(1 << 20)
    table = GroupHashTable(region, 4096, group_size=32)
    for k, v in random_items(1000, seed=7):
        table.insert(k, v)
    region.crash()
    table.reattach()
    calls = count_cache_calls(monkeypatch)
    reads = region.stats.reads
    assert table.recover() is None and table.count == 1000
    assert region.stats.reads - reads == 4096
    assert calls["touch_mru"] == 0
    assert 2 * 768 <= calls["access"] <= 2 * 768 + 2
