"""Tests for the bulk-loading fast path."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import random_items, small_region
from tests.test_batch_primitives import _loop_calls
from tests.test_scan_primitives import _oracle_state, _Ref

from repro import (
    CacheConfig,
    GroupHashTable,
    NVMRegion,
    RawBackend,
    SimConfig,
    bulk_load,
)


def build(n_cells=512, group_size=32, n_hash_functions=1, region=None):
    region = region or small_region()
    return region, GroupHashTable(
        region, n_cells, group_size=group_size, n_hash_functions=n_hash_functions
    )


@pytest.mark.parametrize("n_hash_functions", [1, 2])
def test_bulk_load_equivalent_to_inserts(n_hash_functions):
    """Same items, same order → cell-for-cell identical table."""
    items = random_items(300, seed=1)
    r1, incremental = build(n_hash_functions=n_hash_functions)
    for k, v in items:
        incremental.insert(k, v)
    r2, bulk = build(n_hash_functions=n_hash_functions)
    rejected = bulk_load(bulk, items)
    assert rejected == []
    assert bulk.count == incremental.count
    assert dict(bulk.items()) == dict(incremental.items())
    # placement policy identical: every cell byte-for-byte equal
    for a1, a2 in zip(incremental._iter_cell_addrs(), bulk._iter_cell_addrs()):
        assert r1.peek_volatile(a1, 24) == r2.peek_volatile(a2, 24)


def test_bulk_load_is_fully_persistent():
    region, table = build()
    bulk_load(table, random_items(200, seed=2))
    assert region.unpersisted_ranges() == []
    region.crash()
    table.reattach()
    assert table.count == 200
    assert table.check_count()


def test_bulk_load_much_cheaper_than_inserts():
    items = random_items(400, seed=3)
    r1, incremental = build()
    for k, v in items:
        incremental.insert(k, v)
    r2, bulk = build()
    bulk_load(bulk, items)
    assert r2.stats.flushes < 0.4 * r1.stats.flushes
    assert r2.stats.sim_time_ns < 0.5 * r1.stats.sim_time_ns


def test_bulk_load_respects_existing_items():
    _, table = build()
    pre = random_items(50, seed=4)
    for k, v in pre:
        table.insert(k, v)
    new = random_items(100, seed=5)
    bulk_load(table, new)
    state = dict(table.items())
    for k, v in pre + new:
        assert state[k] == v
    assert table.count == 150


def test_bulk_load_reports_overflow():
    _, table = build(n_cells=64, group_size=4)
    items = random_items(200, seed=6)
    rejected = bulk_load(table, items)
    assert rejected  # 200 items into 64 cells must overflow
    assert table.count + len(rejected) == 200
    placed = dict(table.items())
    for k, v in rejected:
        assert k not in placed


def test_bulk_load_prescan_uses_two_range_peeks(monkeypatch):
    """The occupancy pre-scan reads each level array once — two range
    peeks total, never one peek per cell (pinning the fix for the
    per-cell peek storm)."""
    region, table = build()
    for k, v in random_items(60, seed=8):
        table.insert(k, v)
    calls: list[tuple[int, int]] = []
    orig = type(region).peek_volatile

    def counting_peek(self, addr, size):
        calls.append((addr, size))
        return orig(self, addr, size)

    monkeypatch.setattr(type(region), "peek_volatile", counting_peek)
    bulk_load(table, random_items(100, seed=9))
    assert len(calls) == 2
    # and they are *range* reads covering the level arrays, not cells
    cell_size = table.codec.cell_size
    assert all(size == cell_size * table.layout.n_cells_level for _, size in calls)


def test_bulk_load_empty():
    _, table = build()
    assert bulk_load(table, []) == []
    assert table.count == 0


def test_normal_operations_after_bulk_load():
    """The table returns to Algorithm 1 semantics afterwards."""
    region, table = build()
    items = random_items(250, seed=7)
    bulk_load(table, items)
    extra = random_items(270, seed=7)[250:]
    for k, v in extra:
        assert table.insert(k, v)
    for k, _ in items[:50]:
        assert table.delete(k)
    assert table.check_count()
    # crash/recover still sound
    region.crash()
    table.reattach()
    table.recover()
    assert table.check_count()


@pytest.mark.parametrize("n_hash_functions", [1, 2])
def test_bulk_load_overflow_walks_every_hash_function(n_hash_functions):
    """240 keys on 256 cells with groups of 8 overflow: an item whose
    home cell and group are full under the first hash function tries the
    next, as ``insert`` does, so both reject the same items and build
    the same images (a bulk load that tried only the first function
    rejected 23 items here where two-function inserts rejected 16)."""
    items = random_items(240, seed=11)
    r1, incremental = build(256, 8, n_hash_functions)
    inserted = [incremental.insert(k, v) for k, v in items]
    r2, bulk = build(256, 8, n_hash_functions)
    rejected = bulk_load(bulk, items)
    assert rejected == [item for item, ok in zip(items, inserted) if not ok]
    assert len(rejected) == {1: 23, 2: 16}[n_hash_functions]
    assert bulk.count == incremental.count
    for a1, a2 in zip(incremental._iter_cell_addrs(), bulk._iter_cell_addrs()):
        assert r1.peek_volatile(a1, 24) == r2.peek_volatile(a2, 24)


@pytest.mark.parametrize("backend", ["sim", "raw"])
def test_bulk_load_checks_widths_before_storing(backend):
    """One 5-byte key anywhere in the batch raises ValueError before any
    store: both images, the stats and the count stay as they were (the
    check used to run per write, halfway through the stores, leaving set
    bitmaps, count 0 and unpersisted ranges behind)."""
    region = small_region() if backend == "sim" else RawBackend(4 << 20)
    _, table = build(region=region)
    items = random_items(40, seed=12)
    items[25] = (b"\x01" * 5, items[25][1])
    stats = region.stats.as_dict()
    size = region.size
    volatile = region.peek_volatile(0, size)
    persistent = region.peek_persistent(0, size)
    with pytest.raises(ValueError, match="item must be 8\\+8 bytes"):
        bulk_load(table, items)
    assert region.stats.as_dict() == stats
    assert region.peek_volatile(0, size) == volatile
    assert region.peek_persistent(0, size) == persistent
    assert table.count == 0
    assert region.unpersisted_ranges() == []
    assert table.integrity_violations() == []


def test_bulk_load_accepts_a_generator():
    """Any iterable of items loads like the list of them."""
    items = random_items(200, seed=13)
    r1, from_list = build()
    r2, from_generator = build()
    assert bulk_load(from_list, items) == []
    assert bulk_load(from_generator, (item for item in items)) == []
    assert r1.stats.as_dict() == r2.stats.as_dict()
    assert dict(from_generator.items()) == dict(items)


@pytest.mark.parametrize("backend", ["sim", "raw"])
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_bulk_load_matches_inserts(backend, data):
    """On a table pre-filled to 0–60 % by inserts, with 1–3 hash
    functions and groups of 4–64 cells, a bulk load of a batch (up to
    twice the table, so it may overflow) leaves the cell bytes, the count
    and the rejected items, in order, that inserting the batch item by
    item does."""
    n_hash_functions = data.draw(st.integers(1, 3), label="n_hash_functions")
    group_size = data.draw(st.sampled_from([4, 8, 16, 32, 64]), label="group_size")
    n_cells = 2 * group_size * data.draw(st.integers(1, 4), label="groups")
    n_prefill = int(n_cells * data.draw(st.floats(0, 0.6), label="load"))
    n_batch = data.draw(st.integers(0, 2 * n_cells), label="batch")
    items = random_items(n_prefill + n_batch, seed=data.draw(st.integers(0, 2**16)))
    prefill, batch = items[:n_prefill], items[n_prefill:]
    tables = []
    for _ in range(2):
        region = small_region(64 << 10) if backend == "sim" else RawBackend(64 << 10)
        _, table = build(n_cells, group_size, n_hash_functions, region)
        for key, value in prefill:
            table.insert(key, value)
        tables.append(table)
    incremental, bulk = tables
    inserted = [incremental.insert(key, value) for key, value in batch]
    assert bulk_load(bulk, batch) == [
        item for item, ok in zip(batch, inserted) if not ok
    ]
    assert bulk.count == incremental.count
    size = n_cells // 2 * bulk.codec.cell_size
    for level in ("tab1_base", "tab2_base"):
        base = getattr(bulk.layout, level)
        want = incremental.region.peek_volatile(base, size)
        assert bulk.region.peek_volatile(base, size) == want


def test_bulk_load_leaves_the_per_cell_loops_state():
    """A bulk load whose store spans twelve times the cache goes once per
    line on NVMRegion and leaves exactly the state the per-cell loops
    leave on the loop-running twin: every counter, each cache set's LRU
    order and dirty flags, the prefetcher and fast-line markers and both
    images."""
    config = SimConfig(cache=CacheConfig(size_bytes=4096, associativity=4))
    items = random_items(820, seed=14)
    prefill, batch = items[:200], items[200:]
    states = []
    for make in (NVMRegion, _Ref):
        region = make(64 << 10, config)
        _, table = build(2048, 32, 2, region)
        for key, value in prefill:
            table.insert(key, value)
        with _loop_calls() as looped:
            assert bulk_load(table, batch) == []
        assert looped == ([] if make is NVMRegion else [_Ref])
        states.append(_oracle_state(region))
    assert 2048 * 24 > 2 * 4096
    assert states[0] == states[1]
