"""Tests for the bulk-loading fast path."""

import pytest

from tests.conftest import random_items, small_region

from repro import GroupHashTable, RawBackend, bulk_load


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
