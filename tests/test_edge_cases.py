"""Edge-case tests across modules: boundaries, degenerate configs,
error paths that the mainline tests don't reach."""

import pytest

from tests.conftest import random_items, small_region

from repro import (
    CacheConfig,
    GroupHashTable,
    ItemSpec,
    LinearProbingTable,
    NVMRegion,
    SimConfig,
    UndoLog,
)
from repro.kv import KVStore
from repro.nvm.wearlevel import WearLevelledRegion


# --------------------------------------------------------------- tables


def test_one_group_table():
    """Degenerate: the whole level is one group."""
    region = small_region()
    table = GroupHashTable(region, 32, group_size=16)
    items = random_items(40, seed=1)
    accepted = [(k, v) for k, v in items if table.insert(k, v)]
    assert len(accepted) >= 16
    for k, v in accepted:
        assert table.query(k) == v


def test_group_size_one():
    region = small_region()
    table = GroupHashTable(region, 64, group_size=1)
    accepted = sum(table.insert(k, v) for k, v in random_items(64, seed=2))
    assert accepted >= 20  # each slot has exactly 1 overflow cell
    assert table.check_count()


def test_single_cell_linear_table():
    region = small_region()
    table = LinearProbingTable(region, 1)
    assert table.insert(b"k" * 8, b"v" * 8)
    assert not table.insert(b"x" * 8, b"v" * 8)
    assert table.query(b"k" * 8) == b"v" * 8
    assert table.delete(b"k" * 8)
    assert table.count == 0


def test_odd_item_spec_widths():
    """Non-multiple-of-8 key/value widths pad the cell but must work."""
    spec = ItemSpec(key_size=5, value_size=3)
    region = small_region()
    table = GroupHashTable(region, 64, spec, group_size=8)
    assert table.insert(b"abcde", b"xyz")
    assert table.query(b"abcde") == b"xyz"
    assert table.delete(b"abcde")


def test_value_size_zero_is_a_set():
    """value_size=0 turns the table into a persistent set."""
    spec = ItemSpec(key_size=8, value_size=0)
    region = small_region()
    table = LinearProbingTable(region, 64, spec)
    assert table.insert(b"member00", b"")
    assert table.query(b"member00") == b""
    assert table.query(b"stranger") is None


def test_zero_length_region_ops():
    region = NVMRegion(64)
    region.flush_range(0, 0)  # no-op, no error
    assert region.read(0, 0) == b""


# ------------------------------------------------------------------ wal


def test_undo_log_survives_repeated_recover_calls():
    region = small_region()
    log = UndoLog(region, record_size=16, capacity=4)
    addr = region.alloc(16)
    region.write(addr, b"old" + bytes(13))
    region.persist(addr, 16)
    log.begin()
    log.record(addr, 16)
    region.write(addr, b"new" + bytes(13))
    region.persist(addr, 16)
    log.recover()
    log.recover()  # idempotent
    assert region.peek_persistent(addr, 3) == b"old"


# ------------------------------------------------------------------- kv


def test_kv_store_single_byte_everything():
    region = NVMRegion(2 << 20)
    store = KVStore(region, n_index_cells=64, group_size=8,
                    slab_bytes_per_class=4096)
    assert store.put(b"k", b"")
    assert store.get(b"k") == b""
    assert store.put(b"k", b"x")  # overwrite with larger
    assert store.get(b"k") == b"x"


def test_kv_store_index_full_returns_false_and_frees_chunk():
    region = NVMRegion(2 << 20)
    store = KVStore(region, n_index_cells=8, group_size=2,
                    slab_bytes_per_class=4096)
    accepted = 0
    for i in range(64):
        if store.put(f"key-{i}".encode(), b"v"):
            accepted += 1
    assert accepted < 64
    # every rejected put must have released its chunk
    assert store.slab.allocated_chunks() == len(store)


def test_kv_key_equal_to_max_sizes():
    region = NVMRegion(4 << 20)
    store = KVStore(region, n_index_cells=64, group_size=8, max_value=256,
                    slab_bytes_per_class=8192)
    big_key = b"K" * 100
    assert store.put(big_key, b"V" * 256)
    assert store.get(big_key) == b"V" * 256


# ------------------------------------------------------------ wearlevel


def test_wearlevel_smallest_viable_region():
    region = WearLevelledRegion(
        128, SimConfig(cache=CacheConfig(size_bytes=1024, associativity=2))
    )
    region.write(0, b"12345678")
    region.persist(0, 8)
    assert region.read(0, 8) == b"12345678"


def test_wearlevel_atomic_write_alignment_enforced():
    region = WearLevelledRegion(
        1024, SimConfig(cache=CacheConfig(size_bytes=1024, associativity=2))
    )
    with pytest.raises(ValueError):
        region.write_atomic_u64(4, 1)
    region.write_atomic_u64(8, 0xFEED)
    assert region.read_u64(8) == 0xFEED


def test_wearlevel_rejects_out_of_logical_range():
    region = WearLevelledRegion(
        256, SimConfig(cache=CacheConfig(size_bytes=1024, associativity=2))
    )
    with pytest.raises(IndexError):
        region.read(250, 16)


# ----------------------------------------------------------- recorder


def test_event_hook_can_be_removed():
    region = small_region()
    events = []

    def observer(*event):
        events.append(event)

    region.observe(observer)
    region.write(0, b"x")
    assert events
    region.unobserve(observer)
    n = len(events)
    region.write(8, b"y")
    assert len(events) == n
