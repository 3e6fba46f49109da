"""Batch APIs vs scalar op loops — identity, savings, crash safety.

The batch operations (``put_many`` / ``get_many`` / ``delete_many``)
promise three things, each pinned here:

1. **state identity** — a batch leaves the table byte-for-byte identical
   to the scalar loop over the same items in the same order (placement
   planning replays Algorithm 1's policy against volatile occupancy
   caches);
2. **persist savings** — coalescing dedupes cacheline flushes and
   collapses per-item fences into two barriers per batch; the exact
   flush/fence counts of a fixed workload are pinned so a regression in
   the coalescing shows up as a number, not a vibe;
3. **crash safety** — every crash boundary inside a coalesced commit
   window recovers to a per-key-atomic subset of the batch (the
   crash-matrix oracle generalised in :mod:`repro.nvm.crashpoint`).
"""

from __future__ import annotations

import pytest

from tests.conftest import random_items, small_region

from repro import (
    DirectoryTable,
    GroupHashTable,
    ItemSpec,
    NVMRegion,
    RawBackend,
    ShardedTable,
)
from repro.kv import KVStore


def group_pair(raw=False, n_cells=512, group_size=32):
    """Two identically-built (region, table) pairs for A/B runs."""
    out = []
    for _ in range(2):
        region = RawBackend(4 << 20) if raw else small_region()
        out.append((region, GroupHashTable(region, n_cells, group_size=group_size)))
    return out


def assert_same_cells(r1, t1, r2, t2):
    """Every storage cell byte-for-byte equal between the two tables."""
    size = t1.codec.cell_size
    for a1, a2 in zip(t1._iter_cell_addrs(), t2._iter_cell_addrs()):
        assert r1.peek_volatile(a1, size) == r2.peek_volatile(a2, size)


# ----------------------------------------------------------------------
# state identity


@pytest.mark.parametrize("raw", [False, True], ids=["sim", "raw"])
def test_put_many_byte_identical_to_insert_loop(raw):
    items = random_items(300, seed=21)
    (r1, scalar), (r2, batch) = group_pair(raw=raw)
    loop_results = [scalar.insert(k, v) for k, v in items]
    batch_results = batch.put_many(items)
    assert batch_results == loop_results
    assert batch.count == scalar.count
    assert_same_cells(r1, scalar, r2, batch)
    assert r2.unpersisted_ranges() == []


def test_put_many_overflow_matches_loop():
    """Rejections land on the same items as the scalar loop."""
    items = random_items(120, seed=22)
    (r1, scalar), (r2, batch) = group_pair(n_cells=64, group_size=4)
    loop_results = [scalar.insert(k, v) for k, v in items]
    assert batch.put_many(items) == loop_results
    assert not all(loop_results)  # 120 items into 64 cells must overflow
    assert_same_cells(r1, scalar, r2, batch)


def test_get_many_matches_query():
    items = random_items(250, seed=23)
    (_, table), _ = group_pair()
    table.put_many(items)
    keys = [k for k, _ in items[:100]] + [b"missing-" for _ in range(3)]
    assert table.get_many(keys) == [table.query(k) for k in keys]


def test_delete_many_byte_identical_to_delete_loop():
    items = random_items(300, seed=24)
    (r1, scalar), (r2, batch) = group_pair()
    scalar.put_many(items)
    batch.put_many(items)
    keys = [k for k, _ in items[:150]] + [b"missing-"]
    loop_results = [scalar.delete(k) for k in keys]
    assert batch.delete_many(keys) == loop_results
    assert batch.count == scalar.count
    assert_same_cells(r1, scalar, r2, batch)
    assert r2.unpersisted_ranges() == []


def test_delete_many_duplicate_key_claims_once():
    items = random_items(10, seed=25)
    (_, table), _ = group_pair()
    table.put_many(items)
    key = items[0][0]
    # second occurrence must not double-free the same victim cell
    assert table.delete_many([key, key]) == [True, False]
    assert table.count == 9


# ----------------------------------------------------------------------
# pinned persist savings (fixed workload: 300 puts / 150 deletes, one
# batch call each, 512 cells, group_size=32, sim backend)


def test_batch_persist_savings_pinned():
    items = random_items(300, seed=21)
    (r1, scalar), (r2, batch) = group_pair()

    f0, n0 = r1.stats.flushes, r1.stats.fences
    for k, v in items:
        scalar.insert(k, v)
    assert (r1.stats.flushes - f0, r1.stats.fences - n0) == (939, 900)

    f0, n0 = r2.stats.flushes, r2.stats.fences
    assert all(batch.put_many(items))
    assert (r2.stats.flushes - f0, r2.stats.fences - n0) == (283, 3)

    keys = [k for k, _ in items[:150]]
    f0, n0 = r1.stats.flushes, r1.stats.fences
    for k in keys:
        scalar.delete(k)
    assert (r1.stats.flushes - f0, r1.stats.fences - n0) == (469, 450)

    f0, n0 = r2.stats.flushes, r2.stats.fences
    assert all(batch.delete_many(keys))
    assert (r2.stats.flushes - f0, r2.stats.fences - n0) == (185, 3)


# ----------------------------------------------------------------------
# directory (growing) tables


def test_directory_put_many_matches_loop_through_splits():
    """Batches that trigger segment splits mid-run stay identical to
    the scalar loop: same results, same splits, same final contents."""
    items = random_items(700, seed=26)
    r1 = small_region()
    scalar = DirectoryTable(r1, 128, ItemSpec(), segment_cells=32, seed=7)
    r2 = small_region()
    batch = DirectoryTable(r2, 128, ItemSpec(), segment_cells=32, seed=7)
    loop_results = [scalar.insert(k, v) for k, v in items]
    assert batch.put_many(items) == loop_results
    assert batch.splits == scalar.splits
    assert batch.doublings == scalar.doublings
    assert dict(batch.items()) == dict(scalar.items())
    keys = [k for k, _ in items[:200]]
    assert batch.get_many(keys) == [scalar.query(k) for k in keys]
    assert batch.delete_many(keys) == [scalar.delete(k) for k in keys]
    assert dict(batch.items()) == dict(scalar.items())


def test_sharded_batch_matches_loop():
    items = random_items(400, seed=27)
    scalar = ShardedTable(1 << 10, n_shards=4)
    batch = ShardedTable(1 << 10, n_shards=4)
    loop_results = [scalar.insert(k, v) for k, v in items]
    assert batch.put_many(items) == loop_results
    keys = [k for k, _ in items] + [b"missing-"]
    assert batch.get_many(keys) == [scalar.query(k) for k in keys]
    half = keys[: len(keys) // 2]
    assert batch.delete_many(half) == [scalar.delete(k) for k in half]
    assert batch.count == scalar.count


# ----------------------------------------------------------------------
# KV store


def make_kv():
    region = NVMRegion(8 << 20)
    return region, KVStore(region, n_index_cells=1 << 10, group_size=32)


def test_kv_put_many_matches_scalar():
    pairs = [
        (f"user:{i}".encode(), bytes([i % 251]) * (i % 40 + 1)) for i in range(200)
    ]
    r1, scalar = make_kv()
    r2, batch = make_kv()
    f0, n0 = r1.stats.flushes, r1.stats.fences
    loop_results = [scalar.put(k, v) for k, v in pairs]
    assert (r1.stats.flushes - f0, r1.stats.fences - n0) == (800, 800)
    f0, n0 = r2.stats.flushes, r2.stats.fences
    assert batch.put_many(pairs) == loop_results
    # pinned: flush dedup across records + index, four fences total
    assert (r2.stats.flushes - f0, r2.stats.fences - n0) == (453, 4)
    for k, v in pairs:
        assert batch.get(k) == v
    keys = [k for k, _ in pairs] + [b"nope"]
    assert batch.get_many(keys) == [scalar.get(k) for k in keys]


def test_kv_put_many_falls_back_on_existing_keys():
    """A batch touching an existing digest routes through scalar put
    (update semantics preserved)."""
    _, store = make_kv()
    assert store.put(b"k1", b"old")
    results = store.put_many([(b"k0", b"a"), (b"k1", b"new"), (b"k2", b"c")])
    assert results == [True, True, True]
    assert store.get(b"k1") == b"new"
    assert store.get(b"k0") == b"a" and store.get(b"k2") == b"c"


def test_kv_delete_many():
    pairs = [(f"d:{i}".encode(), b"v" * (i + 1)) for i in range(50)]
    _, store = make_kv()
    assert all(store.put_many(pairs))
    keys = [k for k, _ in pairs[:25]] + [b"ghost"]
    assert store.delete_many(keys) == [True] * 25 + [False]
    assert store.get_many(keys) == [None] * 26
    for k, v in pairs[25:]:
        assert store.get(k) == v


# ----------------------------------------------------------------------
# crash safety of the coalesced commit window


def test_put_many_crash_boundaries_per_key_atomic():
    """Every crash boundary inside a small batched campaign recovers to
    a per-key-atomic subset — zero oracle violations."""
    from repro.bench.experiments.crashmatrix import (
        CrashMatrixSpec,
        run_crash_matrix_spec,
    )

    spec = CrashMatrixSpec(
        scheme="group",
        backend="raw",
        total_cells=128,
        group_size=16,
        n_ops=4,
        subset_budget=2,
        batch=3,
        seed=11,
    )
    cell = run_crash_matrix_spec(spec)
    assert cell["violations"] == []
    assert cell["points"] > 20  # boundaries inside the batch windows
    assert cell["batch"] == 3
