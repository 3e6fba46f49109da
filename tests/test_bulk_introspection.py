"""Differential tests for the bulk, cost-free introspection paths.

``unpersisted_ranges`` is an exact diff of the volatile and persistent
images computed chunk-wise; ``GroupHashTable.items`` and
``integrity_violations`` decode cells from bounded peek windows. Each is
checked here against the obvious per-word / per-cell reference it
replaced, on every backend, and pinned to leave simulated statistics
and cache residency untouched.
"""

import gc
import random
import subprocess
import sys

import pytest

from tests.conftest import SMALL_CACHE, random_items

from repro import GroupHashTable, ItemSpec, NVMRegion, RawBackend, SimConfig
from repro.core.group_hash import PEEK_WINDOW_CELLS
from repro.nvm.crash import random_schedule
from repro.nvm.memory import image_diff
from repro.nvm.wearlevel import WearLevelledRegion
from repro.obs import MetricsRegistry
from repro.tables.cell import HEADER_SIZE, OCCUPIED_BIT


def reference_ranges(volatile, persistent) -> list[tuple[int, int]]:
    """Word-by-word scan: maximal runs of differing 8-byte words, the
    last (possibly short) word clipped to the image size."""
    out: list[tuple[int, int]] = []
    run = None
    size = len(volatile)
    for off in range(0, size, 8):
        same = volatile[off : off + 8] == persistent[off : off + 8]
        if same and run is not None:
            out.append((run, off - run))
            run = None
        elif not same and run is None:
            run = off
    if run is not None:
        out.append((run, size - run))
    return out


# ------------------------------------------------------- image_diff


@pytest.mark.parametrize("size", [8, 13, 4096, 4099, 3 * 4096 + 8, 9000])
def test_image_diff_matches_reference_on_random_images(size):
    rng = random.Random(size)
    for _ in range(40):
        a = bytearray(rng.randbytes(size))
        b = bytearray(a)
        for _ in range(rng.randrange(0, 12)):
            pos = rng.randrange(size)
            span = rng.choice([1, 8, 16, 70, 4100])
            for i in range(pos, min(size, pos + span)):
                b[i] ^= rng.randrange(1, 256)
        assert image_diff(a, b) == reference_ranges(a, b)


def test_image_diff_merges_runs_across_chunk_boundaries():
    a = bytearray(3 * 4096)
    b = bytearray(a)
    b[4095] = 1  # last word of chunk 0 ...
    b[4096] = 1  # ... and first word of chunk 1: one run
    b[8191:8200] = b"\xff" * 9  # straddles the chunk 1/2 boundary
    assert image_diff(a, b) == [(4088, 16), (8184, 16)]
    assert image_diff(a, b) == reference_ranges(a, b)


def test_image_diff_clips_a_trailing_partial_word():
    a = bytearray(4096 + 3)
    b = bytearray(a)
    b[-1] = 7
    b[4088] = 7
    assert image_diff(a, b) == [(4088, 11)]
    assert image_diff(a, a) == []


def test_image_diff_creates_no_reference_cycles():
    # a cycle would pin both images until the next collection: a crash
    # campaign builds a region per replay, and its peak RSS grew with
    # every replay the collector had not reached yet
    a = bytearray(3 * 4096)
    b = bytearray(a)
    b[5000] = 1
    gc.collect()
    gc.disable()
    try:
        assert image_diff(a, b) == [(5000, 8)]
        assert gc.collect() == 0
    finally:
        gc.enable()


# ------------------------------------------ unpersisted_ranges per backend


def _nvm(size):
    return NVMRegion(size, SimConfig(cache=SMALL_CACHE))


def _raw(size):
    return RawBackend(size)


def _wear_levelled(size):
    return WearLevelledRegion(size, SimConfig(cache=SMALL_CACHE), rotate_every=16)


BACKENDS = {"nvm": _nvm, "raw": _raw, "wear-levelled": _wear_levelled}


def _images(backend):
    return backend._volatile, backend._persistent


@pytest.mark.parametrize("size", [20_003, 3 * 4096 + 8, 40_000])
@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
def test_unpersisted_ranges_match_word_scan(backend_name, size):
    backend = BACKENDS[backend_name](size)
    logical = getattr(backend, "logical_size", backend.size)
    logical = min(logical, size)
    rng = random.Random(f"{backend_name}-{size}")
    for step in range(300):
        roll = rng.random()
        if roll < 0.6:
            addr = rng.randrange(0, logical - 1)
            data = rng.randbytes(min(rng.choice([1, 8, 24, 130]), logical - addr))
            backend.write(addr, data)
        elif roll < 0.85:
            addr = rng.randrange(0, logical - 1)
            backend.flush_range(addr, min(rng.randrange(1, 300), logical - addr))
        elif roll < 0.9:
            backend.crash(random_schedule(seed=step))
            if isinstance(backend, WearLevelledRegion):
                backend.reload_registers()
        stats = backend.stats.as_dict()
        got = backend.unpersisted_ranges()
        assert got == reference_ranges(*_images(backend)), step
        assert backend.stats.as_dict() == stats


def test_unpersisted_ranges_report_a_straddling_run_once():
    region = _nvm(3 * 4096)
    region.write(4088, b"\x01" * 16)
    assert region.unpersisted_ranges() == [(4088, 16)]
    region.persist(4088, 16)
    assert region.unpersisted_ranges() == []


# ------------------------------------------------ group-table inventories


def reference_items(table):
    region, spec = table.region, table.spec
    for addr in table._iter_cell_addrs():
        if region.peek_volatile(addr, HEADER_SIZE)[0] & OCCUPIED_BIT:
            kv = region.peek_volatile(addr + HEADER_SIZE, spec.item_size)
            yield kv[: spec.key_size], kv[spec.key_size :]


def reference_torn_cells(table):
    region, spec = table.region, table.spec
    zero = bytes(spec.item_size)
    out = []
    for addr in table._iter_cell_addrs():
        raw = region.peek_persistent(addr, HEADER_SIZE + spec.item_size)
        if not raw[0] & OCCUPIED_BIT and raw[HEADER_SIZE:] != zero:
            out.append(f"unoccupied cell at {addr} holds non-zero key-value bytes")
    return out


def _filled_table(backend_name, spec):
    # 2.5 peek windows per level, so full and partial windows both occur
    n_level = 2 * PEEK_WINDOW_CELLS + PEEK_WINDOW_CELLS // 2
    cell_size = -(-(HEADER_SIZE + spec.item_size) // 8) * 8
    backend = BACKENDS[backend_name](2 * n_level * cell_size + (1 << 14))
    table = GroupHashTable(backend, 2 * n_level, spec, group_size=512)
    for key, value in random_items(n_level // 2, seed=5, spec=spec):
        table.insert(key, value)
    return table


def _tear(table, addrs):
    """Leave non-zero key-value bytes in unoccupied cells, persisted."""
    for addr in addrs:
        table.region.write(addr + HEADER_SIZE + 1, b"\xab")
        table.region.persist(addr + HEADER_SIZE + 1, 1)


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
@pytest.mark.parametrize("spec", [ItemSpec(8, 8), ItemSpec(16, 3)])
def test_items_and_integrity_match_per_cell_references(backend_name, spec):
    table = _filled_table(backend_name, spec)
    region, layout, codec = table.region, table.layout, table.codec
    addrs = list(table._iter_cell_addrs())
    n = layout.n_cells_level
    expected = [layout.tab1_addr(codec, i) for i in range(n)]
    expected += [layout.tab2_addr(codec, i) for i in range(n)]
    assert addrs == expected
    assert list(table.items()) == list(reference_items(table))
    assert table.integrity_violations() == []
    free = [a for a in addrs if not region.peek_volatile(a, 1)[0] & OCCUPIED_BIT]
    # the first free cell, the first past a window boundary, one in
    # level 2 and the last free cell
    boundary = layout.tab1_base + PEEK_WINDOW_CELLS * codec.cell_size
    past_boundary = next(a for a in free if a >= boundary)
    torn = sorted({free[0], past_boundary, free[len(free) * 3 // 4], free[-1]})
    _tear(table, torn)
    got = table.integrity_violations()
    assert got == reference_torn_cells(table)
    assert got == [
        f"unoccupied cell at {a} holds non-zero key-value bytes" for a in torn
    ]


def test_inventories_leave_stats_and_cache_untouched():
    region = NVMRegion(1 << 20, SimConfig(cache=SMALL_CACHE))
    table = GroupHashTable(region, 4096, ItemSpec(8, 8), group_size=64)
    for key, value in random_items(1500, seed=2):
        table.insert(key, value)
    table.region.write(table.layout.tab2_base + 8, b"x")  # one dirty line
    calls = {
        "items": lambda: list(table.items()),
        "integrity_violations": table.integrity_violations,
        "unpersisted_ranges": region.unpersisted_ranges,
        "level_occupancy": table.level_occupancy,
        "group_fill": lambda: table.group_fill(3),
        "observe_occupancy": lambda: table.observe_occupancy(MetricsRegistry()),
    }
    for name, call in calls.items():
        stats = region.stats.as_dict()
        resident = sorted(region.cache.resident_lines())
        dirty = sorted(region.cache.dirty_lines())
        call()
        assert region.stats.as_dict() == stats, name
        assert sorted(region.cache.resident_lines()) == resident, name
        assert sorted(region.cache.dirty_lines()) == dirty, name


def test_occupancy_diagnostics_match_per_cell_counts():
    region = RawBackend(1 << 20)
    table = GroupHashTable(region, 4096, ItemSpec(8, 8), group_size=64)
    for key, value in random_items(1700, seed=9):
        table.insert(key, value)
    layout, codec = table.layout, table.codec

    def occupied(addr):
        return bool(region.peek_volatile(addr, 1)[0] & OCCUPIED_BIT)

    n = layout.n_cells_level
    l2 = [occupied(layout.tab2_addr(codec, i)) for i in range(n)]
    fills = [sum(l2[g : g + 64]) for g in range(0, n, 64)]
    assert table.level_occupancy() == (
        sum(occupied(layout.tab1_addr(codec, i)) for i in range(n)),
        sum(l2),
    )
    assert [table.group_fill(g) for g in range(len(fills))] == fills
    metrics = MetricsRegistry()
    table.observe_occupancy(metrics)
    heat = metrics.heat("group.occupancy_heat")
    assert dict(heat.cells) == {g: f for g, f in enumerate(fills) if f}


def test_concurrency_and_serving_do_not_load_the_experiment_package():
    code = (
        "import sys, repro.concurrency, repro.serving;"
        "print([m for m in sys.modules if m.startswith('repro.bench')])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
