"""Cross-module integration tests: compositions a downstream user would
actually build."""

import pytest

from tests.conftest import random_items

from repro import (
    CacheConfig,
    GroupHashTable,
    LinearProbingTable,
    NVMRegion,
    PFHTTable,
    SimConfig,
    SimulatedPowerFailure,
    UndoLog,
    WearLevelledRegion,
    random_schedule,
)
from repro.kv import KVStore
from repro.nvm.latency import PCM, STT_MRAM
from repro.traces import BagOfWordsTrace, FingerprintTrace


def test_multiple_tables_share_one_region():
    """A region is a device: several structures can live side by side
    without interfering (the bump allocator keeps them disjoint)."""
    region = NVMRegion(8 << 20)
    group = GroupHashTable(region, 1024, group_size=32)
    linear = LinearProbingTable(region, 1024)
    log = UndoLog(region, record_size=32, capacity=256)
    pfht = PFHTTable(region, 1024, log=log)

    items = random_items(300, seed=1)
    for k, v in items:
        assert group.insert(k, v)
        assert linear.insert(k, v[::-1])
        assert pfht.insert(k, v)
    for k, v in items:
        assert group.query(k) == v
        assert linear.query(k) == v[::-1]
        assert pfht.query(k) == v
    # allocations never overlap
    spans = sorted((a.addr, a.addr + a.size) for a in region.allocations)
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert end <= start


def test_crash_recovers_all_cohabiting_tables():
    region = NVMRegion(8 << 20)
    group = GroupHashTable(region, 512, group_size=32)
    log = UndoLog(region, record_size=32, capacity=256)
    linear = LinearProbingTable(region, 512, log=log)
    items = random_items(120, seed=2)
    for k, v in items:
        group.insert(k, v)
        linear.insert(k, v)
    region.crash(random_schedule(3))
    for table in (group, linear):
        table.reattach()
        table.recover()
        assert table.check_count()
        assert dict(table.items()) == dict(items)


def test_kv_store_on_wear_levelled_region():
    """The full stack: KV store → group-hashing index → slab → start-gap
    wear leveling → simulated NVM."""
    region = WearLevelledRegion(
        4 << 20,
        SimConfig(cache=CacheConfig(size_bytes=32 * 1024)),
        rotate_every=256,
    )
    store = KVStore(region, n_index_cells=512, group_size=32,
                    slab_bytes_per_class=16 * 1024)
    model = {}
    for i in range(120):
        key, value = f"obj{i}".encode(), bytes([i % 251]) * (10 + i % 90)
        store.put(key, value)
        model[key] = value
    assert region.mapper.start > 0 or region.mapper.gap < region.mapper.n
    for key, value in model.items():
        assert store.get(key) == value
    # crash the whole stack and bring it back
    region.crash(random_schedule(9))
    region.reload_registers()
    store.recover()
    assert dict(store.items()) == model
    assert store.slab.allocated_chunks() == len(model)


def test_group_hashing_on_every_technology():
    """Table 1 presets are drop-in: behaviour identical, cost differs."""
    times = {}
    for tech in (STT_MRAM, PCM):
        region = NVMRegion(2 << 20, SimConfig(latency=tech))
        table = GroupHashTable(region, 512, group_size=32)
        for k, v in random_items(200, seed=4):
            table.insert(k, v)
        assert table.count == 200
        times[tech.name] = region.stats.sim_time_ns
    assert times["pcm"] > times["stt-mram"]


def test_index_splits_preserve_kv_reachability():
    """Growth + KV locators: after the growable index has split, every
    record must still resolve (locators are values, so a split's rehash
    keeps them)."""
    region = NVMRegion(8 << 20)
    store = KVStore(
        region,
        n_index_cells=64,
        growable=True,
        segment_cells=16,
        slab_bytes_per_class=32 * 1024,
    )
    model = {}
    for i in range(100):
        key, value = f"key{i}".encode(), f"value-{i}".encode()
        assert store.put(key, value)
        model[key] = value
    assert store.index.splits >= 2
    for key, value in model.items():
        assert store.get(key) == value


def test_wide_item_traces_drive_tables_end_to_end():
    """Fingerprint (32-byte) and BagOfWords items flow through build,
    fill, crash and recovery."""
    for trace in (FingerprintTrace(seed=1), BagOfWordsTrace(seed=1)):
        region = NVMRegion(8 << 20)
        table = GroupHashTable(region, 1024, trace.spec, group_size=32)
        items = trace.items(300)
        for k, v in items:
            assert table.insert(k, v)
        region.arm_crash(2)
        extra_key, extra_value = trace.items(301)[-1]
        with pytest.raises(SimulatedPowerFailure):
            table.insert(extra_key, extra_value)
        region.crash(random_schedule(11))
        table.reattach()
        table.recover()
        assert table.check_count()
        for k, v in items:
            assert table.query(k) == v


def test_json_export_cli(tmp_path):
    import json

    from repro.bench.__main__ import main

    out = tmp_path / "results.json"
    rc = main(["table3", "--scale", "tiny", "--json", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["scale"] == "tiny"
    assert "table3" in payload
    first = next(iter(payload["table3"].values()))
    assert "recovery_ms" in first
