"""Backend parity and protocol tests (the multi-backend refactor).

Three layers of guarantees:

1. **Protocol**: :class:`NVMRegion` and :class:`RawBackend` both satisfy
   the runtime-checkable :class:`MemoryBackend` protocol.
2. **Parity**: a table driven identically on the simulator and on the
   raw backend reaches the identical state — same items, same persistent
   count, same program-issued event counts (reads/writes/flushes/
   fences), and the same post-crash recovery outcome for deterministic
   crash schedules, including crashes armed mid-operation.
3. **Pinned simulator counts**: the measured latencies and miss counts
   of the figure workloads on :class:`SimBackend` are pinned to the
   values produced before the backend refactor — optimizations must not
   move a single simulated event.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import (
    ALL_SCHEMES,
    SMALL_CACHE,
    make_table,
    random_items,
    small_region,
)

from repro import (
    GroupHashTable,
    MemoryBackend,
    NVMRegion,
    RawBackend,
    ShardedBackend,
    ShardedTable,
    SimBackend,
    SimConfig,
    SimulatedPowerFailure,
    drop_all_schedule,
    persist_all_schedule,
    random_schedule,
)
from repro.bench.runner import RunSpec, run_workload
from repro.nvm.wearlevel import WearLevelledRegion
from repro.tables.cell import ItemSpec


def make_raw(size: int = 4 << 20) -> RawBackend:
    return RawBackend(size)


def event_counts(backend):
    s = backend.stats
    return (s.reads, s.writes, s.flushes, s.fences, s.bytes_read, s.bytes_written)


# ----------------------------------------------------------------------
# protocol conformance


def test_backends_satisfy_protocol():
    assert isinstance(small_region(), MemoryBackend)
    assert isinstance(make_raw(), MemoryBackend)
    sharded = ShardedBackend(2, lambda i: RawBackend(1 << 16))
    assert isinstance(sharded.shard(0), MemoryBackend)


def test_simbackend_is_nvmregion():
    # the alias guarantees bit-for-bit identical simulation
    assert SimBackend is NVMRegion


# ----------------------------------------------------------------------
# raw backend unit behaviour


def test_raw_basic_readwrite_and_bounds():
    r = make_raw(1 << 12)
    addr = r.alloc(64, align=64)
    r.write(addr, b"x" * 16)
    assert r.read(addr, 16) == b"x" * 16
    r.write_u64(addr + 16, 0xDEADBEEF)
    assert r.read_u64(addr + 16) == 0xDEADBEEF
    with pytest.raises(IndexError):
        r.read(1 << 12, 1)
    with pytest.raises(IndexError):
        r.read(-1, 4)
    with pytest.raises(IndexError):
        r.write((1 << 12) - 4, b"12345678")
    with pytest.raises(ValueError):
        r.write_atomic_u64(addr + 4, 1)  # misaligned


def test_raw_dirty_tracking_and_persist():
    r = make_raw(1 << 12)
    addr = r.alloc(64, align=64)
    r.write(addr, b"a" * 8)
    assert r.peek_persistent(addr, 8) == bytes(8)
    assert r.unpersisted_ranges() == [(addr, 8)]
    r.persist(addr, 8)
    assert r.peek_persistent(addr, 8) == b"a" * 8
    assert r.unpersisted_ranges() == []


def test_raw_zero_size_write_dirties_no_line():
    """A zero-size store counts as a write but dirties no line, at a
    line-aligned address or not — as on the simulator."""
    raw, sim = make_raw(1 << 12), NVMRegion(1 << 12)
    for backend in (raw, sim):
        backend.write(64, b"")
        backend.write(100, b"")
        assert backend.stats.writes == 2
        assert backend.stats.bytes_written == 0
    assert raw._dirty == set()
    assert list(sim.cache.dirty_lines()) == []


def test_raw_crash_drops_unflushed_words():
    r = make_raw(1 << 12)
    addr = r.alloc(64, align=64)
    r.write(addr, b"a" * 8)
    r.persist(addr, 8)
    r.write(addr + 8, b"b" * 8)  # never flushed
    report = r.crash(drop_all_schedule())
    assert report.words_dropped == 1
    assert r.read(addr, 8) == b"a" * 8
    assert r.read(addr + 8, 8) == bytes(8)


def test_raw_crash_persist_all_keeps_words():
    r = make_raw(1 << 12)
    addr = r.alloc(64, align=64)
    r.write(addr, b"c" * 8)
    report = r.crash(persist_all_schedule())
    assert report.words_persisted == 1
    assert r.read(addr, 8) == b"c" * 8


def test_raw_armed_crash_fires_and_disarms():
    r = make_raw(1 << 12)
    addr = r.alloc(64, align=64)
    r.arm_crash(3)
    r.write(addr, b"a" * 8)  # tick 1
    r.clflush(addr)          # tick 2
    with pytest.raises(SimulatedPowerFailure):
        r.mfence()           # tick 3
    # countdown cleared: further events run normally
    r.write(addr, b"b" * 8)
    r.persist(addr, 8)
    assert r.peek_persistent(addr, 8) == b"b" * 8


def test_raw_event_hook_observes_events():
    r = make_raw(1 << 12)
    addr = r.alloc(64, align=64)
    events = []

    def observer(kind, a, s):
        events.append(kind)

    r.observe(observer)
    r.write(addr, b"a" * 8)
    r.persist(addr, 8)
    r.unobserve(observer)
    r.write(addr, b"b" * 8)  # not observed
    assert events == ["write", "flush", "fence"]


def test_raw_scan_primitives_match_reference():
    # same contents on both backends -> same scan results
    sim, raw = small_region(), make_raw()
    for backend in (sim, raw):
        base = backend.alloc(24 * 16, align=64)
        for i in range(16):
            header = 1 if i % 3 == 0 else 0
            backend.write_u64(base + 24 * i, header)
            backend.write(base + 24 * i + 8, bytes([i]) * 8)
    sim_base = sim.allocations[-1].addr
    raw_base = raw.allocations[-1].addr
    assert (
        sim.scan_clear_u64(sim_base, 24, 16)
        == raw.scan_clear_u64(raw_base, 24, 16)
        == 1
    )
    assert sim.scan_clear_u64(sim_base, 24, 1) is None
    assert raw.scan_clear_u64(raw_base, 24, 1) is None
    key = bytes([6]) * 8
    assert (
        sim.scan_match(sim_base, 24, 16, key)
        == raw.scan_match(raw_base, 24, 16, key)
        == 6
    )
    missing = bytes([7]) * 8  # written but cell 7 is unoccupied
    assert sim.scan_match(sim_base, 24, 16, missing) is None
    assert raw.scan_match(raw_base, 24, 16, missing) is None
    # tenant probe: headers 1 at cells 0, 3, 6, ...; first non-1 word
    for ne_cells, expected in (([0, 3, 3, 6], None), ([0, 3, 4, 6], 2)):
        assert (
            sim.scan_ne_at([sim_base + 24 * i for i in ne_cells], 1)
            == raw.scan_ne_at([raw_base + 24 * i for i in ne_cells], 1)
            == expected
        )


def test_raw_scan_counts_reads_like_reference():
    sim, raw = small_region(), make_raw()
    for backend in (sim, raw):
        base = backend.alloc(24 * 8, align=64)
        for i in range(8):
            backend.write_u64(base + 24 * i, 1 if i < 5 else 0)
    before_sim, before_raw = sim.stats.reads, raw.stats.reads
    sim.scan_clear_u64(sim.allocations[-1].addr, 24, 8)
    raw.scan_clear_u64(raw.allocations[-1].addr, 24, 8)
    assert sim.stats.reads - before_sim == raw.stats.reads - before_raw == 6
    # the tenant probe stops at the first word that is not 1 (cell 5)
    before_sim, before_raw = sim.stats.reads, raw.stats.reads
    for backend in (sim, raw):
        base = backend.allocations[-1].addr
        assert backend.scan_ne_at([base + 24 * i for i in range(8)], 1) == 5
    assert sim.stats.reads - before_sim == raw.stats.reads - before_raw == 6


#: every mask-taking scan, over 20 cells of 24 bytes: each call returns
#: its result and the backend's read counts
MASKED_SCANS = {
    "scan_clear_u64": lambda b, m: b.scan_clear_u64(0, 24, 20, m),
    "scan_occupied_bitmap": lambda b, m: b.scan_occupied_bitmap(0, 24, 20, m),
    "scan_occupied_at": lambda b, m: b.scan_occupied_at([0, 24] * 10, m),
    "scan_clear_at": lambda b, m: b.scan_clear_at(list(range(0, 480, 24)), m),
    "scan_match": lambda b, m: b.scan_match(0, 24, 20, bytes([12]) * 8, mask=m),
    "scan_match_many": lambda b, m: b.scan_match_many(
        0, 24, 20, [bytes([12]) * 8, bytes([99]) * 8], mask=m
    ),
    "scan_probe": lambda b, m: b.scan_probe(0, 24, 20, bytes([12]) * 8, mask=m),
    "scan_match_at": lambda b, m: b.scan_match_at(
        list(range(0, 480, 24)), bytes([12]) * 8, mask=m
    ),
    "scan_match_pairs": lambda b, m: b.scan_match_pairs(
        [(24 * i, bytes([i + 1]) * 8) for i in range(20)], mask=m
    ),
}


@pytest.mark.parametrize("numpy", [True, False], ids=["numpy", "pure"])
@pytest.mark.parametrize("mask", [-1, 0x100, 1 << 40], ids=hex)
def test_raw_scans_take_any_mask_like_the_simulator(mask, numpy):
    """A mask outside a header byte (negative, or above bit 7), given as
    a numpy or a Python integer, gives the raw backend's scans the
    simulator's answers and read counts."""
    if numpy:
        mask = np.int64(mask)
    sim, raw = NVMRegion(8192), RawBackend(8192)
    for backend in (sim, raw):
        for i in range(20):
            header = (i % 3) << 41 | (i % 2) << 8 | (i % 5 == 0)
            backend.write_u64(24 * i, header)
            backend.write(24 * i + 8, bytes([i + 1]) * 8)
    for name, call in MASKED_SCANS.items():
        outcomes = [
            (call(b, mask), b.stats.reads, b.stats.bytes_read) for b in (sim, raw)
        ]
        assert outcomes[0] == outcomes[1], name


# ----------------------------------------------------------------------
# scheme parity: same ops on sim and raw -> same state, same events


def drive(table, n_items: int, seed: int):
    """A deterministic insert/update/delete mix."""
    items = random_items(n_items, seed=seed)
    accepted = [(k, v) for k, v in items if table.insert(k, v)]
    for k, _ in accepted[::3]:
        table.update(k, b"U" * 8)
    for k, _ in accepted[1::3]:
        table.delete(k)
    return accepted


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_scheme_state_parity_sim_vs_raw(scheme):
    sim_table = make_table(scheme, small_region())
    raw_table = make_table(scheme, make_raw())
    drive(sim_table, 150, seed=11)
    drive(raw_table, 150, seed=11)
    assert dict(sim_table.items()) == dict(raw_table.items())
    assert sim_table.count == raw_table.count
    assert sim_table.persisted_count == raw_table.persisted_count
    assert sim_table.check_count() and raw_table.check_count()


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_scheme_event_parity_sim_vs_raw(scheme):
    # program-issued events are backend-independent; only the simulated
    # cost model (latency, misses, evictions) differs
    sim_region, raw_region = small_region(), make_raw()
    drive(make_table(scheme, sim_region), 120, seed=5)
    drive(make_table(scheme, raw_region), 120, seed=5)
    assert event_counts(sim_region) == event_counts(raw_region)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("schedule_seed", [0, 3])
def test_crash_recovery_parity_sim_vs_raw(scheme, schedule_seed):
    # Crash with identical deterministic schedules after identical ops:
    # under the uniform commit discipline the dirty word set matches, so
    # recovery lands both backends in the same state.
    sim_table = make_table(scheme, small_region())
    raw_table = make_table(scheme, make_raw())
    for table in (sim_table, raw_table):
        for k, v in random_items(80, seed=21):
            table.insert(k, v)
    sim_table.region.crash(random_schedule(seed=schedule_seed))
    raw_table.region.crash(random_schedule(seed=schedule_seed))
    for table in (sim_table, raw_table):
        table.reattach()
        table.recover()
    assert dict(sim_table.items()) == dict(raw_table.items())
    assert sim_table.persisted_count == raw_table.persisted_count


@pytest.mark.parametrize("armed_after", [5, 17, 40])
def test_armed_midop_crash_parity_group(armed_after):
    # Arm the same countdown on both backends, crash mid-insert at the
    # same event, apply the same schedule: recovery must agree.
    tables = []
    for region in (small_region(), make_raw()):
        table = GroupHashTable(region, 512, group_size=32)
        for k, v in random_items(60, seed=9):
            table.insert(k, v)
        region.arm_crash(armed_after)
        fired = False
        try:
            for k, v in random_items(40, seed=10):
                table.insert(k, v)
        except SimulatedPowerFailure:
            fired = True
        assert fired
        region.crash(random_schedule(seed=2))
        table.reattach()
        table.recover()
        assert table.check_count()
        tables.append(table)
    sim_table, raw_table = tables
    assert dict(sim_table.items()) == dict(raw_table.items())
    assert sim_table.persisted_count == raw_table.persisted_count


# ----------------------------------------------------------------------
# sharded table


def test_sharded_routing_is_stable_and_total():
    st = ShardedTable(1 << 10, n_shards=4)
    items = random_items(300, seed=4)
    for k, v in items:
        assert st.insert(k, v)
    assert st.count == 300
    assert sum(st.shard_counts()) == 300
    assert st.persisted_count == 300
    assert dict(st.items()) == dict(items)
    for k, v in items[:50]:
        assert st.query(k) == v
        assert st.table_for(k) is st.tables[st.shard_of(k)]
    # reasonable balance: no shard empty, none hoarding
    counts = st.shard_counts()
    assert min(counts) > 0 and max(counts) < 300


def test_sharded_crud_routes_to_one_shard():
    st = ShardedTable(1 << 10, n_shards=4)
    key, value = b"k" * 8, b"v" * 8
    st.insert(key, value)
    assert st.query(key) == value
    st.update(key, b"w" * 8)
    assert st.query(key) == b"w" * 8
    assert st.delete(key)
    assert st.query(key) is None
    assert st.count == 0 and st.check_count()


def test_sharded_independent_crash_and_recovery():
    st = ShardedTable(1 << 10, n_shards=4, seed=77)
    items = random_items(400, seed=8)
    for k, v in items:
        assert st.insert(k, v)
    victim = 2
    survivors = {k: v for k, v in items if st.shard_of(k) != victim}
    # leave unflushed data in the victim shard only, then crash it
    victim_keys = [k for k, _ in items if st.shard_of(k) == victim]
    reports = st.crash(drop_all_schedule(), shard=victim)
    assert len(reports) == 1
    st.reattach(shard=victim)
    st.recover(shard=victim)
    # other shards were never touched: still serving, still consistent
    got = dict(st.items())
    for k, v in survivors.items():
        assert got[k] == v
    assert st.check_count()
    assert st.count == st.persisted_count
    # the victim shard still holds every item it had persisted
    for k in victim_keys:
        assert st.query(k) == dict(items)[k]


def test_sharded_global_crash_recovery():
    st = ShardedTable(1 << 10, n_shards=2)
    items = random_items(200, seed=13)
    for k, v in items:
        assert st.insert(k, v)
    reports = st.crash(drop_all_schedule())
    assert len(reports) == 2
    st.reattach()
    st.recover()
    assert dict(st.items()) == dict(items)
    assert st.check_count()


def test_sharded_stats_aggregate():
    st = ShardedTable(1 << 10, n_shards=4)
    for k, v in random_items(100, seed=3):
        st.insert(k, v)
    total = st.stats
    assert total.writes == sum(s.stats.writes for s in st.backend)
    assert total.writes > 0
    assert st.backend.size == sum(s.size for s in st.backend)


def test_sharded_on_simulator_shards():
    # any backend factory works, including per-shard simulators
    st = ShardedTable(512, n_shards=2, backend_factory=lambda i: small_region(1 << 20))
    for k, v in random_items(64, seed=6):
        assert st.insert(k, v)
    assert st.stats.sim_time_ns > 0
    assert st.check_count()


def test_sharded_validates_arguments():
    with pytest.raises(ValueError):
        ShardedTable(1 << 10, n_shards=0)
    with pytest.raises(ValueError):
        ShardedTable(2, n_shards=4)


def test_sharded_rejects_out_of_range_shard_index():
    st = ShardedTable(1 << 10, n_shards=4)
    for bad in (-1, 4, 99):
        with pytest.raises(IndexError):
            st.crash(shard=bad)
        with pytest.raises(IndexError):
            st.reattach(shard=bad)
        with pytest.raises(IndexError):
            st.recover(shard=bad)
        with pytest.raises(IndexError):
            st.backend.shard(bad)


# ----------------------------------------------------------------------
# batch/scalar duplicate-key parity (the delete_many claim-routing bug)


def test_delete_many_duplicate_key_matches_scalar_with_two_copies():
    # insert never checks presence, so two copies of one key can be
    # resident; a batch naming the key twice must delete both, exactly
    # like the scalar loop (the batch path used to report False for the
    # second occurrence and leave the second copy live)
    def build():
        table = GroupHashTable(small_region(), 512, group_size=32)
        items = random_items(20, seed=31)
        for k, v in items:
            table.insert(k, v)
        key = items[0][0]
        table.insert(key, b"DUP-COPY")
        return table, key

    scalar_table, key = build()
    batch_table, _ = build()
    keys = [key, key, key]
    scalar_results = [scalar_table.delete(k) for k in keys]
    assert scalar_results == [True, True, False]
    assert batch_table.delete_many(keys) == scalar_results
    assert batch_table.count == scalar_table.count
    assert dict(batch_table.items()) == dict(scalar_table.items())


@pytest.mark.parametrize("growable", [False, True])
def test_sharded_delete_many_duplicate_key_matches_scalar(growable):
    # the parity must hold through the routing layer for both table
    # families a shard can host (fixed group tables and growable
    # directory tables — the hasattr fallback family audit)
    def build():
        st = ShardedTable(1 << 10, n_shards=4, growable=growable, seed=5)
        items = random_items(60, seed=32)
        for k, v in items:
            st.insert(k, v)
        dups = [items[i][0] for i in (0, 7, 13)]
        for k in dups:
            st.insert(k, b"2ndCOPYx")
        return st, dups

    scalar_st, dups = build()
    batch_st, _ = build()
    keys = [k for dup in dups for k in (dup, dup)]
    scalar_results = [scalar_st.delete(k) for k in keys]
    assert scalar_results == [True] * len(keys)
    assert batch_st.delete_many(keys) == scalar_results
    assert batch_st.count == scalar_st.count
    assert dict(batch_st.items()) == dict(scalar_st.items())


# ----------------------------------------------------------------------
# wall-clock: the raw backend must actually be fast


def test_raw_backend_is_faster_than_sim():
    # modest margin (the acceptance benchmark demonstrates ~5x at
    # 2^16 cells; this guard at small scale just proves the fast path
    # is wired, without becoming flaky on loaded CI runners: each side
    # is the fastest of three interleaved fills, so one slow moment of
    # the runner cannot decide the ratio)
    import time

    from repro.bench.config import region_for

    spec = ItemSpec(8, 8)
    n = 1 << 13

    def fill(backend: str) -> float:
        region = region_for(n, spec, backend=backend)
        table = GroupHashTable(region, n, spec, group_size=64)
        start = time.perf_counter()
        for i in range(int(n * 0.6)):
            table.insert(i.to_bytes(8, "little"), b"x" * 8)
        return time.perf_counter() - start

    sim_s = raw_s = float("inf")
    for _ in range(3):
        sim_s = min(sim_s, fill("sim"))
        raw_s = min(raw_s, fill("raw"))
    assert raw_s < sim_s / 1.5


# ----------------------------------------------------------------------
# pinned simulator counts: the refactor moved no simulated event

#: (insert_ns, query_ns, delete_ns, insert_misses, query_misses,
#: delete_misses, insert_flushes, delete_fences) measured on the seed
#: code before the backend refactor, for the small pinned workload below
PINNED_SIM_COUNTS = {
    "linear":     (140675.0, 8430.0, 176310.0, 278, 73, 322, 317, 380),
    "linear-L":   (277410.0, 8430.0, 359220.0, 579, 73, 704, 617, 760),
    "pfht":       (147355.0, 9600.0, 135510.0, 296, 80, 241, 329, 300),
    "path":       (150660.0, 13460.0, 142260.0, 383, 125, 309, 317, 300),
    "group":      (146600.0, 11900.0, 141470.0, 308, 95, 283, 316, 300),
    "chained":    (189600.0, 18325.0, 179980.0, 399, 174, 382, 425, 400),
    "two-choice": (120160.0, 10650.0, 137730.0, 274, 98, 275, 262, 300),
    "cuckoo":     (178865.0, 11295.0, 138035.0, 376, 105, 271, 397, 300),
    "level":      (145675.0, 9530.0, 139245.0, 297, 75, 254, 322, 300),
}


@pytest.mark.parametrize("scheme", sorted(PINNED_SIM_COUNTS))
def test_pinned_simulator_event_counts(scheme):
    result = run_workload(
        RunSpec(
            scheme=scheme,
            trace="randomnum",
            load_factor=0.4,
            total_cells=1 << 10,
            group_size=32,
            measure_ops=100,
            seed=7,
        )
    )
    got = (
        result.insert.sim_ns,
        result.query.sim_ns,
        result.delete.sim_ns,
        result.insert.cache_misses,
        result.query.cache_misses,
        result.delete.cache_misses,
        result.insert.flushes,
        result.delete.fences,
    )
    assert got == PINNED_SIM_COUNTS[scheme]


def test_runspec_raw_backend_runs_workload():
    # the runner accepts backend="raw": correctness path with zero
    # simulated cost
    result = run_workload(
        RunSpec(
            scheme="group",
            load_factor=0.3,
            total_cells=1 << 9,
            group_size=16,
            measure_ops=50,
            seed=3,
            backend="raw",
        )
    )
    assert result.insert.sim_ns == 0.0
    assert result.insert.flushes > 0


# ----------------------------------------------------------------------
# observer semantics across backends


def record_hook(log, tag=None):
    """An observer appending (kind, addr, size) (tagged when requested)."""

    def hook(kind, addr, size):
        log.append((tag, kind, addr, size) if tag is not None else (kind, addr, size))

    return hook


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_event_hook_sequence_parity_sim_vs_raw(scheme):
    # Observers are part of the backend contract: the parity workload must
    # produce the identical (kind, addr, size) sequence, in program
    # order, on the simulator and on the raw fast path.
    sim_region, raw_region = small_region(), make_raw()
    sim_table = make_table(scheme, sim_region)
    raw_table = make_table(scheme, raw_region)
    sim_events, raw_events = [], []
    sim_region.observe(record_hook(sim_events))
    raw_region.observe(record_hook(raw_events))
    drive(sim_table, 100, seed=9)
    drive(raw_table, 100, seed=9)
    assert sim_events, "hook never fired"
    assert sim_events == raw_events


def test_event_hook_sequence_parity_sharded_sim_vs_raw():
    # Sharded parity: per-shard observers see the same tagged sequence
    # whether the shards are simulators or raw backends.
    def build(factory):
        st = ShardedTable(512, n_shards=2, backend_factory=factory, seed=7)
        events = []
        for i in range(st.n_shards):
            st.backend.shard(i).observe(record_hook(events, tag=i))
        for k, v in random_items(80, seed=21):
            st.insert(k, v)
            st.query(k)
        return events

    sim_events = build(lambda i: small_region(1 << 20))
    raw_events = build(lambda i: RawBackend(1 << 20))
    assert sim_events and sim_events == raw_events


def test_event_hook_kinds_and_sizes():
    # one write+persist = a "write", a line-sized "flush", and a "fence"
    r = make_raw(1 << 12)
    addr = r.alloc(64, align=64)
    events = []
    r.observe(record_hook(events))
    r.write(addr, b"x" * 8)
    r.persist(addr, 8)
    kinds = [e[0] for e in events]
    assert kinds == ["write", "flush", "fence"]
    assert events[0][1:] == (addr, 8)
    assert events[1][2] == r.line_size


#: one single-region backend per class sharing the event gate
GATED_BACKENDS = {
    "sim": lambda: small_region(1 << 16),
    "raw": lambda: make_raw(1 << 16),
    "wear-levelled": lambda: WearLevelledRegion(
        1 << 16, SimConfig(cache=SMALL_CACHE), rotate_every=8
    ),
}


@pytest.mark.parametrize("kind", list(GATED_BACKENDS))
def test_event_hook_uninstall_restores_the_fast_path(kind):
    r = GATED_BACKENDS[kind]()
    addr = r.alloc(64, align=64)
    assert r._slow is False
    events = []
    observer = record_hook(events)
    r.observe(observer)
    assert r._slow is True
    r.write_u64(addr, 1)
    assert events
    r.unobserve(observer)
    n = len(events)
    r.write_u64(addr, 2)
    r.persist(addr, 8)
    # no further deliveries, and the slow flag dropped back
    assert len(events) == n
    assert r._slow is False
    assert r.observers == ()


def test_event_hook_uninstall_stops_deliveries_on_sim():
    region = small_region()
    addr = region.alloc(64, align=64)
    events = []
    observer = record_hook(events)
    region.observe(observer)
    region.write_u64(addr, 1)
    region.persist(addr, 8)
    n = len(events)
    assert n == 3
    region.unobserve(observer)
    region.write_u64(addr, 2)
    region.persist(addr, 8)
    assert len(events) == n


def _tagged(log, tag):
    def observer(*event):
        log.append(tag)

    return observer


@pytest.mark.parametrize("kind", ["sim", "raw", "wear-levelled", "sharded"])
def test_observers_run_in_attach_order_and_leave_by_identity(kind):
    backend = {
        **GATED_BACKENDS,
        "sharded": lambda: ShardedBackend(2, lambda i: make_raw(1 << 16)),
    }[kind]()
    target = backend.shard(1) if kind == "sharded" else backend
    addr = target.alloc(64, align=64)
    log = []
    a, b, c = (_tagged(log, tag) for tag in "abc")
    for observer in (a, b, c):
        backend.observe(observer)
    target.write_u64(addr, 1)
    assert log == ["a", "b", "c"]
    # removal is by identity, not position: the others keep their order
    backend.unobserve(b)
    log.clear()
    target.mfence()
    assert log == ["a", "c"]
    backend.unobserve(a)
    backend.unobserve(c)
    log.clear()
    target.mfence()
    assert log == []
    with pytest.raises(ValueError):
        backend.unobserve(a)


@pytest.mark.parametrize("kind", list(GATED_BACKENDS))
def test_fast_path_returns_once_the_last_observer_leaves(kind):
    r = GATED_BACKENDS[kind]()
    log = []
    first, second = _tagged(log, 1), _tagged(log, 2)
    r.observe(first)
    r.observe(second)
    assert r._slow is True
    r.unobserve(first)  # out of attach order
    assert r._slow is True and r.observers == (second,)
    r.unobserve(second)
    assert r._slow is False and r._notify is None
    # an armed crash still keeps the slow path until it is disarmed
    r.arm_crash(5)
    r.observe(first)
    r.unobserve(first)
    assert r._slow is True
    r.disarm_crash()
    assert r._slow is False


@pytest.mark.parametrize("kind", list(GATED_BACKENDS))
def test_fired_crash_restores_the_fast_path(kind):
    r = GATED_BACKENDS[kind]()
    addr = r.alloc(64, align=64)
    r.arm_crash(2)
    assert r._slow is True
    r.write_u64(addr, 1)
    with pytest.raises(SimulatedPowerFailure):
        r.write_u64(addr, 2)
    assert r._slow is False
    # so does a power failure while a crash is still armed
    r.arm_crash(5)
    r.crash()
    assert r._slow is False


def test_wear_map_observers_share_the_helper():
    region = small_region(1 << 16, track_wear=True)
    addr = region.alloc(64, align=64)
    lines, other = [], []
    first, second = lines.append, other.append
    region.wear.observe(first)
    region.wear.observe(second)
    region.write_u64(addr, 7)
    region.persist(addr, 8)
    assert lines == other == [addr // region.line_size]
    region.wear.unobserve(first)
    region.write_u64(addr, 8)
    region.persist(addr, 8)
    assert len(lines) == 1 and len(other) == 2
