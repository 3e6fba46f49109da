"""Parity oracles for the batch write primitives and the batch hash.

``store_cells`` and ``flush_lines`` are defined by the event sequence of
their per-call loops (a payload ``write`` and a ``read_u64`` /
``write_atomic_u64`` commit per cell; a ``clflush`` per line).
:class:`NVMRegion` runs them fused and :class:`RawBackend` natively;
here both are compared with the loop itself, which the ``_Ref``
subclass (and any armed crash or attached observer) runs. The batch
hash ``HashFamily.hash_many`` must equal the scalar function key by key
on both sides of its numpy cut-off.
"""

from __future__ import annotations

import contextlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.test_scan_primitives import (
    ODD_LATENCY,
    ORACLE_REGION,
    _both,
    _churn,
    _oracle_pair,
    _oracle_state,
    _raw_state,
    _Ref,
    _window_log,
)

from repro import (
    CacheConfig,
    NVMRegion,
    RawBackend,
    SimConfig,
    SimulatedPowerFailure,
    random_schedule,
)
from repro.hashes import HashFamily, functions
from repro.hashes.functions import _NP_MIN_HASH
from repro.nvm import memory
from repro.nvm.latency import PAPER_NVM
from repro.nvm.wearlevel import WearLevelledRegion


def _loop_store(region, cells, payloads, offset, mask):
    """The contract of ``store_cells``, spelled out."""
    for i, cell in enumerate(cells):
        if payloads is not None:
            region.write(cell + offset, payloads[i])
        if mask:
            region.write_atomic_u64(cell, region.read_u64(cell) | mask)


def _loop_flush(region, lines):
    """The contract of ``flush_lines``, spelled out."""
    for line in lines:
        region.clflush(line * region.line_size)


def _store_args(data, rng, line=None):
    """A batch of cells (straddling lines, sometimes shuffled, repeated,
    unaligned, past the region's end, or ascending with random gaps like
    a bulk load's at 30 % load), payloads or None, an offset and a mask
    (0 skips the commit half). Batches of 21–300 cells span more lines
    than the oracle's caches hold. Given the cache's ``line`` size, only
    batches the per-line path takes: at least 4 ascending cells (fewer
    only where the region ends), each touching at most a line inside
    the region, with payloads of one non-zero size."""
    cell_size = data.draw(st.sampled_from([16, 24, 40]), label="cell_size")
    smallest = 0 if line is None else 4
    count = data.draw(st.integers(smallest, 20) | st.integers(21, 300), label="count")
    base = data.draw(st.integers(0, ORACLE_REGION // cell_size - 1), label="base")
    shapes = ["sorted", "sparse", "shuffled", "repeat", "unaligned", "outside"]
    if line is not None:
        shapes = shapes[:2]
    shape = data.draw(st.sampled_from(shapes), label="shape")
    if shape == "sparse":
        slots = range(base, ORACLE_REGION // cell_size)
        cells = [slot * cell_size for slot in slots if rng.random() < 0.3][:count]
    else:
        cells = [(base + i) * cell_size for i in range(count)]
    cells = [cell for cell in cells if cell + cell_size <= ORACLE_REGION]
    if shape == "shuffled":
        rng.shuffle(cells)
    elif shape == "repeat" and cells:
        cells = cells + [rng.choice(cells)]
    elif shape == "unaligned" and cells:
        cells[rng.randrange(len(cells))] += 4
    elif shape == "outside":
        cells = cells + [ORACLE_REGION - 8 + rng.choice([0, 4, 8])]
    offset = data.draw(st.sampled_from([8, 8, 0, 16]), label="offset")
    mask = data.draw(st.sampled_from([0, 1, 1, 0x80, 0x100, 1 << 40]), label="mask")
    payloads = None
    if data.draw(st.booleans(), label="payloads") or not mask:
        sizes = [cell_size - 8, 8, 1, 0]
        if line is not None:
            sizes = [size for size in sizes[:3] if offset + size <= line]
        size = data.draw(st.sampled_from(sizes), label="size")
        if line is not None:
            cells = [cell for cell in cells if cell + offset + size <= ORACLE_REGION]
        payloads = [rng.randbytes(size) for _ in cells]
        if line is None and payloads and data.draw(st.booleans(), label="mixed"):
            payloads[-1] = payloads[-1] + b"\x01"
    return cells, payloads, offset, mask


@contextlib.contextmanager
def _loop_calls():
    """The classes of the regions that run ``_store_cells_loop`` inside
    the block, in call order."""
    calls = []
    loop = memory._store_cells_loop

    def spy(region, *args):
        calls.append(type(region))
        loop(region, *args)

    memory._store_cells_loop = spy
    try:
        yield calls
    finally:
        memory._store_cells_loop = loop


def _run(region, method, *args):
    """Outcome of one primitive call (result or exception), plus the
    clock each dirty writeback's wear observer read."""
    wear_log = []
    if region.wear is not None:
        region.wear.observe(
            lambda line: wear_log.append((line, region.stats.sim_time_ns))
        )
    try:
        outcome = ("ok", getattr(region, method)(*args))
    except (IndexError, ValueError) as exc:
        outcome = (type(exc).__name__, str(exc))
    if region.wear is not None:
        region.wear.unobserve(region.wear.observers[0])
    return outcome, wear_log


def _per_line_pair(data):
    """A fused region and its loop-running twin that take the per-line
    store path: at least 2 sets, no wear tracking."""
    line = data.draw(st.sampled_from([32, 64, 128]), label="line")
    ways = data.draw(st.sampled_from([1, 2, 4]), label="ways")
    sets = data.draw(st.sampled_from([2, 8]), label="sets")
    config = SimConfig(
        latency=data.draw(st.sampled_from([PAPER_NVM, ODD_LATENCY]), label="costs"),
        cache=CacheConfig(
            size_bytes=line * ways * sets, line_size=line, associativity=ways
        ),
        flush_invalidates=data.draw(st.booleans(), label="flush_invalidates"),
    )
    return NVMRegion(ORACLE_REGION, config), _Ref(ORACLE_REGION, config)


def _store_rounds(data, regions, per_line):
    """One to three rounds of churn, a store batch (with a dirty line
    ahead of it or a primed first line, as drawn) and a flush of its
    lines, each leaving the fused region in its twin's state; with
    ``per_line``, batches the per-line path takes, checked to take it."""
    fused, ref = regions
    line = fused.line_size
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    for _ in range(data.draw(st.integers(1, 3), label="rounds")):
        _churn(rng, regions)
        cells, payloads, offset, mask = _store_args(
            data, rng, line if per_line else None
        )
        ahead = [cell for cell in cells[-3:] if cell < ORACLE_REGION]
        if ahead and data.draw(st.booleans(), label="dirty_ahead"):
            # a dirty resident line at the end of the batch's span, which
            # the batch's first lines may evict before the batch reaches
            # it (and, that late, not again)
            _both(regions, "write", rng.choice(ahead), b"\x5a")
        prime = data.draw(st.sampled_from([None, 0, offset, "flushed"]), label="prime")
        if prime == "flushed" and cells and cells[0] >= line:
            # the line before the batch's was entered last, then flushed:
            # no line is MRU, yet the batch's first fill is prefetched
            _both(regions, "read", cells[0] - line, 1)
            _both(regions, "clflush", cells[0] - line)
        elif prime in (0, offset) and cells and 0 <= cells[0] + prime < ORACLE_REGION:
            # the batch starts on a clean MRU line: its first touch must
            # still mark the line dirty
            _both(regions, "read", cells[0] + prime, 1)
        with _loop_calls() as looped:
            assert _run(fused, "store_cells", cells, payloads, offset, mask) == _run(
                ref, "store_cells", cells, payloads, offset, mask
            )
        if per_line and len(cells) >= memory._MIN_BATCH:
            assert looped == [_Ref]
        assert _oracle_state(fused) == _oracle_state(ref)
        n_lines = ORACLE_REGION // line
        lines = sorted({min(cell // line, n_lines - 1) for cell in cells})
        if data.draw(st.booleans(), label="shuffle_lines"):
            rng.shuffle(lines)
            lines += lines[:2]
        if data.draw(st.integers(0, 9), label="bad_line") == 0:
            lines.append(n_lines)
        assert _run(fused, "flush_lines", lines) == _run(ref, "flush_lines", lines)
        assert _oracle_state(fused) == _oracle_state(ref)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fused_stores_match_per_call_loop(data):
    """``store_cells`` then ``flush_lines`` leave exactly the state their
    loops leave — every counter (``sim_time_ns`` under distinct costs
    too), each cache set's LRU order and dirty flags, the prefetcher
    and fast-line markers, both images and wear — on tiny caches that
    evict dirty lines, both flush semantics, either half alone, empty
    and odd batches (which raise where the loop raises)."""
    _store_rounds(data, _oracle_pair(data), per_line=False)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_per_line_stores_match_per_call_loop(data):
    """The same oracle on regions and batches the per-line store path
    takes (2 or 8 sets, no wear tracking, ascending batches of cells
    that each touch at most a line), checked to take them."""
    _store_rounds(data, _per_line_pair(data), per_line=True)


def test_fused_stores_match_loop_on_straddling_cells():
    """A deterministic case: 24-byte cells from 16 on a two-set cache,
    so kv writes straddle lines and fills evict dirty lines; the store,
    the flush and a bitmap-only pass all match the loop."""
    config = SimConfig(
        latency=ODD_LATENCY,
        cache=CacheConfig(size_bytes=256, line_size=64, associativity=2),
    )
    fused, ref = NVMRegion(ORACLE_REGION, config), _Ref(ORACLE_REGION, config)
    cells = [16 + 24 * i for i in range(40)]
    payloads = [bytes([i + 1]) * 16 for i in range(40)]
    for region in (fused, ref):
        region.read(cells[0] + 8, 1)  # a clean MRU line under the first write
        region.store_cells(cells, payloads, 8, 1)
        region.flush_lines(list(range(0, (16 + 24 * 40) // 64 + 1)))
        region.read(cells[0], 1)  # and under the first bitmap-only commit
        region.store_cells(cells[::3], None, 0, 0x80)
    assert _oracle_state(fused) == _oracle_state(ref)
    assert fused.stats.evictions > 0 and fused.stats.dirty_flushes > 0
    assert fused.peek_persistent(16 + 8, 16) == payloads[0]


def _per_line_case(case):
    """Two regions on a 2-set, 2-way cache of 64-byte lines with integer
    costs, prepared for ``case``, the ascending batch to store (24-byte
    cells up to line 20, or one cell per line) and its payloads."""
    config = SimConfig(cache=CacheConfig(size_bytes=256, line_size=64, associativity=2))
    regions = NVMRegion(ORACLE_REGION, config), _Ref(ORACLE_REGION, config)
    cells = [24 * i for i in range(56)]
    if case == "dirty_ahead":
        # line 20 is dirty and resident; line 2 evicts it long before the
        # batch stores into it
        _both(regions, "write", 1284, b"\x5a")
    elif case == "flushed_fast":
        # line 9 was entered last and then flushed, so no line is MRU;
        # the batch's first fill (line 10) still follows line 9
        cells = [cell for cell in cells if cell >= 640]
        _both(regions, "read", 600, 1)
        _both(regions, "clflush", 600)
    else:
        # the batch's first line is the clean MRU line, and no later
        # touch enters it again (one cell per line)
        cells = [64 * i for i in range(21)]
        _both(regions, "read", 0, 1)
    payloads = [bytes([i + 1]) * 16 for i in range(len(cells))]
    return regions, cells, payloads


@pytest.mark.parametrize("case", ["dirty_ahead", "flushed_fast", "clean_mru"])
def test_per_line_store_edge_cases(case):
    """An ascending batch goes once per line and leaves the loop's state
    where the per-line path is easiest to get wrong: a dirty line ahead of
    the batch is written back before the stores (its persistent bytes
    are the old ones), the first fill after a flushed line is prefetched,
    and a first touch on the clean MRU line marks it dirty."""
    (fused, ref), cells, payloads = _per_line_case(case)
    before = fused.stats.prefetched_fills
    with _loop_calls() as looped:
        for region in (fused, ref):
            region.store_cells(cells, payloads, 8, 1)
    assert looped == [_Ref]
    assert _oracle_state(fused) == _oracle_state(ref)
    if case == "dirty_ahead":
        assert fused.peek_persistent(1284, 1) == b"\x5a"
        assert fused.peek_volatile(1284, 1) != b"\x5a"
    elif case == "flushed_fast":
        assert fused.stats.prefetched_fills > before
    else:
        # evicted dirty, so written back with the batch's stores
        assert fused.peek_persistent(0, 64) == fused.peek_volatile(0, 64) != bytes(64)


def test_empty_batch_and_no_op_halves():
    """An empty batch, and ``payloads=None`` with ``mask=0``, change
    nothing; payloads and cells of different lengths raise up front."""
    region = NVMRegion(ORACLE_REGION)
    before = _oracle_state(region)
    region.store_cells([], None, 8, 1)
    region.store_cells([], [], 8, 1)
    region.store_cells([0, 24], None, 8, 0)
    region.flush_lines([])
    assert _oracle_state(region) == before
    with pytest.raises(ValueError, match="payloads"):
        region.store_cells([0, 24], [b"x" * 16], 8, 1)
    assert _oracle_state(region) == before


def _events(region):
    seen = []
    region.observe(lambda *event: seen.append(event))
    return seen


WEAR_CONFIG = SimConfig(
    cache=CacheConfig(size_bytes=1024, line_size=64, associativity=2)
)
CELLS = [24 * i for i in range(1, 30)]
PAYLOADS = [bytes([i]) * 16 for i in range(1, 30)]
LINES = sorted({c // 64 for c in CELLS} | {(c + 23) // 64 for c in CELLS})


def _both_primitives(region):
    region.store_cells(CELLS, PAYLOADS, 8, 1)
    region.flush_lines(LINES)


def _both_loops(region):
    _loop_store(region, CELLS, PAYLOADS, 8, 1)
    _loop_flush(region, LINES)


@pytest.mark.parametrize(
    "make",
    [
        lambda: NVMRegion(ORACLE_REGION, SimConfig(latency=ODD_LATENCY)),
        lambda: RawBackend(ORACLE_REGION),
        lambda: WearLevelledRegion(ORACLE_REGION, WEAR_CONFIG, rotate_every=8),
    ],
    ids=["sim", "raw", "wear-levelled"],
)
def test_observed_primitives_emit_the_loops_events(make):
    """With an observer attached (and on a WearLevelledRegion, which
    remaps addresses) the primitives run the loop: the same (kind, addr,
    size) events in the same order, and the same end state."""
    fused, looped = make(), make()
    fused_events, looped_events = _events(fused), _events(looped)
    _both_primitives(fused)
    _both_loops(looped)
    assert fused_events == looped_events
    # a write and a commit per cell, a flush per line (wear leveling's
    # rotations add writes of their own)
    assert len(fused_events) >= 2 * len(CELLS) + len(LINES)
    assert fused.stats.as_dict() == looped.stats.as_dict()
    assert fused.peek_persistent(0, ORACLE_REGION) == looped.peek_persistent(
        0, ORACLE_REGION
    )
    assert fused.peek_volatile(0, ORACLE_REGION) == looped.peek_volatile(
        0, ORACLE_REGION
    )


@pytest.mark.parametrize("backend", ["sim", "raw"])
@pytest.mark.parametrize("after", [1, 2, 3, 30, 57, 58, 59, 70])
def test_armed_crash_fires_where_the_loop_fires(backend, after):
    """An armed crash makes the primitives run the loop, so the power
    failure fires before the same event, leaving the same images."""
    def make():
        if backend == "raw":
            return RawBackend(ORACLE_REGION)
        return NVMRegion(ORACLE_REGION, SimConfig(latency=ODD_LATENCY))

    outcomes = []
    for run in (_both_primitives, _both_loops):
        region = make()
        region.arm_crash(after)
        try:
            run(region)
            fired = False
        except SimulatedPowerFailure:
            fired = True
        outcomes.append(
            (
                fired,
                region.stats.as_dict(),
                region.peek_volatile(0, ORACLE_REGION),
                region.peek_persistent(0, ORACLE_REGION),
            )
        )
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (after <= 2 * len(CELLS) + len(LINES))


@pytest.mark.parametrize("mask", [1, 0x100])
def test_raw_backend_native_stores_match_loop(mask):
    """RawBackend's native path leaves the loop's dirty-line set,
    counters and images after every step: sparse cells whose payloads
    straddle lines, a full flush, a bitmap-only pass on clean lines (a
    multi-byte mask too), a partial flush, a payload-only pass, stores
    into the region's last line and a flush naming lines more than once.
    Both on a region of whole lines and on one whose last line is
    partial."""
    for size in (ORACLE_REGION, ORACLE_REGION - 24):
        tail = [size - 24 * k for k in (4, 3, 2, 1)]
        last = (size - 1) // 64
        steps = [
            ("store", CELLS[1::4], PAYLOADS[1::4], 8, mask),
            ("flush", LINES),
            ("store", CELLS[::3], None, 0, mask << 1),
            ("flush", LINES[::2]),
            ("store", CELLS[1::2], PAYLOADS[1::2], 8, 0),
            ("store", tail, PAYLOADS[:4], 8, mask),
            ("flush", [last, last - 1, last, *LINES[:3], last - 1, LINES[0]]),
        ]
        native, looped = RawBackend(size), RawBackend(size)
        for kind, *args in steps:
            if kind == "store":
                native.store_cells(*args)
                _loop_store(looped, *args)
            else:
                native.flush_lines(*args)
                _loop_flush(looped, *args)
            assert _raw_state(native) == _raw_state(looped)
        assert native._dirty
        assert native.peek_persistent(size - 16, 16) == PAYLOADS[3]


def test_simulated_clock_stays_an_int():
    """``sim_time_ns`` is an ``int`` after every path that charges it —
    scalar accesses, flushes, fences, each scan per line and as its loop,
    ``store_cells`` per line and as its loop, ``flush_lines``, a crash —
    and after ``reset``, ``delta`` and ``merged``: a float literal in any
    of them would bring the float clock back unnoticed."""
    config = SimConfig(
        latency=ODD_LATENCY,
        cache=CacheConfig(size_bytes=512, line_size=64, associativity=2),
    )
    key = b"\xee" * 8
    window = (CELLS[0], 24, len(CELLS))  # every cell occupied: full scans
    scans = {
        "scan_clear_u64": window,
        "scan_match": (*window, key),
        "scan_occupied_bitmap": window,
        "scan_match_many": (*window, [key, key]),
        "scan_probe": (*window, key),
        "scan_torn": (*window, 24),
        "scan_occupied_at": (CELLS,),
        "scan_clear_at": (CELLS,),
        "scan_ne_at": (CELLS, 0),
        "scan_match_at": (CELLS, key),
        "scan_match_pairs": ([(cell, key) for cell in CELLS],),
    }

    def check(region, what):
        assert type(region.stats.sim_time_ns) is int, what

    for make in (NVMRegion, _Ref):
        region = make(ORACLE_REGION, config)
        check(region, "new")
        region.write(8, b"x")
        region.read(8, 1)
        region.write_u64(16, 1)
        region.read_u64(16)
        check(region, "read/write")
        region.clflush(8)
        region.mfence()
        region.persist(0, 200)
        check(region, "clflush/mfence/persist")
        with _loop_calls() as looped:
            region.store_cells(CELLS, PAYLOADS, 8, 1)
        assert looped == ([] if make is NVMRegion else [_Ref])
        check(region, "store_cells")
        with _window_log() as windows:
            for name, args in scans.items():
                getattr(region, name)(*args)
                check(region, name)
        assert bool(windows) == (make is NVMRegion)
        region.write(CELLS[-1] + 8, b"z")  # one dirty line among the flushed
        dirty_flushes = region.stats.dirty_flushes
        region.flush_lines(LINES)
        assert region.stats.dirty_flushes > dirty_flushes
        check(region, "flush_lines")
        region.write(8, b"y")
        region.crash(random_schedule(seed=1))
        check(region, "crash")
        before = region.stats.snapshot()
        region.read(ORACLE_REGION - 8, 8)
        assert type(region.stats.delta(before).sim_time_ns) is int
        assert type(region.stats.merged(before).sim_time_ns) is int
        region.stats.reset()
        check(region, "reset")


# ----------------------------------------------------------------------
# the batch hash


#: batch sizes on each side of the numpy cut-off: below it (and empty)
#: ``hash_many`` runs the scalar function, from it numpy's rounds
BATCH_SIZES = {
    "no-numpy": [0, 1, _NP_MIN_HASH - 1],
    "numpy": [_NP_MIN_HASH, _NP_MIN_HASH + 1, 300],
}


@pytest.mark.parametrize("path", ["numpy", "no-numpy"])
@settings(deadline=None)
@given(
    data=st.data(),
    width=st.sampled_from([8, 16, 1, 5, 12, 24]),
    index=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_hash_many_matches_scalar_function(path, data, width, index, seed):
    """Key widths of 8 and 16 bytes and others (a short last word is
    zero-padded), empty input, batches on the ``path`` side of the
    cut-off: bit-for-bit the scalar function."""
    n = data.draw(st.sampled_from(BATCH_SIZES[path]), label="n")
    family = HashFamily(seed=0xC0FFEE)
    rng = random.Random(seed)
    keys = [rng.randbytes(width) for _ in range(n)]
    function = HashFamily(seed=0xC0FFEE).function(index)
    assert family.hash_many(index, keys) == [function(key) for key in keys]


@pytest.mark.parametrize("path", ["numpy", "no-numpy"])
def test_hash_many_mixed_widths_and_path_choice(monkeypatch, path):
    """Uniform batches at and past the cut-off take numpy's rounds; a
    mixed-width batch, a batch below the cut-off and an empty one run
    the scalar function. Each equals the scalar function."""
    family = HashFamily(seed=0xC0FFEE)
    rounds = []
    numpy_rounds = functions._splitmix64_np

    def counted(x):
        rounds.append(len(x))
        return numpy_rounds(x)

    monkeypatch.setattr(functions, "_splitmix64_np", counted)
    rng = random.Random(5)
    uniform = [rng.randbytes(8) for _ in range(_NP_MIN_HASH)]
    mixed = [rng.randbytes(rng.choice([8, 16, 3])) for _ in range(2 * _NP_MIN_HASH)]
    batches = {
        "numpy": [uniform, uniform * 2],
        "no-numpy": [mixed, uniform[:-1], []],
    }[path]
    function = family.function(1)
    for keys in batches:
        rounds.clear()
        assert family.hash_many(1, keys) == [function(key) for key in keys]
        # an 8-byte key is one word: one round for it, one to finish
        assert rounds == ([len(keys)] * 2 if path == "numpy" else [])
