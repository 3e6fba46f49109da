"""Parity oracles for the scan primitives.

Every bulk-probe primitive is written once (``repro.nvm.decode``): a
decoder over the volatile image plus a per-call reference loop, charged
by each backend's own policy. :class:`NVMRegion` and :class:`RawBackend`
must return identical results **and** charge identical access counts
(``reads`` / ``bytes_read``), and each must match its per-call loop,
which a trivial subclass runs — a decoded scan must account like the
loop it replaces, or the paper's simulated event counts would drift.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import SMALL_CACHE, count_cache_calls, small_region

from repro import CacheConfig, NVMRegion, RawBackend, SimConfig
from repro.nvm.decode import _CLEAR_CHUNK, _CLEAR_GROWTH
from repro.nvm.latency import PAPER_NVM, LatencyModel
from repro.nvm.memory import _MIN_WINDOW
from repro.nvm.wearlevel import WearLevelledRegion

STRIDE = 32
COUNT = 40
KEY_OFFSET = 8
KEY_SIZE = 8
BASE = 4096


def _fill(backend, occupied_mod: int = 3, dup_every: int = 11) -> None:
    """Deterministic cell array: cell i occupied iff i % occupied_mod,
    key = i (with a duplicate key every ``dup_every`` cells)."""
    for i in range(COUNT):
        addr = BASE + i * STRIDE
        if i % occupied_mod:
            backend.write_u64(addr, 1 | (i << 8))
            k = (i // dup_every) * dup_every if i % dup_every == 0 else i
            backend.write(addr + KEY_OFFSET, k.to_bytes(KEY_SIZE, "little"))
        else:
            backend.write_u64(addr, i << 8)  # mask bit clear, junk above


def _backends():
    """(label, backend) pairs: the simulator and the raw backend."""
    sim, raw = small_region(), RawBackend(4 << 20)
    for b in (sim, raw):
        _fill(b)
    return [("sim", sim), ("raw", raw)]


def _counts(backend):
    s = backend.stats
    return (s.reads, s.bytes_read)


def _assert_parity(backends, call):
    """Run ``call`` on each backend; identical result and count deltas."""
    outcomes = []
    for label, b in backends:
        before = _counts(b)
        result = call(b)
        delta = tuple(a - x for a, x in zip(_counts(b), before))
        outcomes.append((label, result, delta))
    ref_label, ref_result, ref_delta = outcomes[0]
    for label, result, delta in outcomes[1:]:
        assert result == ref_result, f"{label} result != {ref_label}"
        assert delta == ref_delta, f"{label} access counts != {ref_label}"
    return ref_result


def key_of(i: int) -> bytes:
    return i.to_bytes(KEY_SIZE, "little")


def test_scan_clear_u64_parity():
    backends = _backends()
    first_clear = _assert_parity(
        backends, lambda b: b.scan_clear_u64(BASE, STRIDE, COUNT)
    )
    assert first_clear == 0  # cell 0 is empty by construction
    # start past it: next empty is the next multiple of 3
    assert (
        _assert_parity(
            backends,
            lambda b: b.scan_clear_u64(BASE + STRIDE, STRIDE, COUNT - 1),
        )
        == 2
    )
    # all-occupied window → None, full scan charged
    _assert_parity(backends, lambda b: b.scan_clear_u64(BASE + STRIDE, STRIDE, 2))


def test_scan_match_parity():
    backends = _backends()
    hit = _assert_parity(
        backends,
        lambda b: b.scan_match(
            BASE, STRIDE, COUNT, key_of(7), key_offset=KEY_OFFSET
        ),
    )
    assert hit == 7
    # key stored in an *empty* cell's slot must not match (cell 0 empty)
    assert (
        _assert_parity(
            backends,
            lambda b: b.scan_match(
                BASE, STRIDE, COUNT, key_of(0), key_offset=KEY_OFFSET
            ),
        )
        is None
    )


def test_scan_occupied_bitmap_parity():
    backends = _backends()
    bitmap = _assert_parity(
        backends, lambda b: b.scan_occupied_bitmap(BASE, STRIDE, COUNT)
    )
    expected = sum(1 << i for i in range(COUNT) if i % 3)
    assert bitmap == expected


def test_gather_primitives_parity():
    backends = _backends()
    # scattered, deliberately unsorted address list (mix of occupancy)
    idxs = [5, 0, 17, 3, 30, 12, 9]
    addrs = [BASE + i * STRIDE for i in idxs]
    bitmap = _assert_parity(backends, lambda b: b.scan_occupied_at(addrs))
    assert bitmap == sum(1 << j for j, i in enumerate(idxs) if i % 3)
    assert _assert_parity(backends, lambda b: b.scan_clear_at(addrs)) == 1
    assert (
        _assert_parity(
            backends,
            lambda b: b.scan_match_at(addrs, key_of(17), key_offset=KEY_OFFSET),
        )
        == 2
    )
    assert (
        _assert_parity(
            backends,
            lambda b: b.scan_match_at(addrs, key_of(99), key_offset=KEY_OFFSET),
        )
        is None
    )


def test_scan_match_many_parity():
    backends = _backends()
    keys = [key_of(4), key_of(0), key_of(25), key_of(99), key_of(4)]
    result = _assert_parity(
        backends,
        lambda b: b.scan_match_many(
            BASE, STRIDE, COUNT, keys, key_offset=KEY_OFFSET
        ),
    )
    assert result == [4, None, 25, None, 4]


def test_scan_probe_parity():
    backends = _backends()
    # match before any empty cell (start at cell 1, occupied)
    assert _assert_parity(
        backends,
        lambda b: b.scan_probe(
            BASE + STRIDE, STRIDE, COUNT - 1, key_of(2), key_offset=KEY_OFFSET
        ),
    ) == (1, True)
    # empty cell before the match → (index, False)
    assert _assert_parity(
        backends,
        lambda b: b.scan_probe(
            BASE, STRIDE, COUNT, key_of(2), key_offset=KEY_OFFSET
        ),
    ) == (0, False)
    # neither in a fully-occupied window → None
    assert (
        _assert_parity(
            backends,
            lambda b: b.scan_probe(
                BASE + STRIDE, STRIDE, 2, key_of(99), key_offset=KEY_OFFSET
            ),
        )
        is None
    )


def test_scan_match_pairs_parity():
    backends = _backends()
    pairs = [
        (BASE + 7 * STRIDE, key_of(7)),  # occupied, right key
        (BASE + 7 * STRIDE, key_of(8)),  # occupied, wrong key
        (BASE + 0 * STRIDE, key_of(0)),  # empty cell
        (BASE + 25 * STRIDE, key_of(25)),
    ]
    result = _assert_parity(
        backends, lambda b: b.scan_match_pairs(pairs, key_offset=KEY_OFFSET)
    )
    assert result == [True, False, False, True]


@pytest.mark.parametrize("key_size", [8, 12])
def test_fuzz_parity(key_size):
    """Randomized occupancy/keys/windows across every primitive, with
    8- and 12-byte keys."""
    rng = random.Random(0xF00D + key_size)
    sim, raw = small_region(), RawBackend(4 << 20)
    stride = 8 + ((key_size + 7) // 8) * 8 + 8
    count = 64
    keys = []
    for i in range(count):
        addr = BASE + i * stride
        header = rng.choice([0, 1]) | (rng.getrandbits(32) << 8)
        key = rng.getrandbits(8 * key_size).to_bytes(key_size, "little")
        keys.append(key)
        for b in (sim, raw):
            b.write_u64(addr, header)
            b.write(addr + 8, key)
    backends = [("sim", sim), ("raw", raw)]
    for _ in range(40):
        start = rng.randrange(count)
        n = rng.randrange(1, count - start + 1)
        probe_key = rng.choice(keys + [b"\xff" * key_size])
        base = BASE + start * stride
        _assert_parity(backends, lambda b: b.scan_clear_u64(base, stride, n))
        _assert_parity(backends, lambda b: b.scan_occupied_bitmap(base, stride, n))
        _assert_parity(
            backends, lambda b: b.scan_match(base, stride, n, probe_key)
        )
        _assert_parity(
            backends, lambda b: b.scan_probe(base, stride, n, probe_key)
        )
        gather = [
            BASE + rng.randrange(count) * stride for _ in range(rng.randrange(1, 12))
        ]
        _assert_parity(backends, lambda b: b.scan_occupied_at(gather))
        _assert_parity(backends, lambda b: b.scan_clear_at(gather))
        _assert_parity(backends, lambda b: b.scan_match_at(gather, probe_key))
        pairs = [(a, rng.choice(keys)) for a in gather]
        _assert_parity(backends, lambda b: b.scan_match_pairs(pairs))
        many = [rng.choice(keys) for _ in range(5)]
        _assert_parity(
            backends, lambda b: b.scan_match_many(base, stride, n, many)
        )
        for size in (8 + key_size, stride):
            _assert_parity(backends, lambda b: b.scan_torn(base, stride, n, size))


def test_scan_torn_parity():
    backends = _backends()
    # free cells 9 and 30 get a payload: torn; every other free cell is zero
    for _, b in backends:
        b.write(BASE + 9 * STRIDE + KEY_OFFSET, key_of(9))
        b.write(BASE + 30 * STRIDE + STRIDE - 1, b"\x01")
    size = KEY_OFFSET + KEY_SIZE
    rest = BASE + 10 * STRIDE
    cases = [
        ((BASE, STRIDE, COUNT, size), (9, 6)),
        # the byte past the key is outside a header+key read, inside a cell
        ((rest, STRIDE, COUNT - 10, size), (None, 20)),
        ((rest, STRIDE, COUNT - 10, STRIDE), (20, 14)),
        # mask bit 1 is clear in every header: all cells free, cell 1 torn
        ((BASE, STRIDE, COUNT, size, 2), (1, 0)),
        ((BASE, STRIDE, 0, size), (None, 0)),
    ]
    for args, expected in cases:
        assert _assert_parity(backends, lambda b: b.scan_torn(*args)) == expected


@pytest.mark.parametrize("mask", [1, 1 << 40])
def test_whole_region_gather_parity(mask):
    """A gather over every header word of 1 MiB (2^17 addresses, the
    scale of the generic recover on a large table) gives one bitmap and
    one read count on every path: the decoder charged by the simulator
    and by RawBackend, and a subclass's per-word loop. Both build their
    bitmap from one digit string, linear in the address count."""
    backends = _backends()
    backends.append(("loop", _Ref(4 << 20, SimConfig(cache=SMALL_CACHE))))
    image = random.Random(17).randbytes(1 << 20)
    for _, b in backends:
        b.write(0, image)
    addrs = list(range(0, 1 << 20, 8))
    bitmap = _assert_parity(backends, lambda b: b.scan_occupied_at(addrs, mask))
    assert bitmap.bit_count() == sum(
        int.from_bytes(image[a : a + 8], "little") & mask != 0 for a in addrs
    )


def _scan_outcome(backend, call):
    """Result or IndexError message of ``call(backend)``, and its
    ``(reads, bytes_read)`` delta."""
    before = _counts(backend)
    try:
        outcome = ("ok", call(backend))
    except IndexError as exc:
        outcome = ("IndexError", str(exc))
    return outcome, tuple(a - b for a, b in zip(_counts(backend), before))


def _int64s(addrs):
    """``addrs`` as a numpy int64 array, as a caller holding
    ``hash_many``'s output may hand a gather."""
    return np.array(addrs, dtype=np.int64)


#: gathers that reach outside a 4 KiB region whose first cell holds
#: header 3 and key 0x01.., their addresses passed through ``a`` (a
#: list, or a numpy int64 array)
OUT_OF_RANGE_GATHERS = {
    "clear_at-neg": lambda b, a: b.scan_clear_at(a([-8])),
    "match_at-neg": lambda b, a: b.scan_match_at(a([-24]), b"\0" * 8),
    "pairs-neg": lambda b, a: b.scan_match_pairs(zip(a([-24]), [b"\0" * 8])),
    "ne_at-neg": lambda b, a: b.scan_ne_at(a([-8]), 0),
    "occupied_at-end": lambda b, a: b.scan_occupied_at(a([4096] * 40)),
    "occupied_at-tail": lambda b, a: b.scan_occupied_at(a([0] * 39 + [4090])),
    "clear_at-tail": lambda b, a: b.scan_clear_at(a([0] * 39 + [-8]), 2),
    "match_at-tail": lambda b, a: b.scan_match_at(a([0] * 39 + [4088]), b"\0" * 8),
    "pairs-tail": lambda b, a: b.scan_match_pairs(
        zip(a([0] * 39 + [-8]), [b"\0" * 8] * 39 + [b""])
    ),
    "ne_at-tail": lambda b, a: b.scan_ne_at(a([0] * 39 + [4089]), 3),
    # the probe stops before the bad address: no error
    "ne_at-stops": lambda b, a: b.scan_ne_at(a([0, 8, -8]), 3),
    "match_at-stops": lambda b, a: b.scan_match_at(a([0, -8]), b"\1" * 8),
}


@pytest.mark.parametrize("numpy", [True, False], ids=["numpy", "pure"])
@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE_GATHERS))
def test_raw_gathers_raise_like_the_read_loop(name, numpy):
    """A RawBackend gather reaching outside the region, its addresses in
    a numpy array or a list, raises the IndexError of the loop of reads,
    after counting the reads that loop made — never reading the region's
    tail for a negative address."""
    gather, addrs = OUT_OF_RANGE_GATHERS[name], _int64s if numpy else list
    backends = RawBackend(4096), _Ref(4096)
    for backend in backends:
        backend.write_u64(0, 3)
        backend.write(8, b"\1" * 8)
    raw, ref = (
        _scan_outcome(backend, lambda b: gather(b, addrs)) for backend in backends
    )
    assert raw == ref


#: windows past the end of a 4 KiB region whose first cell holds header
#: 1 and key 0x01.., or with a stride under a header word: the loop
#: answers early or raises after counting its reads
LOOP_WINDOWS = {
    "clear_u64-past-end": lambda b: b.scan_clear_u64(4000, 24, 10),
    "clear_u64-stride-4": lambda b: b.scan_clear_u64(0, 4, 3),
    "probe-past-end": lambda b: b.scan_probe(4000, 24, 10, b"\1" * 8),
    "match-past-end": lambda b: b.scan_match(4000, 24, 10, b"\1" * 8),
    "match_many-past-end": lambda b: b.scan_match_many(
        4000, 24, 10, [b"\1" * 8, b"\2" * 8]
    ),
    "occupied_bitmap-past-end": lambda b: b.scan_occupied_bitmap(4000, 24, 10),
    "occupied_bitmap-stride-0": lambda b: b.scan_occupied_bitmap(0, 0, 3),
}


@pytest.mark.parametrize("name", sorted(LOOP_WINDOWS))
def test_raw_windows_outside_the_decoder_run_the_loop(name):
    """A RawBackend window that runs past the region or has a stride
    under 8 gives the simulator's answer or IndexError, after the same
    ``reads`` and ``bytes_read``."""
    call = LOOP_WINDOWS[name]
    backends = RawBackend(4096), NVMRegion(4096)
    for backend in backends:
        backend.write_u64(0, 1)
        backend.write(8, b"\1" * 8)
    raw, sim = (_scan_outcome(backend, call) for backend in backends)
    assert raw == sim


# ----------------------------------------------------------------------
# line-granular charging oracle: NVMRegion's fused scans against the
# per-word loops, which a trivial subclass runs


class _Ref(NVMRegion):
    """Runs every scan's per-word loop (the fused path is base-class only)."""


ORACLE_REGION = 4096

#: costs other than the paper's, all distinct, with a non-zero eviction
#: writeback, so an event charged as the wrong kind, or a wrong
#: writeback count, shows in ``sim_time_ns``
ODD_LATENCY = LatencyModel(
    name="odd",
    cache_hit_ns=3,
    line_fill_ns=97,
    prefetch_hit_ns=7,
    flush_base_ns=41,
    nvm_write_extra_ns=299,
    fence_ns=5,
    eviction_writeback_ns=13,
)

PRIMITIVES = (
    "scan_clear_u64",
    "scan_match",
    "scan_occupied_bitmap",
    "scan_match_many",
    "scan_probe",
    "scan_occupied_at",
    "scan_clear_at",
    "scan_ne_at",
    "scan_match_at",
    "scan_match_pairs",
    "scan_torn",
)


def _oracle_state(region):
    """Everything a scan may change: counters, each cache set's LRU order
    and dirty flags, the prefetcher and fast-line markers, both images,
    and wear counts."""
    return (
        region.stats.as_dict(),
        [list(bucket.items()) for bucket in region.cache._sets],
        region._prev_line,
        region._fast_line,
        bytes(region._persistent),
        bytes(region._volatile),
        None if region.wear is None else region.wear.counts().tolist(),
    )


def _oracle_pair(data):
    line = data.draw(st.sampled_from([32, 64, 128]), label="line")
    ways = data.draw(st.sampled_from([1, 2, 4]), label="ways")
    sets = data.draw(st.sampled_from([1, 2, 8]), label="sets")
    config = SimConfig(
        latency=data.draw(st.sampled_from([PAPER_NVM, ODD_LATENCY])),
        cache=CacheConfig(
            size_bytes=line * ways * sets, line_size=line, associativity=ways
        ),
        flush_invalidates=data.draw(st.booleans(), label="flush_invalidates"),
        track_wear=data.draw(st.booleans(), label="track_wear"),
    )
    return NVMRegion(ORACLE_REGION, config), _Ref(ORACLE_REGION, config)


def _both(regions, method, *args):
    for region in regions:
        getattr(region, method)(*args)


def _churn(rng, regions):
    """Random writes (zero-size ones included), reads and flushes,
    including a clflush of the current fast line."""
    for _ in range(rng.randrange(13)):
        kind = rng.choice(["write", "read", "flush", "flush_fast"])
        addr = rng.randrange(ORACLE_REGION - 16)
        if kind == "write":
            _both(regions, "write", addr, rng.randbytes(rng.randrange(17)))
        elif kind == "read":
            _both(regions, "read", addr, rng.randrange(17))
        elif kind == "flush":
            _both(regions, "clflush", addr)
        elif regions[0]._fast_line >= 0:
            _both(regions, "clflush", regions[0]._fast_line * regions[0].line_size)


#: a header with a bit of every mask the oracles draw
FULL_HEADER = 0x1FF | 1 << 40


def _chunk_edges(count: int) -> list[int]:
    """Cell indices on and beside each edge between two chunks of the
    clear-bit decoder (``_CLEAR_CHUNK`` cells, each further chunk
    ``_CLEAR_GROWTH`` times the one before) inside a window of ``count``
    cells."""
    edges, edge, chunk = [], _CLEAR_CHUNK, _CLEAR_CHUNK
    while edge < count:
        edges += [edge - 1, edge, edge + 1]
        chunk *= _CLEAR_GROWTH
        edge += chunk
    return edges


def _plant(rng, regions, cells, keys, name):
    """Headers with random occupancy and junk above byte 0, and keys
    drawn from ``keys``, at every in-region cell of ``cells``, after a
    leading run of cells occupied under every mask, whose length is
    often one beside a chunk edge of the clear-bit decoder. For
    ``scan_torn`` a payload is as often all zero and a header may carry
    only bit 7, so free cells are torn or clean; the other primitives
    keep their key-match rate."""
    key_size = len(keys[0])
    headers = [0, 1, 0x100, 0x101, 1 << 40, 3]
    payloads = keys
    if name == "scan_torn":
        headers = headers + [0x80]
        payloads = keys + [bytes(key_size)] * len(keys)
    run = rng.choice([0, rng.randrange(len(cells) + 1)] + _chunk_edges(len(cells)))
    for i, addr in enumerate(cells):
        if addr + 8 + key_size <= ORACLE_REGION:
            header = FULL_HEADER if i < run else rng.choice(headers)
            cell = header.to_bytes(8, "little") + rng.choice(payloads)
            _both(regions, "write", addr, cell)


def _scan_args(data, rng, name, keys):
    """Cells to plant, and the arguments of one ``name`` call over a
    drawn window or gather (gathers may repeat and descend). A window
    may end within a byte of the region's end or cross three chunk edges
    of the clear-bit decoder, and the match-many and pairs scans may mix
    key lengths."""
    key = data.draw(st.sampled_from(keys + [b"\xee" * len(keys[0])]), label="key")
    mask = data.draw(st.sampled_from([1, 3, 0x80, 0x100, 0x101, 1 << 40, -1]))
    stride = data.draw(st.sampled_from([4, 8, 12, 16, 24, 40, 72, 136]), label="stride")
    count = data.draw(st.integers(0, 24) | st.integers(25, 200), label="count")
    words = ("scan_clear", "scan_occupied", "scan_ne")
    access = 8 if name.startswith(words) else 8 + len(key)
    if name == "scan_torn":
        sizes = st.sampled_from([1, 8, 12, access, access + 4])
        access = data.draw(sizes, label="size")
    edge = ORACLE_REGION - access - max(count - 1, 0) * stride
    addr = data.draw(
        st.integers(0, ORACLE_REGION // 4 - 2).map(lambda a: a * 4)
        | st.sampled_from([edge - 1, edge, edge + 1]).filter(lambda a: a >= 0),
        label="addr",
    )
    window = [addr + i * stride for i in range(count)]
    match = {"mask": mask, "key_offset": 8}
    mixed = keys + [keys[0] + b"\x00"] * rng.randrange(2)
    if name.endswith(("_at", "_pairs")):
        pool = window + [rng.randrange(ORACLE_REGION + 8) for _ in range(3)]
        pool += [ORACLE_REGION - access - 1, ORACLE_REGION - access + 1]
        gather = [rng.choice(pool) for _ in range(rng.randrange(25))]
        if name in ("scan_occupied_at", "scan_clear_at"):
            return window, (gather, mask), {}
        if name == "scan_ne_at":
            word = int.from_bytes(key[:8], "little")
            value = data.draw(st.sampled_from([0, 1, 0x101, 1 << 40, word]))
            return window, (gather, value), {}
        if name == "scan_match_at":
            return window, (gather, key), match
        return window, ([(a, rng.choice(mixed)) for a in gather],), match
    if name in ("scan_clear_u64", "scan_occupied_bitmap"):
        return window, (addr, stride, count, mask), {}
    if name == "scan_torn":
        return window, (addr, stride, count, access, mask), {}
    if name == "scan_match_many":
        many = [rng.choice(mixed + [key]) for _ in range(rng.randrange(6))]
        return window, (addr, stride, count, many), match
    return window, (addr, stride, count, key), match


def _outcome(region, name, args, kwargs):
    """Result or IndexError of one scan, which must neither tick an armed
    crash countdown nor notify an observer, plus the clock each dirty
    eviction's wear observer read (a simulator's)."""
    seen = []
    wear_log = []
    region.arm_crash(1)
    def observer(*event):
        seen.append(event)

    region.observe(observer)
    wear = getattr(region, "wear", None)
    if wear is not None:
        region.wear.observe(
            lambda line: wear_log.append((line, region.stats.sim_time_ns))
        )
    try:
        outcome = ("ok", getattr(region, name)(*args, **kwargs))
    except IndexError as exc:
        outcome = ("IndexError", str(exc))
    assert region._crash_countdown == 1 and seen == []
    region.disarm_crash()
    region.unobserve(observer)
    if wear is not None:
        region.wear.unobserve(region.wear.observers[0])
    return outcome, wear_log


@pytest.mark.parametrize("name", PRIMITIVES)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fused_scan_matches_per_word_loop(name, data):
    """Each fused primitive leaves exactly the state the per-word loop
    leaves: result (or IndexError), every counter, LRU order and dirty
    flags, prefetcher/fast-line markers, images and wear."""
    fused, ref = regions = _oracle_pair(data)
    key_size = data.draw(st.sampled_from([8, 12]), label="key_size")
    keys = [
        bytes([i + 1]) * key_size for i in range(data.draw(st.integers(1, 3)))
    ]
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    for _ in range(data.draw(st.integers(1, 3), label="rounds")):
        window, args, kwargs = _scan_args(data, rng, name, keys)
        _plant(rng, regions, window, keys, name)
        _churn(rng, regions)
        assert _oracle_state(fused) == _oracle_state(ref)
        assert _outcome(fused, name, args, kwargs) == _outcome(ref, name, args, kwargs)
        assert _oracle_state(fused) == _oracle_state(ref)


class _RawRef(RawBackend):
    """Runs every scan's per-word loop (RawBackend decodes in place only
    on the class itself)."""


def _raw_state(region):
    """Everything a RawBackend call may change: dirty lines, counters
    and both images."""
    return (
        sorted(region._dirty),
        region.stats.as_dict(),
        region.peek_volatile(0, region.size),
        region.peek_persistent(0, region.size),
    )


@pytest.mark.parametrize("name", PRIMITIVES)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_raw_scan_matches_per_word_loop(name, data):
    """Each RawBackend primitive returns what the per-word loop returns
    on a RawBackend twin (or raises its IndexError) and leaves the same
    ``reads``, ``bytes_read`` and every other counter, dirty line and
    image byte."""
    decoded, looped = regions = RawBackend(ORACLE_REGION), _RawRef(ORACLE_REGION)
    key_size = data.draw(st.sampled_from([8, 12]), label="key_size")
    keys = [
        bytes([i + 1]) * key_size for i in range(data.draw(st.integers(1, 3)))
    ]
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    for _ in range(data.draw(st.integers(1, 3), label="rounds")):
        window, args, kwargs = _scan_args(data, rng, name, keys)
        _plant(rng, regions, window, keys, name)
        assert _outcome(decoded, name, args, kwargs) == _outcome(
            looped, name, args, kwargs
        )
        assert _raw_state(decoded) == _raw_state(looped)


def test_fused_scan_out_of_range_raises_like_loop():
    """A window running past the region raises IndexError after charging
    the in-range prefix, exactly as the loop does."""
    regions = NVMRegion(ORACLE_REGION), _Ref(ORACLE_REGION)
    for region in regions:
        region.write_u64(ORACLE_REGION - 48, 1)
        with pytest.raises(IndexError):
            region.scan_occupied_bitmap(ORACLE_REGION - 48, 24, 3)
        with pytest.raises(IndexError):
            region.scan_occupied_at([0, ORACLE_REGION - 4])
    assert _oracle_state(regions[0]) == _oracle_state(regions[1])
    assert regions[0].stats.reads == 3


NE_REGION = 1024

#: backend kinds the tenant probe must agree with its read_u64 loop on
NE_BACKENDS = {
    "sim": lambda: NVMRegion(NE_REGION, SimConfig(cache=SMALL_CACHE)),
    "wear-levelled": lambda: WearLevelledRegion(
        NE_REGION, SimConfig(cache=SMALL_CACHE), rotate_every=8
    ),
    # the raw backend, gathering a numpy int64 array or a list
    "raw-numpy": lambda: RawBackend(NE_REGION),
    "raw-pure": lambda: RawBackend(NE_REGION),
}


def _ne_loop(backend, addrs, value):
    """The probe's contract: one read_u64 per probed address."""
    for i, addr in enumerate(addrs):
        if backend.read_u64(addr) != value:
            return i
    return None


@pytest.mark.parametrize("kind", sorted(NE_BACKENDS))
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_scan_ne_at_matches_read_u64_loop(kind, data):
    """``scan_ne_at`` returns what a loop of ``read_u64`` returns — the
    first address whose word differs, None, or the loop's IndexError —
    and leaves every MemStats field as that loop does. The region is one
    repeated byte, so any address away from the planted junk, aligned or
    not, holds the same word: empty gathers, all-equal gathers, a first
    word that differs, duplicates and out-of-range addresses all come
    up."""
    fill = data.draw(st.integers(0, 255), label="fill")
    same = int.from_bytes(bytes([fill]) * 8, "little")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    pool = [8 * rng.randrange(NE_REGION // 8) for _ in range(6)]
    if data.draw(st.booleans(), label="unaligned"):
        pool += [a + rng.randrange(1, 8) for a in pool[:2]]
    # junk bytes inside some pooled words, so a word differs mid-gather
    junk = [
        (rng.choice(pool) + rng.randrange(8), rng.randrange(256))
        for _ in range(data.draw(st.integers(0, 3), label="junk"))
    ]
    twins = NE_BACKENDS[kind](), NE_BACKENDS[kind]()
    for backend in twins:
        backend.write(0, bytes([fill]) * NE_REGION)
        for addr, byte in junk:
            if addr < NE_REGION:
                backend.write(addr, bytes([byte]))
    pool += data.draw(
        st.lists(st.sampled_from([-8, -1, NE_REGION - 7, NE_REGION]), max_size=1),
        label="out_of_range",
    )
    addrs = [rng.choice(pool) for _ in range(data.draw(st.integers(0, 40)))]
    if kind == "raw-numpy":
        addrs = _int64s(addrs)
    value = data.draw(
        st.sampled_from([same, same, 0, 2**64 - 1, -1]), label="value"
    )
    probe, loop = twins
    outcomes = []
    for backend, call in (
        (probe, lambda: probe.scan_ne_at(addrs, value)),
        (loop, lambda: _ne_loop(loop, addrs, value)),
    ):
        try:
            outcome = ("ok", call())
        except IndexError as exc:
            outcome = ("IndexError", str(exc))
        outcomes.append((outcome, backend.stats.as_dict()))
    assert outcomes[0] == outcomes[1]


def test_cold_group_scan_charges_one_access_per_line(monkeypatch):
    """A cold scan of 256 cells of 24 B enters each line once (96), as
    one CacheSim.enter_run, never per word; a WearLevelledRegion still
    runs the per-word loop and charges what it always has."""
    calls = count_cache_calls(monkeypatch)
    region = NVMRegion(1 << 16)
    assert region.scan_occupied_bitmap(0, 24, 256) == 0
    assert calls == {"access": 96, "touch_mru": 0, "runs": 1}
    assert region.stats.reads == 256
    assert region.stats.nvm_line_reads == 96
    assert region.stats.cache_hits == 160
    monkeypatch.undo()

    cfg = SimConfig(cache=CacheConfig(size_bytes=4096, line_size=64, associativity=4))
    levelled = WearLevelledRegion(1 << 14, cfg, rotate_every=16)
    for i in range(256):
        levelled.write_u64(24 * i, (i << 8) | (1 if i % 3 else 0))
    levelled.persist(0, 24 * 256)
    bitmap = levelled.scan_occupied_bitmap(0, 24, 256)
    assert bitmap == sum(1 << i for i in range(256) if i % 3)
    # exactly what the per-word loop charged before scans were fused
    assert levelled.stats.as_dict() == {
        "reads": 272,
        "writes": 289,
        "bytes_read": 3072,
        "bytes_written": 3208,
        "cache_hits": 335,
        "cache_misses": 49,
        "prefetched_fills": 177,
        "evictions": 70,
        "writebacks": 129,
        "flushes": 129,
        "dirty_flushes": 92,
        "fences": 34,
        "nvm_line_writes": 129,
        "nvm_bytes_written": 8256,
        "nvm_line_reads": 226,
        "sim_time_ns": 41445.0,
    }


# ----------------------------------------------------------------------
# window charging: a strided read window charged once per line against
# the per-cell loop

@contextlib.contextmanager
def _window_log():
    """Record the cells of each window ``NVMRegion._charge_window``
    charged per line; a window the per-cell loop charged leaves no
    entry."""
    log = []
    charge = NVMRegion._charge_window

    def logged(self, cells, size):
        log.append(cells)
        charge(self, cells, size)

    with mock.patch.object(NVMRegion, "_charge_window", logged):
        yield log


def _dirty(rng, regions, n):
    """``n`` random 16-byte stores, so windows evict dirty lines."""
    for _ in range(n):
        _both(regions, "write", rng.randrange(ORACLE_REGION - 16), rng.randbytes(16))


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_window_charge_matches_per_cell_loop(data):
    """A strided window of ``_MIN_WINDOW`` or more cells with ``size <=
    step <= line`` is charged per line (the log shows it; a shorter one
    runs the loop) and leaves exactly the state of ``_Ref``'s per-cell
    loop: every counter, the clock, LRU order and dirty flags, the
    markers, both images. The draws cover distinct costs with a non-zero
    eviction writeback, unaligned starts, ``step == size`` and ``step ==
    line``, a head line still MRU from the access before, and 1-set or
    1-way caches where a window evicts its own lines."""
    line = data.draw(st.sampled_from([32, 64, 128]), label="line")
    ways = data.draw(st.sampled_from([1, 2, 4]), label="ways")
    sets = data.draw(st.sampled_from([1, 2, 8]), label="sets")
    config = SimConfig(
        latency=data.draw(st.sampled_from([ODD_LATENCY, PAPER_NVM]), label="costs"),
        cache=CacheConfig(
            size_bytes=line * ways * sets, line_size=line, associativity=ways
        ),
        flush_invalidates=data.draw(st.booleans(), label="flush_invalidates"),
    )
    fused, ref = regions = NVMRegion(ORACLE_REGION, config), _Ref(ORACLE_REGION, config)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    for _ in range(data.draw(st.integers(1, 4), label="rounds")):
        _dirty(rng, regions, rng.randrange(12))
        _churn(rng, regions)
        size = data.draw(st.integers(1, line), label="size")
        step = data.draw(
            st.sampled_from([size, line]) | st.integers(size, line), label="step"
        )
        count = data.draw(st.integers(1, 48), label="count")
        count = min(count, (ORACLE_REGION - size) // step + 1)
        start = data.draw(
            st.integers(0, ORACLE_REGION - (count - 1) * step - size), label="start"
        )
        if data.draw(st.booleans(), label="head_on_fast_line"):
            _both(regions, "read", start - start % line, 1)
            assert fused._fast_line == start // line
        cells = range(start, start + count * step, step)
        with _window_log() as log:
            for region in regions:
                region._charge_reads(cells, size)
        assert log == ([cells] if count >= _MIN_WINDOW else [])
        assert _oracle_state(fused) == _oracle_state(ref)


#: windows the per-cell loop must charge: (config, cells, size)
_LOOP_WINDOWS = {
    "track-wear": (SimConfig(track_wear=True), range(40, 1000, 24), 8),
    "stride-over-line": (SimConfig(), range(40, 3000, 72), 8),
    "stride-under-size": (SimConfig(), range(40, 1000, 8), 16),
    "gather": (SimConfig(), list(range(40, 1000, 24)), 8),
    "short-window": (SimConfig(), range(40, 40 + 24 * (_MIN_WINDOW - 1), 24), 8),
}


@pytest.mark.parametrize("case", sorted(_LOOP_WINDOWS))
def test_window_charge_falls_back_to_per_cell_loop(case):
    """Wear tracking, a stride past the line or below the cell size, a
    gather and a window shorter than ``_MIN_WINDOW`` run the per-cell
    loop (no window is charged per line), and leave what ``_Ref``
    leaves."""
    config, cells, size = _LOOP_WINDOWS[case]
    config = dataclasses.replace(
        config, cache=CacheConfig(size_bytes=512, line_size=64, associativity=2)
    )
    regions = NVMRegion(ORACLE_REGION, config), _Ref(ORACLE_REGION, config)
    _dirty(random.Random(7), regions, 64)
    for region in regions:
        region.clflush(cells[0])
    with _window_log() as log:
        for region in regions:
            region._charge_reads(cells, size)
    assert log == []
    assert _oracle_state(regions[0]) == _oracle_state(regions[1])
    assert regions[0].stats.evictions > 0


# ----------------------------------------------------------------------
# scan_torn: Algorithm 4's scan, fused against the per-cell loop

TORN_CELLS = 40
TORN_BASE = 64  # 24-byte cells: cell 2 spans bytes 112–135, lines 1 and 2


def _plant_torn(regions, torn, mask):
    """24-byte cells from :data:`TORN_BASE`: every third one occupied
    (a ``mask`` bit plus junk), the rest free with junk above the mask
    bit, zero payloads except the ``torn`` free cells'."""
    free_header = (0x81 & ~mask) | 0x200
    for i in range(TORN_CELLS):
        header = mask | 0x100 if i % 3 == 1 else free_header
        payload = bytes(16)
        if i % 3 == 1 or i in torn:
            payload = bytes([i + 1]) * 16
        for region in regions:
            region.write(TORN_BASE + 24 * i, header.to_bytes(8, "little") + payload)


def _recover_window(region, mask):
    """Scan to each torn cell, reset it, resume after it — the shape of
    ``recover_group_table``; returns the torn indices and the count."""
    found, count, start = [], 0, 0
    while start < TORN_CELLS:
        torn, occupied = region.scan_torn(
            TORN_BASE + 24 * start, 24, TORN_CELLS - start, 24, mask
        )
        count += occupied
        if torn is None:
            break
        found.append(start + torn)
        region.write(TORN_BASE + 24 * (start + torn) + 8, bytes(16))
        region.persist(TORN_BASE + 24 * (start + torn) + 8, 16)
        start += torn + 1
    return found, count


@pytest.mark.parametrize("flush_invalidates", [True, False])
@pytest.mark.parametrize("mask", [1, 0x80])
@pytest.mark.parametrize(
    "torn",
    [(), (0,), (TORN_CELLS - 1,), (2,), (0, 5, 6, 2, TORN_CELLS - 1)],
    ids=["none", "first", "last", "straddling", "several"],
)
def test_scan_torn_matches_per_cell_loop(flush_invalidates, mask, torn):
    """Torn cells at the window's start and end, in a cell straddling
    two lines, none and several; a mask above bit 0; both flush
    semantics. The fused scan finds the same cells and count and leaves
    the state the per-cell loop leaves."""
    config = SimConfig(
        latency=ODD_LATENCY,
        cache=CacheConfig(size_bytes=512, line_size=64, associativity=2),
        flush_invalidates=flush_invalidates,
    )
    regions = NVMRegion(ORACLE_REGION, config), _Ref(ORACLE_REGION, config)
    _plant_torn(regions, torn, mask)
    outcomes = [_recover_window(region, mask) for region in regions]
    expected = sorted(i for i in torn if i % 3 != 1)
    assert outcomes[0] == outcomes[1] == (expected, len(range(1, TORN_CELLS, 3)))
    assert _oracle_state(regions[0]) == _oracle_state(regions[1])


def test_scan_torn_wear_levelled_runs_the_loop():
    """A WearLevelledRegion remaps addresses, so scan_torn runs the
    per-cell loop: the events of one read per cell up to the torn one."""
    cfg = SimConfig(cache=CacheConfig(size_bytes=1024, line_size=64, associativity=2))
    regions = [WearLevelledRegion(1 << 13, cfg, rotate_every=8) for _ in range(2)]
    _plant_torn(regions, (5, 20), 1)
    scanned, looped = regions
    assert scanned.scan_torn(TORN_BASE, 24, TORN_CELLS, 24) == (5, 2)
    occupied = 0
    for i in range(6):
        raw = looped.read(TORN_BASE + 24 * i, 24)
        occupied += raw[0] & 1
    assert (occupied, raw[8:] != bytes(16)) == (2, True)
    assert scanned.stats.as_dict() == looped.stats.as_dict()
