"""Tests for crash schedules and the backends' shared crash() semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvm import CacheConfig, NVMRegion, RawBackend, SimConfig
from repro.nvm.crash import (
    FunctionSchedule,
    RecordingSchedule,
    drop_all_schedule,
    persist_all_schedule,
    random_schedule,
)

CFG = SimConfig(cache=CacheConfig(size_bytes=4096, line_size=64, associativity=2))


def region(size=1 << 14) -> NVMRegion:
    return NVMRegion(size, CFG)


def test_drop_all_loses_unflushed_writes():
    r = region()
    r.write(0, b"lostdata")
    report = r.crash(drop_all_schedule())
    assert report.words_dropped >= 1
    assert report.words_persisted == 0
    assert r.peek_persistent(0, 8) == bytes(8)
    # volatile view reset to persistent image
    assert r.peek_volatile(0, 8) == bytes(8)


def test_persist_all_keeps_unflushed_writes():
    r = region()
    r.write(0, b"luckyday")
    report = r.crash(persist_all_schedule())
    assert report.words_persisted >= 1
    assert report.words_dropped == 0
    assert r.peek_persistent(0, 8) == b"luckyday"


def test_flushed_data_survives_any_schedule():
    r = region()
    r.write(0, b"durable!")
    r.persist(0, 8)
    r.crash(drop_all_schedule())
    assert r.peek_persistent(0, 8) == b"durable!"


def test_torn_line_at_word_granularity():
    """A 16-byte write can persist one half and lose the other — the
    paper's Figure 1 case 3 — but never tears inside an 8-byte word."""
    r = region()
    r.write(0, b"A" * 8 + b"B" * 8)
    schedule = FunctionSchedule(lambda line, offs: [o for o in offs if o == 0])
    report = r.crash(schedule)
    assert report.torn
    assert r.peek_persistent(0, 16) == b"A" * 8 + bytes(8)


def test_crash_resets_cache():
    r = region()
    r.write(0, b"x")
    r.crash()
    misses = r.stats.cache_misses
    r.read(0, 1)
    assert r.stats.cache_misses == misses + 1  # cold after reboot


def test_crash_report_counts():
    r = region()
    r.write(0, b"12345678" * 2)  # 2 dirty words, one line
    r.write(128, b"12345678")  # 1 dirty word, another line
    schedule = FunctionSchedule(lambda line, offs: offs[:1])
    report = r.crash(schedule)
    assert report.dirty_lines == 2
    assert report.words_persisted == 2
    assert report.words_dropped == 1


def test_recording_schedule_wraps():
    r = region()
    r.write(0, b"abcdefgh")
    rec = RecordingSchedule(persist_all_schedule())
    r.crash(rec)
    assert len(rec.decisions) == 1
    line, dirty, chosen = rec.decisions[0]
    assert line == 0
    assert dirty == chosen == (0,)


#: a cache of two sets of two 64-byte lines
TWO_SETS = SimConfig(cache=CacheConfig(size_bytes=256, line_size=64, associativity=2))


@pytest.mark.parametrize(
    "make, order",
    [
        (lambda: NVMRegion(1024, TWO_SETS), [2, 0, 1]),
        (lambda: RawBackend(1024), [0, 1, 2]),
    ],
    ids=["sim", "raw"],
)
def test_crash_rules_on_dirty_lines_in_each_backends_order(make, order):
    """The schedule rules on dirty lines in an order each backend fixes,
    and a ``random_schedule`` draws one value per dirty word in that
    order, so it is part of a crash's result. The simulator keeps its
    cache's set-major order (lines 2 and 0 share set 0 of two, in LRU
    order); the raw backend sorts its dirty set."""
    r = make()
    for line in (2, 1, 0):
        r.write(line * 64, b"x" * 8)
    rec = RecordingSchedule(drop_all_schedule())
    r.crash(rec)
    assert [addr // 64 for addr, _, _ in rec.decisions] == order


def test_random_schedule_is_seed_deterministic():
    offs = tuple(range(0, 64, 8))
    a = random_schedule(123).words_persisted(0, offs)
    b = random_schedule(123).words_persisted(0, offs)
    assert list(a) == list(b)


def test_random_schedule_probability_extremes():
    offs = tuple(range(0, 64, 8))
    assert list(random_schedule(1, 0.0).words_persisted(0, offs)) == []
    assert list(random_schedule(1, 1.0 - 1e-12).words_persisted(0, offs)) == list(offs)


def test_double_crash_is_stable():
    r = region()
    r.write(0, b"x")
    r.crash()
    before = r.peek_persistent(0, 64)
    report = r.crash()
    assert report.dirty_lines == 0
    assert r.peek_persistent(0, 64) == before


@pytest.mark.parametrize("make", [region, RawBackend], ids=["sim", "raw"])
@settings(max_examples=50, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 200), st.binary(min_size=1, max_size=24)),
        min_size=1,
        max_size=20,
    ),
    seed=st.integers(0, 2**16),
)
def test_crash_outcome_is_between_drop_all_and_persist_all(make, writes, seed):
    """Property: after any crash, each 8-byte word equals either its
    pre-crash persistent value or its pre-crash volatile value."""
    r = make(1024)
    for addr, data in writes:
        r.write(addr, data)
        if addr % 3 == 0:
            r.persist(addr, len(data))
    vol = r.peek_volatile(0, 1024)
    per = r.peek_persistent(0, 1024)
    r.crash(random_schedule(seed))
    out = r.peek_persistent(0, 1024)
    for off in range(0, 1024, 8):
        word = out[off : off + 8]
        assert word in (vol[off : off + 8], per[off : off + 8])
    # reboot invariant: volatile == persistent
    assert r.peek_volatile(0, 1024) == out
