"""Unit and property tests for the set-associative cache simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvm.cache import CacheConfig, CacheSim


def tiny_cache(assoc=2, sets=4) -> CacheSim:
    return CacheSim(
        CacheConfig(size_bytes=64 * assoc * sets, line_size=64, associativity=assoc)
    )


def test_config_geometry():
    cfg = CacheConfig(size_bytes=2 * 1024 * 1024, line_size=64, associativity=8)
    assert cfg.n_lines == 32768
    assert cfg.n_sets == 4096


def test_config_rejects_bad_line_size():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=1024, line_size=48, associativity=2)


def test_config_rejects_undersized_cache():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=64, line_size=64, associativity=4)


def test_first_access_misses_then_hits():
    cache = tiny_cache()
    hit, evicted = cache.access(10, is_write=False)
    assert not hit and evicted is None
    hit, evicted = cache.access(10, is_write=False)
    assert hit and evicted is None


def test_write_marks_dirty():
    cache = tiny_cache()
    cache.access(3, is_write=True)
    assert cache.is_dirty(3)
    cache.access(4, is_write=False)
    assert not cache.is_dirty(4)


def test_read_after_write_keeps_dirty():
    cache = tiny_cache()
    cache.access(3, is_write=True)
    cache.access(3, is_write=False)
    assert cache.is_dirty(3)


def test_lru_eviction_order():
    cache = tiny_cache(assoc=2, sets=1)
    cache.access(0, is_write=False)
    cache.access(1, is_write=False)
    cache.access(0, is_write=False)  # refresh 0: LRU victim is now 1
    hit, evicted = cache.access(2, is_write=False)
    assert not hit
    assert evicted == (1, False)
    assert cache.contains(0) and cache.contains(2) and not cache.contains(1)


def test_eviction_reports_dirtiness():
    cache = tiny_cache(assoc=1, sets=1)
    cache.access(0, is_write=True)
    _, evicted = cache.access(1, is_write=False)
    assert evicted == (0, True)


def test_flush_invalidates_and_reports_dirty():
    cache = tiny_cache()
    cache.access(5, is_write=True)
    was_cached, was_dirty = cache.flush(5)
    assert was_cached and was_dirty
    assert not cache.contains(5)
    # flushing again: not cached
    assert cache.flush(5) == (False, False)


def test_writeback_keeps_line_clean_resident():
    cache = tiny_cache()
    cache.access(5, is_write=True)
    assert cache.writeback(5) is True
    assert cache.contains(5)
    assert not cache.is_dirty(5)
    assert cache.writeback(5) is False  # already clean


def test_dirty_lines_enumeration():
    cache = tiny_cache(assoc=4, sets=2)
    cache.access(0, is_write=True)
    cache.access(1, is_write=False)
    cache.access(2, is_write=True)
    assert sorted(cache.dirty_lines()) == [0, 2]
    assert sorted(cache.resident_lines()) == [0, 1, 2]


def test_invalidate_all():
    cache = tiny_cache()
    for line in range(5):
        cache.access(line, is_write=True)
    cache.invalidate_all()
    assert len(cache) == 0
    assert list(cache.dirty_lines()) == []


def test_lines_map_to_distinct_sets():
    cache = tiny_cache(assoc=1, sets=4)
    # lines 0..3 land in different sets: no evictions
    for line in range(4):
        _, evicted = cache.access(line, is_write=False)
        assert evicted is None
    assert len(cache) == 4


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=200))
def test_capacity_invariant(ops):
    """Residency can never exceed associativity per set or total capacity."""
    cache = tiny_cache(assoc=2, sets=4)
    for line, is_write in ops:
        cache.access(line, is_write=is_write)
        assert len(cache) <= 8
        per_set: dict[int, int] = {}
        for resident in cache.resident_lines():
            per_set[resident % 4] = per_set.get(resident % 4, 0) + 1
        assert all(v <= 2 for v in per_set.values())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15), st.booleans()), max_size=100))
def test_matches_reference_lru_model(ops):
    """Cross-check against a straightforward per-set LRU list model."""
    assoc, n_sets = 2, 2
    cache = tiny_cache(assoc=assoc, sets=n_sets)
    model: dict[int, list[int]] = {s: [] for s in range(n_sets)}
    for line, is_write in ops:
        bucket = model[line % n_sets]
        expect_hit = line in bucket
        hit, _ = cache.access(line, is_write=is_write)
        assert hit == expect_hit
        if expect_hit:
            bucket.remove(line)
        elif len(bucket) == assoc:
            bucket.pop(0)
        bucket.append(line)
    for s in range(n_sets):
        resident = sorted(l for l in cache.resident_lines() if l % n_sets == s)
        assert resident == sorted(model[s])


def _run_and_loop(assoc, n_sets, warm, first, end):
    """Two caches warmed alike; ``enter_run(first, end)`` on one and the
    ``access`` loop on the other. Returns the run's result, the loop's
    result summed the same way, and both caches."""
    run, loop = tiny_cache(assoc, n_sets), tiny_cache(assoc, n_sets)
    for cache in (run, loop):
        for line, is_write in warm:
            cache.access(line, is_write=is_write)
    outcomes = [loop.access(line, is_write=False) for line in range(first, end)]
    victims = [evicted for _, evicted in outcomes if evicted is not None]
    expected = (
        sum(not hit for hit, _ in outcomes),
        bool(outcomes) and not outcomes[0][0],
        len(victims),
        [line for line, was_dirty in victims if was_dirty],
    )
    return run.enter_run(first, end), expected, run, loop


@settings(deadline=None)
@given(
    assoc=st.sampled_from([1, 2, 4]),
    n_sets=st.sampled_from([1, 2, 8]),
    data=st.data(),
)
def test_enter_run_matches_access_loop(assoc, n_sets, data):
    """``enter_run(first, end)`` leaves every set's LRU order and dirty
    flags as a loop of ``access(line, is_write=False)`` does, and sums
    its results: the fills, whether ``first`` filled, the evictions and
    the dirty victims in eviction order. Runs reach 4x the capacity, so
    every geometry takes both the loop and the per-set path; the warm-up
    leaves dirty and clean lines inside and outside the run (``first``
    included) and partly full sets; 1-set and 1-way caches evict the
    run's own lines."""
    capacity = assoc * n_sets
    first = data.draw(st.integers(0, 2 * capacity), label="first")
    length = data.draw(
        st.one_of(
            st.integers(0, 4 * capacity),
            st.integers(2 * capacity - 1, 2 * capacity + 1),
        ),
        label="length",
    )
    end = first + length
    warm = data.draw(
        st.lists(
            st.tuples(
                st.integers(max(0, first - capacity), end + capacity), st.booleans()
            ),
            max_size=3 * capacity,
        ),
        label="warm",
    )
    result, expected, run, loop = _run_and_loop(assoc, n_sets, warm, first, end)
    assert result == expected
    assert [list(bucket.items()) for bucket in run._sets] == [
        list(bucket.items()) for bucket in loop._sets
    ]


def test_enter_run_goes_per_set_from_twice_the_capacity(monkeypatch):
    """A run one line short of twice the capacity takes the loop's step
    over all its lines; one at twice the capacity takes it only for the
    set holding a line inside the run, over that set's lines, and
    matches the loop all the same, dirty victims in eviction order
    across sets included."""
    assoc, n_sets = 2, 4
    steps = []
    enter_lines = CacheSim._enter_lines

    def spy(self, lines, dirty):
        steps.append(lines)
        return enter_lines(self, lines, dirty)

    monkeypatch.setattr(CacheSim, "_enter_lines", spy)
    # sets 2 and 3 each evict two dirty lines, interleaved in the loop;
    # set 1 holds 21, inside the run, and its dirty 9 goes between them
    warm = [(2, True), (6, True), (3, True), (7, True), (100, True), (9, True)]
    warm.append((21, False))
    for length, expected_steps in (
        (15, [range(10, 25)]),
        (16, [range(13, 26, 4)]),
    ):
        steps.clear()
        first = 10
        result, expected, run, loop = _run_and_loop(
            assoc, n_sets, warm, first, first + length
        )
        assert steps == expected_steps
        assert result == expected
        assert [list(b.items()) for b in run._sets] == [
            list(b.items()) for b in loop._sets
        ]


def test_writeback_clean_or_absent_returns_false():
    cache = tiny_cache()
    assert cache.writeback(5) is False  # never resident
    cache.access(5, is_write=False)
    assert cache.writeback(5) is False  # resident but clean


def test_writeback_cleans_but_keeps_residency():
    cache = tiny_cache()
    cache.access(7, is_write=True)
    assert cache.is_dirty(7)
    assert cache.writeback(7) is True
    assert cache.contains(7)
    assert not cache.is_dirty(7)
    # a second writeback finds nothing left to persist
    assert cache.writeback(7) is False


def test_writeback_does_not_disturb_lru_order():
    cache = tiny_cache(assoc=2, sets=1)
    cache.access(0, is_write=True)
    cache.access(1, is_write=False)
    cache.writeback(0)  # clwb on the LRU line must not refresh it
    _, evicted = cache.access(2, is_write=False)
    assert evicted == (0, False)  # 0 is still the victim, now clean


def test_dirty_lines_yields_only_dirty():
    cache = tiny_cache()
    cache.access(0, is_write=True)
    cache.access(1, is_write=False)
    cache.access(2, is_write=True)
    assert sorted(cache.dirty_lines()) == [0, 2]


def test_invalidate_all_drops_everything_without_writeback():
    cache = tiny_cache()
    for line in range(4):
        cache.access(line, is_write=True)
    cache.invalidate_all()
    assert len(cache) == 0
    assert list(cache.dirty_lines()) == []
    hit, _ = cache.access(0, is_write=False)
    assert not hit  # power loss: everything re-misses


def test_touch_mru_upgrades_dirty_and_preserves_order():
    cache = tiny_cache(assoc=2, sets=1)
    cache.access(0, is_write=False)
    cache.access(1, is_write=False)
    cache.touch_mru(1, True)  # repeat-touch of the MRU line, as a write
    assert cache.is_dirty(1)
    assert not cache.is_dirty(0)
    _, evicted = cache.access(2, is_write=False)
    assert evicted == (0, False)  # LRU order unchanged by touch_mru


def test_touch_mru_read_does_not_dirty():
    cache = tiny_cache()
    cache.access(3, is_write=False)
    cache.touch_mru(3, False)
    assert not cache.is_dirty(3)


def test_touch_mru_asserts_residency():
    cache = tiny_cache()
    with pytest.raises(KeyError):
        cache.touch_mru(9, False)
    with pytest.raises(KeyError):
        cache.touch_mru(9, True)
