"""Behavioural tests that every hashing scheme must pass.

Parametrized over all six schemes (and the logged variants where
applicable): basic CRUD semantics, count/load-factor accounting, the
persistence discipline, and recovery-from-clean-shutdown invariants.
"""

import pytest

from tests.conftest import (
    ALL_SCHEMES,
    LOGGABLE_SCHEMES,
    make_table,
    random_items,
    small_region,
)

from repro import random_schedule
from repro.nvm import SimulatedPowerFailure
from repro.tables.base import PersistentHashTable


@pytest.fixture(params=ALL_SCHEMES)
def scheme(request):
    return request.param


def build(scheme, logged=False):
    region = small_region()
    table = make_table(scheme, region, logged=logged)
    return region, table


def test_empty_table_state(scheme):
    _, table = build(scheme)
    assert table.count == 0
    assert table.load_factor == 0.0
    assert table.capacity > 0
    assert table.query(b"\x01" * 8) is None
    assert not table.delete(b"\x01" * 8)


def test_insert_then_query(scheme):
    _, table = build(scheme)
    key, value = b"k" * 8, b"v" * 8
    assert table.insert(key, value)
    assert table.query(key) == value
    assert table.count == 1


def test_insert_many_query_all(scheme):
    _, table = build(scheme)
    items = random_items(200, seed=1)
    accepted = [(k, v) for k, v in items if table.insert(k, v)]
    # two-choice legitimately rejects early (the paper's exclusion
    # reason) and classic cuckoo may hit a rare eviction cycle near 0.4
    # load; everyone else must take all 200 into 512 cells
    minimum = {"two-choice": 30, "cuckoo": 150}.get(scheme, 200)
    assert len(accepted) >= minimum
    for k, v in accepted:
        assert table.query(k) == v
    assert table.count == len(accepted)


def test_delete_removes_only_target(scheme):
    _, table = build(scheme)
    items = [(k, v) for k, v in random_items(100, seed=2) if table.insert(k, v)]
    assert len(items) >= 30  # two-choice may reject some
    victims, keepers = items[: len(items) // 2], items[len(items) // 2 :]
    for k, _ in victims:
        assert table.delete(k)
    for k, _ in victims:
        assert table.query(k) is None
    for k, v in keepers:
        assert table.query(k) == v
    assert table.count == len(keepers)


def test_delete_missing_returns_false(scheme):
    _, table = build(scheme)
    table.insert(b"a" * 8, b"v" * 8)
    assert not table.delete(b"b" * 8)
    assert table.count == 1


def test_reinsert_after_delete(scheme):
    _, table = build(scheme)
    key = b"recycled"
    table.insert(key, b"value001")
    table.delete(key)
    assert table.insert(key, b"value002")
    assert table.query(key) == b"value002"


def test_count_is_persistent(scheme):
    region, table = build(scheme)
    for k, v in random_items(20, seed=3):
        table.insert(k, v)
    assert table.persisted_count == 20
    assert table.check_count()


def test_items_inventory_matches(scheme):
    _, table = build(scheme)
    accepted = {
        k: v for k, v in random_items(64, seed=4) if table.insert(k, v)
    }
    assert len(accepted) >= 30  # two-choice may reject some
    assert dict(table.items()) == accepted


def test_load_factor_tracks_count(scheme):
    _, table = build(scheme)
    for i, (k, v) in enumerate(random_items(10, seed=5), start=1):
        table.insert(k, v)
        assert table.load_factor == pytest.approx(i / table.capacity)


def test_no_unpersisted_data_after_op(scheme):
    """Durability discipline: after insert/delete returns, nothing is
    sitting dirty in the cache — a crash at rest loses nothing."""
    region, table = build(scheme)
    items = random_items(30, seed=6)
    for k, v in items:
        table.insert(k, v)
        assert region.unpersisted_ranges() == [], f"{scheme}: dirty after insert"
    for k, _ in items[:10]:
        table.delete(k)
        assert region.unpersisted_ranges() == [], f"{scheme}: dirty after delete"


def test_survives_clean_crash(scheme):
    """Crash at rest (no in-flight op): everything must still be there."""
    region, table = build(scheme)
    items = random_items(50, seed=7)
    for k, v in items:
        table.insert(k, v)
    region.crash()
    table.reattach()
    assert table.count == 50
    for k, v in items:
        assert table.query(k) == v


def test_recover_on_consistent_table_is_noop(scheme):
    region, table = build(scheme)
    items = random_items(40, seed=8)
    for k, v in items:
        table.insert(k, v)
    region.crash()
    table.reattach()
    table.recover()
    assert table.count == 40
    assert table.check_count()
    for k, v in items:
        assert table.query(k) == v


@pytest.mark.parametrize("scheme", LOGGABLE_SCHEMES)
def test_logged_variant_behaves_identically(scheme):
    """The undo log must not change visible semantics, only cost."""
    _, plain = build(scheme, logged=False)
    _, logged = build(scheme, logged=True)
    items = random_items(120, seed=9)
    accepted = []
    for k, v in items:
        ok_plain = plain.insert(k, v)
        assert ok_plain == logged.insert(k, v)
        if ok_plain:
            accepted.append((k, v))
    for k, v in accepted:
        assert plain.query(k) == logged.query(k) == v
    for k, _ in accepted[::2]:
        assert plain.delete(k) == logged.delete(k)
    assert plain.count == logged.count


@pytest.mark.parametrize("scheme", LOGGABLE_SCHEMES)
def test_logged_variant_costs_more_flushes(scheme):
    """Figure 2's mechanism: logging at least doubles flush traffic on
    mutating operations."""
    r_plain, plain = build(scheme, logged=False)
    r_logged, logged = build(scheme, logged=True)
    items = random_items(100, seed=10)
    for k, v in items:
        plain.insert(k, v)
        logged.insert(k, v)
    assert r_logged.stats.flushes > 1.5 * r_plain.stats.flushes


def test_full_table_insert_fails_gracefully(scheme):
    """Inserting into a saturated table returns False, never corrupts."""
    _, table = build(scheme)
    items = iter(random_items(4000, seed=11))
    inserted = {}
    for k, v in items:
        if not table.insert(k, v):
            break
        inserted[k] = v
    else:
        pytest.skip("scheme did not saturate within the item budget")
    assert table.count == len(inserted)
    # table still coherent after the failure
    sample = list(inserted.items())[:50]
    for k, v in sample:
        assert table.query(k) == v


def _uses_generic_recover(name, logged):
    table = make_table(name, small_region(1 << 20), logged=logged)
    return type(table).recover is PersistentHashTable.recover


#: (scheme, logged) for every table that uses the generic recover
BASE_RECOVER = [
    (name, logged)
    for name in ALL_SCHEMES
    for logged in (False, True)
    if (name in LOGGABLE_SCHEMES or not logged) and _uses_generic_recover(name, logged)
]


def _per_cell_recover(table):
    """The generic recover's count rebuild as one is_occupied per cell."""
    if table.log is not None:
        table.log.recover()
    table._set_count(
        sum(table.codec.is_occupied(table.region, a) for a in table._iter_cell_addrs())
    )


@pytest.mark.parametrize("scheme,logged", BASE_RECOVER)
def test_generic_recover_charges_the_per_cell_loop(scheme, logged):
    """The generic recover's single gather charges exactly what one
    is_occupied per cell charged: same count, MemStats and sim time."""
    states = []
    for recover in (PersistentHashTable.recover, _per_cell_recover):
        region, table = build(scheme, logged=logged)
        for k, v in random_items(150, seed=12):
            table.insert(k, v)
        region.arm_crash(7)
        with pytest.raises(SimulatedPowerFailure):
            for k, v in random_items(20, seed=13):
                table.insert(k, v)
        region.crash(random_schedule(5))
        table.reattach()
        if table.log is not None:
            table.log.reattach()
        recover(table)
        states.append((table.count, region.stats.as_dict()))
    assert states[0] == states[1]
