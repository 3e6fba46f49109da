"""Crash-matrix campaign machinery (:mod:`repro.nvm.crashpoint`) and the
bench-layer cells (:mod:`repro.bench.experiments.crashmatrix`).

Three layers of assurance:

- unit tests of the building blocks (schedules, shadow oracle, trace
  recording);
- end-to-end campaigns over correct schemes must come back clean;
- **mutation tests**: deliberately broken recovery must be *caught*,
  with a minimal failing event prefix — a fault-injection harness that
  cannot detect an injected bug is worthless.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.cache import ResultCache
from repro.bench.engine import Engine
from repro.bench.experiments.crashmatrix import (
    CrashMatrixSpec,
    build_workload,
    make_harness,
    run_crash_matrix_spec,
)
from repro.core import ShardedTable
from repro.core.group_hash import GroupHashTable
from repro.nvm.crashpoint import (
    Op,
    WordSubsetSchedule,
    enumerate_schedules,
    record_trace,
    run_campaign,
    shadow_states,
)
from repro.nvm.memory import SimulatedPowerFailure
from repro.tables.wal import UndoLog

from tests.conftest import random_items


def _campaign(spec: CrashMatrixSpec, **kw):
    """Run one campaign cell and return the raw CampaignResult."""
    prefill, ops = build_workload(spec)
    return run_campaign(
        lambda: make_harness(spec, prefill),
        ops,
        subset_budget=spec.subset_budget,
        seed=spec.seed,
        prefill=prefill,
        **kw,
    )


# ----------------------------------------------------------------------
# building blocks


def test_word_subset_schedule_filters_dirty_words():
    sched = WordSubsetSchedule(frozenset({8, 24}))
    assert list(sched.words_persisted(0, [0, 8, 16, 24])) == [8, 24]
    assert list(WordSubsetSchedule(frozenset()).words_persisted(0, [0, 8])) == []


def test_shadow_states_tracks_prefix_effects():
    ops = [
        Op("insert", b"a", b"1"),
        Op("update", b"a", b"2"),
        Op("delete", b"a"),
    ]
    states = shadow_states(ops)
    assert states == [{}, {b"a": b"1"}, {b"a": b"2"}, {}]


def test_shadow_states_delete_of_prefill_key_stays_deleted():
    # Regression guard: the base state must be threaded *through* the
    # fold — merging it afterwards would resurrect deleted keys.
    base = {b"p": b"0"}
    states = shadow_states([Op("delete", b"p"), Op("insert", b"q", b"1")], base)
    assert states[0] == {b"p": b"0"}
    assert states[1] == {}
    assert states[2] == {b"q": b"1"}


def test_enumerate_schedules_exhaustive_when_budget_allows():
    dirty = (0, 8, 16)
    scheds = enumerate_schedules(dirty, budget=10, seed=0, event_index=1)
    ids = [name for name, _ in scheds]
    assert ids[0] == "drop-all" and ids[1] == "persist-all"
    # 2^3 - 2 = 6 strict subsets, all distinct, all strict
    subsets = {s.persisted for name, s in scheds if name.startswith("subset")}
    assert len(subsets) == 6
    assert all(0 < len(s) < 3 for s in subsets)


def test_enumerate_schedules_respects_budget_and_is_deterministic():
    dirty = tuple(range(0, 80, 8))  # 10 words -> 1022 strict subsets
    a = enumerate_schedules(dirty, budget=5, seed=3, event_index=7)
    b = enumerate_schedules(dirty, budget=5, seed=3, event_index=7)
    assert len(a) == 2 + 5
    assert [(n, s.persisted) for n, s in a] == [(n, s.persisted) for n, s in b]
    # different boundary -> (potentially) different random subsets, but
    # always valid strict subsets
    for _, sched in enumerate_schedules(dirty, budget=5, seed=3, event_index=8):
        assert sched.persisted <= set(dirty)


def test_enumerate_schedules_single_dirty_word_has_no_strict_subsets():
    scheds = enumerate_schedules((8,), budget=4, seed=0, event_index=1)
    assert [name for name, _ in scheds] == ["drop-all", "persist-all"]


def test_record_trace_rejects_a_failing_op():
    spec = CrashMatrixSpec(n_ops=2, total_cells=256)
    prefill, _ = build_workload(spec)
    harness = make_harness(spec, prefill)
    with pytest.raises(RuntimeError, match="did not apply"):
        record_trace(harness, [Op("delete", b"\xff" * 8)])


def test_record_trace_orders_events_and_op_ends():
    spec = CrashMatrixSpec(n_ops=2, total_cells=256)
    prefill, ops = build_workload(spec)
    trace = record_trace(make_harness(spec, prefill), ops)
    assert trace.n_events > 0
    assert trace.op_end_events == sorted(trace.op_end_events)
    assert trace.op_end_events[-1] == trace.n_events
    assert {e.kind for e in trace.events} <= {"write", "flush", "fence"}
    assert trace.completed_ops(trace.n_events) == len(ops)
    assert trace.completed_ops(0) == 0


def test_record_trace_keeps_observers_already_attached():
    # recording adds one observer; any already attached keep observing
    # the same events during and after the recording
    spec = CrashMatrixSpec(n_ops=2, total_cells=256)
    prefill, ops = build_workload(spec)
    harness = make_harness(spec, prefill)
    seen = []

    def observer(kind, addr, size):
        seen.append((kind, addr, size))

    backend = harness.crash_backend
    backend.observe(observer)
    trace = record_trace(harness, ops)
    assert seen == [(e.kind, e.addr, e.size) for e in trace.events]
    assert backend.observers == (observer,)
    harness.apply(Op("insert", b"\xee" * 8, b"\x01" * 8))
    assert len(seen) > trace.n_events


# ----------------------------------------------------------------------
# end-to-end campaigns over correct implementations


def test_group_campaign_is_clean():
    result = _campaign(CrashMatrixSpec(scheme="group", n_ops=6))
    assert result.ok
    assert result.points == result.trace.n_events + 1
    assert result.replays >= result.points
    assert result.minimal_failing_prefix() is None


def test_logged_campaign_is_clean():
    result = _campaign(CrashMatrixSpec(scheme="linear-L", n_ops=4))
    assert result.ok
    assert result.points == result.trace.n_events + 1


def test_sharded_campaign_is_clean():
    result = _campaign(CrashMatrixSpec(scheme="group", n_shards=4, n_ops=8))
    assert result.ok
    assert result.points > 0


def test_campaign_max_points_truncates():
    result = _campaign(CrashMatrixSpec(scheme="group", n_ops=6), max_points=5)
    assert result.points == 5


def test_spec_executor_round_trips_through_engine_cache(tmp_path):
    spec = CrashMatrixSpec(scheme="group", n_ops=4, subset_budget=1)
    engine = Engine(jobs=1, cache=ResultCache(tmp_path / "cache"))
    first = engine.run_one(spec)
    again = engine.run_one(spec)
    assert engine.cache.hits == 1
    assert first == again
    assert first == run_crash_matrix_spec(spec)
    assert first["violations"] == [] and first["min_failing_prefix"] is None


# ----------------------------------------------------------------------
# mutation tests: injected recovery bugs must be detected


def test_broken_group_recovery_is_caught(monkeypatch):
    # "Recovery" that rebuilds count but skips Algorithm 4's reset of
    # unoccupied cells — the exact step the paper's consistency argument
    # hinges on.
    def count_only(self):
        self._set_count(sum(1 for _ in self.items()))

    monkeypatch.setattr(GroupHashTable, "recover", count_only)
    result = _campaign(CrashMatrixSpec(scheme="group", n_ops=6))
    assert not result.ok
    assert any(v.oracle == "invariant" for v in result.violations)
    prefix = result.minimal_failing_prefix()
    assert prefix is not None
    assert len(prefix) == min(v.event_index for v in result.violations) - 1
    assert len(prefix) < result.trace.n_events


def test_broken_undo_rollback_is_caught(monkeypatch):
    # A rollback that forgets the log entirely: crashes that land inside
    # a logged operation leave the persistent tail nonzero, which the
    # invariant oracle must flag.
    monkeypatch.setattr(UndoLog, "recover", lambda self: None)
    result = _campaign(CrashMatrixSpec(scheme="linear-L", n_ops=4))
    assert not result.ok
    assert any("log tail" in v.detail for v in result.violations)
    assert result.minimal_failing_prefix() is not None


# ----------------------------------------------------------------------
# sharded crash domains: a shard failure is invisible to its neighbours


def test_sharded_crash_leaves_other_shards_untouched():
    table = ShardedTable(512, n_shards=4, seed=9)
    items = random_items(60, seed=9)
    for key, value in items:
        assert table.insert(key, value)

    crash_shard = table.shard_of(items[0][0])
    backend = table.backend.shard(crash_shard)
    # arm so the next operation on the crash shard dies mid-commit
    backend.arm_crash(3)
    victim = next(
        key
        for key, _ in random_items(200, seed=77)
        if table.shard_of(key) == crash_shard and table.query(key) is None
    )
    before = [
        dataclasses.asdict(table.backend.shard(i).stats)
        for i in range(table.n_shards)
    ]
    with pytest.raises(SimulatedPowerFailure):
        table.insert(victim, b"\x01" * 8)
    backend.disarm_crash()

    table.crash(shard=crash_shard)
    table.reattach(shard=crash_shard)
    table.recover(shard=crash_shard)

    # untouched shards saw zero additional simulated events end to end
    for i in range(table.n_shards):
        if i == crash_shard:
            continue
        assert dataclasses.asdict(table.backend.shard(i).stats) == before[i]
    # every committed item survived, on every shard
    recovered = dict(table.items())
    for key, value in items:
        assert recovered[key] == value
    assert victim not in recovered
    for shard_table in table.tables:
        assert shard_table.integrity_violations() == []
