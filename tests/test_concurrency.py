"""Tests for the deterministic multi-client concurrency layer.

Covers the tentpole guarantees: versioned stripe-lock semantics
(parity, ownership, fingerprint multisets), scheduler determinism
(same seed ⇒ identical interleaving, op results and final table
bytes; different seed ⇒ a different schedule that still passes every
oracle), genuine contention (aborts, retries and lock waits appear
with multiple clients and vanish with one), the shadow model's teeth
(a corrupted oracle is reported, not swallowed), per-client event
attribution, the raw-backend surrogate clock, engine integration
(byte-identity across worker counts, executor repeatability), and the
crash-matrix multi-client cell (boundaries land between two clients'
in-flight ops and recovery stays clean).
"""

import dataclasses
import json

import pytest

from repro import GroupHashTable, ItemSpec
from repro.bench.cache import ResultCache, decode, encode
from repro.bench.config import build_table
from repro.bench.engine import Engine
from repro.bench.experiments.contention import (
    ConcurrentSpec,
    run_concurrent_spec,
)
from repro.bench.experiments.crashmatrix import (
    CrashMatrixSpec,
    build_concurrent_workload,
    run_crash_matrix_spec,
)
from repro.concurrency import (
    ClientOp,
    VersionedLockTable,
    fingerprint_of,
    run_concurrent,
    table_digest,
)
from repro.obs import MetricsRegistry

from .conftest import small_region


def make_table(cells: int = 512, seed: int = 1) -> GroupHashTable:
    return GroupHashTable(
        small_region(), cells, ItemSpec(), group_size=32, seed=seed
    )


def key_of(i: int) -> bytes:
    return (i + 1).to_bytes(8, "little")


def value_of(i: int) -> bytes:
    return ((i * 2654435761 + 1) & (2**64 - 1)).to_bytes(8, "little")


def hot_streams(n_clients: int, per_client: int, n_keys: int = 8):
    """Per-client streams hammering a small shared key set (update/query
    alternating), the worst case for stripe locks."""
    streams = []
    for client in range(n_clients):
        ops = []
        for i in range(per_client):
            k = key_of((client + i) % n_keys)
            if i % 2 == 0:
                ops.append(ClientOp("update", k, value_of(client * 100 + i)))
            else:
                ops.append(ClientOp("query", k))
        streams.append(ops)
    return streams


def prefill(table, n_keys: int = 8) -> dict[bytes, bytes]:
    shadow = {}
    for i in range(n_keys):
        key, value = key_of(i), value_of(i)
        assert table.insert(key, value)
        shadow[key] = value
    return shadow


def commit_signature(result):
    return [
        (r.client, r.op_index, r.op.kind, r.op.key, r.ok, r.found)
        for r in result.committed
    ]


# ----------------------------------------------------------------------
# versioned lock table


def test_lock_version_parity_and_counters():
    locks = VersionedLockTable(4)
    assert locks.version(0) == 0 and not locks.locked(0)
    assert locks.try_acquire(0, owner=1)
    assert locks.version(0) == 1 and locks.locked(0)
    assert locks.owner(0) == 1
    assert not locks.try_acquire(0, owner=2)  # held -> spin
    locks.release(0)
    assert locks.version(0) == 2 and not locks.locked(0)
    assert locks.acquires == 1
    assert locks.contended == 1
    # versions are per-stripe
    assert locks.version(1) == 0


def test_lock_release_unheld_raises():
    locks = VersionedLockTable(2)
    with pytest.raises(RuntimeError):
        locks.release(0)


def test_lock_snapshot_tracks_writers():
    locks = VersionedLockTable(4)
    snap = locks.snapshot((0, 2))
    assert snap == (0, 0)
    locks.try_acquire(2, owner=0)
    assert locks.snapshot((0, 2)) != snap
    locks.release(2)
    # release changed the version again: optimistic readers must see
    # that a writer committed in between, not the original snapshot
    assert locks.snapshot((0, 2)) == (0, 2)


def test_fingerprint_multiset():
    locks = VersionedLockTable(2)
    fp = fingerprint_of(b"somekey1")
    assert not locks.fp_may_contain(0, fp)
    locks.fp_add(0, fp)
    locks.fp_add(0, fp)  # two residents sharing a tag
    assert locks.fp_may_contain(0, fp)
    locks.fp_remove(0, fp)
    assert locks.fp_may_contain(0, fp)  # one still resident
    locks.fp_remove(0, fp)
    assert not locks.fp_may_contain(0, fp)
    with pytest.raises(RuntimeError):
        locks.fp_remove(0, fp)


def test_fingerprint_of_is_a_byte():
    tags = {fingerprint_of(key_of(i)) for i in range(200)}
    assert all(0 <= tag <= 255 for tag in tags)
    assert len(tags) > 1
    assert fingerprint_of(b"abcdefgh") == fingerprint_of(b"abcdefgh")


# ----------------------------------------------------------------------
# scheduler determinism


def test_same_seed_same_run():
    results = []
    digests = []
    for _ in range(2):
        table = make_table()
        shadow = prefill(table)
        result = run_concurrent(
            table, hot_streams(4, 12), seed=9, shadow=shadow
        )
        assert result.ok, result.check_failures
        results.append(result)
        digests.append(table_digest(table))
    a, b = results
    assert commit_signature(a) == commit_signature(b)
    assert a.span_ns == b.span_ns
    assert (a.read_aborts, a.read_retries, a.lock_waits) == (
        b.read_aborts, b.read_retries, b.lock_waits
    )
    assert a.client_events == b.client_events
    assert digests[0] == digests[1]


def test_different_seed_different_interleaving():
    signatures = []
    for seed in (9, 10):
        table = make_table()
        shadow = prefill(table)
        result = run_concurrent(
            table, hot_streams(4, 12), seed=seed, shadow=shadow
        )
        # every schedule must pass the oracles, not just the default one
        assert result.ok, result.check_failures
        signatures.append(commit_signature(result))
    assert signatures[0] != signatures[1]


def test_contention_appears_with_clients_and_not_alone():
    table = make_table()
    shadow = prefill(table)
    solo = run_concurrent(table, hot_streams(1, 24), seed=5, shadow=shadow)
    assert solo.ok
    assert solo.read_aborts == solo.read_retries == solo.lock_waits == 0
    assert not any(r.concurrent for r in solo.committed)

    table = make_table()
    shadow = prefill(table)
    busy = run_concurrent(table, hot_streams(6, 12), seed=5, shadow=shadow)
    assert busy.ok, busy.check_failures
    assert busy.read_aborts > 0 or busy.read_retries > 0
    assert busy.lock_waits > 0
    assert busy.lock_wait_ns > 0
    assert any(r.concurrent for r in busy.committed)
    assert busy.failed_ops == 0
    assert busy.span_ns > 0
    assert busy.throughput_kops() > 0


def test_metrics_registry_receives_counters():
    table = make_table()
    shadow = prefill(table)
    metrics = MetricsRegistry()
    result = run_concurrent(
        table, hot_streams(6, 12), seed=5, shadow=shadow, metrics=metrics
    )
    counters = metrics.as_dict()["counters"]
    assert counters.get("ccl.lock_waits", 0) == result.lock_waits
    assert counters.get("ccl.read_aborts", 0) == result.read_aborts
    histograms = metrics.as_dict()["histograms"]
    assert "ccl.latency.client0" in histograms


def test_per_client_event_attribution():
    table = make_table()
    shadow = prefill(table)
    result = run_concurrent(table, hot_streams(3, 10), seed=3, shadow=shadow)
    assert len(result.client_events) == 3
    # every client wrote (update-heavy streams), and attribution is
    # per-client, not one bucket
    for events in result.client_events:
        assert events["write"] > 0
        assert events["bytes"] > 0


def test_fingerprint_short_circuits_definite_misses():
    table = make_table()
    # empty table: every query is a definite miss by fingerprint
    missing = [ClientOp("query", key_of(1000 + i)) for i in range(6)]
    result = run_concurrent(table, [missing], seed=2, shadow={})
    assert result.ok
    assert result.fp_skips == len(missing)
    assert all(r.found is None for r in result.committed)


def test_shadow_oracle_detects_corruption():
    table = make_table()
    shadow = prefill(table)
    # claim a key the table never saw: the final-state oracle must
    # report it as lost, and the query must disagree with the shadow
    bogus = key_of(999)
    shadow[bogus] = value_of(999)
    result = run_concurrent(
        table, [[ClientOp("query", bogus)]], seed=1, shadow=shadow
    )
    assert not result.ok
    assert result.lost_updates >= 1
    assert result.check_failures


def test_insert_and_delete_maintain_fingerprints():
    table = make_table()
    ops = [
        ClientOp("insert", key_of(50), value_of(50)),
        ClientOp("query", key_of(50)),
        ClientOp("delete", key_of(50)),
        ClientOp("query", key_of(50)),
    ]
    result = run_concurrent(table, [ops], seed=4, shadow={})
    assert result.ok, result.check_failures
    found = [r.found for r in result.committed if r.op.kind == "query"]
    assert found == [value_of(50), None]
    # after the delete the fingerprint is gone: the second query is a
    # definite miss again
    assert result.fp_skips == 1


def test_raw_backend_surrogate_clock():
    built = build_table(
        "group", 512, ItemSpec(), group_size=32, seed=1, backend="raw"
    )
    shadow = prefill(built.table)
    result = run_concurrent(
        built.table, hot_streams(3, 8), seed=6, shadow=shadow
    )
    assert result.ok, result.check_failures
    # RawBackend has no costed clock; the per-event surrogate must
    # still advance simulated time deterministically
    assert result.span_ns > 0
    assert any(r.concurrent for r in result.committed)


def test_empty_streams_rejected():
    table = make_table()
    with pytest.raises(ValueError):
        run_concurrent(table, [], seed=1)


# ----------------------------------------------------------------------
# engine integration (contention experiment)

TINY_SPEC = ConcurrentSpec(
    total_cells=1 << 10, group_size=32, n_clients=4, n_ops=80, seed=7
)


def test_concurrent_spec_round_trip():
    wire = json.loads(json.dumps(encode(TINY_SPEC)))
    assert decode(ConcurrentSpec, wire) == TINY_SPEC
    assert dataclasses.replace(TINY_SPEC, n_clients=1).label == "1 client"
    assert TINY_SPEC.label == "4 clients"


def test_executor_repeatable():
    a = run_concurrent_spec(TINY_SPEC)
    b = run_concurrent_spec(TINY_SPEC)
    assert a == b
    assert a["lost_updates"] == 0 and not a["check_failures"]
    assert a["table_digest"] == b["table_digest"]


def test_engine_byte_identity_across_jobs(tmp_path):
    specs = [TINY_SPEC, dataclasses.replace(TINY_SPEC, n_clients=1)]
    serial = Engine(jobs=1, cache=False).run(specs)
    parallel = Engine(
        jobs=2, cache=ResultCache(tmp_path / "cache")
    ).run(specs)
    assert serial == parallel


# ----------------------------------------------------------------------
# crash-matrix multi-client cell

TINY_CRASH = CrashMatrixSpec(
    scheme="group",
    backend="raw",
    total_cells=128,
    group_size=32,
    n_ops=6,
    subset_budget=1,
    clients=2,
    seed=11,
)


def test_build_concurrent_workload_deterministic():
    a = build_concurrent_workload(TINY_CRASH)
    b = build_concurrent_workload(TINY_CRASH)
    assert a == b
    prefill_items, ops, concurrent = a
    assert prefill_items and ops
    # both clients contribute to the serialized commit order
    clients = {op.key[0] for op in ops}
    assert clients <= {1, 2} and len(clients) == 2
    assert concurrent, "no op overlapped another client's op"


def test_crash_matrix_concurrent_cell_recovers():
    cell = run_crash_matrix_spec(TINY_CRASH)
    assert cell["clients"] == 2
    assert cell["violations"] == []
    assert cell["concurrent_points"] >= 1
    assert cell["points"] > 0
