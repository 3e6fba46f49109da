"""Tests for the networked serving tier.

Covers the tentpole guarantees: the frozen network cost model's
arithmetic, the router's doorbell protocol (batch-full and timer
flushes, timer invalidation by generation, sequential-server busy
time, per-flush wakeup amortization), driver determinism (same (spec,
seed) ⇒ identical interleaving, queue-depth timeline and final table
digest; different seed ⇒ a different schedule that still passes every
oracle), the location-cache protocol (one-sided hits, stale hints
repaired by miss-and-retry, never a wrong answer — enforced by a
shadow model with teeth), and engine integration (spec round trip,
executor repeatability, byte-identity across worker counts).
"""

import dataclasses
import json

import pytest

from repro.bench.cache import ResultCache, decode, encode
from repro.bench.engine import Engine
from repro.bench.experiments.serving import ServingSpec, run_serving_spec
from repro.concurrency import ClientOp, table_digest
from repro.core import ShardedTable
from repro.obs import FlightRecorder, WindowSeries
from repro.serving import (
    LOOPBACK,
    NETWORK_PRESETS,
    RDMA_DC,
    NetworkModel,
    Request,
    Router,
    run_serving,
)

from .conftest import random_items


def make_serving_table(
    cells: int = 512, n_shards: int = 2, seed: int = 3, segment_cells: int = 32
) -> ShardedTable:
    return ShardedTable(
        cells,
        n_shards=n_shards,
        seed=seed,
        growable=True,
        segment_cells=segment_cells,
    )


def prefill(table, items):
    shadow = {}
    for key, value in items:
        assert table.insert(key, value)
        shadow[key] = value
    return shadow


def hot_streams(hot, per_reader: int, readers: int = 2):
    """Reader clients cycling over a shared hot set — every repeat query
    is a location-cache hit candidate."""
    return [
        [
            ClientOp("query", hot[(i + r) % len(hot)][0])
            for i in range(per_reader)
        ]
        for r in range(readers)
    ]


def commit_signature(result):
    return [
        (r.client, r.op_index, r.op.kind, r.op.key, r.ok, r.found, r.one_sided)
        for r in result.committed
    ]


# ----------------------------------------------------------------------
# network cost model


def test_network_model_arithmetic():
    net = NetworkModel("t", hop_ns=1000, msg_overhead_ns=200, ns_per_byte=0.5)
    # hop + overhead + bandwidth over (16-byte header + payload)
    assert net.message_ns(8) == 1000 + 200 + 0.5 * 24
    assert net.request_ns(8) == net.message_ns(8)
    assert net.response_ns(8) == net.message_ns(8)
    assert net.rpc_ns(8, 8) == 2 * net.message_ns(8)
    # one-sided: out + back hops, its own overhead, data on the return
    assert net.one_sided_read_ns(8) == 2 * 1000 + net.one_sided_overhead_ns + 0.5 * 24


def test_network_presets_registered_and_ordered():
    assert set(NETWORK_PRESETS) == {"rdma-dc", "tcp-lan", "loopback"}
    for name, net in NETWORK_PRESETS.items():
        assert net.name == name
    # the presets must keep their cost ordering or the bench's story flips
    assert LOOPBACK.message_ns(8) < RDMA_DC.message_ns(8)
    assert RDMA_DC.message_ns(8) < NETWORK_PRESETS["tcp-lan"].message_ns(8)


def test_network_model_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        RDMA_DC.hop_ns = 0


# ----------------------------------------------------------------------
# router doorbell protocol


def shard0_items(table, n: int, seed: int):
    """Deterministic items that all route to shard 0 (router unit tests
    drive one shard's queue directly)."""
    picked = [
        (k, v)
        for k, v in random_items(8 * n, seed=seed)
        if table.shard_of(k) == 0
    ]
    assert len(picked) >= n
    return picked[:n]


def queries(table, items, t: float = 0.0):
    return [
        Request(client=0, op_index=i, op=ClientOp("query", k), enqueue_ns=t)
        for i, (k, _) in enumerate(items)
    ]


def test_enqueue_doorbell_events():
    table = make_serving_table()
    items = shard0_items(table, 8, seed=1)
    prefill(table, items)
    router = Router(table, RDMA_DC, batch_max=3, batch_wait_ns=500.0)
    reqs = queries(table, items[:3], t=10.0)
    # first request of a fresh batch arms the timer...
    assert router.enqueue(0, reqs[0]) == ("timer", 510.0, 0)
    # ...the middle one changes nothing...
    assert router.enqueue(0, reqs[1]) is None
    # ...and the batch-filling one rings the doorbell now
    assert router.enqueue(0, reqs[2]) == ("flush", 10.0)
    replies, followup = router.flush(0, 10.0)
    assert [r.request for r in replies] == reqs
    assert followup is None
    # the flush retired the armed timer's generation
    assert not router.timer_valid(0, 0)


def test_flush_replies_and_busy_until():
    table = make_serving_table()
    items = shard0_items(table, 6, seed=2)
    shadow = prefill(table, items)
    router = Router(table, RDMA_DC, batch_max=8)
    for req in queries(table, items, t=5.0):
        router.enqueue(0, req)
    replies, followup = router.flush(0, 5.0)
    assert followup is None
    assert len(replies) == 6
    for reply in replies:
        assert reply.result == shadow[reply.request.op.key]
        assert reply.start_ns == 5.0
        assert reply.end_ns == router.busy_until[0]
        assert reply.delivery_ns > reply.end_ns
        shard, addr = reply.location
        assert shard == 0
        # the hint names the live segment that serves the key
        segment = table.tables[0].segment_at(addr)
        assert segment is not None
        assert segment.query(reply.request.op.key) == reply.result
    # the server was busy for wakeup + per-op dispatch at minimum
    assert router.busy_until[0] >= 5.0 + router.wakeup_ns + 6 * router.dispatch_ns


def test_batch_flush_amortizes_wakeup():
    probe = make_serving_table()
    items = shard0_items(probe, 8, seed=3)

    def service_of(batch_max: int) -> float:
        table = make_serving_table()
        prefill(table, items)
        router = Router(table, RDMA_DC, batch_max=batch_max)
        total = 0.0
        for req in queries(table, items):
            event = router.enqueue(0, req)
            if event is not None and event[0] == "flush":
                before = router.busy_until[0]
                router.flush(0, req.enqueue_ns)
                total += router.busy_until[0] - before
        return total

    # one flush of 8 pays the doorbell wakeup once; 8 flushes of 1 pay
    # it 8 times — the whole reason batching lifts saturated throughput
    assert service_of(8) < service_of(1) - 6 * RDMA_DC.hop_ns


def test_timer_flush_drains_partial_batch():
    table = make_serving_table()
    items = shard0_items(table, 2, seed=4)
    prefill(table, items)
    router = Router(table, RDMA_DC, batch_max=8, batch_wait_ns=100.0)
    event = router.enqueue(0, queries(table, items[:1])[0])
    assert event == ("timer", 100.0, 0)
    assert router.timer_valid(0, 0)
    replies, followup = router.flush(0, 100.0)
    assert len(replies) == 1 and followup is None
    assert router.flushes == 1 and router.batched_ops == 1


# ----------------------------------------------------------------------
# driver determinism


def serve_hot(seed: int, *, location_cache: bool = True, timeline=None):
    table = make_serving_table()
    items = random_items(16, seed=6)
    shadow = prefill(table, items)
    streams = hot_streams(items, per_reader=24, readers=3)
    result = run_serving(
        table,
        streams,
        net=RDMA_DC,
        batch_max=4,
        location_cache=location_cache,
        seed=seed,
        shadow=shadow,
        timeline=timeline,
    )
    return table, result


def test_same_seed_same_run():
    runs = []
    for _ in range(2):
        timeline = WindowSeries(1000.0)
        table, result = serve_hot(9, timeline=timeline)
        assert result.ok, result.check_failures
        runs.append(
            (
                commit_signature(result),
                result.span_ns,
                table_digest(table),
                timeline.as_dict(),
            )
        )
    assert runs[0] == runs[1]


def test_different_seed_different_schedule_still_correct():
    signatures = []
    for seed in (9, 10):
        _, result = serve_hot(seed)
        assert result.ok, result.check_failures
        signatures.append(commit_signature(result))
    assert signatures[0] != signatures[1]


def test_cache_ablation_same_final_state():
    digests = []
    for location_cache in (False, True):
        table, result = serve_hot(9, location_cache=location_cache)
        assert result.ok, result.check_failures
        if location_cache:
            assert result.one_sided_reads > 0
        else:
            assert result.one_sided_reads == 0
            assert result.hint_misses == 0
        digests.append(table_digest(table))
    # hints change who answers a query, never what the table holds
    assert digests[0] == digests[1]


def test_empty_streams_rejected():
    table = make_serving_table()
    with pytest.raises(ValueError):
        run_serving(table, [], net=RDMA_DC)


# ----------------------------------------------------------------------
# location-cache staleness protocol


def test_stale_hints_repaired_never_wrong():
    table = make_serving_table(cells=512, segment_cells=32)
    items = random_items(464, seed=7)
    hot, fresh = items[:24], items[24:]
    shadow = prefill(table, hot)
    # readers hammer the hot set (hints get reused) while the writer's
    # inserts split segments out from under them (hints go stale)
    streams = hot_streams(hot, per_reader=800, readers=2)
    inserts = [ClientOp("insert", k, v) for k, v in fresh]
    streams.append(inserts[0::2])
    streams.append(inserts[1::2])
    result = run_serving(
        table, streams, net=RDMA_DC, batch_max=4, seed=11, shadow=shadow
    )
    assert result.ok, result.check_failures
    assert table.splits > 0, "no segment split — the scenario is inert"
    assert result.one_sided_reads > 0
    assert result.hint_misses >= 1, "no hint ever went stale"
    assert result.wrong_answers == 0
    # repaired queries re-routed and still answered from the shadow
    assert any(r.retried for r in result.committed)


def test_shadow_oracle_detects_corruption():
    table = make_serving_table()
    items = random_items(8, seed=8)
    shadow = prefill(table, items)
    bogus = b"\xff" * 8
    shadow[bogus] = b"\xee" * 8
    result = run_serving(
        table,
        [[ClientOp("query", bogus)]],
        net=RDMA_DC,
        seed=1,
        shadow=shadow,
    )
    assert not result.ok
    assert result.check_failures


def test_failure_context_carries_the_flight_recorder(monkeypatch):
    table = make_serving_table()
    items = random_items(16, seed=8)
    prefill(table, items)
    # a table that answers every batched lookup with a wrong value
    for shard in table.tables:
        monkeypatch.setattr(
            shard, "get_many", lambda keys: [b"\xee" * 8 for _ in keys]
        )
    streams = hot_streams(items, per_reader=6)
    recorder = FlightRecorder(capacity=4)
    result = run_serving(
        table, streams, net=RDMA_DC, location_cache=False, seed=1, recorder=recorder
    )
    assert not result.ok
    assert result.failure_context == recorder.dump()
    assert result.failure_context["ops_seen"] == 12
    for client in ("0", "1"):
        ring = result.failure_context["ops"][client]
        assert len(ring) == 4 and ring[-1]["index"] == 5
        assert ring[-1]["kind"] == "query" and not ring[-1]["one_sided"]
    # without a recorder the failed run carries no context
    result = run_serving(table, streams, net=RDMA_DC, location_cache=False, seed=1)
    assert not result.ok and result.failure_context is None


def test_clean_run_with_a_recorder_carries_no_context():
    table = make_serving_table()
    items = random_items(16, seed=8)
    prefill(table, items)
    recorder = FlightRecorder()
    streams = hot_streams(items, per_reader=6)
    result = run_serving(table, streams, net=RDMA_DC, seed=1, recorder=recorder)
    assert result.ok and result.failure_context is None
    assert recorder.ops_seen == 12


# ----------------------------------------------------------------------
# engine integration

TINY_SERVE = ServingSpec(
    total_cells=1 << 10, n_clients=4, n_ops=96, segment_cells=64, seed=7
)


def test_serving_spec_round_trip():
    wire = json.loads(json.dumps(encode(TINY_SERVE)))
    assert decode(ServingSpec, wire) == TINY_SERVE
    assert TINY_SERVE.label == "4c b8 +loc"
    single = dataclasses.replace(TINY_SERVE, location_cache=False, batch_max=1)
    assert single.label == "4c b1"


def test_executor_repeatable():
    a = run_serving_spec(TINY_SERVE)
    b = run_serving_spec(TINY_SERVE)
    assert a == b
    assert a["wrong_answers"] == 0 and not a["check_failures"]
    assert a["table_digest"] == b["table_digest"]
    assert a["throughput_kops"] > 0


def test_engine_byte_identity_across_jobs(tmp_path):
    specs = [TINY_SERVE, dataclasses.replace(TINY_SERVE, location_cache=False)]
    serial = Engine(jobs=1, cache=False).run(specs)
    parallel = Engine(jobs=2, cache=ResultCache(tmp_path / "cache")).run(specs)
    assert serial == parallel
