"""Observability subsystem tests (tracer + metrics + bench wiring).

The two hard guarantees:

1. **Disabled-mode invariance** — tables run with no tracer/metrics
   attached take the exact code path the pinned-event tests measure
   (those tests stay green unchanged elsewhere in the suite).
2. **Enabled-mode transparency** — even with both sinks attached, the
   simulated event stream and clock are byte-identical to a bare run:
   spans read stats snapshots and chained hooks, metrics count in plain
   Python; neither issues a region event.

Plus the attribution contract: per-op spans must reconcile exactly with
the phase MemStats deltas, and the whole observability payload must
survive the engine's result cache.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from tests.conftest import make_table, random_items, small_region

from repro.bench.cache import ResultCache, decode, encode
from repro.bench.engine import Engine
from repro.bench.runner import RunSpec, run_workload
from repro.core.sharded import ShardedTable
from repro.nvm.stats import MemStats
from repro.obs import (
    N_BUCKETS,
    Counter,
    Gauge,
    Heat,
    Histogram,
    MetricsRegistry,
    Tracer,
    bucket_index,
    bucket_label,
    merge_metric_dicts,
)

# ----------------------------------------------------------------------
# metrics primitives


def test_bucket_index_edges():
    assert bucket_index(0) == 0
    assert bucket_index(-3) == 0
    assert bucket_index(1) == 1
    assert bucket_index(2) == 2
    assert bucket_index(3) == 2
    assert bucket_index(4) == 3
    assert bucket_index(7) == 3
    assert bucket_index(2.9) == 2  # floors to int first
    assert bucket_index(1 << 200) == N_BUCKETS - 1


def test_bucket_labels():
    assert bucket_label(0) == "0"
    assert bucket_label(1) == "1"
    assert bucket_label(2) == "2-3"
    assert bucket_label(3) == "4-7"


def test_counter_roundtrip_and_merge():
    c = Counter()
    c.inc()
    c.inc(4)
    assert c.value == 5
    other = Counter.from_dict(c.as_dict())
    other.merge(c)
    assert other.value == 10
    assert isinstance(c.as_dict(), int)


def test_gauge_merges_by_max():
    g = Gauge()
    g.set(3.0)
    h = Gauge.from_dict(g.as_dict())
    h.set(1.5)
    g.merge(h)
    assert g.value == 3.0


def test_histogram_record_stats_and_quantile():
    h = Histogram()
    for v in (1, 1, 2, 3, 8):
        h.record(v)
    assert h.count == 5
    assert h.total == 15
    assert h.min == 1 and h.max == 8
    assert h.mean == pytest.approx(3.0)
    assert h.quantile(0.0) in (0.0, 1.0)
    assert h.quantile(0.5) <= h.quantile(1.0)
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_histogram_merge_equals_combined_recording():
    a, b, combined = Histogram(), Histogram(), Histogram()
    for v in (1, 5, 9):
        a.record(v)
        combined.record(v)
    for v in (2, 70):
        b.record(v)
        combined.record(v)
    a.merge(b)
    assert a.as_dict() == combined.as_dict()


def test_histogram_dict_roundtrip_trims_trailing_zeros():
    h = Histogram()
    h.record(5)
    payload = h.as_dict()
    assert len(payload["buckets"]) == bucket_index(5) + 1
    assert Histogram.from_dict(payload).as_dict() == payload
    assert Histogram().as_dict()["buckets"] == []


def test_heat_top_and_roundtrip():
    heat = Heat()
    heat.touch(7, 3)
    heat.touch(2)
    heat.touch(7)
    assert heat.total == 5
    assert heat.top(1) == [(7, 4)]
    rebuilt = Heat.from_dict(heat.as_dict())
    rebuilt.merge(heat)
    assert rebuilt.cells == {7: 8, 2: 2}


def test_registry_get_or_create_and_kind_conflict():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    reg.histogram("probe").record(2)
    with pytest.raises(ValueError):
        reg.counter("probe")


def test_registry_from_dict_rejects_a_name_under_two_kinds():
    with pytest.raises(ValueError, match="'a' already registered"):
        MetricsRegistry.from_dict({"counters": {"a": 1}, "gauges": {"a": 2.0}})


def test_registry_merge_and_dict_roundtrip():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("ops").inc(2)
    a.histogram("probe").record(3)
    a.heat("groups").touch(1, 5)
    b.counter("ops").inc(3)
    b.gauge("fill").set(0.5)
    merged = a.merged(b)
    assert merged.counter("ops").value == 5
    # inputs untouched
    assert a.counter("ops").value == 2 and b.counter("ops").value == 3
    payload = merged.as_dict()
    assert MetricsRegistry.from_dict(payload).as_dict() == payload
    json.dumps(payload)  # JSON-safe end to end


def test_merge_metric_dicts_across_workers():
    def worker(n):
        reg = MetricsRegistry()
        reg.counter("ops").inc(n)
        reg.histogram("probe").record(n)
        return reg.as_dict()

    combined = merge_metric_dicts([worker(1), worker(2), worker(4)])
    assert combined["counters"]["ops"] == 7
    assert combined["histograms"]["probe"]["count"] == 3


def test_empty_histogram_quantiles_are_zero_but_still_validate():
    h = Histogram()
    assert h.quantile(0.0) == 0.0
    assert h.quantile(0.5) == 0.0
    assert h.quantile(1.0) == 0.0
    with pytest.raises(ValueError):
        h.quantile(-0.1)  # bad q is rejected even on an empty histogram
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_single_bucket_histogram_merge():
    a, b = Histogram(), Histogram()
    a.record(5)  # both land in bucket 4-7
    b.record(6)
    a.merge(b)
    assert a.count == 2 and a.min == 5 and a.max == 6
    assert a.quantile(1.0) == 7.0  # bucket upper bound
    # merging an empty histogram is the identity
    before = a.as_dict()
    a.merge(Histogram())
    assert a.as_dict() == before


def test_heat_merge_with_mismatched_kind_raises():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.heat("x").touch(1)
    b.counter("x").inc()
    with pytest.raises(ValueError, match="already registered"):
        a.merged(b)
    with pytest.raises(ValueError, match="already registered"):
        merge_metric_dicts([a.as_dict(), b.as_dict()])
    # Heat.from_dict requires integer-shaped keys
    with pytest.raises(ValueError):
        Heat.from_dict({"not-a-line": 1})


# ----------------------------------------------------------------------
# tracer primitives


def test_tracer_span_tree_and_deltas():
    region = small_region()
    addr = region.alloc(256, align=64)
    tracer = Tracer(region)
    with tracer.span("op"):
        region.write_u64(addr, 1)
        with tracer.span("persist"):
            region.persist(addr, 8)
    tracer.detach()
    summary = tracer.span_summary()
    assert set(summary) == {"op", "op/persist"}
    op, persist = summary["op"], summary["op/persist"]
    # inclusive: the child's flush+fence roll up into the parent
    assert op["ev_write"] == 1
    assert op["ev_flush"] == 1 and op["ev_fence"] == 1
    assert persist["ev_flush"] == 1 and persist["ev_write"] == 0
    assert op["sim_ns"] >= persist["sim_ns"] > 0
    assert op["self_ns"] == pytest.approx(op["sim_ns"] - persist["sim_ns"])
    assert tracer.depth == 0


def test_tracer_attribution_matches_memstats_delta():
    region = small_region()
    addr = region.alloc(1024, align=64)
    tracer = Tracer(region)
    before = region.stats.snapshot()
    with tracer.span("work"):
        for i in range(8):
            region.write_u64(addr + 8 * i, i)
        region.persist(addr, 64)
    delta = region.stats.delta(before)
    tracer.detach()
    work = tracer.span_summary()["work"]
    assert work["sim_ns"] == pytest.approx(delta.sim_time_ns)
    assert work["writes"] == delta.writes
    assert work["flushes"] == delta.flushes
    assert work["cache_misses"] == delta.cache_misses


def test_tracer_chains_and_restores_existing_hook():
    region = small_region()
    addr = region.alloc(64, align=64)
    seen = []

    def prior(kind, a, s):
        seen.append(kind)

    region.observe(prior)
    tracer = Tracer(region)
    with tracer.span("s"):
        region.write_u64(addr, 1)
    # the pre-existing observer still fires while the tracer observes
    assert seen == ["write"]
    assert tracer.span_summary()["s"]["ev_write"] == 1
    tracer.detach()
    assert region.observers == (prior,)
    region.write_u64(addr, 2)
    assert seen == ["write", "write"]


def test_tracer_untracked_events_and_unwind():
    region = small_region()
    addr = region.alloc(64, align=64)
    tracer = Tracer(region)
    region.write_u64(addr, 1)  # outside any span
    assert tracer.untracked_events["write"] == 1
    tracer.push("a")
    tracer.push("b")
    tracer.unwind()
    assert tracer.depth == 0
    assert set(tracer.span_summary()) == {"a", "a/b"}
    tracer.detach()


def test_tracer_event_cap_keeps_aggregating():
    tracer = Tracer(small_region(), max_events=2)
    for _ in range(5):
        with tracer.span("s"):
            pass
    tracer.detach()
    assert len(tracer.chrome_events()) == 2
    assert tracer.events_dropped == 3
    assert tracer.span_summary()["s"]["count"] == 5


def test_tracer_chrome_trace_shape():
    region = small_region()
    addr = region.alloc(64, align=64)
    tracer = Tracer(region)
    with tracer.span("op"):
        region.write_u64(addr, 1)
        region.persist(addr, 8)
    tracer.detach()
    trace = tracer.chrome_trace(pid=3)
    json.dumps(trace)
    (event,) = trace["traceEvents"]
    assert event["ph"] == "X" and event["pid"] == 3
    assert event["dur"] > 0
    assert event["args"]["writes"] == 1 and event["args"]["flushes"] == 1


def test_tracer_attaches_to_every_shard():
    st = ShardedTable(512, n_shards=2, seed=5)
    tracer = Tracer(st.backend)
    metrics = MetricsRegistry()
    st.instrument(tracer, metrics)
    with tracer.span("fill"):
        for k, v in random_items(40, seed=3):
            assert st.insert(k, v)
    tracer.detach()
    st.instrument(None, None)
    fill = tracer.span_summary()["fill"]
    # events from both shards landed in the one span
    assert fill["ev_write"] > 0 and fill["ev_fence"] > 0
    for i in range(st.n_shards):
        assert st.backend.shard(i).observers == ()


# ----------------------------------------------------------------------
# instrumented tables


def test_group_table_metrics_and_occupancy():
    region = small_region()
    table = make_table("group", region)
    metrics = MetricsRegistry()
    table.instrument(metrics=metrics)
    items = random_items(300, seed=1)
    accepted = [(k, v) for k, v in items if table.insert(k, v)]
    for k, _ in accepted[:50]:
        assert table.query(k) is not None
    hist = metrics.histogram("group.insert_probe_cells")
    assert hist.count == len(accepted)
    assert metrics.counter("group.l1_inserts").value + metrics.counter(
        "group.overflow_inserts"
    ).value == len(accepted)
    assert metrics.heat("group.overflow_heat").total > 0
    table.observe_occupancy(metrics)
    l1 = metrics.gauge("group.l1_occupied").value
    l2 = metrics.gauge("group.l2_occupied").value
    assert l1 + l2 == table.count
    assert metrics.heat("group.occupancy_heat").total == l2
    table.instrument(None, None)
    assert table.metrics is None


def test_wal_counters_on_logged_scheme():
    region = small_region()
    table = make_table("linear", region, logged=True)
    metrics = MetricsRegistry()
    table.instrument(metrics=metrics)
    items = random_items(40, seed=2)
    for k, v in items:
        assert table.insert(k, v)
    for k, _ in items[:10]:
        assert table.delete(k)
    assert metrics.counter("wal.records").value >= 50
    assert metrics.counter("wal.commits").value == 50
    hist = metrics.histogram("linear.delete_shifts")
    assert hist.count == 10


def test_recovery_counters_and_span():
    region = small_region()
    table = make_table("group", region)
    for k, v in random_items(60, seed=4):
        table.insert(k, v)
    region.crash()
    table.reattach()
    tracer = Tracer(region)
    metrics = MetricsRegistry()
    table.instrument(tracer, metrics)
    table.recover()
    tracer.detach()
    assert metrics.counter("recovery.runs").value == 1
    assert metrics.counter("recovery.cells_scanned").value == table.capacity
    recover = tracer.span_summary()["recover"]
    assert recover["sim_ns"] > 0


# ----------------------------------------------------------------------
# enabled-mode transparency: instrumentation must not move one event


@pytest.mark.parametrize("scheme", ["group", "linear", "linear-L", "pfht", "path"])
def test_enabled_observability_is_simulation_invariant(scheme):
    spec = RunSpec(
        scheme=scheme,
        load_factor=0.4,
        total_cells=1 << 9,
        group_size=16,
        measure_ops=60,
        seed=13,
    )
    bare = run_workload(spec)
    observed = run_workload(
        dataclasses.replace(spec, with_trace=True, with_metrics=True)
    )
    for phase in ("insert", "query", "delete"):
        assert bare.phase(phase) == observed.phase(phase)
    assert bare.fill_count == observed.fill_count
    assert observed.metrics is not None and observed.spans is not None


def test_disabled_specs_carry_no_observability_blocks():
    spec = RunSpec(
        scheme="group",
        load_factor=0.3,
        total_cells=1 << 9,
        group_size=16,
        measure_ops=30,
        seed=5,
    )
    result = run_workload(spec)
    assert result.metrics is None
    assert result.spans is None
    assert result.trace_events is None


# ----------------------------------------------------------------------
# runner reconciliation + serde + cache round-trip


def _traced_spec(**overrides) -> RunSpec:
    base = dict(
        scheme="group",
        load_factor=0.4,
        total_cells=1 << 9,
        group_size=16,
        measure_ops=60,
        seed=13,
        with_trace=True,
        with_metrics=True,
    )
    base.update(overrides)
    return RunSpec(**base)


@pytest.mark.parametrize("scheme", ["group", "linear-L", "pfht", "path"])
def test_span_sums_reconcile_with_phase_memstats(scheme):
    result = run_workload(_traced_spec(scheme=scheme))
    ops = result.insert.ops + result.query.ops + result.delete.ops
    span_ns = result.extras["span_sim_ns"]
    phase_ns = result.extras["phase_sim_ns"]
    assert phase_ns == result.insert.sim_ns + result.query.sim_ns + result.delete.sim_ns
    assert abs(span_ns - phase_ns) <= 1.0 * ops  # acceptance: 1 ns/op
    # stage spans nest under exactly the three op spans
    spans = result.spans["spans"]
    tops = {p for p in spans if "/" not in p}
    assert tops == {"insert", "query", "delete"}


def test_runresult_observability_serde_roundtrip():
    from repro.bench.runner import RunResult

    result = run_workload(_traced_spec())
    payload = encode(result)
    json.dumps(payload)
    rebuilt = decode(RunResult, payload)
    assert rebuilt.metrics == result.metrics
    assert rebuilt.spans == result.spans
    assert rebuilt.trace_events == result.trace_events
    assert rebuilt.spec == result.spec


def test_engine_cache_roundtrips_observability(tmp_path):
    spec = _traced_spec()
    cold_engine = Engine(jobs=1, cache=ResultCache(tmp_path))
    (cold,) = cold_engine.run([spec])
    assert cold_engine.cache.misses == 1
    warm_engine = Engine(jobs=1, cache=ResultCache(tmp_path))
    (warm,) = warm_engine.run([spec])
    assert warm_engine.cache.hits == 1 and warm_engine.executed == 0
    assert warm == cold
    assert warm.metrics is not None and warm.trace_events


def test_traced_and_bare_specs_cache_separately(tmp_path):
    engine = Engine(jobs=1, cache=ResultCache(tmp_path))
    bare = _traced_spec(with_trace=False, with_metrics=False)
    (bare_result,) = engine.run([bare])
    (traced_result,) = engine.run([_traced_spec()])
    assert engine.cache.misses == 2
    assert bare_result.metrics is None
    assert traced_result.metrics is not None


# ----------------------------------------------------------------------
# profile experiment


def test_profile_experiment_quick(tmp_path):
    from repro.bench.config import SCALES
    from repro.bench.experiments import profile

    result = profile.run(
        SCALES["tiny"],
        seed=7,
        engine=Engine(jobs=1, cache=False),
        schemes=("group", "linear", "path"),
    )
    schemes = result.data["schemes"]
    assert set(schemes) == {"group", "linear", "path"}
    for name, payload in schemes.items():
        hists = payload["metrics"]["histograms"]
        assert any(k.endswith("_probe_cells") for k in hists)
        rec = payload["reconciliation"]
        assert abs(rec["span_sim_ns"] - rec["phase_sim_ns"]) <= rec["ops"]
    trace = result.data["chrome_trace"]
    json.dumps(trace)
    pids = {e["pid"] for e in trace["traceEvents"]}
    assert len(pids) == 3
    assert "Attribution — group" in result.text
    assert "Hottest level-2 groups" in result.text


def test_memstats_from_dict_matches_run(tmp_path):
    # metrics blocks carried through JSON keep int exactness
    result = run_workload(_traced_spec())
    payload = json.loads(json.dumps(result.metrics))
    merged = merge_metric_dicts([payload, payload])
    counters = merged["counters"]
    for name, value in counters.items():
        assert value == 2 * result.metrics["counters"][name]
    stats = MemStats(reads=3).as_dict()
    assert MemStats.from_dict(json.loads(json.dumps(stats))).reads == 3
