"""Windowed telemetry tests: series, sampler, recorder, health, timeline.

The two contracts under test:

1. **Series semantics** — window math, channel-kind binding, exact
   merge/rebucket, JSON round-trips, Chrome counter export.
2. **Observation transparency** — a :class:`~repro.obs.WindowSampler`
   and :class:`~repro.obs.FlightRecorder` attached to a live region
   leave the simulated event counts byte-identical across all five
   paper table families (the pin for DESIGN.md decision 15).
"""

from __future__ import annotations

import json

import pytest

from tests.conftest import make_table, random_items, small_region

from repro.bench.config import SCALES
from repro.bench.experiments.timeline import (
    SLO_RULES,
    TimelineSpec,
    health_values,
    run_timeline_spec,
    timeline_specs,
)
from repro.bench.report import format_sparkline
from repro.obs import (
    FlightRecorder,
    HealthReport,
    SloRule,
    Tracer,
    WindowSampler,
    WindowSeries,
    evaluate,
)

# ----------------------------------------------------------------------
# WindowSeries semantics


def test_series_counters_fill_missing_windows():
    s = WindowSeries(10_000.0)
    s.inc("ops", 0.0)
    s.inc("ops", 5_000.0, 2)
    s.inc("ops", 25_000.0)
    assert s.windows() == [0, 2]
    assert s.counter_values("ops", [0, 1, 2]) == [3, 0, 1]


def test_series_channel_kind_conflict_raises():
    s = WindowSeries(1_000.0)
    s.inc("x", 0.0)
    with pytest.raises(ValueError, match="already recorded"):
        s.observe("x", 0.0, 5)


def test_series_gauges_carry_forward():
    s = WindowSeries(1_000.0)
    s.set_gauge("occupancy", 0.0, 0.25)
    s.set_gauge("occupancy", 500.0, 0.5)  # same window: last write wins
    s.inc("ops", 2_500.0)
    assert s.gauge_values("occupancy", [0, 1, 2]) == [0.5, 0.5, 0.5]


def test_series_quantiles_and_heat_views():
    s = WindowSeries(1_000.0)
    for v in (1, 2, 3, 100):
        s.observe("latency", 100.0, v)
    s.observe("latency", 1_500.0, 7)
    q = s.quantile_values("latency", 0.99, [0, 1, 2])
    assert q[0] >= 100 and q[1] >= 7 and q[2] == 0.0
    s.touch("wear_heat", 100.0, 42, 3)
    s.touch("wear_heat", 1_500.0, 42)
    assert s.heat_totals("wear_heat", [0, 1]) == [3, 1]
    assert s.merged_heat("wear_heat").cells == {42: 4}


def test_series_explicit_empty_window_list_means_no_windows():
    s = WindowSeries(1_000.0)
    s.inc("ops", 0.0)
    s.set_gauge("occupancy", 0.0, 0.5)
    s.observe("latency", 1_500.0, 7)
    s.touch("wear_heat", 1_500.0, 42)
    # an empty list is a request for no windows, not for the default
    assert s.counter_values("ops", []) == []
    assert s.gauge_values("occupancy", []) == []
    assert s.quantile_values("latency", 0.5, []) == []
    assert s.heat_totals("wear_heat", []) == []
    assert s.counter_values("ops") == [1, 0]


def test_series_record_event_routes_kinds():
    s = WindowSeries(1_000.0)
    for kind in ("write", "write", "flush", "fence"):
        s.record_event(kind, 0.0)
    assert s.counter_values("writes", [0]) == [2]
    assert s.counter_values("flushes", [0]) == [1]
    assert s.counter_values("fences", [0]) == [1]


def test_series_merge_adds_and_rejects_mismatched_windows():
    a, b = WindowSeries(1_000.0), WindowSeries(1_000.0)
    a.inc("ops", 0.0, 2)
    b.inc("ops", 0.0, 3)
    a.set_gauge("occupancy", 0.0, 0.7)
    b.set_gauge("occupancy", 0.0, 0.4)
    a.observe("latency", 0.0, 5)
    b.observe("latency", 0.0, 9)
    a.merge(b)
    assert a.counter_values("ops", [0]) == [5]
    assert a.gauge_values("occupancy", [0]) == [0.7]  # max wins
    with pytest.raises(ValueError):
        a.merge(WindowSeries(2_000.0))


def test_series_rebucket_is_exact():
    s = WindowSeries(1_000.0)
    for w in range(10):
        s.inc("ops", w * 1_000.0, w + 1)
        s.observe("latency", w * 1_000.0, 1 if w != 7 else 1_000)
    coarse = s.rebucketed(5)
    assert coarse.window_ns == 5_000.0
    assert coarse.counter_values("ops", [0, 1]) == [15, 40]
    # the spike stays visible in its coarse window's quantile
    assert coarse.quantile_values("latency", 1.0, [0, 1])[1] >= 1_000
    with pytest.raises(ValueError):
        s.rebucketed(0)


def test_series_json_roundtrip():
    s = WindowSeries(2_000.0)
    s.inc("ops", 0.0)
    s.observe("latency", 100.0, 3)
    s.set_gauge("occupancy", 4_100.0, 0.5)
    s.touch("wear_heat", 4_100.0, 7)
    payload = s.as_dict()
    json.dumps(payload)  # JSON-safe end to end
    rebuilt = WindowSeries.from_dict(payload)
    assert rebuilt.as_dict() == payload
    assert rebuilt.channels() == s.channels()


def test_series_chrome_counter_events():
    s = WindowSeries(1_000.0)
    s.inc("ops", 0.0, 4)
    s.observe("latency", 1_500.0, 33)
    events = s.chrome_counter_events(pid=7)
    assert all(ev["ph"] == "C" and ev["pid"] == 7 for ev in events)
    names = {ev["name"] for ev in events}
    assert "ops" in names and "latency.p99" in names
    ops_ts = [ev["ts"] for ev in events if ev["name"] == "ops"]
    assert ops_ts[0] == 0.0  # ts is in microseconds of window start


# ----------------------------------------------------------------------
# FlightRecorder


def test_flight_recorder_rings_are_bounded():
    rec = FlightRecorder(capacity=4, event_capacity=8)
    for i in range(10):
        rec.record_op(0, index=i, kind="insert")
    for i in range(20):
        rec.record_event(index=i, kind="write")
    dump = rec.dump()
    assert rec.ops_seen == 10 and rec.events_seen == 20
    assert [op["index"] for op in dump["ops"]["0"]] == [6, 7, 8, 9]
    assert len(dump["events"]) == 8
    json.dumps(dump)


# ----------------------------------------------------------------------
# health rules


def test_slo_rule_validation_and_status():
    with pytest.raises(ValueError):
        SloRule("x", warn=1.0, fail=2.0, direction="sideways")
    with pytest.raises(ValueError):
        SloRule("x", warn=2.0, fail=1.0)  # fail below warn ("above")
    with pytest.raises(ValueError):
        SloRule("x", warn=1.0, fail=2.0, direction="below")
    rule = SloRule("p99", warn=100.0, fail=200.0)
    assert rule.status_of(50.0) == "pass"
    assert rule.status_of(150.0) == "warn"
    assert rule.status_of(200.0) == "fail"
    assert rule.status_of(None) == "warn"  # missing metric is visible
    floor = SloRule("kops", warn=10.0, fail=5.0, direction="below")
    assert floor.status_of(20.0) == "pass"
    assert floor.status_of(7.0) == "warn"
    assert floor.status_of(5.0) == "fail"


def test_evaluate_reports_worst_status_and_roundtrips():
    rules = [
        SloRule("a", warn=1.0, fail=2.0),
        SloRule("b", warn=1.0, fail=2.0),
    ]
    report = evaluate(rules, {"a": 0.5, "b": 5.0})
    assert report.status == "fail"
    assert [c.metric for c in report.failing()] == ["b"]
    rebuilt = HealthReport.from_dict(report.as_dict())
    assert rebuilt.as_dict() == report.as_dict()
    assert evaluate([], {}).status == "pass"


# ----------------------------------------------------------------------
# sparkline rendering


def test_sparkline_downsamples_by_bucket_max():
    values = [1.0] * 100
    values[63] = 50.0
    line = format_sparkline("p99", values, width=10)
    assert "█" in line and "[1..50]" in line
    assert format_sparkline("x", []).endswith("(no samples)")
    flat = format_sparkline("flat", [3, 3, 3])
    assert "▁▁▁" in flat


# ----------------------------------------------------------------------
# the timeline experiment itself


def test_timeline_grid_covers_growth_and_client_ramp():
    specs = timeline_specs(SCALES["tiny"], seed=42)
    kinds = [(s.kind, s.n_clients) for s in specs]
    assert ("growth", 1) in kinds
    assert [n for k, n in kinds if k == "contention"] == [1, 4, 16]


def test_timeline_growth_cell_shows_split_spike():
    spec = TimelineSpec(
        kind="growth",
        initial_cells=256,
        segment_cells=32,
        n_ops=200,
        seed=13,
    )
    cell = run_timeline_spec(spec)
    assert cell["splits"] > 0
    assert cell["split_window_p99_ns"] > cell["steady_window_p99_ns"] > 0
    assert cell["split_spike_ratio"] > 1.0
    assert cell["wear"] is not None and cell["wear"]["lines_touched"] > 0
    series = WindowSeries.from_dict(cell["series"])
    assert len(series.windows()) <= spec.max_windows
    assert sum(series.counter_values("splits")) == cell["splits"]
    json.dumps(cell)


def test_timeline_contention_cell_reports_aborts_and_health_inputs():
    spec = TimelineSpec(
        kind="contention",
        n_clients=4,
        total_cells=1 << 10,
        group_size=16,
        n_ops=120,
        seed=13,
    )
    cell = run_timeline_spec(spec)
    assert cell["committed"] > 0 and cell["total"]["p99"] > 0
    assert cell["lost_updates"] == 0 and cell["check_failures"] == []
    series = WindowSeries.from_dict(cell["series"])
    assert sum(series.counter_values("writes")) > 0
    values = health_values([cell])
    assert values["contention.p99_ns"] == cell["total"]["p99"]
    report = evaluate(SLO_RULES, values)
    assert report.status in ("pass", "warn")  # growth metrics missing → warn
    with pytest.raises(ValueError):
        run_timeline_spec(TimelineSpec(kind="nonsense"))


def test_detaching_the_tracer_keeps_the_sampler_observing():
    # detaching one observer leaves the ones attached after it in place
    region = small_region()
    table = make_table("group", region)
    tracer = Tracer(region)
    series = WindowSeries(1_000.0)
    WindowSampler(series).attach(region)
    tracer.detach()
    for key, value in random_items(8, seed=4):
        assert table.insert(key, value)
    assert sum(series.counter_values("writes")) > 0


# ----------------------------------------------------------------------
# DESIGN decision 15 pin: observation never moves a simulated event


@pytest.mark.parametrize("scheme", ["group", "linear", "linear-L", "pfht", "path"])
def test_sampler_and_recorder_are_simulation_invariant(scheme):
    logged = scheme.endswith("-L")
    base = scheme[:-2] if logged else scheme

    def drive(observe: bool):
        region = small_region()
        table = make_table(base, region, logged=logged)
        series = WindowSeries(1_000.0)
        sampler = WindowSampler(series)
        recorder = FlightRecorder(capacity=8)
        if observe:
            sampler.attach(region)
        items = random_items(80, seed=13)
        for i, (key, value) in enumerate(items):
            assert table.insert(key, value)
            if observe:
                recorder.record_op(0, index=i, kind="insert")
        for key, value in items[:40]:
            assert table.query(key) == value
        for key, _ in items[:10]:
            assert table.delete(key)
        if observe:
            sampler.detach()
            assert region.observers == ()
        return region.stats.as_dict(), series

    bare, _ = drive(False)
    observed, series = drive(True)
    assert bare == observed  # byte-identical simulated event counts
    assert sum(series.counter_values("writes")) > 0
