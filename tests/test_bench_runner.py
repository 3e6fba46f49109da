"""Tests for the measurement runner (fill, phases, utilization, recovery)."""

import pytest

from repro.bench import (
    RecoverySpec,
    RunSpec,
    UtilizationSpec,
    measure_recovery,
    measure_space_utilization,
    run_workload,
)
from repro.bench.config import build_table, make_trace
from repro.bench.runner import OpMetrics, fill_to_load_factor
from repro.nvm import MemStats


SMALL = dict(total_cells=1 << 10, group_size=32, measure_ops=50)


def test_op_metrics_averages():
    delta = MemStats(cache_misses=30, flushes=20, sim_time_ns=5000.0)
    m = OpMetrics.from_delta(10, delta)
    assert m.avg_latency_ns == 500.0
    assert m.avg_misses == 3.0
    assert m.avg_flushes == 2.0


def test_op_metrics_zero_ops_safe():
    m = OpMetrics()
    assert m.avg_latency_ns == 0.0
    assert m.avg_misses == 0.0


def test_fill_reaches_target_load_factor():
    trace = make_trace("randomnum")
    built = build_table("linear", 1 << 10, trace.spec)
    resident, failures = fill_to_load_factor(built, trace.unique_items(), 0.5)
    assert built.table.count == int(0.5 * built.table.capacity)
    assert len(resident) == built.table.count
    assert failures == 0  # linear never rejects below capacity


def test_fill_raises_when_impossible():
    # a load factor beyond 1.0 is structurally unreachable: the fill
    # loop must give up with a diagnostic instead of spinning forever
    trace = make_trace("randomnum")
    built = build_table("chained", 256, trace.spec)
    with pytest.raises(RuntimeError, match="cannot fill"):
        fill_to_load_factor(built, trace.unique_items(), 1.5)


def test_run_workload_produces_all_phases():
    spec = RunSpec(scheme="group", trace="randomnum", load_factor=0.5, **SMALL)
    result = run_workload(spec)
    assert result.insert.ops == 50
    assert result.query.ops == 50
    assert result.delete.ops == 50
    assert result.insert.avg_latency_ns > 0
    assert result.query.avg_latency_ns > 0
    assert result.fill_count == int(0.5 * result.capacity)


def test_run_workload_query_has_no_writes():
    spec = RunSpec(scheme="linear", trace="randomnum", load_factor=0.5, **SMALL)
    result = run_workload(spec)
    assert result.query.flushes == 0
    assert result.query.nvm_bytes_written == 0
    # mutating phases do write
    assert result.insert.flushes > 0
    assert result.delete.flushes > 0


def test_run_workload_deterministic_per_seed():
    spec = RunSpec(scheme="pfht", trace="randomnum", load_factor=0.5, seed=9, **SMALL)
    a = run_workload(spec)
    b = run_workload(spec)
    assert a.insert.sim_ns == b.insert.sim_ns
    assert a.query.cache_misses == b.query.cache_misses


def test_run_workload_all_traces():
    for trace in ("randomnum", "bagofwords", "fingerprint"):
        spec = RunSpec(scheme="group", trace=trace, load_factor=0.5, **SMALL)
        result = run_workload(spec)
        assert result.insert.avg_latency_ns > 0


def test_from_scale_constructor():
    from repro.bench.config import SCALES

    spec = RunSpec.from_scale("group", "randomnum", 0.75, SCALES["tiny"], seed=1)
    assert spec.total_cells == SCALES["tiny"].total_cells
    assert spec.load_factor == 0.75
    assert spec.seed == 1


def test_space_utilization_group_below_one():
    util = measure_space_utilization(
        UtilizationSpec("group", total_cells=1 << 10, group_size=32)
    )
    assert 0.3 < util < 1.0


def test_space_utilization_path_high():
    util = measure_space_utilization(UtilizationSpec("path", total_cells=1 << 10))
    assert util > 0.8


def test_measure_recovery_fields():
    result = measure_recovery(RecoverySpec(total_cells=1 << 10, group_size=32))
    assert result["recovery_ms"] > 0
    assert result["execution_ms"] > result["recovery_ms"]
    assert 0 < result["percentage"] < 100
    assert result["table_bytes"] == (1 << 10) * 24


def test_op_metrics_shortfall():
    assert OpMetrics(ops=10, attempted=10).shortfall == 0
    assert OpMetrics(ops=8, attempted=10).shortfall == 2
    # attempted not recorded (legacy 0) never reads as negative shortfall
    assert OpMetrics(ops=10, attempted=0).shortfall == 0


def test_run_workload_records_attempted():
    spec = RunSpec(scheme="group", trace="randomnum", load_factor=0.5, **SMALL)
    result = run_workload(spec)
    assert result.insert.attempted == result.insert.ops  # room to spare
    assert result.query.attempted == spec.measure_ops
    assert result.delete.attempted == spec.measure_ops
    assert result.shortfalls() == {}


def test_shortfalls_surface_partial_phases():
    from repro.bench.runner import RunResult

    result = RunResult(
        spec=RunSpec(scheme="group", trace="randomnum", load_factor=0.5, **SMALL),
        fill_count=0,
        capacity=SMALL["total_cells"],
        insert=OpMetrics(ops=40, attempted=50),
        query=OpMetrics(ops=50, attempted=50),
        delete=OpMetrics(ops=50, attempted=50),
    )
    assert result.shortfalls() == {"insert": 10}
