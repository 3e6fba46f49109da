"""Tests for the mixed-workload (YCSB-style) driver.

Covers the tentpole guarantees: op-stream determinism per seed, preset
ratios honoured within tolerance, live-set consistency of generated
streams, exact percentile reconciliation (Σ per-op simulated-ns deltas
equals the phase ``MemStats`` delta, to the bit), LatencyRecorder
exactness and histogram fallback, spec/result JSON round-trips, and
engine integration (cache round-trip plus byte-identity across
``--jobs``).
"""

import json
from collections import Counter

import pytest

from repro.bench.cache import ResultCache, decode, encode
from repro.bench.engine import Engine
from repro.bench.experiments.mixed import MIXED_SCHEMES
from repro.bench.runner import MixedResult, MixedSpec, run_mixed_workload
from repro.bench.workload import (
    OP_KINDS,
    PRESETS,
    OpMix,
    ZipfianRanks,
    generate_ops,
)
from repro.obs import LatencyRecorder

TINY = dict(total_cells=1 << 10, group_size=32, n_ops=120)


def tiny_spec(scheme="group", preset="ycsb-a", **kw) -> MixedSpec:
    fields = {**TINY, "load_factor": 0.5, **kw}
    return MixedSpec(scheme=scheme, preset=preset, **fields)


# ----------------------------------------------------------------------
# op-stream generation


def test_generate_ops_deterministic_per_seed():
    mix = PRESETS["ycsb-a"]
    a = generate_ops(mix, 500, 200, seed=7)
    b = generate_ops(mix, 500, 200, seed=7)
    c = generate_ops(mix, 500, 200, seed=8)
    assert a == b
    assert a != c


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_ratios_within_tolerance(preset):
    mix = PRESETS[preset]
    ops = generate_ops(mix, 4000, 1000, seed=11)
    counts = Counter(op.kind for op in ops)
    for kind, ratio in zip(OP_KINDS, mix.ratios):
        assert abs(counts[kind] / len(ops) - ratio) < 0.03, (
            f"{preset}: {kind} ratio off ({counts[kind] / len(ops):.3f} "
            f"vs {ratio:.3f})"
        )


def test_ycsb_c_is_read_only():
    ops = generate_ops(PRESETS["ycsb-c"], 1000, 100, seed=3)
    assert {op.kind for op in ops} == {"query"}


def test_stream_respects_liveness():
    """Every query/update/delete targets a key that is live at that
    point; inserts mint fresh sequential ids."""
    mix = OpMix(insert=0.3, query=0.2, update=0.2, delete=0.3)
    n_resident = 50
    ops = generate_ops(mix, 2000, n_resident, seed=5)
    live = set(range(n_resident))
    next_id = n_resident
    for op in ops:
        if op.kind == "insert":
            assert op.key_id == next_id
            live.add(next_id)
            next_id += 1
        else:
            assert op.key_id in live, f"{op.kind} on a dead key"
            if op.kind == "delete":
                live.remove(op.key_id)


def test_zipfian_skews_to_oldest_keys():
    mix = OpMix(query=1.0, key_dist="zipfian")
    ops = generate_ops(mix, 5000, 1000, seed=13)
    hot = sum(1 for op in ops if op.key_id < 10)
    assert hot / len(ops) > 0.25  # theta=0.99: top-10 ranks dominate


def test_latest_skews_to_newest_keys():
    mix = OpMix(query=1.0, key_dist="latest")
    n_resident = 1000
    ops = generate_ops(mix, 5000, n_resident, seed=13)
    counts = Counter(op.key_id for op in ops)
    # with no inserts the newest key is always id n_resident-1
    assert counts.most_common(1)[0][0] == n_resident - 1


def test_zipfian_ranks_incremental_zeta_matches_fresh():
    """Growing and shrinking the live set between draws must give the
    same ranks as a freshly constructed sampler."""
    draws = [i / 17 % 1.0 for i in range(1, 17)]
    sizes = [10, 11, 12, 11, 10, 9, 50, 49, 10, 10, 200, 199, 7, 8, 9, 10]
    warm = ZipfianRanks(0.99)
    for n, u in zip(sizes, draws):
        assert warm.rank(n, u) == ZipfianRanks(0.99).rank(n, u)


def test_zipfian_zeta_exact_after_oscillating_resizes():
    """10^5 random grow/shrink steps leave the maintained zeta *bit-
    identical* to a freshly summed one.

    The old incremental +=/-= maintenance drifted by ~1 ulp per long
    random walk (measured relative error up to ~9e-16 on this exact
    walk), so this asserts ``==``, not a tolerance — a tolerance would
    have passed pre-fix and the rank distribution would keep drifting
    under delete-heavy (YCSB-D-with-deletes) streams."""
    import random as _random

    rng = _random.Random(0)
    zipf = ZipfianRanks(0.99)
    n = 500
    for _ in range(100_000):
        n = max(2, n + rng.choice([-3, -1, 1, 2, 5, -4]))
        zipf._resize(n)
    fresh = 0.0
    for i in range(1, n + 1):
        fresh += i**-0.99
    assert zipf._zeta == fresh
    # and the public surface agrees with a cold sampler at that size
    for u in (0.01, 0.37, 0.93):
        assert zipf.rank(n, u) == ZipfianRanks(0.99).rank(n, u)


def test_zipfian_rank_bounds():
    zipf = ZipfianRanks(0.5)
    for n in (1, 2, 3, 100):
        for u in (0.0, 0.25, 0.5, 0.999999):
            assert 0 <= zipf.rank(n, u) < n
    with pytest.raises(ValueError):
        zipf.rank(0, 0.5)


def test_op_mix_validation():
    with pytest.raises(ValueError):
        OpMix(query=1.2, update=-0.2)  # negative ratio
    with pytest.raises(ValueError):
        OpMix(query=0.5, update=0.2)  # sums to 0.7
    with pytest.raises(ValueError):
        OpMix(query=1.0, key_dist="hotspot")
    with pytest.raises(ValueError):
        OpMix(query=1.0, zipf_theta=1.0)


# ----------------------------------------------------------------------
# latency recorder


def test_latency_recorder_exact_percentiles():
    rec = LatencyRecorder()
    values = [float(v) for v in range(1, 101)]
    # record out of order: index of the worst (100.0) is position 0
    values.sort(key=lambda v: -v)
    for i, v in enumerate(values):
        rec.record(v, i)
    summary = rec.summary()
    assert summary["count"] == 100
    assert summary["exact"] is True
    assert summary["p50"] == 50.0
    assert summary["p95"] == 95.0
    assert summary["p99"] == 99.0
    assert summary["max"] == 100.0
    assert summary["worst_op_index"] == 0


def test_latency_recorder_histogram_fallback():
    rec = LatencyRecorder(exact_cap=8)
    values = [float(v) for v in range(1, 21)]
    for i, v in enumerate(values):
        rec.record(v, i)
    assert rec.exact is False
    summary = rec.summary()
    assert summary["exact"] is False
    assert summary["count"] == 20
    # bucket upper bounds are conservative: never below the true value
    assert summary["p50"] >= 10.0
    assert summary["max"] == 20.0
    assert summary["worst_op_index"] == 19


# ----------------------------------------------------------------------
# spec / result round-trips


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        tiny_spec(preset="ycsb-z").resolved_mix()


def test_mixed_result_json_round_trip():
    result = run_mixed_workload(tiny_spec())
    wire = json.loads(json.dumps(encode(result)))
    assert decode(MixedResult, wire) == result


# ----------------------------------------------------------------------
# the driver


def test_per_op_deltas_reconcile_exactly():
    """Σ per-op sim-ns deltas telescopes to the phase MemStats delta —
    exactly, not approximately (all event costs are integer ns)."""
    result = run_mixed_workload(tiny_spec())
    assert result.extras["op_sim_ns"] == result.extras["phase_sim_ns"]
    assert result.total["count"] == TINY["n_ops"]
    assert result.phase.attempted == TINY["n_ops"]
    assert sum(s["count"] for s in result.per_kind.values()) == TINY["n_ops"]
    assert result.total["sum"] == pytest.approx(result.extras["op_sim_ns"])


@pytest.mark.parametrize("scheme", MIXED_SCHEMES)
def test_every_scheme_survives_update_heavy_mix(scheme):
    """ycsb-a routes updates through PersistentHashTable.update on every
    scheme; the driver's shadow model makes this self-verifying."""
    result = run_mixed_workload(tiny_spec(scheme=scheme, n_ops=80))
    assert result.per_kind["update"]["count"] > 0
    assert result.failed_ops == 0
    assert result.extras["op_sim_ns"] == result.extras["phase_sim_ns"]


def test_delete_heavy_custom_mix_round_trips():
    mix = OpMix(insert=0.3, query=0.2, update=0.2, delete=0.3)
    result = run_mixed_workload(tiny_spec(mix=mix, preset="churn"))
    assert result.failed_ops == 0
    assert set(result.per_kind) == set(OP_KINDS)
    assert result.extras["op_sim_ns"] == result.extras["phase_sim_ns"]


def test_with_trace_attributes_spans():
    result = run_mixed_workload(tiny_spec(with_trace=True))
    assert result.spans is not None
    assert result.trace_events
    assert result.extras["span_sim_ns"] == result.extras["phase_sim_ns"]


# ----------------------------------------------------------------------
# engine integration


def test_engine_cache_round_trip(tmp_path):
    spec = tiny_spec(scheme="linear-L")
    cold = Engine(jobs=1, cache=ResultCache(tmp_path))
    first = cold.run_one(spec)
    assert cold.executed == 1 and cold.cache_hits == 0
    warm = Engine(jobs=1, cache=ResultCache(tmp_path))
    second = warm.run_one(spec)
    assert warm.executed == 0 and warm.cache_hits == 1
    assert second == first


def test_engine_results_byte_identical_across_jobs():
    specs = [tiny_spec(scheme="group"), tiny_spec(scheme="pfht-L")]
    serial = Engine(jobs=1, cache=False).run(specs)
    parallel = Engine(jobs=2, cache=False).run(specs)
    assert json.dumps([encode(r) for r in serial], sort_keys=True) == json.dumps(
        [encode(r) for r in parallel], sort_keys=True
    )


def test_engine_warns_on_failed_ops():
    """Inserts at capacity surface as an engine warning, not silence."""
    # ycsb-d keeps inserting into a table filled to 0.95 of very few
    # cells — some inserts must fail
    spec = MixedSpec(
        scheme="group",
        preset="ycsb-d",
        load_factor=0.95,
        total_cells=1 << 8,
        group_size=16,
        n_ops=200,
    )
    engine = Engine(jobs=1, cache=False)
    result = engine.run_one(spec)
    if result.failed_ops:  # overwhelmingly likely at lf 0.95
        warnings = engine.take_warnings()
        assert warnings and "mixed ops failed" in warnings[0]
