"""Tests for the benchmark execution engine and its result cache.

Covers the tentpole guarantees: content-addressed caching (hits return
the same results, corrupt entries are recomputed), batch dedup, result
ordering, JSON round-trips for every spec/result kind, and determinism
across worker counts and ``PYTHONHASHSEED`` values.
"""

import dataclasses
import json
import os
import subprocess
import sys
import typing

import pytest

from repro.bench.cache import (
    ResultCache,
    code_version,
    decode,
    encode,
    spec_fingerprint,
)
from repro.bench.engine import SPEC_KINDS, Engine, execute_spec
from repro.bench.experiments.contention import ConcurrentSpec
from repro.bench.experiments.crashmatrix import CrashMatrixSpec
from repro.bench.experiments.serving import ServingSpec
from repro.bench.experiments.timeline import TimelineSpec
from repro.bench.runner import (
    GrowthSpec,
    MixedSpec,
    NegativeQuerySpec,
    OpMetrics,
    RecoverySpec,
    RunResult,
    RunSpec,
    UtilizationSpec,
    run_workload,
)
from repro.bench.workload import OpMix

TINY = dict(total_cells=1 << 10, group_size=32, measure_ops=20)


def tiny_spec(scheme="group", **kw) -> RunSpec:
    return RunSpec(scheme=scheme, trace="randomnum", load_factor=0.5, **TINY, **kw)


# ----------------------------------------------------------------------
# fingerprints


def test_code_version_is_stable_hex():
    token = code_version()
    assert token == code_version()
    assert len(token) == 16
    int(token, 16)  # hex-parsable


def test_fingerprint_stable_and_field_sensitive():
    a = tiny_spec()
    assert spec_fingerprint(a) == spec_fingerprint(tiny_spec())
    assert spec_fingerprint(a) != spec_fingerprint(tiny_spec(seed=43))
    assert spec_fingerprint(a) != spec_fingerprint(tiny_spec(scheme="linear"))


def test_fingerprint_distinguishes_spec_kinds():
    util = UtilizationSpec(scheme="group", total_cells=1 << 10, group_size=32)
    assert spec_fingerprint(util) != spec_fingerprint(
        UtilizationSpec(scheme="group", total_cells=1 << 10, group_size=64)
    )
    # same field values under a different kind must not collide
    neg = NegativeQuerySpec(scheme="group", total_cells=1 << 10, group_size=32)
    assert spec_fingerprint(util) != spec_fingerprint(neg)


# ----------------------------------------------------------------------
# result cache


def test_cache_roundtrip_and_counters(tmp_path):
    cache = ResultCache(tmp_path)
    spec = tiny_spec()
    assert cache.get(spec) is None
    cache.put(spec, {"result": {"x": 1}})
    assert cache.get(spec) == {"result": {"x": 1}}
    assert (cache.hits, cache.misses) == (1, 1)


def test_cache_tolerates_corrupt_entry(tmp_path):
    cache = ResultCache(tmp_path)
    spec = tiny_spec()
    cache.put(spec, {"result": 1})
    path = cache._path(spec)
    path.write_text("{not json")
    assert cache.get(spec) is None  # corrupt = miss, never an error


def test_cache_clear(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(tiny_spec(), {"result": 1})
    cache.put(tiny_spec(seed=7), {"result": 2})
    assert cache.clear() == 2
    assert cache.get(tiny_spec()) is None


# ----------------------------------------------------------------------
# serde round-trips


def _shifted(kind: type, **fields):
    """A ``kind`` spec with every field off its default: bools flipped,
    numbers raised by 3, strings suffixed. ``fields`` pins the fields
    that have no default (or a ``None`` one) and any valid-value ones."""
    for f in dataclasses.fields(kind):
        if f.name in fields:
            continue
        default = f.default
        if isinstance(default, bool):
            fields[f.name] = not default
        elif isinstance(default, (int, float)):
            fields[f.name] = default + 3
        elif isinstance(default, str):
            fields[f.name] = default + "-x"
        else:
            raise AssertionError(f"pin {kind.__name__}.{f.name}")
    return kind(**fields)


#: one sample per registered spec kind (MixedSpec with and without an
#: explicit mix)
SPEC_SAMPLES = [
    pytest.param(_shifted(RunSpec, scheme="linear-L"), id="RunSpec"),
    pytest.param(
        _shifted(
            MixedSpec,
            scheme="pfht",
            mix=OpMix(insert=0.1, query=0.6, update=0.2, delete=0.1, key_dist="latest"),
        ),
        id="MixedSpec-mix",
    ),
    pytest.param(_shifted(MixedSpec, scheme="pfht", mix=None), id="MixedSpec-preset"),
    pytest.param(_shifted(UtilizationSpec, scheme="path"), id="UtilizationSpec"),
    pytest.param(_shifted(RecoverySpec, total_cells=2048), id="RecoverySpec"),
    pytest.param(_shifted(NegativeQuerySpec, scheme="pfht"), id="NegativeQuerySpec"),
    pytest.param(_shifted(GrowthSpec), id="GrowthSpec"),
    pytest.param(_shifted(ConcurrentSpec), id="ConcurrentSpec"),
    pytest.param(_shifted(ServingSpec), id="ServingSpec"),
    pytest.param(_shifted(TimelineSpec), id="TimelineSpec"),
    pytest.param(_shifted(CrashMatrixSpec), id="CrashMatrixSpec"),
]


@pytest.mark.parametrize("spec", SPEC_SAMPLES)
def test_spec_kind_round_trips(spec):
    kind = type(spec)
    rebuilt = decode(kind, json.loads(json.dumps(encode(spec))))
    assert rebuilt == spec
    assert spec_fingerprint(rebuilt) == spec_fingerprint(spec)
    # a cache hit decodes at the executor's return annotation
    assert typing.get_type_hints(SPEC_KINDS[kind])["return"] is not None
    assert {type(p.values[0]) for p in SPEC_SAMPLES} == set(SPEC_KINDS)


def test_run_result_json_roundtrip():
    result = run_workload(tiny_spec())
    encoded = json.dumps(encode(result))
    rebuilt = decode(RunResult, json.loads(encoded))
    assert rebuilt.spec == result.spec
    assert rebuilt.fill_count == result.fill_count
    assert rebuilt.capacity == result.capacity
    assert rebuilt.fill_failures == result.fill_failures
    assert rebuilt.extras == result.extras
    for phase in ("insert", "query", "delete"):
        assert rebuilt.phase(phase) == result.phase(phase)


def test_op_metrics_roundtrip():
    m = OpMetrics(ops=9, sim_ns=1.5, cache_misses=3, attempted=10)
    rebuilt = decode(OpMetrics, json.loads(json.dumps(encode(m))))
    assert rebuilt == m
    assert rebuilt.shortfall == 1


# ----------------------------------------------------------------------
# engine behaviour


def test_engine_serial_matches_direct_execution():
    spec = tiny_spec()
    direct = run_workload(spec)
    via_engine = Engine(jobs=1, cache=False).run_one(spec)
    assert encode(via_engine) == encode(direct)


def test_engine_preserves_input_order_and_dedupes(tmp_path):
    specs = [tiny_spec("group"), tiny_spec("linear"), tiny_spec("group")]
    engine = Engine(jobs=1, cache=ResultCache(tmp_path))
    results = engine.run(specs)
    assert [r.spec.scheme for r in results] == ["group", "linear", "group"]
    # the duplicate cell executed (and was cached) exactly once
    assert engine.cache.misses == 2
    assert encode(results[0]) == encode(results[2])


def test_engine_mixed_kind_batch(tmp_path):
    engine = Engine(jobs=1, cache=ResultCache(tmp_path))
    batch = [
        tiny_spec(),
        UtilizationSpec(scheme="group", total_cells=1 << 10, group_size=32),
        RecoverySpec(total_cells=1 << 10, group_size=32),
    ]
    run_res, util_res, rec_res = engine.run(batch)
    assert isinstance(run_res, RunResult)
    assert 0.0 < util_res <= 1.0
    assert rec_res["recovery_ms"] >= 0.0


def test_warm_cache_serves_identical_results(tmp_path):
    specs = [tiny_spec(), tiny_spec(seed=7)]
    cold = Engine(jobs=1, cache=ResultCache(tmp_path)).run(specs)
    warm_engine = Engine(jobs=1, cache=ResultCache(tmp_path))
    warm = warm_engine.run(specs)
    assert warm_engine.cache.misses == 0
    assert warm_engine.cache.hits == 2
    assert warm == cold


def test_engine_rejects_unknown_spec_kind():
    with pytest.raises(TypeError):
        execute_spec(object())


def test_parallel_results_identical_to_serial():
    """--jobs N must not change a single bit of the results (the pool
    only changes *where* a cell executes, never what it computes)."""
    specs = [tiny_spec("group"), tiny_spec("linear"), tiny_spec("pfht")]
    serial = Engine(jobs=1, cache=False).run(specs)
    parallel = Engine(jobs=2, cache=False).run(specs)
    serial_blob = json.dumps([encode(r) for r in serial], sort_keys=True)
    parallel_blob = json.dumps([encode(r) for r in parallel], sort_keys=True)
    assert serial_blob == parallel_blob


# ----------------------------------------------------------------------
# determinism across interpreter hash randomisation

_HASHSEED_PROG = """
import json
from repro.bench.cache import encode
from repro.bench.engine import Engine
from repro.bench.runner import RunSpec
spec = RunSpec(scheme="group", trace="randomnum", load_factor=0.5,
               total_cells=1 << 10, group_size=32, measure_ops=20)
result = Engine(jobs=1, cache=False).run_one(spec)
print(json.dumps(encode(result), sort_keys=True))
"""


def _run_with_hashseed(seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run(
        [sys.executable, "-c", _HASHSEED_PROG],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


def test_results_independent_of_pythonhashseed():
    """Workload results must not leak builtin-hash iteration order: the
    same spec under different PYTHONHASHSEED values is byte-identical."""
    outputs = {_run_with_hashseed(seed) for seed in ("0", "1", "12345")}
    assert len(outputs) == 1
