"""Tests for perfbench at ``--smoke`` sizes.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import ast
import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from run import WORKLOADS, declared_metrics  # noqa: E402
from workloads import DETERMINISTIC  # noqa: E402


def bench(tmp_path, name: str, *args: str) -> tuple[list[str], dict, dict]:
    """Run all five workloads at smoke sizes; returns the printed metric
    lines, the final JSON line and the per-run results."""
    path = tmp_path / f"{name}.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seconds", "0",
         "--json", str(path), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    with open(path) as fh:
        runs = {w: rs[0] for w, rs in json.load(fh)["runs"].items()}
    return lines[:-1], json.loads(lines[-1]), runs


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return bench(tmp_path_factory.mktemp("untraced"), "a", "--seed", "1")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return bench(tmp_path_factory.mktemp("traced"), "t", "--seed", "1", "--trace")


def test_simulated_metrics_are_gated_at_float_noise():
    bounds = {m["name"]: m["bound"] for m in declared_metrics(trace=False)}
    assert all(bounds[name] <= 0.001 for name in DETERMINISTIC)


@pytest.mark.parametrize("mode", ["untraced", "traced"])
def test_every_declared_metric_is_printed_with_its_unit(mode, request):
    lines, final, _ = request.getfixturevalue(mode)
    declared = declared_metrics(trace=mode == "traced")
    printed = {}
    for line in lines:
        fields = line.split()
        if len(fields) >= 4 and fields[1] not in ("FAILURE", "MISSING"):
            printed[fields[0], fields[1]] = (float(fields[2]), fields[3])
    for workload in WORKLOADS:
        for m in declared:
            name, unit = m["name"], m["unit"]
            assert printed[workload, name][1] == unit, (workload, name)
            assert final["metrics"][f"{workload}.{name}"]["unit"] == unit
        assert printed[workload, "error_rate"][0] == 0.0
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0


def test_end_to_end_metrics_are_never_zero(untraced):
    _, final, _ = untraced
    zero = [name for name, m in final["metrics"].items() if m["value"] <= 0]
    assert not zero


def test_simulated_metrics_repeat_and_the_seed_moves_only_its_own_rounds(
    untraced, tmp_path
):
    _, _, first = untraced
    _, _, again = bench(tmp_path, "b", "--seed", "1")
    _, _, other = bench(tmp_path, "c", "--seed", "2")
    for workload in WORKLOADS:
        gated = {m: first[workload]["e2e"][m] for m in DETERMINISTIC}
        # the gated numbers come from the reference requests, whatever the seed
        for run in (again, other):
            assert {m: run[workload]["e2e"][m] for m in DETERMINISTIC} == gated
        # the seed's own rounds repeat for a seed and change with it
        seeded = first[workload]["seed_deterministic"]
        assert again[workload]["seed_deterministic"] == seeded, workload
        assert other[workload]["seed_deterministic"] != seeded, workload


def test_layer_self_times_add_up_to_the_traced_wall_time(traced):
    _, _, runs = traced
    for workload, r in runs.items():
        total = sum(r["self_ns"].values()) + r["wrapper_ns"]
        assert abs(total - r["traced_ns"]) <= 0.05 * r["traced_ns"], workload
        assert r["self_ns"]["harness"] <= 0.2 * sum(r["self_ns"].values()), workload
        assert r["per_layer"]["trace.overhead_share"] > 0


def test_no_boundary_is_missing(traced):
    _, _, runs = traced
    for workload, r in runs.items():
        assert r["missing"] == [], workload
        assert r["per_layer"]["trace.missing_boundaries"] == 0


def owners_state():
    state = {}
    for _, target in layers.BOUNDARIES:
        owner, attr, _ = layers.resolve(target)
        state[target] = owner.__dict__.get(attr, "absent")
    return state


def test_trace_restores_every_wrapped_attribute():
    before = owners_state()
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        during = owners_state()
        assert all(during[t] is not before[t] for t in before)
    finally:
        tracer.restore()
    after = owners_state()
    assert all(after[t] is before[t] for t in before)


def test_calls_count_entries_from_another_layer():
    from repro import GroupHashTable, ItemSpec, RawBackend

    tracer = layers.LayerTracer(keep_ops=1)
    tracer.install()
    try:
        table = GroupHashTable(RawBackend(1 << 16), 256, ItemSpec(8, 8), group_size=16)
        tracer.begin()
        for i in range(10):
            table.insert(i.to_bytes(8, "little"), bytes(8))
        tracer.end()
    finally:
        tracer.restore()
    calls = dict(zip(layers.LAYERS, tracer.calls))
    # one entry per insert, however many backend calls each one makes
    assert calls["core.group_hash"] == 10
    assert calls["hashes"] == 10
    assert calls["nvm.backend"] >= 30
    # raw spans are kept for the first table op only
    assert {span[-1] for span in tracer.span_log} == {1}


def test_a_wrong_answer_counts_as_a_failure(monkeypatch):
    import workloads
    from repro import GroupHashTable

    monkeypatch.setattr(GroupHashTable, "query", lambda self, key: None)
    result = workloads.run("raw-mixed", 1, 0, trace=False, smoke=True)
    assert result["failed"] > 0


def test_no_repro_bench_import(untraced):
    for path in glob.glob(os.path.join(HERE, "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            assert not any(n.startswith("repro.bench") for n in names), path
    # what the public concurrency and serving packages load themselves
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.concurrency, repro.serving;"
         "print(' '.join(m for m in sys.modules if m.startswith('repro.bench')))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
    )
    public = set(proc.stdout.split())
    _, _, runs = untraced
    for workload, r in runs.items():
        if workload in ("sim-clients", "serving"):
            assert set(r["bench_modules"]) <= public
        else:
            assert r["bench_modules"] == [], workload


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "raw-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
