"""Tests for the growth experiment (GrowthSpec / run_growth_workload /
experiments/growth) and the split-in-progress crash-matrix coverage.

The acceptance claims pinned here:

- the measured window crosses at least three segment splits, and the
  during-split p99 stays strictly below the legacy whole-table rebuild
  pause for the same op stream;
- results are deterministic (and therefore byte-identical across
  ``--jobs``, which hash the same spec to the same cached cell);
- the crash matrix's grow cell lands crash points mid-split and the CI
  gate refuses a matrix without one.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.cache import decode, encode
from repro.bench.config import SCALES
from repro.bench.engine import Engine, execute_spec
from repro.bench.experiments import growth as growth_exp
from repro.bench.experiments.crashmatrix import (
    CrashMatrixSpec,
    campaign_specs,
    run_crash_matrix_spec,
)
from repro.bench.runner import GrowthSpec, run_growth_workload
from repro.bench.workload import GROWTH_MIX, PRESETS

TINY = SCALES["tiny"]


@pytest.fixture(scope="module")
def tiny_cell():
    return run_growth_workload(GrowthSpec.from_scale(TINY))


def test_growth_mix_is_insert_heavy_and_not_a_preset():
    assert GROWTH_MIX.insert > 0.5
    assert GROWTH_MIX not in PRESETS.values()


def test_spec_round_trips_and_scales():
    spec = GrowthSpec.from_scale(TINY, seed=7)
    assert spec.n_ops == TINY.measure_ops
    assert spec.initial_cells >= 256
    assert decode(GrowthSpec, json.loads(json.dumps(encode(spec)))) == spec


def test_window_crosses_three_splits(tiny_cell):
    inc = tiny_cell["incremental"]
    assert inc["splits"] >= 3
    assert inc["final_capacity"] > tiny_cell["initial_capacity"]
    # several splits can land inside one op, so ops <= splits
    assert 1 <= len(inc["split_ops"]) <= inc["splits"]
    assert inc["during_split"]["count"] == len(inc["split_ops"])


def test_split_p99_strictly_below_rebuild_pause(tiny_cell):
    assert tiny_cell["legacy"]["expansions"] >= 1
    assert tiny_cell["split_p99_ns"] < tiny_cell["rebuild_pause_ns"]
    assert tiny_cell["split_p99_below_rebuild_pause"]


def test_growth_run_is_deterministic(tiny_cell):
    again = run_growth_workload(GrowthSpec.from_scale(TINY))
    assert json.dumps(tiny_cell, sort_keys=True) == json.dumps(
        again, sort_keys=True
    )


def test_steady_tail_is_unaffected_by_growth_mode(tiny_cell):
    """Away from splits/rebuilds both paths run the same per-op
    commits, so their steady medians agree closely."""
    inc = tiny_cell["incremental"]["steady"]
    leg = tiny_cell["legacy"]["steady"]
    assert inc["p50"] == pytest.approx(leg["p50"], rel=0.25)


def test_experiment_reports_and_flags_ok():
    result = growth_exp.run(TINY, seed=42, engine=Engine(jobs=1, cache=False))
    assert result.name == "growth"
    assert result.data["ok"]
    assert len(result.data["cells"]) == 2
    assert "during-split" in result.text
    for cell in result.data["cells"]:
        assert cell["split_p99_below_rebuild_pause"]


def test_growth_spec_executes_through_the_engine():
    spec = GrowthSpec.from_scale(TINY)
    assert execute_spec(spec) == run_growth_workload(spec)


# ----------------------------------------------------------------------
# split-in-progress crash points


def test_crashmatrix_grid_includes_a_grow_cell():
    specs = campaign_specs(TINY, seed=42)
    grow = [s for s in specs if s.grow]
    assert len(grow) == 1
    assert grow[0].label.endswith("-dir")


def test_grow_cell_lands_crash_points_mid_split():
    spec = CrashMatrixSpec(
        total_cells=32,
        n_ops=24,
        prefill=0.5,
        subset_budget=2,
        grow=True,
        segment_cells=8,
        seed=42,
    )
    cell = run_crash_matrix_spec(spec)
    assert cell["splits"] >= 3
    assert cell["split_points"] >= 1
    assert cell["violations"] == []


def _cell(splits=0, split_points=0, batch=0, clients=0, concurrent_points=0):
    return {
        "spec": {
            "scheme": "group", "backend": "raw", "n_shards": 0,
            "batch": batch, "clients": clients, "grow": splits > 0,
        },
        "points": 250,
        "replays": 400,
        "splits": splits,
        "split_points": split_points,
        "concurrent_points": concurrent_points,
        "violations": [],
        "min_failing_prefix": None,
    }


#: the baseline the ported gate tests compare against: one batched, one
#: multi-client and one grow cell, the coverage the crash matrix must keep
BASELINE_CELLS = [
    _cell(batch=4),
    _cell(clients=3, concurrent_points=40),
    _cell(splits=3, split_points=12),
]


def _run_gate(tmp_path: Path, cells: list[dict]) -> tuple[int, str]:
    """Gate a crash-matrix report against :data:`BASELINE_CELLS` the way
    CI does: ``ci_perf_gate.py --section crashmatrix`` as a subprocess."""
    paths = []
    for name, payload in (("report", cells), ("baseline", BASELINE_CELLS)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"crashmatrix": {"cells": payload, "ok": True}}))
        paths.append(str(path))
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve().parent.parent / "scripts" / "ci_perf_gate.py"),
            paths[0],
            "--baseline", paths[1],
            "--section", "crashmatrix",
        ],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


def test_gate_requires_a_split_in_progress_cell(tmp_path):
    code, out = _run_gate(tmp_path, BASELINE_CELLS[:2] + [_cell(splits=3)])
    assert code == 1
    assert "FAIL: crashmatrix/group/raw b0 clients=0 grow=True" in out
    assert "split_points: 0 vs baseline 12 [exact]" in out


def test_gate_requires_batch_coverage(tmp_path):
    code, out = _run_gate(tmp_path, BASELINE_CELLS[1:])
    assert code == 1
    assert "FAIL: crashmatrix: baseline cell group/raw b4 missing from fresh run" in out


def test_gate_requires_concurrent_coverage(tmp_path):
    code, out = _run_gate(tmp_path, [BASELINE_CELLS[0], BASELINE_CELLS[2]])
    assert code == 1
    assert (
        "FAIL: crashmatrix: baseline cell group/raw b0 clients=3 grow=False "
        "missing from fresh run"
    ) in out


def test_gate_passes_with_split_coverage(tmp_path):
    code, out = _run_gate(tmp_path, BASELINE_CELLS)
    assert code == 0
    assert "ok: crashmatrix/group/raw b0 clients=0 grow=True split_points: 12" in out
    assert "ok: crashmatrix/group/raw b4 points: 250" in out
    assert "concurrent_points: 40 vs baseline 40 [exact]" in out
