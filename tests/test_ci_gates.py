"""Tests for the CI report gate (``scripts/ci_perf_gate.py``): its
plumbing, metric comparisons, per-cell invariants, cell labels and the
lean committed baselines.

The gate lives in ``scripts/`` (not the package), so it is loaded by
file path here.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

#: every committed baseline CI gates against, one per gated section
BASELINES = (
    "bench_contention.json",
    "bench_timeline.json",
    "bench_serving.json",
    "bench_crashmatrix.json",
)


def _load(name: str):
    """Import one gate script by path."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


ci_perf_gate = _load("ci_perf_gate")


# ----------------------------------------------------------------------
# gate plumbing


def test_gate_prints_and_tracks_state(capsys):
    gate = ci_perf_gate.Gate()
    gate.ok("fine")
    gate.warn("slow")
    assert gate.finish("all good") == 0
    out = capsys.readouterr().out
    assert "ok: fine" in out and "WARN: slow" in out
    assert "gate passed: all good" in out
    assert gate.warnings == 1

    gate = ci_perf_gate.Gate()
    gate.fail("broken")
    assert gate.finish("nope") == 1
    out = capsys.readouterr().out
    assert "FAIL: broken" in out and "gate passed" not in out


def test_report_section_exits_cleanly_on_missing_section():
    with pytest.raises(SystemExit, match="no 'contention' section"):
        ci_perf_gate.report_section({"timeline": {}}, "contention")
    assert ci_perf_gate.report_section({"x": {"cells": []}}, "x") == {"cells": []}


def test_cells_by_spec_keys_on_sorted_items():
    cells = [
        {"spec": {"b": 2, "a": 1}, "v": "first"},
        {"spec": {"a": 9, "b": 2}, "v": "second"},
    ]
    index = ci_perf_gate.cells_by_spec({"cells": cells})
    assert index[(("a", 1), ("b", 2))]["v"] == "first"
    assert ci_perf_gate.spec_key({"b": 2, "a": 1}) == (("a", 1), ("b", 2))


def test_dig_walks_dotted_paths():
    payload = {"total": {"p99": 42.0}}
    assert ci_perf_gate.dig(payload, "total.p99") == 42.0
    assert ci_perf_gate.dig(payload, "total.missing") is None
    assert ci_perf_gate.dig(payload, "total.p99.deeper", default=-1) == -1


def test_print_failure_context_shows_recorder_rings(capsys):
    ci_perf_gate.print_failure_context(None)
    assert capsys.readouterr().out == ""
    context = {
        "first_failing_boundary": 7,
        "events_seen": 9,
        "ops_seen": 3,
        "events": [{"index": 6, "kind": "write"}],
        "ops": {"0": [{"index": 2, "kind": "insert"}]},
    }
    ci_perf_gate.print_failure_context(context)
    out = capsys.readouterr().out
    assert "failing boundary 7" in out
    assert "'kind': 'write'" in out and "client 0 op" in out


# ----------------------------------------------------------------------
# ci_perf_gate end to end


def _contention_dump(
    kops=100.0, p99=500.0, aborts=10, digest="d1", **fields
) -> dict:
    cell = {
        "spec": {"n_clients": 4, "seed": 1},
        "clients": 4,
        "committed": 200,
        "failed_ops": 0,
        "lost_updates": 0,
        "check_failures": [],
        "throughput_kops": kops,
        "total": {"p99": p99},
        "read_aborts": aborts,
        "table_digest": digest,
        **fields,
    }
    return {"contention": {"cells": [cell]}}


def _timeline_dump(status="pass", spike=30.0) -> dict:
    growth = {
        "spec": {"kind": "growth", "seed": 1},
        "split_spike_ratio": spike,
        "steady_window_p99_ns": 2000.0,
    }
    health = {
        "status": status,
        "checks": [
            {
                "metric": "growth.split_spike_ratio",
                "status": status,
                "value": spike,
                "warn": 100.0,
                "fail": 1000.0,
                "direction": "above",
                "description": "",
            }
        ],
    }
    return {"timeline": {"cells": [growth], "health": health}}


def _run(tmp_path, fresh: dict, base: dict, *extra: str) -> int:
    fresh_path = tmp_path / "fresh.json"
    base_path = tmp_path / "base.json"
    fresh_path.write_text(json.dumps(fresh))
    base_path.write_text(json.dumps(base))
    return ci_perf_gate.main(
        [str(fresh_path), "--baseline", str(base_path), *extra]
    )


def test_perf_gate_passes_on_identical_dumps(tmp_path, capsys):
    dump = _contention_dump()
    assert _run(tmp_path, dump, dump) == 0
    assert "gate passed" in capsys.readouterr().out


def test_perf_gate_fails_on_deterministic_regression(tmp_path, capsys):
    assert _run(tmp_path, _contention_dump(kops=50.0), _contention_dump()) == 1
    out = capsys.readouterr().out
    assert "FAIL: contention/4 client(s) throughput_kops" in out


def test_perf_gate_tolerates_drift_within_tolerance(tmp_path):
    assert _run(tmp_path, _contention_dump(p99=560.0), _contention_dump()) == 0


def test_perf_gate_fails_on_missing_baseline_cell(tmp_path, capsys):
    fresh = {"contention": {"cells": []}}
    assert _run(tmp_path, fresh, _contention_dump()) == 1
    assert "missing from fresh run" in capsys.readouterr().out


def test_perf_gate_gates_on_health_failure(tmp_path, capsys):
    fresh = _timeline_dump(status="fail", spike=2000.0)
    base = _timeline_dump()
    # trajectory comparison alone would fail too; health must also fail
    assert _run(tmp_path, fresh, base) == 1
    out = capsys.readouterr().out
    assert "FAIL: timeline: health report status is 'fail'" in out
    assert "FAIL: timeline health growth.split_spike_ratio" in out


def _serving_dump(kops=500.0, wrong=0, one_sided=200, digest="d1") -> dict:
    cell = {
        "spec": {
            "n_clients": 64,
            "batch_max": 8,
            "location_cache": True,
            "seed": 1,
        },
        "throughput_kops": kops,
        "total": {"p99": 900.0},
        "wrong_answers": wrong,
        "shadow_failures": 0,
        "one_sided_reads": one_sided,
        "check_failures": [],
        "table_digest": digest,
    }
    return {"serving": {"cells": [cell]}}


def test_perf_gate_serving_wrong_answers_zero_tolerance(tmp_path, capsys):
    assert _run(tmp_path, _serving_dump(), _serving_dump()) == 0
    # a single wrong answer off a zero baseline is a hard failure — this
    # is a correctness gate wearing a perf gate's clothes
    assert _run(tmp_path, _serving_dump(wrong=1), _serving_dump()) == 1
    assert "FAIL: serving/64c b8 +loc wrong_answers" in capsys.readouterr().out


def test_perf_gate_serving_catches_dead_fast_path(tmp_path, capsys):
    # the location-cache path silently never firing must not pass
    assert _run(tmp_path, _serving_dump(one_sided=0), _serving_dump()) == 1
    assert "one_sided_reads" in capsys.readouterr().out


def test_perf_gate_fails_when_fresh_cell_lost_a_baseline_metric(tmp_path, capsys):
    # a fresh cell that stopped reporting what the baseline gates on
    # must not pass by comparing nothing
    fresh = _serving_dump()
    cell = fresh["serving"]["cells"][0]
    for path in ("throughput_kops", "wrong_answers", "shadow_failures"):
        del cell[path]
    cell["total"] = {}
    cell["one_sided_reads"] = "n/a"
    assert _run(tmp_path, fresh, _serving_dump()) == 1
    out = capsys.readouterr().out
    for path in (
        "throughput_kops",
        "total.p99",
        "wrong_answers",
        "shadow_failures",
        "one_sided_reads",
    ):
        assert f"FAIL: serving/64c b8 +loc {path}: " in out
    assert "gate passed" not in out


def test_perf_gate_skips_metrics_the_baseline_lacks(tmp_path, capsys):
    base = _serving_dump()
    del base["serving"]["cells"][0]["one_sided_reads"]
    assert _run(tmp_path, _serving_dump(), base) == 0
    assert "one_sided_reads" not in capsys.readouterr().out


@pytest.mark.parametrize("dump", [_contention_dump, _serving_dump])
def test_perf_gate_table_digest_must_match_exactly(tmp_path, capsys, dump):
    # a lost update can keep every number flat; the final table bytes
    # cannot hide it
    assert _run(tmp_path, dump(digest="d1"), dump(digest="d1")) == 0
    out = capsys.readouterr().out
    assert "table_digest: d1 vs baseline d1 [exact]" in out
    assert _run(tmp_path, dump(digest="d2"), dump(digest="d1")) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert len(failed) == 1
    assert failed[0].endswith("table_digest: d2 vs baseline d1 [exact]")


def test_perf_gate_reports_missing_baseline_file(tmp_path, capsys):
    fresh_path = tmp_path / "fresh.json"
    fresh_path.write_text(json.dumps(_contention_dump()))
    code = ci_perf_gate.main(
        [str(fresh_path), "--baseline", str(tmp_path / "nope.json")]
    )
    assert code == 1
    assert "no baseline" in capsys.readouterr().out


def test_perf_gate_rejects_dumps_with_no_common_section(tmp_path, capsys):
    assert _run(tmp_path, {"contention": {"cells": []}}, {"timeline": {}}) == 1
    assert "no gateable section" in capsys.readouterr().out


def test_perf_gate_real_baselines_self_compare():
    """The committed baselines gate cleanly against themselves."""
    for name in BASELINES:
        path = ROOT / name
        assert path.exists(), f"committed baseline {name} is missing"
        assert ci_perf_gate.main([str(path), "--baseline", str(path)]) == 0


def _as_ints(node):
    """``node`` with every whole float outside a ``spec`` (a simulated
    value such as a p99 of ``605.0``) as the ``int`` an integer
    simulated clock reports instead."""
    if isinstance(node, dict):
        return {k: v if k == "spec" else _as_ints(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_as_ints(v) for v in node]
    if isinstance(node, float) and node.is_integer():
        return int(node)
    return node


@pytest.mark.parametrize("name", BASELINES)
def test_perf_gate_float_baselines_pass_int_reports(tmp_path, name):
    """The committed baselines stay valid without being rewritten: a
    report carrying their whole-float values as ints passes."""
    base = json.loads((ROOT / name).read_text())
    assert _run(tmp_path, _as_ints(base), base) == 0


def test_perf_gate_int_report_off_by_one_on_an_exact_metric_fails(tmp_path, capsys):
    """Int against float compares by value: crashmatrix ``points`` of
    the same value passes, one more fails."""
    base = json.loads((ROOT / "bench_crashmatrix.json").read_text())
    cell = base["crashmatrix"]["cells"][0]
    cell["points"] = float(cell["points"])
    fresh = _as_ints(base)
    assert _run(tmp_path, fresh, base) == 0
    capsys.readouterr()
    fresh["crashmatrix"]["cells"][0]["points"] += 1
    assert _run(tmp_path, fresh, base) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert len(failed) == 1
    want = f"points: {int(cell['points']) + 1} vs baseline {cell['points']} [exact]"
    assert failed[0].endswith(want)


# ----------------------------------------------------------------------
# invariants: checked on every fresh cell, no baseline needed

_RECORDER = {"events_seen": 3, "ops_seen": 1, "events": [], "ops": {}}


@pytest.mark.parametrize(
    "defect, expected",
    [
        ({"lost_updates": 1}, "lost_updates == 0 (got lost_updates=1)"),
        ({"check_failures": [{"key": "0a"}]}, "check_failures == []"),
        ({"failed_ops": 2}, "failed_ops == 0 (got failed_ops=2)"),
        ({"read_aborts": 1001}, "read_aborts / committed <= 5.0"),
    ],
)
def test_perf_gate_contention_invariants(tmp_path, capsys, defect, expected):
    # compared against itself: no metric drifts, only the invariant fails
    dump = _contention_dump(**defect, failure_context=_RECORDER)
    assert _run(tmp_path, dump, dump) == 1
    out = capsys.readouterr().out
    assert f"FAIL: contention/4 client(s) {expected}" in out
    assert "flight recorder: 3 event(s), 1 op(s) seen" in out


def test_perf_gate_abort_rate_at_the_bound_passes(tmp_path):
    dump = _contention_dump(aborts=1000)
    assert _run(tmp_path, dump, dump) == 0


def test_perf_gate_invariant_field_missing_fails(tmp_path, capsys):
    dump = _contention_dump()
    del dump["contention"]["cells"][0]["lost_updates"]
    assert _run(tmp_path, dump, dump) == 1
    assert "lost_updates == 0 (got lost_updates=None)" in capsys.readouterr().out


def test_perf_gate_section_ok_must_be_true(tmp_path, capsys):
    base, fresh = _contention_dump(), _contention_dump()
    base["contention"]["ok"] = True
    fresh["contention"]["ok"] = False
    assert _run(tmp_path, fresh, base) == 1
    assert "FAIL: contention: section ok flag is False" in capsys.readouterr().out
    del fresh["contention"]["ok"]
    assert _run(tmp_path, fresh, base) == 1


def _crash_cell(**fields) -> dict:
    return {
        "spec": {"scheme": "group", "backend": "raw", "batch": 0, "clients": 0},
        "points": 250,
        "replays": 400,
        "splits": 0,
        "split_points": 0,
        "concurrent_points": 0,
        "violations": [],
        "min_failing_prefix": None,
        **fields,
    }


def test_perf_gate_crashmatrix_violation_prints_prefix(tmp_path, capsys):
    base = {"crashmatrix": {"cells": [_crash_cell()], "ok": True}}
    broken = _crash_cell(
        violations=[{"oracle": "atomicity", "boundary": 7}],
        min_failing_prefix=[["write", 64, 8], ["fence", 0, 0]],
        failure_context=dict(_RECORDER, first_failing_boundary=7),
    )
    fresh = {"crashmatrix": {"cells": [broken], "ok": False}}
    assert _run(tmp_path, fresh, base) == 1
    out = capsys.readouterr().out
    assert "FAIL: crashmatrix/group/raw b0 violations == []" in out
    assert "'oracle': 'atomicity'" in out
    assert "minimal failing prefix (2 event(s)):" in out
    assert "['write', 64, 8]" in out
    assert "failing boundary 7" in out


# ----------------------------------------------------------------------
# cell labels and lean baselines


def test_cell_labels_name_colliding_cells_by_their_varying_fields():
    plain = {"scheme": "group", "backend": "raw", "batch": 0, "clients": 0}
    clients = dict(plain, clients=3)
    labels = ci_perf_gate.cell_labels([plain, clients])
    assert sorted(labels.values()) == [
        "group/raw b0 clients=0",
        "group/raw b0 clients=3",
    ]


@pytest.mark.parametrize("name", BASELINES)
def test_cell_labels_unique_in_committed_baselines(name):
    dump = json.loads((ROOT / name).read_text())
    for payload in dump.values():
        labels = ci_perf_gate.cell_labels([cell["spec"] for cell in payload["cells"]])
        assert len(set(labels.values())) == len(labels) == len(payload["cells"])


def test_committed_baselines_are_lean():
    paths = sorted(ROOT.glob("bench_*.json"))
    assert sorted(path.name for path in paths) == sorted(BASELINES)
    for path in paths:
        dump = json.loads(path.read_text())
        assert dump == ci_perf_gate.lean(dump), f"{path.name} is not lean"
    assert sum(path.stat().st_size for path in paths) < 100_000


def test_lean_keeps_only_what_the_gate_reads(tmp_path):
    full = _contention_dump(per_client=[{"ops": 50}] * 4, metrics={"x": 1})
    full["contention"].update(ok=True, client_counts=[4])
    full["scale"] = "tiny"
    base = ci_perf_gate.lean(full)
    assert set(base) == {"contention"}
    assert set(base["contention"]) == {"cells", "ok"}
    cell = base["contention"]["cells"][0]
    assert "per_client" not in cell and "metrics" not in cell
    assert cell["total"] == {"p99": 500.0} and cell["committed"] == 200
    assert _run(tmp_path, full, base) == 0
