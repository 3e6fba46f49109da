"""Figure 7 — space utilization ratios.

Paper shape: path hashing highest (~0.95), PFHT slightly lower, group
hashing ≈ 0.82 (with group size 256). At the scaled-down default the
absolute group number sits a little lower (smaller groups); Figure 8b
covers the group-size dependence explicitly.
"""

import pytest

from benchmarks.conftest import SCALE, SEED
from repro.bench.experiments import fig7


@pytest.fixture(scope="module")
def result():
    return fig7.run(SCALE, seed=SEED)


def test_fig7_driver(benchmark):
    from repro.bench.runner import UtilizationSpec, measure_space_utilization

    spec = UtilizationSpec(
        "group", total_cells=SCALE.total_cells, group_size=SCALE.group_size, seed=SEED
    )
    util = benchmark.pedantic(
        measure_space_utilization,
        args=(spec,),
        rounds=1,
        iterations=1,
    )
    assert 0.5 < util < 1.0


def test_ordering_two_hash_schemes_above_group(benchmark, result):
    """Paper ordering: path > pfht > group. At scaled-down sizes path
    and PFHT land within ~2 points of each other (path's reserved-level
    count shrinks with the table), so we assert the robust part: both
    two-hash schemes clearly exceed group hashing, and path/pfht are
    within a whisker of each other."""
    data = benchmark(lambda: result.data)
    for trace in ("randomnum", "bagofwords", "fingerprint"):
        assert data["path"][trace] > data["group"][trace], trace
        assert data["pfht"][trace] > data["group"][trace], trace
        assert abs(data["path"][trace] - data["pfht"][trace]) < 0.08, trace


def test_absolute_bands(benchmark, result):
    data = benchmark(lambda: result.data)
    for trace in ("randomnum", "bagofwords", "fingerprint"):
        assert data["path"][trace] > 0.85  # paper: ~0.95
        assert data["pfht"][trace] > 0.7
        assert 0.6 < data["group"][trace] < 0.95  # paper: ~0.82 at G=256


def test_utilization_stable_across_traces(benchmark, result):
    """The paper reports near-identical bars per trace: utilization is a
    structural property, not a key-distribution one."""
    data = benchmark(lambda: result.data)
    for scheme in ("pfht", "path", "group"):
        values = [data[scheme][t] for t in ("randomnum", "bagofwords", "fingerprint")]
        assert max(values) - min(values) < 0.12, (scheme, values)
