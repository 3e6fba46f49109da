"""Table 3 — recovery time vs table size.

Paper shape: recovery time is linear in the table size and stays below
~1 % of the execution (fill) time at every size (paper: 0.92–0.93 %).
"""

import pytest

from benchmarks.conftest import SCALE, SEED
from repro.bench.experiments import table3


@pytest.fixture(scope="module")
def result():
    return table3.run(SCALE, seed=SEED)


def test_table3_driver(benchmark):
    from repro.bench.runner import RecoverySpec, measure_recovery

    spec = RecoverySpec(
        total_cells=SCALE.recovery_cells[0], group_size=SCALE.group_size, seed=SEED
    )
    out = benchmark.pedantic(
        measure_recovery,
        args=(spec,),
        rounds=1,
        iterations=1,
    )
    assert out["recovery_ms"] > 0


def test_recovery_linear_in_table_size(benchmark, result):
    data = benchmark(lambda: result.data)
    sizes = sorted(data)
    times = [data[s]["recovery_ms"] for s in sizes]
    assert all(b > a for a, b in zip(times, times[1:]))
    # doubling the table ≈ doubles recovery (loose band)
    for a, b in zip(times, times[1:]):
        assert 1.5 < b / a < 2.6, times


def test_recovery_fraction_small_and_stable(benchmark, result):
    data = benchmark(lambda: result.data)
    fractions = [data[s]["percentage"] for s in sorted(data)]
    assert all(f < 3.0 for f in fractions)  # paper: <1 %
    assert max(fractions) - min(fractions) < 1.0  # roughly constant


def test_execution_time_linear_too(benchmark, result):
    data = benchmark(lambda: result.data)
    sizes = sorted(data)
    times = [data[s]["execution_ms"] for s in sizes]
    assert all(b > 1.5 * a for a, b in zip(times, times[1:]))
