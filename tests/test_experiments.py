"""Smoke + structure tests for the experiment drivers and CLI.

The heavy shape assertions live in benchmarks/; here we verify the
drivers produce well-formed structured data and readable reports at the
tiny scale, and that the CLI wires everything together.
"""

import pytest

from repro.bench.config import SCALES
from repro.bench.experiments import fig2, fig5, fig6, fig7, fig8, table3
from repro.bench.experiments.latency_matrix import clear_cache, collect_matrix
from repro.bench.report import format_table, hrule

TINY = SCALES["tiny"]
SEED = 7


@pytest.fixture(scope="module")
def matrix():
    clear_cache()
    return collect_matrix(TINY, SEED)


def test_matrix_covers_full_grid(matrix):
    assert len(matrix) == 3 * 2 * 7  # traces x load factors x schemes
    for result in matrix.values():
        assert result.insert.ops > 0


def test_matrix_is_memoised():
    a = collect_matrix(TINY, SEED)
    b = collect_matrix(TINY, SEED)
    assert a is b


def test_fig2_structure(matrix):
    result = fig2.run(TINY, seed=SEED)
    assert result.name == "fig2"
    assert set(result.data["latency"]) == {
        "linear", "linear-L", "pfht", "pfht-L", "path", "path-L",
    }
    assert result.data["latency_ratio"] > 1
    assert "Figure 2(a)" in result.text and "Figure 2(b)" in result.text


def test_fig5_structure(matrix):
    result = fig5.run(TINY, seed=SEED)
    assert set(result.data) == {"randomnum", "bagofwords", "fingerprint"}
    assert set(result.data["randomnum"]) == {0.5, 0.75}
    cell = result.data["randomnum"][0.5]["group"]
    assert set(cell) == {"insert", "query", "delete"}
    assert result.text.count("Figure 5") == 6  # 3 traces x 2 lfs


def test_fig6_structure(matrix):
    result = fig6.run(TINY, seed=SEED)
    assert result.data["randomnum"][0.5]["path"]["query"] >= 0
    assert "misses/request" in result.text


def test_fig7_structure():
    result = fig7.run(TINY, seed=SEED)
    assert set(result.data) == {"pfht", "path", "group"}
    for scheme, values in result.data.items():
        for trace, util in values.items():
            assert 0 < util <= 1, (scheme, trace, util)


def test_fig8_structure():
    result = fig8.run(TINY, seed=SEED)
    assert set(result.data) == set(TINY.group_sizes)
    for gs, payload in result.data.items():
        assert 0 < payload["utilization"] <= 1
        assert payload["latency"]["insert"] > 0


def test_table3_structure():
    result = table3.run(TINY, seed=SEED)
    assert set(result.data) == set(TINY.recovery_cells)
    for cells, row in result.data.items():
        assert row["recovery_ms"] > 0
        assert row["percentage"] < 100


# ----------------------------------------------------------- formatting


def test_format_table_alignment():
    text = format_table(
        "T", ("a", "b"), [("row1", {"a": 1.0, "b": 2.5}), ("r2", {"a": 3.0, "b": 4.0})]
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "row1" in lines[2] and "1.0" in lines[2]
    # columns align: same position of 'b' values
    assert lines[2].index("2.5") == lines[3].index("4.0")


def test_format_table_missing_value_is_nan():
    text = format_table("T", ("a",), [("r", {})])
    assert "nan" in text


def test_hrule():
    assert hrule("X").startswith("\n== X ")


# ------------------------------------------------------------------ CLI


def test_cli_runs_one_experiment(capsys):
    from repro.bench.__main__ import main

    rc = main(["fig2", "--scale", "tiny", "--seed", "7"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 2(a)" in out
    assert "logging slowdown" in out
    assert "simulated ns" in out


def test_cli_rejects_unknown_experiment():
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit):
        main(["fig99"])


def test_cli_rejects_unknown_scale():
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit):
        main(["fig2", "--scale", "galactic"])


def test_cli_rejects_jobs_below_one(capsys):
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(["fig2", "--quick", "--jobs", "0"])
    assert exc.value.code == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err


def test_cli_rejects_negative_budget(capsys):
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(["crashmatrix", "--quick", "--budget", "-1"])
    assert exc.value.code == 2
    assert "--budget must be at least 0" in capsys.readouterr().err
