"""Figure 8 — effect of the group size.

Sweep the group size (the paper sweeps 64–1024; scaled presets sweep a
range with the same 16× span) on RandomNum at load factor 0.5,
reporting (a) request latency per operation and (b) the space
utilization ratio.

Paper shape: both latency *and* utilization increase with group size —
larger groups mean longer collision scans but more sharing flexibility;
256 is chosen as the knee (>80 % utilization at acceptable latency).
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.config import Scale
from repro.bench.experiments import ExperimentResult, attach_warnings
from repro.bench.report import format_ratio_note, format_table
from repro.bench.runner import RunSpec, UtilizationSpec

OPS = ("insert", "query", "delete")


def run(scale: Scale, seed: int = 42, engine=None) -> ExperimentResult:
    """Run the Figure 8 group-size sweep at ``scale``."""
    from repro.bench.engine import default_engine

    engine = engine or default_engine()
    # one mixed batch: a workload run and a utilization run per size
    run_specs = [
        replace(
            RunSpec.from_scale("group", "randomnum", 0.5, scale, seed=seed),
            group_size=group_size,
        )
        for group_size in scale.group_sizes
    ]
    util_specs = [
        UtilizationSpec(
            scheme="group",
            trace="randomnum",
            total_cells=scale.total_cells,
            group_size=group_size,
            seed=seed,
        )
        for group_size in scale.group_sizes
    ]
    outcomes = engine.run([*run_specs, *util_specs])
    n = len(scale.group_sizes)
    results, utils = outcomes[:n], outcomes[n:]

    latency_rows = []
    util_rows = []
    data: dict[int, dict] = {}
    for group_size, result, util in zip(scale.group_sizes, results, utils):
        latencies = {op: result.phase(op).avg_latency_ns for op in OPS}
        latency_rows.append((str(group_size), latencies))
        util_rows.append((str(group_size), {"utilization": util}))
        data[group_size] = {"latency": latencies, "utilization": util}
    text = "\n".join(
        [
            format_table(
                "Figure 8(a): group size vs request latency "
                "(RandomNum, load factor 0.5)",
                OPS,
                latency_rows,
                unit="simulated ns/request",
            ),
            "",
            format_table(
                "Figure 8(b): group size vs space utilization",
                ("utilization",),
                util_rows,
                precision=3,
            ),
            format_ratio_note(
                "paper shape: latency and utilization both grow with group "
                "size; >0.8 utilization at the default size"
            ),
        ]
    )
    result = ExperimentResult(name="fig8", paper_ref="Figure 8", data=data, text=text)
    return attach_warnings(result, engine)
