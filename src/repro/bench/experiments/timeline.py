"""Timeline experiment — behavior over simulated time, judged by SLOs.

Aggregate benches answer "how much in total"; this experiment answers
*when*: per-window throughput, persist-event rates, latency quantiles,
abort counts, occupancy and wear heat over the simulated clock, for the
two transient behaviors the repo cares most about:

- **growth** — a :class:`~repro.core.DirectoryTable` pushed past its
  initial capacity, so segment splits fire inside the measured window
  and the during-split p99 spike is visible as a timeline, not just a
  percentile table;
- **contention** — the YCSB-A client grid (1/4/16 clients) under the
  deterministic interleaver, so the abort ramp with client count is
  visible window by window.

Every cell is a frozen :class:`TimelineSpec` routed through the bench
engine (dedupe, cache, ``--jobs`` fan-out, byte-identical results). A
cell records a fine-grained :class:`~repro.obs.WindowSeries` and
rebuckets it deterministically to at most ``max_windows`` windows, so
reports and committed baselines stay compact while spikes survive
(counters/histograms/heats rebucket by exact addition).

The report renders ASCII sparklines (:func:`~repro.bench.report.
format_sparkline`), evaluates the declarative :data:`SLO_RULES` into a
pass/warn/fail health report (gated by ``scripts/ci_perf_gate.py``),
and assembles one Chrome trace combining the growth cell's span
flamegraph with every cell's per-window counter events — the CLI writes
it next to the JSON dump like the ``profile`` experiment does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.cache import encode
from repro.bench.config import Scale, build_table, make_trace
from repro.bench.engine import default_engine, register_spec_kind
from repro.bench.experiments import ExperimentResult, attach_warnings
from repro.bench.experiments.contention import (
    CLIENT_COUNTS,
    ConcurrentSpec,
    build_client_streams,
)
from repro.bench.report import format_ratio_note, format_sparkline
from repro.bench.runner import (
    GrowthSpec,
    _growth_fill,
    _growth_region,
    _metered_ops,
    fill_to_load_factor,
)
from repro.bench.workload import GROWTH_MIX, generate_ops
from repro.concurrency import ShadowOracle, run_concurrent
from repro.core import DirectoryTable
from repro.nvm.wear import export_wear_metrics
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    SloRule,
    Tracer,
    WindowSampler,
    WindowSeries,
    evaluate,
)

#: declarative health thresholds over the derived timeline scalars.
#: Values measured at the tiny and small scales sit well inside the
#: warn levels; the fail levels are the point where the transient
#: behavior stops matching the paper's story (splits amortized, aborts
#: bounded, wear spread) rather than a tight regression bound — the
#: per-metric regression tolerances live in ``scripts/ci_perf_gate.py``.
SLO_RULES: tuple[SloRule, ...] = (
    SloRule(
        "growth.split_spike_ratio",
        warn=2000.0,
        fail=20000.0,
        description="during-split window p99 over steady window p99 — "
        "bounded spike, not a stop-the-world cliff",
    ),
    SloRule(
        "growth.steady_p99_ns",
        warn=50_000.0,
        fail=500_000.0,
        description="steady-state per-window p99 latency between splits",
    ),
    SloRule(
        "contention.p99_ns",
        warn=100_000.0,
        fail=1_000_000.0,
        description="16-client overall p99 latency",
    ),
    SloRule(
        "contention.abort_rate",
        warn=3.0,
        fail=10.0,
        description="16-client read aborts per committed op — ~1 is the "
        "expected optimistic-read cost on Zipfian hot keys; 10 means "
        "the retry loop is livelocking",
    ),
    SloRule(
        "contention.client_op_skew",
        warn=1.5,
        fail=3.0,
        description="max/mean committed ops across clients — the "
        "interleaver must not starve a client",
    ),
    SloRule(
        "wear.gini",
        warn=0.9,
        fail=0.99,
        description="Gini of medium writes over touched lines in the "
        "growth cell",
    ),
    SloRule(
        "wear.imbalance",
        warn=500.0,
        fail=5000.0,
        description="max/mean line writes in the growth cell (undo-log "
        "style hot lines push this up)",
    ),
)


@dataclass(frozen=True)
class TimelineSpec:
    """One timeline cell, frozen so the engine can dedupe and cache it.

    ``kind`` selects the scenario: ``"growth"`` uses the directory-table
    geometry fields (``initial_cells`` / ``segment_cells`` /
    ``fill_factor``), ``"contention"`` the client-grid fields
    (``n_clients`` / ``load_factor`` / ``total_cells`` /
    ``group_size``). ``window_ns`` is the *fine* sampling window; the
    exported series is rebucketed to at most ``max_windows`` windows.
    """

    kind: str = "growth"
    n_clients: int = 1
    trace: str = "randomnum"
    #: growth geometry (mirrors :class:`~repro.bench.runner.GrowthSpec`)
    initial_cells: int = 256
    segment_cells: int = 32
    fill_factor: float = 0.6
    #: contention geometry (mirrors :class:`ConcurrentSpec`)
    load_factor: float = 0.5
    total_cells: int = 1 << 12
    group_size: int = 64
    n_ops: int = 200
    #: fine sampling window on the simulated clock
    window_ns: float = 5_000.0
    #: exported series width cap (rebucketed exactly, spikes preserved)
    max_windows: int = 32
    seed: int = 42
    tech: str = "paper-nvm"
    cache_ratio: float = 8.0

    @property
    def label(self) -> str:
        """Report section label, e.g. ``growth seg=32``, ``16 clients``."""
        if self.kind == "growth":
            return f"growth seg={self.segment_cells}"
        return f"{self.n_clients} client{'s' if self.n_clients != 1 else ''}"


def _rebucket(spec: TimelineSpec, series: WindowSeries) -> tuple[WindowSeries, int]:
    """Coarsen ``series`` so its window span fits ``spec.max_windows``
    (factor 1 when it already does). Exact: counters/histograms/heats
    fold by addition, gauges by ``max``."""
    fine = series.windows()
    span = (fine[-1] - fine[0] + 1) if fine else 1
    factor = max(1, -(-span // spec.max_windows))
    return series.rebucketed(factor), factor


def _wear_summary(report) -> dict | None:
    """Flatten a :class:`~repro.nvm.wear.WearReport` for the payload."""
    if report is None:
        return None
    return {
        "total_line_writes": report.total_line_writes,
        "lines_touched": report.lines_touched,
        "max_line_writes": report.max_line_writes,
        "gini": report.gini,
        "imbalance": report.imbalance,
        "hot1pct_share": report.hot1pct_share,
    }


def _run_growth_timeline(spec: TimelineSpec) -> dict:
    """The growth cell: fill a directory table, then meter an
    insert-heavy stream per window while splits fire, with the sampler
    on the region's event stream and wear map and the tracer recording
    the span flamegraph."""
    trace = make_trace(spec.trace, seed=spec.seed)
    gspec = GrowthSpec(
        trace=spec.trace,
        initial_cells=spec.initial_cells,
        segment_cells=spec.segment_cells,
        fill_factor=spec.fill_factor,
        n_ops=spec.n_ops,
        seed=spec.seed,
        tech=spec.tech,
        cache_ratio=spec.cache_ratio,
    )
    region = _growth_region(trace.spec, gspec, track_wear=True)
    table = DirectoryTable(
        region,
        spec.initial_cells,
        trace.spec,
        segment_cells=spec.segment_cells,
        seed=spec.seed,
    )
    stream = trace.unique_items()
    target = int(spec.fill_factor * spec.initial_cells)
    resident = _growth_fill(table, stream, target)

    # instrument *after* the fill so the windows cover the measured
    # stream only; everything attached here purely observes
    series = WindowSeries(spec.window_ns)
    sampler = WindowSampler(series)
    metrics = MetricsRegistry()
    tracer = Tracer(region, max_events=20_000)
    table.instrument(tracer, metrics)
    sampler.attach(region)
    stats = region.stats
    table.on_growth = lambda what: series.inc(
        "splits" if what == "split" else "doublings", stats.sim_time_ns
    )

    ops = generate_ops(GROWTH_MIX, spec.n_ops, target, seed=spec.seed)
    oracle = ShadowOracle(resident)
    splits_before = table.splits
    for _, _, now, op_ns in _metered_ops(
        table,
        stats,
        ops,
        list(resident),
        stream,
        oracle,
        label="timeline growth",
        tracer=tracer,
    ):
        if oracle.failed_ops:
            raise RuntimeError("timeline growth insert failed")
        series.observe("latency", now, op_ns)
        series.inc("ops", now)
        series.set_gauge("occupancy", now, table.load_factor)
    splits = table.splits - splits_before

    table.on_growth = None
    sampler.detach()
    tracer.detach()
    wear_report = export_wear_metrics(region, metrics)
    table.instrument(None, None)

    coarse, factor = _rebucket(spec, series)
    windows = coarse.windows()
    p99 = coarse.quantile_values("latency", 0.99, windows)
    op_counts = coarse.counter_values("ops", windows)
    split_counts = coarse.counter_values("splits", windows)
    split_p99 = [p for p, s in zip(p99, split_counts) if s]
    steady_p99 = sorted(
        p for p, s, o in zip(p99, split_counts, op_counts) if not s and o
    )
    steady = steady_p99[len(steady_p99) // 2] if steady_p99 else 0.0
    spike = max(split_p99, default=0.0)
    return {
        "spec": encode(spec),
        "kind": "growth",
        "clients": 1,
        "series": coarse.as_dict(),
        "rebucket_factor": factor,
        "ops": len(ops),
        "splits": splits,
        "doublings": table.doublings,
        "final_capacity": table.capacity,
        "split_windows": sum(1 for s in split_counts if s),
        "split_window_p99_ns": spike,
        "steady_window_p99_ns": steady,
        "split_spike_ratio": spike / steady if steady else 0.0,
        "wear": _wear_summary(wear_report),
        "metrics": metrics.as_dict(),
        "trace_events": tracer.chrome_events(),
        "counter_events": coarse.chrome_counter_events(),
    }


def _run_contention_timeline(spec: TimelineSpec) -> dict:
    """A contention cell: the interleaver runs with the series and a
    flight recorder attached (persist events, per-window latency and
    abort channels, per-client op counts come from the scheduler; wear
    heat rides the region's wear observer)."""
    cspec = ConcurrentSpec(
        scheme="group",
        preset="ycsb-a",
        trace=spec.trace,
        load_factor=spec.load_factor,
        total_cells=spec.total_cells,
        group_size=spec.group_size,
        n_clients=spec.n_clients,
        n_ops=spec.n_ops,
        seed=spec.seed,
        tech=spec.tech,
        cache_ratio=spec.cache_ratio,
        backend="sim",
    )
    trace = make_trace(spec.trace, seed=spec.seed)
    built = build_table(
        cspec.scheme,
        cspec.total_cells,
        trace.spec,
        group_size=cspec.group_size,
        seed=cspec.seed,
        cache_ratio=cspec.cache_ratio,
        tech=cspec.tech,
        backend=cspec.backend,
    )
    table = built.table
    stream = trace.unique_items()
    resident, _unused = fill_to_load_factor(built, stream, cspec.load_factor)
    streams = build_client_streams(cspec, resident, stream)

    series = WindowSeries(spec.window_ns)
    recorder = FlightRecorder()
    metrics = MetricsRegistry()
    # the scheduler observes the event stream (per-client attribution
    # feeds the series through its timeline parameter); wear heat rides
    # the wear map's own observers so lines are not double counted
    wear = getattr(built.region, "wear", None)
    stats = built.region.stats

    def observe_wear(line: int) -> None:
        series.touch("wear_heat", stats.sim_time_ns, line)

    if wear is not None:
        wear.observe(observe_wear)
    try:
        result = run_concurrent(
            table,
            streams,
            seed=spec.seed,
            metrics=metrics,
            timeline=series,
            recorder=recorder,
        )
    finally:
        if wear is not None:
            wear.unobserve(observe_wear)
    wear_report = export_wear_metrics(built.region, metrics)

    coarse, factor = _rebucket(spec, series)
    client_ops = [rec.summary()["count"] for rec in result.per_client]
    mean_ops = sum(client_ops) / max(1, len(client_ops))
    return {
        "spec": encode(spec),
        "kind": "contention",
        "clients": spec.n_clients,
        "series": coarse.as_dict(),
        "rebucket_factor": factor,
        "ops": result.ops,
        "committed": len(result.committed),
        "throughput_kops": result.throughput_kops(),
        "total": result.overall.summary(),
        "read_aborts": result.read_aborts,
        "read_retries": result.read_retries,
        "lock_waits": result.lock_waits,
        "abort_rate": result.read_aborts / max(1, len(result.committed)),
        "client_op_skew": (
            max(client_ops) / mean_ops if mean_ops else 0.0
        ),
        "lost_updates": result.lost_updates,
        "check_failures": list(result.check_failures),
        "failure_context": result.failure_context,
        "wear": _wear_summary(wear_report),
        "metrics": metrics.as_dict(),
        "trace_events": [],
        "counter_events": coarse.chrome_counter_events(),
    }


def run_timeline_spec(spec: TimelineSpec) -> dict:
    """Execute one timeline cell (the engine executor for
    :class:`TimelineSpec`; runs in pool workers, returns plain JSON)."""
    if spec.kind == "growth":
        return _run_growth_timeline(spec)
    if spec.kind == "contention":
        return _run_contention_timeline(spec)
    raise ValueError(f"unknown timeline kind {spec.kind!r}")


register_spec_kind(TimelineSpec, run_timeline_spec)


def timeline_specs(scale: Scale, seed: int) -> list[TimelineSpec]:
    """The cell grid for one scale: one growth cell (geometry mirrors
    :meth:`GrowthSpec.from_scale`) plus the contention client grid."""
    initial = max(256, 1 << (scale.measure_ops - 1).bit_length())
    cells = [
        TimelineSpec(
            kind="growth",
            initial_cells=initial,
            segment_cells=max(16, initial // 8),
            n_ops=scale.measure_ops,
            cache_ratio=scale.cache_ratio,
            seed=seed,
        )
    ]
    cells.extend(
        TimelineSpec(
            kind="contention",
            n_clients=n,
            total_cells=scale.total_cells,
            group_size=scale.group_size,
            n_ops=scale.measure_ops,
            cache_ratio=scale.cache_ratio,
            seed=seed,
        )
        for n in CLIENT_COUNTS
    )
    return cells


def _sparkline_block(cell: dict) -> list[str]:
    """Sparkline lines for one cell's coarse series."""
    series = WindowSeries.from_dict(cell["series"])
    windows = series.windows()
    lines = [
        format_sparkline("ops", series.counter_values("ops", windows)),
        format_sparkline(
            "p99 latency",
            series.quantile_values("latency", 0.99, windows),
            unit="ns",
        ),
        format_sparkline("writes", series.counter_values("writes", windows)),
        format_sparkline("flushes", series.counter_values("flushes", windows)),
    ]
    if cell["kind"] == "growth":
        lines.append(
            format_sparkline("splits", series.counter_values("splits", windows))
        )
        lines.append(
            format_sparkline(
                "occupancy",
                [v * 100 for v in series.gauge_values("occupancy", windows)],
                unit="%",
            )
        )
    else:
        lines.append(
            format_sparkline(
                "read aborts", series.counter_values("read_aborts", windows)
            )
        )
    if "wear_heat" in series.channels():
        lines.append(
            format_sparkline(
                "wear heat", series.heat_totals("wear_heat", windows)
            )
        )
    return lines


def health_values(cells: list[dict]) -> dict:
    """The ``{metric: scalar}`` dict :data:`SLO_RULES` judges, derived
    from the cell payloads (growth spike/steady/wear; the largest client
    cell's p99, abort rate and per-client skew)."""
    values: dict[str, float] = {}
    contention = [c for c in cells if c["kind"] == "contention"]
    top = max(contention, key=lambda c: c["clients"], default=None)
    for cell in cells:
        if cell["kind"] == "growth":
            values["growth.split_spike_ratio"] = cell["split_spike_ratio"]
            values["growth.steady_p99_ns"] = cell["steady_window_p99_ns"]
            if cell["wear"]:
                values["wear.gini"] = cell["wear"]["gini"]
                values["wear.imbalance"] = cell["wear"]["imbalance"]
    if top is not None:
        values["contention.p99_ns"] = top["total"]["p99"]
        values["contention.abort_rate"] = top["abort_rate"]
        values["contention.client_op_skew"] = top["client_op_skew"]
    return values


def _chrome_trace(specs: list[TimelineSpec], cells: list[dict]) -> dict:
    """One merged Chrome trace: each cell is a process (growth spans +
    every cell's per-window counter events, all on the simulated
    clock)."""
    events: list[dict] = []
    for i, (spec, cell) in enumerate(zip(specs, cells)):
        pid = i + 1
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": f"timeline: {spec.label}"},
            }
        )
        events.extend(dict(ev, pid=pid) for ev in cell["trace_events"])
        events.extend(dict(ev, pid=pid) for ev in cell["counter_events"])
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {"clock": "simulated"},
    }


def run(scale: Scale, seed: int = 42, engine=None) -> ExperimentResult:
    """Run the timeline grid, render sparklines, and evaluate health."""
    engine = engine or default_engine()
    specs = timeline_specs(scale, seed)
    cells = engine.run(specs)

    sections: list[str] = []
    for spec, cell in zip(specs, cells):
        n_windows = len(WindowSeries.from_dict(cell["series"]).windows())
        width_us = cell["series"]["window_ns"] / 1e3
        sections.append(
            f"Timeline {spec.label}: {n_windows} windows x "
            f"{width_us:.0f} us (simulated)"
        )
        sections.extend(_sparkline_block(cell))
        if cell["kind"] == "growth":
            sections.append(
                format_ratio_note(
                    f"{cell['splits']} splits in {cell['split_windows']} "
                    f"window(s): during-split window p99 "
                    f"{cell['split_window_p99_ns']:.0f} ns vs steady "
                    f"{cell['steady_window_p99_ns']:.0f} ns "
                    f"({cell['split_spike_ratio']:.1f}x spike)"
                )
            )
        else:
            sections.append(
                format_ratio_note(
                    f"{cell['read_aborts']} read aborts over "
                    f"{cell['committed']} committed ops "
                    f"(rate {cell['abort_rate']:.3f}), p99 "
                    f"{cell['total']['p99']:.0f} ns"
                )
            )
        sections.append("")

    report = evaluate(SLO_RULES, health_values(cells))
    sections.append(f"Health: {report.status.upper()}")
    for check in report.checks:
        if check.status != "pass":
            shown = "missing" if check.value is None else f"{check.value:.3f}"
            sections.append(
                format_ratio_note(
                    f"{check.status.upper()} {check.metric} = {shown} "
                    f"(warn {check.warn:g} / fail {check.fail:g}) — "
                    f"{check.description}"
                )
            )

    abort_ramp = {
        str(c["clients"]): c["read_aborts"]
        for c in cells
        if c["kind"] == "contention"
    }
    chrome = _chrome_trace(specs, cells)
    # the per-viewer event lists live in the trace artifact only; the
    # structured cells stay lean for committed baselines
    lean_cells = [
        {
            k: v
            for k, v in cell.items()
            if k not in ("trace_events", "counter_events")
        }
        for cell in cells
    ]
    data = {
        "cells": lean_cells,
        "abort_ramp": abort_ramp,
        "health": report.as_dict(),
        "ok": report.status != "fail",
        "chrome_trace": chrome,
    }
    result = ExperimentResult(
        name="timeline",
        paper_ref="Behavior over simulated time (windowed telemetry)",
        data=data,
        text="\n".join(sections).rstrip(),
    )
    return attach_warnings(result, engine)
