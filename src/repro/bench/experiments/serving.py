"""Serving experiment — networked clients over the sharded table.

The paper benchmarks the scheme as a local structure; this experiment
puts the full serving stack in front of it (ROADMAP item 3): M
simulated remote clients drive the doorbell-batching router of
:mod:`repro.serving` over a growable :class:`~repro.core.ShardedTable`
on per-shard simulated-NVM regions, with the network priced by a frozen
:class:`~repro.serving.netmodel.NetworkModel` on the same simulated
clock as the memory hierarchy.

The grid is {4, 16, 64} clients × batch size {1, 8} × location cache
{off, on} under a YCSB-D stream (read-latest with fresh inserts — the
inserts split segments mid-run, which is exactly what makes client-side
location hints go stale and exercises the miss-and-retry repair). Two
effects must fall out of the numbers at 64 clients:

- **batching** (b8 vs b1, cache off) lifts simulated ops/sec — the
  router's same-kind runs go through the coalesced batch APIs, so a
  flushed batch costs less NVM time than its ops served one by one;
- **location caching** (on vs off at b8) lifts it further — hinted
  queries bypass the shard queues entirely, taking load off the
  serialized servers.

Every cell is a frozen :class:`ServingSpec` routed through the bench
engine (dedup, cache, ``--jobs`` fan-out, byte-identical results), and
carries the shadow-check verdict, the stale-hint repair counters (with
``wrong_answers`` required to be 0) and a final-table digest, which
``scripts/ci_perf_gate.py --section serving`` turns into a hard CI
gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

from repro.bench.cache import encode
from repro.bench.config import Scale, make_trace
from repro.bench.engine import default_engine, register_spec_kind
from repro.bench.experiments import ExperimentResult, attach_warnings
from repro.bench.experiments.contention import build_client_streams
from repro.bench.report import format_ratio_note, format_table
from repro.bench.runner import fill_to_load_factor
from repro.concurrency import table_digest
from repro.core import ShardedTable
from repro.nvm import CacheConfig, NVMRegion, SimConfig, TECHNOLOGY_PRESETS
from repro.obs import FlightRecorder, MetricsRegistry, WindowSeries
from repro.serving import NETWORK_PRESETS, run_serving
from repro.tables.cell import CellCodec

#: the client-count axis (the acceptance grid: 4, 16 and 64 clients)
CLIENT_COUNTS: tuple[int, ...] = (4, 16, 64)

#: doorbell sizes: 1 = flush every op (no batching), 8 = coalesce
BATCH_SIZES: tuple[int, ...] = (1, 8)

#: timeline windows are rebucketed down to at most this many
MAX_TIMELINE_WINDOWS = 64


@dataclass(frozen=True)
class ServingSpec:
    """One serving cell: M clients through the router, frozen for the
    engine.

    ``n_ops`` is the *total* op budget split evenly across clients
    (strong scaling, like the contention grid), so throughput moves
    come from batching, caching and queueing — not from work volume.
    ``load_factor`` targets the table's *initial* capacity; YCSB-D's
    inserts push segments past it mid-run, forcing the splits that make
    location hints go stale."""

    preset: str = "ycsb-d"
    trace: str = "randomnum"
    load_factor: float = 0.95
    total_cells: int = 1 << 12
    segment_cells: int = 64
    n_shards: int = 4
    n_clients: int = 16
    n_ops: int = 800
    batch_max: int = 8
    batch_wait_ns: float = 4000.0
    #: server CPU per doorbell flush / per request (amortized vs not)
    wakeup_ns: float = 1500.0
    dispatch_ns: float = 250.0
    location_cache: bool = True
    net: str = "rdma-dc"
    seed: int = 42
    tech: str = "paper-nvm"
    cache_ratio: float = 8.0
    window_ns: float = 50_000.0

    @classmethod
    def from_scale(
        cls,
        n_clients: int,
        batch_max: int,
        location_cache: bool,
        scale: Scale,
        **kw,
    ) -> "ServingSpec":
        """Build a spec sized to ``scale`` (cells, op budget = 8× the
        scale's measured ops so even 64-way splits leave each client
        enough ops to warm its location cache and hit stale hints)."""
        return cls(
            n_clients=n_clients,
            batch_max=batch_max,
            location_cache=location_cache,
            total_cells=scale.total_cells,
            n_ops=scale.measure_ops * 8,
            cache_ratio=scale.cache_ratio,
            **kw,
        )

    @property
    def label(self) -> str:
        """Report row label, e.g. ``64c b8 +loc``."""
        suffix = " +loc" if self.location_cache else ""
        return f"{self.n_clients}c b{self.batch_max}{suffix}"


def build_serving_table(spec: ServingSpec) -> ShardedTable:
    """Growable sharded table on per-shard simulated-NVM regions.

    Each shard's cache is sized from its *initial* table bytes (the
    same ``cache_ratio`` story as the monolithic benches) while the
    region itself carries 8× headroom for split segments — sizing the
    cache from the headroom would quietly weaken the miss pressure the
    cost model turns on."""
    trace = make_trace(spec.trace, seed=spec.seed)
    item_spec = trace.spec
    codec = CellCodec(item_spec)
    per_shard = -(-spec.total_cells // spec.n_shards)
    table_bytes = codec.array_bytes(per_shard)
    cache_bytes = max(4096, int(table_bytes / spec.cache_ratio))
    config = SimConfig(
        latency=TECHNOLOGY_PRESETS[spec.tech],
        cache=CacheConfig(size_bytes=cache_bytes, line_size=64, associativity=8),
        flush_invalidates=True,
        track_wear=True,
    )
    size = int(table_bytes * 1.25) * 8 + (1 << 16)

    def factory(shard: int) -> NVMRegion:
        return NVMRegion(size, config, name=f"serve-shard{shard}")

    return ShardedTable(
        spec.total_cells,
        item_spec,
        n_shards=spec.n_shards,
        seed=spec.seed,
        backend_factory=factory,
        growable=True,
        segment_cells=spec.segment_cells,
    )


def run_serving_spec(spec: ServingSpec) -> dict:
    """Execute one serving cell; returns a JSON-ready summary dict.

    This is the engine executor for :class:`ServingSpec` (runs in pool
    workers): build the sharded table, fill it, build the per-client
    YCSB streams, run the serving driver with metrics, timeline and a
    flight recorder attached, and flatten the result — shadow verdict
    (with the recorder's dump when it failed), stale-hint counters,
    final-table digest and the rebucketed queue-depth/latency timeline —
    into plain JSON."""
    trace = make_trace(spec.trace, seed=spec.seed)
    table = build_serving_table(spec)
    stream = trace.unique_items()
    resident, fill_failures = fill_to_load_factor(
        SimpleNamespace(table=table, scheme="sharded"), stream, spec.load_factor
    )
    streams = build_client_streams(spec, resident, stream)
    metrics = MetricsRegistry()
    timeline = WindowSeries(spec.window_ns)
    recorder = FlightRecorder()
    splits_before = table.splits
    result = run_serving(
        table,
        streams,
        net=NETWORK_PRESETS[spec.net],
        batch_max=spec.batch_max,
        batch_wait_ns=spec.batch_wait_ns,
        wakeup_ns=spec.wakeup_ns,
        dispatch_ns=spec.dispatch_ns,
        location_cache=spec.location_cache,
        seed=spec.seed,
        metrics=metrics,
        timeline=timeline,
        recorder=recorder,
    )
    windows = timeline.windows()
    if len(windows) > MAX_TIMELINE_WINDOWS:
        timeline = timeline.rebucketed(
            math.ceil(len(windows) / MAX_TIMELINE_WINDOWS)
        )
    return {
        "spec": encode(spec),
        "clients": spec.n_clients,
        "ops": result.ops,
        "committed": len(result.committed),
        "failed_ops": result.failed_ops,
        "span_ns": result.span_ns,
        "throughput_kops": result.throughput_kops(),
        "total": result.overall.summary(),
        "per_client": [rec.summary() for rec in result.per_client],
        "one_sided_reads": result.one_sided_reads,
        "routed_ops": result.routed_ops,
        "hint_misses": result.hint_misses,
        "wrong_answers": result.wrong_answers,
        "flushes": result.flushes,
        "mean_batch": result.mean_batch(),
        "max_queue_depth": result.max_queue_depth,
        "splits_during_run": table.splits - splits_before,
        "shadow_failures": len(result.check_failures),
        "check_failures": list(result.check_failures),
        "failure_context": result.failure_context,
        "table_digest": table_digest(table),
        "fill_count": len(resident),
        "fill_failures": fill_failures,
        "metrics": metrics.as_dict(),
        "timeline": timeline.as_dict(),
    }


register_spec_kind(ServingSpec, run_serving_spec)


def serving_specs(scale: Scale, seed: int) -> list[ServingSpec]:
    """The clients × batch × location-cache grid for one scale."""
    return [
        ServingSpec.from_scale(n, batch, cache, scale, seed=seed)
        for n in CLIENT_COUNTS
        for batch in BATCH_SIZES
        for cache in (False, True)
    ]


def _cell(cells, specs, *, n_clients, batch_max, location_cache) -> dict | None:
    """The grid cell matching the given axes, or ``None``."""
    for spec, cell in zip(specs, cells):
        if (
            spec.n_clients == n_clients
            and spec.batch_max == batch_max
            and spec.location_cache == location_cache
        ):
            return cell
    return None


def run(scale: Scale, seed: int = 42, engine=None) -> ExperimentResult:
    """Run the serving grid and render the scaling report."""
    engine = engine or default_engine()
    specs = serving_specs(scale, seed)
    cells = engine.run(specs)

    columns = [
        "ops", "kops_s", "p50_us", "p95_us", "p99_us",
        "1sided", "stale", "wrong", "qmax", "splits",
    ]
    rows = []
    ok = True
    for spec, cell in zip(specs, cells):
        ok = ok and not cell["wrong_answers"] and not cell["check_failures"]
        rows.append((
            spec.label,
            {
                "ops": cell["committed"],
                "kops_s": cell["throughput_kops"],
                "p50_us": cell["total"]["p50"] / 1e3,
                "p95_us": cell["total"]["p95"] / 1e3,
                "p99_us": cell["total"]["p99"] / 1e3,
                "1sided": cell["one_sided_reads"],
                "stale": cell["hint_misses"],
                "wrong": cell["wrong_answers"],
                "qmax": cell["max_queue_depth"],
                "splits": cell["splits_during_run"],
            },
        ))
    text = format_table(
        "Serving: M remote clients through the batching router "
        f"(YCSB-D, net={specs[0].net})",
        columns,
        rows,
        precision=1,
    )
    top = CLIENT_COUNTS[-1]
    unbatched = _cell(cells, specs, n_clients=top, batch_max=1, location_cache=False)
    batched = _cell(
        cells, specs, n_clients=top, batch_max=BATCH_SIZES[-1], location_cache=False
    )
    cached = _cell(
        cells, specs, n_clients=top, batch_max=BATCH_SIZES[-1], location_cache=True
    )
    if unbatched and batched and unbatched["throughput_kops"] > 0:
        text += "\n" + format_ratio_note(
            f"batching at {top} clients: "
            f"{batched['throughput_kops'] / unbatched['throughput_kops']:.2f}x "
            f"ops/s over per-op flushes (b{BATCH_SIZES[-1]} vs b1, no "
            "location cache; simulated clock)"
        )
    if batched and cached and batched["throughput_kops"] > 0:
        text += "\n" + format_ratio_note(
            f"location caching at {top} clients: "
            f"{cached['throughput_kops'] / batched['throughput_kops']:.2f}x "
            f"ops/s over routed-only (both b{BATCH_SIZES[-1]}; "
            f"{cached['one_sided_reads']} one-sided reads, "
            f"{cached['hint_misses']} stale-hint repairs)"
        )
    text += "\n" + format_ratio_note(
        "stale-hint safety: "
        + (
            "0 wrong answers at every cell (shadow-checked)"
            if ok
            else "FAIL — see check_failures"
        )
    )
    data = {
        "client_counts": list(CLIENT_COUNTS),
        "batch_sizes": list(BATCH_SIZES),
        "net": specs[0].net,
        "cells": cells,
        "ok": ok,
    }
    result = ExperimentResult(
        name="serving",
        paper_ref="Beyond the paper: networked serving tier (ROADMAP item 3)",
        data=data,
        text=text,
    )
    return attach_warnings(result, engine)
