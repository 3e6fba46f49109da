"""Workload runner: the paper's measurement protocol (Section 4.2).

"In all the experiments, we first insert items into the hash table until
the load factor reaches the predefined value. After that, we insert 1000
items into the hash table, then query and delete 1000 items from the
hash table. At last, we calculate the average latency of requesting an
item."

:func:`run_workload` reproduces exactly that: fill → measured inserts →
measured queries (of the items just inserted) → measured deletes (same
items), each phase metered by snapshotting the region's
:class:`~repro.nvm.stats.MemStats`.

:func:`measure_space_utilization` (Figure 7) inserts until the first
failure; :func:`measure_recovery` (Table 3) fills, crashes, and times
Algorithm 4 on the simulator clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.bench.config import BuiltTable, Scale, build_table, make_trace
from repro.bench.workload import (
    GROWTH_MIX,
    OP_KINDS,
    PRESETS,
    OpMix,
    generate_ops,
)
from repro.concurrency.oracle import ShadowOracle
from repro.core import DirectoryTable, GroupHashTable
from repro.nvm import (
    TECHNOLOGY_PRESETS,
    CacheConfig,
    MemStats,
    NVMRegion,
    RawBackend,
    SimConfig,
)
from repro.nvm.wear import export_wear_metrics
from repro.obs import LatencyRecorder, MetricsRegistry, Tracer
from repro.tables.cell import CellCodec


@dataclass(frozen=True)
class RunSpec:
    """One (scheme, trace, load factor) measurement cell of Figures 5/6."""

    scheme: str
    trace: str = "randomnum"
    load_factor: float = 0.5
    total_cells: int = 1 << 14
    group_size: int = 128
    measure_ops: int = 500
    seed: int = 42
    tech: str = "paper-nvm"
    cache_ratio: float = 8.0
    flush_invalidates: bool = True
    #: memory substrate: "sim" (costed simulator; the only valid choice
    #: for figure benches) or "raw" (wall-clock fast path)
    backend: str = "sim"
    #: populate a metrics registry (probe histograms, WAL counters,
    #: group heat) during the measured phases; the result then carries a
    #: ``metrics`` block
    with_metrics: bool = False
    #: record a span tree of the measured phases (per-op spans plus the
    #: tables' stage spans); the result then carries ``spans`` and
    #: Chrome ``trace_events`` blocks
    with_trace: bool = False

    @classmethod
    def from_scale(
        cls, scheme: str, trace: str, load_factor: float, scale: Scale, **kw
    ) -> "RunSpec":
        return cls(
            scheme=scheme,
            trace=trace,
            load_factor=load_factor,
            total_cells=scale.total_cells,
            group_size=scale.group_size,
            measure_ops=scale.measure_ops,
            cache_ratio=scale.cache_ratio,
            **kw,
        )


@dataclass(frozen=True)
class UtilizationSpec:
    """One Figure 7 / Figure 8(b) cell: insert-to-first-failure.

    Executing it yields the load factor at the first rejected insert
    (see :func:`measure_space_utilization`)."""

    scheme: str
    trace: str = "randomnum"
    total_cells: int = 1 << 14
    group_size: int = 256
    seed: int = 42


@dataclass(frozen=True)
class RecoverySpec:
    """One Table 3 row: fill, crash, time the Algorithm 4 scan.

    Executing it yields :func:`measure_recovery`'s column dict."""

    total_cells: int
    group_size: int = 256
    load_factor: float = 0.5
    trace: str = "randomnum"
    seed: int = 42


@dataclass(frozen=True)
class NegativeQuerySpec:
    """One absent-key-query cell (the ``negative`` experiment).

    Executing it yields ``{"latency_ns": ..., "misses": ...}`` per
    negative lookup (see :func:`measure_negative_queries`)."""

    scheme: str
    trace: str = "randomnum"
    load_factor: float = 0.5
    total_cells: int = 1 << 14
    group_size: int = 256
    measure_ops: int = 500
    cache_ratio: float = 8.0
    seed: int = 42


@dataclass(frozen=True)
class MixedSpec:
    """One mixed-workload (YCSB-style) measurement cell.

    Executing it (:func:`run_mixed_workload`) fills the table to
    ``load_factor``, then runs ``n_ops`` *interleaved* operations drawn
    from the op mix — a named :data:`~repro.bench.workload.PRESETS`
    entry, or an explicit :class:`~repro.bench.workload.OpMix` via
    ``mix`` — recording each op's simulated-latency delta. Frozen and
    JSON-round-trippable so the engine can dedupe, cache and fan it out
    exactly like :class:`RunSpec`.
    """

    scheme: str
    preset: str = "ycsb-a"
    #: explicit mix; ``None`` resolves ``preset`` from the registry
    mix: OpMix | None = None
    trace: str = "randomnum"
    load_factor: float = 0.5
    total_cells: int = 1 << 14
    group_size: int = 128
    n_ops: int = 500
    seed: int = 42
    tech: str = "paper-nvm"
    cache_ratio: float = 8.0
    flush_invalidates: bool = True
    backend: str = "sim"
    #: record a span tree of the mixed phase (the result then carries
    #: ``spans`` and Chrome ``trace_events`` blocks)
    with_trace: bool = False

    @classmethod
    def from_scale(
        cls, scheme: str, preset: str, load_factor: float, scale: Scale, **kw
    ) -> "MixedSpec":
        return cls(
            scheme=scheme,
            preset=preset,
            load_factor=load_factor,
            total_cells=scale.total_cells,
            group_size=scale.group_size,
            n_ops=scale.measure_ops,
            cache_ratio=scale.cache_ratio,
            **kw,
        )

    def resolved_mix(self) -> OpMix:
        """The effective op mix (explicit ``mix`` wins over ``preset``)."""
        if self.mix is not None:
            return self.mix
        try:
            return PRESETS[self.preset]
        except KeyError:
            raise ValueError(
                f"unknown preset {self.preset!r}; choose from "
                f"{sorted(PRESETS)} or pass an explicit mix"
            ) from None


@dataclass
class OpMetrics:
    """Per-phase counters reduced to the paper's reported quantities.

    ``ops`` is the denominator used for the per-request averages — the
    operations that actually *executed and succeeded* (clamped to ≥ 1 so
    averages stay defined). ``attempted`` records how many operations
    the protocol tried; near capacity, measured inserts can fail, and a
    silent ``attempted > ops`` shortfall would make the averaged
    latencies look better than the workload experienced. Reports warn
    when the two differ (:attr:`shortfall`).
    """

    ops: int = 0
    sim_ns: float = 0.0
    cache_misses: int = 0
    flushes: int = 0
    fences: int = 0
    nvm_bytes_written: int = 0
    #: operations attempted by the protocol (0 = not recorded)
    attempted: int = 0

    @classmethod
    def from_delta(
        cls, ops: int, delta: MemStats, *, attempted: int = 0
    ) -> "OpMetrics":
        return cls(
            ops=ops,
            sim_ns=delta.sim_time_ns,
            cache_misses=delta.cache_misses,
            flushes=delta.flushes,
            fences=delta.fences,
            nvm_bytes_written=delta.nvm_bytes_written,
            attempted=attempted,
        )

    @property
    def shortfall(self) -> int:
        """Attempted-but-unexecuted operations (0 when fully measured
        or when ``attempted`` was not recorded)."""
        return max(0, self.attempted - self.ops)

    @property
    def avg_latency_ns(self) -> float:
        """Average request latency — the y-axis of Figures 2a, 5, 8a."""
        return self.sim_ns / self.ops if self.ops else 0.0

    @property
    def avg_misses(self) -> float:
        """Average L3 misses per request — the y-axis of Figures 2b, 6."""
        return self.cache_misses / self.ops if self.ops else 0.0

    @property
    def avg_flushes(self) -> float:
        """Average clflush per request (diagnostic)."""
        return self.flushes / self.ops if self.ops else 0.0


@dataclass
class RunResult:
    """All measured phases of one workload run."""

    spec: RunSpec
    insert: OpMetrics
    query: OpMetrics
    delete: OpMetrics
    fill_count: int = 0
    capacity: int = 0
    fill_failures: int = 0
    extras: dict[str, float] = field(default_factory=dict)
    #: exported :class:`~repro.obs.MetricsRegistry` block (``None``
    #: unless the spec set ``with_metrics``)
    metrics: dict | None = None
    #: aggregated span attribution (``Tracer.as_dict()``; ``None``
    #: unless the spec set ``with_trace``)
    spans: dict | None = None
    #: Chrome ``trace_event`` records for this cell (``None`` unless the
    #: spec set ``with_trace``)
    trace_events: list | None = None

    def phase(self, name: str) -> OpMetrics:
        """Metrics for one measured phase ("insert"/"query"/"delete")."""
        return {"insert": self.insert, "query": self.query, "delete": self.delete}[name]

    def shortfalls(self) -> dict[str, int]:
        """Phases whose measured-op count fell short of the attempts."""
        out = {}
        for name in ("insert", "query", "delete"):
            if self.phase(name).shortfall:
                out[name] = self.phase(name).shortfall
        return out


def fill_to_load_factor(
    built: BuiltTable,
    stream: "Iterator[tuple[bytes, bytes]]",
    load_factor: float,
) -> tuple[list[tuple[bytes, bytes]], int]:
    """Insert items from ``stream`` until ``count/capacity`` reaches the
    target.

    Returns the items actually resident and the number of failed insert
    attempts (schemes can reject items well below capacity — that is the
    Figure 7 story — so the fill keeps drawing fresh items)."""
    table = built.table
    target = int(load_factor * table.capacity)
    resident: list[tuple[bytes, bytes]] = []
    failures = 0
    max_failures = 64 * max(target, 1)
    while table.count < target:
        key, value = next(stream)
        if table.insert(key, value):
            resident.append((key, value))
        else:
            failures += 1
            if failures > max_failures:
                raise RuntimeError(
                    f"cannot fill {built.scheme} to load factor {load_factor}: "
                    f"stuck at {table.load_factor:.3f} after {failures} failures"
                )
    return resident, failures


def run_workload(spec: RunSpec) -> RunResult:
    """Execute the paper's measurement protocol for one spec."""
    trace = make_trace(spec.trace, seed=spec.seed)
    built = build_table(
        spec.scheme,
        spec.total_cells,
        trace.spec,
        group_size=spec.group_size,
        seed=spec.seed,
        cache_ratio=spec.cache_ratio,
        tech=spec.tech,
        flush_invalidates=spec.flush_invalidates,
        backend=spec.backend,
    )
    table, region = built.table, built.region

    stream = trace.unique_items()
    resident, failures = fill_to_load_factor(built, stream, spec.load_factor)

    # Observability opt-in. Instrumented *after* the fill so only the
    # measured phases are attributed; both sinks purely observe (stats
    # snapshots + backend observers), so the simulated event stream and
    # clock are identical with or without them.
    tracer: Tracer | None = None
    metrics: MetricsRegistry | None = None
    if spec.with_metrics:
        metrics = MetricsRegistry()
    if spec.with_trace:
        tracer = Tracer(region, max_events=20_000)
    if tracer is not None or metrics is not None:
        table.instrument(tracer, metrics)

    # fresh keys for the measured inserts: continue the same unique stream
    fresh = [next(stream) for _ in range(spec.measure_ops)]

    before = region.stats.snapshot()
    inserted = []
    for key, value in fresh:
        if tracer is not None:
            tracer.push("insert")
        ok = table.insert(key, value)
        if tracer is not None:
            tracer.pop()
        if ok:
            inserted.append((key, value))
    insert_metrics = OpMetrics.from_delta(
        max(1, len(inserted)), region.stats.delta(before), attempted=len(fresh)
    )

    # "query and delete 1000 items from the hash table": sample resident
    # items uniformly — a fixed-choice sample (e.g. only the items just
    # inserted) would bias toward the deepest cells of every scheme's
    # collision structure
    rng = random.Random(spec.seed ^ 0xC0FFEE)
    pool = resident + inserted
    targets = rng.sample(pool, min(spec.measure_ops, len(pool)))

    before = region.stats.snapshot()
    for key, value in targets:
        if tracer is not None:
            tracer.push("query")
        found = table.query(key)
        if tracer is not None:
            tracer.pop()
        assert found == value, f"{spec.scheme}: query returned wrong value"
    query_metrics = OpMetrics.from_delta(
        max(1, len(targets)), region.stats.delta(before),
        attempted=spec.measure_ops,
    )

    before = region.stats.snapshot()
    for key, _ in targets:
        if tracer is not None:
            tracer.push("delete")
        deleted = table.delete(key)
        if tracer is not None:
            tracer.pop()
        assert deleted, f"{spec.scheme}: delete lost an item"
    delete_metrics = OpMetrics.from_delta(
        max(1, len(targets)), region.stats.delta(before),
        attempted=spec.measure_ops,
    )

    result = RunResult(
        spec=spec,
        insert=insert_metrics,
        query=query_metrics,
        delete=delete_metrics,
        fill_count=len(resident),
        capacity=table.capacity,
        fill_failures=failures,
    )
    if metrics is not None:
        observe = getattr(table, "observe_occupancy", None)
        if observe is not None:
            observe(metrics)
        export_wear_metrics(region, metrics)
        result.metrics = metrics.as_dict()
    if tracer is not None:
        tracer.detach()
        summary = tracer.span_summary()
        # Reconciliation: the per-op spans telescope over each measured
        # phase (no simulated activity happens between ops), so their
        # inclusive sums must equal the phases' MemStats deltas.
        span_ns = sum(v["sim_ns"] for p, v in summary.items() if "/" not in p)
        phase_ns = (
            insert_metrics.sim_ns + query_metrics.sim_ns + delete_metrics.sim_ns
        )
        result.extras["span_sim_ns"] = span_ns
        result.extras["phase_sim_ns"] = phase_ns
        result.spans = tracer.as_dict()
        result.trace_events = tracer.chrome_events()
    if tracer is not None or metrics is not None:
        table.instrument(None, None)
    return result


@dataclass
class MixedResult:
    """One executed :class:`MixedSpec`: phase metrics plus latency
    distributions.

    ``total`` and ``per_kind`` are
    :meth:`~repro.obs.LatencyRecorder.summary` blocks
    (count/sum/mean/p50/p95/p99/max, exact while the op count fits the
    reservoir); ``histogram`` is the overall log2-bucket export.
    ``extras['op_sim_ns']`` (the Σ of per-op deltas) reconciles with
    ``extras['phase_sim_ns']`` (the phase ``MemStats`` delta) at 0 ns
    drift — the per-op snapshots telescope over the phase."""

    spec: MixedSpec
    phase: OpMetrics
    total: dict
    per_kind: dict[str, dict]
    histogram: dict
    fill_count: int = 0
    capacity: int = 0
    fill_failures: int = 0
    #: ops the table rejected (insert at capacity) or that targeted a
    #: key a rejected insert never made live
    failed_ops: int = 0
    extras: dict = field(default_factory=dict)
    #: aggregated span attribution (``None`` unless ``with_trace``)
    spans: dict | None = None
    #: Chrome ``trace_event`` records (``None`` unless ``with_trace``)
    trace_events: list | None = None


def _metered_ops(
    table, stats, ops, items, stream, oracle, *, label, tracer=None, new_value=None
):
    """Execute generated ``ops`` against ``table`` in program order and
    yield ``(index, op, now_ns, op_ns)`` after each: the ``stats``
    simulated clock and the op's own ``sim_time_ns`` delta.

    ``items`` is the key universe by op id (fill items first, then fresh
    stream items in the order inserts mint their ids; grown from
    ``stream`` on demand) and ``new_value()`` draws update values. Every
    op is checked against ``oracle`` in program order — a disagreement
    raises ``AssertionError`` at once. ``tracer`` wraps each op in a
    span named after its kind."""
    last_ns = stats.sim_time_ns
    for index, op in enumerate(ops):
        while op.key_id >= len(items):
            items.append(next(stream))
        key, value = items[op.key_id]
        if tracer is not None:
            tracer.push(op.kind)
        if op.kind == "insert":
            oracle.apply("insert", key, value, table.insert(key, value))
        elif op.kind == "query":
            oracle.check_read(0, "query", key, table.query(key))
        elif op.kind == "update":
            value = new_value()
            oracle.apply("update", key, value, table.update(key, value))
        else:
            oracle.apply("delete", key, None, table.delete(key))
        if oracle.failures:
            raise AssertionError(f"{label}: {oracle.failures[0]}")
        if tracer is not None:
            tracer.pop()
        now = stats.sim_time_ns
        yield index, op, now, now - last_ns
        last_ns = now


def run_mixed_workload(spec: MixedSpec) -> MixedResult:
    """Execute one mixed-workload cell.

    Fill to the load factor, generate the interleaved op stream
    (:func:`~repro.bench.workload.generate_ops`), then execute it while
    metering **every op individually**: the per-op cost is the
    ``MemStats.sim_time_ns`` delta across the op, fed to an overall and
    a per-kind :class:`~repro.obs.LatencyRecorder`. The
    driver self-verifies against a
    :class:`~repro.concurrency.oracle.ShadowOracle` — queries must
    return the value the stream last wrote, deletes must hit exactly the
    live keys — and raises ``AssertionError`` on the first disagreement,
    so a scheme that corrupts state under interleaving fails the cell
    rather than producing plausible numbers."""
    mix = spec.resolved_mix()
    trace = make_trace(spec.trace, seed=spec.seed)
    built = build_table(
        spec.scheme,
        spec.total_cells,
        trace.spec,
        group_size=spec.group_size,
        seed=spec.seed,
        cache_ratio=spec.cache_ratio,
        tech=spec.tech,
        flush_invalidates=spec.flush_invalidates,
        backend=spec.backend,
    )
    table, region = built.table, built.region
    stream = trace.unique_items()
    resident, fill_failures = fill_to_load_factor(built, stream, spec.load_factor)

    tracer: Tracer | None = None
    if spec.with_trace:
        tracer = Tracer(region, max_events=20_000)
        table.instrument(tracer, None)

    ops = generate_ops(mix, spec.n_ops, len(resident), seed=spec.seed)
    oracle = ShadowOracle(resident)
    value_size = table.spec.value_size
    vrng = random.Random((spec.seed << 8) ^ 0xA11CE)

    overall = LatencyRecorder()
    per_kind = {kind: LatencyRecorder() for kind in OP_KINDS}
    worst_kind = ""
    stats = region.stats
    before = stats.snapshot()
    op_sim_ns = 0.0
    for index, op, _, op_ns in _metered_ops(
        table,
        stats,
        ops,
        list(resident),
        stream,
        oracle,
        label=f"{spec.scheme}: mixed",
        tracer=tracer,
        new_value=lambda: vrng.getrandbits(8 * value_size).to_bytes(
            value_size, "little"
        ),
    ):
        op_sim_ns += op_ns
        overall.record(op_ns, index)
        per_kind[op.kind].record(op_ns, index)
        if overall.worst[1] == index:
            worst_kind = op.kind
    delta = stats.delta(before)

    failed_ops = oracle.failed_ops
    succeeded = len(ops) - failed_ops
    result = MixedResult(
        spec=spec,
        phase=OpMetrics.from_delta(
            max(1, succeeded), delta, attempted=len(ops)
        ),
        total=overall.summary(),
        per_kind={
            kind: rec.summary()
            for kind, rec in per_kind.items()
            if rec.count
        },
        histogram=overall.hist.as_dict(),
        fill_count=len(resident),
        capacity=table.capacity,
        fill_failures=fill_failures,
        failed_ops=failed_ops,
    )
    result.extras["op_sim_ns"] = op_sim_ns
    result.extras["phase_sim_ns"] = delta.sim_time_ns
    result.extras["worst_op"] = {
        "index": overall.worst[1],
        "kind": worst_kind,
        "sim_ns": overall.worst[0],
    }
    if tracer is not None:
        tracer.detach()
        summary = tracer.span_summary()
        result.extras["span_sim_ns"] = sum(
            v["sim_ns"] for p, v in summary.items() if "/" not in p
        )
        result.spans = tracer.as_dict()
        result.trace_events = tracer.chrome_events()
        table.instrument(None, None)
    return result


def measure_space_utilization(spec: UtilizationSpec) -> float:
    """Figure 7: the load factor at which an insert first fails."""
    trace = make_trace(spec.trace, seed=spec.seed)
    built = build_table(
        spec.scheme,
        spec.total_cells,
        trace.spec,
        group_size=spec.group_size,
        seed=spec.seed,
    )
    table = built.table
    for key, value in trace.unique_items():
        if not table.insert(key, value):
            return table.load_factor
    raise RuntimeError("trace exhausted before the table filled")


def measure_recovery(spec: RecoverySpec) -> dict[str, float]:
    """Table 3: fill to ``load_factor``, crash, time Algorithm 4.

    Returns simulated milliseconds for execution (fill) and recovery,
    plus the table's data footprint in bytes, mirroring the paper's
    columns."""
    trace = make_trace(spec.trace, seed=spec.seed)
    built = build_table(
        "group",
        spec.total_cells,
        trace.spec,
        group_size=spec.group_size,
        seed=spec.seed,
    )
    table, region = built.table, built.region

    before = region.stats.snapshot()
    fill_to_load_factor(built, trace.unique_items(), spec.load_factor)
    execution_ns = region.stats.delta(before).sim_time_ns

    region.crash()
    table.reattach()

    before = region.stats.snapshot()
    table.recover()
    recovery_ns = region.stats.delta(before).sim_time_ns

    table_bytes = table.codec.array_bytes(table.capacity)
    return {
        "table_bytes": float(table_bytes),
        "recovery_ms": recovery_ns / 1e6,
        "execution_ms": execution_ns / 1e6,
        "percentage": 100.0 * recovery_ns / execution_ns if execution_ns else 0.0,
    }


def measure_negative_queries(spec: NegativeQuerySpec) -> dict[str, float]:
    """Absent-key lookups: fill to the load factor, then query keys from
    the same distribution that were never inserted (the ``negative``
    experiment — a case the paper's protocol never measures)."""
    trace = make_trace(spec.trace, seed=spec.seed)
    built = build_table(
        spec.scheme,
        spec.total_cells,
        trace.spec,
        group_size=spec.group_size,
        seed=spec.seed,
        cache_ratio=spec.cache_ratio,
    )
    stream = trace.unique_items()
    fill_to_load_factor(built, stream, spec.load_factor)
    # absent keys: same distribution, never inserted
    absent = [key for key, _ in (next(stream) for _ in range(spec.measure_ops))]
    region, table = built.region, built.table
    before = region.stats.snapshot()
    for key in absent:
        assert table.query(key) is None
    delta = region.stats.delta(before)
    return {
        "latency_ns": delta.sim_time_ns / len(absent),
        "misses": delta.cache_misses / len(absent),
    }


@dataclass(frozen=True)
class GrowthSpec:
    """One incremental-growth cell (the ``growth`` experiment).

    Executing it (:func:`run_growth_workload`) fills a
    :class:`~repro.core.DirectoryTable` to ``fill_factor`` of its
    initial capacity, then runs an insert-heavy stream
    (:data:`~repro.bench.workload.GROWTH_MIX`) sized to push the table
    past that capacity — so segment splits happen *inside* the measured
    window and during-split latency is a first-class percentile. The
    same op stream then runs against the legacy stop-the-world path
    (:class:`_RebuildBaseline`) on an identically sized/configured
    region, yielding the whole-table rebuild pause the split path is
    judged against.
    """

    trace: str = "randomnum"
    #: initial directory capacity in cells (segments × segment_cells)
    initial_cells: int = 256
    segment_cells: int = 32
    #: group size of the legacy monolithic table (small enough to
    #: divide every level the rebuilds produce)
    group_size: int = 32
    #: pre-fill fraction of ``initial_cells`` (inserted before measuring)
    fill_factor: float = 0.6
    n_ops: int = 200
    seed: int = 42
    tech: str = "paper-nvm"
    cache_ratio: float = 8.0
    backend: str = "sim"

    @classmethod
    def from_scale(cls, scale: Scale, **kw) -> "GrowthSpec":
        # capacity ≈ the measured-op count: fill + the mix's inserts then
        # overrun the initial table at any scale, guaranteeing splits
        # (and at least one legacy rebuild) inside the window
        initial = max(256, 1 << (scale.measure_ops - 1).bit_length())
        kw.setdefault("initial_cells", initial)
        kw.setdefault("segment_cells", max(16, initial // 8))
        kw.setdefault("n_ops", scale.measure_ops)
        kw.setdefault("cache_ratio", scale.cache_ratio)
        return cls(**kw)


def _growth_region(item_spec, spec: GrowthSpec, *, track_wear: bool = False):
    """A region for one growth run — sized with headroom for several
    capacity doublings (splits and rebuilds both carve new tables out of
    the same never-reused bump allocator), with the cache sized from the
    *initial* table bytes so both runs see identical memory systems.
    ``track_wear`` turns on the (volatile, zero-simulated-cost) per-line
    wear counters — the timeline experiment's wear-heat source."""
    codec = CellCodec(item_spec)
    size = codec.array_bytes(spec.initial_cells * 16) + (1 << 17)
    if spec.backend == "raw":
        return RawBackend(size, name="growth")
    if spec.backend != "sim":
        raise ValueError(f"unknown backend {spec.backend!r}")
    table_bytes = codec.array_bytes(spec.initial_cells)
    config = SimConfig(
        latency=TECHNOLOGY_PRESETS[spec.tech],
        cache=CacheConfig(
            size_bytes=max(4096, int(table_bytes / spec.cache_ratio)),
            line_size=64,
            associativity=8,
        ),
        track_wear=track_wear,
    )
    return NVMRegion(size, config, name="growth")


def _growth_fill(table, stream, target: int) -> list[tuple[bytes, bytes]]:
    """Insert exactly the first ``target`` stream items (both growth
    paths absorb a full table by growing, so no insert may fail — which
    keeps the resident list, and therefore the generated op stream,
    identical across the incremental and legacy runs)."""
    resident = []
    for _ in range(target):
        key, value = next(stream)
        if not table.insert(key, value):
            raise RuntimeError("growth fill insert failed on a growing table")
        resident.append((key, value))
    return resident


def _run_growth_stream(
    table, region, ops, stream, resident, growth_count
) -> tuple[LatencyRecorder, LatencyRecorder, LatencyRecorder, list[dict]]:
    """Execute ``ops``, metering every op and classifying it by whether
    ``growth_count()`` (splits, or legacy expansions) advanced during
    it. Returns (overall, during-growth, steady) recorders plus the
    growth ops' ``{"index", "kind", "sim_ns"}`` records."""
    oracle = ShadowOracle(resident)
    overall = LatencyRecorder()
    during = LatencyRecorder()
    steady = LatencyRecorder()
    growth_ops: list[dict] = []
    grown = growth_count()
    for index, op, _, op_ns in _metered_ops(
        table, region.stats, ops, list(resident), stream, oracle, label="growth stream"
    ):
        if oracle.failed_ops:
            raise RuntimeError("growth-stream insert failed")
        overall.record(op_ns, index)
        if growth_count() > grown:
            grown = growth_count()
            during.record(op_ns, index)
            growth_ops.append({"index": index, "kind": op.kind, "sim_ns": op_ns})
        else:
            steady.record(op_ns, index)
    return overall, during, steady, growth_ops


class _RebuildBaseline:
    """The growth experiment's legacy baseline: the paper's "needs to be
    expanded" signal answered stop-the-world. A failed insert re-inserts
    every item into a table twice the size, carved from the same region,
    then retries (at most 4 rebuilds per insert); the op that triggers a
    rebuild absorbs its whole pause. Every other attribute delegates to
    the current table."""

    def __init__(self, table: GroupHashTable) -> None:
        self.table = table
        #: completed rebuilds
        self.expansions = 0

    def insert(self, key: bytes, value: bytes) -> bool:
        """Insert, rebuilding at twice the size on failure."""
        if self.table.insert(key, value):
            return True
        for _ in range(4):
            old = self.table
            self.table = GroupHashTable(
                old.region,
                old.capacity * 2,
                old.spec,
                group_size=old.group_size,
                n_hash_functions=old.n_hash_functions,
                seed=old.family.seed,
            )
            for item in old.items():
                if not self.table.insert(*item):
                    raise RuntimeError("rebuild re-insert failed")
            self.expansions += 1
            if self.table.insert(key, value):
                return True
        return False

    def __getattr__(self, name: str):
        return getattr(self.table, name)


def run_growth_workload(spec: GrowthSpec) -> dict:
    """Execute one growth cell; returns a JSON-ready summary dict.

    Two runs over the *same* deterministic op stream:

    1. **incremental** — a :class:`~repro.core.DirectoryTable`: a full
       segment splits alone, so growth cost is spread across the ops
       that trigger splits;
    2. **legacy** — :class:`_RebuildBaseline`: a full table is rebuilt
       wholesale, and the triggering op absorbs the entire
       stop-the-world pause.

    The headline comparison is the incremental path's during-split p99
    against the legacy path's worst rebuild pause."""
    trace = make_trace(spec.trace, seed=spec.seed)
    target = int(spec.fill_factor * spec.initial_cells)
    ops = generate_ops(GROWTH_MIX, spec.n_ops, target, seed=spec.seed)

    # incremental: directory of segments, splits inside the window
    region = _growth_region(trace.spec, spec)
    table = DirectoryTable(
        region,
        spec.initial_cells,
        trace.spec,
        segment_cells=spec.segment_cells,
        seed=spec.seed,
    )
    stream = trace.unique_items()
    resident = _growth_fill(table, stream, target)
    splits_before = table.splits
    overall, during_split, steady, split_ops = _run_growth_stream(
        table, region, ops, stream, resident, lambda: table.splits
    )
    splits = table.splits - splits_before

    # legacy: same stream, same region sizing, stop-the-world rebuilds
    legacy_region = _growth_region(trace.spec, spec)
    legacy = _RebuildBaseline(
        GroupHashTable(
            legacy_region,
            spec.initial_cells,
            trace.spec,
            group_size=spec.group_size,
            seed=spec.seed,
        )
    )
    legacy_stream = trace.unique_items()
    legacy_resident = _growth_fill(legacy, legacy_stream, target)
    expansions_before = legacy.expansions
    legacy_overall, legacy_during, legacy_steady, rebuild_ops = (
        _run_growth_stream(
            legacy,
            legacy_region,
            ops,
            legacy_stream,
            legacy_resident,
            lambda: legacy.expansions,
        )
    )
    expansions = legacy.expansions - expansions_before

    if splits < 3:
        raise RuntimeError(
            f"growth cell too small: only {splits} in-window splits "
            "(need >= 3; raise n_ops or shrink segment_cells)"
        )
    if not rebuild_ops:
        raise RuntimeError(
            "growth cell too small: the legacy run never rebuilt "
            "(raise n_ops or shrink initial_cells)"
        )
    rebuild_pause_ns = max(op["sim_ns"] for op in rebuild_ops)
    split_p99_ns = during_split.percentile(0.99)
    return {
        "initial_capacity": spec.initial_cells,
        "fill_count": target,
        "ops": len(ops),
        "incremental": {
            "final_capacity": table.capacity,
            "splits": splits,
            "doublings": table.doublings,
            "segments": table.n_segments,
            "overall": overall.summary(),
            "during_split": during_split.summary(),
            "steady": steady.summary(),
            "split_ops": split_ops,
            "abandoned_bytes": region.abandoned_bytes,
        },
        "legacy": {
            "final_capacity": legacy.capacity,
            "expansions": expansions,
            "overall": legacy_overall.summary(),
            "during_rebuild": legacy_during.summary(),
            "steady": legacy_steady.summary(),
            "rebuild_ops": rebuild_ops,
            "abandoned_bytes": legacy_region.abandoned_bytes,
        },
        "split_p99_ns": split_p99_ns,
        "rebuild_pause_ns": rebuild_pause_ns,
        "split_p99_below_rebuild_pause": split_p99_ns < rebuild_pause_ns,
    }
