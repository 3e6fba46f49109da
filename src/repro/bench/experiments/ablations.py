"""Ablations beyond the paper's figures (DESIGN.md Section 6).

These quantify claims the paper makes in prose but never measures:

- **technology**: how the results shift across Table 1's memory
  technologies (DRAM / PCM / ReRAM / STT-MRAM presets);
- **clwb**: how much of logging's penalty is ``clflush``'s *invalidation*
  (re-miss) vs its write latency — rerun Figure 2 with non-invalidating
  ``clwb``-style flushes;
- **two-hash group**: Section 4.4 argues a second hash function would
  raise group hashing's utilization but damage contiguity; measure both
  sides of that trade-off;
- **excluded schemes**: Section 4.1 excludes chained hashing (allocator
  traffic, pointer chasing) and 2-choice hashing (low utilization);
  measure them against group hashing to verify the exclusions.
"""

from __future__ import annotations

from repro.bench.config import Scale
from repro.bench.experiments import ExperimentResult
from repro.bench.report import format_ratio_note, format_table
from repro.bench.runner import RunSpec, UtilizationSpec

OPS = ("insert", "query", "delete")

TECHS = ("dram", "stt-mram", "reram", "paper-nvm", "pcm")


def _engine_or_default(engine):
    from repro.bench.engine import default_engine

    return engine or default_engine()


def run_technology(scale: Scale, seed: int = 42, engine=None) -> ExperimentResult:
    """Measure group hashing across the Table 1 technology presets."""
    engine = _engine_or_default(engine)
    specs = [
        RunSpec.from_scale("group", "randomnum", 0.5, scale, seed=seed, tech=tech)
        for tech in TECHS
    ]
    rows = []
    data = {}
    for tech, r in zip(TECHS, engine.run(specs)):
        values = {op: r.phase(op).avg_latency_ns for op in OPS}
        rows.append((tech, values))
        data[tech] = values
    text = "\n".join(
        [
            format_table(
                "Ablation: memory technology (Table 1 presets) — group "
                "hashing latency",
                OPS,
                rows,
                unit="simulated ns/request",
            ),
            format_ratio_note(
                "write latency of the medium dominates insert/delete; "
                "queries are read-path only and barely move"
            ),
        ]
    )
    return ExperimentResult(
        name="ablation-technology", paper_ref="Table 1", data=data, text=text
    )


def run_clwb(scale: Scale, seed: int = 42, engine=None) -> ExperimentResult:
    """Separate clflush-invalidation cost from write latency (clwb mode)."""
    engine = _engine_or_default(engine)
    cells = [
        (scheme, label, invalidates)
        for scheme in ("linear", "linear-L")
        for invalidates, label in ((True, "clflush"), (False, "clwb"))
    ]
    specs = [
        RunSpec.from_scale(
            scheme, "randomnum", 0.5, scale, seed=seed, flush_invalidates=invalidates
        )
        for scheme, _, invalidates in cells
    ]
    rows = []
    data = {}
    for (scheme, label, _), r in zip(cells, engine.run(specs)):
        values = {
            "insert_ns": r.insert.avg_latency_ns,
            "insert_misses": r.insert.avg_misses,
            "delete_ns": r.delete.avg_latency_ns,
            "delete_misses": r.delete.avg_misses,
        }
        rows.append((f"{scheme}/{label}", values))
        data[(scheme, label)] = values
    text = "\n".join(
        [
            format_table(
                "Ablation: clflush (invalidating) vs clwb (retaining) flushes",
                ("insert_ns", "insert_misses", "delete_ns", "delete_misses"),
                rows,
                precision=2,
            ),
            format_ratio_note(
                "clwb removes the re-miss on lines written twice (log tail, "
                "cell headers): part of the logging penalty is invalidation, "
                "not write latency"
            ),
        ]
    )
    return ExperimentResult(
        name="ablation-clwb", paper_ref="Section 2.2", data=data, text=text
    )


def run_two_hash_group(scale: Scale, seed: int = 42) -> ExperimentResult:
    """Section 4.4's untested claim: a second hash function buys
    utilization at the cost of contiguity (latency/misses)."""
    from repro.bench.config import BuiltTable, make_trace, region_for
    from repro.bench.runner import fill_to_load_factor
    from repro.core import GroupHashTable

    def fresh_table(trace_seed: int, n_hash: int) -> tuple:
        trace = make_trace("randomnum", seed=trace_seed)
        region = region_for(
        scale.total_cells, trace.spec, cache_ratio=scale.cache_ratio
    )
        table = GroupHashTable(
            region,
            scale.total_cells,
            trace.spec,
            group_size=scale.group_size,
            n_hash_functions=n_hash,
            seed=seed,
        )
        return trace, region, table

    rows = []
    data = {}
    for n_hash in (1, 2):
        # latency at load factor 0.7 — high enough that the second hash
        # function actually engages (below ~0.6 the first hash's group is
        # almost never full, so both configurations behave identically)
        trace, region, table = fresh_table(seed, n_hash)
        stream = trace.unique_items()
        fill_to_load_factor(
            BuiltTable(region=region, table=table, scheme="group"), stream, 0.7
        )
        fresh = [next(stream) for _ in range(scale.measure_ops)]
        before = region.stats.snapshot()
        for key, value in fresh:
            table.insert(key, value)
        delta = region.stats.delta(before)
        insert_ns = delta.sim_time_ns / len(fresh)
        insert_misses = delta.cache_misses / len(fresh)

        # utilization: insert to failure on a fresh table
        trace2, _, table2 = fresh_table(seed + 1, n_hash)
        utilization = 0.0
        for key, value in trace2.unique_items():
            if not table2.insert(key, value):
                utilization = table2.load_factor
                break
        values = {
            "insert_ns": insert_ns,
            "insert_misses": insert_misses,
            "utilization": utilization,
        }
        rows.append((f"{n_hash} hash fn", values))
        data[n_hash] = values
    text = "\n".join(
        [
            format_table(
                "Ablation: group hashing with a second hash function "
                "(Section 4.4 trade-off)",
                ("insert_ns", "insert_misses", "utilization"),
                rows,
                precision=3,
            ),
            format_ratio_note(
                "the paper predicts: higher utilization, worse latency/misses"
            ),
        ]
    )
    return ExperimentResult(
        name="ablation-two-hash", paper_ref="Section 4.4", data=data, text=text
    )


def run_excluded_schemes(scale: Scale, seed: int = 42, engine=None) -> ExperimentResult:
    """Measure the schemes Section 4.1 excludes (plus the
    contemporaneous level hashing and classic cuckoo), to verify the
    exclusion reasons and place the paper among its neighbours."""
    engine = _engine_or_default(engine)
    schemes = ("group", "level", "cuckoo", "chained", "two-choice")
    workload_results = engine.run(
        [RunSpec.from_scale(s, "randomnum", 0.25, scale, seed=seed) for s in schemes]
    )
    rows = []
    data = {}
    for scheme, r in zip(schemes, workload_results):
        try:
            utilization = engine.run_one(
                UtilizationSpec(
                    scheme=scheme,
                    trace="randomnum",
                    total_cells=scale.total_cells,
                    group_size=scale.group_size,
                    seed=seed,
                )
            )
        except RuntimeError:  # chained: fills the pool fully
            utilization = 1.0
        values = {
            "insert_ns": r.insert.avg_latency_ns,
            "query_ns": r.query.avg_latency_ns,
            "utilization": utilization,
        }
        rows.append((scheme, values))
        data[scheme] = values
    text = "\n".join(
        [
            format_table(
                "Ablation: the schemes Section 4.1 excludes, at load factor "
                "0.25 (two-choice cannot go higher)",
                ("insert_ns", "query_ns", "utilization"),
                rows,
                precision=2,
            ),
            format_ratio_note(
                "paper's exclusion reasons: chained = allocator+pointer "
                "traffic; two-choice = low utilization"
            ),
        ]
    )
    return ExperimentResult(
        name="ablation-excluded", paper_ref="Section 4.1", data=data, text=text
    )


def run_wear_leveling(scale: Scale, seed: int = 42) -> ExperimentResult:
    """Section 2.1's assumed substrate, measured: run group hashing on a
    plain region vs a start-gap wear-levelled one and report both the
    request-latency overhead of rotation and the wear flattening."""
    from repro.bench.config import make_trace
    from repro.bench.runner import fill_to_load_factor
    from repro.core import GroupHashTable
    from repro.nvm import CacheConfig, NVMRegion, SimConfig, WearLevelledRegion
    from repro.tables.cell import CellCodec

    # small device so the gap completes multiple sweeps within the
    # experiment's write volume (start-gap only re-homes a line when the
    # gap passes its physical position)
    n_cells = 1 << 10
    rows = []
    data = {}
    for label, rotate_every in (
        ("plain", None), ("start-gap/4", 4), ("start-gap/1", 1)
    ):
        trace = make_trace("randomnum", seed=seed)
        codec = CellCodec(trace.spec)
        table_bytes = codec.array_bytes(n_cells)
        config = SimConfig(
            cache=CacheConfig(size_bytes=max(4096, table_bytes // 8)),
            track_wear=True,
        )
        size = int(table_bytes * 1.3) + 4096
        if rotate_every is None:
            region = NVMRegion(size, config)
        else:
            region = WearLevelledRegion(size, config, rotate_every=rotate_every)
        table = GroupHashTable(
            region, n_cells, trace.spec,
            group_size=min(scale.group_size, n_cells // 4), seed=seed,
        )
        from repro.bench.config import BuiltTable

        stream = trace.unique_items()
        fill_to_load_factor(
            BuiltTable(region=region, table=table, scheme="group"), stream, 0.5
        )
        fresh = [next(stream) for _ in range(scale.measure_ops)]
        before = region.stats.snapshot()
        for key, value in fresh:
            table.insert(key, value)
        delta = region.stats.delta(before)
        report = region.wear.report()
        values = {
            "insert_ns": delta.sim_time_ns / len(fresh),
            "max_line_writes": float(report.max_line_writes),
            "wear_imbalance": report.imbalance,
        }
        rows.append((label, values))
        data[label] = values
    text = "\n".join(
        [
            format_table(
                "Ablation: start-gap wear leveling under group hashing "
                "(Section 2.1's assumed substrate)",
                ("insert_ns", "max_line_writes", "wear_imbalance"),
                rows,
                precision=1,
            ),
            format_ratio_note(
                "rotation must complete full sweeps to flatten wear: too "
                "slow a cadence pays overhead without benefit; a fast "
                "cadence cuts the hottest line's wear several-fold at a "
                "per-op latency cost"
            ),
        ]
    )
    return ExperimentResult(
        name="ablation-wear-leveling", paper_ref="Section 2.1", data=data, text=text
    )


def run(scale: Scale, seed: int = 42, engine=None) -> ExperimentResult:
    """All ablations, concatenated.

    The grid-shaped ablations (technology, clwb, excluded schemes)
    funnel through the engine; the bespoke-table ablations (two-hash
    group, wear leveling) build custom regions and stay inline."""
    engine = _engine_or_default(engine)
    parts = [
        run_technology(scale, seed, engine),
        run_clwb(scale, seed, engine),
        run_two_hash_group(scale, seed),
        run_excluded_schemes(scale, seed, engine),
        run_wear_leveling(scale, seed),
    ]
    return ExperimentResult(
        name="ablations",
        paper_ref="DESIGN.md Section 6",
        data={p.name: p.data for p in parts},
        text="\n\n".join(p.text for p in parts),
    )
