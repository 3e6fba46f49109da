"""Contention experiment — throughput and tail latency vs client count.

The paper's protocol is a single sequential op stream; a serving system
is N clients hammering one table. For each client count this experiment
builds per-client YCSB-A op streams (update-heavy, Zipfian hot keys —
the worst case for group-level writer locks), runs them under the
deterministic interleaver of :mod:`repro.concurrency`, and reports
simulated throughput, p50/p99 tail latency, abort/retry/lock-wait
counts, and the per-client persist-event attribution.

Every cell is a frozen :class:`ConcurrentSpec` routed through the bench
engine, so the grid deduplicates, caches and fans out across ``--jobs``
workers byte-identically — the scheduler is a pure function of the spec,
and the cell payload carries a SHA-256 digest of the final table bytes
to prove it. A cell whose lost-update / linearizability shadow check
fails reports it structurally (``lost_updates`` / ``check_failures``),
which the invariants of `scripts/ci_perf_gate.py` turn into a hard CI
failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bench.cache import encode
from repro.bench.config import Scale, build_table, make_trace
from repro.bench.engine import default_engine, register_spec_kind
from repro.bench.experiments import ExperimentResult, attach_warnings
from repro.bench.report import format_ratio_note, format_table
from repro.bench.runner import fill_to_load_factor
from repro.bench.workload import PRESETS, generate_ops
from repro.concurrency import ClientOp, run_concurrent, table_digest
from repro.obs import FlightRecorder, MetricsRegistry

#: the client-count axis (the acceptance grid: 1, 4 and 16 clients)
CLIENT_COUNTS: tuple[int, ...] = (1, 4, 16)


@dataclass(frozen=True)
class ConcurrentSpec:
    """One contention cell: N clients over one table, frozen for the
    engine.

    ``n_ops`` is the *total* op budget, split evenly across the
    ``n_clients`` streams — so the client-count axis is a fixed-work
    (strong-scaling) comparison and throughput differences come from
    overlap and contention, not from doing more work."""

    scheme: str = "group"
    preset: str = "ycsb-a"
    trace: str = "randomnum"
    load_factor: float = 0.5
    total_cells: int = 1 << 14
    group_size: int = 128
    n_clients: int = 4
    n_ops: int = 500
    seed: int = 42
    tech: str = "paper-nvm"
    cache_ratio: float = 8.0
    backend: str = "sim"

    @classmethod
    def from_scale(
        cls, scheme: str, preset: str, n_clients: int, scale: Scale, **kw
    ) -> "ConcurrentSpec":
        """Build a spec sized to ``scale`` (cells, group size, op
        budget, cache ratio)."""
        return cls(
            scheme=scheme,
            preset=preset,
            n_clients=n_clients,
            total_cells=scale.total_cells,
            group_size=scale.group_size,
            n_ops=scale.measure_ops,
            cache_ratio=scale.cache_ratio,
            **kw,
        )

    @property
    def label(self) -> str:
        """Report row label, e.g. ``4 clients``."""
        return f"{self.n_clients} client{'s' if self.n_clients != 1 else ''}"


def build_client_streams(
    spec: ConcurrentSpec, resident, stream
) -> list[list[ClientOp]]:
    """Per-client op streams over the *shared* resident key universe.

    Each client draws its own seeded
    :func:`~repro.bench.workload.generate_ops` stream from the preset's
    mix; key ids below the resident count resolve to the shared
    fill-phase keys (so Zipfian hot keys collide *across* clients —
    that is the contention under test), while fresh insert ids mint
    per-client items off the shared trace stream (disjoint by
    construction, since the stream is consumed sequentially)."""
    mix = PRESETS[spec.preset]
    per_client = max(1, spec.n_ops // spec.n_clients)
    value_size = len(resident[0][1]) if resident else 8
    streams: list[list[ClientOp]] = []
    for client in range(spec.n_clients):
        mixed = generate_ops(
            mix, per_client, len(resident), seed=(spec.seed << 5) ^ (0xC0 + client)
        )
        vrng = random.Random((spec.seed << 8) ^ 0xA11CE ^ (client * 0x9E37))
        fresh: dict[int, tuple[bytes, bytes]] = {}
        ops: list[ClientOp] = []
        for op in mixed:
            if op.key_id < len(resident):
                key, value = resident[op.key_id]
            else:
                if op.key_id not in fresh:
                    fresh[op.key_id] = next(stream)
                key, value = fresh[op.key_id]
            if op.kind == "insert":
                ops.append(ClientOp("insert", key, value))
            elif op.kind == "update":
                new_value = vrng.getrandbits(8 * value_size).to_bytes(
                    value_size, "little"
                )
                ops.append(ClientOp("update", key, new_value))
            elif op.kind == "query":
                ops.append(ClientOp("query", key))
            else:
                ops.append(ClientOp("delete", key))
        streams.append(ops)
    return streams


def run_concurrent_spec(spec: ConcurrentSpec) -> dict:
    """Execute one contention cell; returns a JSON-ready summary dict.

    This is the engine executor for :class:`ConcurrentSpec` (runs in
    pool workers): fill the table, build the per-client streams, run
    the deterministic interleaver with a metrics registry attached, and
    flatten the result — including the shadow-check verdict and the
    final-table digest — into plain JSON."""
    trace = make_trace(spec.trace, seed=spec.seed)
    built = build_table(
        spec.scheme,
        spec.total_cells,
        trace.spec,
        group_size=spec.group_size,
        seed=spec.seed,
        cache_ratio=spec.cache_ratio,
        tech=spec.tech,
        backend=spec.backend,
    )
    table = built.table
    stream = trace.unique_items()
    resident, fill_failures = fill_to_load_factor(built, stream, spec.load_factor)
    streams = build_client_streams(spec, resident, stream)
    metrics = MetricsRegistry()
    recorder = FlightRecorder()
    result = run_concurrent(
        table, streams, seed=spec.seed, metrics=metrics, recorder=recorder
    )
    committed = len(result.committed)
    return {
        "spec": encode(spec),
        "clients": spec.n_clients,
        "ops": result.ops,
        "committed": committed,
        "failed_ops": result.failed_ops,
        "span_ns": result.span_ns,
        "throughput_kops": result.throughput_kops(),
        "total": result.overall.summary(),
        "per_client": [rec.summary() for rec in result.per_client],
        "read_aborts": result.read_aborts,
        "read_retries": result.read_retries,
        "lock_waits": result.lock_waits,
        "lock_wait_ns": result.lock_wait_ns,
        "fp_skips": result.fp_skips,
        "concurrent_ops": sum(1 for r in result.committed if r.concurrent),
        "lost_updates": result.lost_updates,
        "check_failures": list(result.check_failures),
        "failure_context": result.failure_context,
        "client_events": result.client_events,
        "table_digest": table_digest(table),
        "fill_count": len(resident),
        "fill_failures": fill_failures,
        "metrics": metrics.as_dict(),
    }


register_spec_kind(ConcurrentSpec, run_concurrent_spec)


def contention_specs(scale: Scale, seed: int) -> list[ConcurrentSpec]:
    """The client-count grid for one scale (group scheme, YCSB-A)."""
    return [
        ConcurrentSpec.from_scale("group", "ycsb-a", n, scale, seed=seed)
        for n in CLIENT_COUNTS
    ]


def run(scale: Scale, seed: int = 42, engine=None) -> ExperimentResult:
    """Run the contention grid and render the scaling report."""
    engine = engine or default_engine()
    specs = contention_specs(scale, seed)
    cells = engine.run(specs)

    columns = [
        "ops", "span_us", "kops_s", "p50_ns", "p99_ns",
        "aborts", "retries", "waits", "lost",
    ]
    rows = []
    ok = True
    for spec, cell in zip(specs, cells):
        ok = ok and not cell["lost_updates"] and not cell["check_failures"]
        rows.append((
            spec.label,
            {
                "ops": cell["committed"],
                "span_us": cell["span_ns"] / 1e3,
                "kops_s": cell["throughput_kops"],
                "p50_ns": cell["total"]["p50"],
                "p99_ns": cell["total"]["p99"],
                "aborts": cell["read_aborts"],
                "retries": cell["read_retries"],
                "waits": cell["lock_waits"],
                "lost": cell["lost_updates"],
            },
        ))
    text = format_table(
        "Contention: N clients, one table (YCSB-A, Zipfian hot keys)",
        columns,
        rows,
        precision=1,
    )
    base, top = cells[0], cells[-1]
    if base["throughput_kops"] > 0:
        text += "\n" + format_ratio_note(
            f"{specs[-1].n_clients}-client speedup "
            f"{top['throughput_kops'] / base['throughput_kops']:.2f}x over "
            "1 client (fixed total work; simulated clock)"
        )
    text += "\n" + format_ratio_note(
        "lost-update / linearizability shadow check: "
        + ("PASS at every cell" if ok else "FAIL — see check_failures")
    )
    data = {
        "preset": "ycsb-a",
        "client_counts": list(CLIENT_COUNTS),
        "cells": cells,
        "ok": ok,
    }
    result = ExperimentResult(
        name="contention",
        paper_ref="Beyond the paper: multi-client contention (ROADMAP item 1)",
        data=data,
        text=text,
    )
    return attach_warnings(result, engine)
