"""Oracles for the observation sinks.

The sinks record on every simulated op, so their recording calls are
written for speed: channels and instruments are looked up in their own
section first, the window and bucket arithmetic is inlined, the tracer
interns span paths and unrolls its delta loop, and hot callers hold
bound instrument handles. This file checks that none of it changed what
the sinks report:

- a Hypothesis state machine drives random interleavings through
  :class:`WindowSeries`, :class:`MetricsRegistry` (and its
  :class:`Histogram`), :class:`LatencyRecorder` and :class:`Tracer`,
  next to naive reference models written here with the plain
  semantics (a kind check and a division per call, a path string per
  push, a loop over the stats fields per pop). Every export must be
  equal and the same calls must raise;
- two SHA-256 pins of a full export (every sink of one small seeded
  :func:`run_concurrent`, and metrics + timeline of one
  :func:`run_serving`). An instrument or channel that appears where it
  did not before (even an empty one) changes the digest, which the
  lean committed baselines would not notice.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import GroupHashTable, ItemSpec
from repro.concurrency import ClientOp, run_concurrent, table_digest
from repro.core import ShardedTable
from repro.obs import (
    FlightRecorder,
    LatencyRecorder,
    MetricsRegistry,
    Tracer,
    WindowSampler,
    WindowSeries,
)
from repro.obs.metrics import N_BUCKETS, PERCENTILES, bucket_index
from repro.serving import RDMA_DC, run_serving

from .conftest import random_items, small_region

# ----------------------------------------------------------------------
# reference models (plain semantics, no fast paths)

KINDS = ("counters", "gauges", "histograms", "heats")


def ref_bucket(value) -> int:
    """Bucket ``i`` holds values whose integer part lies in
    ``[2^(i-1), 2^i)``; 0 and negatives in bucket 0; clamped at the
    last bucket."""
    v = int(value)
    i = 0
    while i < N_BUCKETS - 1 and v >= (1 << i):
        i += 1
    return i


class RefHist:
    """A histogram as the list of its observations."""

    def __init__(self) -> None:
        self.values: list = []

    def record(self, value) -> None:
        ref_bucket(value)  # raises where int() does, before recording
        self.values.append(value)

    def export(self) -> dict:
        counts = [0] * N_BUCKETS
        total = 0.0
        for v in self.values:  # recording order: the float sum is exact
            counts[ref_bucket(v)] += 1
            total += v
        last = max((i + 1 for i, c in enumerate(counts) if c), default=0)
        return {
            "count": len(self.values),
            "sum": total,
            "min": min(self.values) if self.values else None,
            "max": max(self.values) if self.values else None,
            "buckets": counts[:last],
        }

    def quantile(self, q: float) -> float:
        counts = [0] * N_BUCKETS
        for v in self.values:
            counts[ref_bucket(v)] += 1
        seen = 0
        for i, c in enumerate(counts):
            seen += c
            if c and seen >= q * len(self.values):
                return float((1 << i) - 1) if i else 0.0
        return float(max(self.values) or 0.0)


class RefSeries:
    """A window series as (name → kind) plus per-window values."""

    def __init__(self, window_ns: float) -> None:
        self.window_ns = window_ns
        self.kind_of: dict[str, str] = {}
        self.data: dict[str, dict[str, dict]] = {k: {} for k in KINDS}

    def _channel(self, kind: str, name: str) -> dict:
        bound = self.kind_of.setdefault(name, kind)
        if bound != kind:
            raise ValueError(name)
        return self.data[kind].setdefault(name, {})

    def inc(self, name, t, n) -> None:
        channel = self._channel("counters", name)
        w = int(t // self.window_ns)
        channel[w] = channel.get(w, 0) + n

    def set_gauge(self, name, t, value) -> None:
        self._channel("gauges", name)[int(t // self.window_ns)] = float(value)

    def observe(self, name, t, value) -> None:
        channel = self._channel("histograms", name)
        channel.setdefault(int(t // self.window_ns), RefHist()).record(value)

    def touch(self, name, t, key, n) -> None:
        channel = self._channel("heats", name)
        cells = channel.setdefault(int(t // self.window_ns), {})
        cells[key] = cells.get(key, 0) + n

    def export(self) -> dict:
        def section(kind, convert):
            return {
                name: {str(w): convert(v) for w, v in sorted(channel.items())}
                for name, channel in sorted(self.data[kind].items())
            }

        return {
            "window_ns": self.window_ns,
            "counters": section("counters", lambda n: n),
            "gauges": section("gauges", lambda v: v),
            "histograms": section("histograms", RefHist.export),
            "heats": section(
                "heats", lambda cells: {str(k): n for k, n in sorted(cells.items())}
            ),
        }


class RefRegistry:
    """A metrics registry as (name → kind) plus per-name values."""

    def __init__(self) -> None:
        self.kind_of: dict[str, str] = {}
        self.values: dict[str, object] = {}

    def get(self, kind: str, name: str):
        bound = self.kind_of.setdefault(name, kind)
        if bound != kind:
            raise ValueError(name)
        if name not in self.values:
            self.values[name] = {
                "counters": 0, "gauges": 0.0, "histograms": RefHist(), "heats": {}
            }[kind]
        return self.values[name]

    def export(self) -> dict:
        out: dict = {kind: {} for kind in KINDS}
        for name in sorted(self.values):
            kind, value = self.kind_of[name], self.values[name]
            if kind == "histograms":
                value = value.export()
            elif kind == "heats":
                value = {str(k): n for k, n in sorted(value.items())}
            out[kind][name] = value
        return out


class RefLatency:
    """A latency recorder as its list of (ns, index) observations."""

    def __init__(self, exact_cap: int) -> None:
        self.exact_cap = exact_cap
        self.obs: list[tuple] = []

    def record(self, ns, index) -> None:
        ref_bucket(ns)
        self.obs.append((ns, index))

    def summary(self) -> dict:
        hist = RefHist()
        for ns, _ in self.obs:
            hist.record(ns)
        exact = len(self.obs) <= self.exact_cap
        ordered = sorted(ns for ns, _ in self.obs)
        out = {"count": len(self.obs), "sum": hist.export()["sum"]}
        out["mean"] = out["sum"] / len(self.obs) if self.obs else 0.0
        for name, q in PERCENTILES:
            if not exact:
                out[name] = hist.quantile(q)
            elif not ordered:
                out[name] = 0.0
            else:
                i = max(0, math.ceil(q * len(ordered)) - 1)
                out[name] = ordered[min(i, len(ordered) - 1)]
        out["max"] = max(ordered, default=0.0) or 0.0
        worst = (0.0, -1)
        for ns, index in self.obs:
            if ns > worst[0] or worst[1] < 0:
                worst = (ns, index)
        out["worst_op_index"] = worst[1]
        out["exact"] = exact
        return out


STAT_FIELDS = (
    "sim_time_ns",
    "cache_hits",
    "cache_misses",
    "reads",
    "writes",
    "flushes",
    "fences",
    "nvm_bytes_written",
)
DELTA_NAMES = ("sim_ns",) + STAT_FIELDS[1:]


class FakeStats:
    def __init__(self) -> None:
        self.sim_time_ns = 0.0
        for name in STAT_FIELDS[1:]:
            setattr(self, name, 0)


class FakeBackend:
    """Just enough of a backend for a tracer: stats and observers."""

    def __init__(self) -> None:
        self.stats = FakeStats()
        self.observers: list = []

    def observe(self, observer) -> None:
        self.observers.append(observer)

    def unobserve(self, observer) -> None:
        self.observers.remove(observer)

    def emit(self, kind: str) -> None:
        for observer in self.observers:
            observer(kind, 0, 8)


class RefTracer:
    """A tracer with a path string per push and a field loop per pop."""

    def __init__(self, stats: FakeStats) -> None:
        self.stats = stats
        self.stack: list[dict] = []
        self.agg: dict[str, dict] = {}
        self.events: list[tuple] = []
        self.untracked = {"write": 0, "flush": 0, "fence": 0}

    def snap(self) -> tuple:
        return tuple(getattr(self.stats, f) for f in STAT_FIELDS)

    def event(self, kind: str) -> None:
        if self.stack:
            self.stack[-1]["ev"][kind] += 1
        else:
            self.untracked[kind] += 1

    def push(self, name: str) -> None:
        path = self.stack[-1]["path"] + "/" + name if self.stack else name
        self.stack.append(
            {
                "path": path,
                "start": self.snap(),
                "ev": {"write": 0, "flush": 0, "fence": 0},
                "child_ns": 0.0,
            }
        )

    def pop(self) -> None:
        frame = self.stack.pop()
        end, start = self.snap(), frame["start"]
        agg = self.agg.setdefault(
            frame["path"],
            {
                "count": 0,
                "deltas": [0.0] + [0] * 7,
                "self_ns": 0.0,
                "ev": {"write": 0, "flush": 0, "fence": 0},
            },
        )
        agg["count"] += 1
        for i in range(len(STAT_FIELDS)):
            agg["deltas"][i] += end[i] - start[i]
        dur = end[0] - start[0]
        agg["self_ns"] += dur - frame["child_ns"]
        for kind, n in frame["ev"].items():
            agg["ev"][kind] += n
            if self.stack:
                self.stack[-1]["ev"][kind] += n
        if self.stack:
            self.stack[-1]["child_ns"] += dur
        ev = frame["ev"]
        misses = end[2] - start[2]
        self.events.append(
            (frame["path"], len(self.stack), start[0], dur, *ev.values(), misses)
        )

    def summary(self) -> dict:
        out = {}
        for path, agg in sorted(
            self.agg.items(), key=lambda kv: (-kv[1]["deltas"][0], kv[0])
        ):
            entry = {"count": agg["count"]}
            entry.update(zip(DELTA_NAMES, agg["deltas"]))
            entry["self_ns"] = agg["self_ns"]
            entry.update(("ev_" + kind, n) for kind, n in agg["ev"].items())
            out[path] = entry
        return out


# ----------------------------------------------------------------------
# the state machine

WINDOW_NS = 0.3  # not a binary fraction: window edges round
NAMES = st.sampled_from(["ops", "lat", "q", "ops.x", "heat"])
TIMES = st.one_of(
    st.integers(0, 40).map(lambda w: w * WINDOW_NS),  # on a window edge
    st.integers(1, 40).map(lambda w: math.nextafter(w * WINDOW_NS, 0.0)),
    st.floats(0.0, 12.0),
)
EDGE_VALUES = st.sampled_from(
    [0, 0.0, -0.0, -1, 1, 1.0, 1.5, 2**62, 2**63 + 1, 1e30, -1e30]
)
VALUES = st.one_of(
    EDGE_VALUES,  # drawn as often as the two ranges together
    EDGE_VALUES,
    st.integers(-(2**70), 2**70),
    st.floats(-1e30, 1e30, allow_nan=False),
)
COUNTS = st.integers(-3, 2**64)
SPANS = st.sampled_from(["a", "b", "hash", "l2_probe"])


def same_outcome(real, ref, *args):
    """Call ``real`` and ``ref`` with ``args``: both return, or both
    raise the same exception type."""
    try:
        ref(*args)
    except Exception as exc:
        with pytest.raises(type(exc)):
            real(*args)
        return
    real(*args)


def same_json(real, ref) -> None:
    assert json.dumps(real) == json.dumps(ref)


class SinkMachine(RuleBasedStateMachine):
    """Every sink next to its reference model, driven together."""

    @initialize(cap=st.integers(1, 6))
    def start(self, cap) -> None:
        self.series, self.ref_series = WindowSeries(WINDOW_NS), RefSeries(WINDOW_NS)
        self.registry, self.ref_registry = MetricsRegistry(), RefRegistry()
        self.latency, self.ref_latency = LatencyRecorder(cap), RefLatency(cap)
        self.backend = FakeBackend()
        self.tracer = Tracer(self.backend)
        self.ref_tracer = RefTracer(self.backend.stats)
        self.ops = 0

    # WindowSeries -----------------------------------------------------

    @rule(name=NAMES, t=TIMES, n=COUNTS)
    def series_inc(self, name, t, n) -> None:
        same_outcome(self.series.inc, self.ref_series.inc, name, t, n)

    @rule(name=NAMES, t=TIMES, value=VALUES)
    def series_gauge(self, name, t, value) -> None:
        same_outcome(self.series.set_gauge, self.ref_series.set_gauge, name, t, value)

    @rule(name=NAMES, t=TIMES, value=VALUES)
    def series_observe(self, name, t, value) -> None:
        same_outcome(self.series.observe, self.ref_series.observe, name, t, value)

    @rule(name=NAMES, t=TIMES, key=st.integers(-2, 5), n=COUNTS)
    def series_touch(self, name, t, key, n) -> None:
        same_outcome(self.series.touch, self.ref_series.touch, name, t, key, n)

    # MetricsRegistry and its instruments --------------------------------

    @rule(name=NAMES, n=COUNTS)
    def counter(self, name, n) -> None:
        def real(name, n):
            self.registry.counter(name).inc(n)

        def ref(name, n):
            self.ref_registry.get("counters", name)
            self.ref_registry.values[name] += n

        same_outcome(real, ref, name, n)

    @rule(name=NAMES, value=VALUES)
    def gauge(self, name, value) -> None:
        def real(name, value):
            self.registry.gauge(name).set(value)

        def ref(name, value):
            self.ref_registry.get("gauges", name)
            self.ref_registry.values[name] = value

        same_outcome(real, ref, name, value)

    @rule(name=NAMES, value=VALUES)
    def histogram(self, name, value) -> None:
        def real(name, value):
            self.registry.histogram(name).record(value)

        def ref(name, value):
            self.ref_registry.get("histograms", name).record(value)

        same_outcome(real, ref, name, value)

    @rule(name=NAMES, key=st.integers(-2, 5), n=COUNTS)
    def heat(self, name, key, n) -> None:
        def real(name, key, n):
            self.registry.heat(name).touch(key, n)

        def ref(name, key, n):
            cells = self.ref_registry.get("heats", name)
            cells[key] = cells.get(key, 0) + n

        same_outcome(real, ref, name, key, n)

    @rule(name=NAMES, kind=st.sampled_from(KINDS))
    def get_only(self, name, kind) -> None:
        """Get-or-create without recording: an empty instrument exports."""
        real = getattr(self.registry, kind[:-1])
        same_outcome(real, lambda n: self.ref_registry.get(kind, n), name)

    # LatencyRecorder --------------------------------------------------

    @rule(ns=VALUES)
    def latency(self, ns) -> None:
        same_outcome(self.latency.record, self.ref_latency.record, ns, self.ops)
        self.ops += 1

    # Tracer -----------------------------------------------------------

    @rule(names=st.lists(SPANS, min_size=1, max_size=3))
    def push(self, names) -> None:
        """Open nested spans: the same name under different parents
        must get different paths."""
        for name in names:
            self.tracer.push(name)
            self.ref_tracer.push(name)

    @rule()
    def pop(self) -> None:
        same_outcome(self.tracer.pop, self.ref_tracer.pop)

    @rule(kind=st.sampled_from(["write", "flush", "fence"]))
    def event(self, kind) -> None:
        self.backend.emit(kind)
        self.ref_tracer.event(kind)

    @rule(
        field=st.sampled_from(STAT_FIELDS),
        amount=st.one_of(st.integers(0, 5), st.sampled_from([0.1, 0.2, 1e-9, 7.7])),
    )
    def advance(self, field, amount) -> None:
        stats = self.backend.stats
        if field != "sim_time_ns":
            amount = int(amount * 10)
        setattr(stats, field, getattr(stats, field) + amount)

    # exports ----------------------------------------------------------

    @invariant()
    def exports_match(self) -> None:
        # compared as JSON: key order, 1 vs 1.0 and 0.0 vs -0.0 count
        same_json(self.series.as_dict(), self.ref_series.export())
        same_json(self.registry.as_dict(), self.ref_registry.export())
        same_json(self.latency.summary(), self.ref_latency.summary())
        same_json(self.tracer.span_summary(), self.ref_tracer.summary())
        assert self.tracer.depth == len(self.ref_tracer.stack)

    def teardown(self) -> None:
        if not hasattr(self, "tracer"):
            return
        self.tracer.unwind()
        while self.ref_tracer.stack:
            self.ref_tracer.pop()
        same_json(self.tracer.span_summary(), self.ref_tracer.summary())
        assert self.tracer._events == self.ref_tracer.events
        assert self.tracer.untracked_events == self.ref_tracer.untracked
        # the exports survive their own round trip and merge
        payload = self.registry.as_dict()
        assert MetricsRegistry.from_dict(payload).as_dict() == payload
        assert WindowSeries.from_dict(self.series.as_dict()).as_dict() == (
            self.series.as_dict()
        )


TestSinkMachine = SinkMachine.TestCase


@pytest.mark.parametrize(
    "value", [-(2**80), -1, 0, 0.5, 1, 1.99, 2, 3, 4, 2**62 - 1, 2**62, 2**90]
)
def test_histogram_record_buckets_like_bucket_index(value):
    hist = MetricsRegistry().histogram("h")
    hist.record(value)
    assert hist.counts[bucket_index(value)] == 1
    assert bucket_index(value) == ref_bucket(value)


@pytest.mark.parametrize("values", [[1, 1.0], [0.0, -0.0, 0], [2, 2.0, 1, 1.0]])
def test_histogram_extremes_keep_the_first_of_equal_values(values):
    hist, ref = MetricsRegistry().histogram("h"), RefHist()
    for value in values:
        hist.record(value)
        ref.record(value)
    same_json(hist.as_dict(), ref.export())


# ----------------------------------------------------------------------
# full-export pins


def _digest(export: dict) -> str:
    return hashlib.sha256(json.dumps(export).encode()).hexdigest()


def _mixed_streams(keys, fresh, n_clients: int, per_client: int, seed: int):
    """Queries, updates and deletes of ``keys``; each of the ``fresh``
    keys is inserted once (a table may accept a duplicate insert, which
    the shadow oracle reports)."""
    rng = random.Random(seed)
    fresh = list(fresh)
    streams = []
    for _ in range(n_clients):
        ops = []
        for _ in range(per_client):
            roll = rng.random()
            value = rng.getrandbits(64).to_bytes(8, "little")
            if roll < 0.1 and fresh:
                ops.append(ClientOp("insert", fresh.pop(), value))
                continue
            key = rng.choice(keys)
            if roll < 0.55:
                ops.append(ClientOp("query", key))
            elif roll < 0.9:
                ops.append(ClientOp("update", key, value))
            else:
                ops.append(ClientOp("delete", key))
        streams.append(ops)
    return streams


def concurrent_export() -> dict:
    """Every sink of one small seeded contention run."""
    region = small_region()
    table = GroupHashTable(region, 512, ItemSpec(), group_size=32, seed=1)
    items = random_items(200, seed=11)
    for key, value in items:
        assert table.insert(key, value)
    tracer = Tracer(region)
    metrics = MetricsRegistry()
    table.instrument(tracer, metrics)
    series = WindowSeries(2_000.0)
    WindowSampler(series).attach(region)
    recorder = FlightRecorder(capacity=8, event_capacity=16)
    keys = [key for key, _ in items[:40]]
    fresh = [key for key, _ in random_items(20, seed=12)]
    result = run_concurrent(
        table,
        _mixed_streams(keys, fresh, 3, 60, seed=5),
        seed=5,
        metrics=metrics,
        timeline=series,
        recorder=recorder,
    )
    assert result.ok
    # a fresh registry that only sees lookups: no insert histogram
    lookups = MetricsRegistry()
    table.instrument(None, lookups)
    for key in keys[:5] + fresh[:5]:
        table.query(key)
    return {
        "series": series.as_dict(),
        "metrics": metrics.as_dict(),
        "lookups": lookups.as_dict(),
        "tracer": tracer.as_dict(),
        "chrome": tracer.chrome_trace(counter_events=series.chrome_counter_events()),
        "recorder": recorder.dump(),
        "latency": [r.summary() for r in result.per_client + [result.overall]],
        "table": table_digest(table),
    }


def serving_export() -> dict:
    """Metrics and timeline of one small seeded serving run."""
    table = ShardedTable(512, n_shards=2, seed=3, growable=True, segment_cells=32)
    items = random_items(300, seed=21)
    for key, value in items[:200]:
        assert table.insert(key, value)
    metrics = MetricsRegistry()
    series = WindowSeries(5_000.0)
    keys = [key for key, _ in items[:200]]
    fresh = [key for key, _ in items[200:]]
    result = run_serving(
        table,
        _mixed_streams(keys, fresh, 6, 40, seed=9),
        net=RDMA_DC,
        batch_max=4,
        seed=9,
        metrics=metrics,
        timeline=series,
    )
    assert result.ok
    return {
        "series": series.as_dict(),
        "metrics": metrics.as_dict(),
        "counters": series.chrome_counter_events(),
        "latency": [r.summary() for r in result.per_client + [result.overall]],
        "table": table_digest(table),
    }


#: SHA-256 of the two exports above, computed before the recording
#: calls got their fast paths
CONCURRENT_EXPORT_SHA256 = (
    "8d3e30a065ed940c2fd404d0f9f20c5dbdbef5230b377dead961923c31f6867e"
)
SERVING_EXPORT_SHA256 = (
    "85e061574d5065a3d8e7b4e7a73a7ca13fda68452297af53ef0a8bad9a81c0b1"
)


def test_concurrent_full_export_is_pinned():
    assert _digest(concurrent_export()) == CONCURRENT_EXPORT_SHA256


def test_serving_full_export_is_pinned():
    assert _digest(serving_export()) == SERVING_EXPORT_SHA256
