"""Metrics registry: counters, log2 histograms, gauges and heat maps.

The bench layer attributes *simulated* cost; the metrics layer counts
*structural* facts the paper reasons about but never shows directly —
probe lengths, stash spills, per-group pressure, undo-log traffic.
Four instrument kinds cover everything the instrumented tables need:

- :class:`Counter` — a monotonically increasing integer;
- :class:`Gauge` — a last-write-wins float (merges by ``max``, which is
  the only order-free combination for point-in-time samples);
- :class:`Histogram` — fixed log2 buckets (bucket ``i`` holds values
  whose integer part has bit length ``i``, i.e. ``[2^(i-1), 2^i)``), so
  recording is one ``int.bit_length()`` and merging is element-wise
  addition — no rebinning, ever;
- :class:`Heat` — a sparse integer-keyed counter map with a ``top(k)``
  view, for "which level-2 group is hottest" style questions.

:class:`LatencyRecorder` pairs a histogram with an exact sample list:
the per-op simulated-latency sink behind every p50/p95/p99 the mixed,
concurrency and serving drivers report.

Every instrument (and the :class:`MetricsRegistry` holding them) is
**dict-exportable** (:meth:`~MetricsRegistry.as_dict`), **rebuildable**
(:meth:`~MetricsRegistry.from_dict`) and **mergeable**
(:meth:`~MetricsRegistry.merged` / :func:`merge_metric_dicts`), which is
what lets engine worker processes each fill a private registry and the
parent combine the JSON blocks without losing exactness: all counts are
ints end to end.

Recording never touches a :class:`~repro.nvm.backend.MemoryBackend`, so
metrics collection cannot perturb simulated statistics — the invariance
the observability tests pin.
"""

from __future__ import annotations

import math

#: number of log2 buckets a histogram keeps; bucket 63 absorbs every
#: value ≥ 2^62, far beyond any probe length or simulated-ns delta
N_BUCKETS = 64


def bucket_index(value: float) -> int:
    """Log2 bucket for ``value``: ``int(value).bit_length()``, clamped.

    0 and negatives land in bucket 0, 1 in bucket 1, 2–3 in bucket 2,
    4–7 in bucket 3, and so on — bucket ``i`` covers ``[2^(i-1), 2^i)``.
    """
    v = int(value)
    if v <= 0:
        return 0
    return min(v.bit_length(), N_BUCKETS - 1)


def bucket_label(index: int) -> str:
    """Human-readable range label for bucket ``index`` ("0", "1",
    "2-3", "4-7", ...)."""
    if index <= 0:
        return "0"
    if index == 1:
        return "1"
    lo, hi = 1 << (index - 1), (1 << index) - 1
    return f"{lo}-{hi}"


class Counter:
    """Monotonic integer counter."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the counter."""
        self.value += n

    def merge(self, other: "Counter") -> None:
        """Fold another counter in (element-wise sum)."""
        self.value += other.value

    def as_dict(self) -> int:
        """Export as its exact integer value."""
        return self.value

    @classmethod
    def from_dict(cls, payload: int) -> "Counter":
        """Rebuild from :meth:`as_dict` output."""
        return cls(int(payload))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.value})"


class Gauge:
    """Last-write-wins point sample (merges by ``max``)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value

    def merge(self, other: "Gauge") -> None:
        """Combine with another gauge; ``max`` is the only merge that
        does not depend on worker ordering."""
        self.value = max(self.value, other.value)

    def as_dict(self) -> float:
        """Export as its numeric value."""
        return self.value

    @classmethod
    def from_dict(cls, payload: float) -> "Gauge":
        """Rebuild from :meth:`as_dict` output."""
        return cls(payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.value})"


class Histogram:
    """Fixed log2-bucket histogram with exact count/sum/min/max.

    Buckets never move, so histograms recorded in different processes
    merge by element-wise addition; quantile estimates come from the
    bucket upper bounds (exact to within one power of two, which is the
    resolution the probe-length and latency analyses need).
    """

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * N_BUCKETS
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def record(self, value: float) -> None:
        """Add one observation."""
        # bucket_index, inlined: every probe and every op records here
        v = int(value)
        i = v.bit_length() if v > 0 else 0
        if i >= N_BUCKETS:
            i = N_BUCKETS - 1
        self.counts[i] += 1
        self.count += 1
        self.total += value
        low = self.min
        if low is None or value < low:
            self.min = value
        high = self.max
        if high is None or value > high:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket containing the ``q``-quantile
        observation (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target and c:
                return float((1 << i) - 1) if i else 0.0
        return float(self.max or 0.0)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in (buckets add; extremes combine)."""
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        for bound in (other.min,):
            if bound is not None and (self.min is None or bound < self.min):
                self.min = bound
        for bound in (other.max,):
            if bound is not None and (self.max is None or bound > self.max):
                self.max = bound

    def as_dict(self) -> dict:
        """Export counts and summary stats (buckets trimmed of trailing
        zeros; bucket index is position)."""
        last = 0
        for i, c in enumerate(self.counts):
            if c:
                last = i + 1
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": self.counts[:last],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        """Rebuild from :meth:`as_dict` output."""
        hist = cls()
        buckets = payload.get("buckets", [])
        hist.counts[: len(buckets)] = [int(c) for c in buckets]
        hist.count = int(payload.get("count", 0))
        hist.total = payload.get("sum", 0.0)
        hist.min = payload.get("min")
        hist.max = payload.get("max")
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, mean={self.mean:.2f})"


#: percentiles every latency summary reports
PERCENTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
)


class LatencyRecorder:
    """Per-op simulated-latency sink: log2 histogram + exact reservoir.

    Every observation lands in a mergeable log2-bucket
    :class:`Histogram`; additionally, up to ``exact_cap``
    raw values are kept so small runs (every standard scale) report
    *exact* percentiles. Past the cap the raw list is dropped —
    deterministically, never sampled — and percentiles fall back to the
    histogram's power-of-two bucket bounds."""

    def __init__(self, exact_cap: int = 1 << 14) -> None:
        self.hist = Histogram()
        self.exact_cap = exact_cap
        self._samples: list[float] | None = []
        #: (simulated ns, op index) of the worst observation
        self.worst: tuple[float, int] = (0.0, -1)

    @property
    def count(self) -> int:
        """Number of observations."""
        return self.hist.count

    @property
    def exact(self) -> bool:
        """Whether percentiles are exact (reservoir still intact)."""
        return self._samples is not None

    def record(self, ns: float, index: int) -> None:
        """Add one per-op observation (``index`` = stream position)."""
        self.hist.record(ns)
        if self._samples is not None:
            self._samples.append(ns)
            if len(self._samples) > self.exact_cap:
                self._samples = None
        if ns > self.worst[0] or self.worst[1] < 0:
            self.worst = (ns, index)

    def percentile(self, q: float) -> float:
        """The ``q``-quantile observation — exact while the reservoir
        holds, else the histogram's bucket upper bound."""
        if self._samples is None:
            return self.hist.quantile(q)
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        index = max(0, math.ceil(q * len(ordered)) - 1)
        return ordered[min(index, len(ordered) - 1)]

    def summary(self) -> dict:
        """JSON-ready percentile block: count, sum, mean, p50/p95/p99,
        max, worst-op stream index, exactness flag."""
        out: dict = {
            "count": self.hist.count,
            "sum": self.hist.total,
            "mean": self.hist.mean,
        }
        for name, q in PERCENTILES:
            out[name] = self.percentile(q)
        out["max"] = self.hist.max or 0.0
        out["worst_op_index"] = self.worst[1]
        out["exact"] = self.exact
        return out


class Heat:
    """Sparse integer-keyed counter map (per-group pressure, top-k)."""

    __slots__ = ("cells",)

    def __init__(self) -> None:
        self.cells: dict[int, int] = {}

    def touch(self, key: int, n: int = 1) -> None:
        """Add ``n`` hits to ``key``'s cell."""
        self.cells[key] = self.cells.get(key, 0) + n

    @property
    def total(self) -> int:
        """Sum of all cells."""
        return sum(self.cells.values())

    def top(self, k: int = 10) -> list[tuple[int, int]]:
        """The ``k`` hottest ``(key, hits)`` pairs, hottest first (ties
        broken by key for determinism)."""
        return sorted(self.cells.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def merge(self, other: "Heat") -> None:
        """Fold another heat map in (cells add)."""
        for key, n in other.cells.items():
            self.touch(key, n)

    def as_dict(self) -> dict:
        """Export the full map with string keys (JSON object keys)."""
        return {str(k): v for k, v in sorted(self.cells.items())}

    @classmethod
    def from_dict(cls, payload: dict) -> "Heat":
        """Rebuild from :meth:`as_dict` output."""
        heat = cls()
        for key, n in payload.items():
            heat.cells[int(key)] = int(n)
        return heat

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Heat(cells={len(self.cells)}, total={self.total})"


#: registry section name per instrument class, in export order
_KINDS: tuple[tuple[str, type], ...] = (
    ("counters", Counter),
    ("gauges", Gauge),
    ("histograms", Histogram),
    ("heats", Heat),
)


class MetricsRegistry:
    """Named instruments, one flat namespace per kind.

    ``counter(name)`` / ``gauge(name)`` / ``histogram(name)`` /
    ``heat(name)`` get-or-create, so instrumented code never has to
    pre-declare; a name is bound to one kind for the registry's lifetime
    (requesting it as another kind raises).
    """

    def __init__(self) -> None:
        self._sections: dict[str, dict[str, object]] = {
            section: {} for section, _ in _KINDS
        }

    def _get(self, section: str, cls: type, name: str):
        # a name lives in one section only (``_add`` keeps it so), so a
        # hit in its own section needs no conflict scan
        inst = self._sections[section].get(name)
        if inst is None:
            inst = self._add(section, name, cls())
        return inst

    def _add(self, section: str, name: str, inst):
        """Register a new instrument, refusing a name another kind holds."""
        for other, instruments in self._sections.items():
            if other != section and name in instruments:
                raise ValueError(
                    f"metric {name!r} already registered under {other!r}"
                )
        self._sections[section][name] = inst
        return inst

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        return self._get("counters", Counter, name)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        return self._get("gauges", Gauge, name)

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram called ``name``."""
        return self._get("histograms", Histogram, name)

    def heat(self, name: str) -> Heat:
        """Get or create the heat map called ``name``."""
        return self._get("heats", Heat, name)

    def merged(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Return a new registry combining ``self`` and ``other``
        (inputs untouched)."""
        out = MetricsRegistry()
        for source in (self, other):
            for (section, cls) in _KINDS:
                for name, inst in source._sections[section].items():
                    out._get(section, cls, name).merge(inst)
        return out

    def as_dict(self) -> dict:
        """Export every instrument, grouped by kind — the ``metrics``
        block carried in benchmark results and cache entries."""
        return {
            section: {
                name: inst.as_dict()
                for name, inst in sorted(self._sections[section].items())
            }
            for section, _ in _KINDS
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`as_dict` output. A name that
        appears under two kinds raises :class:`ValueError`, as asking
        for it as the second kind would."""
        registry = cls()
        for section, inst_cls in _KINDS:
            for name, data in payload.get(section, {}).items():
                registry._add(section, name, inst_cls.from_dict(data))
        return registry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = {s: len(d) for s, d in self._sections.items() if d}
        return f"MetricsRegistry({sizes})"


def merge_metric_dicts(payloads: "list[dict]") -> dict:
    """Merge exported metrics blocks (e.g. one per engine worker) into
    one, preserving integer exactness — the cross-process aggregation
    path."""
    merged = MetricsRegistry()
    for payload in payloads:
        merged = merged.merged(MetricsRegistry.from_dict(payload))
    return merged.as_dict()
