"""Span tracer: attribute every simulated nanosecond and persist event.

A :class:`Tracer` records a tree of named spans around region activity.
Each span captures, between its ``push`` and ``pop``:

- the **simulated-time delta** and cache hit/miss/NVM-write deltas,
  read from the attached backend's :class:`~repro.nvm.stats.MemStats`
  via cost-free snapshots — spans measure *simulated* cost, never
  wall-clock;
- the **persist events by kind** (``write`` / ``flush`` / ``fence``),
  observed as one of the backend's observers, in program order.

Two outputs come out of one recording:

- an **aggregate by span path** (:meth:`Tracer.span_summary`) —
  ``"insert/l2_probe"``-style keys mapping to inclusive and self cost,
  the attribution table of ``python -m repro.bench profile``;
- an optional **event log** (:meth:`Tracer.chrome_trace`) in Chrome
  ``trace_event`` format (load it at ``chrome://tracing`` or in
  Perfetto), with the simulated clock as the timeline.

Instrumented code guards every call site with ``if tracer is not
None:`` — a tracer that was never created costs the disabled path two
local-variable tests per stage and **zero simulated events**, so
simulation results are byte-identical with tracing off (pinned by
``tests/test_obs.py``). Attaching appends the tracer to the backend's
observer list and :meth:`Tracer.detach` removes exactly that entry,
leaving every other observer in place (and the raw backend's
no-observer fast path back once the last one leaves).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable

#: MemStats fields each span snapshots, in capture order; sim_time_ns
#: must stay first (reconciliation sums index 0)
_FIELDS = (
    "sim_time_ns",
    "cache_hits",
    "cache_misses",
    "reads",
    "writes",
    "flushes",
    "fences",
    "nvm_bytes_written",
)

#: per-span exported delta names, aligned with ``_FIELDS``
_DELTA_NAMES = (
    "sim_ns",
    "cache_hits",
    "cache_misses",
    "reads",
    "writes",
    "flushes",
    "fences",
    "nvm_bytes_written",
)

_ZEROS = (0.0,) + (0,) * (len(_FIELDS) - 1)

#: a span's stats snapshot: every ``_FIELDS`` stat, in that order, in
#: one call (zeros while no backend is attached)
_snapshot = attrgetter(*_FIELDS)


class _Frame:
    """One live (un-popped) span."""

    __slots__ = ("path", "start", "ev_write", "ev_flush", "ev_fence", "child_ns")

    def __init__(self, path: str, start: tuple) -> None:
        self.path = path
        self.start = start
        #: persist events observed while this frame (or a child) is live;
        #: children roll their totals up at pop, so counts are inclusive
        self.ev_write = 0
        self.ev_flush = 0
        self.ev_fence = 0
        #: inclusive simulated ns of completed children (for self time)
        self.child_ns = 0.0


class _SpanAgg:
    """Accumulated cost of every completed span sharing one path."""

    __slots__ = ("count", "deltas", "self_ns", "ev_write", "ev_flush",
                 "ev_fence")

    def __init__(self) -> None:
        self.count = 0
        self.deltas = list(_ZEROS)
        self.self_ns = 0.0
        self.ev_write = 0
        self.ev_flush = 0
        self.ev_fence = 0

    def as_dict(self) -> dict:
        """Export as the ``spans`` entry carried in bench results."""
        out: dict[str, Any] = {"count": self.count}
        out.update(zip(_DELTA_NAMES, self.deltas))
        out["self_ns"] = self.self_ns
        out["ev_write"] = self.ev_write
        out["ev_flush"] = self.ev_flush
        out["ev_fence"] = self.ev_fence
        return out


class _SpanCtx:
    """Reusable ``with`` adapter over :meth:`Tracer.push` / ``pop``."""

    __slots__ = ("_tracer", "_name")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_SpanCtx":
        self._tracer.push(self._name)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer.pop()
        return False


class Tracer:
    """Records a span tree over one backend's simulated activity.

    Parameters:

    - ``backend`` — the :class:`~repro.nvm.backend.MemoryBackend` (or
      :class:`~repro.nvm.backend.ShardedBackend`) to observe; attaching
      adds the tracer to its observers (each shard's, when sharded).
      ``None`` defers to a later :meth:`attach`.
    - ``keep_events`` — also keep per-span-instance records for the
      Chrome trace export (aggregation alone is unbounded-safe; the
      event log is capped).
    - ``max_events`` — event-log cap; completed spans beyond it still
      aggregate but are dropped from the export (``events_dropped``
      reports how many).
    """

    def __init__(
        self,
        backend: Any = None,
        *,
        keep_events: bool = True,
        max_events: int = 100_000,
    ) -> None:
        self._src: Any = None
        self._attached: list[tuple[Any, Callable]] = []
        self._stack: list[_Frame] = []
        self._agg: dict[str, _SpanAgg] = {}
        #: span path per (parent path, name), built once per distinct pair
        self._paths: dict[tuple[str, str], str] = {}
        self.keep_events = keep_events
        self.max_events = max_events
        #: completed span instances: (path, depth, start_ns, dur_ns,
        #: ev_write, ev_flush, ev_fence, cache_misses)
        self._events: list[tuple] = []
        self.events_dropped = 0
        #: persist events observed outside any span
        self.untracked_events = {"write": 0, "flush": 0, "fence": 0}
        if backend is not None:
            self.attach(backend)

    # ------------------------------------------------------------------
    # backend attachment

    def attach(self, backend: Any) -> None:
        """Start observing ``backend`` (every shard, for a sharded
        backend) and use its ``stats`` for span snapshots."""
        observer = self._on_event
        backend.observe(observer)
        self._attached.append((backend, observer))
        self._src = backend

    def detach(self) -> None:
        """Stop observing every attached backend; other observers stay."""
        for backend, observer in self._attached:
            backend.unobserve(observer)
        self._attached.clear()
        self._src = None

    def _on_event(self, kind: str, addr: int, size: int) -> None:
        stack = self._stack
        if not stack:
            self.untracked_events[kind] = self.untracked_events.get(kind, 0) + 1
            return
        frame = stack[-1]
        if kind == "write":
            frame.ev_write += 1
        elif kind == "flush":
            frame.ev_flush += 1
        else:
            frame.ev_fence += 1

    # ------------------------------------------------------------------
    # span recording

    def span(self, name: str) -> _SpanCtx:
        """Context manager recording one span called ``name`` (nested
        under the currently live span, if any)."""
        return _SpanCtx(self, name)

    def push(self, name: str) -> None:
        """Open a span. Callers on hot paths use guarded ``push``/``pop``
        pairs instead of :meth:`span` to keep the disabled path free of
        allocations."""
        stack = self._stack
        if stack:
            parent = stack[-1].path
            path = self._paths.get((parent, name))
            if path is None:
                path = self._paths[parent, name] = f"{parent}/{name}"
        else:
            path = name
        src = self._src
        start = _ZEROS if src is None else _snapshot(src.stats)
        stack.append(_Frame(path, start))

    def pop(self) -> None:
        """Close the innermost span and account its deltas."""
        stack = self._stack
        frame = stack.pop()
        src = self._src
        end = _ZEROS if src is None else _snapshot(src.stats)
        start = frame.start
        agg = self._agg.get(frame.path)
        if agg is None:
            agg = self._agg[frame.path] = _SpanAgg()
        agg.count += 1
        # one add per _FIELDS entry, in _FIELDS order (unrolled: pop
        # runs for every span of every op)
        deltas = agg.deltas
        dur = end[0] - start[0]
        deltas[0] += dur
        deltas[1] += end[1] - start[1]
        deltas[2] += end[2] - start[2]
        deltas[3] += end[3] - start[3]
        deltas[4] += end[4] - start[4]
        deltas[5] += end[5] - start[5]
        deltas[6] += end[6] - start[6]
        deltas[7] += end[7] - start[7]
        agg.self_ns += dur - frame.child_ns
        if stack:
            stack[-1].child_ns += dur
        if frame.ev_write or frame.ev_flush or frame.ev_fence:
            agg.ev_write += frame.ev_write
            agg.ev_flush += frame.ev_flush
            agg.ev_fence += frame.ev_fence
            if stack:
                parent = stack[-1]
                parent.ev_write += frame.ev_write
                parent.ev_flush += frame.ev_flush
                parent.ev_fence += frame.ev_fence
        if self.keep_events:
            if len(self._events) < self.max_events:
                self._events.append(
                    (
                        frame.path,
                        len(stack),
                        start[0],
                        dur,
                        frame.ev_write,
                        frame.ev_flush,
                        frame.ev_fence,
                        end[2] - start[2],
                    )
                )
            else:
                self.events_dropped += 1

    def unwind(self) -> None:
        """Pop every live span (cleanup after an exception that escaped
        instrumented code, e.g. a simulated power failure)."""
        while self._stack:
            self.pop()

    @property
    def depth(self) -> int:
        """Number of currently live (un-popped) spans."""
        return len(self._stack)

    # ------------------------------------------------------------------
    # outputs

    def span_summary(self) -> dict[str, dict]:
        """Aggregated cost per span path (inclusive deltas, self time,
        persist events), sorted by inclusive simulated ns, heaviest
        first."""
        items = sorted(
            self._agg.items(), key=lambda kv: (-kv[1].deltas[0], kv[0])
        )
        return {path: agg.as_dict() for path, agg in items}

    def chrome_events(self, *, pid: int = 1, tid: int = 1) -> list[dict]:
        """Completed spans as Chrome ``trace_event`` complete ("X")
        events. Timestamps are the *simulated* clock in microseconds —
        the flamegraph x-axis is simulated time, not wall-clock."""
        out = []
        for path, depth, start_ns, dur_ns, w, f, fe, misses in self._events:
            out.append(
                {
                    "name": path.rsplit("/", 1)[-1],
                    "cat": path,
                    "ph": "X",
                    "ts": start_ns / 1e3,
                    "dur": dur_ns / 1e3,
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "writes": w,
                        "flushes": f,
                        "fences": fe,
                        "cache_misses": misses,
                    },
                }
            )
        return out

    def chrome_trace(
        self,
        *,
        pid: int = 1,
        tid: int = 1,
        counter_events: "list[dict] | None" = None,
    ) -> dict:
        """A complete Chrome trace object (``{"traceEvents": [...]}``)
        ready to ``json.dump`` for ``chrome://tracing`` / Perfetto.

        ``counter_events`` appends counter ("C") records — e.g. a
        :meth:`~repro.obs.timeseries.WindowSeries.chrome_counter_events`
        export — after the span events, so one file shows the span
        flamegraph and the per-window timelines on the same
        simulated-clock axis."""
        events = self.chrome_events(pid=pid, tid=tid)
        if counter_events:
            events.extend(counter_events)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {
                "clock": "simulated",
                "events_dropped": self.events_dropped,
            },
        }

    def as_dict(self) -> dict:
        """Export the aggregate view (the ``spans`` block of bench
        results): span summary plus untracked-event accounting."""
        return {
            "spans": self.span_summary(),
            "untracked_events": dict(self.untracked_events),
            "events_dropped": self.events_dropped,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer(paths={len(self._agg)}, live={len(self._stack)}, "
            f"events={len(self._events)})"
        )
