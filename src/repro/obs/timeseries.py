"""Windowed time-series telemetry over the simulated clock.

Aggregate metrics answer "how much in total"; the interesting behavior
of a serving system is transient — the p99 spike *while* a segment
split is in flight, the abort storm as Zipfian contention ramps, wear
concentrating on a hot group. :class:`WindowSeries` slices the
simulated clock into fixed-width windows and keeps, per window, the
same four instrument kinds as :class:`~repro.obs.MetricsRegistry`:

- **counters** — events per window (ops, writes, flushes, fences,
  aborts, retries, splits);
- **gauges** — point samples per window, last write wins (occupancy);
- **histograms** — per-window log2 :class:`~repro.obs.Histogram`
  (latency and probe-length quantiles *within* each window);
- **heats** — per-window sparse :class:`~repro.obs.Heat` maps
  (per-line wear).

A series is JSON-round-trippable (:meth:`WindowSeries.as_dict` /
:meth:`WindowSeries.from_dict`), mergeable across engine workers
(:meth:`WindowSeries.merge` — counters/histograms/heats add, gauges
``max``), exactly re-bucketable to coarser windows
(:meth:`WindowSeries.rebucketed`), and exportable as Chrome
``trace_event`` counter ("C") events so one trace file shows spans and
timelines together (:meth:`WindowSeries.chrome_counter_events`).

:class:`WindowSampler` attaches a series to a backend the same way the
:class:`~repro.obs.Tracer` does — one entry in the backend's observer
list plus (when the region tracks wear) one in its
:class:`~repro.nvm.wear.WearMap`'s — and removes exactly those entries
on detach. Sampling reads clocks and observes events only; it never
issues a region event, so the simulated event stream is byte-identical
with a sampler attached (pinned by ``tests/test_timeseries.py``).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.metrics import Heat, Histogram

#: surrogate simulated ns per persist event on backends without a
#: costed clock (matches the concurrency scheduler's surrogate)
SURROGATE_EVENT_NS = 100.0

#: section name per per-window instrument kind, in export order
_KINDS: tuple[str, ...] = ("counters", "gauges", "histograms", "heats")


class WindowSeries:
    """Per-window instruments keyed by ``int(t_ns // window_ns)``.

    Windows are *simulated-time* slices: the clock fed to every
    recording call decides the window, so a series is a pure function
    of the event stream and merges exactly across workers. A channel
    name is bound to one kind for the series' lifetime (recording it
    as another kind raises, mirroring the metrics registry).
    """

    def __init__(self, window_ns: float) -> None:
        if window_ns <= 0:
            raise ValueError("window_ns must be positive")
        self.window_ns = float(window_ns)
        self._counters: dict[str, dict[int, int]] = {}
        self._gauges: dict[str, dict[int, float]] = {}
        self._histograms: dict[str, dict[int, Histogram]] = {}
        self._heats: dict[str, dict[int, Heat]] = {}
        self._kind_of: dict[str, str] = {}

    # ------------------------------------------------------------------
    # recording

    def _channel(self, section: str, name: str) -> dict:
        """Channel ``name`` of ``section``, created on first use — the
        only place a name is bound to a kind. The recording calls look
        a channel up in their own section first and come here only for
        a name they have not seen, so a name bound to another kind
        still raises."""
        channels = getattr(self, f"_{section}")
        channel = channels.get(name)
        if channel is None:
            bound = self._kind_of.get(name)
            if bound is not None:
                raise ValueError(
                    f"channel {name!r} already recorded under {bound!r}"
                )
            self._kind_of[name] = section
            channel = channels[name] = {}
        return channel

    def window_of(self, t_ns: float) -> int:
        """Window index containing simulated time ``t_ns``."""
        return int(t_ns // self.window_ns)

    # The recording calls inline window_of: each runs once or more per
    # simulated op, and a call would be most of its cost.

    def inc(self, name: str, t_ns: float, n: int = 1) -> None:
        """Add ``n`` to counter channel ``name`` in ``t_ns``'s window."""
        channel = self._counters.get(name)
        if channel is None:
            channel = self._channel("counters", name)
        w = int(t_ns // self.window_ns)
        channel[w] = channel.get(w, 0) + n

    def set_gauge(self, name: str, t_ns: float, value: float) -> None:
        """Record a point sample (last write in a window wins)."""
        channel = self._gauges.get(name)
        if channel is None:
            channel = self._channel("gauges", name)
        channel[int(t_ns // self.window_ns)] = float(value)

    def observe(self, name: str, t_ns: float, value: float) -> None:
        """Add one observation to histogram channel ``name``."""
        channel = self._histograms.get(name)
        if channel is None:
            channel = self._channel("histograms", name)
        w = int(t_ns // self.window_ns)
        hist = channel.get(w)
        if hist is None:
            hist = channel[w] = Histogram()
        hist.record(value)

    def touch(self, name: str, t_ns: float, key: int, n: int = 1) -> None:
        """Add ``n`` hits to ``key`` in heat channel ``name``."""
        channel = self._heats.get(name)
        if channel is None:
            channel = self._channel("heats", name)
        w = int(t_ns // self.window_ns)
        heat = channel.get(w)
        if heat is None:
            heat = channel[w] = Heat()
        heat.touch(key, n)

    def record_event(
        self, kind: str, t_ns: float, addr: int = 0, size: int = 0
    ) -> None:
        """Fold one persist event into the standard channels: ``kind``
        bumps the ``writes`` / ``flushes`` / ``fences`` counter of
        ``t_ns``'s window."""
        if kind == "write":
            self.inc("writes", t_ns)
        elif kind == "flush":
            self.inc("flushes", t_ns)
        else:
            self.inc("fences", t_ns)

    # ------------------------------------------------------------------
    # views

    def windows(self) -> list[int]:
        """Sorted union of every window index any channel touched."""
        seen: set[int] = set()
        for section in _KINDS:
            for channel in getattr(self, f"_{section}").values():
                seen.update(channel)
        return sorted(seen)

    def channels(self) -> dict[str, str]:
        """Channel name → kind for every recorded channel."""
        return dict(sorted(self._kind_of.items()))

    def counter_values(
        self, name: str, windows: "list[int] | None" = None
    ) -> list[int]:
        """Counter ``name``'s per-window values over ``windows``
        (default: every touched window), 0 where it never fired."""
        channel = self._counters.get(name, {})
        if windows is None:
            windows = self.windows()
        return [channel.get(w, 0) for w in windows]

    def gauge_values(
        self, name: str, windows: "list[int] | None" = None
    ) -> list[float]:
        """Gauge ``name``'s per-window samples, carrying the last seen
        value forward through windows without a sample (0.0 before the
        first)."""
        channel = self._gauges.get(name, {})
        out: list[float] = []
        last = 0.0
        if windows is None:
            windows = self.windows()
        for w in windows:
            last = channel.get(w, last)
            out.append(last)
        return out

    def quantile_values(
        self, name: str, q: float, windows: "list[int] | None" = None
    ) -> list[float]:
        """Histogram ``name``'s per-window ``q``-quantile (0.0 in
        windows with no observations)."""
        channel = self._histograms.get(name, {})
        out = []
        if windows is None:
            windows = self.windows()
        for w in windows:
            hist = channel.get(w)
            out.append(hist.quantile(q) if hist is not None else 0.0)
        return out

    def heat_totals(
        self, name: str, windows: "list[int] | None" = None
    ) -> list[int]:
        """Heat ``name``'s per-window total hits."""
        channel = self._heats.get(name, {})
        out = []
        if windows is None:
            windows = self.windows()
        for w in windows:
            heat = channel.get(w)
            out.append(heat.total if heat is not None else 0)
        return out

    def merged_heat(self, name: str) -> Heat:
        """Heat ``name`` folded across every window (whole-run view)."""
        merged = Heat()
        for heat in self._heats.get(name, {}).values():
            merged.merge(heat)
        return merged

    # ------------------------------------------------------------------
    # merge / rebucket / round trip

    def merge(self, other: "WindowSeries") -> None:
        """Fold ``other`` in: counters/histograms/heats add per window,
        gauges combine by ``max`` (the order-free choice). Window
        widths must match and a channel must keep its kind — anything
        else raises rather than silently mixing shapes."""
        if other.window_ns != self.window_ns:
            raise ValueError(
                f"cannot merge series with window_ns {other.window_ns} "
                f"into window_ns {self.window_ns}"
            )
        for name, channel in other._counters.items():
            mine = self._channel("counters", name)
            for w, n in channel.items():
                mine[w] = mine.get(w, 0) + n
        for name, channel in other._gauges.items():
            mine = self._channel("gauges", name)
            for w, v in channel.items():
                mine[w] = max(mine.get(w, v), v)
        for name, channel in other._histograms.items():
            mine = self._channel("histograms", name)
            for w, hist in channel.items():
                if w not in mine:
                    mine[w] = Histogram()
                mine[w].merge(hist)
        for name, channel in other._heats.items():
            mine = self._channel("heats", name)
            for w, heat in channel.items():
                if w not in mine:
                    mine[w] = Heat()
                mine[w].merge(heat)

    def rebucketed(self, factor: int) -> "WindowSeries":
        """A new series with ``factor``-times-wider windows (window
        ``w`` folds into ``w // factor``) — exact, since counters,
        histograms and heats merge by addition; gauges keep the
        ``max`` of their folded windows."""
        if factor < 1:
            raise ValueError("factor must be >= 1")
        out = WindowSeries(self.window_ns * factor)
        if factor == 1:
            out.merge(self)
            return out
        for name, channel in self._counters.items():
            mine = out._channel("counters", name)
            for w, n in channel.items():
                mine[w // factor] = mine.get(w // factor, 0) + n
        for name, channel in self._gauges.items():
            mine = out._channel("gauges", name)
            for w, v in channel.items():
                mine[w // factor] = max(mine.get(w // factor, v), v)
        for name, channel in self._histograms.items():
            mine = out._channel("histograms", name)
            for w, hist in channel.items():
                target = mine.setdefault(w // factor, Histogram())
                target.merge(hist)
        for name, channel in self._heats.items():
            mine = out._channel("heats", name)
            for w, heat in channel.items():
                target = mine.setdefault(w // factor, Heat())
                target.merge(heat)
        return out

    def as_dict(self) -> dict:
        """Export every channel with string window keys (JSON object
        keys), sorted for byte-stable dumps."""
        return {
            "window_ns": self.window_ns,
            "counters": {
                name: {str(w): n for w, n in sorted(channel.items())}
                for name, channel in sorted(self._counters.items())
            },
            "gauges": {
                name: {str(w): v for w, v in sorted(channel.items())}
                for name, channel in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    str(w): hist.as_dict() for w, hist in sorted(channel.items())
                }
                for name, channel in sorted(self._histograms.items())
            },
            "heats": {
                name: {
                    str(w): heat.as_dict() for w, heat in sorted(channel.items())
                }
                for name, channel in sorted(self._heats.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WindowSeries":
        """Rebuild a series from :meth:`as_dict` output."""
        series = cls(payload["window_ns"])
        for name, channel in payload.get("counters", {}).items():
            series._channel("counters", name).update(
                (int(w), int(n)) for w, n in channel.items()
            )
        for name, channel in payload.get("gauges", {}).items():
            series._channel("gauges", name).update(
                (int(w), float(v)) for w, v in channel.items()
            )
        for name, channel in payload.get("histograms", {}).items():
            series._channel("histograms", name).update(
                (int(w), Histogram.from_dict(data)) for w, data in channel.items()
            )
        for name, channel in payload.get("heats", {}).items():
            series._channel("heats", name).update(
                (int(w), Heat.from_dict(data)) for w, data in channel.items()
            )
        return series

    # ------------------------------------------------------------------
    # Chrome export

    def chrome_counter_events(
        self, *, pid: int = 1, quantile: float = 0.99
    ) -> list[dict]:
        """Counter ("C") ``trace_event`` records: one point per
        (channel, window) at the window's start, counters and gauges by
        value, histograms as their per-window ``quantile`` (suffixed
        ``.p99``-style), heats as per-window totals. Merged with a
        :meth:`~repro.obs.Tracer.chrome_events` span list, one trace
        file shows spans and timelines on the same simulated-clock
        axis."""
        out: list[dict] = []
        suffix = f".p{int(round(quantile * 100))}"

        def emit(name: str, w: int, value) -> None:
            out.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": w * self.window_ns / 1e3,
                    "pid": pid,
                    "args": {name: value},
                }
            )

        for name, channel in sorted(self._counters.items()):
            for w, n in sorted(channel.items()):
                emit(name, w, n)
        for name, channel in sorted(self._gauges.items()):
            for w, v in sorted(channel.items()):
                emit(name, w, v)
        for name, channel in sorted(self._histograms.items()):
            for w, hist in sorted(channel.items()):
                emit(name + suffix, w, hist.quantile(quantile))
        for name, channel in sorted(self._heats.items()):
            for w, heat in sorted(channel.items()):
                emit(name + ".touches", w, heat.total)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WindowSeries(window_ns={self.window_ns}, "
            f"channels={len(self._kind_of)}, windows={len(self.windows())})"
        )


class WindowSampler:
    """Feeds a :class:`WindowSeries` from a backend's event stream.

    Attaching observes the backend (every shard, for a sharded backend)
    exactly like the tracer does, counting ``writes`` / ``flushes`` /
    ``fences`` per window; when a region tracks wear
    (:class:`~repro.nvm.memory.SimConfig` ``track_wear``), the sampler
    observes its wear map too and every medium line write lands in the
    ``wear_heat`` heat channel. :meth:`detach` removes only the
    sampler's own observers.

    The window clock is, in order of preference: an explicit ``clock``
    callable, the first attached backend's ``stats.sim_time_ns``, or a
    deterministic per-event surrogate (:data:`SURROGATE_EVENT_NS` per
    event) for backends without a costed clock.
    """

    def __init__(
        self,
        series: WindowSeries,
        *,
        clock: "Callable[[], float] | None" = None,
    ) -> None:
        self.series = series
        self._clock = clock
        self._stats: Any = None
        self._surrogate_ns = 0.0
        #: (backend or wear map, observer) pairs this sampler attached
        self._attached: list[tuple[Any, Callable]] = []

    def _now(self) -> float:
        """Current simulated time for window assignment."""
        if self._clock is not None:
            return self._clock()
        if self._stats is not None:
            return float(self._stats.sim_time_ns)
        return self._surrogate_ns

    def attach(self, backend: Any) -> None:
        """Start sampling ``backend`` (each shard, when sharded): observe
        its events and, where a region tracks wear, its wear map."""
        observer = self._on_event
        backend.observe(observer)
        self._attached.append((backend, observer))
        # the clock and the wear maps live on the individual regions
        for region in getattr(backend, "shards", (backend,)):
            if self._stats is None and self._clock is None:
                self._stats = region.stats
            wear = getattr(region, "wear", None)
            if wear is not None:
                wear_observer = self._on_wear
                wear.observe(wear_observer)
                self._attached.append((wear, wear_observer))

    def detach(self) -> None:
        """Stop sampling: remove this sampler's event and wear observers
        (any other observer stays attached)."""
        for target, observer in self._attached:
            target.unobserve(observer)
        self._attached.clear()
        self._stats = None

    def _on_event(self, kind: str, addr: int, size: int) -> None:
        # _now() inlined: this runs once per persist event
        clock, stats = self._clock, self._stats
        if clock is not None:
            now = clock()
        elif stats is not None:
            now = float(stats.sim_time_ns)
        else:
            now = self._surrogate_ns
        self.series.record_event(kind, now, addr, size)
        if clock is None and stats is None:
            self._surrogate_ns += SURROGATE_EVENT_NS

    def _on_wear(self, line: int) -> None:
        self.series.touch("wear_heat", self._now(), line)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WindowSampler(attached={len(self._attached)})"
