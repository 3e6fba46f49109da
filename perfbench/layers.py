"""Wall-clock attribution of a traced run to the program's layers.

The traced run wraps every *layer boundary* — the public method, or the
module-level name, through which callers reach a layer — before any
table is built, and restores the originals afterwards. Each call that
crosses into a different layer opens a span (layer, start, end, parent
span, op id); a call that stays inside the layer it came from opens
none, so a layer's ``calls`` count entries from outside it. Spans are
aggregated in memory; raw spans are kept for the first ``keep_ops``
table operations only, for a Chrome ``trace_event`` file.

A layer's self time is the time inside its spans minus the time inside
their child spans, minus the wrapper's own cost, which is calibrated at
start-up: per span, the part of the wrapper that runs inside the span
(``inside``) is charged away from the layer and the part outside it
(``outside``) away from the caller. The wrapper total is reported on its
own, so that self times, harness time and wrapper time add up to the
traced wall time.

A boundary that no longer resolves (renamed or removed in the program)
is reported as missing; the run goes on without it.
"""

from __future__ import annotations

import importlib
import inspect
import time

#: every layer a traced run reports, in report order; ``harness`` is the
#: benchmark's own code (the root span)
LAYERS = (
    "hashes",
    "core.group_hash",
    "core.directory",
    "core.sharded",
    "core.recovery",
    "nvm.backend",
    "nvm.memory",
    "nvm.memory.crash",
    "nvm.memory.unpersisted_ranges",
    "nvm.cache",
    "nvm.crashpoint",
    "obs.hooks",
    "obs.tracer",
    "obs.metrics",
    "obs.timeseries",
    "obs.recorder",
    "concurrency.scheduler",
    "concurrency.locks",
    "serving.client",
    "serving.router",
    "harness",
)

_TABLE_API = (
    "__init__",
    "insert",
    "query",
    "delete",
    "update",
    "put_many",
    "get_many",
    "delete_many",
    "items",
    "reattach",
    "recover",
    "integrity_violations",
    "check_count",
)
_REGION_API = (
    "__init__",
    "alloc",
    "mark_abandoned",
    "read",
    "write",
    "read_u64",
    "write_u64",
    "write_atomic_u64",
    "scan_clear_u64",
    "scan_match",
    "scan_occupied_bitmap",
    "scan_occupied_at",
    "scan_match_many",
    "scan_probe",
    "scan_clear_at",
    "scan_match_at",
    "scan_match_pairs",
    "clflush",
    "flush_range",
    "mfence",
    "persist",
    "arm_crash",
    "disarm_crash",
    "peek_persistent",
    "peek_volatile",
)


def _methods(layer: str, owner: str, names) -> list[tuple[str, str]]:
    """Boundaries for ``names`` on a class (``module:Class``) or a
    module (``module``)."""
    sep = "." if ":" in owner else ":"
    return [(layer, f"{owner}{sep}{name}") for name in names]


#: (layer, "module:Qualified.name") for every wrapped boundary. Names a
#: module imports from another (``recover_group_table``, the public
#: entry points) are wrapped in every namespace callers reach them through.
BOUNDARIES: tuple[tuple[str, str], ...] = (
    ("hashes", "repro.hashes.functions:HashFamily.function"),
    *_methods(
        "core.group_hash",
        "repro.core.group_hash:GroupHashTable",
        _TABLE_API + ("_put_many_prefix", "scan_items", "lock_stripes"),
    ),
    *_methods(
        "core.directory",
        "repro.core.directory:DirectoryTable",
        _TABLE_API + ("segment_for", "segment_addr", "segment_at"),
    ),
    *_methods(
        "core.sharded",
        "repro.core.sharded:ShardedTable",
        tuple(name for name in _TABLE_API if name != "integrity_violations")
        + ("shard_of", "table_for", "crash"),
    ),
    ("core.group_hash", "repro.core.bulk:bulk_load"),
    ("core.group_hash", "repro.core:bulk_load"),
    ("core.group_hash", "repro:bulk_load"),
    ("core.recovery", "repro.core.recovery:recover_group_table"),
    ("core.recovery", "repro.core.recovery:recover_table"),
    ("core.recovery", "repro.core.group_hash:recover_group_table"),
    ("core.recovery", "repro.core.directory:recover_group_table"),
    ("core.recovery", "repro.core:recover_group_table"),
    ("core.recovery", "repro.core:recover_table"),
    ("core.recovery", "repro:recover_group_table"),
    *_methods(
        "nvm.backend",
        "repro.nvm.backend:RawBackend",
        _REGION_API + ("crash", "unpersisted_ranges"),
    ),
    *_methods("nvm.backend", "repro.nvm.backend:ShardedBackend", ("shard", "crash")),
    *_methods("nvm.memory", "repro.nvm.memory:NVMRegion", _REGION_API),
    ("nvm.memory.crash", "repro.nvm.memory:NVMRegion.crash"),
    ("nvm.memory.unpersisted_ranges", "repro.nvm.memory:NVMRegion.unpersisted_ranges"),
    *_methods(
        "nvm.cache",
        "repro.nvm.cache:CacheSim",
        (
            "__init__",
            "access",
            "touch_mru",
            "flush",
            "writeback",
            "contains",
            "is_dirty",
            "dirty_lines",
            "resident_lines",
            "invalidate_all",
        ),
    ),
    *_methods(
        "nvm.crashpoint",
        "repro.nvm.crashpoint",
        (
            "run_campaign",
            "record_trace",
            "shadow_states",
            "dirty_word_offsets",
            "enumerate_schedules",
            "check_recovery",
        ),
    ),
    ("nvm.crashpoint", "repro.nvm.crashpoint:WordSubsetSchedule.words_persisted"),
    ("nvm.crashpoint", "repro.nvm:run_campaign"),
    ("obs.hooks", "repro.obs.tracer:Tracer._on_event"),
    ("obs.hooks", "repro.obs.timeseries:WindowSampler._on_event"),
    ("obs.hooks", "repro.obs.timeseries:WindowSampler._on_wear"),
    *_methods(
        "obs.tracer",
        "repro.obs.tracer:Tracer",
        ("attach", "detach", "push", "pop", "span", "unwind", "as_dict"),
    ),
    *_methods(
        "obs.metrics",
        "repro.obs.metrics:MetricsRegistry",
        ("counter", "gauge", "histogram", "heat", "merged", "as_dict"),
    ),
    ("obs.metrics", "repro.obs.metrics:Counter.inc"),
    ("obs.metrics", "repro.obs.metrics:Gauge.set"),
    ("obs.metrics", "repro.obs.metrics:Histogram.record"),
    ("obs.metrics", "repro.obs.metrics:Histogram.quantile"),
    ("obs.metrics", "repro.obs.metrics:Heat.touch"),
    *_methods(
        "obs.timeseries",
        "repro.obs.timeseries:WindowSeries",
        ("inc", "set_gauge", "observe", "touch", "record_event", "as_dict"),
    ),
    ("obs.timeseries", "repro.obs.timeseries:WindowSampler.attach"),
    ("obs.timeseries", "repro.obs.timeseries:WindowSampler.detach"),
    *_methods(
        "obs.recorder",
        "repro.obs.recorder:FlightRecorder",
        ("record_op", "record_event", "dump"),
    ),
    ("concurrency.scheduler", "repro.concurrency.scheduler:run_concurrent"),
    ("concurrency.scheduler", "repro.concurrency.scheduler:table_digest"),
    ("concurrency.scheduler", "repro.concurrency:run_concurrent"),
    ("concurrency.scheduler", "repro.concurrency:table_digest"),
    *_methods(
        "concurrency.locks",
        "repro.concurrency.locks:VersionedLockTable",
        (
            "snapshot",
            "try_acquire",
            "release",
            "fp_add",
            "fp_remove",
            "fp_may_contain",
            "locked",
            "owner",
            "version",
        ),
    ),
    ("concurrency.locks", "repro.concurrency.locks:fingerprint_of"),
    ("concurrency.locks", "repro.concurrency.scheduler:fingerprint_of"),
    ("concurrency.locks", "repro.concurrency:fingerprint_of"),
    ("serving.client", "repro.serving.client:run_serving"),
    ("serving.client", "repro.serving:run_serving"),
    *_methods(
        "serving.router",
        "repro.serving.router:Router",
        (
            "__init__",
            "enqueue",
            "flush",
            "timer_valid",
            "shard_of",
            "locate",
            "_shard_clock",
        ),
    ),
)

#: boundaries that return a callable: the callable is what gets wrapped
#: (every hash function a table draws from its family)
_FACTORIES = frozenset({"repro.hashes.functions:HashFamily.function"})

#: raw spans kept at most, however many spans the kept ops open
KEEP_SPANS = 200_000
#: wrapped no-op calls per calibration trial, and trials (the minimum is kept)
CALIBRATION_CALLS = 20_000
CALIBRATION_TRIALS = 5

_CORE = frozenset(i for i, name in enumerate(LAYERS) if name.startswith("core."))
_HARNESS = LAYERS.index("harness")
#: slot used only while calibrating the wrapper cost
_CALIBRATION = len(LAYERS)
_ABSENT = object()


def resolve(target: str):
    """``(owner, attribute name, current value)`` for a boundary spec;
    raises ``ImportError``/``AttributeError`` when it does not resolve."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class LayerTracer:
    """Installs the boundary wrappers and aggregates their spans.

    Usage: :meth:`install` (before any table is built), then for each
    traced window :meth:`begin` / :meth:`end`, then :meth:`restore`.
    Outside a window the wrappers pass straight through.
    """

    def __init__(self, *, keep_ops: int = 1000) -> None:
        n = len(LAYERS) + 1
        self.keep_ops = keep_ops
        self.active = False
        self.missing: list[str] = []
        self.boundaries: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        # per layer: time inside its spans minus child spans
        self.raw_self = [0] * n
        # per layer: function spans / generator-resumption spans opened
        self.spans = [0] * n
        self.gen_spans = [0] * n
        # per layer: entries from another layer (a generator counts once)
        self.calls = [0] * n
        # per layer: spans opened directly under one of its spans
        self.child_spans = [0] * n
        self.child_gen_spans = [0] * n
        # per layer: calls made from inside the same layer (no span)
        self.reentrant = [0] * n
        # [next span id, current op id, open core spans]
        self._ids = [0, 0, 0]
        self.span_log: list[tuple] = []
        self.traced_ns = 0
        self._t_root = 0
        #: calibrated wrapper cost in ns (see :meth:`calibrate`)
        self.costs: dict[str, float] | None = None

    # ------------------------------------------------------------------
    # wrappers

    def _close(self, frame, layer, boundary, t0, t1, gen, counted):
        """Account one finished span (the caller already popped it)."""
        d = t1 - t0
        parent = self._stack[-1]
        parent[1] += d
        self.raw_self[layer] += d - frame[1]
        if gen:
            self.gen_spans[layer] += 1
            self.child_gen_spans[parent[0]] += 1
        else:
            self.spans[layer] += 1
            self.child_spans[parent[0]] += 1
        if counted:
            self.calls[layer] += 1
        op = self._ids[1]
        if op <= self.keep_ops and len(self.span_log) < KEEP_SPANS:
            self.span_log.append((layer, boundary, t0, t1, frame[2], parent[2], op))

    def _wrap_function(self, fn, layer: int, boundary: int):
        tracer = self
        stack = self._stack
        reentrant = self.reentrant
        ids = self._ids
        perf = time.perf_counter_ns
        close = self._close
        core = layer in _CORE

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if stack[-1][0] == layer:
                reentrant[layer] += 1
                return fn(*args, **kwargs)
            ids[0] += 1
            if core:
                if not ids[2]:
                    ids[1] += 1
                ids[2] += 1
            frame = [layer, 0, ids[0]]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                if core:
                    ids[2] -= 1
                close(frame, layer, boundary, t0, t1, False, True)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, layer: int, boundary: int):
        tracer = self
        stack = self._stack
        reentrant = self.reentrant
        ids = self._ids
        perf = time.perf_counter_ns
        close = self._close
        done = object()

        def resume(gen):
            counted = False
            while True:
                if not tracer.active or stack[-1][0] == layer:
                    if tracer.active:
                        reentrant[layer] += 1
                    item = next(gen, done)
                else:
                    ids[0] += 1
                    frame = [layer, 0, ids[0]]
                    stack.append(frame)
                    t0 = perf()
                    try:
                        item = next(gen, done)
                    finally:
                        t1 = perf()
                        stack.pop()
                        close(frame, layer, boundary, t0, t1, True, not counted)
                    counted = True
                if item is done:
                    return
                yield item

        def wrapper(*args, **kwargs):
            return resume(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_factory(self, fn, layer: int, boundary: int):
        wrap = self._wrap_function

        def wrapper(*args, **kwargs):
            return wrap(fn(*args, **kwargs), layer, boundary)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap(self, fn, layer: int, boundary: int):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, boundary)
        return self._wrap_function(fn, layer, boundary)

    # ------------------------------------------------------------------
    # install / restore

    def install(self, callbacks=()) -> None:
        """Wrap every boundary that resolves (the rest are recorded in
        :attr:`missing`), and every ``(class, method)`` in ``callbacks``
        as harness code: benchmark code the program calls back into,
        whose time belongs to the harness and not to the calling layer.
        The first install calibrates the wrapper."""
        if self.costs is None:
            self.calibrate()
        self.missing.clear()
        targets = []
        for layer_name, target in BOUNDARIES:
            try:
                owner, attr, fn = resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(f"{layer_name} {target}")
                continue
            targets.append((LAYERS.index(layer_name), target, owner, attr, fn))
        for owner, attr in callbacks:
            name = f"{owner.__name__}.{attr}"
            targets.append((_HARNESS, name, owner, attr, getattr(owner, attr)))
        for layer, target, owner, attr, fn in targets:
            boundary = len(self.boundaries)
            self.boundaries.append(target.rpartition(":")[2])
            if target in _FACTORIES:
                wrapped = self._wrap_factory(fn, layer, boundary)
            else:
                wrapped = self._wrap(fn, layer, boundary)
            saved = owner.__dict__.get(attr, _ABSENT) if inspect.isclass(owner) else fn
            self._installed.append((owner, attr, saved))
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        """Put every wrapped attribute back exactly as it was (an
        inherited method is removed again from the subclass)."""
        self.active = False
        for owner, attr, saved in reversed(self._installed):
            if saved is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._installed.clear()

    # ------------------------------------------------------------------
    # traced windows

    def begin(self) -> None:
        """Open the harness root span and start recording."""
        self._stack.append([_HARNESS, 0, 0])
        self.active = True
        self._t_root = time.perf_counter_ns()

    def end(self) -> None:
        """Close the root span; its self time is the harness time."""
        t1 = time.perf_counter_ns()
        self.active = False
        frame = self._stack.pop()
        d = t1 - self._t_root
        self.traced_ns += d
        self.raw_self[_HARNESS] += d - frame[1]

    # ------------------------------------------------------------------
    # calibration

    def calibrate(self) -> dict:
        """Measure the wrapper's cost per span (inside and outside the
        span, for functions and generator resumptions) and per
        same-layer pass-through call; keeps the minimum of
        :data:`CALIBRATION_TRIALS` trials of :data:`CALIBRATION_CALLS`
        calls each."""
        perf = time.perf_counter_ns
        n = CALIBRATION_CALLS

        def noop():
            return None

        def items():
            yield from range(n)

        wrapped = self._wrap_function(noop, _CALIBRATION, -1)
        wrapped_gen = self._wrap_generator(items, _CALIBRATION, -1)
        keep = self.keep_ops
        self.keep_ops = -1
        best = {k: float("inf") for k in ("raw", "span", "inside", "re",
                                           "graw", "gspan", "ginside")}
        for _ in range(CALIBRATION_TRIALS):
            t0 = perf()
            for _ in range(n):
                noop()
            best["raw"] = min(best["raw"], (perf() - t0) / n)
            t0 = perf()
            for _ in items():
                pass
            best["graw"] = min(best["graw"], (perf() - t0) / n)
            self.begin()
            before = self.raw_self[_CALIBRATION]
            t0 = perf()
            for _ in range(n):
                wrapped()
            best["span"] = min(best["span"], (perf() - t0) / n)
            best["inside"] = min(
                best["inside"], (self.raw_self[_CALIBRATION] - before) / n
            )
            before = self.raw_self[_CALIBRATION]
            t0 = perf()
            for _ in wrapped_gen():
                pass
            best["gspan"] = min(best["gspan"], (perf() - t0) / n)
            best["ginside"] = min(
                best["ginside"], (self.raw_self[_CALIBRATION] - before) / n
            )
            self._stack.append([_CALIBRATION, 0, 0])
            t0 = perf()
            for _ in range(n):
                wrapped()
            best["re"] = min(best["re"], (perf() - t0) / n)
            self._stack.pop()
            self.end()
        self.keep_ops = keep
        inside = max(0.0, best["inside"] - best["raw"])
        gen_inside = max(0.0, best["ginside"] - best["graw"])
        self.costs = {
            "inside": inside,
            "outside": max(0.0, best["span"] - best["raw"] - inside),
            "gen_inside": gen_inside,
            "gen_outside": max(0.0, best["gspan"] - best["graw"] - gen_inside),
            "reentrant": max(0.0, best["re"] - best["raw"]),
        }
        self._reset()
        return self.costs

    def _reset(self) -> None:
        for counts in (self.raw_self, self.spans, self.gen_spans, self.calls,
                       self.child_spans, self.child_gen_spans, self.reentrant):
            counts[:] = [0] * len(counts)
        self._ids[:] = [0, 0, 0]
        self.span_log.clear()
        self.traced_ns = 0

    # ------------------------------------------------------------------
    # results

    def self_ns(self) -> dict[str, float]:
        """Self time per layer in wall ns, wrapper cost removed."""
        c = self.costs
        return {
            name: self.raw_self[i]
            - self.spans[i] * c["inside"]
            - self.gen_spans[i] * c["gen_inside"]
            - self.child_spans[i] * c["outside"]
            - self.child_gen_spans[i] * c["gen_outside"]
            - self.reentrant[i] * c["reentrant"]
            for i, name in enumerate(LAYERS)
        }

    def wrapper_ns(self) -> float:
        """Total calibrated wrapper cost charged away from the layers."""
        c = self.costs
        return sum(
            self.spans[i] * (c["inside"] + c["outside"])
            + self.gen_spans[i] * (c["gen_inside"] + c["gen_outside"])
            + self.reentrant[i] * c["reentrant"]
            for i in range(len(LAYERS))
        )

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-op self time and calls for every layer, plus the wrapper
        cost and the count of missing boundaries."""
        out: dict[str, float] = {}
        for i, (name, ns) in enumerate(self.self_ns().items()):
            out[f"{name}.self_ns_per_op"] = ns / ops
            if name != "harness":
                out[f"{name}.calls_per_op"] = self.calls[i] / ops
        out["trace.wrapper_ns_per_op"] = self.wrapper_ns() / ops
        out["trace.missing_boundaries"] = len(self.missing)
        return out

    def chrome_trace(self, meta: dict) -> dict:
        """Kept raw spans as Chrome ``trace_event`` complete events on
        the wall clock (microseconds from the first kept span)."""
        if not self.span_log:
            return {"traceEvents": [], "otherData": meta}
        origin = min(span[2] for span in self.span_log)
        events = [
            {
                "name": self.boundaries[boundary],
                "cat": LAYERS[layer],
                "ph": "X",
                "ts": (t0 - origin) / 1e3,
                "dur": (t1 - t0) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"span": span, "parent": parent, "op": op},
            }
            for layer, boundary, t0, t1, span, parent, op in self.span_log
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {"clock": "wall", **meta},
        }
