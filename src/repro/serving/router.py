"""Request router: per-shard FIFO queues with doorbell batching.

One router fronts one :class:`~repro.core.ShardedTable`. Every routed
request lands in its shard's FIFO queue; the shard flushes — executes
the queued ops against its table — when either the queue reaches
``batch_max`` ops (the doorbell fills) or the oldest queued op has
waited ``batch_wait_ns`` of simulated time (the doorbell timer fires).
A flush takes up to ``batch_max`` requests in arrival order, groups
them into maximal same-kind runs, and drives each run through the
table's coalesced batch APIs (``put_many`` / ``get_many`` /
``delete_many``, scalar fallback where a table type lacks one) — so
server-side batching inherits exactly the write-combining the batch
layer already proves out, and its benefit shows up as lower simulated
service time per op.

Service time is metered on the shard's own simulated clock (per-shard
``sim_time_ns`` deltas on costed backends, the deterministic per-event
surrogate otherwise), and shards are sequential servers: a flush starts
at ``max(doorbell time, busy_until)`` and pushes ``busy_until`` to its
end, so queueing delay under load is modelled rather than assumed away.

The router never owns time — the serving driver
(:func:`repro.serving.client.run_serving`) processes doorbell events in
simulated-time order and calls :meth:`Router.flush`. All telemetry
(queue-depth gauges, batch-size and service-time histograms, flush
counters) goes to an optional :class:`~repro.obs.MetricsRegistry` and
per-window :class:`~repro.obs.WindowSeries`; attaching them changes
nothing about the interleaving.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.concurrency.scheduler import RAW_EVENT_NS, ClientOp
from repro.nvm.memory import NVMRegion
from repro.serving.netmodel import NetworkModel


@dataclass(frozen=True)
class Request:
    """One routed client request as it sits in a shard queue."""

    client: int
    op_index: int
    op: ClientOp
    #: simulated ns at which the request reached the shard queue
    enqueue_ns: float


@dataclass(frozen=True)
class ServedReply:
    """One request's outcome after its batch flushed.

    ``result`` is the table op's return value (bool for writes, value
    bytes or ``None`` for queries); ``location`` is the (shard, segment
    info address) pair serving the key *after* the op executed — the
    client-side location cache is fed from here. ``delivery_ns`` is
    when the response message reaches the client."""

    request: Request
    result: object
    location: tuple[int, int] | None
    start_ns: float
    end_ns: float
    delivery_ns: float


class Router:
    """Per-shard FIFO queues + doorbell batching over a sharded table.

    :meth:`enqueue` and :meth:`flush` return *doorbell events* — plain
    tuples the driver schedules on its simulated-time heap — instead of
    the router acting on time itself, which keeps the router a passive,
    fully deterministic state machine."""

    def __init__(
        self,
        table,
        net: NetworkModel,
        *,
        batch_max: int = 8,
        batch_wait_ns: float = 4000.0,
        wakeup_ns: float = 1500.0,
        dispatch_ns: float = 250.0,
        metrics=None,
        timeline=None,
    ) -> None:
        if batch_max < 1:
            raise ValueError("batch_max must be at least 1")
        if batch_wait_ns < 0:
            raise ValueError("batch_wait_ns must be non-negative")
        self.table = table
        self.net = net
        self.batch_max = batch_max
        self.batch_wait_ns = batch_wait_ns
        #: server CPU cost of taking one doorbell (interrupt + context) —
        #: paid once per flush, so batching amortizes it; this is the
        #: classic reason doorbell batching lifts saturated throughput
        self.wakeup_ns = wakeup_ns
        #: server CPU cost of decoding/dispatching one request — paid
        #: per op regardless of batch size
        self.dispatch_ns = dispatch_ns
        self.metrics = metrics
        self.timeline = timeline
        n = table.n_shards
        self.queues: list[deque[Request]] = [deque() for _ in range(n)]
        #: flush count per shard; doubles as the timer-invalidation
        #: generation (any flush retires every armed timer of its shard)
        self.generation = [0] * n
        #: simulated ns until which each shard's server is busy
        self.busy_until = [0.0] * n
        self.flushes = 0
        self.batched_ops = 0
        self.max_queue_depth = 0
        # value payload size for response messages (one spec per table)
        self._value_bytes = table.spec.value_size
        # costed shards meter service on their region's simulated clock;
        # others get the deterministic per-event surrogate
        self._costed = [
            isinstance(table.backend.shard(i), NVMRegion) for i in range(n)
        ]
        # sink names resolved once; each instrument is bound at its first
        # record, so a run that never flushes creates no flush metrics
        self._depth_channels = [f"shard{i}.queue_depth" for i in range(n)]
        self._enqueued = None
        self._flush_metrics = None

    # ------------------------------------------------------------------
    # shard clocks

    def _shard_clock(self, shard: int) -> float:
        """The shard backend's simulated clock (event-count surrogate on
        backends without one) — used only as deltas, so mixing shards is
        fine."""
        stats = self.table.backend.shard(shard).stats
        if self._costed[shard]:
            return float(stats.sim_time_ns)
        return RAW_EVENT_NS * (
            stats.reads + stats.writes + stats.flushes + stats.fences
        )

    # ------------------------------------------------------------------
    # queueing

    def shard_of(self, key: bytes) -> int:
        """Shard index serving ``key`` (the table's router hash)."""
        return self.table.shard_of(key)

    def enqueue(self, shard: int, request: Request):
        """Append ``request`` to its shard queue.

        Returns the doorbell event the driver must schedule:
        ``("flush", t)`` when this enqueue filled the batch,
        ``("timer", deadline, generation)`` when it started a fresh
        batch (the timer is valid only while ``generation`` matches —
        see :meth:`timer_valid`), else ``None``."""
        queue = self.queues[shard]
        queue.append(request)
        depth = len(queue)
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        now = request.enqueue_ns
        if self.metrics is not None:
            counter = self._enqueued
            if counter is None:
                counter = self._enqueued = self.metrics.counter("serving.enqueued")
            counter.inc()
        if self.timeline is not None:
            self.timeline.inc("enqueued", now)
            self.timeline.set_gauge(self._depth_channels[shard], now, depth)
        if depth >= self.batch_max:
            return ("flush", now)
        if depth == 1:
            return ("timer", now + self.batch_wait_ns, self.generation[shard])
        return None

    def timer_valid(self, shard: int, generation: int) -> bool:
        """Whether a timer armed at ``generation`` may still fire (no
        flush has retired that batch in the meantime)."""
        return self.generation[shard] == generation

    # ------------------------------------------------------------------
    # flushing

    def flush(self, shard: int, now: float):
        """Execute up to ``batch_max`` queued ops of ``shard`` at
        simulated time ``now``.

        Returns ``(replies, followup)``: the per-request
        :class:`ServedReply` list (batch arrival order — the
        linearization order the driver applies its shadow model in) and
        the next doorbell event for this shard, or ``None`` when its
        queue drained."""
        queue = self.queues[shard]
        if not queue:
            return [], None
        self.generation[shard] += 1
        batch = [queue.popleft() for _ in range(min(self.batch_max, len(queue)))]
        start = max(now, self.busy_until[shard])
        results: list[object] = []
        service_ns = self.wakeup_ns + self.dispatch_ns * len(batch)
        i = 0
        while i < len(batch):
            j = i + 1
            while j < len(batch) and batch[j].op.kind == batch[i].op.kind:
                j += 1
            out, cost = self._execute(shard, batch[i:j])
            results.extend(out)
            service_ns += cost
            i = j
        end = start + service_ns
        self.busy_until[shard] = end
        self.flushes += 1
        self.batched_ops += len(batch)
        replies = []
        for request, result in zip(batch, results):
            location = self.locate(shard, request.op.key)
            delivery = end + self.net.response_ns(self._value_bytes)
            replies.append(
                ServedReply(request, result, location, start, end, delivery)
            )
        metrics = self.metrics
        if metrics is not None:
            bound = self._flush_metrics
            if bound is None:
                bound = self._flush_metrics = (
                    metrics.counter("serving.flushes"),
                    metrics.histogram("serving.batch_size"),
                    metrics.histogram("serving.service_ns"),
                )
            flushes, batch_sizes, service = bound
            flushes.inc()
            batch_sizes.record(len(batch))
            service.record(end - start)
        timeline = self.timeline
        if timeline is not None:
            timeline.inc("flushes", end)
            timeline.observe("batch_size", end, len(batch))
            timeline.observe("service_ns", end, end - start)
            timeline.set_gauge(self._depth_channels[shard], end, len(queue))
        followup = None
        if queue:
            if len(queue) >= self.batch_max:
                followup = ("flush", end)
            else:
                deadline = queue[0].enqueue_ns + self.batch_wait_ns
                followup = ("timer", max(deadline, end), self.generation[shard])
        return replies, followup

    def _execute(self, shard: int, run: list[Request]) -> tuple[list, float]:
        """Run one maximal same-kind run through the shard table's batch
        API (scalar fallback where the table type lacks one), metering
        its simulated cost via the shard clock. Returns (results,
        simulated service ns)."""
        table = self.table.tables[shard]
        kind = run[0].op.kind
        mark = self._shard_clock(shard)
        if kind == "query":
            keys = [r.op.key for r in run]
            if hasattr(table, "get_many"):
                out = table.get_many(keys)
            else:
                out = [table.query(k) for k in keys]
        elif kind == "insert":
            items = [(r.op.key, r.op.value) for r in run]
            if hasattr(table, "put_many"):
                out = table.put_many(items)
            else:
                out = [table.insert(k, v) for k, v in items]
        elif kind == "update":
            out = [table.update(r.op.key, r.op.value) for r in run]
        elif kind == "delete":
            keys = [r.op.key for r in run]
            if hasattr(table, "delete_many"):
                out = table.delete_many(keys)
            else:
                out = [table.delete(k) for k in keys]
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        return out, self._shard_clock(shard) - mark

    # ------------------------------------------------------------------
    # control plane

    def locate(self, shard: int, key: bytes) -> tuple[int, int] | None:
        """(shard, segment info address) currently serving ``key`` —
        cost-free (volatile directory peek); ``None`` when the shard's
        table type has no addressable segments to hint at."""
        table = self.table.tables[shard]
        if hasattr(table, "segment_addr"):
            return (shard, table.segment_addr(key))
        return None
