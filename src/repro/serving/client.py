"""Simulated serving clients: location caching over the routed path.

M logical clients drive one :class:`~repro.serving.router.Router` on
the concurrency layer's :class:`~repro.concurrency.kernel.Kernel`
(DESIGN.md decision 14): each client is a *step generator* yielding the
simulated nanoseconds its current step consumed, and the kernel always
resumes the client with the smallest simulated clock (ties broken by a
seeded permutation). Doorbell events — batch-full and batch-timer
flushes — are the kernel's timed events and fire before any client
whose clock has passed them; a client that submitted a routed request
blocks until the flush delivers its reply. The whole run (interleaving,
queue contents, op results, final table bytes) is therefore a pure
function of (table, streams, parameters, seed).

Each client keeps a **location cache**: key → (shard, segment info
address), fed from the location the router reports with every routed
reply. A later query for a hinted key takes the one-sided fast path —
pay the wire cost, probe that exact segment directly (its simulated NVM
cost lands on the client's clock), and skip the shard queue entirely.
Hints go stale when a segment split moves the key; the protocol is
*miss-and-retry*: splits sweep moved tenants out of the victim segment
and updates are in-place, so a stale hint can only ever **miss** —
never return a wrong value — and a hinted miss invalidates the hint and
re-routes through the server, whose reply re-primes the cache. A
:class:`~repro.concurrency.oracle.ShadowOracle` checks every one-sided
hit at its linearization point (``wrong_answers`` must stay 0) and
every routed op in flush order, and the final table contents must equal
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.concurrency.kernel import BLOCK, Kernel
from repro.concurrency.oracle import ShadowOracle
from repro.concurrency.scheduler import ClientOp
from repro.obs import LatencyRecorder
from repro.serving.netmodel import NetworkModel
from repro.serving.router import Request, Router


@dataclass
class ServedRecord:
    """One client op as it completed, in completion order.

    ``one_sided`` marks queries answered by the location-cache fast
    path (no server involvement); ``retried`` marks ops that first took
    the fast path, missed on a stale hint, and re-routed."""

    client: int
    op_index: int
    op: ClientOp
    issue_ns: float
    done_ns: float
    ok: bool
    found: bytes | None = None
    one_sided: bool = False
    retried: bool = False


@dataclass
class ServingResult:
    """Everything one serving run produced.

    ``check_failures`` non-empty (or ``wrong_answers`` non-zero) means
    the serving protocol itself is broken — callers should treat the
    run as failed, not as a slow run."""

    n_clients: int
    #: ops submitted across all clients
    ops: int
    #: completed ops in completion order
    committed: list[ServedRecord]
    #: per-client end-to-end latency (wire + queue + service)
    per_client: list[LatencyRecorder]
    overall: LatencyRecorder
    #: simulated wall-clock span of the whole run (max client clock)
    span_ns: float
    #: queries answered by the one-sided location-cache fast path
    one_sided_reads: int = 0
    #: requests that went through the router queues
    routed_ops: int = 0
    #: hinted probes that missed (stale or swept hints, then re-routed)
    hint_misses: int = 0
    #: one-sided hits that disagreed with the shadow — must be 0
    wrong_answers: int = 0
    #: ops that legitimately failed (e.g. insert into a full shard)
    failed_ops: int = 0
    #: router flush count across all shards
    flushes: int = 0
    #: ops executed through flushes (mean batch = batched_ops/flushes)
    batched_ops: int = 0
    #: deepest any shard queue got
    max_queue_depth: int = 0
    #: shadow-model violations (must be empty)
    check_failures: list[str] = field(default_factory=list)
    #: flight-recorder dump (last-N ops per client) captured when a
    #: shadow check failed; ``None`` on clean runs or when no recorder
    #: was attached
    failure_context: dict | None = None

    @property
    def ok(self) -> bool:
        """Whether the shadow checks all passed."""
        return not self.check_failures and self.wrong_answers == 0

    def throughput_kops(self) -> float:
        """Completed ops per simulated millisecond (kops/s simulated)."""
        if self.span_ns <= 0:
            return 0.0
        return len(self.committed) / self.span_ns * 1e6

    def mean_batch(self) -> float:
        """Average ops per flush."""
        return self.batched_ops / self.flushes if self.flushes else 0.0


class _ServingDriver:
    """One run's mutable state; :func:`run_serving` drives it."""

    def __init__(
        self,
        router,
        streams,
        *,
        location_cache,
        seed,
        shadow,
        metrics,
        timeline,
        recorder,
    ) -> None:
        table = router.table
        self.router = router
        self.table = table
        self.streams = streams
        self.use_cache = location_cache
        self.metrics = metrics
        self.timeline = timeline
        self.recorder = recorder
        # ``serving.*`` instruments of ``metrics``, each bound at its
        # first record (one nothing recorded is never created)
        self._one_sided = self._hint_misses = self._latency = None
        self.oracle = ShadowOracle(shadow if shadow is not None else table.items())
        n = len(streams)
        self.kernel = Kernel(n, seed, salt=0x5E21)
        self.clock = self.kernel.clock
        self.caches: list[dict[bytes, tuple[int, int]]] = [{} for _ in range(n)]
        self.per_client = [LatencyRecorder() for _ in range(n)]
        self.overall = LatencyRecorder()
        self.committed: list[ServedRecord] = []
        self.one_sided_reads = 0
        self.routed_ops = 0
        self.hint_misses = 0
        self.wrong_answers = 0
        spec = table.spec
        self._read_bytes = spec.key_size
        self._write_bytes = spec.key_size + spec.value_size
        self._value_bytes = spec.value_size

    # ------------------------------------------------------------------
    # client op generators (each yields simulated-ns step costs)

    def _client_gen(self, client: int, stream):
        """The whole life of one client: its ops, in order."""
        net = self.router.net
        cache = self.caches[client]
        for op_index, op in enumerate(stream):
            issue = self.clock[client]
            retried = False
            if self.use_cache and op.kind == "query":
                hint = cache.get(op.key)
                if hint is not None:
                    # one-sided fast path: wire out+back, then probe the
                    # hinted segment directly — no queue, no server CPU
                    yield net.one_sided_read_ns(self._value_bytes)
                    value, probe_cost = self._one_sided_probe(hint, op.key)
                    self.one_sided_reads += 1
                    if self.metrics is not None:
                        counter = self._one_sided
                        if counter is None:
                            counter = self._one_sided = self.metrics.counter(
                                "serving.one_sided"
                            )
                        counter.inc()
                    yield probe_cost
                    if value is not None:
                        # a one-sided hit linearizes at its probe
                        if not self.oracle.check_read(
                            client, "one-sided read", op.key, value
                        ):
                            self.wrong_answers += 1
                        self._commit(
                            client, op_index, op, issue,
                            ok=True, found=value, one_sided=True,
                        )
                        continue
                    # stale (or swept) hint: invalidate and re-route —
                    # the miss-and-retry protocol never trusts a miss
                    self.hint_misses += 1
                    retried = True
                    del cache[op.key]
                    if self.metrics is not None:
                        counter = self._hint_misses
                        if counter is None:
                            counter = self._hint_misses = self.metrics.counter(
                                "serving.hint_misses"
                            )
                        counter.inc()
            payload = (
                self._write_bytes
                if op.kind in ("insert", "update")
                else self._read_bytes
            )
            yield net.request_ns(payload)
            # enqueue at the client's clock, arm whatever doorbell that
            # produced, and block until the flush delivers the reply
            shard = self.router.shard_of(op.key)
            request = Request(client, op_index, op, self.clock[client])
            event = self.router.enqueue(shard, request)
            self.routed_ops += 1
            if event is not None:
                self.kernel.at(event[1], (shard, event))
            ok, found, location = yield BLOCK
            if self.use_cache and location is not None and op.kind != "delete":
                cache[op.key] = location
            elif op.kind == "delete":
                cache.pop(op.key, None)
            self._commit(
                client, op_index, op, issue,
                ok=ok, found=found, retried=retried,
            )

    def _one_sided_probe(
        self, hint: tuple[int, int], key: bytes
    ) -> tuple[bytes | None, float]:
        """Read ``key`` directly from the hinted segment, metering the
        probe's simulated NVM cost (charged to the client — a one-sided
        read involves no server CPU and no ``busy_until``)."""
        shard, seg_addr = hint
        table = self.router.table.tables[shard]
        target = table.segment_at(seg_addr) if hasattr(table, "segment_at") else table
        if target is None:
            # the segment address no longer names a live segment
            return None, 0.0
        mark = self.router._shard_clock(shard)
        value = target.query(key)
        return value, self.router._shard_clock(shard) - mark

    # ------------------------------------------------------------------
    # bookkeeping

    def _commit(
        self,
        client: int,
        op_index: int,
        op: ClientOp,
        issue: float,
        *,
        ok: bool,
        found: bytes | None = None,
        one_sided: bool = False,
        retried: bool = False,
    ) -> None:
        done = self.clock[client]
        record = ServedRecord(
            client=client,
            op_index=op_index,
            op=op,
            issue_ns=issue,
            done_ns=done,
            ok=ok,
            found=found,
            one_sided=one_sided,
            retried=retried,
        )
        self.committed.append(record)
        latency = done - issue
        index = len(self.committed) - 1
        self.per_client[client].record(latency, index)
        self.overall.record(latency, index)
        if self.metrics is not None:
            hist = self._latency
            if hist is None:
                hist = self._latency = self.metrics.histogram("serving.latency")
            hist.record(latency)
        if self.timeline is not None:
            self.timeline.observe("latency", done, latency)
            self.timeline.inc("ops", done)
        if self.recorder is not None:
            self.recorder.record_op(
                client,
                index=op_index,
                kind=op.kind,
                key=op.key.hex(),
                ok=ok,
                latency_ns=latency,
                commit=index,
                one_sided=one_sided,
            )

    # ------------------------------------------------------------------
    # doorbells (the kernel's timed events)

    def _on_doorbell(self, t_ns: float, armed: tuple[int, tuple]) -> None:
        """Fire one router doorbell (``("flush", t)`` or ``("timer", t,
        generation)``) unless a flush already retired that timer: run
        the shard flush, apply the oracle in execution order, deliver
        replies (waking their clients at the delivery time) and arm the
        shard's next doorbell."""
        shard, event = armed
        if event[0] == "timer" and not self.router.timer_valid(shard, event[2]):
            return
        replies, followup = self.router.flush(shard, t_ns)
        if followup is not None:
            self.kernel.at(followup[1], (shard, followup))
        oracle = self.oracle
        for reply in replies:
            request = reply.request
            op, result = request.op, reply.result
            if op.kind == "query":
                oracle.check_read(request.client, "routed query", op.key, result)
                payload = (True, result, reply.location)
            else:
                oracle.apply(op.kind, op.key, op.value, bool(result))
                payload = (bool(result), None, reply.location)
            self.kernel.wake(request.client, reply.delivery_ns, payload)

    def run(self) -> ServingResult:
        """Drive every client to completion and run the final check."""
        self.kernel.run(
            [
                self._client_gen(client, stream)
                for client, stream in enumerate(self.streams)
            ],
            self._on_doorbell,
        )
        oracle = self.oracle
        oracle.diff(self.table.items())
        failure_context = None
        if self.recorder is not None and (oracle.failures or self.wrong_answers):
            failure_context = self.recorder.dump()
        return ServingResult(
            n_clients=len(self.streams),
            ops=sum(len(s) for s in self.streams),
            committed=self.committed,
            per_client=self.per_client,
            overall=self.overall,
            span_ns=max(self.clock),
            one_sided_reads=self.one_sided_reads,
            routed_ops=self.routed_ops,
            hint_misses=self.hint_misses,
            wrong_answers=self.wrong_answers,
            failed_ops=oracle.failed_ops,
            flushes=self.router.flushes,
            batched_ops=self.router.batched_ops,
            max_queue_depth=self.router.max_queue_depth,
            check_failures=oracle.failures,
            failure_context=failure_context,
        )


def run_serving(
    table,
    streams: list[list[ClientOp]],
    *,
    net: NetworkModel,
    batch_max: int = 8,
    batch_wait_ns: float = 4000.0,
    wakeup_ns: float = 1500.0,
    dispatch_ns: float = 250.0,
    location_cache: bool = True,
    seed: int = 42,
    shadow: dict[bytes, bytes] | None = None,
    metrics=None,
    timeline=None,
    recorder=None,
) -> ServingResult:
    """Serve ``streams`` (one op list per remote client) against a
    :class:`~repro.core.ShardedTable` through the batching router.

    ``net`` prices the wire (see :mod:`repro.serving.netmodel`);
    ``batch_max`` / ``batch_wait_ns`` set the doorbell;
    ``wakeup_ns`` / ``dispatch_ns`` price the server CPU (per flush and
    per request — see :class:`~repro.serving.router.Router`); turning
    ``location_cache`` off forces every query through the routed path
    (the caching ablation). ``metrics`` / ``timeline`` receive
    ``serving.*`` counters, queue-depth gauges and latency channels;
    ``recorder`` (a :class:`~repro.obs.FlightRecorder`) keeps the last-N
    ops per client and is dumped into the result's ``failure_context``
    when a shadow check fails. Attaching any of them changes nothing
    about the interleaving. The result
    is a pure function of the arguments: same table state + streams +
    parameters + seed ⇒ identical interleaving, queue-depth timeline
    and final table bytes."""
    router = Router(
        table,
        net,
        batch_max=batch_max,
        batch_wait_ns=batch_wait_ns,
        wakeup_ns=wakeup_ns,
        dispatch_ns=dispatch_ns,
        metrics=metrics,
        timeline=timeline,
    )
    driver = _ServingDriver(
        router,
        streams,
        location_cache=location_cache,
        seed=seed,
        shadow=shadow,
        metrics=metrics,
        timeline=timeline,
        recorder=recorder,
    )
    return driver.run()
