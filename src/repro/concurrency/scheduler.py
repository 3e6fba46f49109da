"""The deterministic N-client contention scheduler.

Real threads would make every run a different run (and under the GIL
they would not even overlap simulated work); instead each logical
client is a *step generator* over its op stream, yielding the simulated
nanoseconds each step consumed, run on the shared
:class:`~repro.concurrency.kernel.Kernel` (smallest clock first, ties
broken by a seeded permutation, no timed events). Context switches
therefore happen exactly at simulated-clock boundaries and the whole
run — interleaving, op results, final table bytes — is a pure function
of (table, streams, seed). DESIGN.md decision 14 spells out the
argument.

Steps are chosen so the interesting races are observable:

- a **writer** spins (with simulated backoff) until it holds every
  candidate stripe of its key, yields *while holding* (so readers can
  observe the odd version), applies the table op — metered via the
  region's simulated clock — and releases only after the op's cost has
  elapsed on its own clock;
- an optimistic **reader** snapshots the stripe versions, yields,
  aborts on an odd version, consults the fingerprint tags (a definite
  miss skips the NVM probe), probes, yields, and re-validates the
  snapshot — a changed version means a writer committed inside the
  read window and the read retries from scratch.

The scheduler owns per-client cost attribution (a backend observer
tags every write/flush/fence with the running client), per-client
latency recorders, abort/retry counters (mirrored into an optional
:class:`~repro.obs.MetricsRegistry`), and the fingerprint tags; a
:class:`~repro.concurrency.oracle.ShadowOracle` applied in physical
commit order checks every query at its linearization point and the
final table contents exactly — a lost update fails the run rather than
producing plausible throughput numbers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.concurrency.kernel import Kernel
from repro.concurrency.locks import VersionedLockTable, fingerprint_of
from repro.concurrency.oracle import ShadowOracle
from repro.nvm.memory import NVMRegion
from repro.obs import LatencyRecorder

#: simulated ns one failed lock acquisition spin costs (a cacheline ping)
SPIN_NS = 60.0
#: simulated ns an aborted optimistic read backs off before retrying
BACKOFF_NS = 120.0
#: nominal simulated ns per persist event on backends without a costed
#: clock (RawBackend) — keeps the interleaver deterministic there too
RAW_EVENT_NS = 100.0
#: hard cap on lock spins / read retries per op (a deterministic
#: scheduler bug would otherwise livelock silently)
MAX_ATTEMPTS = 100_000

#: op kinds that take a stripe lock (everything but "query")
WRITE_KINDS = frozenset({"insert", "update", "delete"})


@dataclass(frozen=True)
class ClientOp:
    """One logical operation a client submits.

    ``kind`` is "insert" | "query" | "update" | "delete"; ``value`` is
    required for inserts and updates."""

    kind: str
    key: bytes
    value: bytes | None = None


@dataclass
class CommitRecord:
    """One op as it committed, in physical (serialization) order.

    ``issue_ns`` is the client's clock when it submitted the op,
    ``start_ns`` when the table work began (after lock waits and read
    retries), ``end_ns`` when the op's simulated cost had elapsed.
    ``concurrent`` marks ops whose ``[issue_ns, end_ns]`` window
    overlapped another client's in-flight op — the crash matrix uses
    exactly this flag to aim boundaries between two clients' ops."""

    client: int
    op_index: int
    op: ClientOp
    issue_ns: float
    start_ns: float
    end_ns: float
    ok: bool
    found: bytes | None = None
    concurrent: bool = False


@dataclass
class ConcurrentRunResult:
    """Everything one scheduler run produced.

    ``check_failures`` non-empty (or ``lost_updates`` non-zero) means
    the concurrency control itself is broken — callers should treat the
    run as failed, not as a slow run."""

    n_clients: int
    #: ops submitted across all clients
    ops: int
    #: committed ops in physical order (queries linearize at validation)
    committed: list[CommitRecord]
    #: per-client end-to-end latency (includes waits/retries)
    per_client: list[LatencyRecorder]
    overall: LatencyRecorder
    #: simulated wall-clock span of the whole run (max client clock)
    span_ns: float
    #: optimistic reads that began while a writer held a stripe
    read_aborts: int = 0
    #: optimistic reads whose version snapshot changed across the probe
    read_retries: int = 0
    #: failed writer lock acquisitions (spins)
    lock_waits: int = 0
    #: simulated ns writers spent spinning/backing off
    lock_wait_ns: float = 0.0
    #: reads answered by the fingerprint tags without touching NVM
    fp_skips: int = 0
    #: ops that legitimately failed (e.g. insert into a full table)
    failed_ops: int = 0
    #: committed updates whose effect the table lost (must be 0)
    lost_updates: int = 0
    #: shadow-model violations (must be empty)
    check_failures: list[str] = field(default_factory=list)
    #: per-client persist-event attribution from the backend observer
    client_events: list[dict] = field(default_factory=list)
    #: flight-recorder dump (last-N ops per client + recent persist
    #: events) captured when a shadow check failed; ``None`` on clean
    #: runs or when no recorder was attached
    failure_context: dict | None = None

    @property
    def ok(self) -> bool:
        """Whether the shadow checks all passed."""
        return not self.check_failures and self.lost_updates == 0

    def throughput_kops(self) -> float:
        """Committed ops per simulated millisecond (kops/s simulated)."""
        if self.span_ns <= 0:
            return 0.0
        return len(self.committed) / self.span_ns * 1e6


def table_digest(table) -> str:
    """SHA-256 over the table's sorted contents — the "final table
    bytes" witness the determinism tests and gates compare."""
    digest = hashlib.sha256()
    for key, value in sorted(table.items()):
        digest.update(key)
        digest.update(value)
    return digest.hexdigest()


class _Scheduler:
    """One run's mutable state; :func:`run_concurrent` drives it."""

    def __init__(
        self,
        table,
        streams,
        *,
        seed,
        shadow,
        metrics,
        timeline=None,
        recorder=None,
    ) -> None:
        self.table = table
        self.region = table.region
        self.streams = streams
        self.metrics = metrics
        self.timeline = timeline
        self.recorder = recorder
        self.locks = VersionedLockTable(table.n_lock_stripes)
        self.oracle = ShadowOracle(shadow if shadow is not None else table.items())
        # seed the fingerprint tags from what is actually resident
        for key in self.oracle.shadow:
            self.locks.fp_add(table.lock_stripes(key)[0], fingerprint_of(key))
        n = len(streams)
        self.kernel = Kernel(n, seed, salt=0xC10C)
        self.clock = self.kernel.clock
        self.per_client = [LatencyRecorder() for _ in range(n)]
        self.overall = LatencyRecorder()
        self.client_events = [
            {"write": 0, "flush": 0, "fence": 0, "bytes": 0} for _ in range(n)
        ]
        self.committed: list[CommitRecord] = []
        self.read_aborts = 0
        self.read_retries = 0
        self.lock_waits = 0
        self.lock_wait_ns = 0.0
        self.fp_skips = 0
        # only the costed simulator advances sim_time_ns; every other
        # backend gets the deterministic per-event surrogate clock
        stats = getattr(self.region, "stats", None)
        self._stats = stats if isinstance(self.region, NVMRegion) else None
        self._raw_ns = 0.0
        # sink names resolved once per run; a client's latency histogram
        # is bound at its first commit, so one that never commits is
        # never created
        self._latency_hists: list = [None] * n
        self._ops_channels = [f"client{client}.ops" for client in range(n)]

    # ------------------------------------------------------------------
    # clock + event attribution

    def _now(self) -> float:
        """The region's simulated clock (event-count surrogate on
        backends without one)."""
        if self._stats is not None:
            return float(self._stats.sim_time_ns)
        return self._raw_ns

    def _on_event(self, kind: str, addr: int, size: int) -> None:
        """Backend observer: attribute the event to the running client
        (and, on un-costed backends, charge :data:`RAW_EVENT_NS`)."""
        client = self.kernel.running
        if client is not None:
            events = self.client_events[client]
            events[kind] = events.get(kind, 0) + 1
            if kind == "write":
                events["bytes"] += size
        timeline, recorder = self.timeline, self.recorder
        if timeline is not None or recorder is not None:
            now = self._now()
            if timeline is not None:
                timeline.record_event(kind, now, addr, size)
            if recorder is not None:
                recorder.record_event(kind=kind, addr=addr, client=client, t_ns=now)
        if self._stats is None:
            self._raw_ns += RAW_EVENT_NS

    def _count(self, name: str, n: int = 1) -> None:
        """Bump a ``ccl.*`` counter in the attached registry (and the
        matching per-window timeline channel), if attached."""
        if self.metrics is not None:
            self.metrics.counter(name).inc(n)
        if self.timeline is not None:
            # "ccl.read_aborts" -> per-window "read_aborts" channel
            self.timeline.inc(name.rsplit(".", 1)[-1], self._now(), n)

    # ------------------------------------------------------------------
    # client op generators (each yields simulated-ns step costs)

    def _client_gen(self, client: int, stream):
        """The whole life of one client: its ops, in order."""
        for op_index, op in enumerate(stream):
            if op.kind == "query":
                yield from self._read(client, op_index, op)
            elif op.kind in WRITE_KINDS:
                yield from self._write(client, op_index, op)
            else:
                raise ValueError(f"unknown op kind {op.kind!r}")

    def _write(self, client: int, op_index: int, op: ClientOp):
        """Writer protocol: acquire every candidate stripe (sorted, so
        two writers can never deadlock), apply under the lock, release
        once the op's cost has elapsed."""
        issue = self.clock[client]
        stripes = self.table.lock_stripes(op.key)
        held: list[int] = []
        for stripe in stripes:
            attempts = 0
            while not self.locks.try_acquire(stripe, client):
                self.lock_waits += 1
                self._count("ccl.lock_waits")
                attempts += 1
                if attempts > MAX_ATTEMPTS:
                    raise RuntimeError(
                        f"client {client} livelocked on stripe {stripe}"
                    )
                yield SPIN_NS
            held.append(stripe)
            # boundary: the stripe is now visibly held (readers that run
            # here observe the odd version and abort)
            yield 0.0
        start = self.clock[client]
        self.lock_wait_ns += start - issue
        mark = self._now()
        ok = self._apply_write(op)
        cost = self._now() - mark
        record = CommitRecord(
            client=client,
            op_index=op_index,
            op=op,
            issue_ns=issue,
            start_ns=start,
            end_ns=start + cost,
            ok=ok,
        )
        self.committed.append(record)
        yield cost
        # the lock is held for the op's full duration: release only
        # after the cost elapsed on this client's clock
        for stripe in reversed(held):
            self.locks.release(stripe)
        self._record_latency(client, record)

    def _read(self, client: int, op_index: int, op: ClientOp):
        """Optimistic reader: snapshot versions, probe (or fingerprint
        short-circuit), validate the snapshot, retry on conflict."""
        issue = self.clock[client]
        stripes = self.table.lock_stripes(op.key)
        fp = fingerprint_of(op.key)
        attempts = 0
        while True:
            attempts += 1
            if attempts > MAX_ATTEMPTS:
                raise RuntimeError(f"client {client} read livelocked")
            snap = self.locks.snapshot(stripes)
            yield 0.0
            if any(version & 1 for version in snap):
                self.read_aborts += 1
                self._count("ccl.read_aborts")
                yield BACKOFF_NS
                continue
            if not self.locks.fp_may_contain(stripes[0], fp):
                # definite miss: no resident key carries this tag
                self.fp_skips += 1
                self._count("ccl.fp_skips")
                found = None
                cost = 0.0
            else:
                mark = self._now()
                found = self.table.query(op.key)
                cost = self._now() - mark
            yield cost
            if self.locks.snapshot(stripes) != snap:
                self.read_retries += 1
                self._count("ccl.read_retries")
                yield BACKOFF_NS
                continue
            # validated: the read linearizes here, against the shadow
            self.oracle.check_read(client, "query", op.key, found)
            end = self.clock[client]
            record = CommitRecord(
                client=client,
                op_index=op_index,
                op=op,
                issue_ns=issue,
                start_ns=end - cost,
                end_ns=end,
                ok=True,
                found=found,
            )
            self.committed.append(record)
            self._record_latency(client, record)
            return

    def _apply_write(self, op: ClientOp) -> bool:
        """Apply one write to the table and the oracle, keeping the
        fingerprint tags in step with the keys that are live."""
        table, key = self.table, op.key
        live = key in self.oracle.shadow
        if op.kind == "insert":
            ok = table.insert(key, op.value)
            if ok and not live:
                self.locks.fp_add(table.lock_stripes(key)[0], fingerprint_of(key))
        elif op.kind == "update":
            ok = table.update(key, op.value)
        else:  # delete
            ok = table.delete(key)
            if ok and live:
                self.locks.fp_remove(table.lock_stripes(key)[0], fingerprint_of(key))
        self.oracle.apply(op.kind, key, op.value, ok)
        return ok

    def _record_latency(self, client: int, record: CommitRecord) -> None:
        """Feed one op's end-to-end latency to the recorders/registry
        and, when attached, the per-window timeline and flight
        recorder."""
        latency = self.clock[client] - record.issue_ns
        index = len(self.committed) - 1
        self.per_client[client].record(latency, index)
        self.overall.record(latency, index)
        metrics = self.metrics
        if metrics is not None:
            hist = self._latency_hists[client]
            if hist is None:
                hist = self._latency_hists[client] = metrics.histogram(
                    f"ccl.latency.client{client}"
                )
            hist.record(latency)
        timeline = self.timeline
        if timeline is not None:
            now = self._now()
            timeline.observe("latency", now, latency)
            timeline.inc("ops", now)
            timeline.inc(self._ops_channels[client], now)
            load = getattr(self.table, "load_factor", None)
            if load is not None:
                timeline.set_gauge("occupancy", now, load)
        if self.recorder is not None:
            self.recorder.record_op(
                client,
                index=record.op_index,
                kind=record.op.kind,
                key=record.op.key.hex(),
                ok=record.ok,
                latency_ns=latency,
                commit=index,
            )

    # ------------------------------------------------------------------
    # the run

    def run(self) -> ConcurrentRunResult:
        """Drive every client to completion and run the final checks."""
        generators = [
            self._client_gen(client, stream)
            for client, stream in enumerate(self.streams)
        ]
        observer = self._on_event
        self.region.observe(observer)
        try:
            self.kernel.run(generators)
        finally:
            self.region.unobserve(observer)
        self._mark_concurrent()
        oracle = self.oracle
        oracle.diff(self.table.items())
        failure_context = None
        if self.recorder is not None and (oracle.failures or oracle.lost_updates):
            # the shadow oracle tripped: ship the black box with the
            # verdict so the report carries its last-N-ops context
            failure_context = self.recorder.dump()
        return ConcurrentRunResult(
            n_clients=len(self.streams),
            ops=sum(len(s) for s in self.streams),
            committed=self.committed,
            per_client=self.per_client,
            overall=self.overall,
            span_ns=max(self.clock),
            read_aborts=self.read_aborts,
            read_retries=self.read_retries,
            lock_waits=self.lock_waits,
            lock_wait_ns=self.lock_wait_ns,
            fp_skips=self.fp_skips,
            failed_ops=oracle.failed_ops,
            lost_updates=oracle.lost_updates,
            check_failures=oracle.failures,
            client_events=self.client_events,
            failure_context=failure_context,
        )

    def _mark_concurrent(self) -> None:
        """Flag every committed op whose window overlapped another
        client's in-flight op (open-interval overlap on the simulated
        clock)."""
        active: list[CommitRecord] = []
        for record in sorted(self.committed, key=lambda r: (r.issue_ns, r.end_ns)):
            active = [a for a in active if a.end_ns > record.issue_ns]
            for other in active:
                if other.client != record.client:
                    other.concurrent = True
                    record.concurrent = True
            active.append(record)


def run_concurrent(
    table,
    streams: list[list[ClientOp]],
    *,
    seed: int = 42,
    shadow: dict[bytes, bytes] | None = None,
    metrics=None,
    timeline=None,
    recorder=None,
) -> ConcurrentRunResult:
    """Run ``streams`` (one op list per logical client) against
    ``table`` under the deterministic interleaver.

    ``shadow`` seeds the lost-update oracle with the table's current
    contents (defaults to a cost-free ``items()`` peek). ``metrics``
    optionally receives ``ccl.*`` abort/retry counters and per-client
    latency histograms. ``timeline`` (a
    :class:`~repro.obs.WindowSeries`) receives per-window ops/latency/
    abort/retry/lock-wait channels, per-client op counts, persist-event
    rates and the occupancy gauge; ``recorder`` (a
    :class:`~repro.obs.FlightRecorder`) keeps the last-N ops per client
    and is dumped into the result's ``failure_context`` when a shadow
    check fails. All sinks purely observe — attaching them leaves the
    interleaving and the simulated event stream byte-identical. The
    result is a pure function of the arguments: same table state +
    streams + seed ⇒ identical interleaving, op results and final
    table bytes."""
    scheduler = _Scheduler(
        table,
        streams,
        seed=seed,
        shadow=shadow,
        metrics=metrics,
        timeline=timeline,
        recorder=recorder,
    )
    return scheduler.run()
