"""The five perfbench workloads and the child process that runs one.

Run as ``python perfbench/workloads.py --workload NAME --seed N
--seconds S [--trace] [--smoke]`` with ``src`` on ``PYTHONPATH``
(``run.py`` does this); the last stdout line is a JSON result.

A run repeats *rounds* until ``--seconds`` of measured time have passed.
A round builds and pre-fills a fresh table (timed: ``setup_s``), runs
the workload's operations (timed: the phase), power-fails the table
inside a batch of fresh puts, reattaches and recovers it (timed:
``recover_s``), and finally checks every result (untimed). Every round
of a run executes the same inputs, so its simulated numbers must be
identical from round to round; a difference counts as a failure.

Inputs: each workload's data set (the pre-fill, and the keys a growing
table is filled with) is fixed; ``--seed`` draws the request streams,
the crash point and the crash schedule, as a YCSB run loads one data
set and varies the request sequence. The simulated and counted
end-to-end metrics (:data:`DETERMINISTIC`) come instead from one extra,
untimed round on the requests of :data:`REFERENCE_SEED`, whatever the
``--seed``: they are then a pure function of the program, so a bound of
float noise can gate them even where runs of different seeds are
compared. The seed's own rounds must still agree with each other.

Wall clock: the host's speed swings by up to 2x within seconds, the
same for every workload. A :class:`SpeedProbe` therefore times a short
fixed reference loop about every 20 ms of each round, from harness code
the workload runs anyway, and keeps that time out of every measurement.
Every wall time is scaled to the speed at which the loop takes
:data:`REFERENCE_NS`: a latency by the sample taken just before it, a
phase by the mean of the samples taken during it (see README.md). The
unscaled phase times are kept in the JSON result's ``rounds``.

With ``--trace`` the rounds alternate: untraced rounds give the
end-to-end numbers and the wall time the tracing overhead is measured
against; traced rounds run inside a :class:`layers.LayerTracer` and give
the per-layer breakdown. The program is driven only through the public
``repro`` API; nothing is imported from ``repro.bench``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import itertools
import json
import math
import os
import random
import resource
import statistics
import sys
import time

import repro
from repro import (
    CacheConfig,
    DirectoryTable,
    GroupHashTable,
    ItemSpec,
    MemStats,
    NVMRegion,
    RawBackend,
    ShardedTable,
    SimConfig,
    SimulatedPowerFailure,
    TECHNOLOGY_PRESETS,
    random_schedule,
)
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    Tracer,
    WindowSampler,
    WindowSeries,
)

from layers import LayerTracer

SPEC = ItemSpec(8, 8)
CELL_BYTES = 24  # 8-byte header + 8-byte key + 8-byte value
LATENCY = TECHNOLOGY_PRESETS["paper-nvm"]
#: a simulated table's cache holds 1/CACHE_RATIO of its cell bytes
#: (``grow-batch`` sizes its own cache to hold the whole region)
CACHE_RATIO = 8
#: items :func:`reference_loop` inserts and reads back
REFERENCE_ITEMS = 500
#: mean time of one :func:`reference_loop` on the machine the bounds
#: were set on (Intel Xeon VM, 2 vCPUs, Python 3.11) when the host runs fast
REFERENCE_NS = 400_000
#: wall time between two speed samples during a round
PROBE_INTERVAL_NS = 20_000_000
#: recoveries per round (the first one of the crashed table); the
#: recovery time is their median
RECOVERIES = 9
#: the seed whose requests the simulated end-to-end metrics are taken on
REFERENCE_SEED = 0

#: end-to-end metrics that are simulated or counted: taken from the
#: reference round, so identical in every run of the same program
DETERMINISTIC = (
    "sim_ns_per_op",
    "sim_p99_ns",
    "sim_kops",
    "flushes_per_op",
    "nvm_line_writes_per_op",
    "recover_sim_ns",
    "bytes_per_item",
)

#: per-layer counts read from the program's public counters (0 where a
#: workload has none)
COUNTERS = (
    "nvm.memory.reads_per_op",
    "nvm.memory.writes_per_op",
    "nvm.memory.fences_per_op",
    "nvm.cache.miss_ratio",
    "nvm.cache.evictions_per_op",
    "core.directory.splits",
    "core.directory.doublings",
    "concurrency.scheduler.read_aborts_per_op",
    "concurrency.scheduler.read_retries_per_op",
    "concurrency.scheduler.lock_waits_per_op",
    "concurrency.scheduler.fp_skip_share",
    "serving.client.one_sided_share",
    "serving.client.hint_miss_ratio",
    "serving.router.mean_batch",
    "serving.router.max_queue_depth",
    "nvm.crashpoint.points",
    "nvm.crashpoint.replays_per_point",
)

perf = time.perf_counter_ns


# ----------------------------------------------------------------------
# inputs and helpers


def make_rng(workload: str, seed: int | str, purpose: str) -> random.Random:
    """Generator for one input stream of one workload."""
    return random.Random(f"perfbench:{workload}:{seed}:{purpose}")


class KeySource:
    """Distinct random 8-byte keys (never one in ``taken``) and values."""

    def __init__(self, rng: random.Random, taken=()) -> None:
        self.rng = rng
        self.used: set[bytes] = set(taken)

    def key(self) -> bytes:
        while True:
            key = self.rng.getrandbits(64).to_bytes(8, "little")
            if key not in self.used:
                self.used.add(key)
                return key

    def value(self) -> bytes:
        return self.rng.getrandbits(64).to_bytes(8, "little")

    def items(self, n: int) -> list[tuple[bytes, bytes]]:
        return [(self.key(), self.value()) for _ in range(n)]


class Zipf:
    """Zipfian ranks ``0..n-1`` with skew ``theta`` (rank 0 hottest)."""

    def __init__(self, n: int, theta: float = 0.99) -> None:
        self.cum = list(itertools.accumulate(1.0 / (i + 1) ** theta for i in range(n)))
        self.total = self.cum[-1]

    def rank(self, rng: random.Random) -> int:
        return bisect.bisect_left(self.cum, rng.random() * self.total)


def reference_loop() -> int:
    """A fixed pure-Python loop (hashing, dict, bytes and int work, like
    the program's) whose duration tracks the host's current speed."""
    table = {}
    for i in range(REFERENCE_ITEMS):
        key = (i * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
        table[key] = bytearray(key + key)
    total = 0
    for key in table:
        value = table.get(key)
        total += value[3] + len(value[4:12]) + int.from_bytes(key[:4], "little") % 7
    return total


class SpeedProbe:
    """Samples the host's speed through a round.

    :meth:`tick` runs :func:`reference_loop` once at least
    :data:`PROBE_INTERVAL_NS` has passed since the last sample; the
    workload calls it often from its own code. :meth:`now` is a wall
    clock that stops while a sample runs, so probing costs the
    measurements nothing. A sample's *factor* converts wall time spent
    then to time at the reference speed (below 1 when the host ran
    slow); work done is the time-average of speed, so a window's scale
    is the mean factor of the samples taken in it."""

    def __init__(self) -> None:
        self.factors: list[float] = []
        #: factor of the latest sample
        self.factor = 1.0
        self.spent = 0
        self.due = 0

    def sample(self) -> None:
        t = perf()
        reference_loop()
        d = perf() - t
        self.factor = REFERENCE_NS / d
        self.factors.append(self.factor)
        self.spent += d
        self.due = t + d + PROBE_INTERVAL_NS

    def tick(self) -> None:
        if perf() >= self.due:
            self.sample()

    def now(self) -> int:
        return perf() - self.spent

    def scale(self, since: int = 0) -> float:
        """Mean factor of the samples from index ``since`` on."""
        return statistics.fmean(self.factors[since:])

    def timed(self, fn) -> tuple[object, float]:
        """Call ``fn`` between two samples; returns its result and its
        wall ns at the reference speed (the mean factor of those two and
        of any sample ``fn`` ticked)."""
        self.sample()
        mark = len(self.factors) - 1
        t = self.now()
        result = fn()
        d = self.now() - t
        self.sample()
        return result, d * self.scale(mark)


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def sim_cache(table_bytes: int) -> SimConfig:
    """Paper-NVM latencies with a cache of 1/:data:`CACHE_RATIO` of
    ``table_bytes``."""
    return SimConfig(
        latency=LATENCY,
        cache=CacheConfig(size_bytes=max(4096, table_bytes // CACHE_RATIO)),
    )


def region_bytes(cells: int) -> int:
    """Region size for a ``cells``-cell table plus metadata headroom."""
    return int(CELL_BYTES * cells * 1.25) + (1 << 16)


_STATS = ("reads", "writes", "fences", "flushes", "nvm_line_writes",
          "cache_hits", "cache_misses", "evictions", "sim_time_ns")


def stat_delta(after, before) -> dict:
    return {name: getattr(after, name) - getattr(before, name) for name in _STATS}


def memory_counters(delta: dict, ops: int) -> dict:
    """The per-op memory and cache counts of one phase."""
    accesses = delta["cache_hits"] + delta["cache_misses"]
    return {
        "nvm.memory.reads_per_op": delta["reads"] / ops,
        "nvm.memory.writes_per_op": delta["writes"] / ops,
        "nvm.memory.fences_per_op": delta["fences"] / ops,
        "nvm.cache.miss_ratio": delta["cache_misses"] / accesses if accesses else 0.0,
        "nvm.cache.evictions_per_op": delta["evictions"] / ops,
    }


def sim_metrics(delta: dict, ops: int, latencies, total_ns: float,
                recover_sim_ns: float, bytes_per_item: float) -> dict:
    """Every simulated or counted end-to-end metric of one round: the
    mean per op, p99 over ``latencies`` and kops of ``total_ns``, and
    the per-op counts of ``delta``."""
    return {
        "sim_ns_per_op": total_ns / ops,
        "sim_p99_ns": percentile(latencies, 0.99),
        "sim_kops": ops / total_ns * 1e6,
        "flushes_per_op": delta["flushes"] / ops,
        "nvm_line_writes_per_op": delta["nvm_line_writes"] / ops,
        "recover_sim_ns": recover_sim_ns,
        "bytes_per_item": bytes_per_item,
    }


#: op completions per window of the concurrent workloads' wall latency
WINDOW_OPS = 64


def window_costs(stamps, start: int) -> list[float]:
    """Wall ns per op over windows of :data:`WINDOW_OPS` consecutive op
    completions (any client), scaled by the probe factor at the end of
    each window. ``stamps`` are ``(probe clock, factor)`` per completion."""
    costs = []
    prev = start
    for i in range(WINDOW_OPS - 1, len(stamps), WINDOW_OPS):
        t, factor = stamps[i]
        costs.append((t - prev) * factor / WINDOW_OPS)
        prev = t
    return costs


def torn_put(table, region, items, crash_after: int) -> None:
    """``put_many`` a batch with a power failure armed ``crash_after``
    persistence events into it; the batch is never acknowledged."""
    region.arm_crash(crash_after)
    try:
        table.put_many(items)
    except SimulatedPowerFailure:
        pass
    region.disarm_crash()


def check_contents(r: "Round", got: dict, expected: dict, torn=()) -> None:
    """Every expected item present with its value, nothing else except
    items of the torn batch that survived intact."""
    torn = dict(torn)
    for key, value in expected.items():
        if got.get(key) != value:
            r.fail(f"key {key.hex()} lost or corrupted")
    for key in got.keys() - expected.keys():
        if torn.get(key) != got[key]:
            r.fail(f"phantom or torn key {key.hex()}")


class StampedRecorder(FlightRecorder):
    """Flight recorder that also stamps each op completion on the probe
    clock (for :func:`window_costs`) and ticks the probe."""

    def __init__(self, probe: SpeedProbe) -> None:
        super().__init__()
        self.probe = probe
        self.stamps: list[tuple[int, float]] = []

    def record_op(self, client: int, **fields) -> None:
        self.stamps.append((self.probe.now(), self.probe.factor))
        self.probe.tick()
        super().record_op(client, **fields)


class StampedSeries(WindowSeries):
    """Window series that also stamps each op completion on the probe
    clock (for :func:`window_costs`) and ticks the probe."""

    def __init__(self, window_ns: float, probe: SpeedProbe) -> None:
        super().__init__(window_ns)
        self.probe = probe
        self.stamps: list[tuple[int, float]] = []

    def inc(self, name: str, t_ns: float, n: int = 1) -> None:
        if name == "ops":
            self.stamps.append((self.probe.now(), self.probe.factor))
            self.probe.tick()
        super().inc(name, t_ns, n)


class Round:
    """What one round measured."""

    def __init__(self) -> None:
        self.traced = False
        self.setup_s = 0.0
        #: measured ops (items for batched calls, replays for campaigns)
        self.ops = 0
        #: wall times at the reference speed (the raw phase is kept too)
        self.phase_s = self.phase_raw_s = 0.0
        self.recover_s = 0.0
        #: traced window: phase plus the torn batch, crash and recovery
        self.window_s = 0.0
        #: per-call wall latencies at the reference speed, ns
        #: (summarised after the round)
        self.lat_ns: list[float] = []
        self.p50_ns = self.p99_ns = 0.0
        self.lat_n = 0
        #: mean probe factor of the whole round
        self.scale = 1.0
        self.deterministic: dict = {}
        self.counters: dict = {}
        self.sim_samples = 0
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def fail_many(self, count: int, message: str) -> None:
        """Count ``count`` failures under one message."""
        if count:
            self.failures.append(message)
            self.failures.extend([""] * (count - 1))


class Workload:
    """One workload: inputs made once, then rounds."""

    name = ""
    min_rounds = 3
    #: builds per round; the set-up time is their median
    setup_repeats = 1
    #: benchmark methods the program calls back into; a traced round
    #: charges their time to the harness, not to the calling layer
    callbacks: tuple = ()
    full: dict = {}
    smoke: dict = {}

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.p = dict(self.smoke if smoke else self.full)
        #: the current round's speed probe
        self.probe = SpeedProbe()
        #: recoveries per round (the reference round needs only the first)
        self.recoveries = RECOVERIES
        self.generate()

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def prepare(self) -> tuple[object, float]:
        """Build the round's state; returns it with the set-up seconds."""
        times = []
        for _ in range(self.setup_repeats):
            state, ns = self.probe.timed(self.setup)
            times.append(ns)
        return state, statistics.median(times) / 1e9

    def measure(self, state, r: Round, tracer: LayerTracer | None) -> None:
        raise NotImplementedError

    def begin(self, tracer: LayerTracer | None) -> int:
        """Start the timed window; returns the probe clock."""
        if tracer is not None:
            tracer.begin()
        self.phase_mark = len(self.probe.factors) - 1
        return self.probe.now()

    def phase_end(self, r: Round, t0: int) -> int:
        """End the phase begun at ``t0``; returns the probe clock."""
        t1 = self.probe.now()
        r.phase_raw_s = (t1 - t0) / 1e9
        r.phase_s = r.phase_raw_s * self.probe.scale(self.phase_mark)
        return t1

    def end(self, tracer: LayerTracer | None, r: Round, t0: int) -> None:
        r.window_s = (self.probe.now() - t0) / 1e9
        if tracer is not None:
            tracer.end()

    def recover(self, r: Round, table, sim_clock=lambda: 0.0) -> float:
        """Reattach and recover :attr:`recoveries` times, the first on
        the crashed table; sets ``recover_s`` (median) and returns the
        simulated ns of the first recovery."""
        def reboot():
            table.reattach()
            table.recover()

        times = []
        for i in range(self.recoveries):
            mark = sim_clock()
            _, ns = self.probe.timed(reboot)
            times.append(ns)
            if i == 0:
                sim_ns = sim_clock() - mark
        r.recover_s = statistics.median(times) / 1e9
        return sim_ns

    def verify(self, state, r: Round, first: bool) -> None:
        """Untimed checks after the round; ``first`` asks for the full
        structural check (later rounds repeat identical work)."""

    def reference(self, r: Round) -> None:
        """Play the untimed reference round into ``r``: a whole round,
        checked, with a single recovery."""
        self.recoveries = 1
        state, _ = self.prepare()
        self.measure(state, r, None)
        self.verify(state, r, first=True)

    def rng(self, purpose: str) -> random.Random:
        """Generator drawn from ``--seed``."""
        return make_rng(self.name, self.seed, purpose)

    def data_rng(self, purpose: str) -> random.Random:
        """Generator of the fixed data set."""
        return make_rng(self.name, "data", purpose)

    def torn_batch(self, taken) -> None:
        """Fresh items for the crash at the end of a round, and the
        persistence event the power fails at."""
        rng = self.rng("crash")
        self.torn = KeySource(rng, taken).items(self.p["torn"])
        self.crash_after = rng.randint(8, 4 * self.p["torn"])


# ----------------------------------------------------------------------
# raw-mixed


class RawMixed(Workload):
    """One caller's scalar calls to GroupHashTable on RawBackend."""

    name = "raw-mixed"
    full = dict(cells=1 << 17, group_size=256, load=0.7, ops=250_000,
                sim_ops=10_000, theta=0.99, torn=64)
    smoke = dict(cells=1 << 12, group_size=256, load=0.7, ops=3000,
                 sim_ops=500, theta=0.99, torn=16)
    #: query-hit / query-negative / update / insert / delete shares
    MIX = (0.5, 0.1, 0.2, 0.1, 0.1)

    @staticmethod
    def calls(table) -> tuple:
        """The table methods an op's first field indexes."""
        return table.query, table.update, table.insert, table.delete

    def generate(self) -> None:
        p = self.p
        self.prefill = KeySource(self.data_rng("prefill")).items(
            int(p["cells"] * p["load"])
        )
        live = [key for key, _ in self.prefill]
        # keys the ops inserted that are still live; deletes take these
        # first. Uniform deletes over the whole table drift the level-2
        # groups full (level-1 collisions spill into them and never move
        # back), so a long run fails inserts on some seeds.
        fresh: list[bytes] = []
        shadow = dict(self.prefill)
        rng = self.rng("ops")
        source = KeySource(rng, live)
        zipf = Zipf(len(live), p["theta"])
        edges = list(itertools.accumulate(self.MIX))
        ops = []
        for i in range(p["ops"]):
            u = rng.random()
            if u < edges[0]:
                key = live[zipf.rank(rng) % len(live)]
                ops.append((0, (key,), shadow[key]))
            elif u < edges[1]:
                ops.append((0, (source.key(),), None))
            elif u < edges[2]:
                key = live[zipf.rank(rng) % len(live)]
                value = source.value()
                shadow[key] = value
                ops.append((1, (key, value), True))
            elif u < edges[3]:
                key, value = source.key(), source.value()
                fresh.append(key)
                shadow[key] = value
                ops.append((2, (key, value), True))
            else:
                pool = fresh or live
                index = rng.randrange(len(pool))
                key = pool[index]
                pool[index] = pool[-1]
                pool.pop()
                del shadow[key]
                ops.append((3, (key,), True))
            if i + 1 == p["sim_ops"]:
                self.sim_state = dict(shadow)
        self.ops = ops
        self.final = shadow
        self.torn_batch(source.used)

    def build(self, region):
        table = GroupHashTable(region, self.p["cells"], SPEC,
                               group_size=self.p["group_size"])
        if repro.bulk_load(table, self.prefill):
            raise RuntimeError("pre-fill overflowed a group")
        return table

    def setup(self):
        region = RawBackend(region_bytes(self.p["cells"]))
        return region, self.build(region)

    def measure(self, state, r: Round, tracer) -> None:
        region, table = state
        ops = self.ops
        lat = [0] * len(ops)
        wrong = []
        probe = self.probe
        stats0 = region.stats.snapshot()
        t0 = self.begin(tracer)
        calls = self.calls(table)
        for i, (call, args, expected) in enumerate(ops):
            if not i & 255:
                probe.tick()
                factor = probe.factor
            t = perf()
            got = calls[call](*args)
            lat[i] = (perf() - t) * factor
            if got != expected:
                wrong.append(i)
        self.phase_end(r, t0)
        stats1 = region.stats.snapshot()
        torn_put(table, region, self.torn, self.crash_after)
        region.crash(random_schedule(self.seed))
        self.recover(r, table)
        self.end(tracer, r, t0)
        r.ops = r.attempted = len(ops)
        r.lat_ns = lat
        r.fail_many(len(wrong), f"{len(wrong)} ops returned a wrong result"
                    + (f", first op {wrong[0]}" if wrong else ""))
        delta = stat_delta(stats1, stats0)
        r.deterministic = {
            "flushes_per_op": delta["flushes"] / len(ops),
            "nvm_line_writes_per_op": delta["nvm_line_writes"] / len(ops),
            "bytes_per_item": region.bytes_allocated / table.count,
        }
        r.counters = memory_counters(delta, len(ops))

    def verify(self, state, r: Round, first: bool) -> None:
        _, table = state
        check_contents(r, dict(table.items()), self.final, self.torn)
        if first:
            for problem in table.integrity_violations():
                r.fail(problem)

    def reference(self, r: Round) -> None:
        """Replay the first ``sim_ops`` ops, then the torn batch, crash
        and recovery, on the simulator at the same geometry: the
        simulated cost of this op mix. (The timed rounds run on
        RawBackend, which has no cost model.)"""
        cells = self.p["cells"]
        region = NVMRegion(region_bytes(cells), sim_cache(CELL_BYTES * cells))
        table = self.build(region)
        ops = self.ops[: self.p["sim_ops"]]
        stats = region.stats
        latencies = []
        wrong = 0
        calls = self.calls(table)
        stats0 = stats.snapshot()
        for call, args, expected in ops:
            mark = stats.sim_time_ns
            got = calls[call](*args)
            latencies.append(stats.sim_time_ns - mark)
            wrong += got != expected
        delta = stat_delta(stats.snapshot(), stats0)
        torn_put(table, region, self.torn, self.crash_after)
        region.crash(random_schedule(self.seed))
        mark = stats.sim_time_ns
        table.reattach()
        table.recover()
        r.attempted = len(ops)
        r.fail_many(wrong, f"{wrong} simulated replay ops returned a wrong result")
        r.deterministic = sim_metrics(delta, len(ops), latencies, delta["sim_time_ns"],
                                      stats.sim_time_ns - mark,
                                      region.bytes_allocated / table.count)
        r.sim_samples = len(latencies)
        check_contents(r, dict(table.items()), self.sim_state, self.torn)
        for problem in table.integrity_violations():
            r.fail(problem)


# ----------------------------------------------------------------------
# sim-clients


class SimClients(Workload):
    """Concurrent YCSB-A clients over GroupHashTable on the simulator,
    with every observer attached."""

    name = "sim-clients"
    callbacks = ((StampedRecorder, "record_op"),)
    full = dict(cells=1 << 16, group_size=256, load=0.6, clients=4,
                ops_per_client=6000, theta=0.99, window_ns=50_000.0, torn=64)
    smoke = dict(cells=1 << 12, group_size=64, load=0.6, clients=4,
                 ops_per_client=150, theta=0.99, window_ns=50_000.0, torn=16)

    def generate(self) -> None:
        p = self.p
        self.prefill = KeySource(self.data_rng("prefill")).items(
            int(p["cells"] * p["load"])
        )
        keys = [key for key, _ in self.prefill]
        zipf = Zipf(len(keys), p["theta"])
        client_op = importlib.import_module("repro.concurrency").ClientOp
        self.streams = []
        for client in range(p["clients"]):
            rng = self.rng(f"client{client}")
            stream = []
            for _ in range(p["ops_per_client"]):
                key = keys[zipf.rank(rng)]
                if rng.random() < 0.5:
                    stream.append(client_op("query", key))
                else:
                    value = rng.getrandbits(64).to_bytes(8, "little")
                    stream.append(client_op("update", key, value))
            self.streams.append(stream)
        self.torn_batch(keys)

    def setup(self):
        cells = self.p["cells"]
        region = NVMRegion(region_bytes(cells), sim_cache(CELL_BYTES * cells))
        table = GroupHashTable(region, cells, SPEC, group_size=self.p["group_size"])
        if repro.bulk_load(table, self.prefill):
            raise RuntimeError("pre-fill overflowed a group")
        tracer = Tracer()
        tracer.attach(region)
        metrics = MetricsRegistry()
        table.instrument(tracer, metrics)
        series = WindowSeries(self.p["window_ns"])
        WindowSampler(series).attach(region)
        return region, table, metrics, series, StampedRecorder(self.probe)

    def measure(self, state, r: Round, tracer) -> None:
        region, table, metrics, series, recorder = state
        concurrency = importlib.import_module("repro.concurrency")
        stats0 = region.stats.snapshot()
        t0 = self.begin(tracer)
        result = concurrency.run_concurrent(
            table, self.streams, seed=self.seed, metrics=metrics,
            timeline=series, recorder=recorder,
        )
        self.phase_end(r, t0)
        stats1 = region.stats.snapshot()
        torn_put(table, region, self.torn, self.crash_after)
        region.crash(random_schedule(self.seed))
        recover_sim_ns = self.recover(r, table, lambda: region.stats.sim_time_ns)
        self.end(tracer, r, t0)
        ops = result.ops
        r.ops = r.attempted = ops
        r.lat_ns = window_costs(recorder.stamps, t0)
        r.fail_many(
            result.failed_ops + result.lost_updates + len(result.check_failures),
            f"{result.failed_ops} failed ops, {result.lost_updates} lost updates, "
            f"checks: {result.check_failures[:3]}",
        )
        delta = stat_delta(stats1, stats0)
        latencies = [c.end_ns - c.issue_ns for c in result.committed]
        r.deterministic = {
            **sim_metrics(delta, ops, latencies, sum(latencies), recover_sim_ns,
                          region.bytes_allocated / table.count),
            "sim_kops": result.throughput_kops(),
        }
        r.sim_samples = len(latencies)
        queries = sum(1 for c in result.committed if c.op.kind == "query")
        r.counters = {
            **memory_counters(delta, ops),
            "concurrency.scheduler.read_aborts_per_op": result.read_aborts / ops,
            "concurrency.scheduler.read_retries_per_op": result.read_retries / ops,
            "concurrency.scheduler.lock_waits_per_op": result.lock_waits / ops,
            "concurrency.scheduler.fp_skip_share": result.fp_skips / queries,
        }
        self.committed = result.committed

    def verify(self, state, r: Round, first: bool) -> None:
        _, table, *_ = state
        expected = dict(self.prefill)
        for c in self.committed:
            if c.op.kind == "update" and c.ok:
                expected[c.op.key] = c.op.value
        check_contents(r, dict(table.items()), expected, self.torn)
        if first:
            for problem in table.integrity_violations():
                r.fail(problem)


# ----------------------------------------------------------------------
# grow-batch


class GrowBatch(Workload):
    """Batched puts, gets and deletes on a DirectoryTable growing from
    two segments, ending in a crash inside a batch."""

    name = "grow-batch"
    # a build takes ~2 ms, so one build's time is mostly timer noise
    setup_repeats = 25
    # 32-item batches give 750 calls a round, so the p99 call is the 8th
    # largest: inside the ~30 calls holding a split, not at the edge of
    # the ~4 holding a directory doubling (where it flips with the seed)
    full = dict(start_cells=1024, segment_cells=512, batch=32, keys=9600, torn=32)
    smoke = dict(start_cells=256, segment_cells=128, batch=16, keys=640, torn=16)

    def generate(self) -> None:
        p = self.p
        items = KeySource(self.data_rng("keys")).items(p["keys"])
        self.rng("order").shuffle(items)
        batch = p["batch"]
        self.puts = [items[i : i + batch] for i in range(0, len(items), batch)]
        doomed = [key for key, _ in items[::2]]
        self.deletes = [doomed[i : i + batch] for i in range(0, len(doomed), batch)]
        self.final = dict(items[1::2])
        self.n_ops = 2 * len(items) + len(doomed)
        self.torn_batch(key for key, _ in items)
        # room for the grown table, retired directories and the torn
        # batch; the cache holds the whole region
        self.size = 120 * p["keys"] + (1 << 20)

    def setup(self):
        config = SimConfig(latency=LATENCY, cache=CacheConfig(size_bytes=self.size))
        region = NVMRegion(self.size, config)
        table = DirectoryTable(region, self.p["start_cells"], SPEC,
                               segment_cells=self.p["segment_cells"])
        return region, table

    def measure(self, state, r: Round, tracer) -> None:
        region, table = state
        stats = region.stats
        lat = []
        sim = []
        bad = 0
        probe = self.probe
        stats0 = stats.snapshot()
        t0 = self.begin(tracer)
        for batch in self.puts:
            keys = [key for key, _ in batch]
            t, mark = perf(), stats.sim_time_ns
            ok = table.put_many(batch)
            lat.append((perf() - t) * probe.factor)
            sim.append(stats.sim_time_ns - mark)
            t, mark = perf(), stats.sim_time_ns
            got = table.get_many(keys)
            lat.append((perf() - t) * probe.factor)
            sim.append(stats.sim_time_ns - mark)
            bad += ok.count(False) + sum(
                1 for (_, value), found in zip(batch, got) if found != value
            )
            probe.tick()
        for keys in self.deletes:
            t, mark = perf(), stats.sim_time_ns
            ok = table.delete_many(keys)
            lat.append((perf() - t) * probe.factor)
            sim.append(stats.sim_time_ns - mark)
            bad += ok.count(False)
            probe.tick()
        self.phase_end(r, t0)
        stats1 = stats.snapshot()
        splits, doublings = table.splits, table.doublings
        torn_put(table, region, self.torn, self.crash_after)
        region.crash(random_schedule(self.seed))
        recover_sim_ns = self.recover(r, table, lambda: stats.sim_time_ns)
        self.end(tracer, r, t0)
        ops = self.n_ops
        r.ops = r.attempted = ops
        r.lat_ns = lat
        r.fail_many(bad, f"{bad} batch items failed or read back wrong")
        delta = stat_delta(stats1, stats0)
        r.deterministic = sim_metrics(delta, ops, sim, delta["sim_time_ns"],
                                      recover_sim_ns,
                                      region.bytes_allocated / table.count)
        r.sim_samples = len(sim)
        r.counters = {
            **memory_counters(delta, ops),
            "core.directory.splits": splits,
            "core.directory.doublings": doublings,
        }

    def verify(self, state, r: Round, first: bool) -> None:
        _, table = state
        check_contents(r, dict(table.items()), self.final, self.torn)
        for problem in table.integrity_violations():
            r.fail(problem)
        if not table.splits:
            r.fail("the table never split")


# ----------------------------------------------------------------------
# crash-campaign


class CampaignHarness:
    """Crash harness over one freshly built, pre-filled GroupHashTable."""

    def __init__(self, p: dict, prefill, probe: SpeedProbe) -> None:
        self.probe = probe
        cells = p["cells"]
        self.region = NVMRegion(region_bytes(cells), sim_cache(CELL_BYTES * cells))
        self.table = GroupHashTable(self.region, cells, SPEC,
                                    group_size=p["group_size"])
        if repro.bulk_load(self.table, prefill):
            raise RuntimeError("pre-fill overflowed a group")
        self.recover_ns = 0
        self.recover_sim_ns = 0.0

    @property
    def crash_backend(self):
        return self.region

    def apply(self, op) -> bool:
        table = self.table
        if op.kind == "insert":
            return table.insert(op.key, op.value)
        if op.kind == "update":
            return table.update(op.key, op.value)
        if op.kind == "delete":
            return table.delete(op.key)
        return all(table.put_many(list(op.items)))

    def crash(self, schedule) -> None:
        self.region.crash(schedule)

    def recover(self) -> None:
        mark = self.region.stats.sim_time_ns
        t = perf()
        self.table.reattach()
        self.table.recover()
        self.recover_ns = (perf() - t) * self.probe.factor
        self.recover_sim_ns = self.region.stats.sim_time_ns - mark

    def snapshot(self) -> dict:
        return dict(self.table.items())

    def integrity_violations(self) -> list:
        return self.table.integrity_violations()


class CrashCampaign(Workload):
    """Every crash boundary of a short insert/update/delete workload
    plus one batched put, replayed, recovered and checked."""

    name = "crash-campaign"
    min_rounds = 1
    setup_repeats = 9
    full = dict(cells=4096, group_size=32, load=0.3, ops=10, batch=8,
                subset_budget=2)
    smoke = dict(cells=512, group_size=16, load=0.3, ops=3, batch=4,
                 subset_budget=1)

    def generate(self) -> None:
        p = self.p
        self.prefill = KeySource(self.data_rng("prefill")).items(
            int(p["cells"] * p["load"])
        )
        crashpoint = importlib.import_module("repro.nvm.crashpoint")
        rng = self.rng("ops")
        source = KeySource(rng, (key for key, _ in self.prefill))
        targets = [key for key, _ in self.prefill]
        rng.shuffle(targets)
        ops = []
        for i in range(p["ops"]):
            kind = ("insert", "update", "delete")[i % 3]
            if kind == "insert":
                ops.append(crashpoint.Op("insert", source.key(), source.value()))
            elif kind == "update":
                ops.append(crashpoint.Op("update", targets.pop(), source.value()))
            else:
                ops.append(crashpoint.Op("delete", targets.pop()))
        batch = crashpoint.BatchOp("put_many", tuple(source.items(p["batch"])))
        ops.insert(rng.randrange(len(ops) + 1), batch)
        self.ops = ops

    def factory(self) -> CampaignHarness:
        return CampaignHarness(self.p, self.prefill, self.probe)

    def setup(self):
        # a campaign builds its own table once per replay; the set-up
        # time is that of one such build
        return self.factory()

    def replay_factory(self) -> CampaignHarness:
        """The campaign's harness factory: stamps the start of each
        replay, keeps the finished replay's numbers (not its region)
        and ticks the probe."""
        self.starts.append((self.probe.now(), self.probe.factor))
        self.probe.tick()
        if self.current is not None:
            self.retire(self.current)
        self.current = self.factory()
        return self.current

    def retire(self, harness: CampaignHarness) -> None:
        self.summaries.append((harness.recover_ns, harness.recover_sim_ns,
                               stat_delta(harness.region.stats, MemStats())))

    def measure(self, state, r: Round, tracer) -> None:
        crashpoint = importlib.import_module("repro.nvm.crashpoint")
        self.starts: list[tuple[int, float]] = []
        self.summaries: list[tuple] = []
        self.current = None
        t0 = self.begin(tracer)
        result = crashpoint.run_campaign(
            self.replay_factory, self.ops, subset_budget=self.p["subset_budget"],
            seed=self.seed, prefill=dict(self.prefill), recorder=FlightRecorder(),
        )
        t1 = self.phase_end(r, t0)
        self.end(tracer, r, t0)
        self.retire(self.current)
        starts, summaries = self.starts + [(t1, 0.0)], self.summaries
        # the first harness records the trace; every later one is a replay
        replays = summaries[1:]
        n = len(replays)
        r.ops = r.attempted = result.replays
        r.lat_ns = [
            (b - a) * factor for (a, factor), (b, _) in zip(starts[1:], starts[2:])
        ]
        r.recover_s = statistics.median(s[0] for s in replays) / 1e9
        if n != result.replays:
            r.fail(f"{n} harnesses for {result.replays} replays")
        r.fail_many(len(result.violations), "; ".join(
            f"{v.oracle} at boundary {v.event_index} ({v.schedule}): {v.detail}"
            for v in result.violations[:3]
        ))
        totals = {k: sum(s[2][k] for s in replays) for k in _STATS}
        sim = [s[2]["sim_time_ns"] for s in replays]
        r.deterministic = sim_metrics(totals, n, sim, totals["sim_time_ns"],
                                      sum(s[1] for s in replays) / n,
                                      self.bytes_per_item())
        r.sim_samples = n
        r.counters = {
            **memory_counters(totals, n),
            "nvm.crashpoint.points": result.points,
            "nvm.crashpoint.replays_per_point": result.replays / result.points,
        }

    def bytes_per_item(self) -> float:
        harness = self.factory()
        for op in self.ops:
            harness.apply(op)
        return harness.region.bytes_allocated / harness.table.count


# ----------------------------------------------------------------------
# serving


class Serving(Workload):
    """Remote YCSB-D clients through the batching router onto a growable
    sharded table on simulated NVM."""

    name = "serving"
    callbacks = ((StampedSeries, "inc"),)
    full = dict(cells=1 << 14, shards=4, segment_cells=256, load=0.9,
                clients=64, ops_per_client=200, inserts_per_client=10,
                theta=0.99, batch_max=8, net="rdma-dc", window_ns=50_000.0,
                torn=64)
    smoke = dict(cells=1 << 11, shards=4, segment_cells=64, load=0.9,
                 clients=16, ops_per_client=40, inserts_per_client=2,
                 theta=0.99, batch_max=8, net="rdma-dc", window_ns=50_000.0,
                 torn=16)

    def generate(self) -> None:
        p = self.p
        data = KeySource(self.data_rng("keys"))
        self.prefill = data.items(int(p["cells"] * p["load"]))
        pool = data.items(p["clients"] * p["inserts_per_client"])
        keys = [key for key, _ in self.prefill]
        zipf = Zipf(len(keys), p["theta"])
        client_op = importlib.import_module("repro.concurrency").ClientOp
        self.streams = []
        n, k = p["ops_per_client"], p["inserts_per_client"]
        every = n // k
        for client in range(p["clients"]):
            # inserts (pool keys at fixed positions) are part of the fixed
            # data set; the seed draws the queries
            mine = iter(pool[client * k : (client + 1) * k])
            crng = self.rng(f"client{client}")
            at = set(range(client % every, n, every))
            view = list(keys)
            stream = []
            for i in range(n):
                if i in at:
                    key, value = next(mine)
                    view.append(key)
                    stream.append(client_op("insert", key, value))
                else:
                    stream.append(client_op("query", view[-1 - zipf.rank(crng)]))
            self.streams.append(stream)
        self.final = dict(self.prefill + pool)
        self.torn_batch(data.used)

    def setup(self):
        p = self.p
        per_shard = p["cells"] // p["shards"]
        config = sim_cache(CELL_BYTES * per_shard)
        size = int(CELL_BYTES * per_shard * 1.25) * 8 + (1 << 16)

        def backend(shard: int) -> NVMRegion:
            return NVMRegion(size, config, name=f"shard{shard}")

        table = ShardedTable(p["cells"], SPEC, n_shards=p["shards"],
                             backend_factory=backend, growable=True,
                             segment_cells=p["segment_cells"])
        for i in range(0, len(self.prefill), 1024):
            self.probe.tick()
            if not all(table.put_many(self.prefill[i : i + 1024])):
                raise RuntimeError("pre-fill put failed")
        return table, MetricsRegistry(), StampedSeries(p["window_ns"], self.probe)

    def measure(self, state, r: Round, tracer) -> None:
        table, metrics, series = state
        serving = importlib.import_module("repro.serving")
        stats0 = table.stats
        splits0 = table.splits
        doublings0 = sum(t.doublings for t in table.tables)
        t0 = self.begin(tracer)
        result = serving.run_serving(
            table, self.streams, net=serving.NETWORK_PRESETS[self.p["net"]],
            batch_max=self.p["batch_max"], location_cache=True, seed=self.seed,
            metrics=metrics, timeline=series,
        )
        self.phase_end(r, t0)
        stats1 = table.stats
        splits = table.splits - splits0
        doublings = sum(t.doublings for t in table.tables) - doublings0
        shard = table.backend.shard(table.shard_of(self.torn[0][0]))
        torn_put(table, shard, self.torn, self.crash_after)
        table.crash(random_schedule(self.seed))
        recover_sim_ns = self.recover(r, table, lambda: table.stats.sim_time_ns)
        self.end(tracer, r, t0)
        ops = result.ops
        r.ops = r.attempted = ops
        r.lat_ns = window_costs(series.stamps, t0)
        r.fail_many(
            result.wrong_answers + result.failed_ops + len(result.check_failures),
            f"{result.wrong_answers} wrong answers, {result.failed_ops} failed "
            f"ops, checks: {result.check_failures[:3]}",
        )
        delta = stat_delta(stats1, stats0)
        latencies = [c.done_ns - c.issue_ns for c in result.committed]
        r.deterministic = {
            **sim_metrics(delta, ops, latencies, sum(latencies), recover_sim_ns,
                          table.backend.bytes_allocated / table.count),
            "sim_kops": result.throughput_kops(),
        }
        r.sim_samples = len(latencies)
        queries = ops - self.p["clients"] * self.p["inserts_per_client"]
        r.counters = {
            **memory_counters(delta, ops),
            "core.directory.splits": splits,
            "core.directory.doublings": doublings,
            "serving.client.one_sided_share": result.one_sided_reads / queries,
            "serving.client.hint_miss_ratio": (
                result.hint_misses / result.one_sided_reads
                if result.one_sided_reads else 0.0
            ),
            "serving.router.mean_batch": result.mean_batch(),
            "serving.router.max_queue_depth": result.max_queue_depth,
        }

    def verify(self, state, r: Round, first: bool) -> None:
        table = state[0]
        check_contents(r, dict(table.items()), self.final, self.torn)
        if not table.check_count():
            r.fail("persisted counts disagree with occupancy")
        if first:
            for shard in table.tables:
                for problem in shard.integrity_violations():
                    r.fail(problem)


CrashCampaign.callbacks = (
    (CrashCampaign, "replay_factory"),
    *((CampaignHarness, name) for name in
      ("apply", "crash", "recover", "snapshot", "integrity_violations")),
)

WORKLOADS = {
    w.name: w for w in (RawMixed, SimClients, GrowBatch, CrashCampaign, Serving)
}


# ----------------------------------------------------------------------
# one run


def reference_round(name: str, smoke: bool) -> Round:
    """The reference round of ``name``, on the requests of
    :data:`REFERENCE_SEED`: the source of the :data:`DETERMINISTIC`
    end-to-end metrics."""
    r = Round()
    WORKLOADS[name](REFERENCE_SEED, smoke).reference(r)
    r.lat_ns = []
    return r


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run rounds of one workload until ``seconds`` of measured time
    (after the reference round, which an untraced run needs); returns
    the JSON-ready result."""
    ref = None if trace else reference_round(name, smoke)
    gc.collect()  # its tables, before the seed's inputs are made
    t_gen = perf()
    workload = WORKLOADS[name](seed, smoke)
    gen_s = (perf() - t_gen) / 1e9
    tracer = LayerTracer() if trace else None
    rounds: list[Round] = []
    min_rounds = 2 if trace else (1 if smoke else workload.min_rounds)
    callbacks = ((SpeedProbe, "sample"), *workload.callbacks)
    while True:
        # free the last round's tables now (observer hooks make cycles):
        # left to the collector, they would be traversed during this
        # round's set-up and phase, and peak RSS would depend on when
        # it ran
        gc.collect()
        r = Round()
        r.traced = trace and len(rounds) % 2 == 1
        active = tracer if r.traced else None
        probe = workload.probe = SpeedProbe()
        probe.sample()
        if active is not None:
            active.install(callbacks)
        try:
            state, r.setup_s = workload.prepare()
            workload.measure(state, r, active)
        finally:
            if active is not None:
                active.restore()
        probe.sample()
        r.scale = probe.scale()
        r.lat_n = len(r.lat_ns)
        r.p50_ns = percentile(r.lat_ns, 0.5)
        r.p99_ns = percentile(r.lat_ns, 0.99)
        r.lat_ns = []
        workload.verify(state, r, first=not rounds)
        del state
        rounds.append(r)
        spent = sum(x.window_s for x in rounds)
        typical = statistics.median(x.window_s for x in rounds)
        if len(rounds) >= min_rounds and spent >= seconds - typical / 2:
            break
    return summarize(workload, rounds, ref, tracer, gen_s)


def wall_metrics(rounds: list[Round]) -> dict:
    """Medians over ``rounds`` of the wall-clock end-to-end metrics."""
    return {
        "ops_per_s": 1 / statistics.median(r.phase_s / r.ops for r in rounds),
        "wall_p50_us": statistics.median(r.p50_ns for r in rounds) / 1e3,
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "recover_s": statistics.median(r.recover_s for r in rounds),
    }


def summarize(workload, rounds, ref, tracer, gen_s) -> dict:
    """The JSON-ready result of a run; ``ref`` is its reference round
    (``None`` in a traced run, which reports no end-to-end metric)."""
    plain = [r for r in rounds if not r.traced]
    first = plain[0]
    checked = rounds + ([ref] if ref is not None else [])
    failures = [m for r in checked for m in r.failures]
    for r in rounds[1:]:
        if r.deterministic != first.deterministic:
            failures.append("simulated metrics differ between rounds")
        if r.counters != first.counters:
            failures.append("event counters differ between rounds")
    out = {
        "workload": workload.name,
        "seed": workload.seed,
        "params": workload.p,
        "attempted": sum(r.attempted for r in checked),
        "failed": len(failures),
        "failures": [m for m in failures if m][:20],
        # the seed's own simulated numbers (not gated: they vary with it)
        "seed_deterministic": first.deterministic,
        "rounds": [
            {"traced": r.traced, "setup_s": r.setup_s, "phase_s": r.phase_s,
             "phase_raw_s": r.phase_raw_s, "window_raw_s": r.window_s,
             "recover_s": r.recover_s, "ops": r.ops, "scale": r.scale}
            for r in rounds
        ],
        "gen_s": gen_s,
        "bench_modules": sorted(m for m in sys.modules if m.startswith("repro.bench")),
    }
    if ref is not None:
        out["e2e"] = {
            **wall_metrics(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **{name: ref.deterministic[name] for name in DETERMINISTIC},
        }
        out["samples"] = {
            "wall_p50_us": sum(r.lat_n for r in plain),
            "sim_p99_ns": ref.sim_samples,
        }
    if tracer is not None:
        out.update(trace_summary(workload, rounds, plain, first, tracer))
    return out


def trace_summary(workload, rounds, plain, first, tracer) -> dict:
    """Per-layer metrics of the traced rounds (self times scaled like
    the end-to-end wall metrics), plus the raw accounting."""
    traced = [r for r in rounds if r.traced]
    ops = sum(r.ops for r in traced)
    scale = statistics.median(r.scale for r in traced)
    per_layer = {
        name: value * scale if name.endswith("ns_per_op") else value
        for name, value in tracer.metrics(ops).items()
    }
    counters = {name: 0.0 for name in COUNTERS}
    counters.update(first.counters)
    overhead = (
        statistics.median(r.window_s * r.scale for r in traced)
        / statistics.median(r.window_s * r.scale for r in plain)
        - 1
    )
    path = os.path.join("out", "perfbench",
                        f"{workload.name}-seed{workload.seed}.trace.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(tracer.chrome_trace({"workload": workload.name,
                                       "seed": workload.seed}), fh)
    return {
        "per_layer": {
            **per_layer,
            **counters,
            "op.wall_p99_us": statistics.median(r.p99_ns for r in plain) / 1e3,
            "trace.overhead_share": overhead,
        },
        "missing": tracer.missing,
        "traced_ns": tracer.traced_ns,
        "wrapper_ns": tracer.wrapper_ns(),
        "self_ns": tracer.self_ns(),
        "costs": tracer.costs,
        "trace_file": path,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
