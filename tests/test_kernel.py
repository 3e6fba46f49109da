"""The shared simulation kernel and shadow oracle
(:mod:`repro.concurrency.kernel`, :mod:`repro.concurrency.oracle`).

The contention scheduler and the serving driver are pinned end to end
by their own suites and committed baselines; these tests pin the two
shared pieces directly: the kernel's scheduling rule (smallest clock,
seeded tie-break, due timed events first, blocking and wake-ups) and
the oracle's verdicts and failure messages. The kernel's one agenda
heap is checked against :class:`_ScanKernel`, the scan-every-client
loop it replaced, on random programs.
"""

from __future__ import annotations

import heapq
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency import BLOCK, Kernel, ShadowOracle


def _resume_order(n: int, seed: int, salt: int) -> list[int]:
    """Client order of the first resumptions when every clock ties."""
    kernel = Kernel(n, seed, salt)
    order = []

    def client(c):
        order.append(c)
        yield 10.0

    kernel.run([client(c) for c in range(n)])
    return order


# ----------------------------------------------------------------------
# kernel


def test_kernel_breaks_clock_ties_by_seeded_priority():
    for seed, salt in ((1, 0xC10C), (7, 0x5E21), (42, 0xC10C)):
        expected = list(range(6))
        random.Random((seed << 6) ^ salt).shuffle(expected)
        assert _resume_order(6, seed, salt) == expected
    # the salt alone separates the drivers' interleavings for one seed
    assert _resume_order(6, 3, 0xC10C) != _resume_order(6, 3, 0x5E21)


def test_kernel_resumes_the_smallest_clock():
    kernel = Kernel(2, seed=0, salt=0)
    steps = []

    def client(c, costs):
        for cost in costs:
            steps.append((c, kernel.clock[c]))
            yield cost

    kernel.run([client(0, [5.0, 5.0]), client(1, [3.0, 3.0, 3.0])])
    times = [t for _, t in steps]
    assert times == sorted(times)
    assert kernel.clock == [10.0, 9.0]


def test_kernel_fires_due_events_first_and_wakes_with_payload():
    kernel = Kernel(1, seed=0, salt=0)
    got = []

    def client():
        yield 5.0
        kernel.at(7.0, "ring")
        got.append((yield BLOCK))
        got.append(kernel.clock[0])

    def on_event(t_ns, event):
        assert kernel.running is None
        kernel.wake(0, t_ns + 1.0, (event, t_ns))

    kernel.run([client()], on_event)
    assert got == [("ring", 7.0), 8.0]


def test_kernel_fires_an_event_due_at_a_client_clock_before_the_client():
    kernel = Kernel(1, seed=0, salt=0)
    trace = []

    def client():
        kernel.at(4.0, "tick")
        yield 4.0
        trace.append(("client", kernel.clock[0]))

    kernel.run([client()], lambda t_ns, event: trace.append((event, t_ns)))
    assert trace == [("tick", 4.0), ("client", 4.0)]


def test_kernel_names_the_running_client():
    kernel = Kernel(3, seed=5, salt=0)
    seen = []

    def client(c):
        seen.append(kernel.running == c)
        yield 1.0
        seen.append(kernel.running == c)

    kernel.run([client(c) for c in range(3)])
    assert seen == [True] * 6
    assert kernel.running is None


def test_kernel_raises_when_every_client_blocks_with_nothing_armed():
    kernel = Kernel(2, seed=1, salt=0)

    def client():
        yield 1.0
        yield BLOCK

    with pytest.raises(RuntimeError, match="clients blocked with no doorbell armed"):
        kernel.run([client(), client()])


def test_kernel_fires_equal_time_events_in_arming_order():
    kernel = Kernel(3, seed=2, salt=0)
    fired = []

    def client(c):
        kernel.at(5.0, f"client{c}")
        yield 1.0
        kernel.at(5.0, f"client{c}-late")
        yield 9.0

    def on_event(t_ns, event):
        fired.append((event, t_ns))
        if event == "client0":
            kernel.at(5.0, "followup")  # armed last, fires last

    kernel.run([client(c) for c in range(3)], on_event)
    first = [event for event, _ in fired[:3]]
    # the clients armed their first events in resume (priority) order
    assert first == [f"client{c}" for c in _resume_order(3, 2, 0)]
    late = [event for event, _ in fired[3:6]]
    assert late == [f"{name}-late" for name in first]
    assert fired[6] == ("followup", 5.0)
    assert all(t_ns == 5.0 for _, t_ns in fired)


def test_kernel_resumes_clients_woken_to_one_time_by_seeded_priority():
    n, seed, salt = 6, 11, 0x5E21
    kernel = Kernel(n, seed, salt)
    resumed = []

    def client(c):
        yield float(c)  # block at distinct clocks
        got = yield BLOCK
        resumed.append((c, kernel.clock[c], got))

    def doorbell():
        yield 7.0
        kernel.at(8.0, "broadcast")

    def on_event(t_ns, event):
        for c in range(n - 1):
            kernel.wake(c, 10.0, f"reply{c}")

    kernel.run([client(c) for c in range(n - 1)] + [doorbell()], on_event)
    order = [c for c in _resume_order(n, seed, salt) if c != n - 1]
    assert resumed == [(c, 10.0, f"reply{c}") for c in order]


def test_kernel_wake_rejects_a_finished_client():
    # the scan loop (_ScanKernel) woke the finished generator, whose
    # second StopIteration ended the run before client 1's last steps
    kernel = Kernel(2, seed=0, salt=0)

    def finished():
        return
        yield

    def client():
        kernel.at(1.0, "ring")
        for _ in range(3):
            yield 1.0

    with pytest.raises(ValueError, match="client 0, which is not blocked"):
        kernel.run([finished(), client()], lambda t_ns, _: kernel.wake(0, t_ns))


def test_kernel_wake_rejects_a_runnable_client():
    # the scan loop (_ScanKernel) moved client 0's clock back to 1.0
    kernel = Kernel(2, seed=0, salt=0)

    def runnable():
        yield 10.0
        yield 10.0

    def client():
        kernel.at(1.0, "ring")
        yield 20.0

    with pytest.raises(ValueError, match="client 0, which is not blocked"):
        kernel.run([runnable(), client()], lambda t_ns, _: kernel.wake(0, t_ns))
    assert kernel.clock[0] == 10.0


def test_kernel_wake_rejects_a_time_before_the_clock():
    kernel = Kernel(1, seed=0, salt=0)

    def client():
        yield 5.0
        kernel.at(6.0, "ring")
        yield BLOCK

    with pytest.raises(ValueError, match="at 4.0 ns, before its clock 5.0 ns"):
        kernel.run([client()], lambda t_ns, _: kernel.wake(0, 4.0))
    assert kernel.clock[0] == 5.0


def test_kernel_run_never_ends_with_a_client_still_blocked():
    # client 1 finishes; client 0 stays blocked behind a doorbell that
    # wakes nobody, so the run must fail, naming client 0
    kernel = Kernel(2, seed=4, salt=0)

    def blocked():
        kernel.at(3.0, "silent")
        yield BLOCK

    def finishing():
        yield 5.0

    fired = []
    with pytest.raises(RuntimeError, match=r"no doorbell armed \(blocked: \[0\]\)"):
        kernel.run([blocked(), finishing()], lambda t_ns, e: fired.append(e))
    assert fired == ["silent"]


# ----------------------------------------------------------------------
# differential test: the agenda heap against the scan it replaced


class _ScanKernel:
    """The kernel's loop before the agenda heap: each step scans every
    runnable client for the smallest ``(clock, priority)``. Kept as the
    reference; it trusts its callers to wake only blocked clients."""

    def __init__(self, n_clients: int, seed: int, salt: int) -> None:
        self.clock = [0.0] * n_clients
        order = list(range(n_clients))
        random.Random((seed << 6) ^ salt).shuffle(order)
        self._priority = [order.index(client) for client in range(n_clients)]
        self._heap: list = []
        self._seq = itertools.count()
        self._ready = set(range(n_clients))
        self._pending: dict = {}
        self.running = None

    def at(self, t_ns, event):
        heapq.heappush(self._heap, (t_ns, next(self._seq), event))

    def wake(self, client, t_ns, payload=None):
        self.clock[client] = t_ns
        self._pending[client] = payload
        self._ready.add(client)

    def run(self, clients, on_event=None):
        clock, priority = self.clock, self._priority
        heap, ready, pending = self._heap, self._ready, self._pending
        alive = len(clients)
        while alive:
            client = (
                min(ready, key=lambda c: (clock[c], priority[c])) if ready else None
            )
            if heap and (client is None or heap[0][0] <= clock[client]):
                t_ns, _, event = heapq.heappop(heap)
                on_event(t_ns, event)
                continue
            if client is None:
                raise RuntimeError("deadlock: clients blocked with no doorbell armed")
            self.running = client
            try:
                step = clients[client].send(pending.pop(client, None))
            except StopIteration:
                alive -= 1
                ready.discard(client)
                continue
            finally:
                self.running = None
            if step is BLOCK:
                ready.discard(client)
            else:
                clock[client] += step


#: step costs and time offsets: ties, zeros and non-integer floats
_TIMES = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0, 0.5, 0.1, 1 / 3]),
    st.integers(0, 4),
    st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
)
#: noise doorbells: offset from the arming client's clock (in the past
#: too) and the offsets of the follow-ups each firing arms in turn
_NOISE = st.lists(
    st.tuples(
        st.one_of(_TIMES, st.sampled_from([-1.0, -0.5])),
        st.lists(_TIMES, max_size=2).map(tuple),
    ),
    max_size=2,
)
_ACTION = st.one_of(
    st.tuples(st.just("step"), _TIMES, _NOISE),
    # block: the doorbell's offset, the wake's delay after it, payload
    st.tuples(st.just("block"), st.tuples(_TIMES, _TIMES, st.integers()), _NOISE),
)


def _program_client(kernel, c, script, log):
    received = None
    for kind, arg, noise in script:
        log.append(("resume", c, kernel.clock[c], received, kernel.running))
        for offset, chain in noise:
            kernel.at(kernel.clock[c] + offset, ("noise", c, chain))
        if kind == "step":
            received = yield arg
        else:
            offset, delay, payload = arg
            kernel.at(kernel.clock[c] + offset, ("wake", c, delay, payload))
            received = yield BLOCK
    log.append(("finish", c, kernel.clock[c], received, kernel.running))


def _run_program(kernel_type, seed, salt, scripts):
    kernel = kernel_type(len(scripts), seed, salt)
    log = []

    def on_event(t_ns, event):
        log.append(("event", event, t_ns, kernel.running))
        if event[0] == "wake":
            _, c, delay, payload = event
            kernel.wake(c, max(t_ns, kernel.clock[c]) + delay, payload)
        elif event[2]:
            _, c, chain = event
            kernel.at(t_ns + chain[0], ("noise", c, chain[1:]))

    kernel.run(
        [_program_client(kernel, c, s, log) for c, s in enumerate(scripts)],
        on_event,
    )
    return log, kernel.clock


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**16),
    salt=st.sampled_from([0, 0xC10C, 0x5E21]),
    scripts=st.lists(st.lists(_ACTION, max_size=6), min_size=1, max_size=70),
)
def test_kernel_matches_the_scan_loop(seed, salt, scripts):
    log, clock = _run_program(Kernel, seed, salt, scripts)
    ref_log, ref_clock = _run_program(_ScanKernel, seed, salt, scripts)
    assert log == ref_log
    assert clock == ref_clock


# ----------------------------------------------------------------------
# shadow oracle


def test_oracle_applies_writes_and_counts_failed_ops():
    oracle = ShadowOracle({b"a": b"1"})
    oracle.apply("insert", b"b", b"2", True)
    oracle.apply("insert", b"c", b"3", False)  # full table: legitimate
    oracle.apply("update", b"a", b"9", True)
    oracle.apply("update", b"z", b"0", False)  # dead key: legitimate
    oracle.apply("delete", b"b", None, True)
    oracle.apply("delete", b"b", None, False)  # already gone
    assert oracle.shadow == {b"a": b"9"}
    assert oracle.failed_ops == 3
    assert oracle.lost_updates == 0 and oracle.failures == []


def test_oracle_flags_every_disagreement():
    oracle = ShadowOracle({b"a": b"1"})
    oracle.apply("insert", b"a", b"2", True)
    oracle.apply("update", b"a", b"3", False)
    oracle.apply("update", b"z", b"3", True)
    oracle.apply("delete", b"y", None, True)
    assert oracle.lost_updates == 1
    assert oracle.failures == [
        "insert of live key 61 succeeded",
        "update lost live key 61",
        "update of dead key 7a succeeded",
        "delete of key 79 disagrees with the shadow (deleted=True, live=False)",
    ]
    with pytest.raises(ValueError):
        oracle.apply("query", b"a", None, True)


def test_oracle_checks_reads():
    oracle = ShadowOracle({b"k": b"\x01"})
    assert oracle.check_read(2, "query", b"k", b"\x01")
    assert oracle.check_read(2, "query", b"x", None)
    assert not oracle.check_read(3, "one-sided read", b"k", b"\x02")
    assert not oracle.check_read(4, "routed query", b"x", b"\x05")
    assert oracle.failures == [
        "client 3 one-sided read 6b: got 02, shadow says 01",
        "client 4 routed query 78: got 05, shadow says None",
    ]


def test_oracle_final_diff_finds_lost_and_phantom_keys():
    oracle = ShadowOracle({b"a": b"1", b"b": b"2"})
    oracle.diff({b"a": b"1", b"b": b"2"}.items())
    assert oracle.failures == [] and oracle.lost_updates == 0
    oracle.diff([(b"a", b"7"), (b"p", b"0")])
    assert oracle.lost_updates == 2
    assert oracle.failures == [
        "final state lost key 61: expected 31, found 37",
        "final state lost key 62: expected 32, found None",
        "final state has phantom key 70",
    ]
