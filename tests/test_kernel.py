"""The shared simulation kernel and shadow oracle
(:mod:`repro.concurrency.kernel`, :mod:`repro.concurrency.oracle`).

The contention scheduler and the serving driver are pinned end to end
by their own suites and committed baselines; these tests pin the two
shared pieces directly: the kernel's scheduling rule (smallest clock,
seeded tie-break, due timed events first, blocking and wake-ups) and
the oracle's verdicts and failure messages.
"""

from __future__ import annotations

import random

import pytest

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
