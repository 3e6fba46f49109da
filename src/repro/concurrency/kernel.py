"""The seeded discrete-event kernel every multi-client driver runs on.

Clients are generators yielding the simulated ns each step consumed, or
:data:`BLOCK` to wait for a :meth:`Kernel.wake`. The kernel resumes the
runnable client with the smallest clock (ties broken by a seeded
permutation), but first fires any timed event due no later than that
clock. Contention is the case with no timed events; serving arms its
doorbells as events and blocks clients on their replies. A run is a
pure function of (clients, events, seed) — DESIGN.md decision 14.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable

#: what a client yields to wait until a timed event wakes it
BLOCK = object()


class Kernel:
    """One run's clocks, seeded priorities and timed-event heap.

    ``salt`` keeps each driver's interleaving its own for one seed.
    ``running`` is the client whose step is executing (``None`` between
    steps), so backend observers can attribute events to it."""

    def __init__(self, n_clients: int, seed: int, salt: int) -> None:
        if n_clients <= 0:
            raise ValueError("need at least one client stream")
        self.clock = [0.0] * n_clients
        order = list(range(n_clients))
        random.Random((seed << 6) ^ salt).shuffle(order)
        self._priority = [order.index(client) for client in range(n_clients)]
        self._heap: list[tuple[float, int, Any]] = []
        self._seq = itertools.count()
        self._ready = set(range(n_clients))
        self._pending: dict[int, Any] = {}
        self.running: int | None = None

    def at(self, t_ns: float, event: Any) -> None:
        """Fire ``event`` at simulated time ``t_ns`` (ties in arming order)."""
        heapq.heappush(self._heap, (t_ns, next(self._seq), event))

    def wake(self, client: int, t_ns: float, payload: Any = None) -> None:
        """Resume a blocked ``client`` at ``t_ns``; its ``yield BLOCK``
        evaluates to ``payload``."""
        self.clock[client] = t_ns
        self._pending[client] = payload
        self._ready.add(client)

    def run(
        self, clients: list, on_event: Callable[[float, Any], None] | None = None
    ) -> None:
        """Drive ``clients`` (generators indexed like ``clock``) to
        completion, calling ``on_event(t_ns, event)`` as events fall due."""
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
