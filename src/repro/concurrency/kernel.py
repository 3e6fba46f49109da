"""The seeded discrete-event kernel every multi-client driver runs on.

Clients are generators yielding the simulated ns each step consumed, or
:data:`BLOCK` to wait for a :meth:`Kernel.wake`. The kernel resumes the
runnable client with the smallest clock (ties broken by a seeded
permutation), but first fires any timed event due no later than that
clock. Contention is the case with no timed events; serving arms its
doorbells as events and blocks clients on their replies. A run is a
pure function of (clients, events, seed) — DESIGN.md decision 14.

Timed events and runnable clients share one agenda heap, so a step
costs O(log(clients + armed events)). An event is ``(t_ns, 0,
arming_seq, event)`` and a client ``(clock, 1, priority, client)``:
at equal times events sort first, then by arming order or seeded
priority. Blocked and finished clients are not on the agenda.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable

#: what a client yields to wait until a timed event wakes it
BLOCK = object()


class Kernel:
    """One run's clocks, seeded priorities and agenda heap.

    ``salt`` keeps each driver's interleaving its own for one seed.
    ``running`` is the client whose step is executing (``None`` between
    steps), so backend observers can attribute events to it."""

    def __init__(self, n_clients: int, seed: int, salt: int) -> None:
        if n_clients <= 0:
            raise ValueError("need at least one client stream")
        self.clock = [0.0] * n_clients
        order = list(range(n_clients))
        random.Random((seed << 6) ^ salt).shuffle(order)
        self._priority = [0] * n_clients
        for rank, client in enumerate(order):
            self._priority[client] = rank
        # every clock is 0.0, so the list in priority order is a heap
        self._agenda: list[tuple] = [
            (0.0, 1, rank, client) for rank, client in enumerate(order)
        ]
        self._seq = itertools.count()
        self._blocked: set[int] = set()
        self._pending: dict[int, Any] = {}
        self.running: int | None = None

    def at(self, t_ns: float, event: Any) -> None:
        """Fire ``event`` at simulated time ``t_ns`` (ties in arming order)."""
        heapq.heappush(self._agenda, (t_ns, 0, next(self._seq), event))

    def wake(self, client: int, t_ns: float, payload: Any = None) -> None:
        """Resume a blocked ``client`` at ``t_ns``; its ``yield BLOCK``
        evaluates to ``payload``. Raises ``ValueError`` unless ``client``
        is blocked and ``t_ns`` is not before its clock."""
        if client not in self._blocked:
            raise ValueError(f"wake of client {client}, which is not blocked")
        if t_ns < self.clock[client]:
            raise ValueError(
                f"wake of client {client} at {t_ns} ns, before its clock "
                f"{self.clock[client]} ns"
            )
        self._blocked.remove(client)
        self.clock[client] = t_ns
        self._pending[client] = payload
        heapq.heappush(self._agenda, (t_ns, 1, self._priority[client], client))

    def run(
        self, clients: list, on_event: Callable[[float, Any], None] | None = None
    ) -> None:
        """Drive ``clients`` (generators indexed like ``clock``) to
        completion, calling ``on_event(t_ns, event)`` as events fall due.
        Raises ``RuntimeError`` when clients stay blocked with nothing
        left to wake them."""
        clock, agenda = self.clock, self._agenda
        blocked, pending = self._blocked, self._pending
        heappop, heappush = heapq.heappop, heapq.heappush
        alive = len(clients)
        while alive:
            if not agenda:
                raise RuntimeError(
                    "deadlock: clients blocked with no doorbell armed "
                    f"(blocked: {sorted(blocked)})"
                )
            t_ns, is_client, rank, item = heappop(agenda)
            if not is_client:
                on_event(t_ns, item)
                continue
            self.running = item
            try:
                step = clients[item].send(pending.pop(item, None))
            except StopIteration:
                alive -= 1
                continue
            finally:
                self.running = None
            if step is BLOCK:
                blocked.add(item)
            else:
                clock[item] = t_ns = clock[item] + step
                heappush(agenda, (t_ns, 1, rank, item))
