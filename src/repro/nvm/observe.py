"""Ordered observer lists behind one hot-path slot.

Backends notify observers on every store, flush and fence, and wear
maps on every medium line write, so the unobserved path must cost one
attribute test: :class:`Observable` publishes in ``_notify`` the
cheapest callable reaching every observer, in attach order.
"""

from __future__ import annotations

from typing import Callable


def _fan_out(observers: tuple[Callable, ...]) -> Callable | None:
    """One callable notifying ``observers`` in order: ``None`` for none,
    the observer itself for one, a loop over the tuple for more."""
    if len(observers) <= 1:
        return observers[0] if observers else None

    def notify(*args) -> None:
        for fn in observers:
            fn(*args)

    return notify


class Observable:
    """Mixin for hosts that set ``_observers = ()`` and ``_notify = None``
    and guard each event on ``_notify`` (or a flag ``_set_observers`` keeps)."""

    __slots__ = ()

    @property
    def observers(self) -> tuple[Callable, ...]:
        """The attached observers, in call (= attach) order."""
        return self._observers

    def observe(self, fn: Callable) -> None:
        """Call ``fn`` on every event, after the observers before it."""
        self._set_observers(self._observers + (fn,))

    def unobserve(self, fn: Callable) -> None:
        """Stop calling ``fn`` (matched by identity, so observers may
        leave in any order); the others keep their order."""
        for i, other in enumerate(self._observers):
            if other is fn:
                self._set_observers(self._observers[:i] + self._observers[i + 1 :])
                return
        raise ValueError(f"{fn!r} is not observing {self!r}")

    def _set_observers(self, observers: tuple[Callable, ...]) -> None:
        self._observers = observers
        self._notify = _fan_out(observers)
