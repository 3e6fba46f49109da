"""Deterministic multi-client concurrency over the simulated clock.

The paper's consistency argument assumes one writer at a time; a
serving system has N interleaved clients. This package adds that layer
without giving up determinism, as one simulation kernel:

- :mod:`repro.concurrency.kernel` — the seeded :class:`Kernel` every
  multi-client driver runs on: generator clients resumed smallest clock
  first (seeded tie-break) and simulated-time events that wake blocked
  clients, both on one agenda heap. A run is a pure function of
  (clients, events, seed), so cells cache and crash-matrix replays are
  bit-for-bit;
- :mod:`repro.concurrency.oracle` — the :class:`ShadowOracle` the
  scheduler, the serving driver and the mixed runner all check against;
- :mod:`repro.concurrency.locks` — volatile group/bucket-level
  *versioned locks* (seqlock discipline: odd = writer in the group)
  plus per-stripe one-byte *fingerprint* multisets, the Dash recipe for
  lock-free optimistic reads that validate a version+fingerprint
  snapshot and retry on conflict;
- :mod:`repro.concurrency.scheduler` — the contention driver: the
  kernel with no timed events, owning the lock table (stripes come from
  :meth:`~repro.tables.base.PersistentHashTable.lock_stripes`) and
  per-client cost attribution through one backend observer.
"""

from repro.concurrency.kernel import BLOCK, Kernel
from repro.concurrency.locks import VersionedLockTable, fingerprint_of
from repro.concurrency.oracle import ShadowOracle
from repro.concurrency.scheduler import (
    ClientOp,
    CommitRecord,
    ConcurrentRunResult,
    run_concurrent,
    table_digest,
)

__all__ = [
    "BLOCK",
    "ClientOp",
    "CommitRecord",
    "ConcurrentRunResult",
    "Kernel",
    "ShadowOracle",
    "VersionedLockTable",
    "fingerprint_of",
    "run_concurrent",
    "table_digest",
]
