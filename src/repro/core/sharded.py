"""Sharded tables: hash-partitioned scale-out over pluggable backends.

The paper's table is one monolithic structure on one region. Scaling it
to production traffic means what Dash (Lu et al., VLDB 2020) and
IcebergHT (Pandey et al., 2023) demonstrate for persistent-memory
hashing: decompose the table into independently managed partitions with
a stable layout. :class:`ShardedTable` supplies that decomposition as a
routing layer *above* the unchanged per-shard schemes:

- every shard is a complete (backend, table) pair — its own metadata
  block, its own allocator, its own crash domain;
- a dedicated router hash (seeded independently of the tables' hash
  family, so shard choice and in-table placement stay uncorrelated)
  partitions the key space;
- shards crash and recover **independently**: a power failure in one
  shard leaves the others serving, and recovery scans only the failed
  shard's cells — 1/N of the monolithic Algorithm 4 scan;
- statistics aggregate across shards via
  :class:`~repro.nvm.backend.ShardedBackend`.

The default shard substrate is :class:`~repro.nvm.backend.RawBackend`
(sharding is a throughput construct, not a figure-reproduction one),
but any factory works — including per-shard simulators for costed
experiments.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.core.directory import DirectoryTable
from repro.core.group_hash import GroupHashTable
from repro.hashes import HashFamily
from repro.nvm.backend import MemoryBackend, RawBackend, ShardedBackend
from repro.nvm.crash import CrashSchedule
from repro.nvm.memory import CrashReport
from repro.nvm.stats import MemStats
from repro.tables.base import PersistentHashTable
from repro.tables.cell import CellCodec, ItemSpec

#: router seed perturbation: keeps the shard-choice hash independent of
#: the in-table hash family even though both derive from one user seed
_ROUTER_SALT = 0x51A2DED


def _default_group_size(n_cells_per_shard: int) -> int:
    """Largest power of two ≤ 128 dividing the per-shard level size —
    keeps the paper's contiguous-group property at any shard size."""
    level = max(2, n_cells_per_shard // 2)
    size = 1
    while size < 128 and level % (size * 2) == 0:
        size *= 2
    return size


def _default_backend_factory(
    n_cells_per_shard: int, spec: ItemSpec, *, growth_headroom: int = 1
) -> Callable[[int], MemoryBackend]:
    """Per-shard :class:`RawBackend` sized like the bench regions;
    ``growth_headroom`` multiplies the table-array budget so growable
    shards have room for split segments and directory doublings."""
    codec = CellCodec(spec)
    size = int(codec.array_bytes(n_cells_per_shard) * 1.25) * growth_headroom + (
        1 << 16
    )

    def factory(shard: int) -> MemoryBackend:
        return RawBackend(size, name=f"shard{shard}")

    return factory


class ShardedTable:
    """Hash-partitioned persistent table across N backend shards.

    Routes every operation to ``shard = router(key) % n_shards`` and
    delegates to that shard's own :class:`PersistentHashTable`. The
    public surface mirrors the single table (insert/query/delete/update,
    count, load factor, ``items``, ``check_count``) plus the sharded
    extras: per-shard crash injection and independent recovery.
    """

    def __init__(
        self,
        n_cells: int,
        spec: ItemSpec | None = None,
        *,
        n_shards: int = 4,
        seed: int = 0x5EED,
        backend_factory: Callable[[int], MemoryBackend] | None = None,
        table_factory: Callable[
            [MemoryBackend, int, ItemSpec, int], PersistentHashTable
        ]
        | None = None,
        growable: bool = False,
        segment_cells: int | None = None,
    ) -> None:
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if n_cells < n_shards:
            raise ValueError("need at least one cell per shard")
        self.spec = spec or ItemSpec()
        self.n_shards = n_shards
        self.seed = seed
        self.growable = growable
        # equal shards, rounded up to even so two-level schemes fit
        per_shard = -(-n_cells // n_shards)
        per_shard += per_shard % 2
        self.n_cells_per_shard = per_shard
        if backend_factory is None:
            backend_factory = _default_backend_factory(
                per_shard,
                self.spec,
                # growable shards split segments out of the same backend:
                # leave room for several capacity doublings plus the
                # retired directory arrays they strand
                growth_headroom=8 if growable else 1,
            )
        if table_factory is None and growable:
            seg_cells = segment_cells or min(512, per_shard)

            def table_factory(
                backend: MemoryBackend, cells: int, spec: ItemSpec, table_seed: int
            ) -> DirectoryTable:
                return DirectoryTable(
                    backend,
                    cells,
                    spec,
                    segment_cells=seg_cells,
                    seed=table_seed,
                )

        elif table_factory is None:
            group_size = _default_group_size(per_shard)

            def table_factory(
                backend: MemoryBackend, cells: int, spec: ItemSpec, table_seed: int
            ) -> PersistentHashTable:
                return GroupHashTable(
                    backend, cells, spec, group_size=group_size, seed=table_seed
                )

        self.backend = ShardedBackend(n_shards, backend_factory)
        # distinct per-shard table seeds: identical seeds would give every
        # shard the same placement function, which is fine for correctness
        # but correlates overflow behaviour across shards
        self.tables: list[PersistentHashTable] = [
            table_factory(self.backend.shard(i), per_shard, self.spec, seed ^ i)
            for i in range(n_shards)
        ]
        self._router = HashFamily(seed ^ _ROUTER_SALT).function(0)

    # ------------------------------------------------------------------
    # routing

    def shard_of(self, key: bytes) -> int:
        """Shard index serving ``key``."""
        return self._router(key) % self.n_shards

    def table_for(self, key: bytes) -> PersistentHashTable:
        """The per-shard table serving ``key``."""
        return self.tables[self.shard_of(key)]

    # ------------------------------------------------------------------
    # the single-table surface, routed

    def insert(self, key: bytes, value: bytes) -> bool:
        """Insert into the key's shard; False when that shard is full.
        Growable shards (``growable=True``) split a full segment and
        retry instead, so False means pathological skew, not capacity."""
        return self.table_for(key).insert(key, value)

    def query(self, key: bytes) -> bytes | None:
        """Return the value stored for ``key``, or ``None``."""
        return self.table_for(key).query(key)

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns whether it was present."""
        return self.table_for(key).delete(key)

    def update(self, key: bytes, value: bytes) -> bool:
        """In-place value update in the key's shard."""
        return self.table_for(key).update(key, value)

    # ------------------------------------------------------------------
    # batch operations (DESIGN.md decision 13)

    def _shard_indices(self, keys: list[bytes]) -> dict[int, list[int]]:
        """Input indices grouped per shard, preserving relative order
        within each shard (the order the sub-batch is submitted in)."""
        per_shard: dict[int, list[int]] = {}
        for i, key in enumerate(keys):
            per_shard.setdefault(self.shard_of(key), []).append(i)
        return per_shard

    def put_many(self, items: list[tuple[bytes, bytes]]) -> list[bool]:
        """Batched insert: items are routed into per-shard sub-batches
        (relative order preserved) and each shard commits its sub-batch
        with its own coalesced ``put_many``; results in input order.
        Shards whose table type lacks a batch API fall back to a scalar
        loop — routing semantics are identical either way."""
        out = [False] * len(items)
        for shard, idxs in sorted(self._shard_indices([k for k, _ in items]).items()):
            table = self.tables[shard]
            sub = [items[i] for i in idxs]
            if hasattr(table, "put_many"):
                res = table.put_many(sub)
            else:
                res = [table.insert(k, v) for k, v in sub]
            for i, r in zip(idxs, res):
                out[i] = r
        return out

    def get_many(self, keys: list[bytes]) -> list[bytes | None]:
        """Batched lookup via per-shard sub-batches; input order."""
        out: list[bytes | None] = [None] * len(keys)
        for shard, idxs in sorted(self._shard_indices(keys).items()):
            table = self.tables[shard]
            sub = [keys[i] for i in idxs]
            if hasattr(table, "get_many"):
                res = table.get_many(sub)
            else:
                res = [table.query(k) for k in sub]
            for i, r in zip(idxs, res):
                out[i] = r
        return out

    def delete_many(self, keys: list[bytes]) -> list[bool]:
        """Batched delete via per-shard sub-batches; input order.
        Duplicate keys route to one shard, so the per-table rule (later
        occurrences re-probe after the coalesced commit, matching the
        scalar loop) applies globally."""
        out = [False] * len(keys)
        for shard, idxs in sorted(self._shard_indices(keys).items()):
            table = self.tables[shard]
            sub = [keys[i] for i in idxs]
            if hasattr(table, "delete_many"):
                res = table.delete_many(sub)
            else:
                res = [table.delete(k) for k in sub]
            for i, r in zip(idxs, res):
                out[i] = r
        return out

    # ------------------------------------------------------------------
    # aggregated state

    @property
    def capacity(self) -> int:
        """Total cells across all shards."""
        return sum(t.capacity for t in self.tables)

    @property
    def count(self) -> int:
        """Total occupied cells across all shards (volatile mirrors)."""
        return sum(t.count for t in self.tables)

    @property
    def persisted_count(self) -> int:
        """Sum of every shard's persistent ``count`` field."""
        return sum(t.persisted_count for t in self.tables)

    @property
    def load_factor(self) -> float:
        """Global count / capacity."""
        return self.count / self.capacity

    @property
    def stats(self) -> MemStats:
        """Aggregated event counters across every shard's backend."""
        return self.merged_stats()

    def shard_stats(self) -> list[MemStats]:
        """Each shard backend's counters, in shard order (snapshots —
        mutating them does not affect the shards)."""
        return [self.backend.shard(i).stats.snapshot() for i in range(self.n_shards)]

    def merged_stats(self) -> MemStats:
        """Element-wise sum of every shard's counters via
        :meth:`MemStats.merged_all` — the convenience benchmarks use
        instead of hand-rolling per-shard merge loops."""
        return MemStats.merged_all(self.shard_stats())

    def instrument(self, tracer=None, metrics=None) -> None:
        """Attach observability sinks to every shard's table (see
        :meth:`PersistentHashTable.instrument`); all shards share the
        one tracer and registry, so spans and counters aggregate across
        the whole partitioned table."""
        for table in self.tables:
            table.instrument(tracer, metrics)

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Yield all stored pairs, shard by shard (cost-free inventory)."""
        for table in self.tables:
            yield from table.items()

    def check_count(self) -> bool:
        """Whether every shard's persistent count matches its occupancy
        (the global consistency invariant)."""
        return all(t.check_count() for t in self.tables)

    def integrity_violations(self) -> list[str]:
        """Every shard's structural self-checks, each prefixed with its
        shard (``"shard i: ..."``); empty when all shards are sound."""
        return [
            f"shard {i}: {problem}"
            for i, table in enumerate(self.tables)
            for problem in table.integrity_violations()
        ]

    def shard_counts(self) -> list[int]:
        """Per-shard item counts (balance diagnostic)."""
        return [t.count for t in self.tables]

    @property
    def splits(self) -> int:
        """Total segment splits across growable shards (0 when the
        shards are fixed-size tables)."""
        return sum(getattr(t, "splits", 0) for t in self.tables)

    # ------------------------------------------------------------------
    # independent crash / recovery

    def crash(
        self,
        schedule: CrashSchedule | None = None,
        *,
        shard: int | None = None,
    ) -> list[CrashReport]:
        """Power-fail one shard (``shard=i``) or all shards.

        Other shards keep serving; their unflushed data is untouched."""
        return self.backend.crash(schedule, shard=shard)

    def _shard_tables(self, shard: int | None) -> list[PersistentHashTable]:
        if shard is None:
            return self.tables
        if not 0 <= shard < self.n_shards:
            raise IndexError(f"shard {shard} out of range [0, {self.n_shards})")
        return [self.tables[shard]]

    def reattach(self, shard: int | None = None) -> None:
        """Reload volatile mirrors from NVM after a crash, for one shard
        or all of them."""
        for table in self._shard_tables(shard):
            table.reattach()

    def recover(self, shard: int | None = None) -> None:
        """Run the per-scheme recovery (Algorithm 4 for group hashing)
        on one shard or all shards. Recovering a single shard scans only
        its cells — 1/n_shards of the monolithic scan."""
        for table in self._shard_tables(shard):
            table.recover()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedTable(n_shards={self.n_shards}, "
            f"cells/shard={self.n_cells_per_shard}, count={self.count})"
        )
