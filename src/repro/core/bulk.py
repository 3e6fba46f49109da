"""Bulk loading for group hashing.

Filling a table one ``insert`` at a time pays three flushes per item
(Algorithm 1's kv / bitmap / count persists) and visits cells in hash
order — random cacheline traffic. For initial loads (restoring a backup
of a dedup index, warming a cache from a snapshot) none of that is
necessary, and this module provides the standard optimisation:

1. *plan* all placements in memory in item order (the home cell under
   hash 0, else the first free slot of its level-2 group; only an item
   neither can take tries the other hash functions, in order, the same
   way — Algorithm 1's placement policy, so the resulting table is
   indistinguishable from one built by single inserts in the same
   order);
2. *write* cells in **address order**, setting the kv and header of
   each cell with no per-cell persist;
3. *flush* each touched cacheline exactly once, sequentially (stream-
   prefetch friendly), fence, and persist the count last.

Planning hashes the items :data:`BULK_CHUNK` at a time
(:meth:`HashFamily.hash_many`), and the writes go through the backend's
bulk stores (:meth:`~repro.nvm.backend.MemoryBackend.store_cells`,
``flush_lines``) in ascending chunks of at most :data:`BULK_CHUNK`
cells — on the simulator, a batch charged once per cacheline — each
chunk's flush list built from the same cell list. No per-item list of
the whole batch is held beyond the placement plan.

Trade-off, stated loudly: a crash **during** a bulk load is not
item-atomic — a torn line can persist a set bitmap without its
key-value bytes (Algorithm 4 trusts set bitmaps). Callers must treat an
interrupted bulk load as "reload from source", exactly like any bulk
loader. Once :func:`bulk_load` returns, the table is fully persistent
and back under Algorithm 1's per-operation guarantees.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.group_hash import GroupHashTable, _touched_lines
from repro.tables.cell import HEADER_SIZE, OCCUPIED_BIT

#: items hashed, and cells stored, per call
BULK_CHUNK = 4096


def bulk_load(
    table: GroupHashTable, items: Iterable[tuple[bytes, bytes]]
) -> list[tuple[bytes, bytes]]:
    """Load ``items`` into ``table``; returns the rejected overflow
    (items whose home cell and matched group were full under every hash
    function).

    The table may already contain data; existing cells are respected.
    Raises ValueError, with nothing stored, when any item's key or
    value is not the table spec's width.
    """
    items = items if isinstance(items, list) else list(items)
    table._check_items(items)
    region, layout = table.region, table.layout
    cell_size = table.codec.cell_size
    group_size = table.group_size
    n_level = layout.n_cells_level
    tab1, tab2 = layout.tab1_base, layout.tab2_base
    hashes = table._hashes
    hash_many = table.family.hash_many

    # ---- plan placements in memory -----------------------------------
    # current occupancy, read once (cost-free peeks: planning is CPU
    # work, not memory traffic) through the table's bounded range-peek
    # windows — never one peek per cell (pinned by tests/test_bulk_load.py)
    level1_used = bytearray(table._occupied_flags(tab1))
    level2_used = bytearray(table._occupied_flags(tab2))

    # one int per placement, cell address above item index: sorting the
    # ints sorts the cells into address order
    shift = len(items).bit_length()
    placements: list[int] = []
    rejected: list[tuple[bytes, bytes]] = []
    for start in range(0, len(items), BULK_CHUNK):
        chunk = items[start : start + BULK_CHUNK]
        homes = hash_many(0, [key for key, _ in chunk])
        for index, item, home in zip(range(start, start + len(chunk)), chunk, homes):
            # Algorithm 1 per hash function: the home cell, else the
            # group's first free cell; only an item hash 0 cannot place
            # walks the others
            k = home % n_level
            hi = 0
            while True:
                if not level1_used[k]:
                    level1_used[k] = 1
                    placements.append((tab1 + k * cell_size) << shift | index)
                    break
                group = k - k % group_size
                j = level2_used.find(0, group, group + group_size)
                if j >= 0:
                    level2_used[j] = 1
                    placements.append((tab2 + j * cell_size) << shift | index)
                    break
                hi += 1
                if hi == len(hashes):
                    rejected.append(item)
                    break
                k = hashes[hi](item[0]) % n_level

    if not placements:
        return rejected

    # ---- write in address order, flush each line once ----------------
    placements.sort()
    index_mask = (1 << shift) - 1
    lines: list[int] = []
    for start in range(0, len(placements), BULK_CHUNK):
        chunk = placements[start : start + BULK_CHUNK]
        cells = [p >> shift for p in chunk]
        payloads = [
            key + value
            for key, value in map(items.__getitem__, map(index_mask.__and__, chunk))
        ]
        region.store_cells(cells, payloads, HEADER_SIZE, OCCUPIED_BIT)
        # chunks ascend, so only a chunk's first line can repeat the
        # previous chunk's last
        chunk_lines = _touched_lines(cells, 0, cell_size, region.line_size)
        if lines and lines[-1] == chunk_lines[0]:
            del chunk_lines[0]
        lines += chunk_lines
    region.flush_lines(lines)
    region.mfence()

    table._set_count(table.count + len(placements))
    return rejected
