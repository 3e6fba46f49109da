"""Bulk loading for group hashing.

Filling a table one ``insert`` at a time pays three flushes per item
(Algorithm 1's kv / bitmap / count persists) and visits cells in hash
order — random cacheline traffic. For initial loads (restoring a backup
of a dedup index, warming a cache from a snapshot) none of that is
necessary, and this module provides the standard optimisation:

1. *plan* all placements in memory (home cell, else first free slot of
   the matched level-2 group — identical placement policy to
   Algorithm 1, so the resulting table is indistinguishable from one
   built by single inserts in the same order);
2. *write* cells in **address order**, setting the kv and header of
   each cell with no per-cell persist;
3. *flush* each touched cacheline exactly once, sequentially (stream-
   prefetch friendly), fence, and persist the count last.

Trade-off, stated loudly: a crash **during** a bulk load is not
item-atomic — a torn line can persist a set bitmap without its
key-value bytes (Algorithm 4 trusts set bitmaps). Callers must treat an
interrupted bulk load as "reload from source", exactly like any bulk
loader. Once :func:`bulk_load` returns, the table is fully persistent
and back under Algorithm 1's per-operation guarantees.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.group_hash import GroupHashTable


def bulk_load(
    table: GroupHashTable, items: Iterable[tuple[bytes, bytes]]
) -> list[tuple[bytes, bytes]]:
    """Load ``items`` into ``table``; returns the rejected overflow
    (items whose home cell and matched group were full).

    The table may already contain data; existing cells are respected.
    """
    codec, region, layout = table.codec, table.region, table.layout
    group_size = table.group_size
    hash0 = table._hashes[0]

    # ---- plan placements in memory -----------------------------------
    # current occupancy, read once (cost-free peeks: planning is CPU
    # work, not memory traffic) through the table's bounded range-peek
    # windows — never one peek per cell (pinned by tests/test_bulk_load.py)
    level1_used = list(table._occupied_flags(layout.tab1_base))
    level2_used = list(table._occupied_flags(layout.tab2_base))

    placements: list[tuple[int, bytes, bytes]] = []  # (cell addr, key, value)
    rejected: list[tuple[bytes, bytes]] = []
    for key, value in items:
        k = layout.slot(hash0(key))
        if not level1_used[k]:
            level1_used[k] = True
            placements.append((layout.tab1_addr(codec, k), key, value))
            continue
        start = layout.group_start(k)
        for j in range(start, start + group_size):
            if not level2_used[j]:
                level2_used[j] = True
                placements.append((layout.tab2_addr(codec, j), key, value))
                break
        else:
            rejected.append((key, value))

    if not placements:
        return rejected

    # ---- write in address order, flush each line once ----------------
    placements.sort(key=lambda p: p[0])
    line = region.line_size
    touched_lines: list[int] = []
    for addr, key, value in placements:
        codec.write_kv(region, addr, key, value)
        codec.set_occupied(region, addr, True)
        first = addr // line
        last = (addr + codec.cell_size - 1) // line
        for ln in range(first, last + 1):
            if not touched_lines or touched_lines[-1] != ln:
                touched_lines.append(ln)
    for ln in touched_lines:
        region.clflush(ln * line)
    region.mfence()

    table._set_count(table.count + len(placements))
    return rejected
