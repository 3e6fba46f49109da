"""Algorithm 4: group hashing's post-crash recovery.

The whole table is scanned once. Every cell whose bitmap is 0 may hold a
partial (torn) key-value write from an interrupted insert, or the stale
payload of an interrupted delete — its key-value field is reset and the
reset persisted. Occupied cells are counted, and the ``count`` field in
the global info block is rewritten with the true value.

Two deviations from the literal pseudocode, both noted in DESIGN.md:

- the pseudocode persists a reset for *every* unoccupied cell; we only
  write (and persist) cells whose key-value field is actually non-zero.
  Resetting already-zero cells would write the entire empty table on
  every recovery, contradicting the paper's measured sub-1 % recovery
  times (Table 3) — their implementation must skip clean cells too.
- the scan is driven through the same costed region API as normal
  operations, so Table 3's recovery-time measurements come out of the
  simulator's clock. It is one ``scan_torn`` call per stretch between
  torn cells, charged as one ``read`` of header + key + value per cell
  in the per-cell loop's order. The simulator decodes the stretch from
  its volatile view and charges it line by line: one cache lookup per
  line entered and a hit for every further cell on that line. Reads,
  resets, flushes and fences therefore happen exactly as in the
  per-cell loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.tables.cell import HEADER_SIZE, OCCUPIED_BIT

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.group_hash import GroupHashTable
    from repro.tables.base import PersistentHashTable


def recover_table(table: "PersistentHashTable") -> int:
    """Uniform reboot entry point for any scheme: reattach the volatile
    mirrors to the (post-crash) persistent state, then run the scheme's
    own recovery — Algorithm 4 for group hashing, undo-log rollback plus
    count rebuild for the logged baselines. Returns the recovered item
    count.

    The crash-matrix campaigns (:mod:`repro.nvm.crashpoint`) funnel every
    scheme through this one function so the replay harness cannot drift
    from what a real restart would do."""
    table.reattach()
    if table.log is not None:
        table.log.reattach()
    table.recover()
    return table.count


def recover_group_table(table: "GroupHashTable") -> int:
    """Run Algorithm 4 on ``table``; returns the recovered item count."""
    codec, region, layout = table.codec, table.region, table.layout
    # one load covers header + key + value, so the scan charges the
    # events of one read per cell: consecutive cells share cachelines and
    # the scan runs at ~one miss per line — the linearity Table 3 shows
    size = HEADER_SIZE + table.spec.item_size
    stride = codec.cell_size
    tr, mx = table.tracer, table.metrics
    if tr is not None:
        tr.push("recover")
    count = 0
    reset = 0
    for level_base_addr in (layout.tab1_base, layout.tab2_base):
        start = 0
        while start < layout.n_cells_level:
            torn, occupied = region.scan_torn(
                codec.addr(level_base_addr, start),
                stride,
                layout.n_cells_level - start,
                size,
                OCCUPIED_BIT,
            )
            count += occupied
            if torn is None:
                break
            addr = codec.addr(level_base_addr, start + torn)
            codec.clear_kv(region, addr)
            region.persist(*codec.kv_span(addr))
            reset += 1
            start += torn + 1
    table._set_count(count)
    if mx is not None:
        mx.counter("recovery.cells_scanned").inc(2 * layout.n_cells_level)
        mx.counter("recovery.cells_reset").inc(reset)
        mx.counter("recovery.runs").inc()
    if tr is not None:
        tr.pop()
    return count
