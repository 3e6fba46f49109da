"""Persist-*ordering* tests — the property the paper's consistency
argument actually rests on.

Crash fuzzing (test_crash_consistency.py) shows recovery works; these
tests pin the mechanism: using the region's event hook, we record the
program-order sequence of write/flush/fence events and assert the exact
orderings of Algorithms 1 and 3:

- insert: key-value bytes are written AND flushed AND fenced *before*
  the header word (bitmap) store issues; the bitmap is flushed before
  the count store;
- delete: the bitmap store issues *before* the key-value clear (the
  reverse of insert — the paper's Section 3.4 subtlety);
- undo log: a cell's pre-image is flushed before the cell is
  overwritten.
"""


from tests.conftest import make_table, small_region

from repro.tables.cell import HEADER_SIZE


class EventRecorder:
    """Capture (kind, addr, size) in program order."""

    def __init__(self, region):
        self.events: list[tuple[str, int, int]] = []
        region.observe(self)

    def __call__(self, kind, addr, size):
        self.events.append((kind, addr, size))

    def index_of(self, kind, predicate):
        for i, (k, addr, size) in enumerate(self.events):
            if k == kind and predicate(addr, size):
                return i
        raise AssertionError(f"no {kind} event matching predicate")

    def clear(self):
        self.events.clear()


def cell_addr_of(table, key):
    """Address of the cell holding ``key`` (scheme-independent: scans
    the cell inventory via cost-free peeks)."""
    from repro.tables.cell import OCCUPIED_BIT

    spec = table.spec
    for addr in table._iter_cell_addrs():
        header = table.region.peek_volatile(addr, 1)
        if header[0] & OCCUPIED_BIT:
            if table.region.peek_volatile(addr + HEADER_SIZE, spec.key_size) == key:
                return addr
    raise AssertionError("key not found in any cell")


def test_insert_orders_kv_before_bitmap_before_count():
    region = small_region()
    table = make_table("group", region)
    rec = EventRecorder(region)
    key, value = b"ordering", b"evidence"
    assert table.insert(key, value)
    addr = cell_addr_of(table, key)

    kv_write = rec.index_of("write", lambda a, s: a == addr + HEADER_SIZE and s == 16)
    kv_flush = rec.index_of("flush", lambda a, s: a <= addr + HEADER_SIZE < a + s)
    header_write = rec.index_of("write", lambda a, s: a == addr and s == 8)
    header_flush = max(
        i
        for i, (k, a, s) in enumerate(rec.events)
        if k == "flush" and a <= addr < a + s
    )
    count_write = rec.index_of(
        "write", lambda a, s: a == table._count_addr and s == 8
    )
    # Algorithm 1 lines 4-9, exactly:
    assert kv_write < kv_flush < header_write < header_flush < count_write
    # and a fence separates the kv persist from the bitmap store
    assert any(
        k == "fence" for k, _, _ in rec.events[kv_flush + 1 : header_write]
    )


def test_delete_orders_bitmap_before_kv_clear():
    region = small_region()
    table = make_table("group", region)
    key, value = b"ordering", b"evidence"
    table.insert(key, value)
    addr = cell_addr_of(table, key)
    rec = EventRecorder(region)
    assert table.delete(key)

    header_write = rec.index_of("write", lambda a, s: a == addr and s == 8)
    kv_clear = rec.index_of("write", lambda a, s: a == addr + HEADER_SIZE and s == 16)
    count_write = rec.index_of("write", lambda a, s: a == table._count_addr)
    # Algorithm 3 lines 4-9: bitmap first, then the clear, then count
    assert header_write < kv_clear < count_write


def test_every_scheme_flushes_kv_before_committing_header():
    """The shared _install discipline holds for every scheme that uses
    it (all cell-based baselines)."""
    for scheme in ("linear", "pfht", "path", "two-choice", "group"):
        region = small_region()
        table = make_table(scheme, region)
        rec = EventRecorder(region)
        key, value = b"ordering", b"evidence"
        assert table.insert(key, value)
        addr = cell_addr_of(table, key)
        kv_write = rec.index_of(
            "write", lambda a, s: a == addr + HEADER_SIZE and s == 16
        )
        kv_flush = rec.index_of("flush", lambda a, s: a <= addr + HEADER_SIZE < a + s)
        header_write = rec.index_of("write", lambda a, s: a == addr and s == 8)
        assert kv_write < kv_flush < header_write, scheme


def test_undo_log_flushes_preimage_before_overwrite():
    region = small_region()
    table = make_table("linear", region, logged=True)
    key, value = b"ordering", b"evidence"
    table.insert(key, value)
    addr = cell_addr_of(table, key)
    rec = EventRecorder(region)
    table.delete(key)
    log = table.log
    # first log-entry write lands in the entries area
    entry_write = rec.index_of(
        "write", lambda a, s: log._entries_addr <= a < log._entries_addr + 4096
    )
    entry_flush = rec.index_of(
        "flush", lambda a, s: log._entries_addr <= a < log._entries_addr + 4096
    )
    cell_mutation = rec.index_of("write", lambda a, s: addr <= a < addr + 24)
    assert entry_write < entry_flush < cell_mutation


def test_insert_issues_no_reads_of_other_groups():
    """Group sharing's locality contract: an insert touches only the
    home cell's line(s), its matched group, and the metadata block —
    never another group."""
    region = small_region()
    table = make_table("group", region)
    key = b"ordering"
    rec = EventRecorder(region)
    table.insert(key, b"evidence")
    layout, codec = table.layout, table.codec
    k = layout.slot(table._hashes[0](key))
    group_start = layout.group_start(k)
    valid_ranges = [
        (table._info_addr, 64),
        (layout.tab1_addr(codec, k), codec.cell_size),
        (
            layout.tab2_addr(codec, group_start),
            codec.cell_size * table.group_size,
        ),
    ]
    for kind, a, s in rec.events:
        if kind == "fence":
            continue
        # flushes arrive line-aligned, so compare with one line of slack
        assert any(
            a + s > lo - 64 and a < lo + length + 64
            for lo, length in valid_ranges
        ), (kind, a, s)
