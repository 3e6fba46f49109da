"""The scan primitives, written once for every backend.

A scan primitive (``scan_match``, ``scan_torn``, ...) is defined by the
event sequence of its per-call loop of loads: one ``read`` or
``read_u64`` per probed cell, in order, up to the cell that answers.
Each primitive here has three pieces:

- a **decoder** that reads the answer straight from a backend's volatile
  bytearray (the answer fixes the probed prefix: up to the hit, or the
  whole window);
- the **reference loop** over the ``read``/``read_u64`` protocol, which
  is the contract, the oracle of the tests, and the path of everything
  the decoders do not take;
- the backend's **charge hook** ``_charge_reads(cells, size)``, which
  accounts one ``read(a, size)`` per address of the probed prefix:
  :class:`~repro.nvm.memory.NVMRegion` runs it through its cache model,
  :class:`~repro.nvm.backend.RawBackend` only counts it.

:class:`Scans` holds the methods. A backend decodes in place only when
it is exactly the class that set ``_in_place``; subclasses (which may
remap addresses, like wear leveling), windows or gathers with a cell
outside the region, and geometry the decoders do not take run the loop,
so their answers, counts and errors are the loop's.
"""

from __future__ import annotations

import struct

_U64 = struct.Struct("<Q")

#: per byte mask, the ``bytes.translate`` table sending a header byte
#: to b"1" when it has a mask bit and to b"0" when not
_BIT_TABLES: dict[int, bytes] = {}

#: per byte mask, the ``bytes.translate`` table sending a header byte
#: to 0xFF when it has no mask bit (a free cell) and to 0 when it has one
_FREE_TABLES: dict[int, bytes] = {}

#: cells in the clear-bit decoder's first chunk, and the factor by which
#: each further chunk grows: a chunk costs a few cells of a per-cell
#: loop whatever its length, so an early exit stays cheap and a miss
#: over a 256-cell group reads four chunks
_CLEAR_CHUNK = 8
_CLEAR_GROWTH = 4


def _free_table(mask: int) -> bytes:
    table = _FREE_TABLES.get(mask)
    if table is None:
        table = _FREE_TABLES[mask] = bytes(
            0 if byte & mask else 0xFF for byte in range(256)
        )
    return table


# ----------------------------------------------------------------------
# decoders: answers read from the volatile image


def _occupied_bitmap(vol: bytearray, cells, mask: int) -> int:
    """Bit ``i`` set iff the little-endian header word at the ``i``-th
    address of ``cells`` (a range or a list) has a ``mask`` bit. A byte
    mask reads one byte per cell, a strided window as one slice."""
    if not 0 <= mask <= 0xFF:
        unpack = _U64.unpack_from
        digits = bytes(49 if unpack(vol, addr)[0] & mask else 48 for addr in cells)
        return int(digits[::-1], 2)
    table = _BIT_TABLES.get(mask)
    if table is None:
        table = _BIT_TABLES[mask] = bytes(
            49 if byte & mask else 48 for byte in range(256)
        )
    if type(cells) is range:
        headers = vol[cells.start : cells.stop : cells.step]
    else:
        headers = bytes(map(vol.__getitem__, cells))
    return int(headers.translate(table)[::-1], 2)


def _first_clear(vol: bytearray, cells, mask: int) -> int:
    """Index of the first address of ``cells`` whose header word has no
    ``mask`` bit, or -1.

    A strided window with a byte mask is read in chunks of
    :data:`_CLEAR_CHUNK` cells, each further one :data:`_CLEAR_GROWTH`
    times the one before, each one strided slice mapped through a table
    and searched: an early exit costs about what it probed (a
    linear-probing window is the table's whole tail), a miss about one
    pass over the window. Gathers and wider masks go cell by cell."""
    if not 0 <= mask <= 0xFF:
        unpack = _U64.unpack_from
        for i, addr in enumerate(cells):
            if not unpack(vol, addr)[0] & mask:
                return i
        return -1
    if type(cells) is not range:
        for i, addr in enumerate(cells):
            if not vol[addr] & mask:
                return i
        return -1
    table = _free_table(mask)
    start, step, n = cells.start, cells.step, len(cells)
    done, chunk = 0, _CLEAR_CHUNK
    while done < n:
        end = min(done + chunk, n)
        headers = vol[start + done * step : start + (end - 1) * step + 1 : step]
        i = headers.translate(table).find(0xFF)
        if i >= 0:
            return done + i
        done, chunk = end, _CLEAR_GROWTH * chunk
    return -1


def _first_ne(vol: bytearray, cells, value: int) -> int:
    """Index of the first address of ``cells`` whose little-endian word
    is not ``value``, or -1."""
    unpack = _U64.unpack_from
    for i, addr in enumerate(cells):
        if unpack(vol, addr)[0] != value:
            return i
    return -1


def _first_key(
    vol: bytearray, cells: range, key: bytes, key_offset: int, mask: int
) -> int:
    """Index of the first of the strided, non-empty ``cells`` whose
    header byte 0 has a ``mask`` bit and that stores ``key`` at
    ``key_offset``, or -1. ``bytearray.find`` stops at the first
    occurrence, so a hit costs about what it probed; occurrences off a
    cell's key field are skipped."""
    stride = cells.step
    start = cells.start + key_offset
    stop = cells[-1] + key_offset + len(key)
    pos = vol.find(key, start, stop)
    while pos >= 0:
        i, off = divmod(pos - start, stride)
        if not off and vol[pos - key_offset] & mask:
            return i
        pos = vol.find(key, pos + 1, stop)
    return -1


def _first_key_at(
    vol: bytearray, addrs: list, key: bytes, key_offset: int, mask: int
) -> int:
    """Gather variant of :func:`_first_key`: index of the first address
    of ``addrs`` holding an occupied cell that stores ``key``, or -1."""
    end = key_offset + len(key)
    for i, addr in enumerate(addrs):
        if vol[addr] & mask and vol[addr + key_offset : addr + end] == key:
            return i
    return -1


def _first_free_or_key(
    vol: bytearray, cells: range, key: bytes, key_offset: int, mask: int
) -> tuple[int, bool] | None:
    """``(i, matched)`` for the first of the strided ``cells`` that is
    free (header byte 0 has no ``mask`` bit) or stores ``key``, or None.
    Cell by cell: a linear probe mostly stops within a few cells, often
    at a match in the middle of a cluster."""
    end = key_offset + len(key)
    for i, addr in enumerate(cells):
        if not vol[addr] & mask:
            return i, False
        if vol[addr + key_offset : addr + end] == key:
            return i, True
    return None


def _match_pairs(vol: bytearray, pairs: list, key_offset: int, mask: int) -> list[bool]:
    """Per ``(addr, key)`` pair: whether the cell at ``addr`` is occupied
    and stores ``key`` at ``key_offset``."""
    return [
        bool(vol[addr] & mask)
        and vol[addr + key_offset : addr + key_offset + len(key)] == key
        for addr, key in pairs
    ]


def _first_torn(vol: bytearray, cells: range, size: int, mask: int) -> tuple[int, int]:
    """``(i, occupied)`` for the strided ``cells`` read ``size`` bytes
    each: ``i`` is the index of the first cell whose header byte 0 has
    no ``mask`` bit while its bytes ``[8, size)`` are non-zero (-1 if
    none), and ``occupied`` counts the cells before it (all of them if
    none) whose header byte 0 has one.

    Each column of the window — one byte offset of every cell — is one
    strided slice read as a little-endian integer, so byte ``i`` of an
    integer belongs to cell ``i``: the payload columns OR-ed together
    and masked with the free cells' 0xFF bytes leave the torn cells."""
    start, step = cells.start, cells.step
    last = cells[-1] + 1
    free = vol[start:last:step].translate(_free_table(mask & 0xFF))
    payload = 0
    for off in range(8, size):
        payload |= int.from_bytes(vol[start + off : last + off : step], "little")
    torn = payload & int.from_bytes(free, "little")
    if not torn:
        return -1, len(free) - free.count(0xFF)
    i = ((torn & -torn).bit_length() - 1) >> 3
    return i, i - free.count(0xFF, 0, i)


# ----------------------------------------------------------------------
# reference loops: the contracts, over the read/read_u64 protocol, one
# per method of the same name (scan_match_many's is scan_match per key)


def _scan_clear_loop(region, addr: int, stride: int, count: int, mask: int):
    read_u64 = region.read_u64
    for i in range(count):
        if not read_u64(addr) & mask:
            return i
        addr += stride
    return None


def _scan_match_loop(region, addr, stride, count, key, mask, key_offset):
    size = key_offset + len(key)
    for i in range(count):
        raw = region.read(addr, size)
        if raw[0] & mask and raw[key_offset:] == key:
            return i
        addr += stride
    return None


def _scan_occupied_loop(region, addr: int, stride: int, count: int, mask: int) -> int:
    read_u64 = region.read_u64
    bitmap = 0
    for i in range(count):
        if read_u64(addr) & mask:
            bitmap |= 1 << i
        addr += stride
    return bitmap


def _scan_occupied_at_loop(region, addrs, mask: int) -> int:
    read_u64 = region.read_u64
    # one b"0"/b"1" digit per address, read as one integer: linear in
    # the address count (a whole table's cells, for the generic
    # recover), where OR-ing in ``1 << i`` per cell is quadratic
    digits = bytes(49 if read_u64(addr) & mask else 48 for addr in addrs)
    return int(digits[::-1], 2) if digits else 0


def _scan_probe_loop(region, addr, stride, count, key, mask, key_offset):
    size = key_offset + len(key)
    for i in range(count):
        raw = region.read(addr, size)
        if not raw[0] & mask:
            return i, False
        if raw[key_offset:] == key:
            return i, True
        addr += stride
    return None


def _scan_clear_at_loop(region, addrs, mask: int):
    read_u64 = region.read_u64
    for i, addr in enumerate(addrs):
        if not read_u64(addr) & mask:
            return i
    return None


def _scan_ne_at_loop(region, addrs, value: int):
    read_u64 = region.read_u64
    for i, addr in enumerate(addrs):
        if read_u64(addr) != value:
            return i
    return None


def _scan_match_at_loop(region, addrs, key, mask, key_offset):
    size = key_offset + len(key)
    for i, addr in enumerate(addrs):
        raw = region.read(addr, size)
        if raw[0] & mask and raw[key_offset:] == key:
            return i
    return None


def _scan_match_pairs_loop(region, pairs, mask, key_offset) -> list[bool]:
    out: list[bool] = []
    for addr, key in pairs:
        raw = region.read(addr, key_offset + len(key))
        out.append(bool(raw[0] & mask) and raw[key_offset:] == key)
    return out


def _scan_torn_loop(
    region, addr: int, stride: int, count: int, size: int, mask: int
) -> tuple[int | None, int]:
    occupied = 0
    for i in range(count):
        raw = region.read(addr, size)
        if raw[0] & mask:
            occupied += 1
        elif any(raw[8:]):
            return i, occupied
        addr += stride
    return None, occupied


# ----------------------------------------------------------------------
# the primitives


class Scans:
    """The scan primitives of :class:`~repro.nvm.backend.MemoryBackend`,
    for hosts with ``size``, a volatile ``_volatile`` bytearray, an
    ``_in_place`` flag (True when the host decodes in place) and a
    ``_charge_reads(cells, size)`` hook. Each method decodes a window or
    gather in place and charges its probed prefix, or runs its reference
    loop; the docstrings name the loop, which is the contract."""

    __slots__ = ()

    def _window(self, addr: int, stride: int, count: int, size: int) -> range | None:
        """Addresses of the ``count`` strided cells when the host decodes
        them in place, else None (the loop runs)."""
        if (
            self._in_place
            and count > 0
            and stride > 0
            and size > 0
            and addr >= 0
            and addr + (count - 1) * stride + size <= self.size
        ):
            return range(addr, addr + count * stride, stride)
        return None

    def _gathered(self, addrs: list, size: int) -> bool:
        """Whether the host decodes a gather over ``addrs`` in place
        (else the loop runs)."""
        return (
            self._in_place
            and size > 0
            and bool(addrs)
            and min(addrs) >= 0
            and max(addrs) + size <= self.size
        )

    def scan_clear_u64(
        self, addr: int, stride: int, count: int, mask: int = 1
    ) -> int | None:
        """Index of the first of ``count`` strided header words with
        ``(word & mask) == 0``, or None.

        The contract is :func:`_scan_clear_loop`: one :meth:`read_u64`
        per word, stopping at the first clear one."""
        cells = self._window(addr, stride, count, 8)
        if cells is None:
            return _scan_clear_loop(self, addr, stride, count, mask)
        i = _first_clear(self._volatile, cells, mask)
        self._charge_reads(cells if i < 0 else cells[: i + 1], 8)
        return None if i < 0 else i

    def scan_match(
        self,
        addr: int,
        stride: int,
        count: int,
        key: bytes,
        *,
        mask: int = 1,
        key_offset: int = 8,
    ) -> int | None:
        """Index of the first of ``count`` strided cells that is occupied
        (header byte 0 & ``mask``) and stores ``key`` at ``key_offset``.

        The contract is :func:`_scan_match_loop`: one ``read`` of
        header+key per probed cell (a single load — they travel
        together), stopping at the match. This is the access pattern of
        the paper's contiguous level-2 group scan."""
        size = key_offset + len(key)
        cells = self._window(addr, stride, count, size) if key_offset >= 0 else None
        if cells is None:
            return _scan_match_loop(self, addr, stride, count, key, mask, key_offset)
        i = _first_key(self._volatile, cells, key, key_offset, mask)
        self._charge_reads(cells if i < 0 else cells[: i + 1], size)
        return None if i < 0 else i

    def scan_occupied_bitmap(
        self, addr: int, stride: int, count: int, mask: int = 1
    ) -> int:
        """Bitmap of the ``mask`` bit over ``count`` strided header words:
        bit ``i`` of the result is set iff ``word(addr + i*stride) & mask``.

        The contract is :func:`_scan_occupied_loop`: one :meth:`read_u64`
        per header word — a *full* scan with no early exit, which is what
        batch planners need (they want the whole group's occupancy in one
        call)."""
        cells = self._window(addr, stride, count, 8)
        if cells is None:
            return _scan_occupied_loop(self, addr, stride, count, mask)
        self._charge_reads(cells, 8)
        return _occupied_bitmap(self._volatile, cells, mask)

    def scan_occupied_at(self, addrs, mask: int = 1) -> int:
        """Gather variant of :meth:`scan_occupied_bitmap`: bit ``i`` of
        the result reflects the header word at ``addrs[i]``.

        The contract is :func:`_scan_occupied_at_loop`: one
        :meth:`read_u64` per address, full scan."""
        addrs = list(addrs)
        if not self._gathered(addrs, 8):
            return _scan_occupied_at_loop(self, addrs, mask)
        self._charge_reads(addrs, 8)
        return _occupied_bitmap(self._volatile, addrs, mask)

    def scan_match_many(
        self,
        addr: int,
        stride: int,
        count: int,
        keys,
        *,
        mask: int = 1,
        key_offset: int = 8,
    ) -> list[int | None]:
        """Multi-key :meth:`scan_match` over one strided window: for each
        key in ``keys``, the index of its first matching cell (or None).

        The contract is the concatenation of the per-key
        :meth:`scan_match` event sequences, in key order; the window is
        checked against the region once for all keys."""
        keys = list(keys)
        cells = None
        if keys and key_offset >= 0:
            size = key_offset + max(map(len, keys))
            cells = self._window(addr, stride, count, size)
        if cells is None:
            return [
                self.scan_match(
                    addr, stride, count, key, mask=mask, key_offset=key_offset
                )
                for key in keys
            ]
        vol = self._volatile
        out: list[int | None] = []
        for key in keys:
            i = _first_key(vol, cells, key, key_offset, mask)
            size = key_offset + len(key)
            self._charge_reads(cells if i < 0 else cells[: i + 1], size)
            out.append(None if i < 0 else i)
        return out

    def scan_probe(
        self,
        addr: int,
        stride: int,
        count: int,
        key: bytes,
        *,
        mask: int = 1,
        key_offset: int = 8,
    ) -> tuple[int, bool] | None:
        """First of ``count`` strided cells that is *empty* (header byte 0
        has no ``mask`` bit) or occupied and storing ``key``: returns
        ``(index, matched)``, or None when every cell is occupied by
        other keys. The linear-probing lookup pattern.

        The contract is :func:`_scan_probe_loop`: one ``read`` of
        header+key per probed cell, stopping at the empty-or-match
        cell."""
        size = key_offset + len(key)
        cells = self._window(addr, stride, count, size) if key_offset >= 0 else None
        if cells is None:
            return _scan_probe_loop(self, addr, stride, count, key, mask, key_offset)
        found = _first_free_or_key(self._volatile, cells, key, key_offset, mask)
        self._charge_reads(cells if found is None else cells[: found[0] + 1], size)
        return found

    def scan_clear_at(self, addrs, mask: int = 1) -> int | None:
        """Gather variant of :meth:`scan_clear_u64`: index of the first
        address in ``addrs`` whose header word has no ``mask`` bit.

        The contract is :func:`_scan_clear_at_loop`: one :meth:`read_u64`
        per probed address, stopping at the first clear one — the
        path-hashing insert probe, whose candidate cells live in separate
        per-level arrays."""
        addrs = list(addrs)
        if not self._gathered(addrs, 8):
            return _scan_clear_at_loop(self, addrs, mask)
        i = _first_clear(self._volatile, addrs, mask)
        self._charge_reads(addrs if i < 0 else addrs[: i + 1], 8)
        return None if i < 0 else i

    def scan_ne_at(self, addrs, value: int) -> int | None:
        """Index of the first address in ``addrs`` whose 8-byte word is
        not ``value``, or None.

        The contract is :func:`_scan_ne_at_loop`: one :meth:`read_u64`
        per probed address, stopping at the first word that differs —
        the directory's tenant sweep, whose slot addresses repeat and
        come in key order."""
        addrs = list(addrs)
        if not self._gathered(addrs, 8):
            return _scan_ne_at_loop(self, addrs, value)
        i = _first_ne(self._volatile, addrs, value)
        self._charge_reads(addrs if i < 0 else addrs[: i + 1], 8)
        return None if i < 0 else i

    def scan_match_at(
        self, addrs, key: bytes, *, mask: int = 1, key_offset: int = 8
    ) -> int | None:
        """Gather variant of :meth:`scan_match`: index of the first
        address in ``addrs`` holding an occupied cell that stores ``key``.

        The contract is :func:`_scan_match_at_loop`: one ``read`` of
        header+key per probed address, stopping at the match."""
        addrs = list(addrs)
        size = key_offset + len(key)
        if not (key_offset >= 0 and self._gathered(addrs, size)):
            return _scan_match_at_loop(self, addrs, key, mask, key_offset)
        i = _first_key_at(self._volatile, addrs, key, key_offset, mask)
        self._charge_reads(addrs if i < 0 else addrs[: i + 1], size)
        return None if i < 0 else i

    def scan_match_pairs(
        self, pairs, *, mask: int = 1, key_offset: int = 8
    ) -> list[bool]:
        """Independent occupied-and-matches tests over ``(addr, key)``
        pairs; element ``i`` of the result is True iff the cell at
        ``pairs[i][0]`` is occupied and stores ``pairs[i][1]``.

        The contract is :func:`_scan_match_pairs_loop`: one ``read`` of
        header+key per pair (a full scan — every pair is tested). This is
        the batched level-1 probe: one call filters a whole batch's home
        cells. Pairs decode in place when every key has one length."""
        pairs = list(pairs)
        key_sizes = {len(key) for _, key in pairs}
        if len(key_sizes) == 1 and key_offset >= 0:
            size = key_offset + key_sizes.pop()
            addrs = [addr for addr, _ in pairs]
            if self._gathered(addrs, size):
                self._charge_reads(addrs, size)
                return _match_pairs(self._volatile, pairs, key_offset, mask)
        return _scan_match_pairs_loop(self, pairs, mask, key_offset)

    def scan_torn(
        self, addr: int, stride: int, count: int, size: int, mask: int = 1
    ) -> tuple[int | None, int]:
        """``(index, occupied)``: the first of ``count`` strided cells
        whose header byte 0 has no ``mask`` bit while its bytes
        ``[8, size)`` are non-zero (None if there is none), and how many
        cells before it have a ``mask`` bit — Algorithm 4's scan up to
        the next cell it must reset.

        The contract is :func:`_scan_torn_loop`: one ``read(cell, size)``
        per probed cell, stopping at the torn cell."""
        cells = self._window(addr, stride, count, size)
        if cells is None:
            return _scan_torn_loop(self, addr, stride, count, size, mask)
        i, occupied = _first_torn(self._volatile, cells, size, mask)
        self._charge_reads(cells if i < 0 else cells[: i + 1], size)
        return None if i < 0 else i, occupied
