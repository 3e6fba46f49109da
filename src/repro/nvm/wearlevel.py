"""Start-Gap wear leveling — the substrate the paper assumes exists.

Section 2.1: "As most of the wear-leveling schemes are built on device
level, we assume such wear leveling schemes exist and do not address it
in our group hashing." This module makes that assumption concrete with
the canonical algebraic scheme (Qureshi et al., MICRO'09):

- the device has ``N + 1`` physical lines for ``N`` logical lines; one
  physical line — the **gap** — is always unused;
- every ``rotate_every`` line writes, the line just before the gap is
  copied into it and the gap moves down one slot; when the gap wraps,
  the **start** register advances, so over time every logical line
  visits every physical slot;
- translation is two registers and two adds:
  ``PA = (LA + start) mod N``, plus one if ``PA >= gap``.

Crash safety comes for free from the gap being unused: a rotation first
copies into the (unreachable) gap line and persists it, and only then
atomically persists the updated registers — a crash between the two
leaves the old mapping fully intact. The registers live in a reserved
physical line so :class:`WearLevelledRegion` can reattach after a
simulated power failure.

:class:`WearLevelledRegion` subclasses :class:`~repro.nvm.memory.NVMRegion`
so every hash table runs on it unchanged; the ablation benchmark
measures what rotation costs and how much it flattens the wear map.
"""

from __future__ import annotations

from repro.nvm.memory import ATOMIC_UNIT, NVMRegion, SimConfig


class StartGapMapper:
    """Pure translation state for start-gap (no I/O)."""

    def __init__(self, n_lines: int, rotate_every: int) -> None:
        if n_lines <= 1:
            raise ValueError("need at least two logical lines")
        if rotate_every <= 0:
            raise ValueError("rotate_every must be positive")
        self.n = n_lines
        self.rotate_every = rotate_every
        self.start = 0
        self.gap = n_lines  # physical line index of the unused slot
        self._writes_since_rotation = 0

    def translate(self, logical_line: int) -> int:
        """Physical line for ``logical_line``."""
        if not 0 <= logical_line < self.n:
            raise IndexError(f"logical line {logical_line} out of range")
        pa = (logical_line + self.start) % self.n
        if pa >= self.gap:
            pa += 1
        return pa

    def source_of_next_rotation(self) -> int:
        """Physical line whose content the next rotation copies into the
        gap (the line just before it, cyclically)."""
        return self.gap - 1 if self.gap > 0 else self.n

    def note_write(self) -> bool:
        """Count one line write; True when a rotation is due."""
        self._writes_since_rotation += 1
        if self._writes_since_rotation >= self.rotate_every:
            self._writes_since_rotation = 0
            return True
        return False

    def advance_gap(self) -> None:
        """Apply one rotation to the registers (after the data copy)."""
        if self.gap > 0:
            self.gap -= 1
        else:
            self.gap = self.n
            self.start = (self.start + 1) % self.n


class WearLevelledRegion(NVMRegion):
    """An :class:`NVMRegion` with device-level start-gap remapping.

    ``size`` is the *logical* capacity; physically the region holds two
    extra lines (the gap and a register line). All inherited data-path
    methods operate on logical addresses. The failure-atomic store is
    the inherited one: an aligned 8-byte word never straddles a line, so
    its logical ``write`` maps to one physical segment.
    """

    def __init__(
        self,
        size: int,
        config: SimConfig | None = None,
        *,
        rotate_every: int = 128,
        name: str = "wl-nvm",
    ) -> None:
        config = config or SimConfig()
        line = config.cache.line_size
        n_lines = -(-size // line)
        # physical: n logical lines + gap line + register line
        super().__init__((n_lines + 2) * line, config, name=name)
        self.logical_size = n_lines * line
        self.mapper = StartGapMapper(n_lines, rotate_every)
        self._register_addr = (n_lines + 1) * line
        self._rotating = False
        self._persist_registers()

    # ------------------------------------------------------------------
    # register plumbing (stored physically, so they survive crashes)

    def _persist_registers(self) -> None:
        # _rotating switches the inherited data path to physical
        # addressing (NVMRegion.flush_range dispatches back into our
        # clflush override)
        was_rotating = self._rotating
        self._rotating = True
        try:
            packed = (self.mapper.start << 32) | self.mapper.gap
            super().write(self._register_addr, packed.to_bytes(8, "little"))
            super().flush_range(self._register_addr, 8)
            super().mfence()
        finally:
            self._rotating = was_rotating

    def reload_registers(self) -> None:
        """Reattach the mapper after a simulated crash."""
        packed = int.from_bytes(
            super().peek_persistent(self._register_addr, 8), "little"
        )
        self.mapper.start = packed >> 32
        self.mapper.gap = packed & 0xFFFFFFFF

    # ------------------------------------------------------------------
    # rotation

    def _rotate(self) -> None:
        """One start-gap step: copy the pre-gap line into the gap, then
        atomically publish the new registers. Charged like any other
        traffic (this is the wear-leveling overhead)."""
        line = self.config.cache.line_size
        src = self.mapper.source_of_next_rotation() * line
        dst = self.mapper.gap * line
        self._rotating = True
        try:
            data = super().read(src, line)
            super().write(dst, data)
            super().flush_range(dst, line)
            super().mfence()
            self.mapper.advance_gap()
            self._persist_registers()
        finally:
            self._rotating = False

    def _writeback(self, line: int) -> None:
        """Register-line writes model on-controller registers (as in the
        original start-gap hardware), so they don't count as media wear."""
        register_line = self._register_addr // self.config.cache.line_size
        if self.wear is not None and line == register_line:
            wear, self.wear = self.wear, None
            try:
                super()._writeback(line)
            finally:
                self.wear = wear
            return
        super()._writeback(line)

    # ------------------------------------------------------------------
    # allocation is bounded by the logical capacity (the gap and the
    # register line must stay out of reach)

    def alloc(self, nbytes: int, *, align: int = ATOMIC_UNIT, label: str = "") -> int:
        addr = super().alloc(nbytes, align=align, label=label)
        if addr + nbytes > self.logical_size:
            raise MemoryError(
                f"region '{self.name}' exhausted: logical capacity is "
                f"{self.logical_size} bytes"
            )
        return addr

    # ------------------------------------------------------------------
    # logical data path: split accesses per logical line and translate

    def _check_logical(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.logical_size:
            raise IndexError(
                f"logical access [{addr}, {addr + size}) outside region of "
                f"size {self.logical_size}"
            )

    def _segments(self, addr: int, size: int):
        """Yield (physical_addr, start_offset, end_offset) per touched
        logical line."""
        line = self.config.cache.line_size
        offset = 0
        while offset < size:
            logical = (addr + offset) // line
            within = (addr + offset) % line
            take = min(line - within, size - offset)
            phys = self.mapper.translate(logical) * line + within
            yield phys, offset, offset + take
            offset += take

    def _gather(self, load, addr: int, size: int) -> bytes:
        """``load`` (a physical read or peek) of each translated segment
        of a logical range, joined."""
        self._check_logical(addr, size)
        return b"".join(load(p, e - s) for p, s, e in self._segments(addr, size))

    def read(self, addr: int, size: int) -> bytes:
        if self._rotating:  # rotation's own traffic is already physical
            return super().read(addr, size)
        return self._gather(super().read, addr, size)

    def write(self, addr: int, data: bytes) -> None:
        if self._rotating:
            super().write(addr, data)
            return
        self._check_logical(addr, len(data))
        rotate = False
        for phys, s, e in self._segments(addr, len(data)):
            super().write(phys, data[s:e])
            rotate |= self.mapper.note_write()
        if rotate:
            self._rotate()

    def clflush(self, addr: int) -> None:
        if self._rotating:
            super().clflush(addr)
            return
        self._check_logical(addr, 1)
        line = self.config.cache.line_size
        phys = self.mapper.translate(addr // line) * line
        super().clflush(phys)

    def flush_range(self, addr: int, size: int) -> None:
        if self._rotating or size <= 0:
            super().flush_range(addr, size)
            return
        self._check_logical(addr, size)
        line = self.config.cache.line_size
        first = addr // line
        last = (addr + size - 1) // line
        for logical in range(first, last + 1):
            super().clflush(self.mapper.translate(logical) * line)

    # ------------------------------------------------------------------
    # logical introspection

    def peek_volatile(self, addr: int, size: int) -> bytes:
        """Volatile view through the mapping (no cost). Tables' item
        inventories use this with logical addresses, so it translates."""
        return self._gather(super().peek_volatile, addr, size)

    def peek_persistent(self, addr: int, size: int) -> bytes:
        """Persistent image through the mapping (no cost)."""
        return self._gather(super().peek_persistent, addr, size)
