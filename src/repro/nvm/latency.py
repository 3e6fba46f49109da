"""Discrete event-cost model for the simulated memory hierarchy.

The paper (Section 4.1) emulates NVM by adding a fixed extra latency
(300 ns by default, following PMFS) after every ``clflush``; reads are
left at DRAM speed because NVM read latency is close to DRAM and hard to
emulate faithfully. We encode exactly that model, plus the Table 1
technology presets so ablation benchmarks can ask "what if the medium
were PCM / ReRAM / STT-MRAM?".

All costs are whole nanoseconds of *simulated* time, so the simulated
clock is an ``int`` and sums of costs are exact in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class LatencyModel:
    """Per-event costs charged by :class:`~repro.nvm.memory.NVMRegion`.

    The defaults model the paper's testbed: a cache hit costs an L3-ish
    access, a miss costs a DRAM-speed line fill (NVM reads ≈ DRAM reads,
    per the paper), and persisting a dirty line costs the medium's write
    latency plus the emulation penalty charged after ``clflush``.

    Every cost is a non-negative ``int``; anything else (a float, even
    a whole one, a ``bool``, a negative number) raises ValueError.
    """

    #: name of the technology preset (for reports)
    name: str = "paper-nvm"
    #: cost of an access that hits in the simulated cache
    cache_hit_ns: int = 5
    #: cost of filling a line from the medium on a miss (read latency)
    line_fill_ns: int = 100
    #: cost of an access satisfied by the sequential hardware prefetcher
    #: (the line was streamed in ahead of the demand access). The paper's
    #: group-sharing and linear-probing arguments rest on this: scanning
    #: *contiguous* cells costs ~an L3 hit per line instead of a full
    #: memory round-trip, and does not count as an L3 miss.
    prefetch_hit_ns: int = 10
    #: base cost of executing a ``clflush`` (instruction + writeback issue)
    flush_base_ns: int = 40
    #: extra latency charged per *dirty* line actually written to the
    #: medium — the paper's "+300 ns after a clflush" knob
    nvm_write_extra_ns: int = 300
    #: cost of a memory fence
    fence_ns: int = 10
    #: cost charged when a dirty line is written back by *eviction*
    #: (happens asynchronously on real hardware, so cheaper than a flush)
    eviction_writeback_ns: int = 0

    def __post_init__(self) -> None:
        for field in fields(self):
            cost = getattr(self, field.name)
            if field.name != "name" and (type(cost) is not int or cost < 0):
                raise ValueError(
                    f"{field.name} must be a non-negative int, got {cost!r}"
                )

    def flush_cost(self, dirty: bool) -> int:
        """Simulated cost of one ``clflush`` of a line.

        A clean (or uncached) line only pays the instruction cost; a dirty
        line additionally pays the medium write penalty, which is the
        dominant term and the effect the paper's evaluation turns on.
        """
        cost = self.flush_base_ns
        if dirty:
            cost += self.nvm_write_extra_ns
        return cost


#: DRAM reference point (Table 1: 10 ns read / 10 ns write). With DRAM
#: there is no post-flush penalty — useful as the "volatile" ablation.
DRAM = LatencyModel(
    name="dram",
    cache_hit_ns=5,
    line_fill_ns=100,
    flush_base_ns=40,
    nvm_write_extra_ns=0,
    fence_ns=10,
)

#: The paper's default emulation: DRAM-speed reads, +300 ns per flush.
PAPER_NVM = LatencyModel(name="paper-nvm")

#: Phase-change memory (Table 1: 20–85 ns read, 150–1000 ns write).
PCM = LatencyModel(
    name="pcm",
    cache_hit_ns=5,
    line_fill_ns=150,
    flush_base_ns=40,
    nvm_write_extra_ns=500,
    fence_ns=10,
)

#: Resistive RAM (Table 1: 10–20 ns read, 100 ns write).
RERAM = LatencyModel(
    name="reram",
    cache_hit_ns=5,
    line_fill_ns=110,
    flush_base_ns=40,
    nvm_write_extra_ns=100,
    fence_ns=10,
)

#: Spin-transfer torque MRAM (Table 1: 5–15 ns read, 10–30 ns write).
STT_MRAM = LatencyModel(
    name="stt-mram",
    cache_hit_ns=5,
    line_fill_ns=100,
    flush_base_ns=40,
    nvm_write_extra_ns=20,
    fence_ns=10,
)

#: All presets keyed by name, for CLI / benchmark parameterisation.
TECHNOLOGY_PRESETS: dict[str, LatencyModel] = {
    model.name: model for model in (DRAM, PAPER_NVM, PCM, RERAM, STT_MRAM)
}
