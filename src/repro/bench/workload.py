"""Mixed-workload model: YCSB-style op mixes and deterministic op streams.

The paper's protocol (Section 4.2) measures pure phases — fill, then
1000 inserts, then 1000 queries, then 1000 deletes — and reports only
averages. Production traffic is neither pure nor average-shaped: ops of
different kinds interleave, keys are skewed, and what matters is the
tail. This module supplies the op-stream half of the mixed-workload
experiment (per-op latencies land in :class:`~repro.obs.LatencyRecorder`):

- :class:`OpMix` — a frozen ratio model over the four table operations
  (insert / query / update / delete) plus a key-selection distribution
  (uniform, Zipfian, or latest) over the resident keys, with the
  standard YCSB core-workload presets (:data:`PRESETS`);
- :func:`generate_ops` — a deterministic, seed-driven interleaved op
  stream. The generator maintains a model of the live key set (inserts
  append, deletes remove), so every query/update/delete targets a key
  that is actually resident at that point in the stream.

Everything here is pure Python over plain data — no region access, no
wall-clock — so op streams are byte-identical across processes, worker
counts and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: the four table operations a mix can ratio over, in stream order
OP_KINDS: tuple[str, ...] = ("insert", "query", "update", "delete")

#: key-selection distributions over the resident key list
KEY_DISTS: tuple[str, ...] = ("uniform", "zipfian", "latest")


@dataclass(frozen=True)
class OpMix:
    """Operation ratios plus a key-selection distribution.

    Ratios must be non-negative and sum to 1 (within float tolerance).
    ``key_dist`` picks how query/update/delete targets are drawn from
    the keys resident at that point of the stream:

    - ``uniform`` — every resident key equally likely;
    - ``zipfian`` — rank-Zipfian with parameter ``zipf_theta`` over
      insertion order, oldest keys hottest (the classic YCSB skew,
      minus the scrambling — determinism over dispersion);
    - ``latest`` — the same Zipfian ranks over *reverse* insertion
      order, newest keys hottest (YCSB-D's read-latest pattern).
    """

    insert: float = 0.0
    query: float = 0.0
    update: float = 0.0
    delete: float = 0.0
    key_dist: str = "uniform"
    zipf_theta: float = 0.99

    def __post_init__(self) -> None:
        ratios = self.ratios
        if any(r < 0 for r in ratios):
            raise ValueError(f"op ratios must be non-negative: {ratios}")
        if abs(sum(ratios) - 1.0) > 1e-9:
            raise ValueError(f"op ratios must sum to 1: {ratios}")
        if self.key_dist not in KEY_DISTS:
            raise ValueError(
                f"unknown key_dist {self.key_dist!r}; choose from {KEY_DISTS}"
            )
        if not 0.0 < self.zipf_theta < 1.0:
            raise ValueError("zipf_theta must be in (0, 1)")

    @property
    def ratios(self) -> tuple[float, float, float, float]:
        """(insert, query, update, delete) in :data:`OP_KINDS` order."""
        return (self.insert, self.query, self.update, self.delete)


#: YCSB core-workload presets, expressed as ratios over *physical* table
#: ops. F's read-modify-writes are decomposed (one RMW = one query plus
#: one update of the same skew), hence the 2:1 physical ratio.
PRESETS: dict[str, OpMix] = {
    "ycsb-a": OpMix(query=0.5, update=0.5, key_dist="zipfian"),
    "ycsb-b": OpMix(query=0.95, update=0.05, key_dist="zipfian"),
    "ycsb-c": OpMix(query=1.0, key_dist="zipfian"),
    "ycsb-d": OpMix(query=0.95, insert=0.05, key_dist="latest"),
    "ycsb-f": OpMix(query=2 / 3, update=1 / 3, key_dist="zipfian"),
}

#: preset display order used by the mixed experiment's reports
PRESET_ORDER: tuple[str, ...] = tuple(sorted(PRESETS))

#: the growth experiment's insert-heavy mix: enough inserts to push a
#: table past its initial capacity inside the measured window, with
#: queries interleaved so lookup tail latency during a split is
#: observed too. Deliberately *not* in :data:`PRESETS` — the preset
#: registry feeds the mixed grid and its cache keys, and this mix is a
#: different experiment's axis.
GROWTH_MIX = OpMix(insert=0.7, query=0.3)


@dataclass(frozen=True)
class MixedOp:
    """One op of a generated stream: a kind plus a key id.

    Key ids index an append-only key universe: ids below the resident
    count name fill-phase items; higher ids name fresh keys in the
    order the stream's inserts mint them."""

    kind: str
    key_id: int


class ZipfianRanks:
    """Rank sampler: ``P(rank r of n) ∝ 1/(r+1)^theta``.

    Uses the Gray et al. quantile approximation ("Quickly generating
    billion-record synthetic databases") with a monotone table of zeta
    prefix sums, so the live-set size may grow and shrink between draws
    at amortised O(1) cost. The table is only ever *appended* to —
    ``zeta(n)`` for any previously visited ``n`` is the exact same
    float, summed in the same low-to-high term order a fresh
    ``sum(i**-theta)`` would use — so shrink/grow oscillations (delete-
    heavy streams) cannot accumulate the add-then-subtract rounding
    drift the old incremental +=/-= maintenance suffered from. Fully
    deterministic: the same ``u`` sequence yields the same ranks."""

    def __init__(self, theta: float) -> None:
        self.theta = theta
        self._n = 0
        self._zeta = 0.0
        #: ``_prefix[n]`` = zeta(n) = sum of i**-theta for i in 1..n
        self._prefix: list[float] = [0.0]

    def _resize(self, n: int) -> None:
        prefix = self._prefix
        while len(prefix) <= n:
            prefix.append(prefix[-1] + len(prefix) ** -self.theta)
        self._n = n
        self._zeta = prefix[n]

    def rank(self, n: int, u: float) -> int:
        """Rank in ``[0, n)`` for a uniform draw ``u`` in ``[0, 1)``."""
        if n <= 0:
            raise ValueError("n must be positive")
        if n == 1:
            return 0
        self._resize(n)
        theta, zetan = self.theta, self._zeta
        uz = u * zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**theta:
            return 1
        zeta2 = 1.0 + 0.5**theta
        eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - zeta2 / zetan)
        rank = int(n * (eta * u - eta + 1.0) ** (1.0 / (1.0 - theta)))
        return min(max(rank, 0), n - 1)


def generate_ops(
    mix: OpMix, n_ops: int, n_resident: int, seed: int
) -> list[MixedOp]:
    """Deterministically generate an interleaved op stream.

    The stream starts from ``n_resident`` live keys (ids ``0 ..
    n_resident-1``, the fill phase's items in insertion order); inserts
    mint fresh ids sequentially from ``n_resident`` upward, deletes
    retire ids, and every query/update/delete draws its target from the
    keys live *at that point* via the mix's key distribution. A
    key-consuming op drawn against an empty live set degrades to an
    insert, so the stream never references a key it already deleted."""
    rng = random.Random((seed << 4) ^ 0x3D1F)
    cumulative: list[tuple[float, str]] = []
    acc = 0.0
    for kind, ratio in zip(OP_KINDS, mix.ratios):
        if ratio <= 0.0:
            continue
        acc += ratio
        cumulative.append((acc, kind))
    zipf = ZipfianRanks(mix.zipf_theta)
    live = list(range(n_resident))
    next_id = n_resident
    ops: list[MixedOp] = []
    for _ in range(n_ops):
        u = rng.random()
        # the last bound is the ratio sum (1 up to float rounding), so a
        # draw past it falls into the final non-zero kind
        kind = cumulative[-1][1]
        for bound, k in cumulative:
            if u < bound:
                kind = k
                break
        if kind != "insert" and not live:
            kind = "insert"
        if kind == "insert":
            ops.append(MixedOp("insert", next_id))
            live.append(next_id)
            next_id += 1
            continue
        if mix.key_dist == "uniform":
            index = rng.randrange(len(live))
        else:
            rank = zipf.rank(len(live), rng.random())
            index = rank if mix.key_dist == "zipfian" else len(live) - 1 - rank
        ops.append(MixedOp(kind, live[index]))
        if kind == "delete":
            live.pop(index)
    return ops
