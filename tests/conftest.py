"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings

# A deep budget for property tests that leave max_examples to the
# profile (the scan-primitive, cache-run, recovery, batch-primitive,
# kernel and observation-sink oracles): ``--hypothesis-profile=ci-deep``.
# The default profile stays as it is for tier-1.
settings.register_profile("ci-deep", max_examples=1000)

# Tests must be hermetic: never serve experiment results from (or write
# them to) an on-disk bench cache. Set before anything can construct the
# default engine; tests that exercise the cache pass explicit cache dirs.
os.environ.setdefault("REPRO_BENCH_NO_CACHE", "1")

from repro import (  # noqa: E402  (the cache env var must be set first)
    CacheConfig,
    ChainedHashTable,
    CuckooHashTable,
    GroupHashTable,
    ItemSpec,
    LevelHashTable,
    LinearProbingTable,
    NVMRegion,
    PFHTTable,
    PathHashingTable,
    SimConfig,
    TwoChoiceTable,
    UndoLog,
)
from repro.nvm.cache import CacheSim  # noqa: E402

#: small cache so tests exercise evictions and misses
SMALL_CACHE = CacheConfig(size_bytes=16 * 1024, line_size=64, associativity=4)


def count_cache_calls(monkeypatch) -> dict[str, int]:
    """From now until ``monkeypatch.undo()``, count cache calls into the
    returned dict: ``access`` counts each ``CacheSim.access`` call plus
    each line a ``CacheSim.enter_run`` call enters (whose calls ``runs``
    counts), ``touch_mru`` the ``CacheSim.touch_mru`` calls. The contract
    of ``enter_run`` is a loop of ``access`` over its lines, so these are
    the ``access`` calls that contract stands for, not the LRU steps
    executed: a run of at least twice the cache's capacity goes a set at
    a time."""
    calls = {"access": 0, "touch_mru": 0, "runs": 0}
    access, touch_mru, enter_run = (
        CacheSim.access,
        CacheSim.touch_mru,
        CacheSim.enter_run,
    )

    def counted_access(self, line, *, is_write):
        calls["access"] += 1
        return access(self, line, is_write=is_write)

    def counted_touch_mru(self, line, is_write):
        calls["touch_mru"] += 1
        return touch_mru(self, line, is_write)

    def counted_enter_run(self, first, end):
        calls["runs"] += 1
        calls["access"] += end - first
        return enter_run(self, first, end)

    monkeypatch.setattr(CacheSim, "access", counted_access)
    monkeypatch.setattr(CacheSim, "touch_mru", counted_touch_mru)
    monkeypatch.setattr(CacheSim, "enter_run", counted_enter_run)
    return calls


def small_region(size: int = 4 << 20, **kw) -> NVMRegion:
    """Region with a deliberately small cache."""
    return NVMRegion(size, SimConfig(cache=SMALL_CACHE, **kw))


@pytest.fixture
def region() -> NVMRegion:
    return small_region()


#: (name, factory) for every scheme, sized at 512 cells; factories take
#: (region, log) so logged variants can be built uniformly
SCHEME_FACTORIES = {
    "linear": lambda r, log=None: LinearProbingTable(r, 512, log=log),
    "pfht": lambda r, log=None: PFHTTable(r, 512, log=log),
    "path": lambda r, log=None: PathHashingTable(r, 256, log=log),
    "chained": lambda r, log=None: ChainedHashTable(r, 512, log=log),
    "two-choice": lambda r, log=None: TwoChoiceTable(r, 512, log=log),
    "cuckoo": lambda r, log=None: CuckooHashTable(r, 512, log=log),
    "level": lambda r, log=None: LevelHashTable(r, 512, log=log),
    "group": lambda r, log=None: GroupHashTable(r, 512, group_size=32),
}

ALL_SCHEMES = tuple(SCHEME_FACTORIES)

#: schemes that accept an undo log
LOGGABLE_SCHEMES = tuple(n for n in ALL_SCHEMES if n != "group")


def make_table(name: str, region: NVMRegion, *, logged: bool = False):
    """Build a test-sized table of the named scheme."""
    log = None
    if logged:
        log = UndoLog(region, record_size=64, capacity=2048)
    return SCHEME_FACTORIES[name](region, log=log)


def random_items(n: int, seed: int = 0, spec: ItemSpec | None = None):
    """Deterministic unique (key, value) pairs of the given spec."""
    spec = spec or ItemSpec()
    rng = random.Random(seed)
    items = []
    seen = set()
    while len(items) < n:
        key = rng.getrandbits(8 * spec.key_size).to_bytes(spec.key_size, "little")
        if key in seen:
            continue
        seen.add(key)
        value = rng.getrandbits(8 * spec.value_size).to_bytes(
            spec.value_size, "little"
        )
        items.append((key, value))
    return items
