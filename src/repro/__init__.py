"""repro — reproduction of "A Write-efficient and Consistent Hashing
Scheme for Non-Volatile Memory" (Zhang, Feng, Hua, Chen, Fu — ICPP 2018).

The package has three layers:

1. :mod:`repro.nvm` — a simulated persistent-memory hierarchy
   (cacheline-accurate cache, ``clflush``/``mfence`` semantics, 8-byte
   failure atomicity, crash injection, discrete latency model);
2. :mod:`repro.core` (group hashing, the paper's contribution) and
   :mod:`repro.tables` (the baselines it is compared against), all
   running on that substrate;
3. :mod:`repro.traces` and :mod:`repro.bench` — the workloads and the
   harness that regenerate every figure and table of the paper's
   evaluation (``python -m repro.bench all``).

Quickstart::

    from repro import GroupHashTable, ItemSpec, NVMRegion

    region = NVMRegion(8 << 20)
    table = GroupHashTable(region, n_cells=2**12, spec=ItemSpec(8, 8))
    table.insert(b"k" * 8, b"v" * 8)
    assert table.query(b"k" * 8) == b"v" * 8
    report = region.crash()          # power failure: unflushed data torn
    table.recover()                  # Algorithm 4 restores consistency
"""

from repro.core import (
    DirectoryTable,
    GroupHashTable,
    GroupLayout,
    ShardedTable,
    SplitError,
    bulk_load,
    recover_group_table,
)
from repro.nvm import (
    CACHELINE,
    CacheConfig,
    CacheSim,
    CrashReport,
    LatencyModel,
    MemStats,
    MemoryBackend,
    NVMRegion,
    RawBackend,
    ShardedBackend,
    SimBackend,
    SimConfig,
    SimulatedPowerFailure,
    StartGapMapper,
    TECHNOLOGY_PRESETS,
    WearLevelledRegion,
    WearMap,
    WearReport,
    drop_all_schedule,
    persist_all_schedule,
    random_schedule,
)
from repro.kv import KVStore, SlabAllocator
from repro.tables import (
    CellCodec,
    ChainedHashTable,
    CuckooHashTable,
    ItemSpec,
    LevelHashTable,
    LinearProbingTable,
    PFHTTable,
    PathHashingTable,
    PersistentHashTable,
    TwoChoiceTable,
    UndoLog,
)

__version__ = "0.1.0"

__all__ = [
    "CACHELINE",
    "CacheConfig",
    "CacheSim",
    "CellCodec",
    "ChainedHashTable",
    "CrashReport",
    "CuckooHashTable",
    "DirectoryTable",
    "SplitError",
    "KVStore",
    "LevelHashTable",
    "SlabAllocator",
    "StartGapMapper",
    "WearLevelledRegion",
    "SimulatedPowerFailure",
    "WearMap",
    "WearReport",
    "bulk_load",
    "GroupHashTable",
    "GroupLayout",
    "ItemSpec",
    "LatencyModel",
    "LinearProbingTable",
    "MemStats",
    "MemoryBackend",
    "NVMRegion",
    "RawBackend",
    "ShardedBackend",
    "ShardedTable",
    "SimBackend",
    "PFHTTable",
    "PathHashingTable",
    "PersistentHashTable",
    "SimConfig",
    "TECHNOLOGY_PRESETS",
    "TwoChoiceTable",
    "UndoLog",
    "drop_all_schedule",
    "persist_all_schedule",
    "random_schedule",
    "recover_group_table",
]
