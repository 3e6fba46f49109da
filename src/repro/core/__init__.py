"""Group hashing — the paper's contribution.

- :class:`~repro.core.group_hash.GroupHashTable` implements Algorithms
  1–3 with the exact persist ordering of the paper (8-byte failure-atomic
  bitmap commit, no logging, no copy-on-write);
- :mod:`~repro.core.recovery` implements Algorithm 4 (full-table scan,
  reset of unoccupied cells, count rebuild);
- :class:`~repro.core.layout.GroupLayout` is the physical storage layout
  of Figure 4 (global info block, two equal levels, group-aligned
  contiguous cell runs);
- :class:`~repro.core.sharded.ShardedTable` hash-partitions keys across
  N independent per-shard backend+table pairs (scale-out beyond the
  paper, with per-shard crash/recovery);
- :class:`~repro.core.directory.DirectoryTable` grows incrementally: a
  directory of fixed-size group-hash segments where a full segment
  splits alone and publishes with one 8-byte atomic pointer swing —
  the repository's answer to the paper's "needs to be expanded" signal.
"""

from repro.core.bulk import bulk_load
from repro.core.directory import DirectoryTable, SplitError
from repro.core.group_hash import GroupHashTable
from repro.core.layout import GroupLayout
from repro.core.recovery import recover_group_table, recover_table
from repro.core.sharded import ShardedTable

__all__ = [
    "DirectoryTable",
    "GroupHashTable",
    "GroupLayout",
    "ShardedTable",
    "SplitError",
    "bulk_load",
    "recover_group_table",
    "recover_table",
]
