"""Growth experiment — online segment splits vs stop-the-world rebuilds.

The paper's table never grows: a full table rejects inserts (Figure 7
measures exactly where). Production stores grow online, and the question
that matters is *what growth costs the ops that are in flight*. Each
cell (:class:`~repro.bench.runner.GrowthSpec`) answers it twice on the
same deterministic op stream:

- **incremental** — a :class:`~repro.core.DirectoryTable` splits one
  full segment at a time, so growth cost lands on the few ops that
  trigger splits and ``during-split p99`` is the tail a client sees;
- **legacy** — a single :class:`~repro.core.GroupHashTable` that, when
  an insert fails, re-inserts the whole table into a doubled one, so
  the triggering op absorbs the entire pause.

The headline claim (asserted by ``tests/test_growth.py`` and reported
here) is that the during-split p99 stays strictly below the legacy
rebuild pause for the same workload. Cells run through the engine, so
the grid deduplicates, caches, and is byte-identical across ``--jobs``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.cache import encode
from repro.bench.config import Scale
from repro.bench.experiments import ExperimentResult, attach_warnings
from repro.bench.report import format_percentile_table, format_ratio_note
from repro.bench.runner import GrowthSpec


def growth_specs(scale: Scale, seed: int) -> list[GrowthSpec]:
    """The cell grid: the scale's default geometry plus a half-size
    segment variant (smaller segments = more, cheaper splits)."""
    base = GrowthSpec.from_scale(scale, seed=seed)
    return [base, replace(base, segment_cells=max(16, base.segment_cells // 2))]


def run(scale: Scale, seed: int = 42, engine=None) -> ExperimentResult:
    """Run the growth grid at ``scale`` and render the comparison."""
    from repro.bench.engine import default_engine

    engine = engine or default_engine()
    specs = growth_specs(scale, seed)
    cells = engine.run(specs)

    sections: list[str] = []
    data: dict[str, object] = {"cells": []}
    all_ok = True
    for spec, cell in zip(specs, cells):
        inc, leg = cell["incremental"], cell["legacy"]
        label = f"seg={spec.segment_cells}"
        rows = [
            ("steady", inc["steady"]),
            ("during-split", inc["during_split"]),
            ("overall", inc["overall"]),
            ("legacy steady", leg["steady"]),
            ("legacy overall", leg["overall"]),
        ]
        sections.append(
            format_percentile_table(
                f"Growth {label}: per-op latency while the table grows "
                f"({spec.initial_cells} -> {inc['final_capacity']} cells)",
                rows,
            )
        )
        ratio = cell["rebuild_pause_ns"] / max(1.0, cell["split_p99_ns"])
        verdict = "OK" if cell["split_p99_below_rebuild_pause"] else "FAIL"
        sections.append(
            format_ratio_note(
                f"{inc['splits']} splits ({inc['doublings']} directory "
                f"doubling(s)) vs {leg['expansions']} legacy rebuild(s): "
                f"during-split p99 {cell['split_p99_ns']:.0f} ns vs rebuild "
                f"pause {cell['rebuild_pause_ns']:.0f} ns "
                f"({ratio:.1f}x smaller — {verdict})"
            )
        )
        all_ok = all_ok and cell["split_p99_below_rebuild_pause"]
        data["cells"].append(dict(cell, spec=encode(spec)))
    data["ok"] = all_ok

    result = ExperimentResult(
        name="growth",
        paper_ref="Online growth (incremental splits, beyond the paper)",
        data=data,
        text="\n\n".join(sections),
    )
    return attach_warnings(result, engine)
