"""Single CI regression gate over committed ``bench_*.json`` trajectories.

Compares a fresh ``python -m repro.bench <exp> --json`` dump against a
committed baseline dump, section by section, cell by cell (cells are
matched by their full frozen-spec dict), metric by metric with
per-metric tolerances:

- **throughput** — wall-clock ``fill`` / ``query`` ops/s. CI runner
  clocks are noisy, so regressions here print ``WARN`` and never gate
  (this subsumes the retired ``ci_throughput_trend.py``);
- **contention** — simulated throughput, p99 and abort counts. The
  scheduler is a pure function of the spec, so these are deterministic:
  a drift beyond tolerance means the code's behavior moved, and the PR
  must either fix it or deliberately reseed the baseline. The final
  ``table_digest`` must match exactly — a lost update that keeps the
  numbers flat still changes the table's bytes;
- **timeline** — the derived transient scalars (during-split spike
  ratio, steady-window p99, abort rate) plus the **health report**: a
  fresh report whose overall status is ``fail`` fails the gate even if
  every trajectory matched, and ``warn`` checks are surfaced as
  warnings;
- **serving** — the networked serving grid. Simulated throughput and
  p99 are deterministic like contention; ``wrong_answers`` and
  ``shadow_failures`` gate at zero tolerance (a stale location hint
  returning a wrong value is a correctness bug, not a perf drift), and
  ``one_sided_reads`` gates downward so the location-cache fast path
  cannot silently stop firing; ``table_digest`` gates exactly, as for
  contention.

A baseline cell missing from the fresh run fails the gate (a silently
shrunken grid must not turn it green). Cells that only exist in the
fresh run are reported and skipped — they gate once the baseline is
reseeded to include them.

Usage::

    python scripts/ci_perf_gate.py fresh.json --baseline bench_timeline.json \
        [--section timeline ...]
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from gate_common import Gate, cells_by_spec, dig, load_report, report_section


@dataclass(frozen=True)
class Metric:
    """One per-cell trajectory comparison.

    ``worse`` names the regression direction (``"down"``: lower is a
    regression, e.g. throughput; ``"up"``: higher is, e.g. latency;
    ``"exact"``: any difference is, e.g. a digest);
    ``tolerance`` is the relative drift allowed in that direction;
    non-``gating`` metrics warn instead of failing (wall-clock)."""

    path: str
    worse: str
    tolerance: float
    gating: bool = True


#: per-section metric policy; a metric absent from a cell (e.g. a growth
#: timeline cell has no abort rate) is skipped for that cell
SECTION_METRICS: dict[str, tuple[Metric, ...]] = {
    "throughput": (
        Metric("fill.wall_ops_per_s", "down", 0.2, gating=False),
        Metric("query.wall_ops_per_s", "down", 0.2, gating=False),
    ),
    "contention": (
        Metric("throughput_kops", "down", 0.10),
        Metric("total.p99", "up", 0.25),
        Metric("read_aborts", "up", 0.50),
        Metric("table_digest", "exact", 0.0),
    ),
    "timeline": (
        Metric("split_spike_ratio", "up", 0.50),
        Metric("steady_window_p99_ns", "up", 0.25),
        Metric("abort_rate", "up", 0.50),
        Metric("throughput_kops", "down", 0.10),
    ),
    "serving": (
        Metric("throughput_kops", "down", 0.10),
        Metric("total.p99", "up", 0.25),
        Metric("wrong_answers", "up", 0.0),
        Metric("shadow_failures", "up", 0.0),
        Metric("one_sided_reads", "down", 0.25),
        Metric("table_digest", "exact", 0.0),
    ),
}


def cell_label(spec: dict) -> str:
    """Short human label for a cell's spec in gate log lines."""
    if "kind" in spec:
        label = str(spec["kind"])
        if spec["kind"] == "contention":
            label += f" {spec.get('n_clients', '?')}c"
        return label
    if "batch_max" in spec and "n_clients" in spec:
        label = f"{spec['n_clients']}c b{spec['batch_max']}"
        if spec.get("location_cache"):
            label += " +loc"
        return label
    if "n_clients" in spec:
        return f"{spec['n_clients']} client(s)"
    if "batch" in spec:
        return "{scheme}/{backend} b{batch}".format(**spec)
    return "/".join(str(v) for _, v in sorted(spec.items()))


def compare_cells(
    gate: Gate, section: str, metrics, base_cell: dict, fresh_cell: dict
) -> int:
    """Compare every applicable metric of one matched cell pair;
    returns the number of comparisons made."""
    label = cell_label(fresh_cell["spec"])
    compared = 0
    for metric in metrics:
        was = dig(base_cell, metric.path)
        now = dig(fresh_cell, metric.path)
        if metric.worse == "exact":
            if was is None:
                continue
            compared += 1
            line = f"{section}/{label} {metric.path}: {now} vs baseline {was} [exact]"
            if now == was:
                gate.ok(line)
            else:
                gate.fail(line)
            continue
        if not isinstance(was, (int, float)) or not isinstance(now, (int, float)):
            continue
        compared += 1
        if was == 0:
            # relative drift is undefined at a zero baseline; any move
            # off zero in the bad direction is reported as a regression
            regressed = now > 0 if metric.worse == "up" else False
            shown = f"{now:g} vs baseline 0"
        else:
            change = (now - was) / was
            regressed = (
                change > metric.tolerance
                if metric.worse == "up"
                else change < -metric.tolerance
            )
            shown = f"{now:g} vs baseline {was:g} ({change:+.1%})"
        line = (
            f"{section}/{label} {metric.path}: {shown}"
            f" [tolerance {metric.tolerance:.0%} {metric.worse}]"
        )
        if not regressed:
            gate.ok(line)
        elif metric.gating:
            gate.fail(line)
        else:
            gate.warn(line + " (wall-clock, non-gating)")
    return compared


def check_health(gate: Gate, section: str, payload: dict) -> None:
    """Gate on a section's embedded health report, if it carries one:
    overall ``fail`` fails the gate, ``warn`` checks become warnings."""
    health = payload.get("health")
    if not health:
        return
    for check in health.get("checks", []):
        shown = "missing" if check["value"] is None else f"{check['value']:g}"
        line = (
            f"{section} health {check['metric']} = {shown} "
            f"(warn {check['warn']:g} / fail {check['fail']:g})"
        )
        if check["status"] == "fail":
            gate.fail(line)
        elif check["status"] == "warn":
            gate.warn(line)
    if health.get("status") == "fail":
        gate.fail(f"{section}: health report status is 'fail'")
    else:
        gate.ok(f"{section}: health report status is {health.get('status')!r}")


def main(argv: list[str] | None = None) -> int:
    """Compare fresh vs baseline trajectories; 0 = gate passes."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh")
    parser.add_argument("--baseline", required=True)
    parser.add_argument(
        "--section",
        action="append",
        choices=sorted(SECTION_METRICS),
        default=None,
        help="gate this section (repeatable; default: every known "
        "section present in both dumps)",
    )
    args = parser.parse_args(argv)

    fresh_dump = load_report(args.fresh)
    try:
        base_dump = load_report(args.baseline)
    except FileNotFoundError:
        print(f"FAIL: no baseline at {args.baseline} (commit one to enable the gate)")
        return 1

    gate = Gate()
    sections = args.section or sorted(
        name
        for name in SECTION_METRICS
        if name in fresh_dump and name in base_dump
    )
    if not sections:
        gate.fail("no gateable section present in both fresh and baseline dumps")
        return gate.finish("")

    cells = comparisons = 0
    for section in sections:
        fresh_payload = report_section(fresh_dump, section)
        base_payload = report_section(base_dump, section)
        fresh_cells = cells_by_spec(fresh_payload)
        base_cells = cells_by_spec(base_payload)
        for key, base_cell in sorted(base_cells.items()):
            fresh_cell = fresh_cells.get(key)
            if fresh_cell is None:
                gate.fail(
                    f"{section}: baseline cell {cell_label(base_cell['spec'])} "
                    "missing from fresh run"
                )
                continue
            cells += 1
            comparisons += compare_cells(
                gate, section, SECTION_METRICS[section], base_cell, fresh_cell
            )
        for key in sorted(set(fresh_cells) - set(base_cells)):
            print(
                f"note: {section}: fresh cell "
                f"{cell_label(fresh_cells[key]['spec'])} not in baseline "
                "(reseed the baseline to gate it)"
            )
        check_health(gate, section, fresh_payload)

    return gate.finish(
        f"{len(sections)} section(s), {cells} cell(s), {comparisons} "
        f"comparison(s), {gate.warnings} warning(s)"
    )


if __name__ == "__main__":
    sys.exit(main())
