"""The one CI gate over ``python -m repro.bench <exp> --json`` reports.

Compares a fresh dump against a committed baseline, section by section
and cell by cell (cells match on their full frozen-spec dict). Each
:data:`SECTION_METRICS` entry declares **metrics**, compared with the
matched baseline cell within a relative tolerance or exactly, and
**invariants**, checked on every fresh cell with no baseline needed (a
missing field fails; a failing cell prints its minimal failing event
prefix and flight-recorder dump).

In every section a baseline cell missing from the fresh run fails (a
shrunken grid must not turn the gate green), a section-level ``ok``
flag must be true, and an embedded health report must not ``fail``.
Committed baselines are stored as their :func:`lean` projection.

Usage::

    python scripts/ci_perf_gate.py fresh.json --baseline bench_timeline.json \
        [--section timeline ...]
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable

#: the contention invariant's bound on read aborts per committed op
MAX_ABORT_RATE = 5.0


class Gate:
    """Prints ``ok:`` / ``WARN:`` / ``FAIL:`` lines; any ``fail`` turns the
    gate red, ``warn`` lines are counted but never gate, and
    :meth:`finish` prints ``gate passed:`` only on success."""

    def __init__(self) -> None:
        self.failed = False
        self.warnings = 0

    def ok(self, message: str) -> None:
        """Print one passing check."""
        print(f"ok: {message}")

    def warn(self, message: str) -> None:
        """Print one non-gating warning."""
        self.warnings += 1
        print(f"WARN: {message}")

    def fail(self, message: str) -> None:
        """Print one failing check and mark the gate failed."""
        self.failed = True
        print(f"FAIL: {message}")

    def check(self, passed: bool, message: str) -> None:
        """Print one check as passing or failing."""
        (self.ok if passed else self.fail)(message)

    def finish(self, summary: str) -> int:
        """Print the success summary (if clean) and return 0/1."""
        if not self.failed:
            print(f"gate passed: {summary}")
        return 1 if self.failed else 0


@dataclass(frozen=True)
class Metric:
    """One per-cell comparison against the baseline cell, skipped where
    the baseline lacks the field (a growth timeline cell has no abort
    rate); a fresh cell that lacks it fails.

    ``worse`` names the regression direction (``"down"``: lower is a
    regression, e.g. throughput; ``"up"``: higher is, e.g. latency;
    ``"exact"``: any difference is, e.g. a digest); ``tolerance`` is the
    relative drift allowed that way."""

    path: str
    worse: str
    tolerance: float


@dataclass(frozen=True)
class Invariant:
    """A property every fresh cell must hold, baseline or not:
    ``holds`` is called with the values at ``paths``."""

    text: str
    paths: tuple[str, ...]
    holds: Callable[..., bool]


def equals(path: str, want) -> Invariant:
    """Invariant: the field at ``path`` equals ``want``."""
    return Invariant(f"{path} == {want!r}", (path,), lambda value: value == want)


#: per-section checks: each Metric against the baseline cell, each Invariant alone
SECTION_METRICS: dict[str, tuple[Metric | Invariant, ...]] = {
    "contention": (
        Metric("throughput_kops", "down", 0.10),
        Metric("total.p99", "up", 0.25),
        Metric("read_aborts", "up", 0.50),
        Metric("table_digest", "exact", 0.0),
        equals("lost_updates", 0),
        equals("check_failures", []),
        equals("failed_ops", 0),
        Invariant("throughput_kops > 0", ("throughput_kops",), lambda kops: kops > 0),
        Invariant("total.p99 > 0", ("total.p99",), lambda p99: p99 > 0),
        Invariant(
            f"read_aborts / committed <= {MAX_ABORT_RATE}",
            ("read_aborts", "committed"),
            lambda aborts, ops: aborts <= MAX_ABORT_RATE * max(1, ops),
        ),
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
        equals("check_failures", []),
    ),
    "crashmatrix": (
        Metric("points", "exact", 0.0),
        Metric("replays", "exact", 0.0),
        Metric("splits", "exact", 0.0),
        Metric("split_points", "exact", 0.0),
        Metric("concurrent_points", "exact", 0.0),
        equals("violations", []),
    ),
}

#: section-level fields the gate reads (kept by :func:`lean`)
SECTION_FIELDS = ("ok", "health")


def load_report(path: str) -> dict:
    """Load one ``python -m repro.bench ... --json`` dump."""
    with open(path) as fh:
        return json.load(fh)


def report_section(dump: dict, name: str) -> dict:
    """One experiment's payload out of a dump, or a clean SystemExit."""
    try:
        return dump[name]
    except KeyError:
        raise SystemExit(
            f"FAIL: report has no {name!r} section "
            f"(found: {sorted(k for k in dump if isinstance(dump[k], dict))})"
        ) from None


def spec_key(spec: dict) -> tuple:
    """Hashable identity of a cell's frozen spec (sorted field items)."""
    return tuple(sorted(spec.items()))


def cells_by_spec(payload: dict) -> dict[tuple, dict]:
    """Index an experiment payload's cells by :func:`spec_key`."""
    return {spec_key(cell["spec"]): cell for cell in payload["cells"]}


def dig(mapping: dict, dotted: str, default=None):
    """Walk a nested dict by a dotted path (``"total.p99"``)."""
    node = mapping
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return default
        node = node[part]
    return node


def lean(dump: dict) -> dict:
    """The committed-baseline form of a dump: each gated section's cells
    keep their ``spec`` and the paths the section's checks read, and the
    section keeps its :data:`SECTION_FIELDS`. Idempotent."""
    projected = {}
    for name, checks in SECTION_METRICS.items():
        if name not in dump:
            continue
        payload = dump[name]
        paths = [c.path for c in checks if isinstance(c, Metric)] + [
            path for c in checks if isinstance(c, Invariant) for path in c.paths
        ]
        cells = []
        for cell in payload["cells"]:
            kept = {"spec": cell["spec"]}
            for path in paths:
                if dig(cell, path) is not None:
                    *parents, leaf = path.split(".")
                    node = kept
                    for part in parents:
                        node = node.setdefault(part, {})
                    node[leaf] = dig(cell, path)
            cells.append(kept)
        projected[name] = {"cells": cells}
        projected[name].update((f, payload[f]) for f in SECTION_FIELDS if f in payload)
    return projected


def short_label(spec: dict) -> str:
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


def cell_labels(specs: list[dict]) -> dict[tuple, str]:
    """A unique label per spec key: the :func:`short_label`, plus
    ``field=value`` for each field that varies among the specs sharing
    it (the crash matrix's plain, sharded, 3-client and grow cells)."""
    groups: dict[str, list[dict]] = {}
    for spec in specs:
        groups.setdefault(short_label(spec), []).append(spec)
    labels = {}
    for short, group in groups.items():
        fields = sorted({field for spec in group for field in spec})
        varying = [f for f in fields if len({spec.get(f) for spec in group}) > 1]
        for spec in group:
            labels[spec_key(spec)] = " ".join(
                [short] + [f"{field}={spec.get(field)}" for field in varying]
            )
    return labels


def print_failure_context(context: dict | None, *, indent: str = "  ") -> None:
    """Pretty-print a cell's flight-recorder dump (the
    ``failure_context`` payload attached to shadow-oracle and
    crash-matrix failures): the persist events and per-client op rings
    leading up to the first failure."""
    if not context:
        return
    head = f"{indent}flight recorder"
    boundary = context.get("first_failing_boundary")
    if boundary is not None:
        head += f" (events before failing boundary {boundary})"
    print(
        head + f": {context.get('events_seen', 0)} event(s), "
        f"{context.get('ops_seen', 0)} op(s) seen"
    )
    for event in context.get("events", [])[-20:]:
        print(f"{indent}  event {event}")
    for client, ring in sorted(context.get("ops", {}).items()):
        for op in ring[-5:]:
            print(f"{indent}  client {client} op {op}")


def check_invariants(
    gate: Gate, where: str, invariants: list[Invariant], cell: dict
) -> None:
    """Check one fresh cell's invariants (a missing field fails); on any
    failure, print its minimal failing event prefix and recorder dump."""
    failed = False
    for invariant in invariants:
        values = [dig(cell, path) for path in invariant.paths]
        holds = None not in values and invariant.holds(*values)
        shown = ", ".join(
            f"{path}={value!r:.200}" for path, value in zip(invariant.paths, values)
        )
        gate.check(holds, f"{where} {invariant.text} (got {shown})")
        failed = failed or not holds
    if not failed:
        return
    prefix = cell.get("min_failing_prefix") or []
    if prefix:
        print(f"  minimal failing prefix ({len(prefix)} event(s)):")
    for event in prefix[-20:]:
        print(f"    {event}")
    print_failure_context(cell.get("failure_context"))


def compare_cells(
    gate: Gate, where: str, metrics, base_cell: dict, fresh_cell: dict
) -> int:
    """Compare every metric the baseline cell holds with the fresh
    cell's value (missing or non-numeric there fails); returns the
    number of comparisons made."""
    compared = 0
    for metric in metrics:
        was = dig(base_cell, metric.path)
        if was is None:
            continue
        now = dig(fresh_cell, metric.path)
        compared += 1
        if metric.worse == "exact":
            gate.check(
                now == was, f"{where} {metric.path}: {now} vs baseline {was} [exact]"
            )
            continue
        if not isinstance(was, (int, float)) or not isinstance(now, (int, float)):
            gate.fail(
                f"{where} {metric.path}: {now!r} vs baseline {was!r} [not a number]"
            )
            continue
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
            f"{where} {metric.path}: {shown}"
            f" [tolerance {metric.tolerance:.0%} {metric.worse}]"
        )
        gate.check(not regressed, line)
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
    status = health.get("status")
    gate.check(status != "fail", f"{section}: health report status is {status!r}")


def main(argv: list[str] | None = None) -> int:
    """Gate a fresh dump against a baseline dump; 0 = gate passes."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh")
    parser.add_argument("--baseline", required=True)
    parser.add_argument(
        "--section",
        action="append",
        choices=sorted(SECTION_METRICS),
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
        name for name in SECTION_METRICS if name in fresh_dump and name in base_dump
    )
    if not sections:
        gate.fail("no gateable section present in both fresh and baseline dumps")
        return gate.finish("")

    cells = comparisons = 0
    for section in sections:
        checks = SECTION_METRICS[section]
        metrics = [check for check in checks if isinstance(check, Metric)]
        invariants = [check for check in checks if isinstance(check, Invariant)]
        fresh_payload = report_section(fresh_dump, section)
        base_payload = report_section(base_dump, section)
        fresh_cells = cells_by_spec(fresh_payload)
        base_cells = cells_by_spec(base_payload)
        labels = cell_labels(
            [cell["spec"] for cell in [*base_cells.values(), *fresh_cells.values()]]
        )
        for key, base_cell in sorted(base_cells.items()):
            fresh_cell = fresh_cells.get(key)
            if fresh_cell is None:
                gate.fail(
                    f"{section}: baseline cell {labels[key]} missing from fresh run"
                )
                continue
            cells += 1
            comparisons += compare_cells(
                gate, f"{section}/{labels[key]}", metrics, base_cell, fresh_cell
            )
        for key, fresh_cell in sorted(fresh_cells.items()):
            if key not in base_cells:
                print(
                    f"note: {section}: fresh cell {labels[key]} not in "
                    "baseline (reseed the baseline to gate it)"
                )
            check_invariants(gate, f"{section}/{labels[key]}", invariants, fresh_cell)
        if "ok" in base_payload or "ok" in fresh_payload:
            ok = fresh_payload.get("ok")
            gate.check(ok is True, f"{section}: section ok flag is {ok!r}")
        check_health(gate, section, fresh_payload)

    return gate.finish(
        f"{len(sections)} section(s), {cells} cell(s), {comparisons} "
        f"comparison(s), {gate.warnings} warning(s)"
    )


if __name__ == "__main__":
    sys.exit(main())
