"""Plain-text report formatting for the experiment drivers.

Every experiment returns rows of (label, {column: value}); these helpers
render them as aligned tables that mirror the paper's figures — one
table per figure panel, one row per scheme/series point.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[tuple[str, Mapping[str, float]]],
    *,
    unit: str = "",
    precision: int = 1,
) -> str:
    """Render one aligned table with a title line."""
    label_width = max([len(label) for label, _ in rows] + [len("scheme")])
    col_width = max([len(c) for c in columns] + [10])
    lines = [title + (f"  [{unit}]" if unit else "")]
    header = " " * (label_width + 2) + "".join(f"{c:>{col_width + 2}}" for c in columns)
    lines.append(header)
    for label, values in rows:
        cells = "".join(
            f"{values.get(c, float('nan')):>{col_width + 2}.{precision}f}"
            for c in columns
        )
        lines.append(f"{label:<{label_width + 2}}" + cells)
    return "\n".join(lines)


def format_histogram(
    title: str,
    payload: Mapping,
    *,
    width: int = 40,
) -> str:
    """Render one exported :class:`~repro.obs.Histogram` block (the
    ``as_dict`` form) as an aligned bar chart, one line per non-empty
    log2 bucket."""
    from repro.obs import bucket_label

    buckets = payload.get("buckets", [])
    count = payload.get("count", 0)
    lines = [f"{title}  [n={count}, mean={payload.get('sum', 0) / max(1, count):.2f}]"]
    peak = max(buckets, default=0)
    for i, c in enumerate(buckets):
        if not c:
            continue
        bar = "#" * max(1, int(width * c / peak)) if peak else ""
        lines.append(f"  {bucket_label(i):>12}  {c:>8}  {bar}")
    return "\n".join(lines)


#: column order for tail-latency tables (matches
#: :meth:`~repro.obs.LatencyRecorder.summary` keys)
PERCENTILE_COLUMNS: tuple[str, ...] = ("p50", "p95", "p99", "max")


def format_percentile_table(
    title: str,
    rows: Sequence[tuple[str, Mapping[str, float]]],
    *,
    unit: str = "simulated ns/op",
) -> str:
    """Render one tail-latency table: a row per scheme, the
    :data:`PERCENTILE_COLUMNS` as columns. Rows are ``(label,
    summary)`` where ``summary`` is a
    :meth:`~repro.obs.LatencyRecorder.summary` block."""
    return format_table(
        title, list(PERCENTILE_COLUMNS), rows, unit=unit, precision=0
    )


#: eight-level block ramp used by :func:`format_sparkline`
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def format_sparkline(
    label: str,
    values: Sequence[float],
    *,
    width: int = 32,
    unit: str = "",
) -> str:
    """Render one series as a labelled unicode sparkline.

    Values are scaled to the series' own min..max (a flat series renders
    as all-low blocks); longer series are downsampled by taking the max
    of each bucket, so spikes survive the compression. The line ends
    with the numeric min/max so the sparkline's scale is readable."""
    vals = [float(v) for v in values]
    if not vals:
        return f"  {label}  (no samples)"
    if len(vals) > width:
        # bucket-max downsampling: a p99 spike must not average away
        step = len(vals) / width
        vals = [
            max(vals[int(i * step): max(int(i * step) + 1, int((i + 1) * step))])
            for i in range(width)
        ]
    lo, hi = min(vals), max(vals)
    span = hi - lo
    chars = "".join(
        SPARK_BLOCKS[
            0 if span == 0 else int((v - lo) / span * (len(SPARK_BLOCKS) - 1))
        ]
        for v in vals
    )
    suffix = f"  [{lo:.0f}..{hi:.0f}{' ' + unit if unit else ''}]"
    return f"  {label:<18} {chars}{suffix}"


def format_ratio_note(note: str) -> str:
    """Footnote line under a table (e.g. the paper's headline ratios)."""
    return f"  -> {note}"


def format_warnings(warnings: Sequence[str]) -> str:
    """Measurement-quality warnings block (e.g. insert shortfalls)."""
    return "\n".join(f"  !! warning: {w}" for w in warnings)


def hrule(title: str) -> str:
    """Section separator used between experiments in `bench all`."""
    bar = "=" * max(8, 72 - len(title) - 2)
    return f"\n== {title} {bar}"
