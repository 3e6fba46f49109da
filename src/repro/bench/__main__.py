"""CLI: ``python -m repro.bench <experiment> [--scale small] [--seed 42]``.

Regenerates the paper's tables and figures as text reports. ``all`` runs
every experiment in paper order. Execution is handled by the
:class:`~repro.bench.engine.Engine`: ``--jobs`` fans workload cells out
across processes, and a content-addressed result cache (keyed on the
spec fields plus a hash of the ``repro`` source tree) makes re-runs
nearly free — ``--no-cache`` / ``--cache-dir`` override it, and
``--profile`` runs one worker under :mod:`cProfile`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.bench.config import SCALES
from repro.bench.experiments import (
    ablations,
    contention,
    crashmatrix,
    fig2,
    fig5,
    fig6,
    fig7,
    fig8,
    growth,
    mixed,
    negative,
    profile as profile_exp,
    serving,
    sweep_lf,
    table3,
    timeline,
    writes,
)
from repro.bench.report import hrule

#: every experiment, in paper order (the order ``all`` runs them in)
EXPERIMENTS = {
    "fig2": fig2.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "table3": table3.run,
    "writes": writes.run,
    "ablations": ablations.run,
    "sweep": sweep_lf.run,
    "negative": negative.run,
    "mixed": mixed.run,
    "growth": growth.run,
    "contention": contention.run,
    "serving": serving.run,
    "timeline": timeline.run,
    "crashmatrix": crashmatrix.run,
    "profile": profile_exp.run,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation tables and figures "
        "on the simulated NVM hierarchy.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which figure/table to regenerate",
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=sorted(SCALES),
        help="table-size preset (DESIGN.md explains the scaling argument)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: force the tiny scale (overrides --scale)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also dump the structured results as JSON to PATH",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for workload cells (default: all cores)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result-cache directory (default .bench-cache or "
        "$REPRO_BENCH_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="execute every cell even if a cached result exists",
    )
    parser.add_argument(
        "--scheme",
        action="append",
        metavar="NAME",
        default=None,
        help="crashmatrix only: campaign this scheme (repeatable; "
        "default: the scale's standard grid)",
    )
    parser.add_argument(
        "--backend",
        choices=("raw", "sim"),
        default="raw",
        help="crashmatrix only: memory backend for monolithic cells",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="crashmatrix only: word-survival subsets per crash "
        "boundary beyond the drop-all/persist-all extremes",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the first uncached cell under cProfile and print the "
        "top-20 cumulative entries to stderr",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="fig5/fig6 only: record span traces for every grid cell "
        "(results carry spans + Chrome trace events)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="fig5/fig6 only: collect the metrics registry for every "
        "grid cell (probe histograms, WAL counters, group heat)",
    )
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.budget is not None and args.budget < 0:
        parser.error("--budget must be at least 0")

    from repro.bench.cache import NO_CACHE_ENV, ResultCache
    from repro.bench.engine import Engine

    scale = SCALES["tiny"] if args.quick else SCALES[args.scale]
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]

    jobs = args.jobs if args.jobs is not None else os.cpu_count() or 1
    no_cache = args.no_cache or bool(os.environ.get(NO_CACHE_ENV))
    cache: ResultCache | bool = False if no_cache else ResultCache(args.cache_dir)
    eng = Engine(jobs=jobs, cache=cache, profile=args.profile)

    dump: dict[str, object] = {"scale": scale.name, "seed": args.seed}
    for name in names:
        start = time.perf_counter()
        runner = EXPERIMENTS[name]
        if name == "crashmatrix":
            result = runner(
                scale,
                seed=args.seed,
                engine=eng,
                schemes=tuple(args.scheme) if args.scheme else None,
                backend=args.backend,
                budget=args.budget,
            )
        elif name in ("fig5", "fig6"):
            result = runner(
                scale,
                seed=args.seed,
                engine=eng,
                with_trace=args.trace,
                with_metrics=args.metrics,
            )
        else:
            result = runner(scale, seed=args.seed, engine=eng)
        elapsed = time.perf_counter() - start
        print(hrule(f"{result.paper_ref} ({name}, scale={scale.name})"))
        print(result.text)
        print(f"  [wall-clock {elapsed:.1f}s — latencies above are simulated ns]")
        payload = result.data
        if "chrome_trace" in payload:
            # the Chrome trace goes to its own file (it is an artifact
            # for a viewer, not part of the structured report)
            payload = {k: v for k, v in payload.items() if k != "chrome_trace"}
            # default scratch artifacts land under the gitignored out/
            # directory, never at the repo root; suffix with the
            # experiment name when several in one run emit traces
            if args.json and len(names) == 1:
                trace_path = os.path.splitext(args.json)[0] + ".trace.json"
            elif args.json:
                trace_path = os.path.splitext(args.json)[0] + f".{name}.trace.json"
            else:
                os.makedirs("out", exist_ok=True)
                trace_path = os.path.join("out", f"{name}.trace.json")
            with open(trace_path, "w") as fh:
                json.dump(result.data["chrome_trace"], fh)
            print(
                f"  [chrome trace written to {trace_path} — load it in "
                "chrome://tracing or Perfetto]"
            )
        dump[name] = _jsonable(payload)
    if eng.cache:
        print(
            f"  [result cache: {eng.cache.hits} hit(s), "
            f"{eng.cache.misses} miss(es) at {eng.cache.root}]"
        )
    # machine-readable engine counters: CI gates on these instead of
    # scraping the human-oriented lines above
    dump["cache_stats"] = {
        "enabled": eng.cache is not None,
        "hits": eng.cache.hits if eng.cache else 0,
        "misses": eng.cache.misses if eng.cache else 0,
        "executed": eng.executed,
    }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(dump, fh, indent=2)
        print(f"\nstructured results written to {args.json}")
    return 0


def _jsonable(value):
    """Coerce experiment payloads (tuple/float-keyed dicts) to JSON."""
    if isinstance(value, dict):
        return {_key(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _key(key) -> str:
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    return str(key)


if __name__ == "__main__":
    sys.exit(main())
