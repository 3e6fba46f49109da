"""CI gate: the result cache must make a warm re-run free.

Runs the same benchmark twice against a throwaway cache directory and
compares the machine-readable ``cache_stats`` block of the ``--json``
dumps — the cold run must execute every cell, the warm run must serve
every cell from cache — and then the rest of the two dumps, which must
be equal: results decoded from the cache must report exactly what the
executed cells did. No timing heuristics, no stdout scraping, and
nothing left behind in the workspace: both the cache and the JSON dumps
live in a :class:`~tempfile.TemporaryDirectory`.

Usage (defaults shown)::

    python scripts/ci_cache_check.py [--experiment fig5] [--jobs 2]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: repo-root src/ tree, prepended to PYTHONPATH so the script works from
#: a bare checkout without an editable install
SRC = Path(__file__).resolve().parent.parent / "src"


def run_bench(experiment: str, jobs: int, cache_dir: Path, json_path: Path) -> dict:
    """Run one quick benchmark and return its JSON dump."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    subprocess.run(
        [
            sys.executable, "-m", "repro.bench", experiment,
            "--quick", "--jobs", str(jobs),
            "--cache-dir", str(cache_dir), "--json", str(json_path),
        ],
        check=True,
        env=env,
    )
    with json_path.open() as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    """Cold run, warm run, assert the warm one was served from cache
    and reported the same results."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--experiment", default="fig5")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-cache-ci-") as tmp:
        tmp_path = Path(tmp)
        cold_dump = run_bench(
            args.experiment, args.jobs, tmp_path / "cache", tmp_path / "cold.json"
        )
        warm_dump = run_bench(
            args.experiment, args.jobs, tmp_path / "cache", tmp_path / "warm.json"
        )
    cold = cold_dump.pop("cache_stats")
    warm = warm_dump.pop("cache_stats")

    print(f"cold: {cold}")
    print(f"warm: {warm}")
    if not (cold["enabled"] and warm["enabled"]):
        print("FAIL: cache was disabled", file=sys.stderr)
        return 1
    if cold["executed"] == 0:
        print("FAIL: cold run executed nothing (stale cache?)", file=sys.stderr)
        return 1
    if warm["misses"] != 0 or warm["executed"] != 0:
        print("FAIL: warm run missed the result cache", file=sys.stderr)
        return 1
    if warm["hits"] != cold["executed"]:
        print(
            f"FAIL: warm hits ({warm['hits']}) != cold executions "
            f"({cold['executed']})",
            file=sys.stderr,
        )
        return 1
    if warm_dump != cold_dump:
        print("FAIL: warm dump differs from the cold dump", file=sys.stderr)
        return 1
    print(
        f"ok: {cold['executed']} cell(s) executed cold, all served warm "
        "with an identical dump"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
