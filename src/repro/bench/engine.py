"""Parallel, cached execution engine for benchmark spec grids.

Every experiment driver declares its grid as a list of frozen spec
dataclasses up front and hands the whole list to :meth:`Engine.run`,
which:

1. **deduplicates** — identical specs in one batch (and across
   experiments: Figures 5 and 6 share their entire grid) execute once;
2. **consults the cache** — each spec is fingerprinted (all fields + a
   code-version token, :mod:`repro.bench.cache`) and previously
   computed results load from disk instead of re-simulating;
3. **fans out** the remaining misses across a
   :class:`~concurrent.futures.ProcessPoolExecutor` (``jobs`` workers;
   ``jobs=1`` runs inline with zero pool overhead).

Results come back in input order, so an experiment's output — and the
JSON the CLI dumps — is byte-identical whatever ``jobs`` is; every spec
executor is fully seeded, so results are also identical across
processes and ``PYTHONHASHSEED`` values (pinned by
``tests/test_engine.py``).

:func:`default_engine` is the module-level engine experiment drivers use
when the caller passes none: serial, cache-enabled (disable with the
``REPRO_BENCH_NO_CACHE`` environment variable — genuine timing runs of
the *simulator* must not short-circuit through the cache).
"""

from __future__ import annotations

import os
import typing
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

from repro.bench.cache import NO_CACHE_ENV, ResultCache, decode, encode
from repro.bench.runner import (
    GrowthSpec,
    MixedResult,
    MixedSpec,
    NegativeQuerySpec,
    RecoverySpec,
    RunResult,
    RunSpec,
    UtilizationSpec,
    measure_negative_queries,
    measure_recovery,
    measure_space_utilization,
    run_growth_workload,
    run_mixed_workload,
    run_workload,
)

#: every spec kind the engine can execute: spec type -> executor
SPEC_KINDS: dict[type, Callable] = {
    RunSpec: run_workload,
    MixedSpec: run_mixed_workload,
    UtilizationSpec: measure_space_utilization,
    RecoverySpec: measure_recovery,
    NegativeQuerySpec: measure_negative_queries,
    GrowthSpec: run_growth_workload,
}


def register_spec_kind(spec_type: type, execute: Callable) -> None:
    """Register an additional spec kind with the engine.

    ``execute(spec)`` computes the result. The cache stores
    :func:`~repro.bench.cache.encode` of it and, on a hit, rebuilds it
    with :func:`~repro.bench.cache.decode` at ``execute``'s return
    annotation, so the annotation must name the result type (a result
    dataclass, or ``dict``/``float`` for plain JSON values).

    Must run as an import-time side effect of the module *defining*
    ``spec_type``: pool workers unpickle a spec (importing its module,
    and therefore registering it) before :func:`execute_spec` looks the
    kind up, so registration-by-import is what keeps ``--jobs`` fan-out
    working for externally defined kinds."""
    SPEC_KINDS[spec_type] = execute


def execute_spec(spec: Any) -> Any:
    """Run one spec of any registered kind (the pool-worker entrypoint)."""
    try:
        execute = SPEC_KINDS[type(spec)]
    except KeyError:
        raise TypeError(
            f"unknown spec kind {type(spec).__name__}; "
            f"expected one of {sorted(t.__name__ for t in SPEC_KINDS)}"
        ) from None
    return execute(spec)


def _profiled_execute(spec: Any) -> Any:
    """Run one spec under cProfile and print the top-20 cumulative
    functions — the ``--profile`` flag's one observed worker."""
    import cProfile
    import pstats
    import sys

    profiler = cProfile.Profile()
    result = profiler.runcall(execute_spec, spec)
    stats = pstats.Stats(profiler, stream=sys.stderr)
    print(f"\n--- profile of {spec!r} (top 20 by cumulative time) ---", file=sys.stderr)
    stats.sort_stats("cumulative").print_stats(20)
    return result


class Engine:
    """Deduplicating, caching, parallel spec runner.

    Parameters:

    - ``jobs`` — worker processes for cache misses; ``None`` or ``1``
      executes inline (deterministic results either way — parallelism
      only changes wall-clock).
    - ``cache`` — a :class:`~repro.bench.cache.ResultCache`, ``None``
      for the default on-disk location, or ``False`` to disable caching.
    - ``profile`` — cProfile the first executed (non-cached) spec and
      report the top-20 cumulative functions to stderr.
    """

    def __init__(
        self,
        *,
        jobs: int | None = None,
        cache: ResultCache | None | bool = None,
        profile: bool = False,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs or 1
        if cache is False:
            self.cache: ResultCache | None = None
        elif cache is None or cache is True:
            self.cache = ResultCache()
        else:
            self.cache = cache
        self.profile = profile
        #: specs executed (cache misses) / loaded from cache, lifetime
        self.executed = 0
        self.cache_hits = 0
        #: measurement-quality warnings accumulated across runs (e.g.
        #: insert shortfalls); drained by :meth:`take_warnings`
        self.warnings: list[str] = []

    # ------------------------------------------------------------------

    def run(self, specs: Sequence[Any]) -> list[Any]:
        """Execute ``specs`` and return their results in input order.

        Duplicate specs run once; cached specs load from disk; the rest
        fan out across ``jobs`` workers."""
        unique: dict[Any, Any] = {}
        for spec in specs:
            unique.setdefault(spec, None)

        todo: list[Any] = []
        for spec in unique:
            payload = self.cache.get(spec) if self.cache is not None else None
            if payload is not None:
                hints = typing.get_type_hints(SPEC_KINDS[type(spec)])
                unique[spec] = decode(hints.get("return"), payload["result"])
                self.cache_hits += 1
            else:
                todo.append(spec)

        for spec, result in zip(todo, self._execute_all(todo)):
            unique[spec] = result
            self.executed += 1
            if self.cache is not None:
                self.cache.put(spec, {"result": encode(result)})

        results = []
        for spec in specs:
            result = unique[spec]
            self._collect_warnings(spec, result)
            results.append(result)
        return results

    def run_one(self, spec: Any) -> Any:
        """Convenience wrapper: :meth:`run` on a single spec."""
        return self.run([spec])[0]

    # ------------------------------------------------------------------

    def _execute_all(self, todo: list[Any]) -> list[Any]:
        if not todo:
            return []
        head: list[Any] = []
        if self.profile:
            head = [_profiled_execute(todo[0])]
            todo = todo[1:]
        if not todo:
            return head
        jobs = min(self.jobs, len(todo))
        if jobs <= 1:
            return head + [execute_spec(spec) for spec in todo]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return head + list(pool.map(execute_spec, todo))

    def _collect_warnings(self, spec: Any, result: Any) -> None:
        if isinstance(result, MixedResult):
            if result.failed_ops:
                self.warnings.append(
                    f"{spec.scheme}/{spec.preset}/lf={spec.load_factor}: "
                    f"{result.failed_ops}/{result.phase.attempted} mixed ops "
                    "failed (inserts at capacity and their dependents) — "
                    "percentiles cover all attempts, averages only successes"
                )
            return
        if not isinstance(result, RunResult):
            return
        shortfalls = result.shortfalls()
        if shortfalls:
            detail = ", ".join(
                f"{phase}: {result.phase(phase).ops}"
                f"/{result.phase(phase).attempted} ops"
                for phase in shortfalls
            )
            self.warnings.append(
                f"{spec.scheme}/{spec.trace}/lf={spec.load_factor}: measured "
                f"fewer ops than attempted ({detail}) — averages cover only "
                "the successful operations"
            )

    def take_warnings(self) -> list[str]:
        """Return accumulated warnings and clear the list."""
        out, self.warnings = self.warnings, []
        return out


_default_engine: Engine | None = None


def default_engine() -> Engine:
    """Process-wide serial engine used when a driver gets no engine.

    Cache-enabled unless ``REPRO_BENCH_NO_CACHE`` is set (non-empty), so
    repeated local pytest/benchmark iterations reuse simulated cells."""
    global _default_engine
    if _default_engine is None:
        use_cache = not os.environ.get(NO_CACHE_ENV)
        _default_engine = Engine(jobs=1, cache=None if use_cache else False)
    return _default_engine
