"""Content-addressed on-disk cache for benchmark results.

Every unit of benchmark work is a frozen spec dataclass: one of the
six kinds in :mod:`repro.bench.runner` (``RunSpec``, ``MixedSpec``,
``UtilizationSpec``, ``RecoverySpec``, ``NegativeQuerySpec``,
``GrowthSpec``) or one of the four that experiments register
(``ConcurrentSpec``, ``ServingSpec``, ``TimelineSpec``,
``CrashMatrixSpec``). Results are pure functions of (spec, simulator
code), so a cache entry is keyed by the SHA-256 of:

- the spec's kind (its class name),
- every dataclass field of the spec, and
- a **code-version token**: a hash over the source text of the whole
  ``repro`` package.

The code token is what makes staleness impossible rather than unlikely:
touch any ``.py`` file under ``src/repro/`` and every previous entry
stops matching. The cost is that *any* edit — even a comment — cold-
starts the cache; for a pure-Python simulator whose every module can
move simulated events, that is the right trade.

Entries are single JSON files under ``<root>/<kind>/<digest>.json``,
written atomically (temp file + rename) so parallel workers and
interrupted runs can never leave a torn entry. The default root is
``.bench-cache`` in the working directory, overridable with the
``REPRO_BENCH_CACHE_DIR`` environment variable or ``--cache-dir``.

:func:`encode` and :func:`decode` are the one JSON codec for specs and
results: a spec's fingerprint, a cached payload and an experiment's
``"spec"`` block are all :func:`encode` output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import types
import typing
from functools import lru_cache
from pathlib import Path
from typing import Any

#: environment override for the default cache directory
CACHE_DIR_ENV = "REPRO_BENCH_CACHE_DIR"

#: environment kill-switch: any non-empty value disables caching in
#: :func:`~repro.bench.engine.default_engine` (timing runs set this)
NO_CACHE_ENV = "REPRO_BENCH_NO_CACHE"

#: default cache directory name (relative to the working directory)
DEFAULT_CACHE_DIR = ".bench-cache"


@lru_cache(maxsize=1)
def code_version() -> str:
    """Hash of the ``repro`` package's source text (16 hex chars).

    Computed once per process by walking every ``*.py`` file under the
    installed package directory in sorted order. Cached results are
    keyed by this token, so editing any source file invalidates the
    whole cache — see the module docstring for why that is deliberate.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def encode(obj: Any) -> Any:
    """JSON-ready form of a spec or result: a dataclass becomes its
    :func:`dataclasses.asdict` (nested dataclasses included), any other
    value (the executors' plain ``dict``/``float`` results) is returned
    as it is."""
    return dataclasses.asdict(obj) if dataclasses.is_dataclass(obj) else obj


def decode(tp: Any, data: Any) -> Any:
    """Inverse of :func:`encode` for a value of type ``tp``.

    A dataclass ``tp`` (or a union such as ``OpMix | None`` that holds
    one) is rebuilt field by field from :func:`typing.get_type_hints`,
    recursing into dataclass-typed fields; ``None`` and every other type
    come back as they are."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        args = typing.get_args(tp)
        tp = next((arg for arg in args if dataclasses.is_dataclass(arg)), None)
    if data is None or not dataclasses.is_dataclass(tp):
        return data
    hints = typing.get_type_hints(tp)
    return tp(**{name: decode(hints.get(name), v) for name, v in data.items()})


def spec_fingerprint(spec: Any) -> str:
    """Content digest of one frozen spec dataclass (full SHA-256 hex).

    The digest covers the spec's class name, all of its fields, and the
    :func:`code_version` token, serialised as canonical (sorted-key)
    JSON so the fingerprint is stable across processes and
    ``PYTHONHASHSEED`` values.
    """
    payload = {
        "kind": type(spec).__name__,
        "spec": encode(spec),
        "code": code_version(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """On-disk result store keyed by :func:`spec_fingerprint`.

    ``get`` returns the decoded JSON payload or ``None`` (missing or
    unreadable entries are treated as misses — a corrupt file is
    silently recomputed, never trusted). ``put`` writes atomically.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def _path(self, spec: Any) -> Path:
        return self.root / type(spec).__name__ / f"{spec_fingerprint(spec)}.json"

    def get(self, spec: Any) -> dict | None:
        """Cached payload for ``spec``, or ``None`` on a miss."""
        path = self._path(spec)
        try:
            with path.open("r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, spec: Any, payload: dict) -> None:
        """Store ``payload`` for ``spec`` (atomic: temp file + rename)."""
        path = self._path(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete every entry under the cache root; returns the count."""
        removed = 0
        if self.root.exists():
            for path in self.root.rglob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache(root={str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )
