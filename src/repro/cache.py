"""Persistent content-addressed result cache.

Fleet plan evaluations and per-job latency-floor tables
(:class:`repro.fleet.allocator.PlannerPool`'s ``fleet_plan`` namespace)
are expensive pure functions of their inputs.  This module gives them a zero-dependency on-disk memo: values
are stored as JSON files named by the SHA-256 of a canonical
serialization of *everything* the computation depends on (model spec,
GPU specs, workload, seed, and a code-version salt derived from the
package's source files, so stale entries self-invalidate when the code
changes).

Layout::

    <root>/<namespace>/<sha256-hex>.json

Properties:

* **Atomic writes** — values land via ``tmp + os.replace`` so a crashed
  writer never leaves a half-written entry for a later reader.
* **Corruption-safe reads** — an unreadable/truncated entry is evicted
  (deleted) and reported as a miss; the caller recomputes and overwrites.
* **Opt-out** — ``SPLITQUANT_CACHE=0`` disables the default cache
  entirely; ``SPLITQUANT_CACHE_DIR`` relocates it (default
  ``~/.cache/splitquant``).
* **Observability** — per-instance ``hits`` / ``misses`` /
  ``evictions`` counters.

The stored JSON wraps the value as ``{"key": ..., "value": ...}`` so an
entry is self-describing for debugging (``jq .key <file>``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

__all__ = [
    "MISS",
    "ResultCache",
    "cache_key",
    "canonical_json",
    "code_version_salt",
    "default_cache",
]

#: Bump to invalidate every cache entry regardless of source hashing.
CACHE_SCHEMA_VERSION = 1

#: Sentinel distinguishing "no entry" from a cached ``None`` value.
MISS = object()

_DEFAULT_DIR = "~/.cache/splitquant"


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, stable floats.

    Python's ``repr``-based float serialization is shortest-round-trip,
    so equal floats always serialize identically.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def cache_key(payload: Any) -> str:
    """SHA-256 hex digest of the canonical serialization of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def code_version_salt() -> str:
    """A digest of the source files cached values depend on.

    Hashes the bytes of every ``repro`` source file together with
    :data:`CACHE_SCHEMA_VERSION`.  Any edit to the package changes the
    salt, so every cache key embedding it silently misses and the value
    is recomputed — no manual cache busting after changing the code.
    ``SPLITQUANT_CACHE_SALT`` overrides the computed value (used by tests
    to force collisions or invalidations deterministically).
    """
    env = os.environ.get("SPLITQUANT_CACHE_SALT")
    if env is not None:
        return env
    global _SALT
    if _SALT is None:
        h = hashlib.sha256()
        h.update(f"schema={CACHE_SCHEMA_VERSION}".encode())
        pkg = Path(__file__).parent
        for path in _salt_sources():
            try:
                h.update(path.relative_to(pkg).as_posix().encode())
                h.update(path.read_bytes())
            except OSError:  # pragma: no cover - unreadable source file
                h.update(b"<unreadable>")
        _SALT = h.hexdigest()[:16]
    return _SALT


_SALT: Optional[str] = None


def _salt_sources() -> list:
    """Every source file of the ``repro`` package, in stable order.

    Cached values depend on much of the package (plans on the quantizer,
    workloads, fleet and serialization code too), so the salt covers all
    of it: an unrelated edit costs a cold cache, never a stale hit.
    """
    return sorted(Path(__file__).parent.rglob("*.py"))


@dataclass
class ResultCache:
    """A content-addressed JSON store under one root directory."""

    root: Path
    #: Run counters.
    hits: int = field(default=0, init=False)
    misses: int = field(default=0, init=False)
    evictions: int = field(default=0, init=False)

    def __post_init__(self):
        self.root = Path(self.root).expanduser()

    # -- key/value plumbing --------------------------------------------

    def _path(self, namespace: str, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"key must be a hex digest, got {key!r}")
        return self.root / namespace / f"{key}.json"

    def get(self, namespace: str, key: str) -> Any:
        """The stored value, or :data:`MISS`.

        A present-but-unparseable entry (torn write, disk corruption) is
        evicted and counts as both an eviction and a miss.
        """
        path = self._path(namespace, key)
        try:
            raw = path.read_text()
        except OSError:
            self.misses += 1
            return MISS
        try:
            entry = json.loads(raw)
            value = entry["value"]
        except (ValueError, KeyError, TypeError):
            self.evict(namespace, key)
            self.misses += 1
            return MISS
        self.hits += 1
        return value

    def put(self, namespace: str, key: str, value: Any) -> None:
        """Store ``value`` atomically (tmp file + rename)."""
        path = self._path(namespace, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = json.dumps({"key": key, "value": value}, sort_keys=True)
        fd, tmp = tempfile.mkstemp(
            prefix=f".{key[:12]}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(body)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def evict(self, namespace: str, key: str) -> bool:
        """Delete one entry; returns whether a file was removed."""
        try:
            self._path(namespace, key).unlink()
        except OSError:
            return False
        self.evictions += 1
        return True

    # -- maintenance ----------------------------------------------------

    def entries(self, namespace: str) -> int:
        """Number of entries stored under ``namespace``."""
        d = self.root / namespace
        return sum(1 for _ in d.glob("*.json")) if d.is_dir() else 0

    def clear(self, namespace: Optional[str] = None) -> int:
        """Remove all entries (of one namespace, or everywhere)."""
        removed = 0
        dirs = (
            [self.root / namespace]
            if namespace is not None
            else [p for p in self.root.iterdir() if p.is_dir()]
            if self.root.is_dir()
            else []
        )
        for d in dirs:
            if not d.is_dir():
                continue
            for f in d.glob("*.json"):
                try:
                    f.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - concurrent clear
                    pass
        return removed


def default_cache() -> Optional[ResultCache]:
    """The process-wide cache, honouring the environment each call.

    ``SPLITQUANT_CACHE=0`` returns ``None`` (callers treat that as
    "always recompute"); ``SPLITQUANT_CACHE_DIR`` picks the root.  The
    environment is re-read on every call so tests can point the cache at
    a temp directory without import-order games.
    """
    if os.environ.get("SPLITQUANT_CACHE", "1") == "0":
        return None
    root = os.environ.get("SPLITQUANT_CACHE_DIR", _DEFAULT_DIR)
    global _CACHE
    if _CACHE is None or str(_CACHE.root) != str(Path(root).expanduser()):
        _CACHE = ResultCache(Path(root))
    return _CACHE


_CACHE: Optional[ResultCache] = None
