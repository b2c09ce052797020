"""Solver-artifact cache: content-addressed memoization of the
inspector half of the inspector–executor pattern.

The expensive preprocessing artifacts of the pipeline — preconditioners
with their factors and triangular solvers
(:func:`repro.core.make_preconditioner`), wavefront (level) schedules
(:func:`cached_level_schedule`, :func:`cached_lower_schedule`) and ILU
factor plans
(:func:`repro.perf.vectorized.build_factor_plan`) — depend only on
matrix *content* or *structure* and a small parameter tuple, yet the
harness would recompute them for every (ratio, preconditioner) pair of
every sweep.  :class:`ArtifactCache` memoizes them under
``(kind, fingerprint, *params)`` keys with

* hit/miss/eviction counters, per artifact kind (the acceptance test
  for "a 3-ratio grid search performs exactly 3 factorizations" reads
  these);
* an LRU bound (``maxsize`` artifacts) so sweeps over the 107-matrix
  registry cannot grow memory without bound;
* explicit invalidation by matrix fingerprint, plus ``clear()``.

A process-wide default cache is consulted by
:func:`repro.core.spcg.make_preconditioner` (and therefore by ``spcg``,
``robust_spcg``, the grid search and the suite runner).  It is
thread-safe: one lock guards every lookup and insertion.
Environment knobs: ``REPRO_CACHE=0`` disables it, ``REPRO_CACHE_SIZE``
resizes it.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Hashable, TypeVar

from ..obs.trace import get_recorder
from .fingerprint import structure_fingerprint

__all__ = ["CacheStats", "ArtifactCache", "get_cache", "set_cache",
           "use_cache", "cache_stats", "cached_level_schedule",
           "cached_lower_schedule"]

T = TypeVar("T")


@dataclass
class CacheStats:
    """Counters of one :class:`ArtifactCache` (mutated in place).

    ``misses_by_kind`` counts builder invocations — for the
    ``"preconditioner"`` kind this is exactly the number of
    factorizations performed, which is what the perf regression tests
    assert on.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    hits_by_kind: dict = field(default_factory=dict)
    misses_by_kind: dict = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        n = self.lookups
        return self.hits / n if n else 0.0

    def snapshot(self) -> "CacheStats":
        """Point-in-time copy (the live object keeps counting)."""
        return CacheStats(hits=self.hits, misses=self.misses,
                          evictions=self.evictions,
                          invalidations=self.invalidations,
                          hits_by_kind=dict(self.hits_by_kind),
                          misses_by_kind=dict(self.misses_by_kind))

    def summary(self) -> str:
        """One line for CLI output / CI step summaries."""
        kinds = ", ".join(
            f"{k}: {self.hits_by_kind.get(k, 0)}h/{m}m"
            for k, m in sorted(self.misses_by_kind.items())) or "empty"
        return (f"artifact cache: {self.hits} hits / {self.misses} misses "
                f"(hit rate {100.0 * self.hit_rate:.1f}%), "
                f"{self.evictions} evicted [{kinds}]")


class ArtifactCache:
    """LRU-bounded, thread-safe map from artifact keys to built artifacts.

    Parameters
    ----------
    maxsize:
        Maximum number of stored artifacts; least-recently-used entries
        are evicted past it.  ``0`` stores nothing (every lookup is a
        miss) while still counting, which keeps the counters meaningful
        in pathological configurations.
    enabled:
        When ``False``, :meth:`get_or_compute` calls the builder
        directly without touching storage *or counters* — the escape
        hatch for callers that must never observe shared artifacts.

    Notes
    -----
    Keys are ``(kind, fingerprint, *params)`` where *fingerprint* comes
    from :mod:`repro.perf.fingerprint`; by convention the fingerprint is
    always the element right after *kind*, which is what
    :meth:`invalidate_matrix` matches on.  Builders run outside the
    lock, so two threads racing on the same missing key may both build;
    the second store wins and the artifact is identical by construction
    (builders are deterministic functions of the key).  Only successful
    builds are stored — a builder that raises leaves no entry behind.
    """

    def __init__(self, maxsize: int = 256, *, enabled: bool = True):
        if maxsize < 0:
            raise ValueError("maxsize must be non-negative")
        self.maxsize = int(maxsize)
        self.enabled = bool(enabled)
        self._store: OrderedDict = OrderedDict()
        self._lock = threading.RLock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, full_key) -> bool:
        return full_key in self._store

    # ------------------------------------------------------------------
    def _count(self, table: dict, kind: str) -> None:
        table[kind] = table.get(kind, 0) + 1

    def get_or_compute(self, kind: str, key: Hashable,
                       build: Callable[[], T]) -> T:
        """Return the cached artifact for ``(kind, *key)`` or build it.

        *key* must be a tuple starting with the matrix fingerprint; the
        remaining elements are the build parameters.
        """
        if not self.enabled:
            return build()
        full_key = (kind,) + tuple(key)
        rec = get_recorder()
        with self._lock:
            if full_key in self._store:
                self._store.move_to_end(full_key)
                self.stats.hits += 1
                self._count(self.stats.hits_by_kind, kind)
                value = self._store[full_key]
                hit = True
            else:
                self.stats.misses += 1
                self._count(self.stats.misses_by_kind, kind)
                hit = False
        # Trace emission stays outside the cache lock (the recorder has
        # its own) and behind the enabled guard — zero-cost when off.
        if rec.enabled:
            rec.emit("cache_hit" if hit else "cache_miss", kind=kind)
        if hit:
            return value
        value = build()
        with self._lock:
            if self.maxsize > 0:
                self._store[full_key] = value
                self._store.move_to_end(full_key)
                while len(self._store) > self.maxsize:
                    self._store.popitem(last=False)
                    self.stats.evictions += 1
        return value

    # ------------------------------------------------------------------
    def invalidate_matrix(self, fingerprint: str) -> int:
        """Drop every artifact whose key names *fingerprint*.

        Returns the number of entries removed.  Accepts either a
        structure or a full-content fingerprint (both occupy the same
        key slot).
        """
        with self._lock:
            doomed = [k for k in self._store
                      if len(k) > 1 and k[1] == fingerprint]
            for k in doomed:
                del self._store[k]
            self.stats.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        """Drop every artifact (counters are kept; see ``reset_stats``)."""
        with self._lock:
            self.stats.invalidations += len(self._store)
            self._store.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self.stats = CacheStats()


# ----------------------------------------------------------------------
# Process-wide default cache.
# ----------------------------------------------------------------------

def _cache_from_env() -> ArtifactCache:
    enabled = os.environ.get("REPRO_CACHE", "1") != "0"
    try:
        maxsize = int(os.environ.get("REPRO_CACHE_SIZE", "256"))
    except ValueError:
        maxsize = 256
    return ArtifactCache(maxsize=maxsize, enabled=enabled)


_default_cache: ArtifactCache = _cache_from_env()
_default_lock = threading.Lock()


def get_cache() -> ArtifactCache:
    """The process-wide default artifact cache."""
    return _default_cache


def set_cache(cache: ArtifactCache) -> ArtifactCache:
    """Replace the default cache; returns the previous one."""
    global _default_cache
    with _default_lock:
        old = _default_cache
        _default_cache = cache
        return old


@contextmanager
def use_cache(cache: ArtifactCache):
    """Temporarily install *cache* as the default (tests lean on this)."""
    old = set_cache(cache)
    try:
        yield cache
    finally:
        set_cache(old)


def cache_stats() -> CacheStats:
    """Live counters of the default cache."""
    return _default_cache.stats


# ----------------------------------------------------------------------
# Cached wrappers for the pattern-only inspector artifacts.
# ----------------------------------------------------------------------

def cached_level_schedule(tri, *, kind: str = "lower",
                          cache: ArtifactCache | None = None):
    """Level schedule of *tri*, memoized by structure fingerprint.

    Drop-in for :func:`repro.graph.levels.level_schedule`; the schedule
    depends only on the sparsity pattern, so numeric re-factorizations
    of an unchanged pattern (e.g. time stepping, pivot-boost retries)
    reuse the inspector result.
    """
    from ..graph.levels import level_schedule

    c = cache if cache is not None else get_cache()
    key = (structure_fingerprint(tri), kind)
    return c.get_or_compute("level_schedule", key,
                            lambda: level_schedule(tri, kind=kind))


def cached_lower_schedule(a, *, cache: ArtifactCache | None = None):
    """Level schedule of ``tril(a)``, memoized by *a*'s own structure
    fingerprint.

    The lower triangle's schedule depends only on *a*'s pattern, so
    the key hashes *a*, whose fingerprint the matrix keeps: Algorithm 2
    counting the wavefronts of ``tril(Â)`` and the ILU plan of ``Â``
    reusing that schedule read one memoized digest of ``Â``, which the
    preconditioner key needs anyway, instead of each hashing a
    triangle of its own.  The triangle is extracted only on a miss.
    """
    from ..graph.levels import level_schedule
    from ..sparse.ops import extract_lower

    c = cache if cache is not None else get_cache()
    key = (structure_fingerprint(a), "tril")
    return c.get_or_compute(
        "level_schedule", key,
        lambda: level_schedule(extract_lower(a), kind="lower"))
