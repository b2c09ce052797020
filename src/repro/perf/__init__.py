"""Performance layer: artifact caching and vectorized hot paths.

See :mod:`repro.perf.cache` (the solver-artifact cache),
:mod:`repro.perf.fingerprint` (content-addressed keys) and
:mod:`repro.perf.vectorized` (wavefront-batched numeric kernels).
"""

from .cache import (ArtifactCache, CacheStats, cache_stats,
                    cached_level_schedule, get_cache, set_cache, use_cache)
from .fingerprint import matrix_fingerprint, structure_fingerprint
from .vectorized import FactorPlan, build_factor_plan, ilu_numeric_vectorized

__all__ = [
    "ArtifactCache", "CacheStats", "cache_stats", "cached_level_schedule",
    "get_cache", "set_cache", "use_cache",
    "matrix_fingerprint", "structure_fingerprint",
    "FactorPlan", "build_factor_plan", "ilu_numeric_vectorized",
]
