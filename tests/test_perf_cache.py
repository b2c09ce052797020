"""Tests for repro.perf — fingerprints and the solver-artifact cache."""

import threading

import numpy as np
import pytest

from conftest import run_interleaved
from repro.core import make_preconditioner, sparsify_magnitude, spcg
from repro.perf import (ArtifactCache, cache_stats, cached_level_schedule,
                        get_cache, matrix_fingerprint, structure_fingerprint,
                        use_cache)
from repro.sparse import CSRMatrix, random_spd


class TestFingerprints:
    def test_deterministic_across_copies(self, poisson16):
        b = CSRMatrix(poisson16.indptr.copy(), poisson16.indices.copy(),
                      poisson16.data.copy(), poisson16.shape)
        assert structure_fingerprint(poisson16) == structure_fingerprint(b)
        assert matrix_fingerprint(poisson16) == matrix_fingerprint(b)

    def test_structure_ignores_values(self, poisson16):
        b = CSRMatrix(poisson16.indptr, poisson16.indices,
                      poisson16.data * 2.0, poisson16.shape)
        assert structure_fingerprint(poisson16) == structure_fingerprint(b)
        assert matrix_fingerprint(poisson16) != matrix_fingerprint(b)

    def test_single_value_change_detected(self, spd_random):
        data = spd_random.data.copy()
        data[7] += 1e-9
        b = CSRMatrix(spd_random.indptr, spd_random.indices, data,
                      spd_random.shape)
        assert matrix_fingerprint(spd_random) != matrix_fingerprint(b)

    def test_dtype_part_of_identity(self, poisson16):
        b = CSRMatrix(poisson16.indptr, poisson16.indices,
                      poisson16.data.astype(np.float32), poisson16.shape)
        assert matrix_fingerprint(poisson16) != matrix_fingerprint(b)

    def test_shape_disambiguates(self):
        # Same arrays, different logical width must not collide.
        indptr = np.array([0, 1], dtype=np.int64)
        idx = np.array([0], dtype=np.int64)
        val = np.array([1.0])
        a = CSRMatrix(indptr, idx, val, (1, 2))
        b = CSRMatrix(indptr, idx, val, (1, 3))
        assert structure_fingerprint(a) != structure_fingerprint(b)


class TestArtifactCache:
    def test_hit_miss_counting(self):
        c = ArtifactCache()
        calls = []
        for _ in range(3):
            c.get_or_compute("kind", ("fp",), lambda: calls.append(1) or 42)
        assert len(calls) == 1
        assert c.stats.misses == 1 and c.stats.hits == 2
        assert c.stats.hits_by_kind == {"kind": 2}
        assert c.stats.hit_rate == pytest.approx(2 / 3)

    def test_distinct_params_distinct_entries(self):
        c = ArtifactCache()
        a = c.get_or_compute("k", ("fp", 1), lambda: "one")
        b = c.get_or_compute("k", ("fp", 2), lambda: "two")
        assert (a, b) == ("one", "two") and len(c) == 2

    def test_lru_eviction(self):
        c = ArtifactCache(maxsize=2)
        c.get_or_compute("k", ("a",), lambda: 1)
        c.get_or_compute("k", ("b",), lambda: 2)
        c.get_or_compute("k", ("a",), lambda: 1)   # refresh "a"
        c.get_or_compute("k", ("c",), lambda: 3)   # evicts "b"
        assert c.stats.evictions == 1
        assert ("k", "a") in c and ("k", "c") in c
        assert ("k", "b") not in c

    def test_maxsize_zero_stores_nothing_but_counts(self):
        c = ArtifactCache(maxsize=0)
        for _ in range(2):
            c.get_or_compute("k", ("a",), lambda: 1)
        assert len(c) == 0 and c.stats.misses == 2

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError):
            ArtifactCache(maxsize=-1)

    def test_disabled_bypasses_counters(self):
        c = ArtifactCache(enabled=False)
        assert c.get_or_compute("k", ("a",), lambda: 9) == 9
        assert len(c) == 0 and c.stats.lookups == 0

    def test_failed_build_not_stored(self):
        c = ArtifactCache()

        def boom():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            c.get_or_compute("k", ("a",), boom)
        assert len(c) == 0 and c.stats.misses == 1
        # A later successful build under the same key works.
        assert c.get_or_compute("k", ("a",), lambda: 5) == 5

    def test_invalidate_matrix(self):
        c = ArtifactCache()
        c.get_or_compute("sched", ("fp1", "lower"), lambda: 1)
        c.get_or_compute("solver", ("fp1", "lower", False), lambda: 2)
        c.get_or_compute("sched", ("fp2", "lower"), lambda: 3)
        assert c.invalidate_matrix("fp1") == 2
        assert len(c) == 1 and c.stats.invalidations == 2

    def test_clear_and_reset(self):
        c = ArtifactCache()
        c.get_or_compute("k", ("a",), lambda: 1)
        c.clear()
        assert len(c) == 0
        c.reset_stats()
        assert c.stats.lookups == 0

    def test_snapshot_is_frozen_copy(self):
        c = ArtifactCache()
        c.get_or_compute("k", ("a",), lambda: 1)
        snap = c.stats.snapshot()
        c.get_or_compute("k", ("a",), lambda: 1)
        assert snap.hits == 0 and c.stats.hits == 1

    def test_summary_mentions_kinds(self):
        c = ArtifactCache()
        c.get_or_compute("level_schedule", ("fp",), lambda: 1)
        assert "level_schedule" in c.stats.summary()
        assert "hit rate" in c.stats.summary()

    def test_thread_safety_single_entry(self):
        c = ArtifactCache()
        results = []

        def worker():
            results.append(c.get_or_compute("k", ("fp",), lambda: object()))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # All callers observe a value and the stored entry is one object.
        assert len(results) == 8
        assert c.stats.lookups == 8 and len(c) == 1

    def test_thread_safety_under_eviction(self):
        # Four threads cycle twelve keys through a four-entry cache: every
        # lookup is counted once and returns its key's artifact, and the
        # bound holds.  Racing misses may both store one key, so entries
        # made (held plus evicted) never exceed the misses.
        c = ArtifactCache(maxsize=4)
        keys = [f"fp{i}" for i in range(12)]
        wrong = []

        def worker(t):
            for r in range(60):
                fp = keys[(5 * t + r) % len(keys)]
                got = c.get_or_compute("k", (fp, 1), lambda: fp.upper())
                if got != fp.upper():
                    wrong.append((fp, got))

        for _ in range(10):
            run_interleaved(worker, 4)
        assert wrong == []
        assert c.stats.lookups == 2400
        assert len(c) <= 4
        assert len(c) + c.stats.evictions <= c.stats.misses
        assert c.stats.misses >= len(keys)


class TestDefaultCachePlumbing:
    def test_use_cache_installs_and_restores(self):
        prev = get_cache()
        mine = ArtifactCache()
        with use_cache(mine):
            assert get_cache() is mine
        assert get_cache() is prev

    def test_cache_stats_reads_default(self):
        with use_cache(ArtifactCache()) as c:
            c.get_or_compute("k", ("a",), lambda: 1)
            assert cache_stats() is c.stats


class TestCachedWrappers:
    def test_level_schedule_cached_and_equal(self, fig1_lower):
        c = get_cache()
        s1 = cached_level_schedule(fig1_lower, kind="lower")
        s2 = cached_level_schedule(fig1_lower, kind="lower")
        assert s1 is s2
        assert c.stats.misses_by_kind.get("level_schedule") == 1
        from repro.graph import level_schedule

        np.testing.assert_array_equal(
            s1.level_of, level_schedule(fig1_lower, kind="lower").level_of)


class TestMakePreconditionerCaching:
    def test_identical_inputs_share_preconditioner(self, spd_random):
        m1 = make_preconditioner(spd_random, "ilu0")
        m2 = make_preconditioner(spd_random, "ilu0")
        assert m1 is m2
        assert get_cache().stats.misses_by_kind["preconditioner"] == 1

    def test_param_changes_rebuild(self, spd_random):
        make_preconditioner(spd_random, "ilu0")
        make_preconditioner(spd_random, "ilu0", pivot_boost=1e-6)
        make_preconditioner(spd_random, "iluk", k=2)
        assert get_cache().stats.misses_by_kind["preconditioner"] == 3

    def test_cache_false_bypasses(self, spd_random):
        m1 = make_preconditioner(spd_random, "ilu0", cache=False)
        m2 = make_preconditioner(spd_random, "ilu0", cache=False)
        assert m1 is not m2
        assert "preconditioner" not in get_cache().stats.misses_by_kind

    def test_explicit_cache_instance(self, spd_random):
        mine = ArtifactCache()
        make_preconditioner(spd_random, "ilu0", cache=mine)
        make_preconditioner(spd_random, "ilu0", cache=mine)
        assert mine.stats.hits_by_kind["preconditioner"] == 1
        assert "preconditioner" not in get_cache().stats.misses_by_kind

    def test_unknown_kind_raises_before_caching(self, spd_random):
        with pytest.raises(ValueError):
            make_preconditioner(spd_random, "nope")
        assert get_cache().stats.lookups == 0

    def test_grid_over_three_ratios_three_factorizations(self):
        """Acceptance criterion: 3 ratios, repeated sweeps, 3 builds."""
        a = random_spd(120, density=0.05, seed=3)
        hats = [sparsify_magnitude(a, t).a_hat for t in (10.0, 5.0, 1.0)]
        # Guard: the three sparsifications genuinely differ.
        assert len({h.nnz for h in hats}) == 3
        for _ in range(3):  # three full passes over the grid
            for h in hats:
                make_preconditioner(h, "ilu0")
        stats = get_cache().stats
        assert stats.misses_by_kind["preconditioner"] == 3
        assert stats.hits_by_kind["preconditioner"] == 6

    def test_spcg_reuses_cached_preconditioner(self, spd_random, rng):
        b = rng.standard_normal(spd_random.n_rows)
        r1 = spcg(spd_random, b)
        r2 = spcg(spd_random, b)
        assert r1.converged and r2.converged
        assert r2.preconditioner is r1.preconditioner
        np.testing.assert_array_equal(r1.x, r2.x)

    def test_robust_spcg_through_cache(self, spd_random, rng):
        from repro.resilience import robust_spcg

        b = rng.standard_normal(spd_random.n_rows)
        rep1 = robust_spcg(spd_random, b)
        rep2 = robust_spcg(spd_random, b)
        assert rep1.converged and rep2.converged
        assert get_cache().stats.hits_by_kind.get("preconditioner", 0) >= 1
        np.testing.assert_array_equal(rep1.result.x, rep2.result.x)

    def test_robust_spcg_cache_false_bypasses(self, spd_random, rng):
        from repro.resilience import robust_spcg

        b = rng.standard_normal(spd_random.n_rows)
        rep = robust_spcg(spd_random, b, cache=False)
        assert rep.converged
        assert "preconditioner" not in get_cache().stats.misses_by_kind


class TestSpcgCacheParameter:
    def test_explicit_cache_instance_used(self, spd_random, rng):
        b = rng.standard_normal(spd_random.n_rows)
        mine = ArtifactCache()
        spcg(spd_random, b, cache=mine)
        spcg(spd_random, b, cache=mine)
        assert mine.stats.hits_by_kind.get("preconditioner", 0) >= 1
        assert "preconditioner" not in get_cache().stats.misses_by_kind

    def test_cache_false_bypasses(self, spd_random, rng):
        b = rng.standard_normal(spd_random.n_rows)
        r1 = spcg(spd_random, b, cache=False)
        r2 = spcg(spd_random, b, cache=False)
        assert r1.converged and r2.converged
        assert r1.preconditioner is not r2.preconditioner
        assert "preconditioner" not in get_cache().stats.misses_by_kind


class TestCachePoisoningRegression:
    """Regression for the cache-poisoning bug: ``spcg`` with an active
    fault plan used to factorize the *corrupted* Â under the process
    cache, so a later clean solve of the same system was served a
    poisoned preconditioner."""

    def _plan(self):
        # Mild multiplicative corruption: the faulted factorization
        # still completes, so the (pre-fix) poisoned factors would have
        # been stored rather than raising.
        from repro.resilience import FaultPlan, FaultSpec

        return FaultPlan(FaultSpec("corrupt_values", rungs=("spcg",),
                                   fraction=0.02, scale=2.0, seed=7))

    def test_faulted_solve_leaves_no_cache_entry(self, spd_random, rng):
        b = rng.standard_normal(spd_random.n_rows)
        spcg(spd_random, b, fault_plan=self._plan())
        stats = get_cache().stats
        assert "preconditioner" not in stats.misses_by_kind
        assert "preconditioner" not in stats.hits_by_kind

    def test_clean_solve_after_faulted_never_reuses(self, spd_random, rng):
        b = rng.standard_normal(spd_random.n_rows)
        faulted = spcg(spd_random, b, fault_plan=self._plan())
        clean = spcg(spd_random, b)
        assert clean.converged
        assert clean.preconditioner is not faulted.preconditioner
        # The clean solve did a fresh factorization — a cache miss, not
        # a hit on anything the faulted run left behind.
        stats = get_cache().stats
        assert stats.misses_by_kind.get("preconditioner", 0) >= 1
        assert stats.hits_by_kind.get("preconditioner", 0) == 0

    def test_inactive_plan_still_caches(self, spd_random, rng):
        # A plan scoped to other rungs never fires for "spcg":
        # corrupt_matrix returns Â unchanged, so caching stays on.
        from repro.resilience import FaultPlan, FaultSpec

        plan = FaultPlan(FaultSpec("zero_pivot", rungs=("dense",),
                                   rows=(0,)))
        b = rng.standard_normal(spd_random.n_rows)
        r1 = spcg(spd_random, b, fault_plan=plan)
        r2 = spcg(spd_random, b)
        assert r1.converged and r2.converged
        assert r2.preconditioner is r1.preconditioner


class TestEnvKnobs:
    def test_env_disable(self, monkeypatch):
        from repro.perf.cache import _cache_from_env

        monkeypatch.setenv("REPRO_CACHE", "0")
        assert not _cache_from_env().enabled

    def test_env_size(self, monkeypatch):
        from repro.perf.cache import _cache_from_env

        monkeypatch.setenv("REPRO_CACHE_SIZE", "7")
        assert _cache_from_env().maxsize == 7
        monkeypatch.setenv("REPRO_CACHE_SIZE", "junk")
        assert _cache_from_env().maxsize == 256
