"""Tests for repro.util — segmented sums, statistics, histograms."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.util import (gmean, histogram_fixed, pearson, rankdata,
                        segment_starts_to_lengths, segment_sum, spearman)

scipy_stats = pytest.importorskip("scipy.stats")


class TestSegmentSum:
    def test_basic(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        out = segment_sum(v, np.array([0, 2]), np.array([2, 4]))
        np.testing.assert_allclose(out, [3.0, 7.0])

    def test_empty_segments_yield_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        out = segment_sum(v, np.array([0, 1, 1, 3]), np.array([1, 1, 3, 3]))
        np.testing.assert_allclose(out, [1.0, 0.0, 5.0, 0.0])

    def test_reduceat_bug_absent(self):
        # np.add.reduceat returns v[i] for empty segments; we must not.
        v = np.array([10.0, 20.0])
        out = segment_sum(v, np.array([1, 1]), np.array([1, 2]))
        np.testing.assert_allclose(out, [0.0, 20.0])

    def test_whole_array(self):
        v = np.arange(100, dtype=np.float64)
        out = segment_sum(v, np.array([0]), np.array([100]))
        assert out[0] == pytest.approx(v.sum())

    def test_row_sum_independent_of_earlier_rows(self):
        # A difference of one global prefix sum gives 3.0000000262e-9
        # for the second row: the first row's 1e8 rounding leaks in.
        v = np.array([1e8, -1e8 + 1, 1e-9, 2e-9])
        out = segment_sum(v, np.array([0, 2]), np.array([2, 4]))
        assert out[0] == 1.0
        assert out[1] == 1e-9 + 2e-9

    def test_float32_accumulates_in_float64(self):
        # In float32, 1 - 1e8 rounds to -1e8 (the spacing there is 8),
        # so a float32 accumulator returns 0; float64 keeps the 1.
        v = np.array([1e8, 1.0, -1e8], dtype=np.float32)
        out = segment_sum(v, np.array([0]), np.array([3]))
        assert out.dtype == np.float32
        assert out[0] == 1.0

    def test_float32_preserved(self):
        v = np.ones(5, dtype=np.float32)
        out = segment_sum(v, np.array([0]), np.array([5]))
        assert out.dtype == np.float32

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            segment_sum(np.ones(3), np.array([0, 1]), np.array([1]))

    def test_output_param(self):
        v = np.ones(4)
        out = np.empty(2)
        res = segment_sum(v, np.array([0, 2]), np.array([2, 4]), out=out)
        assert res is out
        np.testing.assert_allclose(out, [2.0, 2.0])

    def test_matches_manual_random(self, make_rng):
        rng = make_rng(0)
        v = rng.standard_normal(200)
        bounds = np.sort(rng.integers(0, 200, size=21))
        starts, ends = bounds[:-1], bounds[1:]
        expect = np.array([v[s:e].sum() for s, e in zip(starts, ends)])
        np.testing.assert_allclose(segment_sum(v, starts, ends), expect,
                                   atol=1e-12)

    def test_2d_block_basic(self):
        v = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]])
        out = segment_sum(v, np.array([0, 2]), np.array([2, 4]))
        np.testing.assert_allclose(out, [[3.0, 30.0], [7.0, 70.0]])

    def test_2d_columns_bitwise_match_1d(self, make_rng):
        # The batched triangular sweep's contract: each column of the
        # block result equals the 1-D call on that column exactly.
        rng = make_rng(2)
        v = rng.standard_normal((150, 4))
        bounds = np.sort(rng.integers(0, 150, size=13))
        starts, ends = bounds[:-1], bounds[1:]
        block = segment_sum(v, starts, ends)
        for j in range(4):
            np.testing.assert_array_equal(
                block[:, j], segment_sum(v[:, j].copy(), starts, ends))

    def test_2d_empty_segments_and_out(self):
        v = np.ones((3, 2))
        out = np.empty((2, 2))
        res = segment_sum(v, np.array([0, 3]), np.array([3, 3]), out=out)
        assert res is out
        np.testing.assert_allclose(out, [[3.0, 3.0], [0.0, 0.0]])

    def test_3d_rejected(self):
        with pytest.raises(ShapeError):
            segment_sum(np.ones((2, 2, 2)), np.array([0]), np.array([2]))


class TestSegmentStartsToLengths:
    def test_roundtrip(self):
        indptr = np.array([0, 2, 2, 5])
        np.testing.assert_array_equal(
            segment_starts_to_lengths(indptr, 5), [2, 0, 3])

    def test_bad_total(self):
        with pytest.raises(ShapeError):
            segment_starts_to_lengths(np.array([0, 2]), 3)


class TestGmean:
    def test_known(self):
        assert gmean([1.0, 4.0]) == pytest.approx(2.0)

    def test_matches_scipy(self, make_rng):
        rng = make_rng(1)
        x = rng.random(50) + 0.1
        assert gmean(x) == pytest.approx(scipy_stats.gmean(x))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gmean([1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gmean([])


class TestRankStatistics:
    def test_rankdata_matches_scipy(self, make_rng):
        rng = make_rng(2)
        x = rng.integers(0, 10, size=100).astype(float)  # many ties
        np.testing.assert_allclose(rankdata(x), scipy_stats.rankdata(x))

    def test_spearman_matches_scipy(self, make_rng):
        rng = make_rng(3)
        x = rng.standard_normal(80)
        y = 0.5 * x + rng.standard_normal(80)
        expect = scipy_stats.spearmanr(x, y).statistic
        assert spearman(x, y) == pytest.approx(expect)

    def test_spearman_with_ties_matches_scipy(self, make_rng):
        rng = make_rng(4)
        x = rng.integers(0, 5, size=60).astype(float)
        y = rng.integers(0, 5, size=60).astype(float)
        expect = scipy_stats.spearmanr(x, y).statistic
        assert spearman(x, y) == pytest.approx(expect)

    def test_perfect_monotone(self):
        x = np.arange(10, dtype=float)
        assert spearman(x, x ** 3) == pytest.approx(1.0)
        assert spearman(x, -x) == pytest.approx(-1.0)

    def test_pearson_constant_input(self):
        assert pearson(np.ones(5), np.arange(5.0)) == 0.0

    def test_spearman_requires_two_points(self):
        with pytest.raises(ValueError):
            spearman(np.array([1.0]), np.array([2.0]))


class TestHistogramFixed:
    def test_percent_sums_to_100(self, make_rng):
        rng = make_rng(5)
        _, percent = histogram_fixed(rng.random(1000) * 5, 0.0, 5.0, 0.25)
        assert percent.sum() == pytest.approx(100.0)

    def test_outliers_clamped(self):
        _, percent = histogram_fixed(np.array([-3.0, 99.0]), 0.0, 5.0, 1.0)
        assert percent[0] == pytest.approx(50.0)
        assert percent[-1] == pytest.approx(50.0)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            histogram_fixed(np.ones(3), 5.0, 0.0, 0.25)

    def test_non_integral_width_covers_hi(self, make_rng):
        # (hi - lo) / width non-integral: the last arange edge lands
        # below hi, so values near hi used to fall outside every bin and
        # the percentages summed short of 100.
        rng = make_rng(6)
        values = rng.random(500) * 5.0
        # (5 - 0) / 0.8 = 6.25: arange's last edge is 4.8, leaving
        # [4.8, 5.0] uncovered before the fix.
        edges, percent = histogram_fixed(values, 0.0, 5.0, 0.8)
        assert edges[-1] == pytest.approx(5.0)
        assert percent.sum() == pytest.approx(100.0)

    def test_non_integral_width_outlier_clamped_into_last_bin(self):
        _, percent = histogram_fixed(np.array([4.9, 99.0]), 0.0, 5.0, 0.8)
        assert percent.sum() == pytest.approx(100.0)
        assert percent[-1] == pytest.approx(100.0)

    def test_width_larger_than_range(self):
        _, percent = histogram_fixed(np.array([0.5, 1.5]), 0.0, 2.0, 10.0)
        assert percent.sum() == pytest.approx(100.0)
