import tracemalloc

import numpy as np
import pytest

from voxid import gmm as gmm_module
from voxid.errors import DimensionMismatch, NegativeRelevance
from voxid.features import FeatureMatrix
from voxid.gmm import (
    DiagonalGmm,
    GmmTrainingConfig,
    em_fit,
    frame_responsibilities,
    responsibilities,
)
from voxid.speaker_models import (
    BaumWelchStats,
    Ubm,
    accumulate_stats,
    build_supervector,
    map_adapt,
    pool_features,
    train_ubm,
    variance_supervector,
)


def simple_ubm(components=2, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.2, 1.0, components)
    weights /= weights.sum()
    return Ubm(gmm=DiagonalGmm(
        weights=weights,
        means=rng.normal(0, 4, (components, dim)),
        variances=rng.uniform(0.5, 1.5, (components, dim)),
    ))


class TestTrainUbm:
    def test_single_utterance_matches_em_fit(self):
        rng = np.random.default_rng(1)
        feats = FeatureMatrix(rng.normal(0, 1, (200, 2)))
        config = GmmTrainingConfig(num_components=2, rng_seed=0)
        ubm = train_ubm([feats], config)
        direct = em_fit(feats, config)
        assert np.array_equal(ubm.gmm.means, direct.means)

    def test_single_utterance_is_fitted_without_a_copy(self):
        feats = FeatureMatrix(np.random.default_rng(5).normal(0, 1, (40_000, 20)))
        config = GmmTrainingConfig(num_components=8, max_iterations=1, rng_seed=0)
        assert pool_features([feats]) is feats
        peaks = []
        for fit in (lambda: em_fit(feats, config), lambda: train_ubm([feats], config)):
            tracemalloc.start()
            try:
                fit()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a pooled copy of the frames would be held through the whole fit
        assert peaks[1] - peaks[0] < feats.frames.nbytes / 2

    def test_mapping_order_insensitive(self):
        rng = np.random.default_rng(2)
        utts = {f"utt{i}": FeatureMatrix(rng.normal(0, 1, (80, 2))) for i in range(4)}
        config = GmmTrainingConfig(num_components=2, rng_seed=0)
        a = train_ubm(utts, config)
        reversed_map = dict(reversed(list(utts.items())))
        b = train_ubm(reversed_map, config)
        assert np.array_equal(a.gmm.means, b.gmm.means)

    def test_two_cluster_recovery(self):
        rng = np.random.default_rng(3)
        low = rng.normal(-6, 1, (500, 1))
        high = rng.normal(6, 1, (500, 1))
        config = GmmTrainingConfig(num_components=2, rng_seed=0)
        ubm = train_ubm([FeatureMatrix(low), FeatureMatrix(high)], config)
        means = np.sort(ubm.gmm.means[:, 0])
        assert abs(means[0] + 6) < 0.3 and abs(means[1] - 6) < 0.3

    def test_mixed_dimensions_rejected(self):
        rng = np.random.default_rng(4)
        mixed = [FeatureMatrix(rng.normal(0, 1, (50, k))) for k in (13, 12)]
        with pytest.raises(DimensionMismatch, match="differ"):
            train_ubm(mixed, GmmTrainingConfig(num_components=2))
        with pytest.raises(DimensionMismatch, match="differ"):
            pool_features(dict(zip("ab", mixed)))

    def test_pool_keeps_sequence_order(self):
        parts = [FeatureMatrix(np.full((i + 1, 2), float(i))) for i in range(3)]
        assert np.array_equal(pool_features(parts).frames,
                              np.vstack([p.frames for p in parts]))
        with pytest.raises(DimensionMismatch):
            pool_features([])


class TestAccumulateStats:
    def test_single_frame_mass(self):
        ubm = simple_ubm()
        feats = FeatureMatrix(np.array([[0.1, -0.2]]))
        stats = accumulate_stats(feats, ubm)
        assert abs(stats.zeroth.sum() - 1.0) < 1e-12

    def test_total_mass_equals_frame_count(self):
        rng = np.random.default_rng(4)
        ubm = simple_ubm()
        feats = FeatureMatrix(rng.normal(0, 2, (150, 2)))
        stats = accumulate_stats(feats, ubm)
        assert abs(stats.zeroth.sum() - 150.0) < 1e-8

    def test_frame_in_component_basin(self):
        ubm = Ubm(gmm=DiagonalGmm(
            weights=[0.5, 0.5], means=[[-10.0], [10.0]], variances=[[1.0], [1.0]]
        ))
        x = np.array([[10.0]])
        stats = accumulate_stats(FeatureMatrix(x), ubm)
        gamma = responsibilities(x[0], ubm.gmm)
        assert stats.zeroth[1] == pytest.approx(gamma[1], abs=1e-12)
        assert stats.zeroth[1] > 0.999
        assert stats.first[1, 0] == pytest.approx(10.0, rel=1e-6)

    # L below BLOCK, a multiple of it, and neither
    @pytest.mark.parametrize("block, frames_l", [
        (1, 20), (7, 5), (7, 21), (7, 23), (2048, 300), (2048, 4096), (2048, 2100)])
    def test_blocked_sums_match_one_dense_pass(self, monkeypatch, block, frames_l):
        ubm = simple_ubm(components=5, dim=3, seed=6)
        frames = np.random.default_rng(7).normal(0, 3, (frames_l, 3))
        gamma = frame_responsibilities(frames, ubm.gmm)
        monkeypatch.setattr(gmm_module, "BLOCK", block)
        stats = accumulate_stats(FeatureMatrix(frames), ubm)
        for ours, dense in ((stats.zeroth, gamma.sum(axis=0)), (stats.first, gamma.T @ frames)):
            assert np.abs(ours - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_additivity_under_concatenation(self):
        # floating-point summation order makes bitwise equality unattainable;
        # agreement is asserted to a few ulps instead
        rng = np.random.default_rng(5)
        ubm = simple_ubm()
        a = FeatureMatrix(rng.normal(0, 2, (60, 2)))
        b = FeatureMatrix(rng.normal(0, 2, (40, 2)))
        merged = accumulate_stats(pool_features([a, b]), ubm)
        summed = accumulate_stats(a, ubm) + accumulate_stats(b, ubm)
        np.testing.assert_allclose(merged.zeroth, summed.zeroth, rtol=1e-13)
        np.testing.assert_allclose(merged.first, summed.first, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("count", [-1.0, np.nan, np.inf])
    def test_invalid_counts_rejected(self, count):
        with pytest.raises(DimensionMismatch):
            BaumWelchStats(np.array([1.0, count]), np.ones((2, 2)))


class TestMapAdapt:
    def test_zero_stats_keeps_ubm_means(self):
        ubm = simple_ubm()
        stats = BaumWelchStats(np.zeros(2), np.zeros((2, 2)))
        model = map_adapt(stats, ubm, relevance=16.0)
        assert np.array_equal(model.gmm.means, ubm.gmm.means)

    def test_zero_relevance_gives_ml_means(self):
        ubm = simple_ubm()
        n = np.array([4.0, 9.0])
        f = np.array([[1.0, 2.0], [3.0, -6.0]])
        model = map_adapt(BaumWelchStats(n, f), ubm, relevance=0.0)
        assert np.array_equal(model.gmm.means, f / n[:, None])

    def test_count_equal_relevance_is_midpoint(self):
        ubm = simple_ubm()
        r = 16.0
        n = np.full(2, r)
        f = np.array([[8.0, -4.0], [2.0, 6.0]]) * r
        model = map_adapt(BaumWelchStats(n, f), ubm, relevance=r)
        midpoint = (f / n[:, None] + ubm.gmm.means) / 2.0
        assert np.array_equal(model.gmm.means, midpoint)

    def test_weights_variances_frozen(self):
        rng = np.random.default_rng(6)
        ubm = simple_ubm()
        feats = FeatureMatrix(rng.normal(0, 2, (100, 2)))
        model = map_adapt(accumulate_stats(feats, ubm), ubm)
        assert np.array_equal(model.gmm.weights, ubm.gmm.weights)
        assert np.array_equal(model.gmm.variances, ubm.gmm.variances)

    def test_shrinkage_segment_property(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            ubm = simple_ubm(seed=rng.integers(1 << 30))
            n = rng.uniform(0.1, 50.0, 2)
            f = rng.normal(0, 5, (2, 2)) * n[:, None]
            r = rng.uniform(0.0, 40.0)
            model = map_adapt(BaumWelchStats(n, f), ubm, relevance=r)
            ml = f / n[:, None]
            lo = np.minimum(ml, ubm.gmm.means) - 1e-12
            hi = np.maximum(ml, ubm.gmm.means) + 1e-12
            assert np.all(model.gmm.means >= lo) and np.all(model.gmm.means <= hi)

    def test_scaling_stats_moves_toward_ml(self):
        ubm = simple_ubm()
        n = np.array([2.0, 3.0])
        f = np.array([[4.0, 1.0], [-3.0, 9.0]])
        a = map_adapt(BaumWelchStats(n, f), ubm, relevance=16.0)
        b = map_adapt(BaumWelchStats(3 * n, 3 * f), ubm, relevance=16.0)
        ml = f / n[:, None]
        assert np.all(np.abs(b.gmm.means - ml) < np.abs(a.gmm.means - ml))

    def test_negative_relevance(self):
        ubm = simple_ubm()
        stats = BaumWelchStats(np.ones(2), np.ones((2, 2)))
        with pytest.raises(NegativeRelevance):
            map_adapt(stats, ubm, relevance=-1.0)

    def test_nan_relevance(self):
        stats = BaumWelchStats(np.ones(2), np.ones((2, 2)))
        with pytest.raises(NegativeRelevance):
            map_adapt(stats, simple_ubm(), relevance=float("nan"))

    def test_infinite_relevance(self):
        # alpha = 0 would register a speaker whose means are the UBM's
        stats = BaumWelchStats(np.ones(2), np.ones((2, 2)))
        with pytest.raises(NegativeRelevance):
            map_adapt(stats, simple_ubm(), relevance=float("inf"))

    def test_wrong_shape(self):
        ubm = simple_ubm()
        with pytest.raises(DimensionMismatch):
            map_adapt(BaumWelchStats(np.ones(3), np.ones((3, 2))), ubm)


class TestSupervector:
    def test_concatenation_order(self):
        gmm = DiagonalGmm(
            weights=[0.5, 0.5],
            means=[[1.0, 2.0], [3.0, 4.0]],
            variances=[[1.0, 1.0], [1.0, 1.0]],
        )
        sv = build_supervector(Ubm(gmm=gmm))
        assert np.array_equal(sv, [1.0, 2.0, 3.0, 4.0])

    def test_length(self):
        rng = np.random.default_rng(8)
        ubm = simple_ubm(components=16, dim=13)
        assert build_supervector(ubm).size == 16 * 13

    def test_variance_layout_matches(self):
        ubm = simple_ubm(components=3, dim=4)
        sigma = variance_supervector(ubm)
        assert np.array_equal(sigma, ubm.gmm.variances.reshape(-1))
