import concurrent.futures
import multiprocessing
import pickle
import sys
import threading
import tracemalloc
import warnings
from copy import copy, deepcopy

import numpy as np
import pytest
from scipy.special import logsumexp

from voxid import gmm as gmm_module
from voxid.errors import DimensionMismatch, EmptyFeatureMatrix, TooFewFrames
from voxid.evaluation import RegistryEntry, SpeakerRegistry, Trial, identify
from voxid.experiment import sample_from_gmm
from voxid.features import FeatureMatrix
from voxid.gmm import (
    DiagonalGmm,
    GmmTrainingConfig,
    _kmeans_pp,
    _mixture_pass,
    component_log_density,
    em_fit,
    em_fit_detailed,
    frame_component_log_densities,
    frame_responsibilities,
    mixture_log_likelihood,
    responsibilities,
    sequence_log_likelihood,
    sequence_log_likelihoods,
)
from voxid.scoring import DecisionPolicy
from voxid.speaker_models import Ubm, accumulate_stats, map_adapt


def random_gmm(rng, components=3, dim=2):
    weights = rng.uniform(0.1, 1.0, components)
    weights /= weights.sum()
    return DiagonalGmm(
        weights=weights,
        means=rng.normal(0, 3, (components, dim)),
        variances=rng.uniform(0.2, 2.0, (components, dim)),
    )


def naive_mixture_ll(x, gmm):
    """Direct weighted-density summation in extended precision."""
    total = np.longdouble(0.0)
    for w, mu, var in zip(gmm.weights, gmm.means, gmm.variances):
        logd = component_log_density(x, mu, var)
        total += np.longdouble(w) * np.exp(np.longdouble(logd))
    return float(np.log(total))


def difference_form(frames, gmm):
    """(L, l, k) broadcast of the per-frame, per-component log densities."""
    diff = frames[:, None, :] - gmm.means[None, :, :]
    quad = np.sum(diff * diff / gmm.variances[None, :, :], axis=2)
    logdet = np.sum(np.log(gmm.variances), axis=1)
    return -0.5 * (gmm.dim_k * np.log(2.0 * np.pi) + logdet[None, :] + quad)


class TestDensities:
    def test_standard_normal_at_mode(self):
        value = component_log_density([0.0], [0.0], [1.0])
        assert value == pytest.approx(np.log(1 / np.sqrt(2 * np.pi)), abs=1e-12)
        assert value == pytest.approx(-0.9189385, abs=1e-7)

    def test_two_dim_at_mode(self):
        value = component_log_density([1.0, 2.0], [1.0, 2.0], [1.0, 1.0])
        assert value == pytest.approx(-np.log(2 * np.pi), abs=1e-12)

    def test_offset_by_hand(self):
        value = component_log_density([2.0], [0.0], [4.0])
        assert value == pytest.approx(-0.5 * (np.log(2 * np.pi) + np.log(4) + 1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            component_log_density([1.0, 2.0], [0.0], [1.0])


class TestMixture:
    def test_single_component_equals_density(self):
        gmm = DiagonalGmm(weights=[1.0], means=[[0.5]], variances=[[2.0]])
        x = np.array([1.3])
        assert mixture_log_likelihood(x, gmm) == pytest.approx(
            component_log_density(x, gmm.means[0], gmm.variances[0]), abs=1e-14
        )

    def test_identical_components_degenerate(self):
        gmm = DiagonalGmm(
            weights=[0.5, 0.5], means=[[1.0, -1.0]] * 2, variances=[[1.0, 1.0]] * 2
        )
        x = np.array([0.2, 0.4])
        single = component_log_density(x, gmm.means[0], gmm.variances[0])
        assert mixture_log_likelihood(x, gmm) == pytest.approx(single, abs=1e-12)

    def test_against_naive_summation(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            gmm = random_gmm(rng)
            x = rng.normal(0, 3, 2)
            ours = mixture_log_likelihood(x, gmm)
            oracle = naive_mixture_ll(x, gmm)
            assert abs(ours - oracle) / abs(oracle) < 1e-12

    def test_no_underflow_far_from_mass(self):
        gmm = DiagonalGmm(weights=[1.0], means=[[0.0]], variances=[[1.0]])
        # log-density around -5e5; exp would underflow without log-sum-exp
        value = mixture_log_likelihood([1000.0], gmm)
        assert np.isfinite(value) and value < -4.9e5

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        gmm = random_gmm(rng, components=4)
        perm = [2, 0, 3, 1]
        shuffled = DiagonalGmm(
            weights=gmm.weights[perm], means=gmm.means[perm], variances=gmm.variances[perm]
        )
        x = rng.normal(0, 2, 2)
        assert mixture_log_likelihood(x, gmm) == mixture_log_likelihood(x, shuffled)


class TestSequence:
    def test_one_frame(self):
        rng = np.random.default_rng(2)
        gmm = random_gmm(rng)
        frame = rng.normal(0, 1, 2)
        feats = FeatureMatrix(frame[None, :])
        assert sequence_log_likelihood(feats, gmm) == pytest.approx(
            mixture_log_likelihood(frame, gmm), abs=1e-12
        )

    def test_duplication_doubles(self):
        rng = np.random.default_rng(3)
        gmm = random_gmm(rng)
        frames = rng.normal(0, 1, (5, 2))
        one = sequence_log_likelihood(FeatureMatrix(frames), gmm)
        two = sequence_log_likelihood(FeatureMatrix(np.vstack([frames, frames])), gmm)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_matches_per_frame_sum(self):
        rng = np.random.default_rng(5)
        gmm = random_gmm(rng)
        frames = rng.normal(0, 1, (3, 2))
        total = sum(mixture_log_likelihood(f, gmm) for f in frames)
        assert sequence_log_likelihood(FeatureMatrix(frames), gmm) == pytest.approx(
            total, rel=1e-12
        )


class TestResponsibilities:
    def test_normalization(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            gmm = random_gmm(rng, components=5)
            gamma = responsibilities(rng.normal(0, 3, 2), gmm)
            assert abs(gamma.sum() - 1.0) < 1e-12
            assert np.all(gamma >= 0)

    def test_single_component(self):
        gmm = DiagonalGmm(weights=[1.0], means=[[0.0]], variances=[[1.0]])
        assert responsibilities([3.0], gmm) == pytest.approx([1.0])

    def test_well_separated(self):
        gmm = DiagonalGmm(
            weights=[0.5, 0.5], means=[[-10.0], [10.0]], variances=[[1.0], [1.0]]
        )
        gamma = responsibilities([-10.0], gmm)
        assert gamma[0] > 0.999


class TestEmFit:
    def test_single_gaussian_recovery(self):
        rng = np.random.default_rng(8)
        data = rng.normal(2.5, 1.0, (1000, 1))
        config = GmmTrainingConfig(num_components=1, rng_seed=0)
        model = em_fit(FeatureMatrix(data), config)
        stderr = 1.0 / np.sqrt(1000)
        assert abs(model.means[0, 0] - data.mean()) < 3 * stderr

    def test_planted_two_component_mixture(self):
        rng = np.random.default_rng(42)
        comp = rng.integers(0, 2, 4000)
        data = np.where(comp == 0, -5.0, 5.0) + rng.standard_normal(4000)
        config = GmmTrainingConfig(num_components=2, rng_seed=0)
        model = em_fit(FeatureMatrix(data[:, None]), config)
        means = np.sort(model.means[:, 0])
        assert abs(means[0] + 5.0) < 0.2 and abs(means[1] - 5.0) < 0.2
        assert np.all(np.abs(model.weights - 0.5) < 0.05)

    def test_determinism(self):
        rng = np.random.default_rng(9)
        feats = FeatureMatrix(rng.normal(0, 1, (300, 2)))
        config = GmmTrainingConfig(num_components=4, rng_seed=3)
        a = em_fit(feats, config)
        b = em_fit(feats, config)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.variances, b.variances)

    def test_monotone_log_likelihood(self):
        rng = np.random.default_rng(10)
        feats = FeatureMatrix(rng.normal(0, 1, (400, 2)) + rng.integers(0, 2, (400, 1)) * 4)
        config = GmmTrainingConfig(num_components=3, rng_seed=1)
        _, history = em_fit_detailed(feats, config)
        for prev, cur in zip(history, history[1:]):
            assert cur >= prev - 1e-8 * abs(prev)

    def test_too_few_frames(self):
        config = GmmTrainingConfig(num_components=8)
        with pytest.raises(TooFewFrames):
            em_fit(FeatureMatrix(np.zeros((4, 2))), config)

    def test_variance_floor_respected(self):
        # many repeated frames would otherwise drive variances to zero
        data = np.vstack([np.zeros((50, 1)), np.ones((50, 1))])
        config = GmmTrainingConfig(num_components=2, variance_floor=1e-3, rng_seed=0)
        model = em_fit(FeatureMatrix(data), config)
        assert np.all(model.variances >= 1e-3)


def test_density_integrates_to_one():
    # numerical quadrature of a 1-D component over +-8 sigma
    xs = np.linspace(-8, 8, 20001)
    dens = np.exp([component_log_density([x], [0.0], [1.0]) for x in xs])
    integral = np.trapezoid(dens, xs)
    assert abs(integral - 1.0) < 1e-6


def test_gmm_invariant_gates():
    with pytest.raises(DimensionMismatch):
        DiagonalGmm(weights=[0.6, 0.6], means=[[0.0], [1.0]], variances=[[1.0], [1.0]])
    with pytest.raises(DimensionMismatch):
        DiagonalGmm(weights=[1.0], means=[[0.0]], variances=[[0.0]])


class TestWithMeans:
    def test_shares_the_checked_weights_and_variances(self):
        base = random_gmm(np.random.default_rng(29), components=3, dim=2)
        means = [[0, 1], [2, 3], [4, 5]]
        moved = base.with_means(means)
        assert moved.weights is base.weights and moved.variances is base.variances
        assert moved.means.dtype == np.float64 and np.array_equal(moved.means, means)

    @pytest.mark.parametrize("means", [np.zeros((3, 3)), np.zeros((2, 2)), np.zeros(6),
                                       [[0.0, np.nan]] * 3, [[np.inf, 0.0]] * 3])
    def test_rejects_bad_means(self, means):
        base = random_gmm(np.random.default_rng(30), components=3, dim=2)
        with pytest.raises(DimensionMismatch):
            base.with_means(means)


class TestExpandedKernel:
    @pytest.mark.parametrize("offset", [0.0, 100.0, 1000.0])
    def test_matches_difference_form(self, offset):
        rng = np.random.default_rng(31)
        weights = rng.uniform(0.1, 1.0, 64)
        gmm = DiagonalGmm(weights=weights / weights.sum(),
                          means=offset + rng.normal(0, 2, (64, 20)),
                          variances=rng.uniform(0.5, 1.5, (64, 20)))
        frames = offset + rng.normal(0, 3, (500, 20))
        error = np.abs(frame_component_log_densities(frames, gmm)
                       - difference_form(frames, gmm))
        assert error.max() < 1e-9

    def test_memory_grows_with_frames_times_components(self):
        frames_l, components, dim = 20_000, 64, 39
        rng = np.random.default_rng(32)
        gmm = DiagonalGmm(weights=np.full(components, 1.0 / components),
                          means=rng.normal(0, 1, (components, dim)),
                          variances=rng.uniform(0.5, 1.5, (components, dim)))
        frames = rng.normal(0, 1, (frames_l, dim))
        tracemalloc.start()
        try:
            frame_component_log_densities(frames, gmm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the (L, l, k) broadcast alone needs L * l * k * 8 bytes
        assert peak < 4 * frames_l * components * 8

    def test_kmeans_labels_match_difference_form(self):
        rng = np.random.default_rng(33)
        centers = rng.normal(0, 20, (6, 5)) + 500.0
        planted = rng.integers(0, 6, 3000)
        frames = centers[planted] + rng.standard_normal((3000, 5))
        labels, found = _kmeans_pp(frames, 6, np.random.default_rng(0))
        dists = np.sum((frames[:, None, :] - found[None, :, :]) ** 2, axis=2)
        assert np.array_equal(labels, np.argmin(dists, axis=1))
        # one found cluster per planted one
        pairs = set(zip(planted.tolist(), labels.tolist()))
        assert len(pairs) == len({p for p, _ in pairs}) == len({lab for _, lab in pairs}) == 6


class TestLogSumExp:
    # _mixture_pass reduces over axis 0 of the kernel output, one row per component, so
    # axis 1 feeds it a.T. keepdims runs one model over the whole axis, as _posteriors
    # does, against scipy's kept row; otherwise models split the axis into segments.
    SEGMENTS = {0: (3, 4, 1, 5, 27),    # [7, 8) is -inf only, [3, 7) holds -inf
                1: (3, 8, 5, 1, 13)}    # [0, 3) is -inf only in frame 3, [3, 11) holds -inf
    # consecutive equal sizes form runs [2, 2], [3], [1, 1], [2], [rest], one view each:
    # [7, 8) is -inf only and shares its run with [8, 9); for axis 1, [0, 2) and [2, 4)
    # are -inf only in frame 3
    RUNS = {0: (2, 2, 3, 1, 1, 2, 29), 1: (2, 2, 3, 1, 1, 2, 19)}

    @staticmethod
    def scores(monkeypatch, axis, sizes):
        """_mixture_pass over models of `sizes` on a kernel output of -inf rows, frames
        holding -inf and tied peaks, with scipy's log-sum-exp of each segment."""
        rng = np.random.default_rng(34)
        a = rng.normal(0, 1, (40, 30)) * 1e3
        a[3, :5] = -np.inf      # a row holding -inf
        a[7, :] = -np.inf       # a row of -inf only
        a[:, 11] = a[:, 12]     # tied peaks
        logs = a if axis == 0 else a.T
        bounds = np.cumsum((0, *sizes))
        oracle = np.vstack([logsumexp(logs[lo:hi], axis=0)
                            for lo, hi in zip(bounds[:-1], bounds[1:])])
        models = [random_gmm(rng, components=c) for c in sizes]
        monkeypatch.setattr(gmm_module, "_log_densities", lambda *args: logs.copy())
        frame_ll, exps, sums = _mixture_pass(np.zeros((logs.shape[1], 2)), models, np.zeros(2))
        assert frame_ll.shape == sums.shape == oracle.shape and exps.shape == logs.shape
        finite = np.isfinite(oracle)
        assert np.array_equal(np.isfinite(frame_ll), finite)
        assert np.all(frame_ll[~finite] == oracle[~finite])
        assert np.allclose(frame_ll[finite], oracle[finite], rtol=1e-14, atol=0.0)
        assert np.array_equal(np.vstack([exps[lo:hi].sum(axis=0)
                                         for lo, hi in zip(bounds[:-1], bounds[1:])]), sums)
        return frame_ll, a

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_matches_scipy(self, monkeypatch, axis, keepdims):
        sizes = (40 if axis == 0 else 30,) if keepdims else self.SEGMENTS[axis]
        frame_ll, a = self.scores(monkeypatch, axis, sizes)
        if keepdims:
            kept = logsumexp(a, axis=axis, keepdims=True)
            assert np.allclose(frame_ll, kept if axis == 0 else kept.T, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_runs_of_equal_sizes(self, monkeypatch, axis):
        self.scores(monkeypatch, axis, self.RUNS[axis])

    def test_public_layout_is_frames_by_components(self):
        rng = np.random.default_rng(35)
        model = random_gmm(rng, components=5, dim=3)
        frames = rng.normal(0, 2, (7, 3))
        densities = frame_component_log_densities(frames, model)
        gamma = frame_responsibilities(frames, model)
        assert densities.shape == gamma.shape == (7, 5)
        assert np.allclose(densities, difference_form(frames, model), rtol=1e-12, atol=0.0)
        assert np.allclose(gamma.sum(axis=1), 1.0, rtol=1e-14, atol=0.0)
        assert np.allclose(responsibilities(frames[2], model), gamma[2], rtol=1e-12, atol=0.0)


def kmeans_with_loop_update(frames, n_clusters, rng):
    """_kmeans_pp with the centre update as one masked mean per cluster."""
    n = frames.shape[0]
    centers = np.empty((n_clusters, frames.shape[1]))
    centers[0] = frames[rng.integers(n)]
    d2 = np.sum((frames - centers[0]) ** 2, axis=1)
    for c in range(1, n_clusters):
        total = d2.sum()
        if total <= 0.0:
            centers[c] = frames[rng.integers(n)]
        else:
            centers[c] = frames[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((frames - centers[c]) ** 2, axis=1))
    ref = frames.mean(axis=0)
    shifted = frames - ref
    labels = np.zeros(n, dtype=np.intp)
    for step in range(25):
        centred = centers - ref
        dists = shifted @ (-2.0 * centred).T
        dists += np.sum(centred * centred, axis=1)
        new_labels = np.argmin(dists, axis=1)
        if np.array_equal(new_labels, labels) and step > 0:
            break
        labels = new_labels
        for c in range(n_clusters):
            mask = labels == c
            if mask.any():
                centers[c] = frames[mask].mean(axis=0)
    return labels, centers


def test_kmeans_update_matches_loop():
    rng = np.random.default_rng(36)
    base = random_gmm(rng, components=64, dim=20)
    picks = rng.choice(64, 15_000, p=base.weights)
    frames = base.means[picks] + rng.standard_normal((15_000, 20)) * np.sqrt(
        base.variances[picks])
    labels, centers = _kmeans_pp(frames, 64, np.random.default_rng(0))
    loop_labels, loop_centers = kmeans_with_loop_update(frames, 64, np.random.default_rng(0))
    assert np.array_equal(labels, loop_labels)
    assert np.abs(centers - loop_centers).max() < 1e-12


def test_kmeans_empty_cluster_keeps_centre():
    # five distinct points, six clusters: k-means++ seeds a duplicate centre
    # that loses every frame to its twin and must stay where it was seeded
    frames = np.repeat(np.arange(5.0)[:, None], 10, axis=0)
    labels, centers = _kmeans_pp(frames, 6, np.random.default_rng(0))
    assert np.all(np.isfinite(centers))
    assert len(np.unique(labels)) == 5
    assert set(centers[:, 0].tolist()) == set(range(5))


class TestSequenceLogLikelihoods:
    @pytest.fixture
    def mixed_models(self):
        rng = np.random.default_rng(37)
        return [random_gmm(rng, components=c, dim=3) for c in (4, 1, 6, 2, 6)]

    @pytest.mark.parametrize("stack", [2048, 7, 1])
    def test_matches_naive_per_component_sums(self, mixed_models, monkeypatch, stack):
        # stack 7 splits the list into blocks; 1 gives every model its own block
        monkeypatch.setattr(gmm_module, "BLOCK", stack)
        frames = np.random.default_rng(38).normal(0, 2, (40, 3))
        scores = sequence_log_likelihoods(FeatureMatrix(frames), mixed_models)
        assert scores.shape == (len(mixed_models),)
        for score, model in zip(scores, mixed_models):
            naive = sum(naive_mixture_ll(x, model) for x in frames)
            assert abs(score - naive) <= 1e-9 * abs(naive)

    def test_single_model_is_sequence_log_likelihood(self, mixed_models):
        feats = FeatureMatrix(np.random.default_rng(39).normal(0, 2, (25, 3)))
        for model in mixed_models:
            assert sequence_log_likelihood(feats, model) == sequence_log_likelihoods(
                feats, [model])[0]

    # one block of frames, and more frames than BLOCK
    @pytest.mark.parametrize("frames_l", [300, 5000])
    def test_equals_the_e_step_frame_sum_bit_for_bit(self, frames_l):
        rng = np.random.default_rng(frames_l)
        for _ in range(20):
            model = random_gmm(rng, components=int(rng.integers(1, 33)), dim=4)
            frames = rng.normal(0, 3, (frames_l, 4))
            assert sequence_log_likelihood(FeatureMatrix(frames), model) == (
                gmm_module.posterior_sums(frames, model)[2].sum())

    def test_no_mixtures_score_an_empty_array(self):
        assert sequence_log_likelihoods(FeatureMatrix(np.zeros((5, 3))), []).shape == (0,)
        with pytest.raises(EmptyFeatureMatrix):  # the features are checked first
            sequence_log_likelihoods(FeatureMatrix(np.zeros((0, 3))), [])

    def test_dimension_mismatch(self, mixed_models):
        feats = FeatureMatrix(np.zeros((5, 3)))
        with pytest.raises(DimensionMismatch):
            sequence_log_likelihoods(feats, [*mixed_models, random_gmm(
                np.random.default_rng(40), components=2, dim=4)])


def masked_variances(frames, labels, n_clusters, variance_floor):
    """Per-cluster variances as one masked np.var per cluster with 2 or more frames."""
    variances = np.tile(np.maximum(frames.var(axis=0), variance_floor), (n_clusters, 1))
    for c in range(n_clusters):
        if np.count_nonzero(labels == c) >= 2:
            variances[c] = np.maximum(frames[labels == c].var(axis=0), variance_floor)
    return variances


def loop_initial_model(frames, config):
    """The initial model built from k-means over every frame and masked variances."""
    labels, centers = _kmeans_pp(frames, config.num_components,
                                 np.random.default_rng(config.rng_seed))
    counts = np.bincount(labels, minlength=config.num_components)
    weights = np.maximum(counts, 1) / frames.shape[0]
    weights /= weights.sum()
    return DiagonalGmm(weights=weights, means=centers, variances=masked_variances(
        frames, labels, config.num_components, config.variance_floor))


def overlapping_mixture(seed, components, dim):
    """A base GMM whose components overlap, as cepstra do: means ~ N(0, 0.5^2)."""
    rng = np.random.default_rng(seed)
    weights = rng.gamma(5.0, size=components)
    return DiagonalGmm(weights=weights / weights.sum(),
                       means=rng.normal(0.0, 0.5, (components, dim)),
                       variances=rng.uniform(0.5, 1.5, (components, dim)))


def overlapping_frames(seed, frames_l, components, dim):
    base = overlapping_mixture(seed, components, dim)
    return sample_from_gmm(base, frames_l, np.random.default_rng(seed + 1)).frames


def initial_model(frames, config):
    global_var = np.maximum(frames.var(axis=0), config.variance_floor)
    return gmm_module._initial_model(frames, config, global_var)


class TestSubsampledInitialisation:
    """UBM k-means runs on KMEANS_FRAMES_PER_COMPONENT * C frames when L is larger."""

    def test_kmeans_sees_seeded_ordered_sample(self, monkeypatch):
        frames = overlapping_frames(41, 2000, 8, 5)
        seen = []

        def spy(sample, n_clusters, rng):
            seen.append(sample)
            return _kmeans_pp(sample, n_clusters, rng)

        monkeypatch.setattr(gmm_module, "_kmeans_pp", spy)
        initial_model(frames, GmmTrainingConfig(num_components=8, rng_seed=5))
        assert len(seen) == 1 and seen[0].shape == (64 * 8, 5)
        rows = {row.tobytes(): t for t, row in enumerate(frames)}
        picked = np.array([rows[row.tobytes()] for row in seen[0]])
        assert np.all(np.diff(picked) > 0)
        # drawn from the config's rng before k-means++ takes from it
        expected = np.sort(np.random.default_rng(5).choice(2000, 64 * 8, replace=False))
        assert np.array_equal(picked, expected)

    def test_one_seed_is_bit_identical(self):
        feats = FeatureMatrix(overlapping_frames(42, 3000, 16, 6))
        config = GmmTrainingConfig(num_components=16, max_iterations=4, rng_seed=11)
        a, b = em_fit(feats, config), em_fit(feats, config)
        for name in ("weights", "means", "variances"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_every_frame_gets_its_nearest_centre(self, monkeypatch):
        frames = overlapping_frames(43, 6000, 16, 8)
        config = GmmTrainingConfig(num_components=16, rng_seed=2)
        nearest, calls = gmm_module._nearest, []

        def spy(frames, centers, ref, blocks=None):
            calls.append((centers.copy(), nearest(frames, centers, ref, blocks)))
            return calls[-1][1]

        monkeypatch.setattr(gmm_module, "_nearest", spy)
        model = initial_model(frames, config)
        centers, labels = calls[-1]
        dists = np.sum((frames[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        assert np.array_equal(labels, np.argmin(dists, axis=1))
        # the model is the full-frame clusters' weights, means and variances
        weights = np.maximum(np.bincount(labels, minlength=16), 1) / 6000
        assert np.array_equal(model.weights, weights / weights.sum())
        for c in range(16):
            expected = frames[labels == c].mean(axis=0) if np.any(labels == c) else centers[c]
            assert np.abs(model.means[c] - expected).max() < 1e-12
        loop = masked_variances(frames, labels, 16, config.variance_floor)
        assert np.abs(model.variances - loop).max() < 1e-12

    @pytest.mark.parametrize("frames_l, components", [(300, 8), (1024, 16), (64, 64)])
    def test_small_input_matches_full_kmeans(self, frames_l, components):
        frames = overlapping_frames(44, frames_l, components, 5)
        config = GmmTrainingConfig(num_components=components, rng_seed=3)
        model, oracle = initial_model(frames, config), loop_initial_model(frames, config)
        for name in ("weights", "means", "variances"):
            assert np.array_equal(getattr(model, name), getattr(oracle, name))

    def test_fit_quality_close_to_full_kmeans(self, monkeypatch):
        base = overlapping_mixture(45, 64, 20)
        rng = np.random.default_rng(46)
        pooled, held_out = sample_from_gmm(base, 15_000, rng), sample_from_gmm(base, 5_000, rng)
        config = GmmTrainingConfig(num_components=64, max_iterations=8,
                                   convergence_tol=1e-12, rng_seed=7)
        subsampled = sequence_log_likelihood(held_out, em_fit(pooled, config)) / 5_000
        monkeypatch.setattr(gmm_module, "KMEANS_FRAMES_PER_COMPONENT", 15_000)
        full = sequence_log_likelihood(held_out, em_fit(pooled, config)) / 5_000
        assert abs(subsampled - full) < 0.05


class TestBlockedEStep:
    """EM and the Baum-Welch sums take BLOCK frames at a time."""

    # L below BLOCK, a multiple of it, and neither
    @pytest.mark.parametrize("block, frames_l", [
        (1, 20), (7, 5), (7, 21), (7, 23), (2048, 300), (2048, 4096), (2048, 2100)])
    def test_one_em_iteration_does_not_depend_on_the_block(self, monkeypatch, block, frames_l):
        feats = FeatureMatrix(overlapping_frames(49, frames_l, 3, 4) + 2.0)
        config = GmmTrainingConfig(num_components=3, max_iterations=1, rng_seed=1)
        monkeypatch.setattr(gmm_module, "BLOCK", frames_l)
        whole = em_fit(feats, config)
        monkeypatch.setattr(gmm_module, "BLOCK", block)
        blocked = em_fit(feats, config)
        for name in ("weights", "means", "variances"):
            ours, reference = getattr(blocked, name), getattr(whole, name)
            assert np.abs(ours - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_dead_component_reseeded_at_worst_frame_of_a_later_block(self, monkeypatch):
        frames = overlapping_frames(48, 500, 3, 2)
        frames[400] = [30.0, -30.0]
        config = GmmTrainingConfig(num_components=3, max_iterations=1, rng_seed=0)
        stranded = DiagonalGmm(weights=np.full(3, 1 / 3),
                               means=np.array([[0.0, 0.0], [0.5, 0.5], [1e3, 1e3]]),
                               variances=np.full((3, 2), 0.01))
        monkeypatch.setattr(gmm_module, "_initial_model", lambda *args: stranded)
        monkeypatch.setattr(gmm_module, "BLOCK", 7)
        seen = e_step_models(monkeypatch)
        _, history = em_fit_detailed(FeatureMatrix(frames), config)
        assert len(history) == 1 and seen[0] is stranded
        assert np.array_equal(seen[1].means[2], frames[400])
        assert np.array_equal(seen[1].means[:2], stranded.means[:2])

    def test_memory_is_bounded_by_the_block(self, monkeypatch):
        frames_l, block = 10 * gmm_module.BLOCK, gmm_module.BLOCK
        rng = np.random.default_rng(51)
        # (C, k, bound): an (L, C) array of doubles alone would be 10 * BLOCK * C * 8 bytes;
        # for wide frames, np.var's (L, k) temporary plus a few blocks of [gamma, X, X^2, 1]
        cases = [(50, 128, 2, 4 * block * 128 * 8),
                 (52, 8, 64, frames_l * 64 * 8 + 4 * block * (8 + 2 * 64 + 1) * 8)]
        for seed, components, dim, bound in cases:
            frames = np.random.default_rng(seed).normal(0, 1, (frames_l, dim))
            model = DiagonalGmm(weights=np.full(components, 1 / components),
                                means=rng.normal(0, 1, (components, dim)),
                                variances=rng.uniform(0.5, 1.5, (components, dim)))
            monkeypatch.setattr(gmm_module, "_initial_model", lambda *args: model)
            feats = FeatureMatrix(frames)
            config = GmmTrainingConfig(num_components=components, max_iterations=1)
            for call in (lambda: gmm_module.posterior_sums(frames, model),
                         lambda: em_fit(feats, config)):
                tracemalloc.start()
                try:
                    call()
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < bound


class TestMStep:
    def test_one_step_matches_weighted_moments(self):
        frames = overlapping_frames(47, 800, 6, 4) + 3.0
        config = GmmTrainingConfig(num_components=6, max_iterations=1, rng_seed=4)
        gamma = frame_responsibilities(frames, initial_model(frames, config))
        model = em_fit(FeatureMatrix(frames), config)
        for c in range(6):
            mass = gamma[:, c].sum()
            mean = (gamma[:, c, None] * frames).sum(axis=0) / mass
            var = (gamma[:, c, None] * (frames - mean) ** 2).sum(axis=0) / mass
            assert np.allclose(model.means[c], mean, rtol=0, atol=1e-12)
            assert np.allclose(model.variances[c], np.maximum(var, config.variance_floor),
                               rtol=0, atol=1e-11)
        assert np.allclose(model.weights, gamma.sum(axis=0) / 800, rtol=1e-12, atol=0)

    def test_dead_component_reseeded_at_worst_frame(self, monkeypatch):
        frames = overlapping_frames(48, 500, 3, 2)
        config = GmmTrainingConfig(num_components=3, max_iterations=1, rng_seed=0)
        stranded = DiagonalGmm(weights=np.full(3, 1 / 3),
                               means=np.array([[0.0, 0.0], [0.5, 0.5], [1e3, 1e3]]),
                               variances=np.full((3, 2), 0.01))
        monkeypatch.setattr(gmm_module, "_initial_model", lambda *args: stranded)
        seen = e_step_models(monkeypatch)
        _, history = em_fit_detailed(FeatureMatrix(frames), config)
        assert len(history) == 1 and seen[0] is stranded
        frame_ll = logsumexp(frame_component_log_densities(frames, stranded)
                             + np.log(stranded.weights), axis=1)
        reseeded = seen[1]
        assert np.array_equal(reseeded.means[2], frames[np.argmin(frame_ll)])
        assert np.array_equal(reseeded.variances[2], np.maximum(frames.var(axis=0), 1e-3))
        assert np.array_equal(reseeded.means[:2], stranded.means[:2])

    def test_reseed_on_the_last_iteration_ends_in_an_m_step(self, monkeypatch):
        # the re-seeded model gets the M-step the next iteration would have given it
        frames = np.random.default_rng(0).normal(0, 1, (500, 2))
        stranded = DiagonalGmm(weights=np.full(3, 1 / 3),
                               means=np.array([[0.0, 0.0], [0.5, 0.5], [1e3, 1e3]]),
                               variances=np.ones((3, 2)))
        monkeypatch.setattr(gmm_module, "_initial_model", lambda *args: stranded)
        fits = [em_fit_detailed(FeatureMatrix(frames), GmmTrainingConfig(
            num_components=3, max_iterations=iterations)) for iterations in (1, 2)]
        (last, history), (later, later_history) = fits
        assert len(history) == 1 and history == later_history
        for name in ("weights", "means", "variances"):
            assert np.array_equal(getattr(last, name), getattr(later, name))
        assert not np.array_equal(last.variances[2], np.maximum(frames.var(axis=0), 1e-3))


def e_step_models(monkeypatch):
    """The list of models that em_fit's E-steps see, in order, filled as it runs."""
    seen, posterior_sums = [], gmm_module.posterior_sums

    def spy(frames, model, squares=False):
        seen.append(model)
        return posterior_sums(frames, model, squares)

    monkeypatch.setattr(gmm_module, "posterior_sums", spy)
    return seen


def rowwise_nearest(frames, centers, ref):
    """Nearest-centre labels as a GEMM about ref, then the centre norms added."""
    centred = centers - ref
    scale, norms = -2.0 * centred.T, np.sum(centred * centred, axis=1)
    return np.concatenate([np.argmin((frames[start:start + gmm_module.BLOCK] - ref) @ scale
                                     + norms, axis=1)
                           for start in range(0, frames.shape[0], gmm_module.BLOCK)])


def rowwise_kmeans_pp(frames, n_clusters, rng):
    """k-means++ with row-major seeding distances and rowwise_nearest's Lloyd steps."""
    from scipy.sparse import csr_array
    n = frames.shape[0]
    centers = np.empty((n_clusters, frames.shape[1]))
    centers[0] = frames[rng.integers(n)]
    d2 = np.sum((frames - centers[0]) ** 2, axis=1)
    for c in range(1, n_clusters):
        total = d2.sum()
        if total <= 0.0:
            centers[c] = frames[rng.integers(n)]
        else:
            centers[c] = frames[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((frames - centers[c]) ** 2, axis=1))
    ref = frames.mean(axis=0)
    labels = np.zeros(n, dtype=np.intp)
    for step in range(25):
        new_labels = rowwise_nearest(frames, centers, ref)
        if np.array_equal(new_labels, labels) and step > 0:
            break
        labels = new_labels
        sums = csr_array((np.ones(n), (labels, np.arange(n))), shape=(n_clusters, n)) @ frames
        counts = np.bincount(labels, minlength=n_clusters)
        filled = counts > 0
        centers[filled] = sums[filled] / counts[filled, None]
    return labels, centers


def rowwise_initial_model(frames, config):
    """_initial_model over rowwise_kmeans_pp and rowwise_nearest."""
    from scipy.sparse import csr_array
    rng = np.random.default_rng(config.rng_seed)
    n, n_clusters = frames.shape[0], config.num_components
    if n > gmm_module.KMEANS_FRAMES_PER_COMPONENT * n_clusters:
        sample = np.sort(rng.choice(n, gmm_module.KMEANS_FRAMES_PER_COMPONENT * n_clusters,
                                    replace=False))
        _, centers = rowwise_kmeans_pp(frames[sample], n_clusters, rng)
        labels = rowwise_nearest(frames, centers, frames.mean(axis=0))
    else:
        labels, centers = rowwise_kmeans_pp(frames, n_clusters, rng)
    counts = np.bincount(labels, minlength=n_clusters)
    sizes = np.maximum(counts, 1)[:, None]
    weights = sizes[:, 0] / n
    weights /= weights.sum()
    one_hot = csr_array((np.ones(n), (labels, np.arange(n))), shape=(n_clusters, n))
    means = np.where((counts > 0)[:, None], (one_hot @ frames) / sizes, centers)
    deviations = frames - means[labels]
    global_var = np.maximum(frames.var(axis=0), config.variance_floor)
    variances = np.where((counts >= 2)[:, None], np.maximum(
        (one_hot @ (deviations * deviations)) / sizes, config.variance_floor), global_var)
    return DiagonalGmm(weights=weights, means=means, variances=variances)


class TestKmeansOracles:
    """Product-form nearest centres and column-major seeding leave k-means bit for bit
    where the GEMM-then-norms assignment and row-major seeding left it."""

    @staticmethod
    def assert_same(frames, n_clusters, seed):
        labels, centers = _kmeans_pp(frames, n_clusters, np.random.default_rng(seed))
        oracle_labels, oracle_centers = rowwise_kmeans_pp(frames, n_clusters,
                                                          np.random.default_rng(seed))
        assert np.array_equal(labels, oracle_labels)
        assert np.array_equal(centers, oracle_centers)
        config = GmmTrainingConfig(num_components=n_clusters, rng_seed=seed)
        model, oracle = initial_model(frames, config), rowwise_initial_model(frames, config)
        for name in ("weights", "means", "variances"):
            assert np.array_equal(getattr(model, name), getattr(oracle, name))

    # the last case has more than KMEANS_FRAMES_PER_COMPONENT * C frames, so k-means
    # runs on a sample and every frame is then assigned block by block
    @pytest.mark.parametrize("frames_l, components, dim",
                             [(4096, 64, 20), (2048, 32, 13), (1024, 16, 8), (5000, 8, 8)])
    def test_overlapping_frames(self, frames_l, components, dim):
        frames = overlapping_frames(53, frames_l, components, dim)
        for seed in (0, 7):
            self.assert_same(frames, components, seed)

    def test_first_of_tied_centres_wins(self):
        frames = np.repeat(np.arange(5.0)[:, None], 10, axis=0)
        self.assert_same(frames, 6, 0)
        labels, centers = _kmeans_pp(frames, 6, np.random.default_rng(0))
        for value in range(5):
            tied = np.flatnonzero(centers[:, 0] == value)
            assert np.all(labels[frames[:, 0] == value] == tied[0])


class TestKernelCache:
    """A mixture's E-step takes its coefficient block from _reused(_stack, [model]): built
    once and shared by every E-step, in the same slot that LLR scoring's stack uses."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The component count of every _coefficients build."""
        build, calls = gmm_module._coefficients, []

        def spy(*args):
            calls.append(args[0].shape[0])
            return build(*args)

        monkeypatch.setattr(gmm_module, "_coefficients", spy)
        return calls

    def test_cached_block_is_a_fresh_build(self):
        model = random_gmm(np.random.default_rng(54), components=7, dim=5)
        ref, ((start, stop, coefficients),) = gmm_module._reused(gmm_module._stack, [model])
        centre = gmm_module._centre(model.means)
        assert (start, stop) == (0, 1) and np.array_equal(ref, centre)
        assert np.array_equal(coefficients, gmm_module._coefficients(
            model.means, model.variances, np.log(model.weights), centre))
        assert gmm_module._reused(gmm_module._stack, [model])[1][0][2] is coefficients
        assert not (ref.flags.writeable or coefficients.flags.writeable)
        # _stack itself keeps nothing: each call is a new, equal build
        rebuilt = gmm_module._stack([model])[1][0][2]
        assert rebuilt is not coefficients and np.array_equal(rebuilt, coefficients)

    def test_with_means_builds_its_own_block(self):
        base = random_gmm(np.random.default_rng(55), components=4, dim=3)
        base_coefficients = gmm_module._reused(gmm_module._stack, [base])[1][0][2]
        moved = base.with_means(base.means + 1.5)
        ref, ((*_, coefficients),) = gmm_module._reused(gmm_module._stack, [moved])
        assert np.array_equal(ref, gmm_module._centre(moved.means))
        assert np.array_equal(coefficients, gmm_module._coefficients(
            moved.means, moved.variances, np.log(moved.weights), ref))
        assert not np.array_equal(coefficients, base_coefficients)

    def test_one_em_iteration_builds_the_block_once(self, builds):
        frames = overlapping_frames(56, 5 * gmm_module.BLOCK, 4, 3)
        em_fit(FeatureMatrix(frames), GmmTrainingConfig(num_components=4, max_iterations=1))
        assert builds == [4]
        model = random_gmm(np.random.default_rng(57), components=4, dim=3)
        for _ in range(3):
            gmm_module.posterior_sums(frames, model)
        assert builds == [4, 4]

    def test_statistics_then_identify_build_twice(self, builds):
        # the benchmark's phase order: every enrollment's statistics on one UBM, then every
        # trial's LLR identify on one registry; each phase builds once in the UBM's one slot
        rng = np.random.default_rng(63)
        ubm, registry = Ubm(gmm=random_gmm(rng, components=5, dim=3)), SpeakerRegistry()
        for sid in ("a", "b", "c"):
            stats = accumulate_stats(FeatureMatrix(rng.normal(0, 2, (60, 3))), ubm)
            registry.add(RegistryEntry(speaker_id=sid, cluster_id="c",
                                       model=map_adapt(stats, ubm, speaker_id=sid)))
        policy = DecisionPolicy(threshold=1.0, mode="llr-normalized")
        for n in range(4):
            identify(Trial(trial_id=str(n), test_features=FeatureMatrix(
                rng.normal(0, 2, (30, 3)))), registry, policy, ubm=ubm)
        assert builds == [5, 20]

    @pytest.mark.parametrize("frames_l", [300, gmm_module.BLOCK + 300])
    @pytest.mark.parametrize("squares", [False, True])
    def test_posterior_sums_equal_uncached_passes(self, frames_l, squares):
        rng = np.random.default_rng(frames_l)
        model = random_gmm(rng, components=6, dim=4)
        frames = rng.normal(0, 3, (frames_l, 4))
        counts, sums, frame_ll = gmm_module.posterior_sums(frames, model, squares=squares)
        oracle_counts, oracle_sums, oracle_ll = np.zeros(6), np.zeros_like(sums), []
        ref = gmm_module._centre(model.means)
        coefficients = gmm_module._coefficients(model.means, model.variances,
                                                np.log(model.weights), ref)
        for start in range(0, frames_l, gmm_module.BLOCK):
            block = frames[start:start + gmm_module.BLOCK]
            block_ll, exps, totals = _mixture_pass(gmm_module._terms(block, ref), [model],
                                                   coefficients)
            gamma = exps / totals
            oracle_counts += gamma.sum(axis=1)
            oracle_sums += gamma @ (np.hstack([block, block * block]) if squares else block)
            oracle_ll.append(block_ll[0])
        assert np.array_equal(counts, oracle_counts)
        assert np.array_equal(sums, oracle_sums)
        assert np.array_equal(frame_ll, np.concatenate(oracle_ll))


def fresh(model):
    """An equal mixture with no cached kernel block or stack."""
    return DiagonalGmm(weights=model.weights.copy(), means=model.means.copy(),
                       variances=model.variances.copy())


class TestStackCache:
    """sequence_log_likelihoods keeps the stacked blocks of [head, *rest] in the head's slot
    and reuses them only for the same mixtures, in order."""

    @pytest.fixture
    def mixed_models(self):
        rng = np.random.default_rng(58)
        return [random_gmm(rng, components=c, dim=3) for c in (4, 1, 6, 2, 6, 3)]

    def test_repeated_calls_build_once(self, mixed_models, monkeypatch):
        build, calls = gmm_module._coefficients, []

        def spy(*args):
            calls.append(args[0].shape[0])
            return build(*args)

        monkeypatch.setattr(gmm_module, "_coefficients", spy)
        rng = np.random.default_rng(59)
        for _ in range(4):  # a new list of the same mixtures each time
            sequence_log_likelihoods(FeatureMatrix(rng.normal(0, 2, (30, 3))), list(mixed_models))
        assert calls == [22]
        ref, blocks = gmm_module._stack(mixed_models)
        assert not ref.flags.writeable
        assert not any(coefficients.flags.writeable for _, _, coefficients in blocks)

    def test_cached_equals_fresh_as_block_changes(self, mixed_models, monkeypatch):
        # 22 components: 7 splits the stack into five blocks, 1 gives every model its own.
        # BLOCK is read when a stack is built, so each BLOCK scores fresh copies of the models.
        feats = FeatureMatrix(np.random.default_rng(60).normal(0, 2, (40, 3)))
        frames = feats.frames
        for block, count in ((7, 5), (1, 6), (2048, 1)):
            monkeypatch.setattr(gmm_module, "BLOCK", block)
            models = [fresh(model) for model in mixed_models]
            built = sequence_log_likelihoods(feats, models)
            stored = models[0]._slot
            assert len(stored[1][1]) == count
            cached = sequence_log_likelihoods(feats, models)
            assert models[0]._slot is stored
            assert np.array_equal(cached, built)
            assert np.array_equal(cached, sequence_log_likelihoods(
                feats, [fresh(model) for model in models]))
            for score, model in zip(cached, models):
                naive = sum(naive_mixture_ll(x, model) for x in frames)
                assert abs(score - naive) <= 1e-9 * abs(naive)

    def test_changed_lists_equal_fresh_passes(self, mixed_models):
        rng = np.random.default_rng(61)
        feats = FeatureMatrix(rng.normal(0, 2, (40, 3)))
        head, *rest = mixed_models
        other = random_gmm(rng, components=6, dim=3)
        for models in (mixed_models,
                       [*mixed_models, other],             # an appended model
                       [head, *rest[:2], other, *rest[3:]],  # a replaced model
                       [other, *rest],                     # another head
                       [rest[0], head, *rest[1:]],         # a former member as head
                       [head, *rest[::-1]],                # the same models reordered
                       [head, *rest[:-1]],                 # a dropped model
                       mixed_models):
            assert np.array_equal(sequence_log_likelihoods(feats, models),
                                  sequence_log_likelihoods(feats, [fresh(m) for m in models]))

    def test_threads_scoring_lists_with_one_head(self, mixed_models):
        # each thread alternates lists that share the head, so stores interleave with reads
        head, *rest = mixed_models
        rng = np.random.default_rng(62)
        feats = FeatureMatrix(rng.normal(0, 2, (30, 3)))
        lists = [mixed_models, [head, *rest[::-1]], [head, *rest[:3]],
                 [head, random_gmm(rng, components=5, dim=3)]]
        expected = [sequence_log_likelihoods(feats, [fresh(m) for m in models])
                    for models in lists]
        mismatches = []

        def score(offset):
            for i in range(150):
                j = (i + offset) % len(lists)
                if not np.array_equal(sequence_log_likelihoods(feats, lists[j]), expected[j]):
                    mismatches.append(j)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=score, args=(n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []


class TestReadOnlyArrays:
    """A mixture copies every array it is given, once, into new bytes, and holds float64
    arrays that cannot be made writeable, so no kept stack goes stale. with_means alone
    shares: its mixture's own weights and variances."""

    def test_every_array_given_is_copied(self):
        rng = np.random.default_rng(66)
        given = {"weights": np.full(3, 1.0 / 3.0), "means": rng.normal(0, 1, (3, 2)),
                 "variances": rng.uniform(0.5, 1.5, (3, 2))}
        model = DiagonalGmm(**given)
        for name, array in given.items():
            held = getattr(model, name)
            assert held.dtype == np.float64 and not held.flags.writeable
            assert not np.shares_memory(held, array) and np.array_equal(held, array)
        again = DiagonalGmm(weights=model.weights, means=model.means, variances=model.variances)
        assert not any(np.shares_memory(getattr(again, name), getattr(model, name))
                       for name in given)
        same = model.with_means(model.means)
        assert same.weights is model.weights and same.variances is model.variances
        assert not np.shares_memory(same.means, model.means)
        moved = model.with_means(given["means"])
        assert not (moved.means.flags.writeable or np.shares_memory(moved.means, given["means"]))
        single = given["means"].astype(np.float32)
        single.flags.writeable = False
        assert model.with_means(single).means.dtype == np.float64

    def test_stacks_ignore_later_writes_to_the_callers_arrays(self):
        rng = np.random.default_rng(67)
        feats = FeatureMatrix(rng.normal(0, 2, (50, 3)))
        weights, variances = np.full(4, 0.25), rng.uniform(0.5, 1.5, (4, 3))
        means = [rng.normal(0, 1, (4, 3)) for _ in range(3)]
        models = [DiagonalGmm(weights=weights, means=mu, variances=variances) for mu in means]
        sequence_log_likelihoods(feats, models)  # keeps the LLR stack in models[0]'s slot
        gmm_module.posterior_sums(feats.frames, models[1])  # and the E-step's in models[1]'s
        variances *= 2.0
        for mu in means:
            mu += 1.0
        copies = [fresh(model) for model in models]
        assert np.array_equal(sequence_log_likelihoods(feats, models),
                              sequence_log_likelihoods(feats, copies))
        for got, expected in zip(gmm_module.posterior_sums(feats.frames, models[1]),
                                 gmm_module.posterior_sums(feats.frames, copies[1])):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("owner", ["array", "bytearray"])
    def test_read_only_views_of_writeable_memory_are_copied(self, owner):
        # a read-only view shares its base's memory, so it changes when its base does
        rng = np.random.default_rng(68)
        feats = FeatureMatrix(rng.normal(0, 2, (40, 2)))
        means = rng.normal(0, 1, (3, 2))
        if owner == "array":
            base = means.copy()
            view = base.view()
        else:  # an array over a writeable buffer, not over another array
            base = bytearray(means.tobytes())
            view = np.frombuffer(base, dtype=np.float64)
        view.flags.writeable = False
        view = view.reshape(3, 2)
        weights, variances = np.full(3, 1.0 / 3.0), rng.uniform(0.5, 1.5, (3, 2))
        model = DiagonalGmm(weights=weights, means=view, variances=variances)
        before = sequence_log_likelihood(feats, model)
        np.frombuffer(base, dtype=np.float64)[:] += 3.0
        assert model.means is not view and np.array_equal(model.means, means)
        expected = sequence_log_likelihood(feats, DiagonalGmm(weights, means, variances))
        assert sequence_log_likelihood(feats, model) == before == expected
        assert np.array_equal(model.with_means(view).means, view)
        assert model.with_means(view).means is not view

    def test_scores_ignore_writes_to_read_only_memory_the_caller_can_write(self, caller_memory):
        rng = np.random.default_rng(69)
        feats = FeatureMatrix(rng.normal(0, 2, (50, 3)))
        values = [np.full(4, 0.25), rng.uniform(0.5, 1.5, (4, 3)),
                  rng.normal(0, 1, (4, 3)), rng.normal(0, 1, (4, 3))]
        given = [caller_memory(a) for a in values]
        (weights, _), (variances, _), (first, _), (second, _) = given

        def build():
            base = DiagonalGmm(weights=weights, means=first, variances=variances)
            return [base, base.with_means(second)]

        scored, unscored = build(), build()
        sequence_log_likelihoods(feats, scored)  # keeps the LLR stack in scored[0]'s slot
        gmm_module.posterior_sums(feats.frames, scored[1])  # and the E-step's in scored[1]'s
        for _, add in given:
            add(3.0)
        weights, variances, first, second = values  # build() now reads the values as given
        copies = build()
        for models in (scored, unscored):
            assert np.array_equal(models[1].means, second)
            assert np.array_equal(sequence_log_likelihoods(feats, models),
                                  sequence_log_likelihoods(feats, copies))
            for got, expected in zip(gmm_module.posterior_sums(feats.frames, models[1]),
                                     gmm_module.posterior_sums(feats.frames, copies[1])):
                assert np.array_equal(got, expected)

    @pytest.mark.parametrize("given", ["writeable", "read-only", "list"])
    def test_held_arrays_cannot_be_made_writeable(self, given):
        rng = np.random.default_rng(71)
        arrays = [np.full(2, 0.5), rng.normal(0, 1, (2, 3)), rng.uniform(0.5, 1.5, (2, 3))]
        for array in arrays:
            array.flags.writeable = given != "read-only"
        if given == "list":
            arrays = [array.tolist() for array in arrays]
        model = DiagonalGmm(*arrays)
        for held in (model.weights, model.means, model.variances,
                     model.with_means(arrays[1]).means):
            with pytest.raises(ValueError):
                held.flags.writeable = True

    def test_unpickled_arrays_are_copied(self):
        # numpy unpickles an array of over 1000 bytes as a writeable view of the pickle's bytes
        rng = np.random.default_rng(75)
        feats = FeatureMatrix(rng.normal(0, 2, (40, 3)))
        weights, variances = np.full(64, 1.0 / 64.0), rng.uniform(0.5, 1.5, (64, 3))
        given = rng.normal(0, 1, (64, 3))
        means = pickle.loads(pickle.dumps(given, 4))
        assert type(means.base) is bytes and means.flags.writeable
        model = DiagonalGmm(weights, means, variances)
        speaker = model.with_means(means)
        sequence_log_likelihoods(feats, [model, speaker])  # keeps the LLR stack in model's slot
        gmm_module.posterior_sums(feats.frames, speaker)  # and the E-step's in speaker's
        means += 3.0
        copies = [DiagonalGmm(weights, given, variances)] * 2
        assert np.array_equal(sequence_log_likelihoods(feats, [model, speaker]),
                              sequence_log_likelihoods(feats, copies))
        for got, expected in zip(gmm_module.posterior_sums(feats.frames, speaker),
                                 gmm_module.posterior_sums(feats.frames, copies[1])):
            assert np.array_equal(got, expected)
        for held in (model.means, speaker.means):
            assert not held.flags.writeable and np.array_equal(held, given)

    @pytest.mark.parametrize("rebuild", ["copy", "deepcopy", "pickle-4", "pickle-5"])
    def test_copies_are_built_through_the_constructor(self, rebuild):
        # a copy copies its arrays again, and no kept stack comes with it
        rebuild = {"copy": copy, "deepcopy": deepcopy,
                   "pickle-4": lambda model: pickle.loads(pickle.dumps(model, 4)),
                   "pickle-5": lambda model: pickle.loads(pickle.dumps(model, 5))}[rebuild]
        rng = np.random.default_rng(76)
        feats = FeatureMatrix(rng.normal(0, 2, (40, 3)))
        ubm = random_gmm(rng, components=64, dim=3)
        speaker = ubm.with_means(ubm.means + 0.5)
        size = len(pickle.dumps(ubm))
        expected = sequence_log_likelihoods(feats, [ubm, speaker])  # keeps a stack in ubm's slot
        assert len(pickle.dumps(ubm)) == size
        copies = [rebuild(model) for model in (ubm, speaker)]
        for model in copies:
            assert "_slot" not in vars(model)
            for held in (model.weights, model.means, model.variances):
                with pytest.raises(ValueError):
                    held[...] += 1.0
        assert np.array_equal(sequence_log_likelihoods(feats, copies), expected)

    def test_views_of_read_only_bytes_are_copied(self):
        # as store loads raw sections: views of the immutable bytes a file was read into
        data = np.arange(1.0, 7.0).tobytes()
        view = np.frombuffer(memoryview(data)[8:], dtype="<f8").reshape(1, 5)
        weights = np.frombuffer(data, dtype="<f8", count=1)
        model = DiagonalGmm(weights=weights, means=view, variances=view)
        for held, given in ((model.weights, weights), (model.means, view), (model.variances, view)):
            assert not np.shares_memory(held, given) and np.array_equal(held, given)
        assert not np.shares_memory(model.means, model.variances)


class TestTwoRuns:
    """A pass over at least 4 * BLOCK rows runs its second half of blocks on a thread of
    its own, and its results are combined in block order whatever the CPU count."""

    @pytest.fixture
    def worker(self, monkeypatch):
        """Forces the split on (True) or off (False); returns the pool of each split pass."""
        splits = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                splits.append(self)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        return lambda on: monkeypatch.setattr(gmm_module, "_room_for_two_runs",
                                              lambda: on) or splits

    @staticmethod
    def pass_threads():
        return [thread for thread in threading.enumerate() if thread.name.startswith("voxid")]

    @staticmethod
    def both(worker, call):
        """call() with the worker forced off, then on; asserts the pass split only when on."""
        splits = worker(False)
        splits.clear()
        serial = call()
        assert splits == []
        worker(True)
        split = call()
        assert splits
        return serial, split

    @pytest.mark.parametrize("cpus, env, room", [
        (2, {"OPENBLAS_NUM_THREADS": "1"}, True),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, False),
        (2, {"OPENBLAS_NUM_THREADS": "2"}, False),
        (4, {"OPENBLAS_NUM_THREADS": "2"}, True),
        (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
        (2, {"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        (64, {}, False)])  # unset, each BLAS call may take every CPU
    def test_room_for_two_runs(self, monkeypatch, cpus, env, room):
        monkeypatch.setattr(gmm_module.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert gmm_module._room_for_two_runs() is room

    def test_em_fit(self, worker):
        # 4 * BLOCK + 300 frames: the full nearest-centre pass and every E-step split
        feats = FeatureMatrix(overlapping_frames(64, 4 * gmm_module.BLOCK + 300, 8, 5))
        config = GmmTrainingConfig(num_components=8, max_iterations=3, rng_seed=5)
        serial, split = self.both(worker, lambda: em_fit_detailed(feats, config))
        assert serial[1] == split[1]
        for name in ("weights", "means", "variances"):
            assert np.array_equal(getattr(serial[0], name), getattr(split[0], name))

    @pytest.mark.parametrize("frames_l", [4 * gmm_module.BLOCK, 5 * gmm_module.BLOCK + 7])
    @pytest.mark.parametrize("squares", [False, True])
    def test_posterior_sums(self, worker, frames_l, squares):
        rng = np.random.default_rng(frames_l)
        model, frames = random_gmm(rng, components=6, dim=4), rng.normal(0, 3, (frames_l, 4))
        serial, split = self.both(
            worker, lambda: gmm_module.posterior_sums(frames, model, squares=squares))
        for ours, reference in zip(split, serial):
            assert np.array_equal(ours, reference)

    def test_nearest(self, worker):
        frames = overlapping_frames(65, 4 * gmm_module.BLOCK + 9, 12, 6)
        centers, ref = frames[::700], frames.mean(axis=0)
        blocks = [gmm_module._centred_block(frames, ref, start)
                  for start in range(0, frames.shape[0], gmm_module.BLOCK)]
        for given in (None, blocks):  # the full pass, and Lloyd's blocks built once
            serial, split = self.both(worker, lambda: gmm_module._nearest(frames, centers, ref,
                                                                         given))
            assert np.array_equal(split, serial)
            assert np.array_equal(split, rowwise_nearest(frames, centers, ref))

    def test_sequence_log_likelihoods(self, worker):
        # 33 models of 256 components stack past 4 * BLOCK
        rng = np.random.default_rng(66)
        models = [random_gmm(rng, components=256, dim=3) for _ in range(33)]
        feats = FeatureMatrix(rng.normal(0, 2, (50, 3)))
        serial, split = self.both(worker, lambda: sequence_log_likelihoods(feats, models))
        assert np.array_equal(split, serial)

    def test_worker_error_reaches_the_caller(self, worker, monkeypatch):
        rng = np.random.default_rng(67)
        model, frames = random_gmm(rng, components=4, dim=3), rng.normal(0, 2, (8192, 3))
        worker(True)
        expected = gmm_module.posterior_sums(frames, model)
        posteriors, caller = gmm_module._posteriors, threading.get_ident()

        def failing(block, gmm):
            if threading.get_ident() != caller:
                raise DimensionMismatch("raised on the worker thread")
            return posteriors(block, gmm)

        monkeypatch.setattr(gmm_module, "_posteriors", failing)
        with pytest.raises(DimensionMismatch, match="worker thread"):
            gmm_module.posterior_sums(frames, model)
        assert self.pass_threads() == []
        monkeypatch.setattr(gmm_module, "_posteriors", posteriors)
        for ours, reference in zip(gmm_module.posterior_sums(frames, model), expected):
            assert np.array_equal(ours, reference)

    def test_caller_error_joins_the_thread(self, worker, monkeypatch):
        rng = np.random.default_rng(73)
        model, frames = random_gmm(rng, components=4, dim=3), rng.normal(0, 2, (8192, 3))
        splits, posteriors, caller = worker(True), gmm_module._posteriors, threading.get_ident()
        finished = []

        def failing(block, gmm):
            if threading.get_ident() == caller:
                raise DimensionMismatch("raised on the calling thread")
            result = posteriors(block, gmm)
            finished.append(block.shape[0])
            return result

        monkeypatch.setattr(gmm_module, "_posteriors", failing)
        with pytest.raises(DimensionMismatch, match="calling thread"):
            gmm_module.posterior_sums(frames, model)
        # the pass's thread ran its two blocks to the end before the error left the pass
        assert len(splits) == 1 and finished == [gmm_module.BLOCK] * 2
        assert self.pass_threads() == []

    def test_a_split_leaves_no_thread(self, worker):
        rng = np.random.default_rng(74)
        model, frames = random_gmm(rng, components=4, dim=3), rng.normal(0, 2, (8192, 3))
        splits = worker(True)
        before = threading.active_count()
        gmm_module.posterior_sums(frames, model)
        assert len(splits) == 1
        assert threading.active_count() == before and self.pass_threads() == []

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork on this platform")
    def test_forked_child_starts_its_own_worker(self, worker):
        # a child forked after a split inherits no thread or pool, and splits on its own
        rng = np.random.default_rng(71)
        model, frames = random_gmm(rng, components=4, dim=3), rng.normal(0, 2, (8192, 3))
        worker(True)
        expected = gmm_module.posterior_sums(frames, model)
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # forking a threaded process
            child = context.Process(
                target=lambda: send.send(gmm_module.posterior_sums(frames, model)))
            child.start()
        try:
            assert receive.poll(60)
            for ours, reference in zip(receive.recv(), expected):
                assert np.array_equal(ours, reference)
        finally:
            child.join(timeout=60)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0

    def test_concurrent_callers_leave_no_thread(self, worker):
        # four callers split at once: each pass has its own pool, equals the serial pass,
        # and leaves no thread behind
        rng = np.random.default_rng(72)
        model, frames = random_gmm(rng, components=4, dim=3), rng.normal(0, 2, (8192, 3))
        worker(False)
        expected = gmm_module.posterior_sums(frames, model)
        splits = worker(True)
        before = threading.active_count()
        mismatches = []

        def split_passes():
            for _ in range(20):
                result = gmm_module.posterior_sums(frames, model)
                if not all(np.array_equal(a, b) for a, b in zip(result, expected)):
                    mismatches.append(result)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=split_passes) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert len(splits) == 80
        assert threading.active_count() == before and self.pass_threads() == []

    def test_small_passes_start_no_thread(self, worker):
        splits = worker(True)
        before = threading.active_count()
        rng = np.random.default_rng(68)
        ubm = Ubm(gmm=random_gmm(rng, components=16, dim=8))
        accumulate_stats(FeatureMatrix(rng.normal(0, 2, (300, 8))), ubm)
        # the demo configs' UBM: 8 000 frames, 16 components, k = 8
        em_fit(FeatureMatrix(overlapping_frames(69, 8000, 16, 8)),
               GmmTrainingConfig(num_components=16, max_iterations=3))
        assert threading.active_count() == before
        assert splits == []

    MEASURED_COMPONENTS, MEASURED_DIM = 128, 2

    def measured_passes(self, worker, monkeypatch):
        """An E-step pass and a one-iteration em_fit over MEASURED_COMPONENTS components, each
        as a function of the frames, and 20 * BLOCK frames; the split's imports come first."""
        components, dim = self.MEASURED_COMPONENTS, self.MEASURED_DIM
        rng = np.random.default_rng(70)
        model = DiagonalGmm(weights=np.full(components, 1 / components),
                            means=rng.normal(0, 1, (components, dim)),
                            variances=rng.uniform(0.5, 1.5, (components, dim)))
        monkeypatch.setattr(gmm_module, "_initial_model", lambda *args: model)
        config = GmmTrainingConfig(num_components=components, max_iterations=1)
        frames = rng.normal(0, 1, (20 * gmm_module.BLOCK, dim))
        worker(True)
        gmm_module.posterior_sums(frames, model)  # concurrent.futures is imported before measuring
        return (lambda x: gmm_module.posterior_sums(x, model),
                lambda x: em_fit(FeatureMatrix(x), config)), frames

    @staticmethod
    def peak(call, frames):
        tracemalloc.start()
        try:
            call(frames)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_the_frames(self, worker, monkeypatch):
        calls, frames = self.measured_passes(worker, monkeypatch)
        block, components = gmm_module.BLOCK, self.MEASURED_COMPONENTS
        worker(False)  # one run, so the peak is the same on every pass
        for call in calls:
            peaks = [self.peak(call, frames[:frames_l]) for frames_l in (10 * block, 20 * block)]
            # the extra frames' log-likelihoods, and one (C, BLOCK) block to spare; a pass
            # that kept every block's posteriors would add ten such blocks
            assert peaks[1] - peaks[0] < 10 * block * 8 + components * block * 8

    def test_a_split_pass_holds_one_more_block(self, worker, monkeypatch):
        calls, frames = self.measured_passes(worker, monkeypatch)
        block, components, dim = gmm_module.BLOCK, self.MEASURED_COMPONENTS, self.MEASURED_DIM
        # each run holds one block at a time, so a split pass holds at most one more block's
        # working set than the serial pass. It peaks in _mixture_pass at (C + 2k + 5) rows of
        # BLOCK doubles: the posteriors (C), the terms (2k + 1), and the peaks, sums, their
        # logs and the log-likelihoods (4); the moments after it hold C + 3k rows. On top
        # come the thread and the pool, measured at up to 40 KB. A pass that kept every
        # block's posteriors would add ten (C, BLOCK) blocks
        working_set = (components + 2 * dim + 5) * block * 8
        for call in calls:
            serial, split = self.both(worker, lambda: self.peak(call, frames))
            assert split < serial + working_set + 160 * 1024
