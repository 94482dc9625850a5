import warnings

import numpy as np
import pytest

from voxid import scoring
from voxid.errors import (
    DegenerateCohort,
    DimensionMismatch,
    NotADistribution,
    ZeroVector,
)
from voxid.features import FeatureMatrix
from voxid.gmm import DiagonalGmm, sequence_log_likelihood
from voxid.scoring import (
    CohortStats,
    DecisionPolicy,
    bhattacharyya_coefficient,
    cohort_from_scores,
    cosine_score,
    cosine_scores,
    decide,
    llr_score,
    llr_scores,
    normalize_score,
)
from voxid.speaker_models import SpeakerModel, Ubm, accumulate_stats, map_adapt
from voxid.total_variability import IVector


def build_pair(seed=0, offset=3.0):
    """UBM plus a speaker model whose means are displaced by `offset`."""
    rng = np.random.default_rng(seed)
    ubm = Ubm(gmm=DiagonalGmm(
        weights=[0.5, 0.5],
        means=[[-2.0, 0.0], [2.0, 0.0]],
        variances=[[1.0, 1.0], [1.0, 1.0]],
    ))
    speaker = SpeakerModel(
        speaker_id="s",
        gmm=DiagonalGmm(
            weights=ubm.gmm.weights,
            means=ubm.gmm.means + offset,
            variances=ubm.gmm.variances,
        ),
    )
    return ubm, speaker, rng


class TestLlr:
    def test_speaker_equals_ubm_scores_zero(self):
        ubm, _, rng = build_pair()
        same = SpeakerModel(speaker_id="u", gmm=ubm.gmm)
        feats = FeatureMatrix(rng.normal(0, 1, (20, 2)))
        assert llr_score(feats, same, ubm) == 0.0

    def test_own_speech_scores_positive(self):
        ubm, speaker, rng = build_pair(seed=1)
        comps = rng.integers(0, 2, 200)
        frames = speaker.gmm.means[comps] + rng.standard_normal((200, 2))
        assert llr_score(FeatureMatrix(frames), speaker, ubm) > 0.0

    def test_duplication_doubles(self):
        ubm, speaker, rng = build_pair(seed=2)
        frames = rng.normal(0, 1, (30, 2))
        one = llr_score(FeatureMatrix(frames), speaker, ubm)
        two = llr_score(FeatureMatrix(np.vstack([frames, frames])), speaker, ubm)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_frame_permutation_invariance(self):
        ubm, speaker, rng = build_pair(seed=3)
        frames = rng.normal(0, 1, (40, 2))
        shuffled = frames[rng.permutation(40)]
        a = llr_score(FeatureMatrix(frames), speaker, ubm)
        b = llr_score(FeatureMatrix(shuffled), speaker, ubm)
        assert a == pytest.approx(b, rel=1e-12)


class TestNormalization:
    def test_at_mean(self):
        assert normalize_score(1.0, CohortStats(1.0, 2.0)) == 0.0

    def test_one_sigma_above(self):
        assert normalize_score(3.0, CohortStats(1.0, 2.0)) == 1.0

    def test_affine_equivariance(self):
        a, b = 2.5, -1.0
        raw, mu, sigma = 4.0, 1.5, 0.5
        base = normalize_score(raw, CohortStats(mu, sigma))
        scaled = normalize_score(a * raw + b, CohortStats(a * mu + b, a * sigma))
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_cohort_from_scores(self):
        cohort = cohort_from_scores([0.0, 2.0])
        assert cohort.mean_mu == 1.0
        assert cohort.std_sigma == pytest.approx(np.sqrt(2.0))

    def test_cohort_from_array_list_or_generator(self):
        scores = np.random.default_rng(5).normal(0, 3, 17)
        cohort = cohort_from_scores(scores)
        assert cohort_from_scores(scores.tolist()) == cohort
        assert cohort_from_scores(s for s in scores) == cohort
        assert cohort.mean_mu == float(scores.mean())
        assert cohort.std_sigma == float(scores.std(ddof=1))

    def test_all_equal_degenerate(self):
        with pytest.raises(DegenerateCohort):
            cohort_from_scores([1.0, 1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cohort_score_is_degenerate(self, bad):
        # numpy warns nothing (which -W error would raise), also where finite scores spread
        # past float64's range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scores in ([1.0, bad], [bad, bad], np.array([0.0, 1.0, bad]),
                           [1e308, -1e308, 1e308]):
                with pytest.raises(DegenerateCohort, match="finite"):
                    cohort_from_scores(scores)

    @pytest.mark.parametrize("mu, sigma", [(np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0),
                                           (0.0, np.nan), (0.0, np.inf)])
    def test_cohort_stats_reject_non_finite(self, mu, sigma):
        with pytest.raises(DegenerateCohort, match="finite"):
            CohortStats(mu, sigma)

    def test_shift_equivariance(self):
        scores = [0.5, 1.5, 4.0]
        base = cohort_from_scores(scores)
        shifted = cohort_from_scores([s + 10.0 for s in scores])
        assert shifted.mean_mu == pytest.approx(base.mean_mu + 10.0)
        assert shifted.std_sigma == pytest.approx(base.std_sigma)

    def test_rank_preservation(self):
        rng = np.random.default_rng(4)
        raws = rng.normal(0, 5, 10)
        cohort = cohort_from_scores(raws)
        normed = [normalize_score(r, cohort) for r in raws]
        assert np.argmax(raws) == np.argmax(normed)


class TestCosine:
    def test_identical_vectors(self):
        v = IVector(np.array([0.3, -1.2, 0.8]))
        assert cosine_score(v, v) == 1.0

    def test_orthogonal(self):
        assert cosine_score(IVector(np.array([1.0, 0.0])),
                            IVector(np.array([0.0, 1.0]))) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        base = cosine_score(IVector(u), IVector(v))
        # power-of-two scales commute exactly with IEEE rounding
        assert cosine_score(IVector(4.0 * u), IVector(0.25 * v)) == base
        # arbitrary positive scales differ only by rounding
        assert cosine_score(IVector(3.0 * u), IVector(0.7 * v)) == pytest.approx(
            base, abs=1e-15
        )

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            u = IVector(rng.standard_normal(5))
            v = IVector(rng.standard_normal(5))
            s = cosine_score(u, v)
            assert s == cosine_score(v, u)
            assert -1.0 <= s <= 1.0

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            cosine_score(IVector(np.zeros(3)), IVector(np.ones(3)))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine_score(IVector(np.ones(3)), IVector(np.ones(4)))



def random_model(rng, components, dim):
    weights = rng.uniform(0.1, 1.0, components)
    return DiagonalGmm(weights=weights / weights.sum(), means=rng.normal(0, 1, (components, dim)),
                       variances=rng.uniform(0.5, 1.5, (components, dim)))


class TestBatchedKernels:
    def test_llr_scores_match_per_model_differences(self):
        rng = np.random.default_rng(9)
        ubm = Ubm(gmm=random_model(rng, 8, 3))
        speakers = [SpeakerModel(speaker_id=f"s{i}", gmm=random_model(rng, c, 3))
                    for i, c in enumerate([8, 1, 5, 13, 8])]
        feats = FeatureMatrix(rng.normal(0, 1.5, (150, 3)))
        scores = llr_scores(feats, speakers, ubm)
        ubm_ll = sequence_log_likelihood(feats, ubm.gmm)
        assert scores.shape == (len(speakers),)
        for score, speaker in zip(scores, speakers):
            expected = sequence_log_likelihood(feats, speaker.gmm) - ubm_ll
            assert abs(score - expected) <= 1e-9 * abs(ubm_ll)

    def test_cosine_scores_match_per_pair(self):
        rng = np.random.default_rng(10)
        targets = [IVector(w) for w in rng.normal(0, 1, (12, 7))]
        test = IVector(rng.normal(0, 1, 7))
        scores = cosine_scores(targets, test)
        assert scores.shape == (12,)
        for score, target in zip(scores, targets):
            # a row of a matrix-vector product may differ from the one-row product in the last bit
            assert abs(score - cosine_score(target, test)) < 1e-15

    @pytest.mark.parametrize("n, r", [(1, 5), (12, 7), (100, 100), (30, 200)])
    def test_cosine_scores_equal_one_stacked_array_bit_for_bit(self, n, r):
        # the reference stacks the targets and the test in one array and takes every norm
        # in one row-wise call; stacking the targets alone must not move a bit
        rng = np.random.default_rng(n + r)
        targets = [IVector(w) for w in rng.normal(0, 1, (n, r))]
        test = IVector(rng.normal(0, 1, r))
        stacked = np.array([*(t.w for t in targets), test.w])
        norms = np.linalg.norm(stacked, axis=1)
        reference = np.clip(stacked[:-1] @ test.w / (norms[:-1] * norms[-1]), -1.0, 1.0)
        assert np.array_equal(cosine_scores(targets, test), reference)

    def test_cosine_scores_need_a_target(self):
        with pytest.raises(DimensionMismatch):
            cosine_scores([], IVector(np.ones(3)))

    def test_cosine_scores_stack_one_target_list_once(self, monkeypatch):
        build, stacks = scoring.cosine_targets, []

        def counting(ivectors):
            stacks.append(len(ivectors))
            return build(ivectors)

        monkeypatch.setattr(scoring, "cosine_targets", counting)
        rng = np.random.default_rng(24)
        targets = [IVector(w) for w in rng.normal(0, 1, (6, 4))]
        tests = [IVector(w) for w in rng.normal(0, 1, (2, 4))]
        matrix = np.array([t.w for t in targets])
        for test in tests:  # a new list of the same targets each call
            expected = matrix @ test.w / (np.linalg.norm(matrix, axis=1) * np.linalg.norm(test.w))
            assert np.allclose(cosine_scores(list(targets), test), expected, rtol=0, atol=1e-15)
        assert stacks == [6]

    def test_cosine_scores_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine_scores([IVector(np.ones(3)), IVector(np.ones(4))], IVector(np.ones(3)))

    def test_cosine_scores_test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine_scores([IVector(np.ones(3)), IVector(np.ones(3))], IVector(np.ones(4)))

    @pytest.mark.parametrize("zero", ["target", "test"])
    def test_cosine_scores_zero_vector(self, zero):
        targets = [IVector(np.ones(3)), IVector(np.zeros(3) if zero == "target" else np.ones(3))]
        with pytest.raises(ZeroVector):
            cosine_scores(targets, IVector(np.zeros(3) if zero == "test" else np.ones(3)))


class TestBhattacharyya:
    def test_identical_distribution(self):
        p = np.array([0.2, 0.3, 0.5])
        assert bhattacharyya_coefficient(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_support(self):
        assert bhattacharyya_coefficient([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_uniform_pair(self):
        assert bhattacharyya_coefficient([0.5, 0.5], [0.5, 0.5]) == pytest.approx(1.0)

    def test_equals_cosine_of_sqrt_embedding(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = rng.gamma(1.0, size=6)
            q = rng.gamma(1.0, size=6)
            p /= p.sum()
            q /= q.sum()
            rho = bhattacharyya_coefficient(p, q)
            cos = cosine_score(IVector(np.sqrt(p)), IVector(np.sqrt(q)))
            assert abs(rho - cos) < 1e-12
            assert 0.0 <= rho <= 1.0

    def test_strictly_below_one_when_different(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = rng.gamma(1.0, size=5)
            q = rng.gamma(1.0, size=5)
            p /= p.sum()
            q /= q.sum()
            if np.abs(p - q).sum() > 1e-3:
                assert bhattacharyya_coefficient(p, q) < 1.0 - 1e-9

    def test_not_a_distribution(self):
        with pytest.raises(NotADistribution):
            bhattacharyya_coefficient([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(NotADistribution):
            bhattacharyya_coefficient([-0.1, 1.1], [0.5, 0.5])


class TestDecide:
    policy = DecisionPolicy(threshold=1.0, mode="llr-normalized")

    def test_above_accepts(self):
        assert decide(2.2, self.policy) is True

    def test_below_rejects(self):
        assert decide(0.45, self.policy) is False

    def test_tie_rejects(self):
        assert decide(1.0, self.policy) is False

    def test_cosine_threshold_range(self):
        with pytest.raises(ValueError):
            DecisionPolicy(threshold=1.5, mode="cosine")

    def test_cosine_threshold_range_message(self):
        for threshold in (-1.5, 1.5):
            with pytest.raises(ValueError, match=r"^cosine threshold must lie in \[-1, 1\]$"):
                DecisionPolicy(threshold=threshold, mode="cosine")

    def test_llr_names_the_llr_normalized_backend(self):
        assert DecisionPolicy(threshold=1.0, mode="llr") == self.policy
        assert DecisionPolicy(threshold=1.0, mode="llr").mode == "llr-normalized"
