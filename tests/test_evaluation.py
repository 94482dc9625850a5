import time
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from voxid.errors import (
    DegenerateCohort,
    DimensionMismatch,
    DuplicateSpeakerId,
    EmptyRegistry,
    EmptyScoreSet,
    InvalidExperimentConfig,
    ModeMismatch,
    NanScore,
    VoxidDomainError,
    ZeroVector,
)
from voxid.evaluation import (
    RegistryEntry,
    SpeakerRegistry,
    Trial,
    TrialResult,
    compute_eer,
    det_points,
    evaluate_trials,
    identify,
    report_to_csv,
    summarize,
)
from voxid.experiment import (
    ExperimentConfig,
    _random_gmm,
    build_world,
    parse_experiment_config,
    run_experiment,
    sample_from_gmm,
    settings_keys,
)
from voxid import gmm as gmm_module
from voxid import scoring
from voxid.features import FeatureMatrix
from voxid.gmm import BLOCK, DiagonalGmm, sequence_log_likelihood
from voxid.scoring import (
    CohortStats,
    DecisionPolicy,
    cohort_from_scores,
    cosine_score,
    cosine_scores,
    cosine_targets,
    llr_scores,
    normalize_score,
)
from voxid.speaker_models import SpeakerModel, Ubm, accumulate_stats, map_adapt
from voxid.total_variability import IVector, extract_ivectors, train_tv

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def brute_force_eer(targets, nontargets):
    """Exhaustive enumeration over every threshold in the score union."""
    targets = np.asarray(targets, float)
    nontargets = np.asarray(nontargets, float)
    best = None
    for t in np.unique(np.concatenate([targets, nontargets])):
        far = (nontargets > t).mean()
        frr = (targets <= t).mean()
        gap = abs(far - frr)
        if best is None or gap < best[0]:
            best = (gap, (far + frr) / 2)
    return best[1]


class TestEer:
    def test_perfect_separation(self):
        assert compute_eer([2.0, 3.0], [0.0, 1.0]) == 0.0

    def test_identical_sets(self):
        scores = [0.1, 0.5, 0.9]
        assert compute_eer(scores, scores) == 0.5

    def test_interleaved(self):
        assert compute_eer([1.0, 3.0], [2.0, 4.0]) == 0.5
        assert brute_force_eer([1.0, 3.0], [2.0, 4.0]) == 0.5

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n_t = int(rng.integers(1, 50))
            n_n = int(rng.integers(1, 50))
            targets = rng.normal(1, 1, n_t)
            nontargets = rng.normal(0, 1, n_n)
            assert compute_eer(targets, nontargets) == brute_force_eer(
                targets, nontargets
            )

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            targets = np.round(rng.normal(1, 1, int(rng.integers(1, 50))))
            nontargets = np.round(rng.normal(0, 1, int(rng.integers(1, 50))))
            assert compute_eer(targets, nontargets) == brute_force_eer(
                targets, nontargets
            )

    def test_empty_scores(self):
        with pytest.raises(EmptyScoreSet):
            compute_eer([], [1.0])

    @pytest.mark.parametrize("targets, nontargets", [
        ([1.0, np.nan], [0.0, 0.5]), ([np.nan], [np.nan]), ([0.0], [1.0, np.nan]),
        ([np.inf, np.nan], [-np.inf])])
    def test_nan_score_is_a_domain_error(self, targets, nontargets):
        # NaN has no place among the thresholds: sorted last, it read as the highest score
        for sweep in (compute_eer, det_points):
            with pytest.raises(NanScore, match="NaN"):
                sweep(targets, nontargets)
        assert issubclass(NanScore, VoxidDomainError)

    def test_infinite_scores_keep_their_sorted_place(self):
        assert compute_eer([np.inf], [-np.inf]) == 0.0
        assert compute_eer([-np.inf], [np.inf]) == 1.0
        assert det_points([np.inf, 0.0], [-np.inf, 0.0]) == [(0.5, 0.0), (0.0, 0.5), (0.0, 1.0)]

    def test_same_for_any_input_type_and_order(self):
        rng = np.random.default_rng(36)
        pool = np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, np.inf])
        for _ in range(50):
            targets = rng.choice(pool, int(rng.integers(1, 20)))
            nontargets = rng.choice(pool, int(rng.integers(1, 20)))
            expected = compute_eer(targets, nontargets)
            assert expected == brute_force_eer(targets, nontargets)
            for convert in (list, tuple, lambda a: (float(v) for v in a), np.array,
                            lambda a: rng.permutation(a), lambda a: rng.permutation(a).tolist()):
                assert compute_eer(convert(targets), convert(nontargets)) == expected


class TestDetPoints:
    def test_perfect_separation_contains_origin(self):
        points = det_points([2.0, 3.0], [0.0, 1.0])
        assert (0.0, 0.0) in points

    def test_single_pair_sweep(self):
        points = det_points([1.0], [0.0])
        assert points == [(0.0, 0.0), (0.0, 1.0)]

    def test_matches_a_brute_force_sweep_with_ties_and_infinities(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            pool = np.concatenate([np.round(rng.normal(0, 2, 6)), [-np.inf, np.inf]])
            targets = rng.choice(pool, int(rng.integers(1, 40)))
            nontargets = rng.choice(pool, int(rng.integers(1, 40)))
            expected = [(float((nontargets > t).mean()), float((targets <= t).mean()))
                        for t in np.unique(np.concatenate([targets, nontargets]))]
            assert det_points(targets, nontargets) == expected

    def test_monotone(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            points = det_points(rng.normal(1, 1, 15), rng.normal(0, 1, 15))
            fars = [p[0] for p in points]
            frrs = [p[1] for p in points]
            assert all(a >= b for a, b in zip(fars, fars[1:]))
            assert all(a <= b for a, b in zip(frrs, frrs[1:]))


def tiny_gmm(center):
    return DiagonalGmm(weights=[1.0], means=[[center]], variances=[[1.0]])


def registry_of(centers, ivectors=None):
    registry = SpeakerRegistry()
    for i, c in enumerate(centers):
        sid = f"s{i}"
        iv = IVector(np.asarray(ivectors[i], float)) if ivectors else None
        registry.add(RegistryEntry(
            speaker_id=sid, cluster_id="c0",
            model=SpeakerModel(speaker_id=sid, gmm=tiny_gmm(c)),
            ivector=iv,
        ))
    return registry


class TestIdentify:
    def test_own_speaker_ranks_first(self):
        rng = np.random.default_rng(11)
        registry = registry_of([-6.0, 0.0, 6.0])
        ubm = Ubm(gmm=tiny_gmm(0.0))
        feats = FeatureMatrix(rng.normal(6.0, 1.0, (50, 1)))
        policy = DecisionPolicy(threshold=1.0, mode="llr-normalized")
        result = identify(Trial(trial_id="t", test_features=feats,
                                true_speaker_id="s2"), registry, policy, ubm=ubm)
        assert result.ranked[0][0] == "s2"

    def test_cosine_exact_match_scores_one(self):
        registry = registry_of([0.0, 1.0], ivectors=[[1.0, 0.0], [0.0, 1.0]])
        policy = DecisionPolicy(threshold=0.5, mode="cosine")
        result = identify(
            Trial(trial_id="t", test_ivector=IVector(np.array([0.0, 2.0]))),
            registry, policy,
        )
        assert result.ranked[0][0] == "s1"
        assert result.ranked[0][2] == 1.0

    def test_normalized_peak_pattern(self):
        # only the true model's normalized score exceeds the 1.0 threshold
        rng = np.random.default_rng(12)
        registry = registry_of([5.0, -3.0, 6.0, 7.0, 8.0, 9.0])
        ubm = Ubm(gmm=tiny_gmm(0.0))
        feats = FeatureMatrix(rng.normal(-3.0, 1.0, (80, 1)))
        policy = DecisionPolicy(threshold=1.0, mode="llr-normalized")
        result = identify(Trial(trial_id="t", test_features=feats,
                                true_speaker_id="s1"), registry, policy, ubm=ubm)
        accepted = [sid for sid, _, norm, acc in result.ranked if acc]
        assert accepted == ["s1"]

    def test_ranking_invariant_under_registry_order(self):
        rng = np.random.default_rng(13)
        feats = FeatureMatrix(rng.normal(0.0, 2.0, (30, 1)))
        ubm = Ubm(gmm=tiny_gmm(0.0))
        policy = DecisionPolicy(threshold=1.0, mode="llr-normalized")
        fwd = registry_of([-4.0, 0.0, 4.0])
        rev = SpeakerRegistry(entries=list(reversed(fwd.entries)))
        a = identify(Trial(trial_id="t", test_features=feats), fwd, policy, ubm=ubm)
        b = identify(Trial(trial_id="t", test_features=feats), rev, policy, ubm=ubm)
        assert [r[0] for r in a.ranked] == [r[0] for r in b.ranked]

    def test_equal_cosine_scores_rank_by_id(self):
        # registry order s3, s2, s0, s1; s2 and s0 score 1.0, s3 and s1 score 0.0
        registry = SpeakerRegistry()
        for sid, iv in [("s3", [0.0, 1.0]), ("s2", [2.0, 0.0]), ("s0", [1.0, 0.0]),
                        ("s1", [0.0, 3.0])]:
            registry.add(RegistryEntry(speaker_id=sid, cluster_id="c0",
                                       model=SpeakerModel(speaker_id=sid, gmm=tiny_gmm(0.0)),
                                       ivector=IVector(np.array(iv))))
        policy = DecisionPolicy(threshold=0.5, mode="cosine")
        result = identify(Trial(trial_id="t", test_ivector=IVector(np.array([1.0, 0.0]))),
                          registry, policy)
        assert [(sid, norm) for sid, _, norm, _ in result.ranked] == [
            ("s0", 1.0), ("s2", 1.0), ("s1", 0.0), ("s3", 0.0)]

    def test_empty_registry(self):
        policy = DecisionPolicy(threshold=1.0, mode="llr-normalized")
        with pytest.raises(EmptyRegistry):
            identify(Trial(trial_id="t"), SpeakerRegistry(), policy)

    def test_mode_mismatch(self):
        registry = registry_of([0.0])  # no i-vectors
        policy = DecisionPolicy(threshold=0.5, mode="cosine")
        with pytest.raises(ModeMismatch):
            identify(Trial(trial_id="t", test_ivector=IVector(np.ones(2))),
                     registry, policy)
        # one entry of several lacks its i-vector
        registry = SpeakerRegistry()
        for sid, iv in [("s0", IVector(np.ones(2))), ("s1", None), ("s2", IVector(np.ones(2)))]:
            registry.add(RegistryEntry(speaker_id=sid, cluster_id="c0", ivector=iv,
                                       model=SpeakerModel(speaker_id=sid, gmm=tiny_gmm(0.0))))
        with pytest.raises(ModeMismatch, match="lack i-vectors"):
            identify(Trial(trial_id="t", test_ivector=IVector(np.ones(2))), registry, policy)

    def test_duplicate_speaker(self):
        registry = registry_of([0.0])
        with pytest.raises(DuplicateSpeakerId):
            registry.add(registry.entries[0])

    def test_llr_matches_per_model_passes(self):
        rng = np.random.default_rng(14)
        ubm, registry = adapted_registry(rng, speakers=12, components=16, dim=6)
        feats = FeatureMatrix(rng.normal(0, 1, (200, 6)))
        policy = DecisionPolicy(threshold=1.0, mode="llr-normalized")
        result = identify(Trial(trial_id="t", test_features=feats), registry, policy, ubm=ubm)
        ubm_ll = sequence_log_likelihood(feats, ubm.gmm)
        for sid, raw, _, _ in result.ranked:
            expected = sequence_log_likelihood(feats, registry.get(sid).model.gmm) - ubm_ll
            assert abs(raw - expected) <= 1e-9 * abs(ubm_ll)

    def test_llr_decision_is_the_z_score_over_the_trials_own_scores(self):
        rng = np.random.default_rng(16)
        ubm, registry = adapted_registry(rng, speakers=7, components=8, dim=4)
        policy = DecisionPolicy(threshold=1.0, mode="llr-normalized")
        for i in range(3):
            feats = FeatureMatrix(rng.normal(0, 1, (60, 4)))
            result = identify(Trial(trial_id=f"t{i}", test_features=feats), registry, policy,
                              ubm=ubm)
            # the trial's raw scores in registry order, as identify pooled them
            raw_of = {sid: raw for sid, raw, _, _ in result.ranked}
            raw = np.array([raw_of[e.speaker_id] for e in registry.entries])
            cohort = cohort_from_scores(raw)
            assert cohort == CohortStats(float(raw.mean()), float(raw.std(ddof=1)))
            for _, raw_s, norm_s, _ in result.ranked:
                assert norm_s == normalize_score(raw_s, cohort)

    def test_llr_one_entry_registry_has_no_cohort(self):
        policy = DecisionPolicy(threshold=1.0, mode="llr-normalized")
        with pytest.raises(DegenerateCohort):
            identify(Trial(trial_id="t", test_features=FeatureMatrix(np.zeros((4, 1)))),
                     registry_of([0.0]), policy, ubm=Ubm(gmm=tiny_gmm(0.0)))

    def test_llr_entry_of_other_dimension(self):
        registry = registry_of([0.0, 1.0])
        registry.add(RegistryEntry(speaker_id="wide", cluster_id="c0", model=SpeakerModel(
            speaker_id="wide", gmm=DiagonalGmm(weights=[1.0], means=[[0.0, 0.0]],
                                               variances=[[1.0, 1.0]]))))
        policy = DecisionPolicy(threshold=1.0, mode="llr-normalized")
        with pytest.raises(DimensionMismatch):
            identify(Trial(trial_id="t", test_features=FeatureMatrix(np.zeros((4, 1)))),
                     registry, policy, ubm=Ubm(gmm=tiny_gmm(0.0)))

    def test_llr_memory_is_bounded_by_the_stack(self):
        frames_l, components, speakers = 2_000, 64, 200
        rng = np.random.default_rng(15)
        ubm, registry = adapted_registry(rng, speakers=speakers, components=components, dim=20)
        feats = FeatureMatrix(rng.normal(0, 1, (frames_l, 20)))
        policy = DecisionPolicy(threshold=1.0, mode="llr-normalized")
        tracemalloc.start()
        try:
            identify(Trial(trial_id="t", test_features=feats), registry, policy, ubm=ubm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one (L, N * l) stack of every model would need L * 12 864 * 8 bytes
        assert peak < 4 * frames_l * BLOCK * 8

    def test_cosine_matches_cosine_score(self):
        rng = np.random.default_rng(16)
        vectors = rng.normal(0, 1, (9, 5)).tolist()
        registry = registry_of([0.0] * 9, ivectors=vectors)
        test = IVector(rng.normal(0, 1, 5))
        policy = DecisionPolicy(threshold=0.2, mode="cosine")
        result = identify(Trial(trial_id="t", test_ivector=test), registry, policy)
        for sid, raw, norm, _ in result.ranked:
            assert raw == norm
            assert abs(raw - cosine_score(registry.get(sid).ivector, test)) < 1e-15

    @pytest.mark.parametrize("zero", ["test", "target"])
    def test_cosine_zero_vector(self, zero):
        vectors = [[1.0, 0.0], [0.0, 0.0] if zero == "target" else [0.5, 0.5]]
        registry = registry_of([0.0, 1.0], ivectors=vectors)
        test = IVector(np.zeros(2) if zero == "test" else np.ones(2))
        policy = DecisionPolicy(threshold=0.5, mode="cosine")
        with pytest.raises(ZeroVector):
            identify(Trial(trial_id="t", test_ivector=test), registry, policy)

    def test_cosine_length_mismatch(self):
        registry = registry_of([0.0, 1.0], ivectors=[[1.0, 0.0], [0.0, 1.0]])
        policy = DecisionPolicy(threshold=0.5, mode="cosine")
        with pytest.raises(DimensionMismatch):
            identify(Trial(trial_id="t", test_ivector=IVector(np.ones(3))), registry, policy)

    def test_cosine_targets_stacked_once_until_an_ivector_changes(self, monkeypatch):
        stacks = []

        def counting(ivectors):
            stacks.append(list(ivectors))
            return cosine_targets(ivectors)

        monkeypatch.setattr(scoring, "cosine_targets", counting)
        rng = np.random.default_rng(17)
        registry = registry_of([0.0] * 4, ivectors=rng.normal(0, 1, (4, 5)).tolist())
        policy = DecisionPolicy(threshold=0.2, mode="cosine")

        def scores(test):
            result = identify(Trial(trial_id="t", test_ivector=test), registry, policy)
            return {sid: raw for sid, raw, _, _ in result.ranked}

        def expected(test):
            # new IVector objects, which share no slot, stacked by the unspied build
            copies = [IVector(e.ivector.w) for e in registry.entries]
            with monkeypatch.context() as patch:
                patch.setattr(scoring, "cosine_targets", cosine_targets)
                return dict(zip([e.speaker_id for e in registry.entries],
                                cosine_scores(copies, test).tolist()))

        tests = [IVector(w) for w in rng.normal(0, 1, (3, 5))]
        for test in tests:
            assert scores(test) == expected(test)
        assert len(stacks) == 1
        registry.entries[2].ivector = IVector(rng.normal(0, 1, 5))  # equal length, new object
        assert scores(tests[0]) == expected(tests[0])
        registry.add(RegistryEntry(speaker_id="s4", cluster_id="c0", model=registry.get("s0").model,
                                   ivector=IVector(rng.normal(0, 1, 5))))
        assert scores(tests[1]) == expected(tests[1])
        registry.entries[:] = registry.entries[::-1]  # the same objects, in another order
        assert scores(tests[2]) == expected(tests[2])
        assert [len(ivectors) for ivectors in stacks] == [4, 4, 5, 5]

    def test_cosine_ignores_later_writes_to_enrolled_arrays(self):
        rng = np.random.default_rng(18)
        vectors = rng.normal(0, 1, (4, 5))
        registry = SpeakerRegistry()
        for i, w in enumerate(vectors):  # each IVector is given a writeable row of vectors
            registry.add(RegistryEntry(speaker_id=f"s{i}", cluster_id="c0",
                                       model=SpeakerModel(speaker_id=f"s{i}", gmm=tiny_gmm(0.0)),
                                       ivector=IVector(w)))
        test = IVector(rng.normal(0, 1, 5))
        policy = DecisionPolicy(threshold=0.2, mode="cosine")
        trial = Trial(trial_id="t", test_ivector=test)
        first = identify(trial, registry, policy)  # stacks the targets in s0's slot
        vectors[1] *= -1.0
        again = identify(trial, registry, policy)
        assert again == first
        copies = [IVector(e.ivector.w.copy()) for e in registry.entries]
        assert {sid: raw for sid, raw, _, _ in again.ranked} == dict(
            zip([e.speaker_id for e in registry.entries], cosine_scores(copies, test).tolist()))


def raw_llr(feats, entries, ubm):
    """Raw LLR as its own decision score: a backend made of public scoring functions."""
    if ubm is None:
        raise ModeMismatch("raw LLR needs a UBM")
    raw = llr_scores(feats, [e.model for e in entries], ubm)
    return raw, raw


class TestBackendTable:
    """A new scoring mode is one `scoring.BACKENDS` row: the decision policy, identify and
    summarize take it with no other edit."""

    @pytest.fixture
    def raw_llr_row(self, monkeypatch):
        monkeypatch.setitem(scoring.BACKENDS, "raw-llr", ("features", raw_llr, (-50.0, 50.0)))

    def test_policy_takes_the_row_and_its_threshold_range(self, raw_llr_row):
        for threshold in (-50.0, 0.0, 50.0):
            assert DecisionPolicy(threshold=threshold, mode="raw-llr").mode == "raw-llr"
        for threshold in (-50.5, 50.5, np.inf, np.nan):
            with pytest.raises(ValueError):
                DecisionPolicy(threshold=threshold, mode="raw-llr")

    def test_identify_and_summarize_run_through_the_row(self, raw_llr_row):
        rng = np.random.default_rng(38)
        centers = [-6.0, 0.0, 6.0]
        registry, ubm = registry_of(centers), Ubm(gmm=tiny_gmm(0.0))
        policy = DecisionPolicy(threshold=0.0, mode="raw-llr")
        trials = [Trial(trial_id=f"t{i}", true_speaker_id=f"s{i}",
                        test_features=FeatureMatrix(rng.normal(c, 1.0, (50, 1))))
                  for i, c in enumerate(centers)]
        results = [identify(trial, registry, policy, ubm=ubm) for trial in trials]
        for trial, result in zip(trials, results):
            expected = llr_scores(trial.test_features, [e.model for e in registry.entries], ubm)
            got = {sid: (raw, norm, accepted) for sid, raw, norm, accepted in result.ranked}
            for entry, score in zip(registry.entries, expected.tolist()):
                assert got[entry.speaker_id] == (score, score, score > 0.0)
            assert result.ranked[0][0] == trial.true_speaker_id
        report = summarize(results, policy.threshold, policy.mode)
        assert report.mode == "raw-llr" and report.top1_accuracy == 1.0
        pooled = [(sid == r.true_speaker_id, raw) for r in results for sid, raw, _, _ in r.ranked]
        assert report.eer == compute_eer([s for target, s in pooled if target],
                                         [s for target, s in pooled if not target])

    def test_missing_inputs_are_mode_mismatches(self, raw_llr_row):
        registry = registry_of([0.0, 1.0])
        policy = DecisionPolicy(threshold=0.0, mode="raw-llr")
        with pytest.raises(ModeMismatch, match="test_features"):
            identify(Trial(trial_id="t", test_ivector=IVector(np.ones(2))), registry, policy,
                     ubm=Ubm(gmm=tiny_gmm(0.0)))
        with pytest.raises(ModeMismatch, match="UBM"):
            identify(Trial(trial_id="t", test_features=FeatureMatrix(np.zeros((5, 1)))),
                     registry, policy)

    def test_a_mode_without_a_row_is_unknown(self):
        with pytest.raises(ValueError, match="unknown scoring mode"):
            DecisionPolicy(threshold=0.0, mode="raw-llr")


class TestRegistryIndex:
    """SpeakerRegistry finds ids through an index instead of scanning every entry."""

    @staticmethod
    def entry(speaker_id, model):
        return RegistryEntry(speaker_id=speaker_id, cluster_id="c0", model=model)

    def test_many_adds_are_not_quadratic(self):
        model = SpeakerModel(speaker_id="shared", gmm=tiny_gmm(0.0))
        registry = SpeakerRegistry()
        start = time.perf_counter()
        for i in range(10_000):
            registry.add(self.entry(f"s{i:05d}", model))
        elapsed = time.perf_counter() - start
        assert len(registry) == 10_000 and registry.get("s07777").speaker_id == "s07777"
        # a scan per add makes 5e7 comparisons, several seconds
        assert elapsed < 0.5
        with pytest.raises(DuplicateSpeakerId):
            registry.add(self.entry("s00042", model))
        assert len(registry) == 10_000

    def test_entries_given_or_appended_directly_are_seen(self):
        model = SpeakerModel(speaker_id="shared", gmm=tiny_gmm(0.0))
        first = self.entry("a", model)
        registry = SpeakerRegistry(entries=[first, self.entry("b", model)])
        assert registry.get("a") is first
        with pytest.raises(DuplicateSpeakerId):
            registry.add(self.entry("b", model))
        appended = self.entry("c", model)
        registry.entries.append(appended)
        assert registry.get("c") is appended
        with pytest.raises(DuplicateSpeakerId):
            registry.add(self.entry("c", model))
        # an id appended twice to the list: the first entry wins, as a scan would find it
        registry.entries.append(self.entry("a", model))
        registry.entries.append(self.entry("d", model))
        assert registry.get("a") is first and registry.get("d").speaker_id == "d"
        with pytest.raises(KeyError):
            registry.get("missing")

    @pytest.mark.parametrize("change", ["delete", "truncate", "clear", "reorder"])
    def test_index_follows_changes_to_the_list(self, change):
        model = SpeakerModel(speaker_id="shared", gmm=tiny_gmm(0.0))
        registry = SpeakerRegistry()
        for sid in "abc":
            registry.add(self.entry(sid, model))
        registry.entries.append(self.entry("a", model))  # "a" twice: a scan finds the first
        registry.get("a")  # every entry is indexed
        if change == "delete":
            del registry.entries[0]
        elif change == "truncate":
            del registry.entries[2:]
        elif change == "clear":
            b = registry.entries[1]
            registry.entries.clear()
            registry.entries.append(self.entry("d", model))
            registry.entries.append(b)
        else:
            registry.entries.reverse()
        for sid in "abcde":
            first = next((e for e in registry.entries if e.speaker_id == sid), None)
            if first is None:
                with pytest.raises(KeyError):
                    registry.get(sid)
                added = self.entry(sid, model)
                registry.add(added)
                assert registry.get(sid) is added
            else:
                assert registry.get(sid) is first
                with pytest.raises(DuplicateSpeakerId):
                    registry.add(self.entry(sid, model))

    def test_index_is_not_in_repr_or_equality(self):
        model = SpeakerModel(speaker_id="shared", gmm=tiny_gmm(0.0))
        entries = [self.entry("a", model), self.entry("b", model)]
        looked_up, fresh = SpeakerRegistry(entries=list(entries)), SpeakerRegistry(list(entries))
        looked_up.get("b")
        assert looked_up == fresh and repr(looked_up) == repr(fresh)
        assert repr(fresh) == f"SpeakerRegistry(entries={entries!r})"


class TestStackReuse:
    """LLR trials against one registry and UBM share one stack of kernel blocks, and a
    changed registry or UBM is scored as a freshly built pass would score it."""

    POLICY = DecisionPolicy(threshold=1.0, mode="llr-normalized")

    def test_trials_against_one_registry_build_the_stack_once(self, monkeypatch):
        rng = np.random.default_rng(17)
        ubm, registry = adapted_registry(rng, speakers=6, components=8, dim=4)
        build, calls = gmm_module._coefficients, []

        def spy(*args):
            calls.append(args[0].shape)
            return build(*args)

        monkeypatch.setattr(gmm_module, "_coefficients", spy)
        for j in range(5):
            trial = Trial(trial_id=f"t{j}", test_features=FeatureMatrix(rng.normal(0, 1, (50, 4))))
            identify(trial, registry, self.POLICY, ubm=ubm)
        assert calls == [(7 * 8, 4)]

    def test_changes_equal_fresh_passes(self):
        rng = np.random.default_rng(18)
        ubm, registry = adapted_registry(rng, speakers=5, components=8, dim=4)
        other_ubm, others = adapted_registry(rng, speakers=2, components=8, dim=4)
        feats = FeatureMatrix(rng.normal(0, 1, (60, 4)))

        def fresh(model):
            return DiagonalGmm(weights=model.weights.copy(), means=model.means.copy(),
                               variances=model.variances.copy())

        def check(ubm):
            result = identify(Trial(trial_id="t", test_features=feats), registry, self.POLICY,
                              ubm=ubm)
            raw = {sid: score for sid, score, _, _ in result.ranked}
            expected = llr_scores(feats, [SpeakerModel(speaker_id=e.speaker_id,
                                                       gmm=fresh(e.model.gmm))
                                          for e in registry.entries], Ubm(gmm=fresh(ubm.gmm)))
            assert [raw[e.speaker_id] for e in registry.entries] == expected.tolist()

        check(ubm)
        registry.add(replace(others.entries[0], speaker_id="new"))  # an appended entry
        check(ubm)
        registry.entries[1].model = others.entries[1].model         # a replaced model
        check(ubm)
        check(other_ubm)                                            # another UBM
        check(ubm)


def adapted_registry(rng, speakers, components, dim):
    """A UBM and speakers whose means are offset from it, sharing its weights and variances."""
    weights = rng.uniform(0.1, 1.0, components)
    ubm = DiagonalGmm(weights=weights / weights.sum(), means=rng.normal(0, 0.5, (components, dim)),
                      variances=rng.uniform(0.5, 1.5, (components, dim)))
    registry = SpeakerRegistry()
    for i in range(speakers):
        gmm = DiagonalGmm(weights=ubm.weights, variances=ubm.variances,
                          means=ubm.means + rng.normal(0, 0.2, ubm.means.shape))
        registry.add(RegistryEntry(speaker_id=f"s{i:03d}", cluster_id="c0",
                                   model=SpeakerModel(speaker_id=f"s{i:03d}", gmm=gmm)))
    return Ubm(gmm=ubm), registry


def oracle_summary(results):
    """FA, FR, EER and top-1 by summarize's docstring, one rule at a time."""
    fa = sum(any(acc for sid, _, _, acc in res.ranked if sid != res.true_speaker_id)
             for res in results)
    enrolled = [res for res in results if res.true_speaker_id is not None
                and res.true_speaker_id in [sid for sid, _, _, _ in res.ranked]]
    fr = sum(not any(acc for sid, _, _, acc in res.ranked if sid == res.true_speaker_id)
             for res in enrolled)
    targets = [norm for res in enrolled for sid, _, norm, _ in res.ranked
               if sid == res.true_speaker_id]
    nontargets = [norm for res in results for sid, _, norm, _ in res.ranked
                  if sid != res.true_speaker_id]
    eer = float(brute_force_eer(targets, nontargets)) if targets and nontargets else 0.0
    hits = sum(res.ranked[0][0] == res.true_speaker_id for res in enrolled)
    top1 = hits / len(enrolled) if enrolled else 0.0
    return fa, fr, eer, top1


def llr_case():
    """Three one-dimensional speakers, a trial from each, and the UBM they score against."""
    rng = np.random.default_rng(14)
    trials = [Trial(trial_id=f"t{i}", true_speaker_id=f"s{i}",
                    test_features=FeatureMatrix(rng.normal(center, 1.5, (40, 1))))
              for i, center in enumerate([-6.0, 0.0, 6.0])]
    return trials, registry_of([-6.0, 0.0, 6.0]), "llr-normalized", Ubm(gmm=tiny_gmm(0.0))


def cosine_case():
    """Three enrolled i-vectors and a trial near each."""
    registry = registry_of([0.0] * 3, ivectors=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    trials = [Trial(trial_id=f"t{i}", true_speaker_id=f"s{i}", test_ivector=IVector(np.array(w)))
              for i, w in enumerate([[1.0, 0.2], [0.1, 1.0], [0.7, 0.8]])]
    return trials, registry, "cosine", None


class TestSummarize:
    def test_matches_the_oracle_on_random_rankings(self):
        # repeated ids, None truths, truths not enrolled, empty rankings and tied scores
        rng = np.random.default_rng(24)
        ids = ["a", "b", "c", "d"]
        for _ in range(500):
            results = []
            for t in range(int(rng.integers(0, 6))):
                ranked = [(str(rng.choice(ids)), 0.0, float(rng.integers(-3, 4)) / 2,
                           bool(rng.random() < 0.4)) for _ in range(int(rng.integers(0, 6)))]
                truth = [None, "zz", *ids][int(rng.integers(0, 6))]
                results.append(TrialResult(f"t{t}", truth, ranked))
            report = summarize(results, 0.5, "cosine")
            got = (report.false_accepts, report.false_rejects, report.eer, report.top1_accuracy)
            assert got == oracle_summary(results)
            assert [type(v) for v in got] == [int, int, float, float]
            assert report.per_trial is results

    def test_matches_the_oracle_on_continuous_and_infinite_scores(self):
        # the scores of real rankings: mostly distinct, some infinite, sorted high first
        rng = np.random.default_rng(38)
        ids = [f"s{i}" for i in range(12)]
        for _ in range(100):
            results = []
            for t in range(int(rng.integers(1, 30))):
                scores = rng.normal(0, 1, int(rng.integers(1, 15)))
                scores[rng.random(scores.size) < 0.05] = np.inf
                scores[rng.random(scores.size) < 0.05] = -np.inf
                scores = np.sort(scores)[::-1]
                ranked = [(str(rng.choice(ids)), 0.0, float(s), bool(s > 0.5)) for s in scores]
                truth = [None, "absent", ranked[0][0], *ids][int(rng.integers(0, 15))]
                results.append(TrialResult(f"t{t}", truth, ranked))
            report = summarize(results, 0.5, "cosine")
            assert (report.false_accepts, report.false_rejects, report.eer,
                    report.top1_accuracy) == oracle_summary(results)

    def test_nan_score_is_a_domain_error_not_a_perfect_eer(self):
        results = [TrialResult("t0", "a", [("a", 0.0, np.nan, False), ("b", 0.0, 0.0, False)])]
        with pytest.raises(NanScore):
            summarize(results, 0.5, "cosine")

    def test_empty_results(self):
        report = summarize([], 1.0, "llr-normalized")
        assert report.false_accepts == 0 and report.false_rejects == 0
        assert report.top1_accuracy == 0.0

    def test_threshold_monotonicity(self):
        trials, registry, mode, ubm = llr_case()
        prev_fa, prev_fr = None, None
        thresholds = (-1.0, 0.0, 1.0, 2.0)
        reports = evaluate_trials(trials, registry, mode, thresholds, ubm=ubm)
        assert [report.threshold for report in reports] == list(thresholds)
        for report in reports:
            if prev_fa is not None:
                assert report.false_accepts <= prev_fa
                assert report.false_rejects >= prev_fr
            prev_fa, prev_fr = report.false_accepts, report.false_rejects

    def test_csv_rows(self):
        registry = registry_of([0.0, 1.0], ivectors=[[1.0, 0.0], [0.0, 1.0]])
        policy = DecisionPolicy(threshold=0.5, mode="cosine")
        result = identify(
            Trial(trial_id="t0", test_ivector=IVector(np.array([1.0, 0.1]))),
            registry, policy,
        )
        csv_text = report_to_csv(summarize([result], 0.5, "cosine"))
        lines = csv_text.strip().split("\n")
        assert lines[0] == "trial_id,speaker_id,raw_score,normalized_score,decision"
        assert len(lines) == 3


class TestEvaluateTrials:
    @pytest.mark.parametrize("case, thresholds", [(llr_case, (0.0, 1.0)),
                                                  (cosine_case, (0.5, 0.9))],
                             ids=["llr", "cosine"])
    def test_each_report_summarizes_identify_at_its_threshold(self, case, thresholds):
        trials, registry, mode, ubm = case()
        reports = evaluate_trials(trials, registry, mode, thresholds, ubm=ubm)
        assert len(reports) == 2
        for report, threshold in zip(reports, thresholds):
            policy = DecisionPolicy(threshold=threshold, mode=mode)
            results = [identify(trial, registry, policy, ubm=ubm) for trial in trials]
            assert report == summarize(results, threshold, mode)
        decisions = [[[accepted for *_, accepted in res.ranked] for res in report.per_trial]
                     for report in reports]
        assert decisions[0] != decisions[1]

    @pytest.mark.parametrize("case", [llr_case, cosine_case], ids=["llr", "cosine"])
    @pytest.mark.parametrize("thresholds", [(0.5,), (0.1, 0.5, 0.9)], ids=["one", "three"])
    def test_scores_each_trial_once_whatever_the_thresholds(self, monkeypatch, case,
                                                             thresholds):
        trials, registry, mode, ubm = case()
        kind, score, limits = scoring.BACKENDS[mode]
        calls = []

        def counting(*args):
            calls.append(args[0])
            return score(*args)

        monkeypatch.setitem(scoring.BACKENDS, mode, (kind, counting, limits))
        reports = evaluate_trials(trials, registry, mode, thresholds, ubm=ubm)
        assert len(reports) == len(thresholds)
        assert len(calls) == len(trials)

    def test_no_threshold_is_refused_before_any_scoring(self, monkeypatch):
        trials, registry, mode, ubm = llr_case()
        kind, _, limits = scoring.BACKENDS[mode]

        def refusing(*args):
            raise AssertionError("a trial was scored")

        monkeypatch.setitem(scoring.BACKENDS, mode, (kind, refusing, limits))
        with pytest.raises(ValueError, match="threshold"):
            evaluate_trials(trials, registry, mode, [], ubm=ubm)


class TestExperiment:
    def test_config_parsing(self):
        cfg = parse_experiment_config(
            "mode = cosine\nseed = 3\nthresholds = 0.5, 0.7\n# comment\n"
        )
        assert cfg.mode == "cosine" and cfg.seed == 3
        assert cfg.thresholds == (0.5, 0.7)

        common = dict(
            seed=0, num_true_speakers=12, num_impostors=3, num_clusters=3,
            feature_dim=8, ubm_components=16, ubm_frames=8000, enroll_frames=3000,
            test_frames=1000, speaker_spread=1.0,
        )
        expected = {
            "stage1": ExperimentConfig(mode="llr", relevance=16.0, thresholds=(1.0, 1.5),
                                       **common),
            "stage2": ExperimentConfig(mode="cosine", thresholds=(0.5,), tv_rank=8,
                                       tv_iterations=5, tv_chunk_frames=300,
                                       cosine_target_true=4, cosine_target_impostors=3,
                                       **common),
        }
        paper = dict(
            seed=1, num_true_speakers=100, num_impostors=10, num_clusters=3, feature_dim=39,
            ubm_components=256, ubm_frames=100_000, enroll_frames=3000, test_frames=1000,
            speaker_spread=0.1, relevance=16.0,
        )
        expected["paper-llr"] = ExperimentConfig(mode="llr", thresholds=(2.1, 4.0), **paper)
        expected["paper-cosine"] = ExperimentConfig(
            mode="cosine", thresholds=(0.19, 0.29), tv_rank=100, tv_iterations=3,
            tv_chunk_frames=1000, cosine_target_true=100, cosine_target_impostors=10, **paper)
        for stage, config in expected.items():
            path = DEMOS / f"experiment-{stage}.conf"
            assert parse_experiment_config(path.read_text()) == config

    def test_settings_keys_reject_an_unknown_annotation(self):
        @dataclass(frozen=True)
        class Listed:  # annotations are strings, as under `from __future__ import annotations`
            name: "str" = ""
            values: "list" = None

        assert settings_keys(Listed, exclude=("values",)) == {"name": str}
        with pytest.raises(KeyError, match="list"):
            settings_keys(Listed)

    def test_malformed_config(self):
        with pytest.raises(InvalidExperimentConfig):
            parse_experiment_config("mode cosine")
        with pytest.raises(InvalidExperimentConfig):
            parse_experiment_config("nonsense = 1")
        with pytest.raises(InvalidExperimentConfig):
            parse_experiment_config("mode = telepathy")

    def test_deterministic_reports(self):
        cfg = ExperimentConfig(
            mode="llr", num_true_speakers=3, num_impostors=1,
            ubm_components=4, ubm_frames=800, enroll_frames=400,
            test_frames=150, seed=5,
        )
        a = run_experiment(cfg)[0]
        b = run_experiment(cfg)[0]
        assert a.per_trial == b.per_trial
        assert a.top1_accuracy == b.top1_accuracy

    def test_small_llr_experiment(self):
        cfg = ExperimentConfig(
            mode="llr", num_true_speakers=4, num_impostors=2,
            ubm_components=4, ubm_frames=1500, enroll_frames=600,
            test_frames=200, seed=0,
        )
        report = run_experiment(cfg)[0]
        assert report.top1_accuracy == 1.0

    def test_cosine_stage_accumulates_each_utterance_once(self, monkeypatch):
        import voxid.experiment as experiment_module

        seen = []  # the frames of each pass, in call order
        passed = []  # the statistics each pass returned, in call order

        def counting(feats, ubm):
            seen.append(feats.frames)
            passed.append(accumulate_stats(feats, ubm))
            return passed[-1]

        monkeypatch.setattr(experiment_module, "accumulate_stats", counting)
        cfg = ExperimentConfig(
            mode="cosine", num_true_speakers=4, num_impostors=2, ubm_components=4,
            ubm_frames=800, enroll_frames=300, test_frames=100, tv_rank=2,
            tv_iterations=1, tv_chunk_frames=100, cosine_target_true=3,
            cosine_target_impostors=1,
        )
        run_experiment(cfg)
        # one pass per 100-frame enrollment piece, 3 per enrollment, and one per true
        # speaker's test, the fourth true speaker's too, though no trial reads it
        assert [len(frames) for frames in seen] == [100] * 22
        seen.clear()
        passed.clear()
        world = build_world(cfg)
        # the world keeps no frames: each enrollment is its three pieces, passed in order,
        # and each true speaker's test is its statistics, passed after its enrollment
        assert len(seen) == len(passed) == 3 * 6 + 4 == 22
        assert all(trial.test_features is None for trial in world.trials)
        sids = [f"spk{i:02d}" for i in range(4)] + ["imp00", "imp01"]
        sums, tests = [], {}
        for sid in sids:
            frames, pieces = np.vstack(seen[:3]), passed[:3]
            for piece, start in zip(pieces, (0, 100, 200)):
                expected = accumulate_stats(FeatureMatrix(frames[start:start + 100]), world.ubm)
                assert np.array_equal(piece.zeroth, expected.zeroth)
                assert np.array_equal(piece.first, expected.first)
            stats, whole = sum(pieces[1:], pieces[0]), accumulate_stats(FeatureMatrix(frames),
                                                                        world.ubm)
            assert np.max(np.abs(stats.zeroth - whole.zeroth)) < 1e-12
            assert np.max(np.abs(stats.first - whole.first)) < 1e-12
            sums.append(stats)
            del seen[:3], passed[:3]
            if sid.startswith("spk"):
                tests[sid] = passed.pop(0)
                test = accumulate_stats(FeatureMatrix(seen.pop(0)), world.ubm)
                assert np.array_equal(tests[sid].zeroth, test.zeroth)
                assert np.array_equal(tests[sid].first, test.first)
        assert not seen and not passed
        # each target's i-vector is its whole enrollment's, extracted with every entry's in
        # registry order, and each trial's is its test statistics'
        ivectors = dict(zip(sids, extract_ivectors(sums, world.tv_model)))
        assert [e.speaker_id for e in world.registry.entries] == [*sids[:3], "imp00"]
        for entry in world.registry.entries:
            assert np.array_equal(entry.ivector.w, ivectors[entry.speaker_id].w)
        assert [trial.true_speaker_id for trial in world.trials] == sids[:3]
        expected = extract_ivectors([tests[sid] for sid in sids[:3]], world.tv_model)
        for trial, ivector in zip(world.trials, expected, strict=True):
            assert np.array_equal(trial.test_ivector.w, ivector.w)
        # in LLR mode the whole enrollment is the one piece, and its MAP means are those
        # of the whole enrollment's statistics, bit for bit
        seen.clear()
        world = build_world(replace(cfg, mode="llr"))
        entries = world.registry.entries
        assert len(seen) == len(entries) == 6
        for frames, entry in zip(seen, entries):
            assert len(frames) == 300
            whole = accumulate_stats(FeatureMatrix(frames), world.ubm)
            model = map_adapt(whole, world.ubm, relevance=cfg.relevance,
                              speaker_id=entry.speaker_id)
            assert np.array_equal(entry.model.gmm.means, model.gmm.means)

    def test_world_holds_no_frames_past_their_last_reader(self):
        cfg = ExperimentConfig(
            mode="llr", num_true_speakers=4, num_impostors=2, feature_dim=8,
            ubm_components=4, ubm_frames=40_000, enroll_frames=20_000, test_frames=100,
        )
        enroll_bytes = 6 * cfg.enroll_frames * cfg.feature_dim * 8
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            world = build_world(cfg)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # models and test frames stay; the enrollment frames and statistics and the UBM
        # frames do not
        assert len(world.registry.entries) == 6
        assert after - before < enroll_bytes / 4

    def test_cosine_world_holds_tests_as_ivectors(self):
        cfg = ExperimentConfig(
            mode="cosine", num_true_speakers=4, num_impostors=2, feature_dim=8,
            ubm_components=4, ubm_frames=4_000, enroll_frames=1_000, test_frames=40_000,
            tv_rank=2, tv_chunk_frames=500, cosine_target_impostors=2, thresholds=(0.5,),
        )
        test_bytes = 4 * cfg.test_frames * cfg.feature_dim * 8
        bound = test_bytes / 4  # set before measuring
        build_world(replace(cfg, test_frames=100))  # the TV path's first-use imports
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            world = build_world(cfg)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # each true speaker's trial holds its rank-R i-vector, not its frames or statistics
        assert after - before < bound
        assert len(world.trials) == 4
        assert all(trial.test_features is None and trial.test_ivector.w.shape == (2,)
                   for trial in world.trials)

    def test_short_last_piece_enrolls_but_trains_no_tv(self, monkeypatch):
        import voxid.experiment as experiment_module

        trained_on = []

        def recording(stats_set, tv, iterations):
            trained_on.extend(float(stats.zeroth.sum()) for stats in stats_set)
            return train_tv(stats_set, tv, iterations)

        passed = []  # the statistics of each UBM pass, in call order

        def accumulating(feats, ubm):
            passed.append(accumulate_stats(feats, ubm))
            return passed[-1]

        monkeypatch.setattr(experiment_module, "train_tv", recording)
        monkeypatch.setattr(experiment_module, "accumulate_stats", accumulating)
        cfg = ExperimentConfig(
            mode="cosine", num_true_speakers=4, num_impostors=2, ubm_components=4,
            ubm_frames=800, enroll_frames=250, test_frames=100, tv_rank=2,
            tv_iterations=1, tv_chunk_frames=100, cosine_target_true=3,
            cosine_target_impostors=1,
        )
        world = build_world(cfg)
        sids, sums = [f"spk{i:02d}" for i in range(4)] + ["imp00", "imp01"], []
        for sid in sids:
            pieces = passed[:3]
            assert [p.zeroth.sum() for p in pieces] == pytest.approx([100.0, 100.0, 50.0])
            sums.append(sum(pieces[1:], pieces[0]))
            assert sums[-1].zeroth.sum() == pytest.approx(250.0)
            del passed[:3 + sid.startswith("spk")]  # a true speaker's test follows
        assert not passed
        # each target's i-vector is its whole enrollment's, short last piece included
        ivectors = dict(zip(sids, extract_ivectors(sums, world.tv_model)))
        assert len(world.registry.entries) == 4
        for entry in world.registry.entries:
            assert np.array_equal(entry.ivector.w, ivectors[entry.speaker_id].w)
        assert trained_on == pytest.approx([100.0] * 2 * 6)

    def test_world_cluster_assignment(self):
        cfg = ExperimentConfig(
            mode="llr", num_true_speakers=4, num_impostors=2, num_clusters=3,
            ubm_components=4, ubm_frames=800, enroll_frames=300, test_frames=100,
        )
        world = build_world(cfg)
        clusters = {e.cluster_id for e in world.registry.entries}
        assert clusters == {"cluster0", "cluster1", "cluster2"}
        assert sum(e.is_impostor for e in world.registry.entries) == 2

    def test_sampling_shape(self):
        gmm = tiny_gmm(0.0)
        feats = sample_from_gmm(gmm, 25, np.random.default_rng(0))
        assert feats.frames.shape == (25, 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_sampling_takes_one_root_per_component(self, seed):
        # sqrt is correctly rounded, so rooting each component's variances once and then
        # gathering gives the bits of rooting the gathered (n, k) variances
        gmm = _random_gmm(np.random.default_rng(seed), 64, 20)  # the worlds' UBM draw
        frames = sample_from_gmm(gmm, 15_000, np.random.default_rng(seed + 10)).frames
        rng = np.random.default_rng(seed + 10)
        comps = rng.choice(64, size=15_000, p=gmm.weights)
        noise = rng.standard_normal((15_000, 20))
        assert np.array_equal(frames, gmm.means[comps] + noise * np.sqrt(gmm.variances[comps]))
