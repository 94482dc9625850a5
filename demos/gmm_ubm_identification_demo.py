"""Stage-1 style identification: UBM, MAP-adapted speaker models and
cohort-normalized log-likelihood ratios.

Builds a handful of synthetic speakers as perturbations of a shared
background model, enrolls them, then identifies a fresh test utterance
from each and prints the normalized score bars the decision threshold
operates on.
"""

import numpy as np

from voxid.evaluation import RegistryEntry, SpeakerRegistry, Trial, evaluate_trials
from voxid.experiment import sample_from_gmm
from voxid.features import FeatureMatrix
from voxid.gmm import DiagonalGmm, GmmTrainingConfig
from voxid.speaker_models import accumulate_stats, map_adapt, train_ubm

rng = np.random.default_rng(7)
DIM, COMPONENTS, N_SPEAKERS = 6, 8, 5

base = DiagonalGmm(
    weights=np.full(COMPONENTS, 1 / COMPONENTS),
    means=rng.normal(0, 2, (COMPONENTS, DIM)),
    variances=np.ones((COMPONENTS, DIM)),
)

pooled = sample_from_gmm(base, 5000, rng)
ubm = train_ubm([pooled], GmmTrainingConfig(num_components=COMPONENTS, rng_seed=0))
print(f"UBM trained on {pooled.count_L} pooled frames")

registry = SpeakerRegistry()
truths = {}
for i in range(N_SPEAKERS):
    sid = f"speaker-{i}"
    truth = base.with_means(base.means + rng.normal(0, 1.0, base.means.shape))
    truths[sid] = truth
    enroll = sample_from_gmm(truth, 2000, rng)
    model = map_adapt(accumulate_stats(enroll, ubm), ubm, relevance=16.0, speaker_id=sid)
    registry.add(RegistryEntry(speaker_id=sid, cluster_id=f"c{i % 2}", model=model))
print(f"enrolled {len(registry)} speakers in 2 clusters\n")

trials = [Trial(trial_id=f"test-{sid}", test_features=sample_from_gmm(truth, 800, rng),
                true_speaker_id=sid) for sid, truth in truths.items()]
report = evaluate_trials(trials, registry, "llr-normalized", [1.0], ubm=ubm)[0]
for result in report.per_trial:
    print(f"test utterance from {result.true_speaker_id}:")
    for rank_sid, _, norm, accepted in result.ranked:
        bar = "#" * max(0, int(10 * norm))
        mark = " <-- accept" if accepted else ""
        print(f"  {rank_sid:<11} {norm:6.2f} {bar}{mark}")
    print()

print(f"top-1 accuracy {report.top1_accuracy:.2f}, "
      f"false accepts {report.false_accepts}, false rejects {report.false_rejects}")
