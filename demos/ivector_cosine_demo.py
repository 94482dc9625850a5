"""Stage-2 style verification: total-variability subspace, i-vectors and
cosine scoring.

Trains a low-rank total-variability matrix on chunked enrollment data,
extracts one i-vector per speaker and per test utterance, then scores a
short target list (true speakers plus impostors) with the cosine measure.
"""

import numpy as np

from voxid.experiment import sample_from_gmm
from voxid.gmm import DiagonalGmm, GmmTrainingConfig
from voxid.scoring import cosine_scores
from voxid.speaker_models import accumulate_stats, train_ubm
from voxid.total_variability import extract_ivector, extract_ivectors, init_tv, train_tv

rng = np.random.default_rng(11)
DIM, COMPONENTS, RANK, N_SPEAKERS = 6, 8, 6, 4
SPREAD = 1.5

base = DiagonalGmm(
    weights=np.full(COMPONENTS, 1 / COMPONENTS),
    means=rng.normal(0, 2, (COMPONENTS, DIM)),
    variances=np.ones((COMPONENTS, DIM)),
)
ubm = train_ubm(
    [sample_from_gmm(base, 5000, rng)],
    GmmTrainingConfig(num_components=COMPONENTS, rng_seed=0),
)

# Per-speaker enrollment, chopped into short chunks so the subspace sees
# several sessions per speaker rather than one long one.
speakers = {}
chunks = []
for i in range(N_SPEAKERS):
    sid = f"spk{i}"
    truth = base.with_means(base.means + rng.normal(0, SPREAD, base.means.shape))
    speakers[sid] = truth
    enroll = sample_from_gmm(truth, 2400, rng)
    for start in range(0, enroll.count_L, 300):
        piece = enroll.__class__(enroll.frames[start:start + 300])
        chunks.append(accumulate_stats(piece, ubm))

tv = train_tv(chunks, init_tv(ubm, rank_R=RANK, rng_seed=0), iterations=5)
print(f"total-variability model: rank {RANK}, {len(chunks)} training chunks")

# Every enrollment's i-vector comes from one batched extraction.
enroll_stats = [accumulate_stats(sample_from_gmm(g, 2400, rng), ubm) for g in speakers.values()]
enrolled = dict(zip(speakers, extract_ivectors(enroll_stats, tv)))

# Target list: every true speaker once, plus impostors never enrolled.
print("\ncosine scores against each enrolled i-vector "
      "(threshold 0.5, '*' marks the true speaker):")
trials = [(sid, speakers[sid], True) for sid in speakers]
for j in range(3):
    ghost = base.with_means(base.means + rng.normal(0, SPREAD, base.means.shape))
    trials.append((f"imp{j}", ghost, False))

ids = sorted(enrolled)
for name, truth, is_true in trials:
    test_iv = extract_ivector(accumulate_stats(sample_from_gmm(truth, 800, rng), ubm), tv)
    row = []
    for sid, score in zip(ids, cosine_scores([enrolled[sid] for sid in ids], test_iv)):
        tag = "*" if is_true and sid == name else (">" if score > 0.5 else " ")
        row.append(f"{sid}:{score:6.3f}{tag}")
    print(f"  {name:<5} " + "  ".join(row))
