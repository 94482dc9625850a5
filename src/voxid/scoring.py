"""Scoring backends: UBM-normalized log-likelihood ratios with cohort
z-style normalization, and cosine scoring of latent-factor vectors with
its Bhattacharyya-coefficient interpretation. `BACKENDS` has one row per
scoring mode, and no other module tests a mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCohort,
    DimensionMismatch,
    ModeMismatch,
    NotADistribution,
    ZeroVector,
)
from .features import FeatureMatrix
from .gmm import _reused, sequence_log_likelihoods
from .speaker_models import SpeakerModel, Ubm
from .total_variability import IVector


@dataclass(frozen=True)
class CohortStats:
    mean_mu: float
    std_sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mean_mu) and math.isfinite(self.std_sigma)):
            raise DegenerateCohort("cohort mean and standard deviation must be finite")
        if self.std_sigma <= 0.0:
            raise DegenerateCohort("cohort standard deviation must be positive")


@dataclass(frozen=True)
class DecisionPolicy:
    threshold: float
    mode: str  # a BACKENDS key, or "llr" for "llr-normalized"

    def __post_init__(self):
        if self.mode == "llr":  # the short name that configs and the CLI accept
            object.__setattr__(self, "mode", "llr-normalized")
        if self.mode not in BACKENDS:
            raise ValueError(f"unknown scoring mode {self.mode!r}")
        if not np.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")
        _, _, (low, high) = BACKENDS[self.mode]
        if not low <= self.threshold <= high:
            raise ValueError(f"{self.mode} threshold must lie in [{low:g}, {high:g}]")


def llr_scores(feats: FeatureMatrix, speakers, ubm: Ubm) -> np.ndarray:
    """Log-likelihood of the utterance under each speaker model minus the UBM's;
    shape (N,). The UBM and every speaker model are scored in one stacked pass.
    """
    ll = sequence_log_likelihoods(feats, [ubm.gmm, *(s.gmm for s in speakers)])
    return ll[1:] - ll[0]


def llr_score(feats: FeatureMatrix, speaker: SpeakerModel, ubm: Ubm) -> float:
    """Log-likelihood of the utterance under the speaker model minus the UBM."""
    return float(llr_scores(feats, [speaker], ubm)[0])


def normalize_score(raw, cohort: CohortStats):
    """(raw - mu) / sigma, for one score or an array of them."""
    return (raw - cohort.mean_mu) / cohort.std_sigma


def cohort_from_scores(scores) -> CohortStats:
    """Sample mean and standard deviation (n-1 divisor) of cohort scores."""
    values = np.asarray(scores if isinstance(scores, np.ndarray) else list(scores), dtype=float)
    if values.size < 2:
        raise DegenerateCohort("need at least two cohort scores")
    if not np.isfinite(values).all():
        raise DegenerateCohort("cohort scores must be finite")
    with np.errstate(all="ignore"):  # a spread past float64's range is inf: CohortStats rejects it
        mean, std = float(values.mean()), float(values.std(ddof=1))
    if std == 0.0:
        raise DegenerateCohort("cohort scores are all equal")
    return CohortStats(mean_mu=mean, std_sigma=std)


def cosine_targets(targets) -> tuple[np.ndarray, np.ndarray]:
    """A non-empty list of target vectors as one read-only (N, R) matrix and its row norms."""
    try:
        matrix = np.array([t.w for t in targets], dtype=np.float64)
    except ValueError:  # numpy rejects ragged lengths
        raise DimensionMismatch("i-vector lengths differ") from None
    norms = np.linalg.norm(matrix, axis=1)
    if np.any(norms == 0.0):
        raise ZeroVector("cosine undefined for a zero vector")
    matrix.flags.writeable = norms.flags.writeable = False
    return matrix, norms


def cosine_scores(targets, test: IVector) -> np.ndarray:
    """Cosine of the test vector against each target vector, in [-1, 1]; shape (N,).
    The targets' cosine_targets are reused while they are the same IVector objects."""
    if len(targets) == 0:
        raise DimensionMismatch("no target i-vectors")
    matrix, norms = _reused(cosine_targets, targets)
    if test.w.shape != matrix.shape[1:]:
        raise DimensionMismatch("i-vector lengths differ")
    # the targets' row-wise norm call, so cosine_score stays symmetric bit for bit
    test_norm = np.linalg.norm(test.w[np.newaxis], axis=1)[0]
    if test_norm == 0.0:
        raise ZeroVector("cosine undefined for a zero vector")
    return np.clip(matrix @ test.w / (norms * test_norm), -1.0, 1.0)


def cosine_score(target: IVector, test: IVector) -> float:
    """Cosine of the angle between two latent-factor vectors, in [-1, 1]."""
    return float(cosine_scores([target], test)[0])


def _llr(feats: FeatureMatrix, entries, ubm: Ubm | None):
    if ubm is None:
        raise ModeMismatch("LLR mode needs a UBM")
    raw = llr_scores(feats, [e.model for e in entries], ubm)
    return raw, normalize_score(raw, cohort_from_scores(raw))


def _cosine(test: IVector, entries, ubm):
    ivectors = [e.ivector for e in entries]
    if None in ivectors:
        raise ModeMismatch("registry entries lack i-vectors")
    raw = cosine_scores(ivectors, test)
    return raw, raw  # a cosine score is its own decision score


# One row per scoring mode, keyed by the report's `mode`: the test artifact kind it
# scores (a `store` kind, and the `Trial` field `test_<kind>`); its scorer
# `(test, entries, ubm) -> (raw, decision)`, score arrays over the registry entries in
# order; and the closed range its thresholds must lie in.
BACKENDS = {
    "llr-normalized": ("features", _llr, (-np.inf, np.inf)),
    "cosine": ("ivector", _cosine, (-1.0, 1.0)),
}


def bhattacharyya_coefficient(p, q) -> float:
    """sum_i sqrt(p_i q_i) between two multinomial distributions.

    Equals the cosine between the elementwise square-root embeddings.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise DimensionMismatch("distributions must be equal-length vectors")
    for dist in (p, q):
        if np.any(dist < 0.0) or abs(dist.sum() - 1.0) > 1e-9:
            raise NotADistribution("entries must be non-negative and sum to 1")
    return float(np.sum(np.sqrt(p * q)))


def decide(score, policy: DecisionPolicy):
    """Accept iff the score strictly exceeds the threshold (ties reject); elementwise
    on an array of scores."""
    return score > policy.threshold
