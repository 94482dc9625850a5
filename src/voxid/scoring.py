"""Scoring backends: UBM-normalized log-likelihood ratios with cohort
z-style normalization, and cosine scoring of latent-factor vectors with
its Bhattacharyya-coefficient interpretation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCohort,
    DimensionMismatch,
    NotADistribution,
    ZeroVector,
)
from .features import FeatureMatrix
from .gmm import sequence_log_likelihood
from .speaker_models import SpeakerModel, Ubm
from .total_variability import IVector


@dataclass(frozen=True)
class CohortStats:
    mean_mu: float
    std_sigma: float

    def __post_init__(self):
        if self.std_sigma <= 0.0:
            raise DegenerateCohort("cohort standard deviation must be positive")


@dataclass(frozen=True)
class DecisionPolicy:
    threshold: float
    mode: str  # "llr-normalized" | "cosine"

    def __post_init__(self):
        if self.mode not in ("llr-normalized", "cosine"):
            raise ValueError(f"unknown scoring mode {self.mode!r}")
        if not np.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")
        if self.mode == "cosine" and not -1.0 <= self.threshold <= 1.0:
            raise ValueError("cosine threshold must lie in [-1, 1]")


def llr_score(feats: FeatureMatrix, speaker: SpeakerModel, ubm: Ubm) -> float:
    """Log-likelihood of the utterance under the speaker model minus the UBM."""
    return sequence_log_likelihood(feats, speaker.gmm) - sequence_log_likelihood(
        feats, ubm.gmm
    )


def normalize_score(raw: float, cohort: CohortStats) -> float:
    return (raw - cohort.mean_mu) / cohort.std_sigma


def cohort_from_scores(scores) -> CohortStats:
    """Sample mean and standard deviation (n-1 divisor) of cohort scores."""
    values = np.asarray(list(scores), dtype=np.float64)
    if values.size < 2:
        raise DegenerateCohort("need at least two cohort scores")
    std = float(values.std(ddof=1))
    if std == 0.0:
        raise DegenerateCohort("cohort scores are all equal")
    return CohortStats(mean_mu=float(values.mean()), std_sigma=std)


def cosine_score(target: IVector, test: IVector) -> float:
    """Cosine of the angle between two latent-factor vectors, in [-1, 1]."""
    u, v = target.w, test.w
    if u.shape != v.shape:
        raise DimensionMismatch("i-vector lengths differ")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("cosine undefined for a zero vector")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


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


def decide(score: float, policy: DecisionPolicy) -> bool:
    """Accept iff the score strictly exceeds the threshold (ties reject)."""
    return score > policy.threshold
