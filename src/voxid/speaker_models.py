"""Universal background model, accumulation of per-utterance sufficient
statistics, MAP mean adaptation and supervector assembly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NegativeRelevance
from .features import FeatureMatrix
from .gmm import DiagonalGmm, GmmTrainingConfig, em_fit, posterior_sums

DEFAULT_RELEVANCE = 16.0


@dataclass(frozen=True)
class Ubm:
    gmm: DiagonalGmm


@dataclass(frozen=True)
class SpeakerModel:
    """Speaker GMM sharing the UBM's weights/variances, with adapted means."""

    speaker_id: str
    gmm: DiagonalGmm


@dataclass(frozen=True)
class BaumWelchStats:
    """Soft frame counts and responsibility-weighted feature sums."""

    zeroth: np.ndarray  # (l,)
    first: np.ndarray   # (l, k)

    def __post_init__(self):
        zeroth = np.asarray(self.zeroth, dtype=np.float64)
        first = np.asarray(self.first, dtype=np.float64)
        if zeroth.ndim != 1 or first.ndim != 2 or first.shape[0] != zeroth.shape[0]:
            raise DimensionMismatch("inconsistent statistic shapes")
        if not (np.all(zeroth >= 0.0) and np.isfinite(zeroth).all() and np.isfinite(first).all()):
            raise DimensionMismatch("invalid statistic values")
        object.__setattr__(self, "zeroth", zeroth)
        object.__setattr__(self, "first", first)

    def __add__(self, other: "BaumWelchStats") -> "BaumWelchStats":
        if self.first.shape != other.first.shape:
            raise DimensionMismatch("stats shapes differ")
        return BaumWelchStats(self.zeroth + other.zeroth, self.first + other.first)


def pool_features(pooled) -> FeatureMatrix:
    """Concatenate feature matrices of one dimension into one; a lone matrix is returned
    as it is, not copied.

    `pooled` is either a sequence of FeatureMatrix (concatenated in the
    given order) or a mapping of utterance id -> FeatureMatrix, in which
    case concatenation order is the sorted ids so results do not depend
    on enumeration order.
    """
    if hasattr(pooled, "keys"):
        items = [pooled[key] for key in sorted(pooled.keys())]
    else:
        items = list(pooled)
    if not items:
        raise DimensionMismatch("no utterances supplied")
    dims = sorted({fm.dim_k for fm in items})
    if len(dims) > 1:
        raise DimensionMismatch(f"feature dimensions differ: {dims}")
    return items[0] if len(items) == 1 else FeatureMatrix(np.vstack([fm.frames for fm in items]))


def train_ubm(pooled, config: GmmTrainingConfig) -> Ubm:
    """Fit the background model on feature matrices pooled over speakers (see pool_features)."""
    return Ubm(gmm=em_fit(pool_features(pooled), config))


def accumulate_stats(feats: FeatureMatrix, ubm: Ubm) -> BaumWelchStats:
    """Zeroth/first-order statistics of an utterance against the UBM."""
    feats.require_nonempty()
    zeroth, first, _ = posterior_sums(feats.frames, ubm.gmm)
    return BaumWelchStats(zeroth=zeroth, first=first)


def map_adapt(stats: BaumWelchStats, ubm: Ubm, relevance: float = DEFAULT_RELEVANCE,
              speaker_id: str = "") -> SpeakerModel:
    """MAP adaptation of the UBM means; weights and variances stay fixed.

    Per component: alpha = N / (N + relevance); the adapted mean
    interpolates between the data mean F/N and the UBM mean. Components
    with no data keep the UBM mean.
    """
    if not 0.0 <= relevance < np.inf:
        raise NegativeRelevance(f"relevance must be finite and >= 0, got {relevance}")
    gmm = ubm.gmm
    if stats.first.shape != gmm.means.shape:
        raise DimensionMismatch("stats not dimensioned against this UBM")

    n = stats.zeroth
    means = gmm.means.copy()
    observed = n > 0.0
    alpha = n[observed] / (n[observed] + relevance)
    ml_means = stats.first[observed] / n[observed][:, None]
    means[observed] = alpha[:, None] * ml_means + (1.0 - alpha)[:, None] * gmm.means[observed]
    return SpeakerModel(speaker_id=speaker_id, gmm=gmm.with_means(means))


def build_supervector(model) -> np.ndarray:
    """Component means concatenated in component order, shape (C*k,)."""
    gmm = model.gmm if hasattr(model, "gmm") else model
    return gmm.means.reshape(-1).copy()


def variance_supervector(ubm: Ubm) -> np.ndarray:
    """UBM variances arranged to match the mean supervector layout."""
    return ubm.gmm.variances.reshape(-1).copy()
