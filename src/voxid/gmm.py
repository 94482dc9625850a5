"""Diagonal-covariance Gaussian mixtures: density evaluation and EM training."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import DimensionMismatch, EmptyFeatureMatrix, TooFewFrames
from .features import FeatureMatrix

_LOG_2PI = np.log(2.0 * np.pi)

WEIGHT_SUM_TOL = 1e-12
DEGENERATE_MASS = 1e-8


@dataclass(frozen=True)
class DiagonalGmm:
    weights: np.ndarray   # (l,)
    means: np.ndarray     # (l, k)
    variances: np.ndarray  # (l, k)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        mu = np.asarray(self.means, dtype=np.float64)
        var = np.asarray(self.variances, dtype=np.float64)
        if mu.ndim != 2 or var.shape != mu.shape or w.shape != (mu.shape[0],):
            raise DimensionMismatch("inconsistent GMM parameter shapes")
        if not all(np.isfinite(a).all() for a in (w, mu, var)):
            raise DimensionMismatch("GMM parameters must be finite")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL or np.any(w <= 0.0):
            raise DimensionMismatch("weights must be positive and sum to 1")
        if np.any(var <= 0.0):
            raise DimensionMismatch("variances must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", var)

    @property
    def num_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim_k(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class GmmTrainingConfig:
    num_components: int = 64
    max_iterations: int = 100
    convergence_tol: float = 1e-5
    variance_floor: float = 1e-3
    rng_seed: int = 0

    def __post_init__(self):
        if self.num_components < 1:
            raise ValueError("num_components must be >= 1")
        if self.convergence_tol <= 0.0 or self.variance_floor <= 0.0:
            raise ValueError("convergence_tol and variance_floor must be positive")


def component_log_density(x, mean, variance) -> float:
    """Log of a diagonal-covariance Gaussian density at x."""
    x = np.asarray(x, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    if x.shape != mean.shape or mean.shape != variance.shape:
        raise DimensionMismatch("x, mean, variance dimensions differ")
    diff = x - mean
    return float(-0.5 * np.sum(_LOG_2PI + np.log(variance) + diff * diff / variance))


def frame_component_log_densities(frames: np.ndarray, gmm: DiagonalGmm) -> np.ndarray:
    """Per-frame, per-component log densities; shape (L, l).

    Expanded form x^2 @ (1/var)^T - 2 x @ (mu/var)^T + sum(mu^2/var), so memory
    grows with L * l, not L * l * k. Frames and means are first shifted by the
    mean of the means, which keeps cancellation small far from zero.
    """
    if frames.shape[1] != gmm.dim_k:
        raise DimensionMismatch(
            f"frames have dim {frames.shape[1]}, model expects {gmm.dim_k}"
        )
    ref = gmm.means.mean(axis=0)
    x, mu = frames - ref, gmm.means - ref
    precision = 1.0 / gmm.variances
    quad = (x * x) @ precision.T
    quad += x @ (-2.0 * mu * precision).T
    quad += gmm.dim_k * _LOG_2PI + np.sum(np.log(gmm.variances) + mu * mu * precision, axis=1)
    quad *= -0.5
    return quad


def mixture_log_likelihood(x, gmm: DiagonalGmm) -> float:
    """log sum_i w_i N(x; mu_i, var_i), via log-sum-exp."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    logs = frame_component_log_densities(x, gmm) + np.log(gmm.weights)[None, :]
    return float(logsumexp(logs, axis=1)[0])


def frame_log_likelihoods(feats: FeatureMatrix, gmm: DiagonalGmm) -> np.ndarray:
    logs = frame_component_log_densities(feats.frames, gmm)
    return logsumexp(logs + np.log(gmm.weights)[None, :], axis=1)


def sequence_log_likelihood(feats: FeatureMatrix, gmm: DiagonalGmm) -> float:
    """Sum of per-frame mixture log-likelihoods (frames treated as independent)."""
    feats.require_nonempty()
    return float(np.sum(frame_log_likelihoods(feats, gmm)))


def responsibilities(x, gmm: DiagonalGmm) -> np.ndarray:
    """Posterior component probabilities for one frame."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return frame_responsibilities(x, gmm)[0]


def frame_responsibilities(frames: np.ndarray, gmm: DiagonalGmm) -> np.ndarray:
    """Posterior matrix of shape (L, l); rows sum to 1."""
    logs = frame_component_log_densities(frames, gmm) + np.log(gmm.weights)[None, :]
    logs -= logsumexp(logs, axis=1, keepdims=True)
    return np.exp(logs)


def _kmeans_pp(frames: np.ndarray, n_clusters: int, rng: np.random.Generator):
    """k-means++ seeding followed by Lloyd iterations; returns labels, centers."""
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

    # Lloyd distances ||c||^2 - 2 x.c about the frames' mean; ||x||^2 leaves the argmin.
    ref = frames.mean(axis=0)
    shifted = frames - ref
    labels = np.zeros(n, dtype=np.intp)
    for _ in range(25):
        centred = centers - ref
        dists = shifted @ (-2.0 * centred).T
        dists += np.sum(centred * centred, axis=1)
        new_labels = np.argmin(dists, axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for c in range(n_clusters):
            mask = labels == c
            if mask.any():
                centers[c] = frames[mask].mean(axis=0)
    return labels, centers


def _initial_model(frames: np.ndarray, config: GmmTrainingConfig) -> DiagonalGmm:
    rng = np.random.default_rng(config.rng_seed)
    n = frames.shape[0]
    labels, centers = _kmeans_pp(frames, config.num_components, rng)
    global_var = np.maximum(frames.var(axis=0), config.variance_floor)

    counts = np.bincount(labels, minlength=config.num_components)
    weights = np.maximum(counts, 1) / n
    weights /= weights.sum()
    variances = np.tile(global_var, (config.num_components, 1))
    for c in np.flatnonzero(counts >= 2):
        variances[c] = np.maximum(frames[labels == c].var(axis=0), config.variance_floor)
    return DiagonalGmm(weights=weights, means=centers, variances=variances)


def em_fit_detailed(feats: FeatureMatrix, config: GmmTrainingConfig):
    """EM training; returns (model, per-iteration total log-likelihood list)."""
    feats.require_nonempty()
    frames = feats.frames
    if frames.shape[0] < config.num_components:
        raise TooFewFrames(
            f"{frames.shape[0]} frames < {config.num_components} components"
        )

    model = _initial_model(frames, config)
    n = frames.shape[0]
    history: list[float] = []
    prev_ll = None
    for _ in range(config.max_iterations):
        logs = frame_component_log_densities(frames, model)
        logs += np.log(model.weights)[None, :]
        frame_ll = logsumexp(logs, axis=1)
        gamma = np.exp(logs - frame_ll[:, None])
        ll = float(frame_ll.sum())

        counts = gamma.sum(axis=0)
        degenerate = np.flatnonzero(counts < DEGENERATE_MASS)
        if degenerate.size:
            # re-seed dead components at the worst-modelled frames
            worst = np.argsort(frame_ll)[: degenerate.size]
            means = model.means.copy()
            variances = model.variances.copy()
            weights = model.weights.copy()
            global_var = np.maximum(frames.var(axis=0), config.variance_floor)
            for c, t in zip(degenerate, worst):
                means[c] = frames[t]
                variances[c] = global_var
                weights[c] = 1.0 / n
            weights /= weights.sum()
            model = DiagonalGmm(weights=weights, means=means, variances=variances)
            prev_ll = None
            continue
        history.append(ll)

        means = (gamma.T @ frames) / counts[:, None]
        second = (gamma.T @ (frames * frames)) / counts[:, None]
        variances = np.maximum(second - means * means, config.variance_floor)
        weights = counts / n
        weights = np.maximum(weights, 1e-12)
        weights /= weights.sum()
        model = DiagonalGmm(weights=weights, means=means, variances=variances)

        if prev_ll is not None:
            if abs(ll - prev_ll) < config.convergence_tol * abs(prev_ll):
                break
        prev_ll = ll
    return model, history


def em_fit(feats: FeatureMatrix, config: GmmTrainingConfig) -> DiagonalGmm:
    """Maximum-likelihood mixture fit (k-means++ seeding, then EM)."""
    model, _ = em_fit_detailed(feats, config)
    return model
