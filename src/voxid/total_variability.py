"""Low-rank total-variability model: the mean supervector is offset by
T @ w where w is a standard-normal latent factor per utterance. Training
is EM over a set of utterance statistics; extraction is the posterior
mean of w given one utterance's statistics.

A model caches its precision blocks U_c = T_c^T Sigma_c^-1 T_c (T_c: the
k rows of component c), so a posterior precision is I + sum_c N_c U_c
(Glembek et al., ICASSP 2011); the M-step is one batched solve over c.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.blas import dger

from .errors import DimensionMismatch, NumericalFailure, RankTooLarge
from .speaker_models import BaumWelchStats, Ubm, build_supervector, variance_supervector


@dataclass(frozen=True)
class TotalVariabilityModel:
    m: np.ndarray         # (C*k,) UBM mean supervector
    sigma: np.ndarray     # (C*k,) UBM variances in supervector layout
    t_matrix: np.ndarray  # (C*k, R)
    num_components: int
    dim_k: int

    def __post_init__(self):
        for name in ("m", "sigma", "t_matrix"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        ck = self.num_components * self.dim_k
        if self.m.shape != (ck,) or self.sigma.shape != (ck,):
            raise DimensionMismatch("supervector layout mismatch")
        if self.t_matrix.ndim != 2 or self.t_matrix.shape[0] != ck:
            raise DimensionMismatch("t_matrix rows must equal C*k")
        if not (1 <= self.rank_R < ck):
            raise RankTooLarge(f"rank {self.rank_R} not in [1, {ck})")
        finite = all(np.isfinite(a).all() for a in (self.m, self.sigma, self.t_matrix))
        if not finite or np.any(self.sigma <= 0.0):
            raise DimensionMismatch("non-finite m, sigma or t_matrix, or sigma <= 0")

    @property
    def rank_R(self) -> int:
        return self.t_matrix.shape[1]

    @cached_property
    def precision_blocks(self) -> np.ndarray:
        """(C, R, R) stack of U_c = T_c^T Sigma_c^-1 T_c; computed once, not serialised."""
        t = self.t_matrix.reshape(self.num_components, self.dim_k, self.rank_R)
        blocks = t.transpose(0, 2, 1) @ (t / self.sigma.reshape(t.shape[:2] + (1,)))
        blocks.flags.writeable = False  # shared by every caller of this model
        return blocks


@dataclass(frozen=True)
class IVector:
    w: np.ndarray  # (R,)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 1 or not np.all(np.isfinite(w)):
            raise DimensionMismatch("i-vector must be a finite 1-D vector")
        object.__setattr__(self, "w", w)


def init_tv(ubm: Ubm, rank_R: int, rng_seed: int = 0) -> TotalVariabilityModel:
    """Seeded random initialization of the variability matrix."""
    m = build_supervector(ubm).values
    sigma = variance_supervector(ubm)
    ck = m.size
    if rank_R >= ck:
        raise RankTooLarge(f"rank {rank_R} >= supervector size {ck}")
    rng = np.random.default_rng(rng_seed)
    scale = 0.1 * float(np.mean(np.sqrt(sigma)))
    t = rng.standard_normal((ck, rank_R)) * scale
    return TotalVariabilityModel(
        m=m, sigma=sigma, t_matrix=t,
        num_components=ubm.gmm.num_components, dim_k=ubm.gmm.dim_k,
    )


def _posterior(stats: BaumWelchStats, tv: TotalVariabilityModel):
    """Cholesky factor of w's posterior precision, its mean, and F~ = F - N m."""
    if stats.first.shape != (tv.num_components, tv.dim_k):
        raise DimensionMismatch("stats not dimensioned against this model")
    f_centered = stats.first.reshape(-1) - np.repeat(stats.zeroth, tv.dim_k) * tv.m
    # cho_factor reads only the lower triangle, so the precision is taken as symmetric
    precision = np.eye(tv.rank_R) + np.tensordot(stats.zeroth, tv.precision_blocks, axes=1)
    try:
        factor = cho_factor(precision, lower=True)
    except (LinAlgError, ValueError) as exc:
        raise NumericalFailure(f"posterior precision not SPD: {exc}") from exc
    mean = cho_solve(factor, tv.t_matrix.T @ (f_centered / tv.sigma))
    return factor, mean, f_centered


def extract_ivector(stats: BaumWelchStats, tv: TotalVariabilityModel) -> IVector:
    """Posterior-mean latent factor for one utterance's statistics."""
    _, mean, _ = _posterior(stats, tv)
    return IVector(w=mean)


def train_tv(stats_set, tv: TotalVariabilityModel, iterations: int = 10
             ) -> TotalVariabilityModel:
    """EM re-estimation of the variability matrix; m and sigma stay fixed.

    The E-step accumulates A_c = sum_u N_c(u) (L_u^-1 + w_u w_u^T) for each
    component c and B = F~^T W; the M-step solves T_c A_c = B_c for all c at once.
    """
    stats_list = list(stats_set)
    if not stats_list:
        raise DimensionMismatch("empty stats collection")
    c, k, r = tv.num_components, tv.dim_k, tv.rank_R

    model = TotalVariabilityModel(tv.m, tv.sigma, tv.t_matrix, c, k)  # leaves tv uncached
    acc = np.empty((r * r, c), order="F")  # column c is A_c flattened, updated in place
    f_centered = np.empty((len(stats_list), c * k))
    w = np.empty((len(stats_list), r))
    for _ in range(iterations):
        acc[:] = 0.0
        for u, stats in enumerate(stats_list):
            factor, w[u], f_centered[u] = _posterior(stats, model)
            cov = cho_solve(factor, np.eye(r))
            second_moment = 0.5 * (cov + cov.T) + np.outer(w[u], w[u])  # exactly symmetric
            acc = dger(1.0, second_moment.ravel(), stats.zeroth, a=acc, overwrite_a=True)
        del model  # frees its precision blocks before the M-step
        a = acc.T.reshape(c, r, r)  # a view; symmetric as every second moment is
        b = (f_centered.T @ w).reshape(c, k, r)
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"M-step: some A_c is not positive definite: {exc}") from exc
        t = np.linalg.solve(a, b.transpose(0, 2, 1)).transpose(0, 2, 1).reshape(c * k, r)
        model = TotalVariabilityModel(tv.m, tv.sigma, t, c, k)
    return model
