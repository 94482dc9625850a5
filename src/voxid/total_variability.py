"""Low-rank total-variability model: the mean supervector is offset by
T @ w where w is a standard-normal latent factor per utterance. Training
is EM over a set of utterance statistics; extraction is the posterior
mean of w given one utterance's statistics.

A model caches its precision blocks U_c = T_c^T Sigma_c^-1 T_c (T_c: the
k rows of component c), so a posterior precision is I + sum_c N_c U_c
(Glembek et al., ICASSP 2011): the E-step gets BLOCK utterances' precisions
from one product of their counts with the blocks. LAPACK's dpotrf gives
every Cholesky factor: E-step, M-step and extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs

from .errors import DimensionMismatch, NumericalFailure, RankTooLarge
from .speaker_models import BaumWelchStats, Ubm, build_supervector, variance_supervector

# Utterances per E-step block, which holds BLOCK * R^2 doubles whatever their number.
BLOCK = 16


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


def _cholesky(a: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor from a's lower triangle; an F-ordered a is factored in place."""
    if not np.isfinite(a).all():
        raise NumericalFailure(f"{what} is not finite")
    factor, info = dpotrf(a, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise NumericalFailure(f"{what} is not positive definite (LAPACK info {info})")
    return factor


def _posterior(stats: BaumWelchStats, tv: TotalVariabilityModel):
    """Posterior mean of w: a Cholesky solve against I + sum_c N_c U_c."""
    if stats.first.shape != (tv.num_components, tv.dim_k):
        raise DimensionMismatch("stats not dimensioned against this model")
    f_centered = stats.first.reshape(-1) - np.repeat(stats.zeroth, tv.dim_k) * tv.m
    precision = np.eye(tv.rank_R) + np.tensordot(stats.zeroth, tv.precision_blocks, axes=1)
    factor = _cholesky(precision, "posterior precision")
    return dpotrs(factor, tv.t_matrix.T @ (f_centered / tv.sigma), lower=1)[0]


def extract_ivector(stats: BaumWelchStats, tv: TotalVariabilityModel) -> IVector:
    """Posterior-mean latent factor for one utterance's statistics."""
    return IVector(w=_posterior(stats, tv))


def train_tv(stats_set, tv: TotalVariabilityModel, iterations: int = 10
             ) -> TotalVariabilityModel:
    """EM re-estimation of the variability matrix; m and sigma stay fixed.

    The E-step accumulates A_c = sum_u N_c(u) (L_u^-1 + w_u w_u^T) for each
    component c, BLOCK utterances at a time, and B = F~^T W; the M-step
    solves T_c A_c = B_c for each c.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    stats_list = list(stats_set)
    c, k, r = tv.num_components, tv.dim_k, tv.rank_R
    if not stats_list or any(stats.first.shape != (c, k) for stats in stats_list):
        raise DimensionMismatch("stats collection empty or not dimensioned against this model")
    counts = np.array([stats.zeroth for stats in stats_list])  # (U, C)
    f_centered = np.array([stats.first.reshape(-1) for stats in stats_list])  # (U, C*k)
    f_centered -= np.repeat(counts, k, axis=1) * tv.m

    model = TotalVariabilityModel(tv.m, tv.sigma, tv.t_matrix, c, k)  # leaves tv uncached
    # Only lower triangles (column-major) are exact: LAPACK reads and writes no other.
    moments = np.empty((BLOCK, r * r))  # row j: posterior precision, then second moment
    acc = np.empty((r * r, c), order="F")  # column c is A_c
    w = np.empty((counts.shape[0], r))
    for _ in range(iterations):
        acc[:] = 0.0
        blocks = model.precision_blocks.reshape(c, r * r)
        for start in range(0, counts.shape[0], BLOCK):
            n = counts[start:start + BLOCK]
            block = np.matmul(n, blocks, out=moments[:n.shape[0]])
            block[:, ::r + 1] += 1.0
            rhs = (f_centered[start:start + BLOCK] / model.sigma) @ model.t_matrix
            for j, u in enumerate(range(start, start + n.shape[0])):
                factor = _cholesky(block[j].reshape(r, r, order="F"), "posterior precision")
                w[u] = dpotrs(factor, rhs[j], lower=1)[0]
                dpotri(factor, lower=1, overwrite_c=1)  # block[j] now holds L_u^-1
                factor += np.outer(w[u], w[u])
            acc = dgemm(1.0, block.T, n.T, beta=1.0, c=acc, trans_b=1, overwrite_c=1)
        del model, blocks  # frees the precision blocks before the M-step
        t = f_centered.T @ w  # B, solved into T component by component
        for j in range(c):
            factor = _cholesky(acc[:, j].reshape(r, r, order="F"), f"M-step A_{j}")
            t[j * k:(j + 1) * k] = dpotrs(factor, t[j * k:(j + 1) * k].T, lower=1)[0].T
        model = TotalVariabilityModel(tv.m, tv.sigma, t, c, k)
    return model
