"""Low-rank total-variability model: the mean supervector is offset by
T @ w where w is a standard-normal latent factor per utterance. Training
is EM over a set of utterance statistics; extraction is the posterior
mean of w given each utterance's statistics.

A model caches its precision blocks U_c = T_c^T Sigma_c^-1 T_c (T_c: the
k rows of component c), so a posterior precision is I + sum_c N_c U_c
(Glembek et al., ICASSP 2011). Every reader of a symmetric R x R matrix
here reads its lower triangle only, so the blocks and the M-step's
accumulators keep just that triangle, packed column by column (LAPACK's
'L' packed order): R(R+1)/2 doubles each. Training and extraction share
one E-step, which gets BLOCK utterances' packed precisions from one
product of their counts with the blocks; LAPACK's dpotrf factors every
matrix, unpacked into full storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DimensionMismatch, NumericalFailure, RankTooLarge
from .gmm import _read_only, _rebuilt
from .speaker_models import BaumWelchStats, Ubm, build_supervector, variance_supervector

# Utterances per E-step block, which holds BLOCK * R^2 doubles whatever their number.
BLOCK = 16
# Components per step of the precision-block build, which holds BUILD * R^2 doubles.
BUILD = 8


@cache
def _lower_triangle(r: int) -> np.ndarray:
    """For rank r: the flat positions, in an F-ordered r x r matrix, of its lower triangle
    in LAPACK's 'L' packed order. Built once per rank and read-only, as every caller shares
    them."""
    col, row = np.triu_indices(r)  # every (col, row >= col), column by column
    flat = row + r * col
    flat.flags.writeable = False
    return flat


@dataclass(frozen=True, eq=False)  # models compare and hash by identity
class TotalVariabilityModel:
    m: np.ndarray         # (C*k,) UBM mean supervector
    sigma: np.ndarray     # (C*k,) UBM variances in supervector layout
    t_matrix: np.ndarray  # (C*k, R)
    num_components: int
    dim_k: int

    __reduce__ = _rebuilt

    def __post_init__(self):
        for name in ("m", "sigma", "t_matrix"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
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
        """(C, R(R+1)/2): row c is U_c = T_c^T Sigma_c^-1 T_c's lower triangle in LAPACK's
        'L' packed order. Computed once, BUILD components at a time; not serialised."""
        c, r = self.num_components, self.rank_R
        t = self.t_matrix.reshape(c, self.dim_k, r)
        scale = np.sqrt(self.sigma).reshape(c, self.dim_k, 1)
        flat = _lower_triangle(r)
        blocks = np.empty((c, flat.size))
        squares = np.empty((min(BUILD, c), r, r))
        for start in range(0, c, BUILD):
            scaled = t[start:start + BUILD] / scale[start:start + BUILD]
            square = np.matmul(scaled.transpose(0, 2, 1), scaled, out=squares[:len(scaled)])
            # every index is in range; mode="clip" writes into out without a buffer
            np.take(square.reshape(-1, r * r), flat, axis=1, out=blocks[start:start + BUILD],
                    mode="clip")
        blocks.flags.writeable = False  # shared by every caller of this model
        return blocks


@dataclass(frozen=True, eq=False)
class IVector:
    w: np.ndarray  # (R,)

    __reduce__ = _rebuilt

    def __post_init__(self):
        w = _read_only(self.w)
        if w.ndim != 1 or not np.all(np.isfinite(w)):
            raise DimensionMismatch("i-vector must be a finite 1-D vector")
        object.__setattr__(self, "w", w)


def init_tv(ubm: Ubm, rank_R: int, rng_seed: int = 0) -> TotalVariabilityModel:
    """Seeded random initialization of the variability matrix."""
    m = build_supervector(ubm)
    sigma = variance_supervector(ubm)
    ck = m.size
    if rank_R >= ck:
        raise RankTooLarge(f"rank {rank_R} >= supervector size {ck}")
    rng = np.random.default_rng(rng_seed)
    scale = 0.1 * float(np.mean(np.sqrt(sigma)))
    return TotalVariabilityModel(
        m=m, sigma=sigma, t_matrix=rng.standard_normal((ck, rank_R)) * scale,
        num_components=ubm.gmm.num_components, dim_k=ubm.gmm.dim_k,
    )


def _cholesky(a: np.ndarray, what: str, finite: bool) -> np.ndarray:
    """Lower Cholesky factor from a's lower triangle; an F-ordered a is factored in place."""
    from scipy.linalg.lapack import dpotrf  # imported where used: LLR paths never load scipy.linalg
    if not finite:
        raise NumericalFailure(f"{what} is not finite")
    factor, info = dpotrf(a, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise NumericalFailure(f"{what} is not positive definite (LAPACK info {info})")
    return factor


def _stacked(stats_set, tv: TotalVariabilityModel):
    """Counts (U, C) and centred first-order statistics F - N m (U, C*k), checked first."""
    stats_list = list(stats_set)
    shape = (tv.num_components, tv.dim_k)
    if not stats_list or any(stats.first.shape != shape for stats in stats_list):
        raise DimensionMismatch("stats collection empty or not dimensioned against this model")
    counts = np.array([stats.zeroth for stats in stats_list])
    f_centered = np.array([stats.first for stats in stats_list])
    m = tv.m.reshape(shape)
    for start in range(0, len(counts), BLOCK):  # N m, BLOCK utterances at a time
        f_centered[start:start + BLOCK] -= counts[start:start + BLOCK, :, None] * m
    return counts, f_centered.reshape(len(counts), -1)


def _e_step(counts: np.ndarray, f_centered: np.ndarray, tv: TotalVariabilityModel):
    """Posteriors of w, yielded as (counts, block, w) for each BLOCK utterances: block's row j,
    read as an F-ordered R x R matrix, holds the Cholesky factor of utterance j's posterior
    precision I + sum_c N_c U_c in its lower triangle, factored in place; its upper triangle
    is scratch that no LAPACK call reads. The next block reuses the rows. w[j] is the
    posterior mean."""
    from scipy.linalg.lapack import dpotrs
    r = tv.rank_R
    flat = _lower_triangle(r)
    size = min(BLOCK, counts.shape[0])
    packed = np.empty((size, flat.size))
    moments = np.zeros((size, r * r))
    for start in range(0, counts.shape[0], BLOCK):
        n = counts[start:start + BLOCK]
        block = moments[:n.shape[0]]
        block[:, flat] = product = np.matmul(n, tv.precision_blocks, out=packed[:n.shape[0]])
        finite = np.isfinite(product).all(axis=1)  # then so is I + the unpacked product
        block[:, ::r + 1] += 1.0
        w = (f_centered[start:start + BLOCK] / tv.sigma) @ tv.t_matrix
        for j, precision in enumerate(block):
            factor = _cholesky(precision.reshape(r, r, order="F"), "posterior precision",
                               finite[j])
            w[j] = dpotrs(factor, w[j], lower=1)[0]
        yield n, block, w


def extract_ivectors(stats_set, tv: TotalVariabilityModel) -> list[IVector]:
    """Posterior-mean latent factors for a collection of utterances' statistics, in order."""
    return [IVector(w=w_u) for *_, w in _e_step(*_stacked(stats_set, tv), tv) for w_u in w]


def extract_ivector(stats: BaumWelchStats, tv: TotalVariabilityModel) -> IVector:
    """Posterior-mean latent factor for one utterance's statistics."""
    return extract_ivectors([stats], tv)[0]


def train_tv(stats_set, tv: TotalVariabilityModel, iterations: int = 10
             ) -> TotalVariabilityModel:
    """EM re-estimation of the variability matrix; m and sigma stay fixed.

    The E-step accumulates the lower triangle of A_c = sum_u N_c(u) (L_u^-1
    + w_u w_u^T) for each component c, packed, BLOCK utterances at a time,
    and B = F~^T W; the M-step solves T_c A_c = B_c for each c. A component
    no utterance occupies has A_c = B_c = 0, which any T_c solves, so it
    keeps its T_c.
    """
    from scipy.linalg.blas import dgemm
    from scipy.linalg.lapack import dpotri, dpotrs
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    counts, f_centered = _stacked(stats_set, tv)
    c, k, r = tv.num_components, tv.dim_k, tv.rank_R
    model = TotalVariabilityModel(tv.m, tv.sigma, tv.t_matrix, c, k)  # leaves tv uncached
    flat = _lower_triangle(r)
    acc = np.empty((flat.size, c), order="F")  # column c is A_c, packed
    moments = np.empty((min(BLOCK, counts.shape[0]), flat.size))  # L_u^-1 + w_u w_u^T, packed
    unpacked = np.zeros(r * r)  # one A_c at a time; its upper triangle stays 0
    occupied = counts.sum(axis=0) > 0.0
    idle_rows = np.repeat(~occupied, k)
    for _ in range(iterations):
        acc[:] = 0.0
        ws = []
        for n, block, w in _e_step(counts, f_centered, model):
            for factor, w_u in zip(block, w):
                square = factor.reshape(r, r, order="F")
                dpotri(square, lower=1, overwrite_c=1)  # now L_u^-1
                square += np.multiply.outer(w_u, w_u)
            # packed as precision_blocks packs: mode="clip" writes into out without a buffer
            packed = np.take(block, flat, axis=1, out=moments[:len(w)], mode="clip")
            acc = dgemm(1.0, packed.T, n.T, beta=1.0, c=acc, trans_b=1, overwrite_c=1)
            ws.append(w)
        kept = model.t_matrix[idle_rows]
        del model  # frees the precision blocks before the M-step
        t = f_centered.T @ np.concatenate(ws)  # B, solved into T component by component
        t[idle_rows] = kept
        finite = np.isfinite(acc).all(axis=0)  # one pass, not one per unpacked A_c
        for j in np.flatnonzero(occupied):
            unpacked[flat] = acc[:, j]
            factor = _cholesky(unpacked.reshape(r, r, order="F"), f"M-step A_{j}", finite[j])
            t[j * k:(j + 1) * k] = dpotrs(factor, t[j * k:(j + 1) * k].T, lower=1)[0].T
        model = TotalVariabilityModel(tv.m, tv.sigma, t, c, k)
        del t  # the model holds its own copy, so the next E-step holds one T
    return model
