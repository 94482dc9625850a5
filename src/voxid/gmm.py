"""Diagonal-covariance Gaussian mixtures: density evaluation and EM training."""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatch, TooFewFrames
from .features import FeatureMatrix

_LOG_2PI = np.log(2.0 * np.pi)

WEIGHT_SUM_TOL = 1e-12
DEGENERATE_MASS = 1e-8
# sequence_log_likelihoods stacks at most BLOCK components, and an E-step takes
# BLOCK frames at a time, so neither holds more than L * BLOCK or BLOCK * l doubles.
BLOCK = 2048
KMEANS_FRAMES_PER_COMPONENT = 64  # UBM k-means runs on at most this many frames per component


def _room_for_two_runs() -> bool:
    """Whether the CPUs this process may use (taskset and cpusets restrict them) hold both
    runs' BLAS threads. Each BLAS call takes the count OpenBLAS read from the first of these
    variables set to a positive number, else every CPU. On a 2-core Xeon VM with two-thread
    BLAS, a paper-size UBM trained in 2.7 s split into two runs and in 2.2 s unsplit."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) > 0:
            return (cpus or 1) >= 2 * int(value)
    return False


def _in_two_runs(work, items, rows: int) -> list:
    """[work(item) for item in items], in order. A pass over at least 4 * BLOCK rows (two full
    blocks per thread), with room for two runs, runs the second half of items on a thread of
    its own while this thread runs the first: numpy releases the GIL around the GEMM, exp and
    reductions, so the runs overlap. Callers combine the results in item order, so every sum
    is the same for any CPU count. Two runs, not one per CPU, keep two blocks in flight."""
    half = len(items) // 2
    if rows < 4 * BLOCK or half == 0 or not _room_for_two_runs():
        return [work(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # pulls in logging: ~11 ms
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="voxid") as pool:
        tail = pool.submit(lambda: [work(item) for item in items[half:]])
        pool.shutdown(wait=False)  # queues the stop, so the thread exits right after its run
        head = [work(item) for item in items[:half]]
    return head + tail.result()  # leaving the block joined the thread, also on a raise


def _read_only(values) -> np.ndarray:
    """values copied once into new bytes, as a float64 array that nothing can write or make
    writeable. Every array a model is given is copied, whoever owns its memory, so a model's
    arrays never change under a kept build."""
    array = np.asarray(values, np.float64)
    return np.frombuffer(array.tobytes()).reshape(array.shape)


def _rebuilt(model):
    """A model's __reduce__: pickle and copy rebuild it through its constructor, so a copy
    holds arrays of its own and nothing kept (_reused's slot, precision_blocks) comes along."""
    return type(model), tuple(getattr(model, field.name) for field in fields(model))


def _reused(build, items):
    """build(items), kept in items[0]'s one slot and reused while items[1:] are the same
    models, in order: models compare by identity, and each holds its own copy of its arrays,
    so a kept build never goes stale. Each kind of head has one build (_stack for mixtures,
    cosine_targets for i-vectors)."""
    head, rest = items[0], tuple(items[1:])
    kept = getattr(head, "_slot", None)  # read once, so a concurrent store is harmless
    if kept is not None and kept[0] == rest:
        return kept[1]
    built = build(items)
    object.__setattr__(head, "_slot", (rest, built))  # not a field: never compared or serialised
    return built


@dataclass(frozen=True, eq=False)  # models compare and hash by identity
class DiagonalGmm:
    weights: np.ndarray   # (l,)
    means: np.ndarray     # (l, k)
    variances: np.ndarray  # (l, k)

    __reduce__ = _rebuilt

    def __post_init__(self):
        w, mu, var = (_read_only(a) for a in (self.weights, self.means, self.variances))
        if mu.ndim != 2 or var.shape != mu.shape or w.shape != (mu.shape[0],):
            raise DimensionMismatch("inconsistent GMM parameter shapes")
        if not all(np.isfinite(a).all() for a in (w, mu, var)):
            raise DimensionMismatch("GMM parameters must be finite")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL or np.any(w <= 0.0):
            raise DimensionMismatch("weights must be positive and sum to 1")
        if np.any(var <= 0.0):
            raise DimensionMismatch("variances must be positive")
        for name, value in (("weights", w), ("means", mu), ("variances", var)):
            object.__setattr__(self, name, value)

    def with_means(self, means) -> "DiagonalGmm":
        """This mixture's weights and variances, shared, about a copy of new means; only
        the means are checked, since the rest was checked when this mixture was built."""
        mu = _read_only(means)
        if mu.shape != self.means.shape:
            raise DimensionMismatch(f"means of shape {mu.shape}, mixture has {self.means.shape}")
        if not np.isfinite(mu).all():
            raise DimensionMismatch("GMM parameters must be finite")
        adapted = object.__new__(DiagonalGmm)
        for name, value in (("weights", self.weights), ("means", mu), ("variances", self.variances)):
            object.__setattr__(adapted, name, value)
        return adapted

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
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (self.convergence_tol > 0.0 and self.variance_floor > 0.0):
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


def _centre(means: np.ndarray) -> np.ndarray:
    """The kernel's reference point; unlike the mean, independent of component order."""
    return 0.5 * (means.min(axis=0) + means.max(axis=0))


def _require_dim(frames: np.ndarray, gmm: DiagonalGmm):
    if frames.shape[1] != gmm.dim_k:
        raise DimensionMismatch(
            f"frames have dim {frames.shape[1]}, model expects {gmm.dim_k}"
        )


def _coefficients(means, variances, log_weights, ref) -> np.ndarray:
    """[-1/(2 var), mu/var, log w + const] about ref; shape (l, 2k+1)."""
    mu, precision = means - ref, 1.0 / variances
    const = log_weights - 0.5 * (means.shape[1] * _LOG_2PI
                                 + np.sum(np.log(variances) + mu * mu * precision, axis=1))
    return np.hstack([-0.5 * precision, mu * precision, const[:, None]])


def _terms(frames, ref) -> np.ndarray:
    """[(x - ref)^2, x - ref, 1]; shape (L, 2k+1). The shift keeps cancellation small."""
    x = frames - ref
    return np.hstack([x * x, x, np.ones((x.shape[0], 1))])


def _log_densities(terms, coefficients) -> np.ndarray:
    """log w_c + log N(x_t; mu_c, var_c), one row per stacked component; shape (l, L).
    One GEMM against _terms about the same ref, so memory grows with L * l, not L * l * k."""
    return coefficients @ terms.T


def frame_component_log_densities(frames: np.ndarray, gmm: DiagonalGmm) -> np.ndarray:
    """Per-frame, per-component log densities; shape (L, l)."""
    _require_dim(frames, gmm)
    ref = _centre(gmm.means)
    return _log_densities(_terms(frames, ref), _coefficients(gmm.means, gmm.variances, 0.0, ref)).T


def _mixture_pass(terms: np.ndarray, gmms, coefficients):
    """Frame log-likelihoods (N, L) under N mixtures, with the shifted exponentials
    (sum l, L) and their per-model sums (N, L).

    One kernel call of the stacked components' coefficients against the frames'
    _terms, whose output holds one row per component. Each run of consecutive models
    with equal component counts is one (n, l, L) view: its per-model peak (0 where not
    finite) is subtracted in place, the exponentials overwrite the kernel's output,
    and each model's rows are summed, so every reduction runs along contiguous rows.
    """
    logs = _log_densities(terms, coefficients)
    shift = np.empty((len(gmms), terms.shape[0]))
    sums = np.empty_like(shift)
    model = row = 0
    for size, run in itertools.groupby(g.num_components for g in gmms):
        n = len(list(run))
        view = logs[row:row + n * size].reshape(n, size, -1)
        peak = np.max(view, axis=1, out=shift[model:model + n])
        peak[~np.isfinite(peak)] = 0.0
        view -= peak[:, None, :]
        np.exp(view, out=view)
        np.sum(view, axis=1, out=sums[model:model + n])
        model, row = model + n, row + n * size
    with np.errstate(divide="ignore"):  # a model whose log densities are all -inf gives -inf
        return np.log(sums) + shift, logs, sums


def _posteriors(frames: np.ndarray, gmm: DiagonalGmm):
    """Responsibilities (l, L), columns summing to 1, and per-frame log-likelihoods (L,),
    from the mixture's _stack, which every E-step and Baum-Welch call shares."""
    _require_dim(frames, gmm)
    ref, ((*_, coefficients),) = _reused(_stack, [gmm])
    frame_ll, gamma, sums = _mixture_pass(_terms(frames, ref), [gmm], coefficients)
    gamma /= sums
    return gamma, frame_ll[0]


def posterior_sums(frames: np.ndarray, gmm: DiagonalGmm, squares: bool = False):
    """Soft counts (l,), gamma^T X (gamma^T [X, X^2] with squares) and frame
    log-likelihoods (L,), BLOCK frames at a time; each block's counts and products
    are added in frame order."""
    _reused(_stack, [gmm])  # built before a split, so the second run only reads the slot
    frame_ll = np.empty(frames.shape[0])

    def moments(start):
        block = frames[start:start + BLOCK]
        gamma, frame_ll[start:start + BLOCK] = _posteriors(block, gmm)
        return gamma.sum(axis=1), gamma @ (np.hstack([block, block * block]) if squares else block)

    counts = np.zeros(gmm.num_components)
    sums = np.zeros((gmm.num_components, frames.shape[1] * (2 if squares else 1)))
    for block_counts, block_sums in _in_two_runs(moments, range(0, frames.shape[0], BLOCK),
                                                 frames.shape[0]):
        counts += block_counts
        sums += block_sums
    return counts, sums, frame_ll


def mixture_log_likelihood(x, gmm: DiagonalGmm) -> float:
    """log sum_i w_i N(x; mu_i, var_i), via log-sum-exp."""
    return float(_posteriors(np.atleast_2d(np.asarray(x, dtype=np.float64)), gmm)[1][0])


def _stack(gmms) -> tuple:
    """The centre of gmms[0] and one (start, stop, coefficients) per block of at most BLOCK
    stacked components (a larger model is its own block), all read-only. Callers take it
    through _reused, so the E-step's [gmm] and LLR's [ubm, *speakers] share the head's slot."""
    ref = _centre(gmms[0].means)
    sizes = np.array([gmm.num_components for gmm in gmms])
    blocks, start = [], 0
    while start < len(gmms):
        stop = start + max(1, int(np.searchsorted(np.cumsum(sizes[start:]), BLOCK, "right")))
        block = gmms[start:stop]
        coefficients = _coefficients(np.concatenate([g.means for g in block]),
                                     np.concatenate([g.variances for g in block]),
                                     np.log(np.concatenate([g.weights for g in block])), ref)
        coefficients.flags.writeable = False
        blocks.append((start, stop, coefficients))
        start = stop
    ref.flags.writeable = False
    return ref, tuple(blocks)


def sequence_log_likelihoods(feats: FeatureMatrix, gmms) -> np.ndarray:
    """Sequence log-likelihood of one utterance under each mixture; shape (N,), so (0,)
    for no mixtures.

    One _mixture_pass per block of _stack over terms built once, about the first model's
    centre, so the models may differ in component count. Frames are treated as independent.
    """
    feats.require_nonempty()
    if len(gmms) == 0:
        return np.zeros(0)
    frames = feats.frames
    for gmm in gmms:
        _require_dim(frames, gmm)
    ref, blocks = _reused(_stack, gmms)
    terms = _terms(frames, ref)

    def block_totals(block):
        start, stop, coefficients = block
        # each model's frame log-likelihoods are one contiguous row, which numpy sums pairwise
        return _mixture_pass(terms, gmms[start:stop], coefficients)[0].sum(axis=1)

    stacked = sum(coefficients.shape[0] for *_, coefficients in blocks)
    return np.concatenate(_in_two_runs(block_totals, blocks, stacked))


def sequence_log_likelihood(feats: FeatureMatrix, gmm: DiagonalGmm) -> float:
    """Sum of per-frame mixture log-likelihoods (frames treated as independent)."""
    return float(sequence_log_likelihoods(feats, [gmm])[0])


def responsibilities(x, gmm: DiagonalGmm) -> np.ndarray:
    """Posterior component probabilities for one frame."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return frame_responsibilities(x, gmm)[0]


def frame_responsibilities(frames: np.ndarray, gmm: DiagonalGmm) -> np.ndarray:
    """Posterior matrix of shape (L, l); rows sum to 1."""
    return _posteriors(frames, gmm)[0].T


def _centred_block(frames: np.ndarray, ref: np.ndarray, start: int) -> np.ndarray:
    """[x - ref, 1] for the BLOCK frames from start."""
    return np.pad(frames[start:start + BLOCK] - ref, ((0, 0), (0, 1)), constant_values=1.0)


def _nearest(frames: np.ndarray, centers: np.ndarray, ref: np.ndarray, blocks=None) -> np.ndarray:
    """Nearest-centre labels, one product per block of [x - ref, 1] rows with
    [-2 (c - ref); ||c - ref||^2], whose last row adds the norms (||x - ref||^2 drops out).
    Each block is built when its turn comes, unless the _centred_block list of frames
    built once for many passes is given."""
    centred = centers - ref
    coefficients = np.vstack([-2.0 * centred.T, np.sum(centred * centred, axis=1)])

    def labels(start):
        terms = _centred_block(frames, ref, start) if blocks is None else blocks[start // BLOCK]
        return np.argmin(terms @ coefficients, axis=1)

    return np.concatenate(_in_two_runs(labels, range(0, frames.shape[0], BLOCK), frames.shape[0]))


def _cluster_sums(labels: np.ndarray, rows: np.ndarray, n_clusters: int) -> np.ndarray:
    """Per-cluster sums (C, k) of the frames whose coordinate rows (k, n) are `rows`,
    each sum added in frame order."""
    return np.stack([np.bincount(labels, weights=row, minlength=n_clusters) for row in rows],
                    axis=1)


def _kmeans_pp(frames: np.ndarray, n_clusters: int, rng: np.random.Generator):
    """k-means++ seeding, whose distances add up the contiguous rows of one (k, n) copy of the
    frames, then Lloyd steps over [x - ref, 1] blocks built once, whose centre sums read the
    same copy; returns labels, centers."""
    n = frames.shape[0]
    centers = np.empty((n_clusters, frames.shape[1]))
    columns = frames.T.copy()
    d2, dist, row = np.full(n, np.inf), np.empty(n), np.empty(n)
    for c in range(n_clusters):
        total = d2.sum() if c else 0.0
        centers[c] = frames[rng.choice(n, p=d2 / total) if total > 0.0 else rng.integers(n)]
        dist.fill(0.0)
        for column, value in zip(columns, centers[c]):
            dist += np.square(np.subtract(column, value, out=row), out=row)
        np.minimum(d2, dist, out=d2)

    ref = frames.mean(axis=0)  # Lloyd's distances are taken about the frames' mean
    blocks = [_centred_block(frames, ref, start) for start in range(0, n, BLOCK)]
    labels = np.zeros(n, dtype=np.intp)
    for _ in range(25):
        new_labels = _nearest(frames, centers, ref, blocks)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        sums = _cluster_sums(labels, columns, n_clusters)
        counts = np.bincount(labels, minlength=n_clusters)
        filled = counts > 0  # an empty cluster keeps its centre
        centers[filled] = sums[filled] / counts[filled, None]
    return labels, centers


def _initial_model(frames: np.ndarray, config: GmmTrainingConfig, global_var) -> DiagonalGmm:
    """k-means on a seeded in-order frame sample, then one nearest-centre pass over all frames."""
    rng = np.random.default_rng(config.rng_seed)
    n, n_clusters = frames.shape[0], config.num_components
    if n > KMEANS_FRAMES_PER_COMPONENT * n_clusters:
        sample = np.sort(rng.choice(n, KMEANS_FRAMES_PER_COMPONENT * n_clusters, replace=False))
        _, centers = _kmeans_pp(frames[sample], n_clusters, rng)
        ref = frames.mean(axis=0)
        labels = _nearest(frames, centers, ref)
    else:
        labels, centers = _kmeans_pp(frames, n_clusters, rng)
    counts = np.bincount(labels, minlength=n_clusters)
    sizes = np.maximum(counts, 1)[:, None]
    weights = sizes[:, 0] / n
    weights /= weights.sum()
    means = np.where((counts > 0)[:, None], _cluster_sums(labels, frames.T, n_clusters) / sizes,
                     centers)
    deviations = frames - means[labels]  # np.var's two passes, each in frame order
    variances = np.where((counts >= 2)[:, None], np.maximum(
        _cluster_sums(labels, (deviations * deviations).T, n_clusters) / sizes,
        config.variance_floor), global_var)
    return DiagonalGmm(weights=weights, means=means, variances=variances)


def em_fit_detailed(feats: FeatureMatrix, config: GmmTrainingConfig):
    """EM training; returns (model, per-iteration total log-likelihood list)."""
    feats.require_nonempty()
    frames = feats.frames
    if frames.shape[0] < config.num_components:
        raise TooFewFrames(
            f"{frames.shape[0]} frames < {config.num_components} components"
        )

    global_var = np.maximum(frames.var(axis=0), config.variance_floor)
    model = _initial_model(frames, config, global_var)
    n, k = frames.shape
    history: list[float] = []
    prev_ll = None
    for iteration in range(config.max_iterations):
        counts, moments, frame_ll = posterior_sums(frames, model, squares=True)
        degenerate = np.flatnonzero(counts < DEGENERATE_MASS)
        if degenerate.size:
            # re-seed dead components at the worst-modelled frames
            worst = np.argsort(frame_ll)[: degenerate.size]
            weights, means, variances = (a.copy() for a in (model.weights, model.means,
                                                            model.variances))
            means[degenerate] = frames[worst]
            variances[degenerate] = global_var
            weights[degenerate] = 1.0 / n
            weights /= weights.sum()
            model = DiagonalGmm(weights=weights, means=means, variances=variances)
            prev_ll = None
            if iteration + 1 < config.max_iterations:
                continue
            # a re-seed on the last iteration still ends in an M-step
            counts, moments, frame_ll = posterior_sums(frames, model, squares=True)
        ll = float(frame_ll.sum())
        history.append(ll)

        moments /= counts[:, None]
        means, second = moments[:, :k], moments[:, k:]
        variances = np.maximum(second - means * means, config.variance_floor)
        weights = np.maximum(counts / n, 1e-12)
        weights /= weights.sum()
        model = DiagonalGmm(weights=weights, means=means, variances=variances)

        if prev_ll is not None and abs(ll - prev_ll) < config.convergence_tol * abs(prev_ll):
            break
        prev_ll = ll
    return model, history


def em_fit(feats: FeatureMatrix, config: GmmTrainingConfig) -> DiagonalGmm:
    """Maximum-likelihood mixture fit (k-means++ seeding, then EM)."""
    model, _ = em_fit_detailed(feats, config)
    return model
