"""Diagonal-covariance Gaussian mixtures: density evaluation and EM training."""

from __future__ import annotations

import itertools
import os
import queue
import threading
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatch, TooFewFrames
from .features import FeatureMatrix

_LOG_2PI = np.log(2.0 * np.pi)

WEIGHT_SUM_TOL = 1e-12
DEGENERATE_MASS = 1e-8
# _stack blocks at most BLOCK components, and LLR trials and E-steps take BLOCK frames at
# a time, so a pass holds at most BLOCK x BLOCK doubles (BLOCK x l for a larger model).
BLOCK = 2048
# _mixture_pass sums each model's exponentials shifted by the model's peak density. A sum
# at or above this floor has a largest term of at least 2**-900 / l for l components, far
# above the subnormal range (below 2**-1022): the l terms that underflow, each off by at
# most 2**-1075, move it by at most l * 2**-175 of itself, far below rounding. A frame
# where some model's sum is lower is summed again about its own per-frame peaks.
_FLOOR = 2.0 ** -900
TWO_RUNS_WORK = 2 ** 17  # frames x components of its products: smallest pass that splits
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


def _serve():  # the worker's loop: each (work, items, reply) job's (error, results)
    while True:
        work, items, reply = _jobs.get()
        try:
            outcome = None, [work(item) for item in items]
        except BaseException as error:
            outcome = error, None
        del work, items  # free the job's frames before its caller resumes, not at the next job
        reply.put(outcome)
        del reply, outcome  # nor hold its results while waiting for the next


_jobs, _worker = queue.SimpleQueue(), None  # a forked child's inherited worker is not alive


def _in_two_runs(work, items, size: int) -> list:
    """[work(item) for item in items], in order. A pass whose size, the frames x components
    of its products, reaches TWO_RUNS_WORK, with room for two runs, queues the second half of
    items for the process's worker thread and runs the first half itself, then waits for the
    tail on its own reply, also on a raise: numpy releases the GIL around the GEMM, exp and
    reductions, so the runs overlap. Concurrent callers' tails queue; a pass started on the
    worker runs every item. Callers combine results in item order, so every sum is the same
    for any CPU count."""
    global _worker
    half = len(items) // 2
    if (size < TWO_RUNS_WORK or half == 0 or not _room_for_two_runs()
            or threading.current_thread() is _worker):
        return [work(item) for item in items]
    if _worker is None or not _worker.is_alive():  # racing first splits may start two
        (_worker := threading.Thread(target=_serve, name="voxid-pass", daemon=True)).start()
    reply = queue.SimpleQueue()  # a tail whose wait was cut short lands here, read by no one
    _jobs.put((work, items[half:], reply))  # items call private functions, which no tracer wraps
    try:
        head = [work(item) for item in items[:half]]
    finally:
        error, tail = reply.get()
    if error is not None:
        raise error
    return head + tail


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
        if not (0.0 < self.convergence_tol < np.inf and 0.0 < self.variance_floor < np.inf):
            raise ValueError("convergence_tol and variance_floor must be finite and positive")


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
    """[-1/(2 var), mu/var, log w + const] about ref; one (l, 2k+1) array, filled in place."""
    k = means.shape[1]
    mu, precision = means - ref, 1.0 / variances
    coefficients = np.empty((len(means), 2 * k + 1))
    coefficients[:, -1] = log_weights - 0.5 * (
        k * _LOG_2PI + np.sum(np.log(variances) + mu * mu * precision, axis=1))
    np.multiply(precision, -0.5, out=coefficients[:, :k])
    np.multiply(mu, precision, out=coefficients[:, k:-1])
    return coefficients


def _terms(frames, ref) -> np.ndarray:
    """[(x - ref)^2, x - ref, 1]; one (L, 2k+1) array, filled in place. The shift keeps
    cancellation small."""
    k = frames.shape[1]
    terms = np.empty((len(frames), 2 * k + 1))
    x = np.subtract(frames, ref, out=terms[:, k:-1])
    np.square(x, out=terms[:, :k])
    terms[:, -1] = 1.0
    return terms


def _log_densities(terms, coefficients) -> np.ndarray:
    """log w_c + log N(x_t; mu_c, var_c), less the model's peak for _stack's coefficients,
    one row per stacked component; shape (l, L). One GEMM against _terms about the same ref,
    so memory grows with L * l, not L * l * k."""
    return coefficients @ terms.T


def _frame_log_densities(terms, coefficients) -> np.ndarray:
    """_log_densities as one vector-matrix product per frame, a (l, L) view. BLAS can give a
    GEMM's column other bits at another place in another product (its edge kernels), so
    frames picked out of a block take this: each gets the same bits whichever are picked,
    and the E-step and LLR scoring agree on them."""
    return (terms[:, None, :] @ coefficients.T)[:, 0].T


def frame_component_log_densities(frames: np.ndarray, gmm: DiagonalGmm) -> np.ndarray:
    """Per-frame, per-component log densities; shape (L, l)."""
    _require_dim(frames, gmm)
    ref = _centre(gmm.means)
    return _log_densities(_terms(frames, ref), _coefficients(gmm.means, gmm.variances, 0.0, ref)).T


def _mixture_pass(terms: np.ndarray, coefficients, peaks):
    """Frame log-likelihoods (N, L) under the N mixtures of one _stack pass, with the
    shifted exponentials (N l, L) and their per-model sums (N, L).

    One kernel call of the pass's coefficients, whose log densities are already less each
    model's peak density, against the frames' _terms: no exponent is above 0, so the
    exponentials overwrite the kernel's output with nothing to overflow, summed on one
    (N, l, L) view, and each model's peak is added back to its sums' logs. Frames where
    some model's sum is below _FLOOR or not finite are summed again by _resummed; one
    minimum of the sums finds the rare pass that holds such a frame.
    """
    exps = _log_densities(terms, coefficients)
    np.exp(exps, out=exps)
    sums = np.sum(exps.reshape(len(peaks), len(exps) // len(peaks), -1), axis=1)
    fits = sums.min(initial=np.inf) >= _FLOOR  # no sum is above l; a NaN fails, no frames fit
    frame_ll = np.log(sums if fits else np.fmax(sums, _FLOOR))  # low frames' logs are replaced
    frame_ll += peaks[:, None]
    if not fits:
        low = np.flatnonzero(~np.all((sums >= _FLOOR) & np.isfinite(sums), axis=0))
        frame_ll[:, low], exps[:, low], sums[:, low] = _resummed(terms[low], coefficients, peaks)
    return frame_ll, exps, sums


def _resummed(terms: np.ndarray, coefficients, peaks):
    """_mixture_pass for frames its sums cannot hold: on one (N, l, L) view, each model's
    log densities are shifted by their own maximum at each frame (0 where not finite)
    before the exponentials, so frames far from every component keep their precision, and
    -inf rows and NaN come out as an unshifted log-sum-exp gives them. The frame's maximum
    and the model's peak are added first, so the sum's log is rounded once, at its scale."""
    logs = _frame_log_densities(terms, coefficients)
    view = logs.reshape(len(peaks), len(logs) // len(peaks), -1)
    shift = np.max(view, axis=1)
    shift[~np.isfinite(shift)] = 0.0
    view -= shift[:, None, :]
    np.exp(view, out=view)
    sums = np.sum(view, axis=1)
    shift += peaks[:, None]
    with np.errstate(divide="ignore"):
        return np.log(sums) + shift, logs, sums


def _posteriors(frames: np.ndarray, gmm: DiagonalGmm):
    """Responsibilities (l, L), columns summing to 1, and per-frame log-likelihoods (L,),
    from the mixture's _stack, which every E-step and Baum-Welch call shares."""
    _require_dim(frames, gmm)
    ref, (layout,) = _reused(_stack, [gmm])
    frame_ll, gamma, sums = _mixture_pass(_terms(frames, ref), *layout)
    gamma /= sums
    return gamma, frame_ll[0]


def posterior_sums(frames: np.ndarray, gmm: DiagonalGmm, squares: bool = False):
    """Soft counts (l,), gamma^T X (gamma^T [X, X^2] with squares) and frame
    log-likelihoods (L,), BLOCK frames at a time; each block's counts and products
    are added in frame order. The work is the kernel and moments products, 2 x frames x l;
    a one-block pass whose work reaches TWO_RUNS_WORK is cut at ceil(L / 2) frames, by its
    sizes alone, so _in_two_runs has two items and the bits do not depend on the CPUs."""
    _reused(_stack, [gmm])  # built before a split, so the second run only reads the slot
    n, k = frames.shape
    work = 2 * n * gmm.num_components
    step = (n + 1) // 2 if n <= BLOCK and work >= TWO_RUNS_WORK else BLOCK
    frame_ll = np.empty(n)

    def moments(start):
        block = frames[start:start + step]
        gamma, frame_ll[start:start + step] = _posteriors(block, gmm)
        x = block
        if squares:  # [X, X^2], one array filled in place
            x = np.empty((len(block), 2 * k))
            x[:, :k] = block
            np.square(block, out=x[:, k:])
        return gamma.sum(axis=1), gamma @ x

    counts = np.zeros(gmm.num_components)
    sums = np.zeros((gmm.num_components, k * (2 if squares else 1)))
    for block_counts, block_sums in _in_two_runs(moments, range(0, n, step), work):
        counts += block_counts
        sums += block_sums
    return counts, sums, frame_ll


def mixture_log_likelihood(x, gmm: DiagonalGmm) -> float:
    """log sum_i w_i N(x; mu_i, var_i), via log-sum-exp."""
    return float(_posteriors(np.atleast_2d(np.asarray(x, dtype=np.float64)), gmm)[1][0])


def _stack(gmms) -> tuple:
    """The centre of gmms[0] and the passes that score gmms, all read-only, laid out once:
    each run of consecutive models with equal component count l is taken in blocks of at
    most max(1, BLOCK // l) models, and a block of n models is cut after its first n // 2
    (one model is not cut), whatever the CPU count. Each half is one (coefficients, peaks)
    pass of views of its block, l rows of coefficients for each of its len(peaks) models.
    A model's peak is the largest of its components' log densities at their own means,
    which bounds all of its log densities; its coefficients' constant column is less that
    peak. Callers take it through _reused, so the E-step's [gmm] and LLR's
    [ubm, *speakers] share the head's slot. Every model must have the head's dim."""
    ref = _centre(gmms[0].means)
    if any(gmm.dim_k != ref.size for gmm in gmms):
        raise DimensionMismatch(f"stacked models have dims {sorted({g.dim_k for g in gmms})}")
    passes = []
    for size, run in itertools.groupby(gmms, key=lambda gmm: gmm.num_components):
        run, step = list(run), max(1, BLOCK // size)
        for block in (run[start:start + step] for start in range(0, len(run), step)):
            variances = np.concatenate([g.variances for g in block])
            log_weights = np.log(np.concatenate([g.weights for g in block]))
            heights = log_weights - 0.5 * (variances.shape[1] * _LOG_2PI
                                           + np.sum(np.log(variances), axis=1))
            peaks = heights.reshape(len(block), size).max(axis=1)
            coefficients = _coefficients(np.concatenate([g.means for g in block]), variances,
                                         log_weights - np.repeat(peaks, size), ref)
            coefficients.flags.writeable = peaks.flags.writeable = False
            cut = len(block) // 2
            passes += [(coefficients[lo * size:hi * size], peaks[lo:hi])
                       for lo, hi in ((0, cut), (cut, len(block))) if lo < hi]
    ref.flags.writeable = False
    return ref, tuple(passes)


def sequence_log_likelihoods(feats: FeatureMatrix, gmms) -> np.ndarray:
    """Sequence log-likelihood of one utterance under each mixture; shape (N,), so (0,)
    for no mixtures.

    Terms built once, about the first model's centre, so the models may differ in
    component count; then one _mixture_pass per BLOCK frames and pass of _stack, on one or
    two threads, each writing its frames' log-likelihoods into its pass's (N, L) array,
    whose rows are summed once. The work is frames x stacked components. Frames are
    treated as independent.
    """
    feats.require_nonempty()
    if len(gmms) == 0:
        return np.zeros(0)
    frames = feats.frames
    _require_dim(frames, gmms[0])
    ref, passes = _reused(_stack, gmms)
    terms = _terms(frames, ref)
    frame_ll = [np.empty((len(peaks), len(terms))) for _, peaks in passes]

    def block_pass(item):
        start, layout, out = item
        out[:, start:start + BLOCK] = _mixture_pass(terms[start:start + BLOCK], *layout)[0]

    _in_two_runs(block_pass, [(start, *item) for start in range(0, len(terms), BLOCK)
                              for item in zip(passes, frame_ll)],
                 len(terms) * sum(len(coefficients) for coefficients, _ in passes))
    # each model's frame log-likelihoods are one contiguous row, which numpy sums pairwise
    return np.concatenate([out.sum(axis=1) for out in frame_ll])


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


def _nearest(frames: np.ndarray, centers: np.ndarray, ref: np.ndarray, terms=None) -> np.ndarray:
    """Nearest-centre labels, one product per BLOCK frames of their _terms' [x - ref, 1]
    columns with [-2 (c - ref); ||c - ref||^2], whose last row adds the norms
    (||x - ref||^2 drops out). Each block's terms are built when its turn comes, unless the
    frames' terms, built once for many passes, are given."""
    k = frames.shape[1]
    centred = centers - ref
    coefficients = np.vstack([-2.0 * centred.T, np.sum(centred * centred, axis=1)])

    def labels(start):
        block = (_terms(frames[start:start + BLOCK], ref) if terms is None
                 else terms[start:start + BLOCK])
        return np.argmin(block[:, k:] @ coefficients, axis=1)

    return np.concatenate(_in_two_runs(labels, range(0, frames.shape[0], BLOCK),
                                       frames.shape[0] * centers.shape[0]))


def _cluster_sums(labels: np.ndarray, rows, n_clusters: int) -> np.ndarray:
    """Per-cluster sums (C, k) of the frames whose k coordinate rows of n values `rows`
    yields, each sum added in frame order."""
    return np.stack([np.bincount(labels, weights=row, minlength=n_clusters) for row in rows],
                    axis=1)


def _cluster_moments(frames: np.ndarray, labels: np.ndarray, n_clusters: int):
    """Per-cluster frame counts, means and variances, 0 where a cluster is empty: np.var's
    two passes, each in frame order, one coordinate's squared deviations at a time."""
    counts = np.bincount(labels, minlength=n_clusters)
    sizes = np.maximum(counts, 1)[:, None]
    means = _cluster_sums(labels, frames.T, n_clusters) / sizes
    squares = (np.square(column - mean[labels]) for column, mean in zip(frames.T, means.T))
    return counts, means, _cluster_sums(labels, squares, n_clusters) / sizes


def _kmeans_pp(frames: np.ndarray, n_clusters: int, rng: np.random.Generator):
    """k-means++ seeding, whose distances add up the contiguous rows of one (k, n) copy of the
    frames, then Lloyd steps over the frames' _terms, built once, whose centre sums read the
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
    terms = _terms(frames, ref)
    labels = np.zeros(n, dtype=np.intp)
    for _ in range(25):
        new_labels = _nearest(frames, centers, ref, terms)
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
    counts, means, variances = _cluster_moments(frames, labels, n_clusters)
    weights = np.maximum(counts, 1) / n
    weights /= weights.sum()
    means = np.where((counts > 0)[:, None], means, centers)
    variances = np.where((counts >= 2)[:, None],
                         np.maximum(variances, config.variance_floor), global_var)
    return DiagonalGmm(weights=weights, means=means, variances=variances)


def em_fit_detailed(feats: FeatureMatrix, config: GmmTrainingConfig):
    """EM training; returns (model, per-iteration total log-likelihood list)."""
    feats.require_nonempty()
    frames = feats.frames
    if frames.shape[0] < config.num_components:
        raise TooFewFrames(
            f"{frames.shape[0]} frames < {config.num_components} components"
        )

    # the frames' variances as one cluster's: np.var's bits for k > 1, with no (L, k) temporary
    _, _, spread = _cluster_moments(frames, np.zeros(frames.shape[0], dtype=np.intp), 1)
    global_var = np.maximum(spread[0], config.variance_floor)
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
