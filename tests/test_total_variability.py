import pickle
import tracemalloc
from copy import copy, deepcopy
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dtpttr

import voxid.total_variability as total_variability
from voxid.errors import DimensionMismatch, NumericalFailure, RankTooLarge
from voxid.gmm import DiagonalGmm
from voxid.scoring import cosine_scores
from voxid.speaker_models import BaumWelchStats, Ubm, build_supervector
from voxid.total_variability import (
    BLOCK,
    IVector,
    TotalVariabilityModel,
    extract_ivector,
    extract_ivectors,
    init_tv,
    train_tv,
)


def make_ubm(components=4, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    weights = np.full(components, 1.0 / components)
    return Ubm(gmm=DiagonalGmm(
        weights=weights,
        means=rng.normal(0, 2, (components, dim)),
        variances=rng.uniform(0.5, 1.5, (components, dim)),
    ))


def planted_stats(tv, w_star, counts):
    """Statistics exactly consistent with the generative offset T @ w*."""
    c, k = tv.num_components, tv.dim_k
    mean_sv = tv.m + tv.t_matrix @ w_star
    first = counts[:, None] * mean_sv.reshape(c, k)
    return BaumWelchStats(zeroth=counts, first=first)


class TestInit:
    def test_seed_determinism(self):
        ubm = make_ubm()
        a = init_tv(ubm, 3, rng_seed=7)
        b = init_tv(ubm, 3, rng_seed=7)
        assert np.array_equal(a.t_matrix, b.t_matrix)

    def test_rank_too_large(self):
        ubm = make_ubm(components=2, dim=2)
        with pytest.raises(RankTooLarge):
            init_tv(ubm, 4)

    def test_m_is_ubm_supervector(self):
        ubm = make_ubm()
        tv = init_tv(ubm, 2)
        assert np.array_equal(tv.m, build_supervector(ubm))


def unpacked(packed, r):
    """The symmetric r x r matrices whose lower triangles, in LAPACK's 'L' packed order
    (unpacked by LAPACK's own dtpttr), are the rows of packed."""
    lower = np.array([dtpttr(r, row, uplo="L")[0] for row in np.atleast_2d(packed)])
    full = lower + np.tril(lower, -1).transpose(0, 2, 1)
    return full.reshape(np.shape(packed)[:-1] + (r, r))


def test_precision_blocks_are_derived():
    tv = init_tv(make_ubm(components=4, dim=3, seed=14), 2, rng_seed=15)
    assert tv.precision_blocks.shape == (4, 3)
    for c in range(4):
        t_c = tv.t_matrix[3 * c:3 * (c + 1)]
        dense = t_c.T @ np.diag(1.0 / tv.sigma[3 * c:3 * (c + 1)]) @ t_c
        assert np.max(np.abs(unpacked(tv.precision_blocks[c], 2) - dense)) < 1e-12
    with pytest.raises(FrozenInstanceError):
        tv.precision_blocks = np.zeros((4, 3))
    with pytest.raises(ValueError):
        tv.precision_blocks[0, 0] = 1.0


@pytest.mark.parametrize("c, k, r", [(4, 3, 2), (16, 8, 8), (64, 20, 100)])
def test_precision_blocks_are_exactly_symmetric(c, k, r):
    # each packed row is the lower triangle of an exactly symmetric S_c^T S_c, so the
    # unpacked matrix is that whole product, bit for bit, with BUILD-sized chunks or not
    tv = init_tv(make_ubm(components=c, dim=k, seed=c), r, rng_seed=r)
    scaled = tv.t_matrix.reshape(c, k, r) / np.sqrt(tv.sigma).reshape(c, k, 1)
    dense = scaled.transpose(0, 2, 1) @ scaled
    assert np.array_equal(dense, dense.transpose(0, 2, 1))
    assert np.array_equal(unpacked(tv.precision_blocks, r), dense)


def test_precision_blocks_build_holds_no_full_stack():
    c, k, r = 64, 20, 100
    tv = init_tv(make_ubm(components=c, dim=k, seed=46), r, rng_seed=47)
    tracemalloc.start()
    try:
        tv.precision_blocks
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the packed result and BUILD components' R x R products; (C, R, R) would be 5.1 MB
    assert tv.precision_blocks.nbytes == c * r * (r + 1) // 2 * 8
    assert peak < tv.precision_blocks.nbytes + 2 * total_variability.BUILD * r * r * 8
    assert peak < 0.75 * c * r * r * 8


def test_stacked_holds_its_output_and_one_block_of_products():
    c, k, utterances = 64, 20, 300
    tv = init_tv(make_ubm(components=c, dim=k, seed=48), 10, rng_seed=49)
    rng = np.random.default_rng(50)
    stats_set = [BaumWelchStats(n, rng.normal(0, 1, (c, k)) * n[:, None])
                 for n in rng.uniform(1, 20, (utterances, c))]
    tracemalloc.start()
    try:
        counts, f_centered = total_variability._stacked(stats_set, tv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    whole = np.array([s.first.reshape(-1) for s in stats_set]) - np.repeat(counts, k, axis=1) * tv.m
    assert np.array_equal(f_centered, whole)
    # the (U, C) counts and (U, C*k) statistics, one BLOCK's N m products and 2**18 bytes
    # for the lists of U arrays and the product's ufunc buffers (about 124 kB with numpy's
    # default buffer size); two (U, C*k) products would add 3 MB
    assert peak < counts.nbytes + f_centered.nbytes + BLOCK * c * k * 8 + 2 ** 18


class TestReadOnlyArrays:
    """A TV model and an i-vector copy every array they are given, once, into new bytes,
    and hold float64 arrays that cannot be made writeable. Models compare and hash by
    identity."""

    def test_every_array_given_is_copied(self):
        tv = init_tv(make_ubm(seed=16), 2, rng_seed=17)
        model = TotalVariabilityModel(tv.m, tv.sigma, tv.t_matrix, tv.num_components, tv.dim_k)
        for name in ("m", "sigma", "t_matrix"):
            held, given = getattr(model, name), getattr(tv, name)
            assert not (held.flags.writeable or np.shares_memory(held, given))
            assert np.array_equal(held, given)
        w = np.arange(3.0)
        ivector = IVector(w)
        assert not (ivector.w.flags.writeable or np.shares_memory(ivector.w, w))
        assert not np.shares_memory(IVector(ivector.w).w, ivector.w)

    @pytest.mark.parametrize("kind", ["gmm", "adapted-gmm", "tv", "ivector"])
    def test_models_compare_and_hash_by_identity(self, kind):
        ubm = make_ubm(seed=29)
        build = {"gmm": lambda: DiagonalGmm(ubm.gmm.weights, ubm.gmm.means, ubm.gmm.variances),
                 "adapted-gmm": lambda: ubm.gmm.with_means(ubm.gmm.means),
                 "tv": lambda: init_tv(ubm, 2, rng_seed=30),
                 "ivector": lambda: IVector(np.ones(3))}[kind]
        model, equal = build(), build()
        assert model == model and model != equal
        assert len({model, equal, model}) == 2
        assert (model == copy(model)) is False

    def test_extraction_ignores_later_writes_to_the_callers_arrays(self):
        tv = init_tv(make_ubm(seed=18), 3, rng_seed=19)
        t, sigma = tv.t_matrix.copy(), tv.sigma.copy()
        model = TotalVariabilityModel(tv.m, sigma, t, tv.num_components, tv.dim_k)
        stats = BaumWelchStats(np.full(4, 6.0), np.random.default_rng(20).normal(0, 2, (4, 3)))
        extract_ivector(stats, model)  # builds the model's precision blocks
        t *= 3.0
        sigma *= 0.5
        fresh = TotalVariabilityModel(model.m.copy(), model.sigma.copy(), model.t_matrix.copy(),
                                      model.num_components, model.dim_k)
        assert np.array_equal(extract_ivector(stats, model).w, extract_ivector(stats, fresh).w)

    def test_scores_ignore_writes_to_read_only_memory_the_caller_can_write(self, caller_memory):
        tv = init_tv(make_ubm(seed=21), 3, rng_seed=22)
        rng = np.random.default_rng(23)
        stats = [BaumWelchStats(np.full(4, 6.0), rng.normal(0, 2, (4, 3))) for _ in range(3)]
        values = [tv.m, tv.sigma, tv.t_matrix, *(rng.normal(0, 1, 3) for _ in range(3))]
        given = [caller_memory(a) for a in values]

        def build(m, sigma, t, *ws):
            return (TotalVariabilityModel(m, sigma, t, tv.num_components, tv.dim_k),
                    [IVector(w) for w in ws])

        scored, unscored = build(*(a for a, _ in given)), build(*(a for a, _ in given))
        extract_ivectors(stats, scored[0])  # builds the model's precision blocks
        cosine_scores(scored[1][1:], scored[1][0])  # keeps the targets' stack in a slot
        for _, add in given:
            add(3.0)
        fresh, ivectors = build(*(a.copy() for a in values))
        expected = cosine_scores(ivectors[1:], ivectors[0])
        for model, held in (scored, unscored):
            assert all(np.array_equal(got.w, want.w) for got, want in
                       zip(extract_ivectors(stats, model), extract_ivectors(stats, fresh)))
            assert np.array_equal(cosine_scores(held[1:], held[0]), expected)

    def test_held_arrays_cannot_be_made_writeable(self, caller_memory):
        tv = init_tv(make_ubm(seed=24), 2, rng_seed=25)
        given = [caller_memory(a)[0] for a in (tv.m, tv.sigma, tv.t_matrix, np.arange(3.0))]
        model = TotalVariabilityModel(*given[:3], tv.num_components, tv.dim_k)
        for held in (tv.m, tv.sigma, tv.t_matrix, model.m, model.sigma, model.t_matrix,
                     IVector(given[3]).w, IVector(np.arange(3.0)).w):
            with pytest.raises(ValueError):
                held.flags.writeable = True

    @pytest.mark.parametrize("rebuild", ["copy", "deepcopy", "pickle"])
    def test_copies_leave_what_was_built_behind(self, rebuild):
        # a copy is built through the constructor: no precision blocks or kept stack come
        # with it, and its arrays are read-only
        rebuild = {"copy": copy, "deepcopy": deepcopy,
                   "pickle": lambda model: pickle.loads(pickle.dumps(model, 4))}[rebuild]
        tv = init_tv(make_ubm(seed=26), 3, rng_seed=27)
        rng = np.random.default_rng(28)
        stats = [BaumWelchStats(np.full(4, 6.0), rng.normal(0, 2, (4, 3))) for _ in range(3)]
        size = len(pickle.dumps(tv))
        ivectors = extract_ivectors(stats, tv)  # builds the model's precision blocks
        expected = cosine_scores(ivectors[1:], ivectors[0])  # keeps the targets' stack
        assert len(pickle.dumps(tv)) == size
        copied, copies = rebuild(tv), [rebuild(ivector) for ivector in ivectors]
        assert "precision_blocks" not in vars(copied) and "_slot" not in vars(copies[0])
        for held in (copied.m, copied.sigma, copied.t_matrix, *(c.w for c in copies)):
            with pytest.raises(ValueError):
                held[...] += 1.0
        assert all(np.array_equal(got.w, want.w) for got, want in
                   zip(extract_ivectors(stats, copied), ivectors))
        assert np.array_equal(cosine_scores(copies[1:], copies[0]), expected)


class TestExtraction:
    def test_zero_t_gives_prior_mean(self):
        ubm = make_ubm()
        tv = init_tv(ubm, 2)
        tv = TotalVariabilityModel(
            m=tv.m, sigma=tv.sigma, t_matrix=np.zeros_like(tv.t_matrix),
            num_components=tv.num_components, dim_k=tv.dim_k,
        )
        stats = BaumWelchStats(np.full(4, 5.0), np.ones((4, 3)))
        assert np.array_equal(extract_ivector(stats, tv).w, np.zeros(2))

    def test_zero_counts_give_zero(self):
        ubm = make_ubm()
        tv = init_tv(ubm, 2)
        stats = BaumWelchStats(np.zeros(4), np.zeros((4, 3)))
        assert np.array_equal(extract_ivector(stats, tv).w, np.zeros(2))

    def test_planted_recovery(self):
        ubm = make_ubm(components=8, dim=4, seed=1)
        tv = init_tv(ubm, 4, rng_seed=2)
        rng = np.random.default_rng(3)
        w_star = rng.standard_normal(4)
        stats = planted_stats(tv, w_star, np.full(8, 1e4))
        w = extract_ivector(stats, tv).w
        assert np.linalg.norm(w - w_star) / np.linalg.norm(w_star) < 0.05

    def test_direct_dense_solve_oracle(self):
        ubm = make_ubm(components=5, dim=3, seed=4)
        tv = init_tv(ubm, 3, rng_seed=5)
        rng = np.random.default_rng(6)
        counts = rng.uniform(1, 20, 5)
        first = rng.normal(0, 2, (5, 3)) * counts[:, None]
        stats = BaumWelchStats(counts, first)
        w = extract_ivector(stats, tv).w
        # brute-force posterior solve with dense matrices
        n_exp = np.repeat(counts, 3)
        f_centered = first.reshape(-1) - n_exp * tv.m
        precision = np.eye(3) + tv.t_matrix.T @ np.diag(n_exp / tv.sigma) @ tv.t_matrix
        oracle = np.linalg.solve(precision, tv.t_matrix.T @ (f_centered / tv.sigma))
        assert np.max(np.abs(w - oracle)) < 1e-10

    def test_shrinkage_vs_unregularized(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ubm = make_ubm(components=4, dim=3, seed=rng.integers(1 << 30))
            tv = init_tv(ubm, 2, rng_seed=rng.integers(1 << 30))
            counts = rng.uniform(0.5, 10, 4)
            first = rng.normal(0, 2, (4, 3)) * counts[:, None]
            w = extract_ivector(BaumWelchStats(counts, first), tv).w
            n_exp = np.repeat(counts, 3)
            f_centered = first.reshape(-1) - n_exp * tv.m
            lhs = tv.t_matrix.T @ np.diag(n_exp / tv.sigma) @ tv.t_matrix
            rhs = tv.t_matrix.T @ (f_centered / tv.sigma)
            unreg = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
            assert np.linalg.norm(w) <= np.linalg.norm(unreg) + 1e-9

    def test_scale_consistency(self):
        ubm = make_ubm(components=4, dim=3, seed=8)
        tv = init_tv(ubm, 2, rng_seed=9)
        rng = np.random.default_rng(10)
        counts = rng.uniform(1, 5, 4)
        first = rng.normal(0, 2, (4, 3)) * counts[:, None]
        n_exp = np.repeat(counts, 3)
        lhs = tv.t_matrix.T @ np.diag(n_exp / tv.sigma) @ tv.t_matrix
        rhs_base = tv.t_matrix.T @ (
            (first.reshape(-1) - n_exp * tv.m) / tv.sigma
        )
        limit = np.linalg.solve(lhs, rhs_base)
        prev = None
        for scale in (1.0, 2.0, 4.0, 8.0):
            stats = BaumWelchStats(scale * counts, scale * first)
            w = extract_ivector(stats, tv).w
            dist = np.linalg.norm(w - limit)
            if prev is not None:
                assert dist < prev
            prev = dist

    def test_posterior_precision_spd(self):
        rng = np.random.default_rng(11)
        ubm = make_ubm(components=4, dim=3, seed=12)
        tv = init_tv(ubm, 3, rng_seed=13)
        counts = rng.uniform(0, 30, 4)
        first = rng.normal(0, 2, (4, 3)) * np.maximum(counts, 1e-9)[:, None]
        n_exp = np.repeat(counts, 3)
        precision = np.eye(3) + tv.t_matrix.T @ np.diag(n_exp / tv.sigma) @ tv.t_matrix
        assert np.max(np.abs(precision - precision.T)) < 1e-10
        np.linalg.cholesky(precision)  # raises if not SPD
        extract_ivector(BaumWelchStats(counts, first), tv)

    def test_matches_scipy_cholesky_solve_bit_for_bit(self):
        ubm = make_ubm(components=16, dim=3, seed=16)
        tv = init_tv(ubm, 10, rng_seed=17)
        rng = np.random.default_rng(18)
        for _ in range(20):
            counts = rng.uniform(0, 50, 16)
            first = rng.normal(0, 2, (16, 3)) * counts[:, None]
            precision = np.eye(10) + unpacked(np.tensordot(counts, tv.precision_blocks, axes=1), 10)
            f_centered = first.reshape(-1) - np.repeat(counts, 3) * tv.m
            rhs = tv.t_matrix.T @ (f_centered / tv.sigma)
            oracle = cho_solve(cho_factor(precision, lower=True), rhs)
            assert np.array_equal(extract_ivector(BaumWelchStats(counts, first), tv).w, oracle)

    def test_overflowing_precision_is_a_numerical_failure(self):
        ubm = make_ubm()
        base = init_tv(ubm, 2)
        tv = TotalVariabilityModel(m=base.m, sigma=base.sigma, t_matrix=1e3 * base.t_matrix,
                                   num_components=4, dim_k=3)
        stats = BaumWelchStats(np.full(4, 1e308), np.ones((4, 3)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure):
                extract_ivector(stats, tv)
            with pytest.raises(NumericalFailure):
                train_tv([stats], tv, iterations=1)

    def test_one_overflowing_precision_in_a_block_is_a_numerical_failure(self):
        ubm = make_ubm()
        base = init_tv(ubm, 2)
        tv = TotalVariabilityModel(m=base.m, sigma=base.sigma, t_matrix=1e3 * base.t_matrix,
                                   num_components=4, dim_k=3)
        rng = np.random.default_rng(19)
        stats = [BaumWelchStats(n, rng.normal(0, 2, (4, 3)) * n[:, None])
                 for n in rng.uniform(0.5, 20, (BLOCK, 4))]
        assert len(extract_ivectors(stats, tv)) == BLOCK
        stats[4] = BaumWelchStats(np.full(4, 1e308), np.ones((4, 3)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure, match="^posterior precision is not finite$"):
                extract_ivectors(stats, tv)

    def test_indefinite_precision_is_a_numerical_failure(self):
        # eigenvalues 3 and -1: finite, but with no Cholesky factor
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]], order="F")
        with pytest.raises(NumericalFailure,
                           match="^posterior precision is not positive definite"):
            total_variability._cholesky(indefinite, "posterior precision", finite=True)

    def test_dimension_mismatch(self):
        ubm = make_ubm()
        tv = init_tv(ubm, 2)
        with pytest.raises(DimensionMismatch):
            extract_ivector(BaumWelchStats(np.ones(3), np.ones((3, 3))), tv)


class TestBatchExtraction:
    def test_matches_one_at_a_time_and_dense_solve(self):
        c, k, r = 6, 4, 3
        tv = init_tv(make_ubm(components=c, dim=k, seed=40), r, rng_seed=41)
        rng = np.random.default_rng(42)
        counts = rng.uniform(0.5, 20, (2 * BLOCK + 3, c))
        counts[BLOCK + 1] = 0.0  # an utterance with no frames, inside the second block
        stats_set = [BaumWelchStats(n, rng.normal(0, 2, (c, k)) * n[:, None]) for n in counts]
        batch = extract_ivectors((stats for stats in stats_set), tv)
        assert len(batch) == len(stats_set)
        assert np.array_equal(batch[BLOCK + 1].w, np.zeros(r))
        for stats, ivector in zip(stats_set, batch):
            assert np.max(np.abs(ivector.w - extract_ivector(stats, tv).w)) < 1e-12
            n_exp = np.repeat(stats.zeroth, k)
            f_centered = stats.first.reshape(-1) - n_exp * tv.m
            precision = np.eye(r) + tv.t_matrix.T @ np.diag(n_exp / tv.sigma) @ tv.t_matrix
            oracle = np.linalg.solve(precision, tv.t_matrix.T @ (f_centered / tv.sigma))
            assert np.max(np.abs(ivector.w - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_stats_checked_before_any_factorisation(self, monkeypatch):
        def unreachable(a, what):
            raise AssertionError(f"factored {what} before the stats were checked")

        tv = init_tv(make_ubm(), 2)
        good = BaumWelchStats(np.ones(4), np.ones((4, 3)))
        bad = BaumWelchStats(np.ones(4), np.ones((4, 2)))
        monkeypatch.setattr(total_variability, "_cholesky", unreachable)
        for stats_set in ([], [good] * 5 + [bad]):
            with pytest.raises(DimensionMismatch):
                extract_ivectors(iter(stats_set), tv)

    def test_memory_grows_only_with_per_utterance_arrays(self):
        c, k, r = 64, 4, 100
        tv = init_tv(make_ubm(components=c, dim=k, seed=43), r, rng_seed=44)
        tv.precision_blocks  # cached once, outside the measurement
        rng = np.random.default_rng(45)
        counts = rng.uniform(1, 20, (4 * BLOCK, c))
        stats_set = [BaumWelchStats(n, rng.normal(0, 1, (c, k)) * n[:, None]) for n in counts]
        peaks = []
        for utterances in (BLOCK, 4 * BLOCK):
            tracemalloc.start()
            try:
                extract_ivectors(stats_set[:utterances], tv)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # (U, C), (U, C*k) and (U, R) arrays of doubles; the (BLOCK, R^2) unpacked and
        # (BLOCK, R(R+1)/2) packed precisions are fixed
        assert peaks[1] - peaks[0] < 2 * 3 * BLOCK * (c * k + r) * 8
        assert peaks[0] < 1.75 * BLOCK * r * r * 8


def principal_angle_deg(a, b):
    """Largest principal angle between the column spans of a and b."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    sv = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.degrees(np.arccos(np.clip(sv.min(), -1.0, 1.0)))


class TestTraining:
    def test_zero_iterations_identity(self):
        ubm = make_ubm()
        tv = init_tv(ubm, 2)
        stats = BaumWelchStats(np.ones(4), np.ones((4, 3)))
        out = train_tv([stats], tv, iterations=0)
        assert np.array_equal(out.t_matrix, tv.t_matrix)

    def test_scalar_toy_single_iteration(self):
        # effectively scalar: second feature dimension carries no signal,
        # so the update reduces to hand algebra on (t, n, f)
        tv = TotalVariabilityModel(
            m=np.array([0.0, 0.0]), sigma=np.array([1.0, 1.0]),
            t_matrix=np.array([[0.5], [0.0]]), num_components=1, dim_k=2,
        )
        n, f = 4.0, 6.0
        stats = BaumWelchStats(np.array([n]), np.array([[f, 0.0]]))
        # E-step: precision l = 1 + t^2 n = 2, w = t f / l = 1.5,
        # cov = 1/l = 0.5, a = n (cov + w^2) = 11, b = f w = 9
        # M-step: t' = b / a = 9/11
        out = train_tv([stats], tv, iterations=1)
        assert out.t_matrix[0, 0] == pytest.approx(9.0 / 11.0, abs=1e-12)
        assert out.t_matrix[1, 0] == 0.0

    def test_planted_subspace_recovery(self):
        ubm = make_ubm(components=6, dim=4, seed=20)
        rng = np.random.default_rng(21)
        t_true = rng.standard_normal((24, 2))
        tv_true = TotalVariabilityModel(
            m=build_supervector(ubm),
            sigma=ubm.gmm.variances.reshape(-1),
            t_matrix=t_true, num_components=6, dim_k=4,
        )
        stats_set = [
            planted_stats(tv_true, rng.standard_normal(2), np.full(6, 1e3))
            for _ in range(200)
        ]
        tv = init_tv(ubm, 2, rng_seed=22)
        trained = train_tv(stats_set, tv, iterations=10)
        assert principal_angle_deg(trained.t_matrix, t_true) < 5.0

    def test_determinism(self):
        ubm = make_ubm(components=4, dim=3, seed=23)
        rng = np.random.default_rng(24)
        stats_set = [
            BaumWelchStats(rng.uniform(1, 10, 4), rng.normal(0, 1, (4, 3)))
            for _ in range(10)
        ]
        tv = init_tv(ubm, 2, rng_seed=25)
        a = train_tv(stats_set, tv, iterations=3)
        b = train_tv(stats_set, tv, iterations=3)
        assert np.array_equal(a.t_matrix, b.t_matrix)

    @pytest.mark.parametrize("iterations", [1, 3])
    def test_unoccupied_component_keeps_its_t(self, iterations):
        # A_2 = B_2 = 0, and component 2 reaches no posterior, so the other T_c are what
        # dense EM gives on the model and statistics without it
        c, k, r, dead = 4, 3, 2, 2
        ubm = make_ubm(components=c, dim=k, seed=26)
        rng = np.random.default_rng(27)
        counts = rng.uniform(1, 10, (5, c))
        counts[:, dead] = 0.0  # component 2 sees no frame in any utterance
        stats_set = [BaumWelchStats(n, rng.normal(0, 1, (c, k)) * n[:, None]) for n in counts]
        tv = init_tv(ubm, r, rng_seed=28)
        trained = train_tv(stats_set, tv, iterations=iterations).t_matrix.reshape(c, k, r)
        assert np.array_equal(trained[dead], tv.t_matrix.reshape(c, k, r)[dead])
        live = np.arange(c) != dead
        reduced = TotalVariabilityModel(
            tv.m.reshape(c, k)[live].ravel(), tv.sigma.reshape(c, k)[live].ravel(),
            tv.t_matrix.reshape(c, k, r)[live].reshape(-1, r), c - 1, k)
        t = dense_em([BaumWelchStats(s.zeroth[live], s.first[live]) for s in stats_set],
                     reduced, iterations)
        assert np.max(np.abs(trained[live].reshape(-1, r) - t)) < 1e-10 * np.max(np.abs(t))

    def test_negative_iterations_rejected(self):
        tv = init_tv(make_ubm(), 2)
        with pytest.raises(ValueError):
            train_tv([BaumWelchStats(np.ones(4), np.ones((4, 3)))], tv, iterations=-1)

    def test_stats_checked_before_any_work(self):
        # the last element is dimensioned for another model, and no iteration runs
        tv = init_tv(make_ubm(), 2)
        good = BaumWelchStats(np.ones(4), np.ones((4, 3)))
        bad = BaumWelchStats(np.ones(4), np.ones((4, 2)))
        with pytest.raises(DimensionMismatch):
            train_tv([good] * 5 + [bad], tv, iterations=0)

    @pytest.mark.parametrize("iterations", [1, 3])
    def test_dense_em_oracle(self, iterations):
        c, k, r = 6, 4, 3
        ubm = make_ubm(components=c, dim=k, seed=30)
        rng = np.random.default_rng(31)
        counts = rng.uniform(0.5, 20, (8, c))
        stats_set = [BaumWelchStats(n, rng.normal(0, 2, (c, k)) * n[:, None]) for n in counts]
        tv = init_tv(ubm, r, rng_seed=32)
        t = dense_em(stats_set, tv, iterations)
        trained = train_tv(stats_set, tv, iterations=iterations)
        assert np.max(np.abs(trained.t_matrix - t)) < 1e-10 * np.max(np.abs(t))

    @pytest.mark.parametrize("iterations", [1, 3])
    def test_dense_em_oracle_across_blocks(self, iterations):
        c, k, r = 6, 4, 3
        ubm = make_ubm(components=c, dim=k, seed=33)
        rng = np.random.default_rng(34)
        counts = rng.uniform(0.5, 20, (2 * BLOCK + 3, c))
        counts[BLOCK + 1] = 0.0  # an utterance with no frames, inside the second block
        stats_set = [BaumWelchStats(n, rng.normal(0, 2, (c, k)) * n[:, None]) for n in counts]
        tv = init_tv(ubm, r, rng_seed=35)
        t = dense_em(stats_set, tv, iterations)
        trained = train_tv((stats for stats in stats_set), tv, iterations=iterations)
        assert np.max(np.abs(trained.t_matrix - t)) < 1e-10 * np.max(np.abs(t))

    def test_memory_grows_only_with_per_utterance_arrays(self):
        c, k, r = 64, 4, 100
        tv = init_tv(make_ubm(components=c, dim=k, seed=36), r, rng_seed=37)
        rng = np.random.default_rng(38)
        counts = rng.uniform(1, 20, (4 * BLOCK, c))
        stats_set = [BaumWelchStats(n, rng.normal(0, 1, (c, k)) * n[:, None]) for n in counts]
        peaks = []
        for utterances in (BLOCK, 4 * BLOCK):
            tracemalloc.start()
            try:
                train_tv(stats_set[:utterances], tv, iterations=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # (U, C), (U, C*k) and (U, R) arrays of doubles; the E-step's (BLOCK, R^2) moments
        # and the packed (R(R+1)/2, C) accumulator and (C, R(R+1)/2) precision blocks are fixed
        assert peaks[1] - peaks[0] < 2 * 3 * BLOCK * (c * k + r) * 8
        assert peaks[0] < 2 * c * r * r * 8


def dense_em(stats_set, tv, iterations):
    """Reference EM: dense posterior per utterance, per-component dense solve."""
    c, k, r = tv.num_components, tv.dim_k, tv.rank_R
    t = tv.t_matrix
    for _ in range(iterations):
        a = np.zeros((c, r, r))
        b = np.zeros((c * k, r))
        for stats in stats_set:
            n_exp = np.repeat(stats.zeroth, k)
            f_centered = stats.first.reshape(-1) - n_exp * tv.m
            cov = np.linalg.inv(np.eye(r) + t.T @ np.diag(n_exp / tv.sigma) @ t)
            w = cov @ t.T @ (f_centered / tv.sigma)
            a += stats.zeroth[:, None, None] * (cov + np.outer(w, w))
            b += np.outer(f_centered, w)
        t = np.vstack([np.linalg.solve(a[j], b[j * k:(j + 1) * k].T).T for j in range(c)])
    return t
