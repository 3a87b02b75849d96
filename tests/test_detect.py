import hashlib
import itertools
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfdetect import detect
from gfdetect.detect import (
    build_smv,
    detect_activity,
    extract_support,
    kkt_residual,
    nn_lasso,
    sample_covariance,
)
from gfdetect.errors import InvalidParameterError
from gfdetect.model import (
    complex_normal,
    derive_rng,
    draw_channel_gaussian,
    draw_support,
    noise_variance,
    received_pilot,
)
from gfdetect.pilots import gen_gaussian_dictionary, khatri_rao_dictionary


def nnls_two_columns(A, x, columns):
    """Brute-force nonnegative least squares on at most two columns.

    Solves the unconstrained normal equations, then falls back on the
    boundary solutions; exact for one or two columns.
    """
    if not columns:
        return float(np.linalg.norm(x)) ** 2
    Asub = A[:, columns]
    G = (Asub.conj().T @ Asub).real
    b = (Asub.conj().T @ x).real
    xnorm2 = float(np.real(np.vdot(x, x)))

    def value(r):
        return float(r @ G @ r - 2 * b @ r + xnorm2)

    candidates = [np.zeros(len(columns))]
    try:
        r_free = np.linalg.solve(G, b)
        if np.all(r_free >= 0):
            candidates.append(r_free)
    except np.linalg.LinAlgError:
        pass
    for j in range(len(columns)):
        rj = max(b[j] / G[j, j], 0.0)
        r = np.zeros(len(columns))
        r[j] = rj
        candidates.append(r)
    return min(value(r) for r in candidates)


def brute_force_support(A, x, max_size):
    """Exhaustive least-squares support search over all small supports."""
    K = A.shape[1]
    best = (np.inf, 0, ())
    for size in range(max_size + 1):
        for combo in itertools.combinations(range(K), size):
            residual = nnls_two_columns(A, x, list(combo))
            key = (residual, size, combo)
            if key < best:
                best = key
    return best[2]


class TestSampleCovariance:
    def test_zero_input(self):
        assert not sample_covariance(np.zeros((4, 3))).any()

    def test_single_antenna_rank_one(self):
        y = np.array([[1 + 1j, 2]])
        phi = sample_covariance(y)
        assert np.allclose(phi, y.conj().T @ y)

    def test_hand_average_of_outer_products(self):
        Y = np.array([[1, 1j], [2, 0], [0, 1 - 1j]], dtype=complex)
        expected = sum(np.outer(row.conj(), row) for row in Y) / 3
        assert np.max(np.abs(sample_covariance(Y) - expected)) < 1e-12

    def test_hermitian_psd(self):
        rng = derive_rng(0)
        Y = complex_normal(rng, (32, 5))
        phi = sample_covariance(Y)
        assert np.max(np.abs(phi - phi.conj().T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(phi)) > -1e-8

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            sample_covariance(np.zeros((0, 3)))


class TestBuildSmv:
    def test_exact_vectorization_of_synthetic_covariance(self):
        rng = derive_rng(1)
        S = gen_gaussian_dictionary(4, 6, rng)
        r = rng.random(6)
        phi = S @ np.diag(r) @ S.conj().T
        A, x = build_smv(phi, S, 0.0)
        assert np.linalg.norm(A @ r - x) < 1e-10

    def test_pure_noise_mean_gives_zero(self):
        S = gen_gaussian_dictionary(5, 8, derive_rng(2))
        A, x = build_smv(0.3 * np.eye(5), S, 0.3)
        assert np.max(np.abs(x)) < 1e-14

    def test_lifted_columns_unit_norm(self):
        S = gen_gaussian_dictionary(6, 10, derive_rng(3))
        A = khatri_rao_dictionary(S)
        assert np.max(np.abs(np.linalg.norm(A, axis=0) - 1.0)) < 1e-10

    def test_dimension_mismatch(self):
        S = gen_gaussian_dictionary(5, 8, derive_rng(4))
        with pytest.raises(InvalidParameterError):
            build_smv(np.eye(4), S, 0.0)


class TestNnLasso:
    def test_zero_solution_when_penalty_dominates(self):
        rng = derive_rng(5)
        A = complex_normal(rng, (12, 6))
        x = complex_normal(rng, 12)
        lam = float(np.max(np.abs((A.conj().T @ x).real))) * 1.001
        res = nn_lasso(A, x, lam=lam)
        assert not res.r_hat.any()
        assert res.support_hat.indices == ()

    def test_identity_soft_threshold_closed_form(self):
        x = np.array([0.5, 0.05, 0.3, 0.0, 1.0])
        res = nn_lasso(np.eye(5), x, lam=0.1, max_iterations=5000, objective_tolerance=0.0)
        assert np.max(np.abs(res.r_hat - np.maximum(x - 0.1, 0.0))) < 1e-8

    def test_noiseless_coherence_limited_recovery(self):
        rng = derive_rng(6)
        S = gen_gaussian_dictionary(10, 16, rng)
        true = sorted(rng.choice(16, size=3, replace=False))
        r_true = np.zeros(16)
        r_true[true] = rng.uniform(0.5, 2.0, size=3)
        A = khatri_rao_dictionary(S)
        x = A @ r_true
        res = nn_lasso(A, x, lam=1e-6, known_sparsity=3, max_iterations=5000)
        assert list(res.support_hat.indices) == true

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(4, 40),
        K=st.integers(1, 20),
        u=st.floats(0.0, 0.5, exclude_max=True),
    )
    def test_objective_monotone_non_increasing(self, seed, m, K, u):
        # the iterate after k steps does not depend on the cap, so capping at
        # k = 0..40 traces the solver's path
        rng = derive_rng(seed, 7)
        A = complex_normal(rng, (m, K))
        x = complex_normal(rng, m)
        lam = u * float(np.max(np.abs(A.conj().T @ x)))

        def f(r):
            return 0.5 * float(np.linalg.norm(A @ r - x)) ** 2 + lam * float(np.sum(r))

        path = [f(np.zeros(K))] + [
            f(nn_lasso(A, x, lam=lam, max_iterations=k, objective_tolerance=0.0).r_hat)
            for k in range(1, 41)
        ]
        assert np.all(np.diff(path) <= 1e-12 * np.max(np.abs(path)))

    def test_kkt_conditions_at_convergence(self):
        rng = derive_rng(8)
        for _ in range(20):
            A = complex_normal(rng, (24, 10))
            x = complex_normal(rng, 24)
            lam = 0.1 * float(np.max(np.abs(A.conj().T @ x)))
            res = nn_lasso(A, x, lam=lam, max_iterations=20000, objective_tolerance=0.0)
            assert kkt_residual(A, x, res.r_hat, lam) < 1e-4

    @pytest.mark.parametrize("x_shape, r_size", [((1,), 3), ((), 3), ((6,), 2)],
                             ids=["length-1-x", "scalar-x", "short-r"])
    def test_kkt_residual_rejects_mismatched_shapes(self, x_shape, r_size):
        # a 1-entry x would broadcast against A @ r, and a short r fail inside numpy
        rng = derive_rng(8)
        A = complex_normal(rng, (6, 3))
        with pytest.raises(InvalidParameterError):
            kkt_residual(A, complex_normal(rng, x_shape), np.ones(r_size), 0.1)

    @pytest.mark.parametrize(
        "bad",
        [np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(0.0, np.nan)],
        ids=["nan", "inf", "-inf", "imag-inf", "imag-nan"],
    )
    def test_rejects_non_finite(self, bad, monkeypatch):
        # the Gram check rejects A before A^H x is formed, and warns of nothing
        calls = []
        adjoint = detect._adjoint_product

        def counted(*args):
            calls.append(args)
            return adjoint(*args)

        monkeypatch.setattr(detect, "_adjoint_product", counted)
        A = np.ones((3, 2), dtype=complex)
        A[1, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="not finite"):
                nn_lasso(A, np.ones(3), lam=0.1)
        assert calls == []

    @pytest.mark.parametrize("kwargs", [
        dict(lam=-0.1), dict(lam=float("nan")), dict(lam=float("inf")), dict(max_iterations=0),
        dict(objective_tolerance=-1.0), dict(objective_tolerance=float("nan")),
    ])
    def test_rejects_out_of_range_settings(self, kwargs):
        with pytest.raises(InvalidParameterError):
            nn_lasso(np.eye(2), np.ones(2), **kwargs)

    def test_non_convergence_flagged(self):
        rng = derive_rng(9)
        A = complex_normal(rng, (20, 8))
        x = complex_normal(rng, 20)
        res = nn_lasso(A, x, lam=1e-8, max_iterations=2, objective_tolerance=0.0)
        assert not res.converged

    def test_default_penalty_scales_with_snapshots(self):
        rng = derive_rng(10)
        A = complex_normal(rng, (16, 5))
        x = complex_normal(rng, 16)
        lam = {n: nn_lasso(A, x, snapshots=n, max_iterations=1).lam for n in (100, 400)}
        assert lam[400] == pytest.approx(lam[100] / 2)


class TestExtractSupport:
    def test_zero_vector_empty(self):
        assert extract_support(np.zeros(5)).indices == ()

    def test_relative_threshold_rule(self):
        r = np.array([5.0, 0.01, 4.0, 0.0])
        assert extract_support(r, threshold_ratio=0.1).indices == (0, 2)

    def test_known_sparsity_takes_largest(self):
        r = np.array([1.0, 3.0, 2.0])
        assert extract_support(r, known_sparsity=1).indices == (1,)

    def test_known_sparsity_skips_zeros(self):
        r = np.array([0.0, 2.0, 0.0])
        assert extract_support(r, known_sparsity=2).indices == (1,)

    def test_tie_breaks_toward_lower_index(self):
        r = np.array([1.0, 1.0, 1.0])
        assert extract_support(r, known_sparsity=2).indices == (0, 1)

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            extract_support(np.array([-1.0, 2.0]))

    @pytest.mark.parametrize("r, known_sparsity", [([np.nan, 1.0], 1), ([1.0, np.nan, 0.5], None)],
                             ids=["top-D", "threshold"])
    def test_rejects_nan(self, r, known_sparsity):
        # a NaN would lose the top-D pick and empty the threshold support
        with pytest.raises(InvalidParameterError, match="nonnegative"):
            extract_support(np.array(r), known_sparsity=known_sparsity)

    @pytest.mark.parametrize("kwargs", [dict(threshold_ratio=0.0), dict(threshold_ratio=1.0),
                                        dict(known_sparsity=-1)])
    def test_rejects_out_of_range_rule(self, kwargs):
        with pytest.raises(InvalidParameterError):
            extract_support(np.array([1.0, 2.0]), **kwargs)


class TestDetectActivity:
    def test_noiseless_large_m_exact(self):
        rng = derive_rng(11)
        S = gen_gaussian_dictionary(20, 64, rng)
        sup = draw_support(64, rng, size=5)
        H = draw_channel_gaussian(8192, sup, rng)
        Y = received_pilot(H, S, 0.0, rng)
        res = detect_activity(Y, S, 0.0, known_sparsity=5)
        assert res.support_hat == sup

    def test_single_snapshot_unreliable(self):
        # covariance fluctuation scales like 1/M; one antenna cannot average it out
        rng = derive_rng(12)
        hits = 0
        for _ in range(30):
            S = gen_gaussian_dictionary(20, 64, rng)
            sup = draw_support(64, rng, size=10)
            H = draw_channel_gaussian(1, sup, rng)
            Y = received_pilot(H, S, 1.0, rng)
            res = detect_activity(Y, S, 1.0, known_sparsity=10)
            hits += res.support_hat == sup
        assert hits / 30 < 0.5

    def test_residual_decays_with_antennas(self):
        # the perturbation x - A r_exact shrinks as more antennas are averaged
        def mean_residual(M, seeds):
            out = []
            for seed in seeds:
                rng = derive_rng(13, seed)
                S = gen_gaussian_dictionary(8, 16, rng)
                sup = draw_support(16, rng, size=4)
                H = draw_channel_gaussian(M, sup, rng)
                Y = received_pilot(H, S, 0.5, rng)
                A, x = build_smv(sample_covariance(Y), S, 0.5)
                r_exact = np.zeros(16)
                cols = H[:, list(sup.indices)]
                r_exact[list(sup.indices)] = np.mean(np.abs(cols) ** 2, axis=0)
                out.append(np.linalg.norm(x - A @ r_exact))
            return np.mean(out)

        seeds = range(25)
        assert mean_residual(1024, seeds) > mean_residual(4096, seeds)

    def test_brute_force_oracle_agreement(self):
        # exhaustive support search against the full pipeline on a clean sketch
        rng = derive_rng(14)
        S = gen_gaussian_dictionary(4, 12, rng)
        sup = draw_support(12, rng, size=2)
        H = draw_channel_gaussian(4096, sup, rng)
        Y = received_pilot(H, S, 0.0, rng)
        A, x = build_smv(sample_covariance(Y), S, 0.0)
        oracle = brute_force_support(A, x, 2)
        res = detect_activity(Y, S, 0.0, known_sparsity=2)
        assert tuple(res.support_hat.indices) == tuple(oracle) == sup.indices


def pilot_block(seed, D, snr_db, M, K, L):
    """A received pilot block; ``snr_db=None`` means noiseless."""
    rng = derive_rng(seed, 31)
    S = gen_gaussian_dictionary(L, K, rng)
    sup = draw_support(K, rng, size=D)
    H = draw_channel_gaussian(M, sup, rng)
    sigma_w2 = 0.0 if snr_db is None else noise_variance(snr_db)
    return received_pilot(H, S, sigma_w2, rng), S, sigma_w2


# (seed, D, snr_db, M, K, L) -> nn_lasso iterations, then the cov-lasso
# support with D given and with the own threshold rule (default penalty);
# captured with the complex-Gram solver (commit 56ff04e)
PINNED_COV_LASSO = [
    # fig2 geometry, sparsity 2-12 at -5, 0 and 10 dB
    ((200, 2, -5.0, 128, 64, 20), 28,
     (10, 49),
     (10, 15, 16, 21, 23, 25, 33, 38, 41, 46, 48, 49, 58)),
    ((201, 4, -5.0, 128, 64, 20), 36,
     (5, 21, 24, 32),
     (2, 5, 9, 17, 21, 24, 27, 29, 32, 33, 41, 42, 52, 53, 60, 61)),
    ((202, 6, -5.0, 128, 64, 20), 28,
     (3, 7, 14, 23, 26, 27),
     (2, 3, 4, 7, 12, 14, 23, 26, 27, 34, 35, 37, 39, 44, 45)),
    ((203, 8, -5.0, 128, 64, 20), 28,
     (7, 16, 20, 22, 23, 40, 52, 59),
     (0, 5, 7, 16, 20, 22, 23, 27, 32, 40, 41, 47, 49, 52, 54, 59, 62)),
    ((204, 10, -5.0, 128, 64, 20), 28,
     (1, 7, 8, 15, 16, 44, 49, 50, 59, 62),
     (1, 5, 7, 8, 11, 15, 16, 33, 34, 35, 37, 44, 49, 50, 58, 59, 62)),
    ((205, 12, -5.0, 128, 64, 20), 28,
     (6, 7, 8, 10, 14, 16, 18, 25, 48, 52, 55, 57),
     (1, 6, 7, 8, 10, 13, 14, 16, 18, 25, 29, 30, 33, 48, 52, 55, 57, 59, 60, 62)),
    ((206, 2, 0.0, 128, 64, 20), 28, (28, 44), (11, 28, 44)),
    ((207, 4, 0.0, 128, 64, 20), 34, (5, 6, 10, 21), (5, 6, 10, 14, 16, 21, 40, 49, 61)),
    ((208, 6, 0.0, 128, 64, 20), 32,
     (14, 39, 48, 50, 52, 55),
     (1, 14, 18, 22, 29, 30, 39, 43, 48, 50, 51, 52, 55)),
    ((209, 8, 0.0, 128, 64, 20), 36,
     (0, 6, 25, 32, 41, 55, 56, 60),
     (0, 4, 6, 7, 14, 19, 25, 26, 30, 32, 41, 52, 55, 56, 60, 63)),
    ((210, 10, 0.0, 128, 64, 20), 28,
     (20, 27, 30, 33, 35, 38, 47, 51, 54, 60),
     (5, 10, 20, 27, 30, 33, 35, 38, 47, 51, 54, 60)),
    ((211, 12, 0.0, 128, 64, 20), 32,
     (1, 8, 17, 26, 30, 38, 40, 49, 50, 54, 59, 61),
     (1, 8, 10, 13, 16, 17, 19, 26, 28, 30, 31, 36, 38, 40, 46, 49, 50, 54, 59, 61)),
    ((212, 2, 10.0, 128, 64, 20), 32, (15, 25), (15, 25)),
    ((213, 4, 10.0, 128, 64, 20), 35, (6, 14, 27, 46), (6, 14, 27, 46)),
    ((214, 6, 10.0, 128, 64, 20), 28, (13, 29, 33, 35, 49, 50), (13, 29, 33, 35, 49, 50)),
    ((215, 8, 10.0, 128, 64, 20), 38,
     (0, 2, 11, 18, 23, 25, 50, 52),
     (0, 2, 7, 11, 18, 23, 25, 50, 52)),
    ((216, 10, 10.0, 128, 64, 20), 31,
     (3, 5, 7, 14, 15, 25, 30, 33, 38, 48),
     (3, 5, 7, 14, 15, 25, 30, 33, 38, 48)),
    ((217, 12, 10.0, 128, 64, 20), 38,
     (4, 8, 10, 14, 25, 26, 32, 33, 39, 47, 48, 52),
     (4, 8, 10, 14, 25, 26, 32, 33, 39, 47, 48, 52)),
    # more fig2 points at 0, 5 and 10 dB
    ((218, 6, 0.0, 128, 64, 20), 32,
     (5, 7, 13, 18, 21, 63),
     (5, 7, 13, 18, 21, 26, 27, 43, 51, 52, 58, 63)),
    ((219, 10, 0.0, 128, 64, 20), 33,
     (3, 8, 20, 25, 29, 32, 38, 46, 58, 61),
     (3, 8, 13, 14, 20, 25, 29, 32, 38, 46, 47, 54, 58, 61)),
    ((220, 6, 5.0, 128, 64, 20), 35, (26, 43, 49, 51, 62, 63), (26, 43, 49, 51, 62, 63)),
    ((221, 10, 5.0, 128, 64, 20), 45,
     (3, 6, 12, 22, 23, 26, 31, 32, 37, 41),
     (3, 6, 12, 22, 23, 26, 28, 31, 32, 37, 41, 50)),
    ((222, 6, 10.0, 128, 64, 20), 32, (0, 27, 28, 33, 34, 62), (0, 27, 28, 33, 34, 62)),
    ((223, 10, 10.0, 128, 64, 20), 36,
     (4, 8, 12, 22, 24, 28, 32, 38, 40, 49),
     (4, 8, 12, 22, 24, 28, 32, 38, 40, 49)),
    # the large-K operating point (the lasso-shared-largeK geometry)
    ((224, 20, -5.0, 128, 256, 40), 37,
     (18, 38, 56, 58, 66, 67, 88, 95, 102, 106, 129, 141, 149, 150, 157, 185, 203, 209, 211,
      238),
     (1, 3, 5, 18, 24, 25, 38, 40, 49, 52, 56, 58, 59, 66, 67, 86, 88, 95, 102, 105, 106, 107,
      113, 118, 128, 129, 141, 149, 150, 154, 157, 161, 165, 172, 180, 182, 183, 184, 185, 186,
      197, 203, 209, 211, 221, 234, 236, 238, 246, 247, 252, 255)),
    ((225, 20, 0.0, 128, 256, 40), 45,
     (1, 6, 16, 50, 57, 63, 96, 113, 134, 157, 162, 166, 188, 196, 198, 216, 218, 233, 237,
      245),
     (1, 6, 16, 18, 32, 35, 37, 50, 57, 63, 95, 96, 113, 134, 144, 157, 158, 162, 166, 172,
      188, 196, 198, 216, 218, 233, 237, 242, 245, 250)),
    ((226, 20, 5.0, 128, 256, 40), 45,
     (8, 36, 47, 54, 79, 80, 128, 133, 145, 147, 148, 150, 153, 157, 160, 166, 171, 208, 236,
      250),
     (8, 24, 36, 47, 54, 65, 79, 80, 113, 128, 133, 145, 147, 148, 150, 152, 153, 157, 160,
      166, 171, 208, 236, 250)),
    ((227, 20, 10.0, 128, 256, 40), 46,
     (12, 48, 73, 76, 103, 115, 116, 119, 135, 142, 152, 165, 176, 183, 205, 208, 225, 232,
      237, 238),
     (12, 48, 73, 76, 103, 115, 116, 119, 135, 142, 152, 165, 176, 183, 205, 208, 225, 232,
      237, 238)),
    # M < L, including a single antenna
    ((228, 3, 10.0, 8, 64, 20), 24, (23, 45, 58), (23, 45, 58)),
    ((229, 5, 0.0, 16, 64, 20), 26,
     (0, 29, 35, 37, 60),
     (0, 9, 11, 15, 29, 31, 35, 36, 37, 41, 57, 60)),
    ((230, 4, 10.0, 1, 64, 20), 29, (13, 18, 26, 41), (13, 18, 26, 41, 52)),
    ((231, 6, 5.0, 12, 32, 16), 23,
     (3, 8, 11, 14, 16, 31),
     (1, 3, 4, 8, 10, 11, 14, 16, 19, 25, 31)),
    # noiseless
    ((232, 5, None, 128, 64, 20), 32, (9, 11, 36, 37, 40), (9, 11, 36, 37, 40)),
    ((233, 3, None, 8, 64, 20), 32, (2, 33, 55), (2, 6, 33, 55)),
    ((234, 12, None, 500, 64, 20), 40,
     (0, 11, 19, 23, 25, 28, 34, 36, 38, 46, 47, 63),
     (0, 11, 19, 23, 25, 28, 34, 36, 38, 46, 47, 63)),
    # D = 0: pure noise; the own rule still picks entries above its threshold
    ((235, 0, 10.0, 128, 64, 20), 25, (), (11, 13, 14, 15, 27, 37, 40, 43, 46, 50, 60, 63)),
    ((236, 0, None, 128, 64, 20), 1, (), ()),
    ((237, 0, -5.0, 16, 64, 20), 23,
     (),
     (2, 11, 14, 16, 25, 27, 35, 37, 39, 42, 51, 53, 57, 58, 59, 63)),
]


@pytest.mark.parametrize("case, iterations, known_sup, own_sup", PINNED_COV_LASSO,
                         ids=[f"seed{case[0]}" for case, *_ in PINNED_COV_LASSO])
def test_pinned_cov_lasso_supports(case, iterations, known_sup, own_sup):
    Y, S, sigma_w2 = pilot_block(*case)
    res = detect_activity(Y, S, sigma_w2, known_sparsity=case[1])
    assert res.iterations == iterations
    assert res.support_hat.indices == known_sup
    assert extract_support(res.r_hat).indices == own_sup


def fresh_code_trials():
    """200 fig2-geometry trials at 0 dB, a fresh code each, D cycling over 2-12."""
    for i in range(200):
        D = (2, 4, 6, 8, 10, 12)[i % 6]
        Y, S, sigma_w2 = pilot_block(1000 + i, D, 0.0, 128, 64, 20)
        yield detect_activity(Y, S, sigma_w2, known_sparsity=D)


def shared_code_trials():
    """200 trials on one ``K=256 L=40`` code, ``M=128 D=20``, SNR cycling over 0, 5, 10 dB."""
    S = gen_gaussian_dictionary(40, 256, derive_rng(1400, 34))
    for i in range(200):
        rng = derive_rng(1400 + i, 35)
        H = draw_channel_gaussian(128, draw_support(256, rng, size=20), rng)
        sigma_w2 = noise_variance((0.0, 5.0, 10.0)[i % 3])
        yield detect_activity(received_pilot(H, S, sigma_w2, rng), S, sigma_w2, known_sparsity=20)


def detection_digest(results):
    """SHA-256 over each trial's iteration count, D-given support and own-rule support."""
    h = hashlib.sha256()
    for res in results:
        h.update(repr((res.iterations, res.support_hat.indices,
                       extract_support(res.r_hat).indices)).encode())
    return h.hexdigest()


# captured with the lift-Gram solver (commit 77fddb0)
PINNED_DIGESTS = {
    fresh_code_trials: "412f1a1dd7d125bd1dc2396ba219082da83ac3897cafc31cb58fd6719f82766f",
    shared_code_trials: "e0e66290fcc2f2d28b84a1a1f7f7c0e58764a87fcc38413d3f916c1ab9df2b1f",
}


@pytest.mark.parametrize("trials", list(PINNED_DIGESTS), ids=lambda f: f.__name__)
def test_pinned_200_trial_digest(trials):
    assert detection_digest(trials()) == PINNED_DIGESTS[trials]


def _nn_lasso_complex_gram(A, x, lam, max_iterations=2000, objective_tolerance=1e-10):
    """The solver on the complex Gram ``A^H A``: two ``K x K`` products per iteration."""
    K = A.shape[1]
    gram_c = A.conj().T @ A
    gram = np.ascontiguousarray(gram_c.real)
    b = (A.conj().T @ x).real
    xnorm2 = float(np.real(np.vdot(x, x)))
    v = np.ones(K) / np.sqrt(K)
    lip = 0.0
    for _ in range(200):  # power iteration on the complex Gram
        w = gram_c @ v
        v = w / np.linalg.norm(w)
        new = float(np.real(np.vdot(v, gram_c @ v)))
        if abs(new - lip) <= 1e-12 * max(new, 1.0):
            lip = new
            break
        lip = new
    step = 1.0 / (1.01 * lip)

    def objective(r):
        return float(0.5 * (r @ (gram @ r)) - b @ r + 0.5 * xnorm2 + lam * r.sum())

    r = np.zeros(K)
    obj = objective(r)
    y, t, plain_step, iterations = r, 1.0, True, 0
    eps = np.finfo(float).eps
    for iterations in range(1, max_iterations + 1):
        z = np.maximum(y - step * (gram @ y - b + lam), 0.0)
        obj_z = objective(z)
        slack = 32.0 * eps * max(abs(obj), 1.0) if plain_step else 0.0
        if obj_z <= obj + slack:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = z + ((t - 1.0) / t_next) * (z - r)
            r, t, plain_step = z, t_next, False
            decrease, obj = obj - obj_z, obj_z
            if max(decrease, 0.0) < objective_tolerance * max(abs(obj), 1e-30):
                break
        else:
            if plain_step:
                step *= 0.5
            y, t, plain_step = r, 1.0, True
    return r, iterations


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    L=st.integers(2, 12),
    extra_K=st.integers(0, 40),
    M=st.integers(1, 200),
    data=st.data(),
    snr_db=st.one_of(st.none(), st.floats(-10.0, 30.0)),
)
def test_real_gram_solver_matches_the_complex_gram_form(seed, L, extra_K, M, data, snr_db):
    # on the Kronecker lift Im(A^H A) is rounding, so Re(A^H A) = B^T B gives
    # the same step, and gram @ y = gram @ z + beta (gram @ z - gram @ r)
    K = L + extra_K
    D = data.draw(st.integers(0, min(K, 12)), label="D")
    rng = derive_rng(seed, 32)
    S = gen_gaussian_dictionary(L, K, rng)
    H = draw_channel_gaussian(M, draw_support(K, rng, size=D), rng)
    sigma_w2 = 0.0 if snr_db is None else noise_variance(snr_db)
    A, x = build_smv(sample_covariance(received_pilot(H, S, sigma_w2, rng)), S, sigma_w2)
    res = nn_lasso(A, x, snapshots=M, known_sparsity=D)
    old_lam = 0.1 * np.max(np.abs(A.conj().T @ x)) * np.sqrt(np.log(max(K, 2)) / M)
    assert res.lam == pytest.approx(old_lam, rel=1e-12, abs=1e-300)
    r_old, iterations = _nn_lasso_complex_gram(A, x, res.lam)
    assert res.iterations == iterations
    assert res.support_hat == extract_support(r_old, D)
    assert np.linalg.norm(res.r_hat - r_old) <= 1e-9 * np.linalg.norm(r_old)


# The lift memo: one shared code builds its lift, Gram and step once. A memo
# hit repeats the miss bit for bit. The memo's Gram is |S^H S|^2 and its A^H x
# is s_k^H X s_k, both from the code, while a memo-free solve forms B^T B and
# A^H x from the lift, so the two agree in every count and decision, in lam to
# a few ulps and in r_hat to rounding.


def memo_free_detection(Y, S, sigma_w2, known_sparsity=None):
    """``detect_activity`` on a fresh lift that no memo can know."""
    _, x = build_smv(sample_covariance(Y), S, sigma_w2)
    return nn_lasso(khatri_rao_dictionary(np.array(S)), x, None, Y.shape[0], known_sparsity)


def assert_same_detection(a, b):
    assert np.array_equal(a.r_hat, b.r_hat)
    assert a.support_hat == b.support_hat
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.lam == b.lam


def assert_matches_memo_free(memo, free, L):
    assert memo.iterations == free.iterations
    assert memo.converged == free.converged
    assert abs(memo.lam - free.lam) <= 8 * np.finfo(float).eps * free.lam
    assert np.linalg.norm(memo.r_hat - free.r_hat) <= 1e-9 * np.linalg.norm(free.r_hat)
    if L >= 2:  # at L = 1 the known-sparsity pick is a tie (see the L = 1 test)
        assert memo.support_hat == free.support_hat


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    L=st.integers(1, 10),
    extra_K=st.integers(0, 30),
    M=st.integers(1, 100),
    data=st.data(),
    snr_db=st.one_of(st.none(), st.floats(-10.0, 30.0)),
)
def test_memoized_lift_matches_the_memo_free_answer(seed, L, extra_K, M, data, snr_db):
    K = L + extra_K
    D = data.draw(st.integers(0, min(K, 10)), label="D")
    rng = derive_rng(seed, 33)
    S = gen_gaussian_dictionary(L, K, rng)
    S.flags.writeable = False
    H = draw_channel_gaussian(M, draw_support(K, rng, size=D), rng)
    sigma_w2 = 0.0 if snr_db is None else noise_variance(snr_db)
    Y = received_pilot(H, S, sigma_w2, rng)
    detect._memo = None
    cold = detect_activity(Y, S, sigma_w2, known_sparsity=D)
    warm = detect_activity(Y, S, sigma_w2, known_sparsity=D)
    assert detect._memo is not None
    assert_same_detection(cold, warm)
    assert_matches_memo_free(cold, memo_free_detection(Y, S, sigma_w2, D), L)


@pytest.mark.parametrize("seed", range(6))
def test_single_pilot_symbol_spreads_power_evenly(seed):
    # at L = 1 every lift column is |s_k|^2 = 1 up to rounding, so the solver
    # keeps all entries equal and the known-sparsity pick is a tie
    D = 3
    Y, S, sigma_w2 = pilot_block(300 + seed, D, 10.0, 64, 12, 1)
    res = detect_activity(Y, S, sigma_w2, known_sparsity=D)
    r = res.r_hat
    assert np.max(r) - np.min(r) <= 1e-12 * np.max(r)
    assert len(res.support_hat.indices) == min(D, int(np.count_nonzero(r > 0)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), L=st.integers(1, 12), K=st.integers(1, 40))
def test_memo_gram_is_the_real_gram_of_its_lift(seed, L, K):
    rng = derive_rng(seed, 36)
    S = gen_gaussian_dictionary(L, K, rng) * 10.0 ** rng.uniform(0.0, 2.0, size=K)
    detect._memo = None
    A = build_smv(np.zeros((L, L)), S, 0.0)[0]
    memo = detect._memo
    assert memo.lift is A
    C = memo.code.conj().T @ memo.code
    assert np.array_equal(memo.gram, C.real**2 + C.imag**2)
    norms2 = np.linalg.norm(S, axis=0) ** 2
    ulps = 2 * (L + 2) * np.finfo(float).eps
    assert np.all(np.abs(memo.gram - (A.conj().T @ A).real) <= ulps * np.outer(norms2, norms2))
    top = np.linalg.eigvalsh(memo.gram)[-1]
    assert abs(memo.lip - top) <= 1e-10 * top


def test_memo_miss_holds_at_most_the_two_grams_or_the_real_gram_and_the_lift():
    L, K = 8, 512
    S = gen_gaussian_dictionary(L, K, derive_rng(5, 37))
    phi = np.zeros((L, L))
    detect._memo = None
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        build_smv(phi, S, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the complex Gram, the real Gram and the lift, in bytes
    assert peak - start <= 16 * K * K + 8 * K * K + 16 * L * L * K


def test_step_constant_is_exact_when_the_power_iteration_is_capped():
    # top-two ratio 0.99: 200 power steps would leave the estimate ~1e-4 low
    gram = np.diag([1.0, 0.99])
    assert detect._step_constant(gram) == 1.0


@pytest.mark.parametrize("shrink", [4.0, 16.0])
def test_overlong_step_is_halved_until_the_solve_converges(shrink, monkeypatch):
    # a step constant below the Gram's largest eigenvalue makes the first steps
    # overshoot; each overshoot of an unaccelerated step halves the step
    Y, S, sigma_w2 = pilot_block(210, 10, 0.0, 128, 64, 20)
    A, x = build_smv(sample_covariance(Y), S, sigma_w2)  # the memo keeps the exact step
    exact = nn_lasso(A.copy(), x, None, Y.shape[0], 10)
    step_constant = detect._step_constant
    monkeypatch.setattr(detect, "_step_constant", lambda gram: step_constant(gram) / shrink)
    halved = nn_lasso(A.copy(), x, None, Y.shape[0], 10)
    assert exact.converged and exact.iterations == 28
    assert halved.converged and halved.iterations < 100
    assert halved.support_hat == exact.support_hat


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), K=st.integers(1, 6), mirrored=st.booleans())
def test_signed_grams_step_constant_bounds_its_largest_eigenvalue(seed, rows, K, mirrored):
    # the columns of [A, -A] cancel, so the top eigenvector of Re(A^H A) is
    # orthogonal to the power iteration's all-ones start; |Re(A^H A)| has a
    # nonnegative top eigenvector, with an eigenvalue at least as large
    rng = derive_rng(seed, 43)
    A = rng.standard_normal((rows, K))
    A = np.hstack([A, -A]) if mirrored else A
    constants = []
    step_constant = detect._step_constant

    def spy(gram):
        constants.append(step_constant(gram))
        return constants[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detect, "_step_constant", spy)
        nn_lasso(A, rng.standard_normal(rows), lam=0.1)
    # the power iteration stops once a step moves it by 1e-12 of itself, and
    # then sits at most a few times that below the eigenvalue
    assert len(constants) == 1
    assert constants[0] >= np.linalg.eigvalsh(A.T @ A)[-1] * (1 - 1e-10)


def _spectral_norm_sq_two_products(gram, iterations=200, rtol=1e-12):
    """The power iteration with its own Rayleigh product: two ``gram @ v`` per step.

    Its norm is ``np.linalg.norm``'s. Past ``K * max(diag) = 2**500`` it runs on
    ``gram`` scaled by a power of two; past ``iterations`` steps the
    eigenvalue comes from ``eigvalsh``.
    """
    K = gram.shape[0]
    top = float(np.max(np.diagonal(gram), initial=0.0))
    e = math.frexp(top)[1] if K * top > 2.0**500 else 0
    gram = np.ldexp(gram, -e)
    v = np.ones(K) / math.sqrt(K)
    value = 0.0
    for _ in range(iterations):
        w = gram @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
        new_value = float(v @ (gram @ v))
        if abs(new_value - value) <= rtol * max(new_value, 1.0):
            return math.ldexp(new_value, e)
        value = new_value
    return math.ldexp(float(np.linalg.eigvalsh(gram)[-1]), e)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 30), K=st.integers(1, 40),
       zero=st.booleans(), scale=st.sampled_from([1.0, 1e76, 1e148]))
def test_power_iteration_reuses_its_rayleigh_product_bit_for_bit(seed, rows, K, zero, scale):
    # the 1e76 and 1e148 scales put K * max(diag) past 2**500, the rescaled branch
    rng = derive_rng(seed, 37)
    B = rng.standard_normal((rows, K)) * 10.0 ** rng.uniform(-3.0, 3.0, size=K) * scale
    gram = np.zeros((K, K)) if zero else B.T @ B
    assert detect._step_constant(gram) == _spectral_norm_sq_two_products(gram)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), L=st.integers(1, 40), K=st.integers(1, 60),
       x_scale=st.floats(-3.0, 3.0), hermitian=st.booleans())
def test_code_correlation_is_the_adjoint_product_of_the_lift(seed, L, K, x_scale, hermitian):
    # s_k^H X s_k and a_k^H x sum the same L^2 products in another order
    rng = derive_rng(seed, 38)
    S = gen_gaussian_dictionary(L, K, rng) * 10.0 ** rng.uniform(-3.0, 3.0, size=K)
    X = complex_normal(rng, (L, L)) * 10.0**x_scale
    if hermitian:
        X = X + X.conj().T
    x = X.ravel(order="F")
    got = detect._lift_correlation(S, x)
    expected = detect._adjoint_product(khatri_rao_dictionary(S), x)
    scale = np.einsum("ik,ij,jk->k", np.abs(S), np.abs(X), np.abs(S))  # sum of |terms|
    assert np.all(np.abs(got - expected) <= 6 * np.finfo(float).eps * scale)


def test_memo_hit_does_not_read_the_lift_for_the_correlation(monkeypatch):
    Y, S, sigma_w2 = pilot_block(8, 4, 5.0, 60, 30, 8)
    detect._memo = None
    cold = detect_activity(Y, S, sigma_w2, known_sparsity=4)
    lift = detect._memo.lift
    calls = []
    adjoint = detect._adjoint_product

    def recording(A, v):
        calls.append(A is lift)
        return adjoint(A, v)

    monkeypatch.setattr(detect, "_adjoint_product", recording)
    warm = detect_activity(Y, S, sigma_w2, known_sparsity=4)
    assert calls == []
    assert_same_detection(cold, warm)
    nn_lasso(lift.copy(), build_smv(sample_covariance(Y), S, sigma_w2)[1], snapshots=60)
    assert calls == [False]  # any other A still gets its own A^H x


class TestLiftMemo:
    def block(self, seed=5):
        return pilot_block(seed, 3, 5.0, 40, 14, 6)

    def assert_rejected_before_lift(self, monkeypatch, Y, S, sigma_w2):
        # build_smv rejects the code from its Gram, so no lift is built and no memo kept
        lifts = []

        def lift(S):
            lifts.append(S)
            return khatri_rao_dictionary(S)

        monkeypatch.setattr(detect, "khatri_rao_dictionary", lift)
        detect._memo = None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="not finite"):
                build_smv(sample_covariance(Y), S, sigma_w2)
            assert detect._memo is None
            with pytest.raises(InvalidParameterError, match="not finite"):
                detect_activity(Y, S, sigma_w2, known_sparsity=3)
        assert detect._memo is None
        assert lifts == []

    def test_in_place_edit_of_the_code_gives_the_fresh_answer(self):
        Y, S, sigma_w2 = self.block()
        assert S.flags.writeable
        first = detect_activity(Y, S, sigma_w2, known_sparsity=3)
        S[:] = S[:, ::-1]  # same values in a new column order
        edited = detect_activity(Y, S, sigma_w2, known_sparsity=3)
        assert_matches_memo_free(edited, memo_free_detection(Y, S, sigma_w2, 3), S.shape[0])
        assert not np.array_equal(first.r_hat, edited.r_hat)
        A, _ = build_smv(sample_covariance(Y), S, sigma_w2)
        assert np.array_equal(A, khatri_rao_dictionary(S))

    def test_edited_copy_of_the_lift_gets_its_own_gram(self):
        Y, S, sigma_w2 = self.block()
        A, x = build_smv(sample_covariance(Y), S, sigma_w2)
        edited = A.copy()
        edited[:, 0] *= 3.0
        res = nn_lasso(edited, x, snapshots=Y.shape[0])
        r_ref, iterations = _nn_lasso_complex_gram(edited, x, res.lam)
        assert res.iterations == iterations
        assert np.linalg.norm(res.r_hat - r_ref) <= 1e-9 * np.linalg.norm(r_ref)

    def test_lift_and_gram_are_read_only(self):
        Y, S, sigma_w2 = self.block()
        A, _ = build_smv(sample_covariance(Y), S, sigma_w2)
        with pytest.raises(ValueError):
            A[0, 0] = 0.0
        assert detect._memo.lift is A
        with pytest.raises(ValueError):
            detect._memo.gram[0, 0] = 0.0

    def test_non_finite_code_is_still_rejected(self, monkeypatch):
        Y, S, sigma_w2 = self.block()
        S[0, 0] = np.nan
        self.assert_rejected_before_lift(monkeypatch, Y, S, sigma_w2)

    @pytest.mark.parametrize("sigma_w2", [float("nan"), float("inf")])
    def test_non_finite_noise_variance_is_rejected_before_the_code_is_read(
        self, monkeypatch, sigma_w2
    ):
        Y, S, _ = self.block()
        build_smv(sample_covariance(Y), S[:, ::-1], 0.1)  # a memo for some other code
        memo = detect._memo
        lifts = []
        monkeypatch.setattr(detect, "khatri_rao_dictionary", lifts.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="sigma_w2"):
                build_smv(sample_covariance(Y), S, sigma_w2)
        assert detect._memo is memo
        assert lifts == []

    def test_finite_code_whose_lift_overflows_is_rejected(self, monkeypatch):
        # ||s_k||^4 overflows first, so the Gram check catches every overflowing lift
        Y, S, sigma_w2 = self.block()
        huge = S * 1e160
        assert np.all(np.isfinite(huge))
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(khatri_rao_dictionary(huge)))
        self.assert_rejected_before_lift(monkeypatch, Y, huge, sigma_w2)

    def test_finite_lift_whose_gram_overflows_is_rejected(self, monkeypatch):
        # ||s_k||^4 overflows but the lift's entries do not: the lift would be
        # finite, yet its Gram is not, so the code is rejected all the same
        Y, S, sigma_w2 = self.block()
        huge = S * 1e80
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(khatri_rao_dictionary(huge)))
        self.assert_rejected_before_lift(monkeypatch, Y, huge, sigma_w2)

    @pytest.mark.parametrize("scale", [1e40, 1e60, 1e76])
    def test_gram_past_1e154_keeps_its_step_constant(self, scale):
        # the Gram's entries pass 1e154, so ||gram @ v||^2 would overflow without
        # the power-of-two scaling and the step constant would read 0; the noise
        # variance scales too, so the problem is the unscaled one times scale^2
        Y, S, sigma_w2 = self.block()
        plain = detect_activity(Y, S, sigma_w2, known_sparsity=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = detect_activity(Y * scale, S * scale, sigma_w2 * scale**2, known_sparsity=3)
        assert detect._memo.lip > 0
        assert scaled.support_hat == plain.support_hat
        assert scaled.iterations == plain.iterations

    def test_step_constant_that_overflows_on_scaling_back_is_rejected(self):
        # every Gram entry is 1e308, finite, but the largest eigenvalue 4e308 is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError):
                nn_lasso(np.full((1, 4), 1e154), np.ones(1))

    def test_old_lift_is_freed_before_the_next_is_built(self, monkeypatch):
        Y1, S1, sigma_w2 = self.block(seed=6)
        Y2, S2, _ = self.block(seed=7)
        detect_activity(Y1, S1, sigma_w2)
        old = weakref.ref(build_smv(sample_covariance(Y1), S1, sigma_w2)[0])
        alive_at_build = []

        def lift(S):
            alive_at_build.append(old() is not None)
            return khatri_rao_dictionary(S)

        monkeypatch.setattr(detect, "khatri_rao_dictionary", lift)
        detect_activity(Y2, S2, sigma_w2)
        assert alive_at_build == [False]
        assert old() is None
