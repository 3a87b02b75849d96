import itertools

import numpy as np
import pytest

from gfdetect.detect import (
    build_smv,
    default_penalty,
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

    def test_objective_monotone_non_increasing(self):
        rng = derive_rng(7)
        A = complex_normal(rng, (30, 12))
        x = complex_normal(rng, 30)
        res = nn_lasso(A, x, lam=0.05, max_iterations=500)
        diffs = np.diff(res.objective_history)
        assert np.all(diffs <= 1e-12 * np.abs(res.objective_history[:-1]).max())

    def test_kkt_conditions_at_convergence(self):
        rng = derive_rng(8)
        for _ in range(20):
            A = complex_normal(rng, (24, 10))
            x = complex_normal(rng, 24)
            lam = 0.1 * float(np.max(np.abs(A.conj().T @ x)))
            res = nn_lasso(A, x, lam=lam, max_iterations=20000, objective_tolerance=0.0)
            assert kkt_residual(A, x, res.r_hat, lam) < 1e-4

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParameterError):
            nn_lasso(np.array([[np.inf]]), np.array([1.0]), lam=0.1)

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
        assert default_penalty(A, x, 400) == pytest.approx(default_penalty(A, x, 100) / 2)


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
