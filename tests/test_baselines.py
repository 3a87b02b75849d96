import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gfdetect import baselines, harness
from gfdetect.baselines import (
    MmvProblem,
    _msbl_step,
    _snapshot_factor,
    _solve_regularized,
    bomp,
    mfocuss,
    msbl,
)
from gfdetect.detect import detect_activity, extract_support, sample_covariance
from gfdetect.errors import InvalidParameterError
from gfdetect.harness import ExperimentConfig, run_trial
from gfdetect.model import (
    complex_normal,
    derive_rng,
    draw_channel_gaussian,
    draw_support,
    noise_variance,
    received_pilot,
)
from gfdetect.pilots import gen_gaussian_dictionary


def make_problem(seed, D, snr_db, M=32, K=64, L=20):
    """A pilot-block instance; ``snr_db=None`` means noiseless."""
    rng = derive_rng(seed, 21)
    S = gen_gaussian_dictionary(L, K, rng)
    sup = draw_support(K, rng, size=D)
    H = draw_channel_gaussian(M, sup, rng)
    sigma_w2 = 0.0 if snr_db is None else noise_variance(snr_db)
    Y_p = received_pilot(H, S, sigma_w2, rng)
    return MmvProblem.from_received_pilot(Y_p, S, sigma_w2), sup


def orthonormal_problem(seed, D, K=8):
    rng = derive_rng(seed, 22)
    q, _ = np.linalg.qr(rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K)))
    S = q
    sup = draw_support(K, rng, size=D)
    H = draw_channel_gaussian(16, sup, rng)
    Y_p = received_pilot(H, S, 0.0, rng)
    return MmvProblem.from_received_pilot(Y_p, S, 0.0), sup


class TestMsbl:
    def test_noiseless_single_node_exact(self):
        rng = derive_rng(0, 23)
        S = gen_gaussian_dictionary(20, 64, rng)
        sup = draw_support(64, rng, size=1)
        H = draw_channel_gaussian(32, sup, rng)
        Y_p = received_pilot(H, S, 0.0, rng)
        problem = MmvProblem.from_received_pilot(Y_p, S, 0.0)
        assert msbl(problem) == sup

    def test_zero_observation_empty_support(self):
        S = gen_gaussian_dictionary(20, 64, derive_rng(1, 23))
        problem = MmvProblem.from_received_pilot(np.zeros((16, 20), complex), S, 1e-6)
        assert msbl(problem).indices == ()

    def test_known_sparsity_selection(self):
        problem, sup = make_problem(2, 3, 10.0)
        assert msbl(problem, D_known=3) == sup

    def test_below_covariance_lasso_at_high_activity(self):
        # activity level 10 at 0 dB: hyperparameter pruning starts to break down
        hits = 0
        trials = 30
        for seed in range(trials):
            problem, sup = make_problem(seed, 10, 0.0, M=128)
            hits += msbl(problem) == sup
        assert hits / trials < 0.95


class TestBomp:
    def test_single_active_node_first_pick(self):
        problem, sup = make_problem(3, 1, 30.0)
        assert bomp(problem, 1) == sup

    def test_orthonormal_noiseless_exact_all_sizes(self):
        for D in (1, 2, 4, 6):
            problem, sup = orthonormal_problem(D, D)
            assert bomp(problem, D) == sup

    def test_requires_valid_cardinality(self):
        problem, _ = make_problem(4, 2, 10.0)
        # nobody transmitted: the empty support, not an error
        assert bomp(problem, 0).indices == ()
        with pytest.raises(InvalidParameterError):
            bomp(problem, 65)

    def test_returns_requested_cardinality(self):
        problem, _ = make_problem(5, 4, 0.0)
        assert bomp(problem, 7).size == 7


class TestMfocuss:
    def test_zero_observation_empty(self):
        S = gen_gaussian_dictionary(20, 64, derive_rng(6, 23))
        problem = MmvProblem.from_received_pilot(np.zeros((16, 20), complex), S, 0.5)
        assert mfocuss(problem).indices == ()

    def test_noiseless_single_node_exact(self):
        rng = derive_rng(7, 23)
        S = gen_gaussian_dictionary(20, 64, rng)
        sup = draw_support(64, rng, size=1)
        H = draw_channel_gaussian(32, sup, rng)
        Y_p = received_pilot(H, S, 0.0, rng)
        problem = MmvProblem.from_received_pilot(Y_p, S, 0.0)
        assert mfocuss(problem) == sup

    def test_known_sparsity_selection(self):
        problem, sup = make_problem(9, 4, 10.0, M=128)
        assert mfocuss(problem, D_known=4) == sup


class TestSharedBehavior:
    def test_orthonormal_noiseless_all_three_recover(self):
        # exhaustive over all supports of sizes 1..3 on a small orthonormal code
        K = 8
        for D in (1, 2, 3):
            for idx in itertools.combinations(range(K), D):
                rng = derive_rng(hash(idx) % 2**32, 24)
                q, _ = np.linalg.qr(rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K)))
                S = q
                from gfdetect.model import Support

                sup = Support(idx, K)
                H = draw_channel_gaussian(16, sup, rng)
                Y_p = received_pilot(H, S, 0.0, rng)
                problem = MmvProblem.from_received_pilot(Y_p, S, 0.0)
                assert bomp(problem, D) == sup
                assert msbl(problem, D_known=D) == sup
                assert mfocuss(problem, D_known=D) == sup

    def test_supports_bounded_by_node_count(self):
        problem, _ = make_problem(10, 6, 0.0)
        for sup in (msbl(problem), mfocuss(problem), bomp(problem, 6)):
            assert sup.size <= 64

    def test_determinism(self):
        problem, _ = make_problem(11, 5, 0.0, M=64)
        assert msbl(problem) == msbl(problem)
        assert bomp(problem, 5) == bomp(problem, 5)
        assert mfocuss(problem) == mfocuss(problem)

    def test_dimension_validation(self):
        S = gen_gaussian_dictionary(20, 64, derive_rng(12, 23))
        with pytest.raises(InvalidParameterError):
            MmvProblem.from_received_pilot(np.zeros((4, 19), complex), S, 0.1)
        with pytest.raises(InvalidParameterError):
            MmvProblem.from_received_pilot(np.zeros((4, 20), complex), S, -0.1)

    @pytest.mark.parametrize("case", ["nan-variance", "inf-variance", "nan-block", "inf-block",
                                      "nan-code", "inf-code", "empty-block", "no-columns"])
    def test_rejects_what_detect_activity_rejects(self, case, capfd):
        # past this check the solvers would return a support for each of these,
        # raise from numpy or LAPACK, or warn from the covariance product
        rng = derive_rng(13, 23)
        S = gen_gaussian_dictionary(8, 16, rng)
        Y_p = complex_normal(rng, (32, 8))
        sigma_w2 = 0.1
        if case == "nan-variance":
            sigma_w2 = float("nan")
        elif case == "inf-variance":
            sigma_w2 = float("inf")
        elif case == "nan-block":
            Y_p[3, 5] = np.nan
        elif case == "inf-block":
            Y_p[3, 5] = np.inf
        elif case == "nan-code":
            S[2, 7] = np.nan
        elif case == "inf-code":
            S[2, 7] = np.inf
        elif case == "no-columns":
            S = S[:, :0]
        else:
            Y_p = Y_p[:0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidParameterError) as mmv:
                MmvProblem.from_received_pilot(Y_p, S, sigma_w2)
            with pytest.raises(InvalidParameterError) as detect:
                detect_activity(Y_p, S, sigma_w2)
        if case.endswith("-code"):  # both builders check the code in one place
            assert str(mmv.value) == str(detect.value)
        assert capfd.readouterr().err == ""


# (seed, D, snr_db, M, K, L) -> supports of msbl(P), bomp(P, D), mfocuss(P),
# captured by running the solvers on the full L x M observation (commit 01c3429)
PINNED_SUPPORTS = [
    ((0, 10, 0.0, 128, 64, 20),
     (1, 9, 12, 18, 20, 22, 29, 32, 35, 40),
     (7, 9, 18, 20, 22, 29, 32, 40, 52, 59),
     (1, 9, 12, 18, 20, 22, 29, 32, 35, 40)),
    ((1, 10, 0.0, 128, 64, 20),
     (1, 8, 12, 33, 38, 46, 48, 55, 56, 63),
     (1, 8, 11, 12, 38, 46, 53, 56, 60, 61),
     (1, 8, 12, 33, 38, 46, 48, 55, 56, 63)),
    ((2, 10, 0.0, 128, 64, 20),
     (6, 11, 16, 33, 36, 37, 45, 48, 55, 57),
     (6, 14, 25, 33, 36, 37, 45, 48, 55, 57),
     (6, 11, 33, 36, 37, 45, 48, 55, 57)),
    ((0, 10, 10.0, 128, 64, 20),
     (1, 9, 12, 18, 20, 22, 29, 32, 35, 40),
     (1, 9, 12, 18, 20, 22, 29, 32, 35, 40),
     (1, 9, 12, 18, 20, 22, 29, 32, 35, 40)),
    ((1, 10, 10.0, 128, 64, 20),
     (1, 8, 12, 33, 38, 46, 48, 55, 56, 63),
     (1, 8, 12, 33, 38, 46, 48, 55, 56, 63),
     (1, 8, 12, 33, 38, 46, 48, 55, 56, 63)),
    ((3, 6, 0.0, 500, 64, 20),
     (0, 2, 22, 26, 27, 37),
     (0, 2, 22, 26, 37, 61),
     (0, 2, 22, 26, 27, 37)),
    # M == L
    ((4, 4, 10.0, 20, 64, 20), (2, 42, 47, 48), (2, 42, 47, 48), (2, 42, 47, 48)),
    ((5, 4, 0.0, 20, 64, 20), (5, 34, 40), (5, 8, 34, 40), (5, 34, 40)),
    # M < L
    ((6, 3, 10.0, 8, 64, 20), (7, 12, 29), (7, 12, 29), (7, 12, 29)),
    ((7, 5, 0.0, 8, 16, 16), (2, 7, 11, 14, 15), (2, 6, 7, 11, 14), (2, 11)),
    # noiseless
    ((8, 5, None, 128, 64, 20), (16, 21, 42, 45, 56), (16, 21, 42, 45, 56), (16, 21, 42, 45, 56)),
    ((9, 3, None, 8, 64, 20), (19, 22, 32), (19, 22, 32), (19, 22, 32)),
    # D = 0: pure noise still passes the relative pruning rules
    ((10, 0, 10.0, 128, 64, 20),
     (2, 12, 15, 24, 36, 37, 54, 57),
     (),
     (5, 6, 7, 8, 11, 12, 14, 15, 18, 24, 27, 28, 32, 33, 40, 41, 43, 44, 45, 46, 47, 48, 49,
      51, 54, 57, 59, 61, 63)),
    ((11, 0, None, 128, 64, 20), (), (), ()),
]


@pytest.mark.parametrize("case, msbl_sup, bomp_sup, mfocuss_sup", PINNED_SUPPORTS,
                         ids=[f"seed{case[0]}" for case, *_ in PINNED_SUPPORTS])
def test_pinned_supports(case, msbl_sup, bomp_sup, mfocuss_sup):
    seed, D, snr_db, M, K, L = case
    problem, _ = make_problem(seed, D, snr_db, M=M, K=K, L=L)
    assert msbl(problem).indices == msbl_sup
    assert bomp(problem, D).indices == bomp_sup
    assert mfocuss(problem).indices == mfocuss_sup


# (seed, snr_db) -> msbl support at the benchmark's all-snr geometry
# (K=64, L=20, M=128, D=10), captured with the LU solve of Sigma_y (commit f82d38d)
PINNED_ALL_SNR_MSBL = [
    ((100, -10.0), (6, 13, 18, 23)),
    ((101, -10.0), (26, 46, 50, 59)),
    ((102, -10.0), (3, 13, 14, 15, 20, 43, 51, 61)),
    ((103, -10.0), (5, 10, 22, 50, 56)),
    ((100, -5.0), (3, 6, 7, 13, 18, 19, 23, 32, 55, 62)),
    ((101, -5.0), (10, 17, 20, 22, 26, 28, 43, 46, 53, 59)),
    ((102, -5.0), (3, 4, 5, 13, 39, 45, 61, 63)),
    ((103, -5.0), (4, 5, 7, 10, 22, 39, 50, 56, 57, 58, 61)),
    ((100, 0.0), (3, 6, 7, 13, 18, 19, 23, 32, 55, 62)),
    ((101, 0.0), (10, 16, 17, 20, 22, 26, 28, 43, 53, 59)),
    ((102, 0.0), (4, 5, 9, 10, 11, 13, 39, 45, 56, 63)),
    ((103, 0.0), (4, 5, 7, 39, 50, 54, 56, 57, 58, 61)),
    ((100, 5.0), (3, 6, 7, 13, 18, 19, 23, 32, 55, 62)),
    ((101, 5.0), (10, 16, 17, 20, 22, 26, 28, 43, 53, 59)),
    ((102, 5.0), (4, 5, 9, 10, 11, 13, 39, 45, 56, 63)),
    ((103, 5.0), (4, 5, 7, 39, 50, 54, 56, 57, 58, 61)),
    ((100, 10.0), (3, 6, 7, 13, 18, 19, 23, 32, 55, 62)),
    ((101, 10.0), (10, 16, 17, 20, 22, 26, 28, 43, 53, 59)),
    ((102, 10.0), (4, 5, 9, 10, 11, 13, 39, 45, 56, 63)),
    ((103, 10.0), (4, 5, 7, 39, 50, 54, 56, 57, 58, 61)),
]


@pytest.mark.parametrize("case, msbl_sup", PINNED_ALL_SNR_MSBL,
                         ids=[f"seed{seed}-snr{snr:g}" for (seed, snr), _ in PINNED_ALL_SNR_MSBL])
def test_pinned_msbl_supports_all_snr_geometry(case, msbl_sup):
    seed, snr_db = case
    problem, _ = make_problem(seed, 10, snr_db, M=128)
    assert msbl(problem).indices == msbl_sup


# (seed, D, snr_db, M) -> msbl support at the fig3 geometry (K=64, L=20), where
# sigma^2 is small and the rounding of the EM step matters most; captured with
# the posterior-moment form of the step (commit 0df11af)
PINNED_HIGH_SNR_MSBL = [
    ((200, 3, 40.0, 8), (10, 14, 48)),
    ((201, 3, 40.0, 8), (8, 13, 32)),
    ((200, 3, 40.0, 128), (10, 14, 48)),
    ((201, 3, 40.0, 128), (8, 13, 32)),
    ((200, 10, 40.0, 8), (13, 33, 38, 47, 58, 61)),
    ((201, 10, 40.0, 8), (2, 11, 18, 28, 32, 58, 59, 60)),
    ((200, 10, 40.0, 128), (9, 13, 33, 34, 38, 42, 47, 49, 58, 61)),
    ((201, 10, 40.0, 128), (2, 7, 9, 11, 18, 28, 32, 58, 59, 60)),
    ((200, 3, 60.0, 8), (10, 14, 48)),
    ((201, 3, 60.0, 8), (8, 13, 32)),
    ((200, 3, 60.0, 128), (10, 14, 48)),
    ((201, 3, 60.0, 128), (8, 13, 32)),
    ((200, 10, 60.0, 8), (13, 33, 38, 47, 58, 61)),
    ((201, 10, 60.0, 8), (2, 11, 18, 28, 32, 58, 59, 60)),
    ((200, 10, 60.0, 128), (9, 13, 33, 34, 38, 42, 47, 49, 58, 61)),
    ((201, 10, 60.0, 128), (2, 7, 9, 11, 18, 28, 32, 58, 59, 60)),
]


@pytest.mark.parametrize("case, msbl_sup", PINNED_HIGH_SNR_MSBL,
                         ids=[f"seed{s}-D{D}-snr{snr:g}-M{M}"
                              for (s, D, snr, M), _ in PINNED_HIGH_SNR_MSBL])
def test_pinned_msbl_supports_high_snr(case, msbl_sup):
    seed, D, snr_db, M = case
    problem, _ = make_problem(seed, D, snr_db, M=M)
    assert msbl(problem).indices == msbl_sup


# the four 0 dB trials (sweep point 2 of snr:-10,-5,0,5,10) of the benchmark's
# pinned all-snr quality set, seed 1609: msbl success per trial, and the support
# of trial 3, whose 10th hyperparameter 0.48626 clears the 0.4 * max threshold
# 0.48579 by 0.1%, so a change to MSBL's rounding can flip it
ALL_SNR_0DB_MSBL_SUCCESS = (True, True, False, True)
ALL_SNR_0DB_TRIAL_3_SUPPORT = (4, 5, 11, 18, 29, 32, 44, 46, 58, 62)


def test_all_snr_knife_edge_trial_keeps_its_support(monkeypatch):
    config = ExperimentConfig(K=64, L=20, M=128, N=40, D=10, snr_db=0.0, seed=1609, stream=2,
                              detector="msbl", redraw_pilots=True)
    supports = []

    def recording_msbl(problem):
        supports.append(msbl(problem))
        return supports[-1]

    monkeypatch.setattr(harness, "msbl", recording_msbl)
    success = tuple(run_trial(config, i).metrics["msbl"].success for i in range(4))
    assert success == ALL_SNR_0DB_MSBL_SUCCESS
    assert supports[3].indices == ALL_SNR_0DB_TRIAL_3_SUPPORT


@given(seed=st.integers(0, 2**32 - 1), L=st.integers(1, 12), M=st.integers(1, 40),
       scale=st.sampled_from([1e-6, 1.0, 1e6]))
def test_snapshot_factor_keeps_the_gram(seed, L, M, scale):
    rng = derive_rng(seed, 25)
    Y_p = scale * (rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L)))
    R_hat = sample_covariance(Y_p)
    F = _snapshot_factor(R_hat, M)
    assert F.shape[0] == L and F.shape[1] <= min(L, M)
    assert np.linalg.norm(F @ F.conj().T - M * R_hat) <= 1e-12 * np.linalg.norm(M * R_hat)


def test_zero_covariance_has_an_empty_factor_and_support():
    # a noiseless block from nobody: R_hat = 0, so no eigenvalue clears the threshold
    rng = derive_rng(0, 25)
    S = gen_gaussian_dictionary(8, 24, rng)
    Y_p = received_pilot(draw_channel_gaussian(40, draw_support(24, rng, size=0), rng), S, 0.0, rng)
    problem = MmvProblem.from_received_pilot(Y_p, S, 0.0)
    assert not problem.R_hat.any()
    assert _snapshot_factor(problem.R_hat, problem.M).shape == (8, 0)
    assert bomp(problem, 3).indices == ()
    assert mfocuss(problem).indices == ()


# (seed, D, M, K, L) -> bomp(P, D + 2) on a noiseless block with D < L: the refit
# is exact after the D true picks, so the zero-residual stop returns them alone;
# captured with the QR factor of the M x L block (commit 4222599)
PINNED_NOISELESS_BOMP = [
    ((40, 3, 128, 64, 20), (5, 11, 45)),
    ((41, 10, 128, 64, 20), (0, 10, 15, 16, 24, 32, 33, 36, 42, 48)),
    ((44, 6, 2000, 64, 20), (2, 19, 40, 46, 50, 57)),
    ((48, 4, 64, 32, 8), (1, 8, 9, 26)),
    ((50, 12, 256, 100, 30), (3, 4, 10, 13, 35, 37, 41, 45, 48, 54, 58, 83)),
    ((52, 5, 12, 40, 12), (15, 18, 31, 32, 34)),
    # M < L
    ((43, 5, 8, 64, 20), (9, 23, 35, 39, 41)),
    ((47, 10, 8, 64, 20), (3, 19, 21, 24, 28, 29, 34, 44, 45, 46)),
    ((51, 1, 3, 12, 4), (2,)),
]


@pytest.mark.parametrize("case, bomp_sup", PINNED_NOISELESS_BOMP,
                         ids=[f"seed{case[0]}" for case, _ in PINNED_NOISELESS_BOMP])
def test_noiseless_bomp_stops_at_the_zero_residual(case, bomp_sup):
    seed, D, M, K, L = case
    problem, sup = make_problem(seed, D, None, M=M, K=K, L=L)
    assert bomp(problem, D + 2).indices == bomp_sup == sup.indices


def _qr_or_block_factor(Y_p):
    """The factor the solvers used to take: ``Y_p^H`` for ``M <= L``, else ``R^H`` of ``Y_p = Q R``."""
    M, L = Y_p.shape
    if M <= L:
        return Y_p.conj().T
    return np.linalg.qr(Y_p, mode="r").conj().T


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    L=st.integers(1, 12),
    extra_K=st.integers(0, 30),
    M=st.integers(1, 40),
    data=st.data(),
    snr_db=st.one_of(st.none(), st.floats(-10.0, 30.0)),
    spread=st.booleans(),
)
def test_eigh_factor_gives_the_supports_of_the_qr_factor(seed, L, extra_K, M, data, snr_db, spread):
    # both are factors of M R_hat, and the two solvers read a factor only through F F^H;
    # at L = 1 unit-norm columns all score alike, so there rounding decides every pick,
    # and the column norms are spread instead
    assume(L > 1 or spread)
    K = L + extra_K
    D = data.draw(st.integers(0, K), label="D")
    rng = derive_rng(seed, 31)
    S = gen_gaussian_dictionary(L, K, rng)
    if spread:
        S = S * rng.uniform(0.5, 2.0, K)
    H = draw_channel_gaussian(M, draw_support(K, rng, size=D), rng)
    sigma_w2 = 0.0 if snr_db is None else noise_variance(snr_db)
    Y_p = received_pilot(H, S, sigma_w2, rng)
    problem = MmvProblem.from_received_pilot(Y_p, S, sigma_w2)
    supports = bomp(problem, D), mfocuss(problem)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "_snapshot_factor", lambda R_hat, M: _qr_or_block_factor(Y_p))
        assert (bomp(problem, D), mfocuss(problem)) == supports


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    L=st.integers(2, 10),
    extra_K=st.integers(0, 20),
    M=st.integers(1, 40),
    data=st.data(),
    snr_db=st.one_of(st.none(), st.floats(-5.0, 30.0)),
)
def test_supports_invariant_to_a_unitary_mix_of_snapshots(seed, L, extra_K, M, data, snr_db):
    # a solver that reads Y = Y_p^H only through Y Y^H cannot tell Y from Y U = (U^H Y_p)^H
    K = L + extra_K
    D = data.draw(st.integers(0, K), label="D")
    rng = derive_rng(seed, 26)
    S = gen_gaussian_dictionary(L, K, rng)
    H = draw_channel_gaussian(M, draw_support(K, rng, size=D), rng)
    sigma_w2 = 0.0 if snr_db is None else noise_variance(snr_db)
    Y_p = received_pilot(H, S, sigma_w2, rng)
    U, _ = np.linalg.qr(rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M)))
    mixed = MmvProblem.from_received_pilot(U.conj().T @ Y_p, S, sigma_w2)
    problem = MmvProblem.from_received_pilot(Y_p, S, sigma_w2)
    assert msbl(mixed) == msbl(problem)
    assert bomp(mixed, D) == bomp(problem, D)
    assert mfocuss(mixed) == mfocuss(problem)


def test_bomp_stops_at_a_zero_residual():
    # noiseless D > L: after L picks the refit is exact, and a further pick
    # would follow the rounding of Y (at this seed Y and jY picked differently);
    # the block of jY = j Y_p^H is exactly -j Y_p
    rng = derive_rng(7, 27)
    S = gen_gaussian_dictionary(2, 4, rng)
    H = draw_channel_gaussian(1, draw_support(4, rng, size=3), rng)
    Y_p = received_pilot(H, S, 0.0, rng)
    support = bomp(MmvProblem.from_received_pilot(Y_p, S, 0.0), 3)
    assert support.size <= 2
    assert bomp(MmvProblem.from_received_pilot(-1j * Y_p, S, 0.0), 3) == support


def test_singular_inner_system_takes_the_min_norm_solution():
    # lam is below the rounding of G's entries, so G + lam I == G is singular
    G = np.full((2, 2), 1e20, complex)
    Y = complex_normal(derive_rng(8, 27), (2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Z = _solve_regularized(G, 1e-10, Y, np.eye(2))
    assert np.array_equal(Z, np.linalg.lstsq(G + 1e-10 * np.eye(2), Y, rcond=None)[0])


def _msbl_step_by_solve(gamma, S, F, M, sigma2):
    """MSBL's EM update through one LU solve of Sigma_y against [S, F]."""
    L, K = S.shape
    sigma_y = sigma2 * np.eye(L) + (S * gamma[None, :]) @ S.conj().T
    solved = np.linalg.solve(sigma_y, np.concatenate([S, F], axis=1))
    quad = np.einsum("lk,lk->k", S.conj(), solved[:, :K]).real
    mu = gamma[:, None] * (S.conj().T @ solved[:, K:])
    mean_power = np.sum(np.abs(mu) ** 2, axis=1) / M
    return mean_power + np.maximum(gamma - gamma * gamma * quad, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    L=st.integers(1, 12),
    extra_K=st.integers(0, 40),
    M=st.integers(1, 40),
    snr_db=st.floats(-10.0, 30.0),
)
def test_msbl_step_matches_the_solve_form(seed, L, extra_K, M, snr_db):
    # inv(Sigma_y) S replaces solve(Sigma_y, [S, F]); S^H Sigma_y^-1 F = (G S)^H F
    K = L + extra_K
    rng = derive_rng(seed, 28)
    S = gen_gaussian_dictionary(L, K, rng)
    Y_p = rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L))
    gamma = rng.uniform(0.0, 2.0, K)
    gamma[rng.random(K) < 0.3] = 0.0  # pruned rows
    sigma2 = noise_variance(snr_db)
    new = _msbl_step(gamma, S, S.conj(), sigma2 * np.eye(L), sample_covariance(Y_p))
    old = _msbl_step_by_solve(gamma, S, Y_p.conj().T, M, sigma2)
    assert np.linalg.norm(new - old) <= 1e-9 * np.linalg.norm(old)


def _covariance_likelihood(gamma, S, R_hat, sigma2):
    """``l(gamma) = log det Sigma_y + tr(Sigma_y^-1 R_hat)``."""
    sigma_y = sigma2 * np.eye(S.shape[0]) + (S * gamma[None, :]) @ S.conj().T
    return np.linalg.slogdet(sigma_y)[1] + np.trace(np.linalg.solve(sigma_y, R_hat)).real


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    L=st.integers(1, 12),
    extra_K=st.integers(0, 40),
    M=st.integers(1, 40),
    snr_db=st.floats(-10.0, 30.0),
)
def test_msbl_step_is_a_scaled_likelihood_gradient_step(seed, L, extra_K, M, snr_db):
    # the step is gamma + gamma^2 Re(s_k^H E s_k), with Re(s_k^H E s_k) = -dl/dgamma_k;
    # called at gamma = 1 with the rest of Sigma_y as its noise term, it returns
    # 1 + Re(s_k^H E s_k) for every row, the pruned ones included
    K = L + extra_K
    rng = derive_rng(seed, 29)
    S = gen_gaussian_dictionary(L, K, rng)
    R_hat = sample_covariance(rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L)))
    gamma = rng.uniform(0.0, 2.0, K)
    gamma[rng.random(K) < 0.3] = 0.0  # pruned rows
    sigma2 = noise_variance(snr_db)
    h = 1e-6
    grad = np.empty(K)
    for k in range(K):
        dk = np.zeros(K)
        dk[k] = h
        grad[k] = (_covariance_likelihood(gamma + dk, S, R_hat, sigma2)
                   - _covariance_likelihood(gamma - dk, S, R_hat, sigma2)) / (2 * h)
    rest = sigma2 * np.eye(L) + (S * (gamma - 1.0)[None, :]) @ S.conj().T
    descent = _msbl_step(np.ones(K), S, S.conj(), rest, R_hat) - 1.0
    assert np.linalg.norm(descent + grad) <= 1e-5 * np.linalg.norm(grad)


def _msbl_gamma_reference(problem):
    """MSBL's EM loop in its first vectorized form: the gamma it hands to ``extract_support``."""
    S = problem.S
    L, K = S.shape
    sigma2 = max(problem.sigma_w2, 1e-12)
    R_hat = problem.R_hat
    S_conj = S.conj()
    noise = sigma2 * np.eye(L)
    gamma = np.ones(K)
    for _ in range(500):
        sigma_y = noise + (S * gamma[None, :]) @ S_conj.T
        G = np.linalg.inv(sigma_y)
        E = G @ (R_hat - sigma_y) @ G
        gamma_new = gamma + gamma * gamma * np.sum((S_conj * (E @ S)).real, axis=0)
        gamma_new[gamma_new < 1e-8] = 0.0
        peak = gamma_new.max()
        change = np.max(np.abs(gamma_new - gamma))
        gamma = gamma_new
        if peak == 0.0 or change <= 1e-6 * max(peak, 1e-30):
            break
    return gamma


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    L=st.integers(1, 12),
    extra_K=st.integers(0, 40),
    M=st.integers(1, 40),
    data=st.data(),
    snr_db=st.one_of(st.none(), st.floats(-10.0, 60.0)),
)
def test_msbl_loop_matches_the_reference_loop_bit_for_bit(seed, L, extra_K, M, data, snr_db):
    # the same floating-point operations in the same order, through fewer calls
    K = L + extra_K
    D = data.draw(st.integers(0, K), label="D")
    rng = derive_rng(seed, 30)
    S = gen_gaussian_dictionary(L, K, rng)
    H = draw_channel_gaussian(M, draw_support(K, rng, size=D), rng)
    sigma_w2 = 0.0 if snr_db is None else noise_variance(snr_db)
    problem = MmvProblem.from_received_pilot(received_pilot(H, S, sigma_w2, rng), S, sigma_w2)
    handed = []

    def recording_extract_support(gamma, *args):
        handed.append(gamma.copy())
        return extract_support(gamma, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "extract_support", recording_extract_support)
        msbl(problem)
    assert handed[0].tobytes() == _msbl_gamma_reference(problem).tobytes()
