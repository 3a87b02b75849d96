import itertools

import numpy as np
import pytest

from gfdetect.baselines import MmvProblem, bomp, mfocuss, msbl
from gfdetect.errors import InvalidParameterError
from gfdetect.model import (
    NoiseSpec,
    derive_rng,
    draw_channel_gaussian,
    draw_support,
    received_pilot,
)
from gfdetect.pilots import gen_gaussian_dictionary


def make_problem(seed, D, snr_db, M=32, K=64, L=20):
    rng = derive_rng(seed, 21)
    S = gen_gaussian_dictionary(L, K, rng)
    sup = draw_support(K, rng, size=D)
    H = draw_channel_gaussian(M, sup, rng)
    noise = NoiseSpec.from_snr_db(snr_db)
    Y_p = received_pilot(H, S, noise, rng)
    return MmvProblem.from_received_pilot(Y_p, S, noise.variance), sup


def orthonormal_problem(seed, D, K=8):
    rng = derive_rng(seed, 22)
    q, _ = np.linalg.qr(rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K)))
    S = q
    sup = draw_support(K, rng, size=D)
    H = draw_channel_gaussian(16, sup, rng)
    Y_p = received_pilot(H, S, NoiseSpec(0.0), rng)
    return MmvProblem.from_received_pilot(Y_p, S, 0.0), sup


class TestMsbl:
    def test_noiseless_single_node_exact(self):
        rng = derive_rng(0, 23)
        S = gen_gaussian_dictionary(20, 64, rng)
        sup = draw_support(64, rng, size=1)
        H = draw_channel_gaussian(32, sup, rng)
        Y_p = received_pilot(H, S, NoiseSpec(0.0), rng)
        problem = MmvProblem.from_received_pilot(Y_p, S, 0.0)
        assert msbl(problem) == sup

    def test_zero_observation_empty_support(self):
        S = gen_gaussian_dictionary(20, 64, derive_rng(1, 23))
        problem = MmvProblem(np.zeros((20, 16), complex), S, 1e-6)
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
        problem = MmvProblem(np.zeros((20, 16), complex), S, 0.5)
        assert mfocuss(problem).indices == ()

    def test_noiseless_single_node_exact(self):
        rng = derive_rng(7, 23)
        S = gen_gaussian_dictionary(20, 64, rng)
        sup = draw_support(64, rng, size=1)
        H = draw_channel_gaussian(32, sup, rng)
        Y_p = received_pilot(H, S, NoiseSpec(0.0), rng)
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
                Y_p = received_pilot(H, S, NoiseSpec(0.0), rng)
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
            MmvProblem(np.zeros((19, 4), complex), S, 0.1)
        with pytest.raises(InvalidParameterError):
            MmvProblem(np.zeros((20, 4), complex), S, -0.1)
