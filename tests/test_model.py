import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gfdetect.errors import InvalidParameterError
from gfdetect.model import (
    Support,
    complex_normal,
    derive_rng,
    draw_channel_gaussian,
    draw_support,
    noise_variance,
    received_data,
    received_pilot,
)


class TestSupport:
    def test_valid_construction(self):
        s = Support((1, 5, 9), 10)
        assert s.size == 3
        assert s.indices == (1, 5, 9)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            Support((0, 10), 10)

    def test_rejects_unsorted_or_duplicates(self):
        with pytest.raises(InvalidParameterError):
            Support((3, 1), 10)
        with pytest.raises(InvalidParameterError):
            Support((2, 2), 10)


class TestDrawSupport:
    def test_fixed_size_degenerate_empty(self):
        s = draw_support(64, derive_rng(0), size=0)
        assert s.indices == ()

    def test_fixed_size_full(self):
        s = draw_support(64, derive_rng(0), size=64)
        assert s.indices == tuple(range(64))

    def test_fixed_size_cardinality(self):
        rng = derive_rng(1)
        for _ in range(20):
            assert draw_support(64, rng, size=10).size == 10

    def test_bernoulli_matches_binomial_moments(self):
        # mean cardinality of Bernoulli(64, 0.1) activity over many draws
        rng = derive_rng(2)
        draws = 100_000
        sizes = np.array([draw_support(64, rng, prob=0.1).size for _ in range(draws)])
        mean, var = 64 * 0.1, 64 * 0.1 * 0.9
        assert abs(sizes.mean() - mean) < 3 * np.sqrt(var / draws)

    def test_parameter_validation(self):
        rng = derive_rng(0)
        with pytest.raises(InvalidParameterError):
            draw_support(64, rng, size=65)
        with pytest.raises(InvalidParameterError):
            draw_support(64, rng, prob=1.5)
        with pytest.raises(InvalidParameterError):
            draw_support(64, rng)
        with pytest.raises(InvalidParameterError):
            draw_support(64, rng, size=2, prob=0.5)


class TestGaussianChannel:
    def test_empty_support_zero(self):
        H = draw_channel_gaussian(8, Support((), 5), derive_rng(0))
        assert not H.any()

    def test_sample_variance(self):
        H = draw_channel_gaussian(100_000, Support((0,), 1), derive_rng(7))
        v = np.mean(np.abs(H[:, 0]) ** 2)
        assert 0.99 < v < 1.01

    def test_favorable_propagation_cross_correlation(self):
        H = draw_channel_gaussian(100_000, Support((0, 1), 2), derive_rng(8))
        a, b = H[:, 0], H[:, 1]
        rho = np.vdot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert abs(rho) < 0.02


class TestReceivedSignals:
    def test_zero_channel_zero_noise(self):
        H = np.zeros((3, 4), dtype=complex)
        S = np.ones((2, 4), dtype=complex)
        Y = received_pilot(H, S, 0.0, derive_rng(0))
        assert not Y.any()

    def test_noiseless_is_exact_product(self):
        rng = derive_rng(10)
        H = complex_normal(rng, (5, 6))
        S = complex_normal(rng, (4, 6))
        Y = received_pilot(H, S, 0.0, rng)
        assert np.max(np.abs(Y - H @ S.conj().T)) < 1e-12

    def test_hand_multiplication_oracle(self):
        H = np.array([[1 + 1j, 2], [0, 1 - 1j]])
        S = np.array([[1, 1j], [2j, 1]])
        # (H S^H) computed by hand: S^H = [[1, -2j], [-1j, 1]]
        expected = np.array(
            [
                [H[0, 0] * 1 + H[0, 1] * (-1j), H[0, 0] * (-2j) + H[0, 1] * 1],
                [H[1, 0] * 1 + H[1, 1] * (-1j), H[1, 0] * (-2j) + H[1, 1] * 1],
            ]
        )
        Y = received_pilot(H, S, 0.0, derive_rng(0))
        assert np.max(np.abs(Y - expected)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameterError):
            received_pilot(np.zeros((3, 4)), np.zeros((2, 5)), 0.0, derive_rng(0))

    def test_received_data_pure_noise_variance(self):
        rng = derive_rng(11)
        Y = received_data(np.zeros((200, 3), complex), np.zeros((3, 200), complex), 0.25, rng)
        assert abs(np.mean(np.abs(Y) ** 2) - 0.25) < 0.01

    def test_received_data_noiseless_identity(self):
        rng = derive_rng(12)
        H = complex_normal(rng, (6, 3))
        Y = received_data(H, np.eye(3, dtype=complex), 0.0, rng)
        assert np.allclose(Y, H)

    def test_received_data_single_node(self):
        H = np.array([[2.0], [1j]])
        Y = received_data(H, np.array([[3.0]]), 0.0, derive_rng(0))
        assert np.allclose(Y, 3 * H)

    @given(seed=st.integers(0, 2**32 - 1), M=st.integers(1, 12), L=st.integers(1, 8),
           K=st.integers(1, 8), variance=st.sampled_from([0.0, 1e-3, 1.0]))
    def test_pilot_is_data_with_the_conjugate_code(self, seed, M, L, K, variance):
        rng = derive_rng(seed, 13)
        H = complex_normal(rng, (M, K))
        S = complex_normal(rng, (L, K))
        Y_p = received_pilot(H, S, variance, derive_rng(seed, 14))
        Y_d = received_data(H, S.conj().T, variance, derive_rng(seed, 14))
        assert np.array_equal(Y_p, Y_d)

    @given(seed=st.integers(0, 2**32 - 1), M=st.integers(1, 64), L=st.integers(1, 16),
           K=st.integers(1, 48), data=st.data(),
           variance=st.sampled_from([0.0, 1e-3, 1.0]))
    def test_active_columns_give_the_full_product(self, seed, M, L, K, data, variance):
        # the channel is zero off its support, so H S^H needs only the active columns
        D = data.draw(st.integers(0, K), label="D")
        rng = derive_rng(seed, 15)
        support = draw_support(K, rng, size=D)
        H = draw_channel_gaussian(M, support, rng)
        S = complex_normal(rng, (L, K))
        active = list(support.indices)
        full_rng, active_rng = derive_rng(seed, 16), derive_rng(seed, 16)
        full = received_pilot(H, S, variance, full_rng)
        part = received_pilot(H[:, active], S[:, active], variance, active_rng)
        assert full_rng.bit_generator.state == active_rng.bit_generator.state
        if D == 0:
            assert np.array_equal(full, part)
        assert np.linalg.norm(full - part) <= 1e-12 * np.linalg.norm(full)


class TestNoiseVariance:
    def test_snr_mapping(self):
        assert noise_variance(0.0) == 1.0
        assert np.isclose(noise_variance(10.0), 0.1)
        assert noise_variance(-10.0) == pytest.approx(10.0)

    def test_infinite_snr_is_noiseless(self):
        assert noise_variance(float("inf")) == 0.0

    @pytest.mark.parametrize("snr_db", [float("-inf"), float("nan"), -4000.0])
    def test_rejects_unrepresentable_variance(self, snr_db):
        with pytest.raises(InvalidParameterError):
            noise_variance(snr_db)

    @pytest.mark.parametrize("sigma_w2", [-1.0, float("inf"), float("nan")])
    def test_observation_rejects_bad_variance(self, sigma_w2):
        with pytest.raises(InvalidParameterError):
            received_pilot(np.ones((3, 2)), np.ones((4, 2)), sigma_w2, derive_rng(0))
        with pytest.raises(InvalidParameterError):  # the noise draw checks it too
            complex_normal(derive_rng(0), (3, 2), sigma_w2)

    def test_zero_variance_is_exact_and_draws_nothing(self):
        rng = derive_rng(15)
        H = complex_normal(rng, (5, 6))
        S = complex_normal(rng, (4, 6))
        state = rng.bit_generator.state
        Y = received_pilot(H, S, 0.0, rng)
        assert np.array_equal(Y, H @ S.conj().T)
        assert rng.bit_generator.state == state


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        def draw(seed):
            rng = derive_rng(seed, 4)
            s = draw_support(16, rng, size=3)
            H = draw_channel_gaussian(8, s, rng)
            S = complex_normal(derive_rng(seed, 5), (4, 16))
            return received_pilot(H, S, 0.5, rng)

        a, b = draw(123), draw(123)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = derive_rng(1, 0).standard_normal(4)
        b = derive_rng(1, 1).standard_normal(4)
        assert not np.allclose(a, b)

