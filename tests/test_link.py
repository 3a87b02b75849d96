import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gfdetect.errors import InvalidParameterError, SingularSystemError
from gfdetect.link import (
    QPSK,
    channel_mse,
    demodulate,
    despread_symbols,
    draw_symbols,
    ls_channel_estimate,
    ls_data_decode,
    spread_symbols,
    symbol_error_rate,
)
from gfdetect.model import (
    NoiseSpec,
    Support,
    complex_normal,
    derive_rng,
    draw_channel_gaussian,
    received_data,
    received_pilot,
)
from gfdetect.pilots import gen_gaussian_dictionary


class TestChannelEstimate:
    def test_orthonormal_noiseless_exact(self):
        rng = derive_rng(0, 31)
        q, _ = np.linalg.qr(complex_normal(rng, (6, 6)))
        S_active = q[:, :3]
        H = complex_normal(rng, (10, 3))
        Y_p = H @ S_active.conj().T
        assert np.max(np.abs(ls_channel_estimate(Y_p, S_active) - H)) < 1e-10

    def test_full_rank_noiseless_consistency(self):
        rng = derive_rng(1, 31)
        S = gen_gaussian_dictionary(8, 12, rng)
        S_active = S[:, [1, 4, 9]]
        H = complex_normal(rng, (16, 3))
        Y_p = H @ S_active.conj().T
        assert np.max(np.abs(ls_channel_estimate(Y_p, S_active) - H)) < 1e-8

    def test_underdetermined_rejected(self):
        rng = derive_rng(2, 31)
        S_active = complex_normal(rng, (4, 6))
        with pytest.raises(SingularSystemError):
            ls_channel_estimate(complex_normal(rng, (8, 4)), S_active)

    def test_duplicate_columns_report_conditioning(self):
        rng = derive_rng(3, 31)
        col = complex_normal(rng, (5, 1))
        S_active = np.concatenate([col, col], axis=1)
        with pytest.raises(SingularSystemError, match="condition number"):
            ls_channel_estimate(complex_normal(rng, (7, 5)), S_active)

    def test_is_least_squares_minimizer(self):
        rng = derive_rng(4, 31)
        S = gen_gaussian_dictionary(8, 10, rng)
        S_active = S[:, :4]
        Y_p = complex_normal(rng, (12, 8))
        H_hat = ls_channel_estimate(Y_p, S_active)
        base = np.linalg.norm(Y_p - H_hat @ S_active.conj().T)
        for _ in range(100):
            delta = 1e-3 * complex_normal(rng, H_hat.shape)
            perturbed = np.linalg.norm(Y_p - (H_hat + delta) @ S_active.conj().T)
            assert perturbed > base


class TestDataDecode:
    def test_true_channel_noiseless_exact(self):
        rng = derive_rng(5, 31)
        H = complex_normal(rng, (12, 4))
        D = complex_normal(rng, (4, 9))
        assert np.max(np.abs(ls_data_decode(H @ D, H) - D)) < 1e-10

    def test_orthogonal_columns_matched_filter(self):
        rng = derive_rng(6, 31)
        q, _ = np.linalg.qr(complex_normal(rng, (8, 2)))
        H = q * np.array([2.0, 3.0])  # orthogonal, unequal energies
        D = complex_normal(rng, (2, 5))
        Y = H @ D
        expected = (H.conj().T @ Y) / np.array([[4.0], [9.0]])
        assert np.max(np.abs(ls_data_decode(Y, H) - expected)) < 1e-10

    def test_wide_channel_rejected(self):
        with pytest.raises(SingularSystemError):
            ls_data_decode(np.zeros((3, 5), complex), np.ones((3, 4), complex))


class TestNormalEquations:
    def test_empty_support_gives_empty_solutions(self):
        rng = derive_rng(7, 31)
        Y = complex_normal(rng, (6, 4))
        assert ls_channel_estimate(Y, np.zeros((4, 0), complex)).shape == (6, 0)
        assert ls_data_decode(Y, np.zeros((6, 0), complex)).shape == (0, 4)

    @given(seed=st.integers(0, 2**32 - 1), M=st.integers(1, 12), L=st.integers(1, 10),
           data=st.data())
    def test_channel_estimate_is_decode_of_the_conjugate_block(self, seed, M, L, data):
        K_a = data.draw(st.integers(1, L), label="K_a")
        rng = derive_rng(seed, 32)
        S = gen_gaussian_dictionary(L, K_a, rng)
        Y_p = complex_normal(rng, (M, L))
        H_hat = ls_channel_estimate(Y_p, S)
        via_decode = ls_data_decode(Y_p.conj().T, S).conj().T
        assert H_hat.shape == via_decode.shape == (M, K_a)
        assert np.linalg.norm(H_hat - via_decode) <= 1e-10 * np.linalg.norm(H_hat)


class TestDemodulate:
    def test_exact_points_fixed(self):
        assert np.array_equal(demodulate(QPSK.reshape(2, 2)), QPSK.reshape(2, 2))

    def test_small_perturbation_within_decision_region(self):
        soft = np.array([[QPSK[2] + 0.1 - 0.05j]])
        assert demodulate(soft)[0, 0] == QPSK[2]

    def test_equidistant_tie_takes_lowest_index(self):
        # purely real input is equidistant between indices 0 and 1
        assert demodulate(np.array([[0.5 + 0j]]))[0, 0] == QPSK[0]

    def test_qpsk_unit_energy(self):
        assert np.allclose(np.abs(QPSK), 1.0)

    @given(
        re=st.floats(-4, 4, allow_nan=False),
        im=st.floats(-4, 4, allow_nan=False),
        axis_tie=st.sampled_from([None, "re", "im", "both"]),
    )
    def test_decides_nearest_point_lowest_index_on_ties(self, re, im, axis_tie):
        # snapping a coordinate to 0 puts the input on a decision boundary
        z = complex(0.0 if axis_tie in ("re", "both") else re, 0.0 if axis_tie in ("im", "both") else im)
        index = QPSK.tolist().index(demodulate(np.array([z]))[0])
        dist = np.abs(z - QPSK)
        assert dist[index] == dist.min()
        assert np.all(dist[:index] > dist.min())


class TestDrawSymbols:
    def test_indexes_qpsk_with_the_same_stream(self):
        expected = QPSK[derive_rng(13, 31).integers(0, 4, (3, 7))]
        assert np.array_equal(draw_symbols((3, 7), derive_rng(13, 31)), expected)


class TestSpreading:
    def test_round_trip(self):
        rng = derive_rng(7, 31)
        symbols = draw_symbols((3, 5), rng)
        codes = complex_normal(rng, (3, 4))
        codes /= np.linalg.norm(codes, axis=1, keepdims=True)
        spread = spread_symbols(symbols, codes)
        assert spread.shape == (3, 20)
        back = despread_symbols(spread, codes)
        assert np.max(np.abs(back - symbols)) < 1e-12


class TestChannelMse:
    def test_perfect_estimate_zero(self):
        rng = derive_rng(8, 31)
        H = complex_normal(rng, (6, 3))
        assert channel_mse(H, H) == 0.0

    def test_zero_estimate_counts_each_node(self):
        rng = derive_rng(9, 31)
        H = complex_normal(rng, (6, 3))
        assert channel_mse(H, np.zeros_like(H)) == pytest.approx(3.0)

    def test_doubled_estimate_saturates(self):
        rng = derive_rng(10, 31)
        H = complex_normal(rng, (6, 4))
        assert channel_mse(H, 2 * H) == pytest.approx(4.0)

    @given(seed=st.integers(0, 2**32 - 1), M=st.integers(1, 300), K=st.integers(1, 5))
    def test_same_float_for_every_memory_layout(self, seed, M, K):
        rng = derive_rng(seed, 31)
        H = complex_normal(rng, (M, K))
        H_hat = H + 0.3 * complex_normal(rng, (M, K))
        layouts = (np.ascontiguousarray, np.asfortranarray)
        values = {channel_mse(a(H), b(H_hat)).hex() for a in layouts for b in layouts}
        assert len(values) == 1

    def test_zero_true_column_rejected(self):
        H = np.zeros((4, 2), complex)
        H[:, 0] = 1.0
        with pytest.raises(InvalidParameterError):
            channel_mse(H, H)


class TestSymbolErrorRate:
    def _grid(self, K, N):
        return np.zeros((K, N), dtype=complex)

    def test_perfect_decoding_zero(self):
        true = self._grid(8, 5)
        sup = Support((1, 4), 8)
        true[[1, 4]] = QPSK[np.arange(5) % 4]
        est = true.copy()
        assert symbol_error_rate(true, est, sup, sup) == 0.0

    def test_missed_node_counts_full_row(self):
        N, D = 40, 6
        true = self._grid(16, N)
        sup_true = Support(tuple(range(D)), 16)
        true[:D] = QPSK[0]
        est = true.copy()
        est[3] = 0.0  # node 3 missed entirely
        sup_hat = Support((0, 1, 2, 4, 5), 16)
        ser = symbol_error_rate(true, est, sup_true, sup_hat)
        assert ser == pytest.approx(40 / (6 * 40))

    def test_false_alarm_counts_nonzero_decisions(self):
        true = self._grid(8, 4)
        sup_true = Support((0,), 8)
        true[0] = QPSK[1]
        est = true.copy()
        est[5] = QPSK[2]  # false alarm decides nonzero everywhere
        ser = symbol_error_rate(true, est, sup_true, Support((0, 5), 8))
        assert ser == pytest.approx(4 / 8)

    def test_all_wrong_is_one(self):
        true = self._grid(4, 3)
        sup = Support((0, 1), 4)
        true[[0, 1]] = QPSK[0]
        est = true.copy()
        est[[0, 1]] = QPSK[3]
        assert symbol_error_rate(true, est, sup, sup) == 1.0

    def test_empty_union_zero(self):
        assert symbol_error_rate(self._grid(4, 3), self._grid(4, 3), Support((), 4), Support((), 4)) == 0.0


class TestEndToEnd:
    def test_noiseless_perfect_support_zero_errors(self):
        rng = derive_rng(11, 31)
        S = gen_gaussian_dictionary(12, 24, rng)
        sup = Support((2, 7, 20), 24)
        active = list(sup.indices)
        H = draw_channel_gaussian(16, sup, rng)
        Y_p = received_pilot(H, S, NoiseSpec(0.0), rng)
        symbols = draw_symbols((3, 10), rng)
        Y_d = received_data(H[:, active], symbols, NoiseSpec(0.0), rng)

        H_hat = ls_channel_estimate(Y_p, S[:, active])
        assert channel_mse(H[:, active], H_hat) < 1e-16
        decided = demodulate(ls_data_decode(Y_d, H_hat))
        true = np.zeros((24, 10), complex)
        est = np.zeros((24, 10), complex)
        true[active] = symbols
        est[active] = decided
        assert symbol_error_rate(true, est, sup, sup) == 0.0

    def test_genie_channel_lower_bounds_estimated(self):
        # with the true channel available, decoding can only get better
        rng = derive_rng(12, 31)
        noise = NoiseSpec.from_snr_db(0.0)
        worse = better = 0.0
        trials = 500
        for _ in range(trials):
            S = gen_gaussian_dictionary(8, 16, rng)
            sup = Support((1, 9), 16)
            active = list(sup.indices)
            H = draw_channel_gaussian(24, sup, rng)
            Y_p = received_pilot(H, S, noise, rng)
            symbols = draw_symbols((2, 4), rng)
            Y_d = received_data(H[:, active], symbols, noise, rng)
            true = np.zeros((16, 4), complex)
            true[active] = symbols

            for genie in (True, False):
                H_use = H[:, active] if genie else ls_channel_estimate(Y_p, S[:, active])
                est = np.zeros((16, 4), complex)
                est[active] = demodulate(ls_data_decode(Y_d, H_use))
                ser = symbol_error_rate(true, est, sup, sup)
                if genie:
                    better += ser
                else:
                    worse += ser
        assert better <= worse
