import math

import numpy as np
import pytest

from gfdetect.errors import InvalidParameterError
from gfdetect.model import derive_rng
from gfdetect.pilots import (
    gen_gaussian_dictionary,
    khatri_rao_dictionary,
    max_identifiable_support,
    mutual_coherence,
)


class TestDictionaryGeneration:
    def test_unit_column_norms(self):
        S = gen_gaussian_dictionary(20, 64, derive_rng(0))
        norms = np.linalg.norm(S, axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    def test_square_random_draw_not_orthonormal(self):
        S = gen_gaussian_dictionary(20, 20, derive_rng(1))
        assert mutual_coherence(S) > 0.0

    def test_coherence_never_below_welch_floor(self):
        K, L = 64, 20
        floor = math.sqrt((K - L) / ((K - 1) * L))
        for seed in range(25):
            S = gen_gaussian_dictionary(L, K, derive_rng(seed))
            assert floor - 1e-12 <= mutual_coherence(S) < 1.0

    def test_normalization_idempotent(self):
        S = gen_gaussian_dictionary(6, 9, derive_rng(2))
        again = S / np.linalg.norm(S, axis=0)
        assert np.allclose(S, again)

    def test_normalizes_the_raw_draw_on_the_same_stream(self):
        rng = derive_rng(4)
        raw = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        expected = raw / np.linalg.norm(raw, axis=0)
        assert np.array_equal(gen_gaussian_dictionary(6, 9, derive_rng(4)), expected)

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            gen_gaussian_dictionary(0, 4, derive_rng(0))


class TestMutualCoherence:
    def test_orthonormal_zero(self):
        assert mutual_coherence(np.eye(5)) == 0.0

    def test_duplicate_column_one(self):
        S = np.eye(3)[:, [0, 0, 1]]
        assert mutual_coherence(S) == pytest.approx(1.0)

    def test_two_column_example(self):
        S = np.array([[1.0, 1 / np.sqrt(2)], [0.0, 1 / np.sqrt(2)]])
        assert mutual_coherence(S) == pytest.approx(0.70711, abs=1e-5)

    def test_single_column_rejected(self):
        with pytest.raises(InvalidParameterError):
            mutual_coherence(np.ones((4, 1)))


class TestKhatriRao:
    def test_trivial_endpoints(self):
        # orthonormal columns stay orthonormal, a repeated column stays repeated
        assert mutual_coherence(khatri_rao_dictionary(np.eye(3))) == 0.0
        assert mutual_coherence(khatri_rao_dictionary(np.eye(3)[:, [0, 0, 1]])) == pytest.approx(1.0)

    def test_squares_the_coherence_on_example(self):
        S = np.array([[1.0, 1 / np.sqrt(2)], [0.0, 1 / np.sqrt(2)]])
        mu = mutual_coherence(S)
        lifted = khatri_rao_dictionary(S)
        assert mutual_coherence(lifted) == pytest.approx(0.5, abs=1e-5)
        assert mutual_coherence(lifted) == pytest.approx(mu**2, abs=1e-12)

    def test_matches_explicit_lift_exhaustively(self):
        # pairwise inner products of the lifted dictionary square the base ones
        for seed, (L, K) in enumerate([(4, 6), (6, 10), (8, 12)]):
            S = gen_gaussian_dictionary(L, K, derive_rng(seed, 1))
            lifted = khatri_rao_dictionary(S)
            assert mutual_coherence(lifted) == pytest.approx(mutual_coherence(S) ** 2, abs=1e-10)

    def test_vectorization_identity(self):
        rng = derive_rng(3)
        for _ in range(20):
            L = int(rng.integers(2, 7))
            K = int(rng.integers(2, 11))
            S = gen_gaussian_dictionary(L, K, rng)
            r = rng.random(K)
            lhs = khatri_rao_dictionary(S) @ r
            rhs = (S @ np.diag(r) @ S.conj().T).ravel(order="F")
            assert np.linalg.norm(lhs - rhs) < 1e-10


class TestSupportLimit:
    def test_fully_coherent(self):
        assert max_identifiable_support(1.0) == 0

    def test_half(self):
        assert max_identifiable_support(0.5) == 2

    def test_welch_floor_case(self):
        assert max_identifiable_support(0.18687) == 14

    def test_non_increasing_in_mu(self):
        values = [max_identifiable_support(mu) for mu in np.linspace(0.05, 1.0, 60)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rejects_zero(self):
        with pytest.raises(InvalidParameterError):
            max_identifiable_support(0.0)
