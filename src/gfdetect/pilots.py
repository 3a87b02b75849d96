"""Non-orthogonal training dictionaries and their coherence statistics.

The detector operates on the column-wise Kronecker lift of the pilot
dictionary, whose coherence is the square of the base coherence; the helpers
here measure a code's coherence and how much sparsity it can identify.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "gen_gaussian_dictionary",
    "mutual_coherence",
    "khatri_rao_dictionary",
    "max_identifiable_support",
]


def gen_gaussian_dictionary(L: int, K: int, rng: np.random.Generator) -> np.ndarray:
    """Random Gaussian code: ``L x K`` i.i.d. complex normal entries, unit-norm columns."""
    if L < 1 or K < 1:
        raise InvalidParameterError(f"L and K must be >= 1, got L={L}, K={K}")
    raw = rng.standard_normal((L, K)) + 1j * rng.standard_normal((L, K))
    return raw / np.linalg.norm(raw, axis=0)


def mutual_coherence(S: np.ndarray) -> float:
    """Largest absolute inner product between distinct normalized columns."""
    S = np.asarray(S, dtype=complex)
    if S.ndim != 2 or S.shape[1] < 2:
        raise InvalidParameterError("mutual coherence needs at least two columns")
    norms = np.linalg.norm(S, axis=0)
    if np.any(norms == 0):
        raise InvalidParameterError("pilot columns must be nonzero")
    S = S / norms
    gram = np.abs(S.conj().T @ S)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def khatri_rao_dictionary(S: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker lift ``conj(S) (x) S`` of shape ``L^2 x K``.

    Column ``k`` is ``kron(conj(s_k), s_k)``, chosen so that
    ``vec(S diag(r) S^H) == lift @ r`` holds exactly for complex pilots
    (column-major vectorization).
    """
    S = np.asarray(S, dtype=complex)
    if S.ndim != 2:
        raise InvalidParameterError(f"pilot matrix must be 2-D, got {S.shape}")
    L = S.shape[0]
    return (S.conj()[:, None, :] * S[None, :, :]).reshape(L * L, S.shape[1])


def max_identifiable_support(mu: float) -> int:
    """Largest sparsity level the covariance-domain detector can guarantee.

    Uniqueness of the nonnegative sparse solution holds while the activity
    level is strictly below ``(1 + 1/mu^2) / 2``, ``mu`` being the coherence
    of the base dictionary (the lifted dictionary has coherence ``mu^2``).
    """
    if mu <= 0.0 or mu > 1.0:
        raise InvalidParameterError(f"coherence must lie in (0, 1], got {mu}")
    limit = 0.5 * (1.0 + 1.0 / (mu * mu))
    d = math.floor(limit)
    if d == limit:
        d -= 1
    return max(d, 0)

