"""Post-detection channel estimation, data decoding, and error metrics.

Once the active set is decided, the channel columns are estimated by least
squares against the detected pilot columns, the data block is decoded by the
left pseudo-inverse of the channel estimate, and symbols are sliced to the
nearest constellation point. Error accounting runs over the augmented
alphabet (constellation plus the zero symbol of inactive nodes), so missed
and false-alarm nodes show up as symbol errors.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError, SingularSystemError
from .model import Support

__all__ = [
    "QPSK",
    "draw_symbols",
    "ls_channel_estimate",
    "ls_data_decode",
    "demodulate",
    "spread_symbols",
    "despread_symbols",
    "channel_mse",
    "symbol_error_rate",
]

_COND_LIMIT = 1e12

# unit-energy QPSK constellation; its order sets demodulate's tie-break
QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2)
QPSK.flags.writeable = False


def draw_symbols(shape, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random QPSK symbols of the given shape."""
    return QPSK[rng.integers(0, QPSK.size, size=shape)]


def _solve_normal(A: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve the normal equations ``(A^H A) X = rhs`` for a tall ``A``.

    A zero-column ``A`` gives the empty ``0 x n`` solution. More columns
    than rows, or a Gram matrix conditioned worse than ``_COND_LIMIT``,
    raises :class:`SingularSystemError`.
    """
    rows, cols = A.shape
    if cols == 0:
        return np.zeros((0, rhs.shape[1]), dtype=complex)
    if cols > rows:
        raise SingularSystemError(f"cannot solve for {cols} {what} columns from {rows} rows")
    gram = A.conj().T @ A
    cond = float(np.linalg.cond(gram))
    if not math.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularSystemError(
            f"{what} Gram matrix is numerically singular (condition number {cond:.3e})"
        )
    return np.linalg.solve(gram, rhs)


def ls_channel_estimate(Y_p: np.ndarray, S_active: np.ndarray) -> np.ndarray:
    """Least-squares channel estimate against the detected pilot columns.

    ``Y_p`` is ``M x L``, ``S_active`` is ``L x K_a``; returns the ``M x K_a``
    estimate ``Y_p S (S^H S)^{-1}``. Requires ``K_a <= L`` with linearly
    independent columns.
    """
    Y = np.asarray(Y_p)
    S = np.asarray(S_active)
    if Y.ndim != 2 or S.ndim != 2 or Y.shape[1] != S.shape[0]:
        raise InvalidParameterError(
            f"pilot length mismatch between observation {Y.shape} and pilots {S.shape}"
        )
    # H G = Y S  with Hermitian G  =>  H = solve(G, (Y S)^H)^H
    return _solve_normal(S, (Y @ S).conj().T, "pilot").conj().T


def ls_data_decode(Y_d: np.ndarray, H_hat: np.ndarray) -> np.ndarray:
    """Least-squares data decoding with a tall channel estimate.

    ``Y_d`` is ``M x N``, ``H_hat`` is ``M x K_a`` with ``M >= K_a``; returns
    the soft symbol block ``(H^H H)^{-1} H^H Y_d`` of shape ``K_a x N``.
    """
    Y = np.asarray(Y_d)
    H = np.asarray(H_hat)
    if Y.ndim != 2 or H.ndim != 2 or Y.shape[0] != H.shape[0]:
        raise InvalidParameterError(
            f"antenna count mismatch between data {Y.shape} and channel {H.shape}"
        )
    return _solve_normal(H, H.conj().T @ Y, "channel")


def demodulate(D_soft: np.ndarray) -> np.ndarray:
    """Nearest QPSK point per entry; ties go to the lowest index in ``QPSK``."""
    soft = np.asarray(D_soft, dtype=complex)
    return QPSK[np.argmin(np.abs(soft[..., None] - QPSK), axis=-1)]


def spread_symbols(symbols: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Per-node random spreading: slot ``n`` of node ``k`` becomes ``d_kn * c_k``.

    ``codes`` is ``K_a x L_d`` with unit-norm rows; output is
    ``K_a x (N * L_d)`` with slot blocks laid out contiguously.
    """
    d = np.asarray(symbols)
    c = np.asarray(codes)
    if d.ndim != 2 or c.ndim != 2 or d.shape[0] != c.shape[0]:
        raise InvalidParameterError("one spreading code per node required")
    K_a, N = d.shape
    L_d = c.shape[1]
    return (d[:, :, None] * c[:, None, :]).reshape(K_a, N * L_d)


def despread_symbols(soft: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Matched-filter despreading, inverse of :func:`spread_symbols`."""
    s = np.asarray(soft)
    c = np.asarray(codes)
    if s.ndim != 2 or c.ndim != 2 or s.shape[0] != c.shape[0]:
        raise InvalidParameterError("one spreading code per node required")
    K_a = s.shape[0]
    L_d = c.shape[1]
    if s.shape[1] % L_d:
        raise InvalidParameterError("soft block length must be a multiple of the code length")
    N = s.shape[1] // L_d
    blocks = s.reshape(K_a, N, L_d)
    energy = np.sum(np.abs(c) ** 2, axis=1)
    return np.einsum("knl,kl->kn", blocks, c.conj()) / energy[:, None]


def channel_mse(H_true_active: np.ndarray, H_hat: np.ndarray) -> float:
    """Sum over active nodes of the normalized squared column error.

    Columns are summed in column-major memory whatever the arguments' layout,
    so equal inputs give bit-identical results.
    """
    Ht = np.asfortranarray(H_true_active)
    He = np.asfortranarray(H_hat)
    if Ht.shape != He.shape:
        raise InvalidParameterError(f"shape mismatch: {Ht.shape} vs {He.shape}")
    true_power = np.sum(np.abs(Ht) ** 2, axis=0)
    if np.any(true_power == 0):
        raise InvalidParameterError("true channel columns must be nonzero")
    err_power = np.sum(np.abs(Ht - He) ** 2, axis=0)
    return float(np.sum(err_power / true_power))


def symbol_error_rate(
    true_symbols: np.ndarray,
    est_symbols: np.ndarray,
    support_true: Support,
    support_hat: Support,
) -> float:
    """Fraction of wrong augmented-alphabet decisions over the union of supports.

    Both symbol matrices are ``K x N`` with zero rows outside the respective
    supports. A missed node contributes a full row of errors, a false alarm
    contributes one error per nonzero decision, and the denominator is
    ``|union| * N``. An empty union yields 0.
    """
    T = np.asarray(true_symbols)
    E = np.asarray(est_symbols)
    if T.shape != E.shape or T.ndim != 2:
        raise InvalidParameterError(f"symbol blocks must share a K x N shape, got {T.shape} vs {E.shape}")
    union = sorted(set(support_true.indices) | set(support_hat.indices))
    if not union or T.shape[1] == 0:
        return 0.0
    diff = np.abs(T[union, :] - E[union, :]) > 1e-9
    return float(np.mean(diff))
