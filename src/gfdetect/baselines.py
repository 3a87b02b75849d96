"""Reference MMV solvers used for comparison against the covariance detector.

Three classical row-sparse recovery algorithms for the ``L x M``
multiple-measurement observation ``Y = Y_p^H`` of the ``M x L`` pilot block
``Y_p``:

* ``msbl``    - multiple-measurement sparse Bayesian learning with EM
                hyperparameter updates (Wipf & Rao style), noise variance
                frozen at its true value. Each EM step inverts the ``L x L``
                ``Sigma_y`` once and does the rest with matrix products.
* ``bomp``    - block orthogonal matching pursuit on the Kronecker-lifted
                single-vector model, evaluated in its mathematically
                equivalent unlifted form (simultaneous OMP).
* ``mfocuss`` - regularized M-FOCUSS (Cotter et al. style): iteratively
                reweighted least squares with row-norm weights.

All three are deterministic given their inputs.

Each solver depends on ``Y`` only through ``Y Y^H``: every iterate it forms
is ``C Y`` for some matrix ``C``, and it reads those iterates only through
row norms, residual norms and Frobenius norms of differences. So
:meth:`MmvProblem.from_received_pilot` checks the pilot block once and keeps
only an ``L x min(L, M)`` factor ``F`` with ``F F^H = Y Y^H``: ``Y`` itself
for ``M <= L``, and otherwise ``F = R^H`` of the QR decomposition
``Y_p = Q R``. Since ``Y = F Q^H`` and ``Q`` has orthonormal columns,
right-multiplying by ``Q^H`` keeps all those norms, so the supports are those
of the full observation at an ``L x L`` instead of ``L x M`` cost per step.
Quantities that scale with the snapshot count (MSBL's per-snapshot mean
power, M-FOCUSS's regularization) still use the true ``M``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .detect import extract_support
from .errors import InvalidParameterError
from .model import Support

__all__ = ["MmvProblem", "msbl", "bomp", "mfocuss"]

# hyperparameters this far below the typical signal scale are treated as
# exactly zero (unit-power channels, unit-energy symbols)
_GAMMA_FLOOR = 1e-8
# a block-OMP residual this far below the observation norm is a full fit
_ZERO_RESIDUAL = 1e-12

# fixed solver settings; the baseline curves are defined by these values
_MSBL_MAX_ITERS = 500
_MSBL_PRUNE_TOLERANCE = 0.4
_MSBL_GAMMA_TOL = 1e-6
_FOCUSS_P = 0.8
_FOCUSS_MAX_ITERS = 200
_FOCUSS_PRUNE_TOLERANCE = 0.5
_FOCUSS_TOL = 1e-6


@dataclass(frozen=True)
class MmvProblem:
    """``Y = S X + W`` held as the factor ``F`` of its ``M`` snapshots (module docstring)."""

    F: np.ndarray
    S: np.ndarray
    sigma_w2: float
    M: int

    @classmethod
    def from_received_pilot(cls, Y_p: np.ndarray, S: np.ndarray, sigma_w2: float) -> "MmvProblem":
        """Check the ``M x L`` pilot block, its ``L x K`` code and noise variance; factor the block."""
        Y_p = np.asarray(Y_p)
        S = np.asarray(S)
        if Y_p.ndim != 2 or Y_p.size == 0:
            raise InvalidParameterError(f"observation must be a nonempty matrix, got {Y_p.shape}")
        if S.ndim != 2 or S.shape[0] != Y_p.shape[1]:
            raise InvalidParameterError(
                f"pilot rows ({S.shape}) must match the observation's pilot length ({Y_p.shape})"
            )
        if not (np.all(np.isfinite(Y_p)) and np.all(np.isfinite(S))):
            raise InvalidParameterError("observation and pilot code must be finite")
        if not 0 <= sigma_w2 < math.inf:  # also rejects NaN
            raise InvalidParameterError(f"sigma_w2 must be finite and >= 0, got {sigma_w2}")
        return cls(_snapshot_factor(Y_p), S, sigma_w2, Y_p.shape[0])


def msbl(problem: MmvProblem, D_known: int | None = None) -> Support:
    """Row-sparse support recovery via sparse Bayesian learning (EM updates).

    Each row of the unknown gets a Gaussian prior with its own variance
    hyperparameter; EM alternates the posterior moments with the variance
    update ``gamma_k = mean_m |mu_km|^2 + Sigma_kk``. The noise variance is
    held fixed at the problem's true value.

    Each step forms ``G = inv(Sigma_y)`` of ``Sigma_y = sigma^2 I + S Gamma S^H``
    and ``GS = G S``. Then ``Sigma_kk = max(gamma_k - gamma_k^2 Re(s_k^H GS_k), 0)``,
    and, because ``G`` is Hermitian, ``S^H Sigma_y^-1 F = GS^H F``, so the mean
    power is ``gamma_k^2 ||(GS^H F)_k||^2 / M`` on the snapshot factor ``F``
    (module docstring). An exactly singular ``Sigma_y`` raises ``LinAlgError``.

    Iteration stops after 500 EM steps or once the relative hyperparameter
    change falls below 1e-6. The support is the ``D_known`` largest
    hyperparameters, or all above ``0.4 * max(gamma)`` (the rule of
    :func:`~gfdetect.detect.extract_support`).
    """
    S = problem.S
    L, K = S.shape
    sigma2 = max(problem.sigma_w2, 1e-12)

    S_H = S.conj().T
    noise = sigma2 * np.eye(L)
    gamma = np.ones(K)
    for _ in range(_MSBL_MAX_ITERS):
        gamma_new = _msbl_step(gamma, S, S_H, noise, problem.F, problem.M)
        gamma_new[gamma_new < _GAMMA_FLOOR] = 0.0
        peak = gamma_new.max()
        change = np.max(np.abs(gamma_new - gamma))
        gamma = gamma_new
        if peak == 0.0 or change <= _MSBL_GAMMA_TOL * max(peak, 1e-30):
            break
    return extract_support(gamma, D_known, _MSBL_PRUNE_TOLERANCE)


def _msbl_step(
    gamma: np.ndarray, S: np.ndarray, S_H: np.ndarray, noise: np.ndarray, F: np.ndarray, M: int
) -> np.ndarray:
    """One EM update of MSBL's hyperparameters, before the floor (see :func:`msbl`)."""
    # G = Sigma_y^-1 is Hermitian, so S^H Sigma_y^-1 F = (G S)^H F
    G = np.linalg.inv(noise + (S * gamma[None, :]) @ S_H)
    GS = G @ S
    quad = np.sum(S_H.T * GS, axis=0).real  # Re(s_k^H GS_k)
    # F has min(L, M) columns; the mean is over all M snapshots
    P = GS.conj().T @ F
    mean_power = gamma * gamma * np.sum(P.real**2 + P.imag**2, axis=1) / M
    return mean_power + np.maximum(gamma - gamma * gamma * quad, 0.0)


def bomp(problem: MmvProblem, D: int) -> Support:
    """Block-greedy pursuit; the activity level ``D`` is a required prior.

    Works on the unlifted observation, through its snapshot factor: the
    lifted model's block correlations factor into per-node residual
    correlations ``||s_k^H R||``, so no ``LM x KM`` matrix is ever
    materialized. Each round selects the
    highest-scoring node and refits all selected channels by least squares.
    ``D = 0`` (nobody transmitted) gives the empty support. Once the
    residual is numerically zero, which takes at most ``rank(S) <= L``
    picks, any further pick would be decided by rounding noise, so the
    search stops there and returns fewer than ``D`` nodes.
    """
    S = problem.S
    F = problem.F
    K = S.shape[1]
    if not 0 <= D <= K:
        raise InvalidParameterError(f"D must be in [0, {K}], got {D}")

    residual = F
    floor = _ZERO_RESIDUAL * np.linalg.norm(F)
    selected: list[int] = []
    for _ in range(D):
        if np.linalg.norm(residual) <= floor:
            break
        scores = np.linalg.norm(S.conj().T @ residual, axis=1)
        if selected:
            scores[selected] = -1.0
        k = int(np.argmax(scores))
        selected.append(k)
        S_sel = S[:, selected]
        coeff, *_ = np.linalg.lstsq(S_sel, F, rcond=None)
        residual = F - S_sel @ coeff
    return Support(tuple(sorted(selected)), K)


def mfocuss(problem: MmvProblem, D_known: int | None = None) -> Support:
    """Regularized M-FOCUSS: reweighted least squares toward row sparsity.

    Row weights are the current row norms raised to ``1 - p/2`` with
    ``p = 0.8``, and the inner system is Tikhonov-regularized by ``lam``,
    the noise variance scaled by the square root of the snapshot count
    (matching how the row energies grow with snapshots). A singular inner
    system triggers an internal regularization bump with a warning.
    Iteration stops after 200 steps or once the relative change falls below
    1e-6. The support is the ``D_known`` largest final row norms, or all
    above ``0.5`` times the largest (the rule of
    :func:`~gfdetect.detect.extract_support`).
    """
    S = problem.S
    F = problem.F
    L = S.shape[0]
    lam = problem.sigma_w2 * math.sqrt(problem.M)

    eye = np.eye(L)
    # min-norm least squares start
    X = S.conj().T @ _solve_regularized(S @ S.conj().T, lam, F, eye)
    for _ in range(_FOCUSS_MAX_ITERS):
        row_norms = np.linalg.norm(X, axis=1)
        peak = row_norms.max()
        if peak == 0.0:
            break
        weights = row_norms ** (1.0 - _FOCUSS_P / 2.0)
        B = S * weights[None, :]
        Z = _solve_regularized(B @ B.conj().T, lam, F, eye)
        X_new = weights[:, None] * (B.conj().T @ Z)
        change = np.linalg.norm(X_new - X)
        X = X_new
        if change <= _FOCUSS_TOL * max(np.linalg.norm(X), 1e-30):
            break
    final_norms = np.linalg.norm(X, axis=1)
    return extract_support(final_norms, D_known, _FOCUSS_PRUNE_TOLERANCE)


def _snapshot_factor(Y_p: np.ndarray) -> np.ndarray:
    """Return ``F`` with ``F F^H = Y_p^H Y_p`` and ``min(L, M)`` columns (module docstring)."""
    M, L = Y_p.shape
    if M <= L:
        return Y_p.conj().T
    return np.linalg.qr(Y_p, mode="r").conj().T


def _solve_regularized(G: np.ndarray, lam: float, Y: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Solve ``(G + lam I) Z = Y`` robustly, bumping ``lam`` if singular."""
    if lam <= 0:
        # unregularized: minimum-norm solve tolerates the rank collapse that
        # reweighting produces on noiseless data
        return np.linalg.lstsq(G, Y, rcond=None)[0]
    lam_eff = lam
    for _ in range(6):
        try:
            Z = np.linalg.solve(G + lam_eff * eye, Y)
        except np.linalg.LinAlgError:
            Z = None
        if Z is not None and np.all(np.isfinite(Z)):
            return Z
        scale = max(float(np.trace(G).real) / G.shape[0], 1.0)
        lam_eff = max(lam_eff * 10.0, 1e-12 * scale)
        warnings.warn(
            f"singular inner system; regularization raised to {lam_eff:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return np.linalg.lstsq(G + lam_eff * eye, Y, rcond=None)[0]
