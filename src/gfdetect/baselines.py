"""Reference MMV solvers used for comparison against the covariance detector.

Three classical row-sparse recovery algorithms for the ``L x M``
multiple-measurement observation ``Y``:

* ``msbl``    - multiple-measurement sparse Bayesian learning with EM
                hyperparameter updates (Wipf & Rao style), noise variance
                frozen at its true value.
* ``bomp``    - block orthogonal matching pursuit on the Kronecker-lifted
                single-vector model, evaluated in its mathematically
                equivalent unlifted form (simultaneous OMP).
* ``mfocuss`` - regularized M-FOCUSS (Cotter et al. style): iteratively
                reweighted least squares with row-norm weights.

All three are deterministic given their inputs.

Each solver depends on ``Y`` only through ``Y Y^H``: every iterate it forms
is ``C Y`` for some matrix ``C``, and it reads those iterates only through
row norms, residual norms and Frobenius norms of differences. With many
antennas (``M > L``) the solvers therefore run on an ``L x L`` factor
``F = R^H`` of the QR decomposition ``Y^H = Q R``. Since ``Y = F Q^H`` and
``Q`` has orthonormal columns, right-multiplying by ``Q^H`` keeps all those
norms, so the supports are those of the full observation at an ``L x L``
instead of ``L x M`` cost per step. Quantities that scale with the snapshot
count (MSBL's per-snapshot mean power, M-FOCUSS's regularization) still use
the true ``M``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .detect import LassoOptions, extract_support
from .errors import InvalidParameterError
from .model import Support

__all__ = ["MmvProblem", "msbl", "bomp", "mfocuss"]

# hyperparameters this far below the typical signal scale are treated as
# exactly zero (unit-power channels, unit-energy symbols)
_GAMMA_FLOOR = 1e-8

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
    """Row-sparse recovery instance ``Y = S X + W``: ``Y`` is ``L x M``, ``S`` the ``L x K`` pilot code."""

    Y: np.ndarray
    S: np.ndarray
    sigma_w2: float

    def __post_init__(self) -> None:
        Y = np.asarray(self.Y, dtype=complex)
        S = np.asarray(self.S)
        if S.ndim != 2 or Y.ndim != 2 or Y.shape[0] != S.shape[0]:
            raise InvalidParameterError(
                f"observation rows ({Y.shape}) must match the pilot length of {S.shape}"
            )
        if self.sigma_w2 < 0:
            raise InvalidParameterError(f"sigma_w2 must be >= 0, got {self.sigma_w2}")
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "S", S)

    @classmethod
    def from_received_pilot(cls, Y_p: np.ndarray, S: np.ndarray, sigma_w2: float) -> "MmvProblem":
        """Transpose the ``M x L`` antenna-domain observation into MMV form."""
        return cls(np.asarray(Y_p).conj().T, S, sigma_w2)

    @property
    def num_snapshots(self) -> int:
        return self.Y.shape[1]


def msbl(problem: MmvProblem, D_known: int | None = None) -> Support:
    """Row-sparse support recovery via sparse Bayesian learning (EM updates).

    Each row of the unknown gets a Gaussian prior with its own variance
    hyperparameter; EM alternates the posterior moments with the variance
    update ``gamma_k = mean_m |mu_km|^2 + Sigma_kk``. The noise variance is
    held fixed at the problem's true value. Iteration stops after 500 EM
    steps or once the relative hyperparameter change falls below 1e-6. The
    support is the ``D_known`` largest hyperparameters, or all above
    ``0.4 * max(gamma)`` (the rule of :func:`~gfdetect.detect.extract_support`).
    """
    S = problem.S
    Y = _snapshot_factor(problem.Y)
    L, K = S.shape
    M = problem.num_snapshots
    sigma2 = max(problem.sigma_w2, 1e-12)

    gamma = np.ones(K)
    eye = np.eye(L)
    for _ in range(_MSBL_MAX_ITERS):
        SG = S * gamma[None, :]
        sigma_y = sigma2 * eye + SG @ S.conj().T
        solved = np.linalg.solve(sigma_y, np.concatenate([S, Y], axis=1))
        SiS = solved[:, :K]
        SiY = solved[:, K:]
        quad = np.einsum("lk,lk->k", S.conj(), SiS).real
        mu = gamma[:, None] * (S.conj().T @ SiY)
        # the factor has min(L, M) columns; the mean is over all M snapshots
        mean_power = np.sum(np.abs(mu) ** 2, axis=1) / M if M else np.zeros(K)
        gamma_new = mean_power + np.maximum(gamma - gamma * gamma * quad, 0.0)
        gamma_new[gamma_new < _GAMMA_FLOOR] = 0.0
        peak = gamma_new.max()
        change = np.max(np.abs(gamma_new - gamma))
        gamma = gamma_new
        if peak == 0.0 or change <= _MSBL_GAMMA_TOL * max(peak, 1e-30):
            break
    return extract_support(gamma, LassoOptions(threshold_ratio=_MSBL_PRUNE_TOLERANCE, known_sparsity=D_known))


def bomp(problem: MmvProblem, D: int) -> Support:
    """Block-greedy pursuit; the activity level ``D`` is a required prior.

    Works on the unlifted observation, through its snapshot factor: the
    lifted model's block correlations factor into per-node residual
    correlations ``||s_k^H R||``, so no ``LM x KM`` matrix is ever
    materialized. Each round selects the
    highest-scoring node and refits all selected channels by least squares.
    ``D = 0`` (nobody transmitted) gives the empty support.
    """
    S = problem.S
    Y = _snapshot_factor(problem.Y)
    L, K = S.shape
    if not 0 <= D <= K:
        raise InvalidParameterError(f"D must be in [0, {K}], got {D}")

    residual = Y
    selected: list[int] = []
    for _ in range(D):
        scores = np.linalg.norm(S.conj().T @ residual, axis=1)
        if selected:
            scores[selected] = -1.0
        k = int(np.argmax(scores))
        selected.append(k)
        S_sel = S[:, selected]
        coeff, *_ = np.linalg.lstsq(S_sel, Y, rcond=None)
        residual = Y - S_sel @ coeff
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
    Y = _snapshot_factor(problem.Y)
    L = S.shape[0]
    lam = problem.sigma_w2 * math.sqrt(max(problem.num_snapshots, 1))

    eye = np.eye(L)
    # min-norm least squares start
    X = S.conj().T @ _solve_regularized(S @ S.conj().T, lam, Y, eye)
    for _ in range(_FOCUSS_MAX_ITERS):
        row_norms = np.linalg.norm(X, axis=1)
        peak = row_norms.max()
        if peak == 0.0:
            break
        weights = row_norms ** (1.0 - _FOCUSS_P / 2.0)
        B = S * weights[None, :]
        Z = _solve_regularized(B @ B.conj().T, lam, Y, eye)
        X_new = weights[:, None] * (B.conj().T @ Z)
        change = np.linalg.norm(X_new - X)
        X = X_new
        if change <= _FOCUSS_TOL * max(np.linalg.norm(X), 1e-30):
            break
    final_norms = np.linalg.norm(X, axis=1)
    return extract_support(final_norms, LassoOptions(threshold_ratio=_FOCUSS_PRUNE_TOLERANCE, known_sparsity=D_known))


def _snapshot_factor(Y: np.ndarray) -> np.ndarray:
    """Return ``F`` with ``F F^H = Y Y^H`` and ``min(L, M)`` columns (module docstring)."""
    L, M = Y.shape
    if M <= L:
        return Y
    return np.linalg.qr(Y.conj().T, mode="r").conj().T


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
