"""Reference MMV solvers used for comparison against the covariance detector.

Three classical row-sparse recovery algorithms for the ``L x M``
multiple-measurement observation ``Y = Y_p^H`` of the ``M x L`` pilot block
``Y_p``:

* ``msbl``    - multiple-measurement sparse Bayesian learning with EM
                hyperparameter updates (Wipf & Rao style), noise variance
                frozen at its true value. It reads the block only through
                the sample covariance ``R_hat = Y Y^H / M``, the one the
                covariance detector reads, and each EM step is a diagonally
                scaled gradient step on the covariance likelihood
                ``log det Sigma_y + tr(Sigma_y^-1 R_hat)``.
* ``bomp``    - block orthogonal matching pursuit on the Kronecker-lifted
                single-vector model, evaluated in its mathematically
                equivalent unlifted form (simultaneous OMP).
* ``mfocuss`` - regularized M-FOCUSS (Cotter et al. style): iteratively
                reweighted least squares with row-norm weights.

All three are deterministic given their inputs.

Each solver depends on ``Y`` only through ``Y Y^H = M R_hat``, so the problem
holds only the sample covariance ``R_hat``, which
:meth:`MmvProblem.from_received_pilot` forms with
:func:`~gfdetect.detect.sample_covariance`, where the pilot block is checked.
MSBL reads ``R_hat`` itself. Every iterate the other two form is ``C Y`` for
some matrix ``C``, and they read those iterates only through row norms,
residual norms and Frobenius norms of differences, each a function of
``C Y Y^H C^H``. So any ``F`` with ``F F^H = M R_hat`` gives the supports of
the full observation in place of ``Y``: :func:`_snapshot_factor` takes
``F = V sqrt(w)`` from the eigendecomposition ``M R_hat = V diag(w) V^H``,
dropping the eigenvalues at rounding level, so ``F`` has at most
``min(L, M)`` columns and each step costs ``L x L`` instead of ``L x M``.
M-FOCUSS's regularization, which scales with the snapshot count, still uses
the true ``M``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .detect import _checked_code, extract_support, sample_covariance
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
    """``Y = S X + W`` held as the sample covariance of its ``M`` snapshots.

    ``R_hat`` is :func:`~gfdetect.detect.sample_covariance` of the pilot
    block; the solvers read the block only through it (module docstring).
    """

    R_hat: np.ndarray
    S: np.ndarray
    sigma_w2: float
    M: int

    @classmethod
    def from_received_pilot(cls, Y_p: np.ndarray, S: np.ndarray, sigma_w2: float) -> "MmvProblem":
        """Form ``R_hat`` of the ``M x L`` pilot block, which checks the block.

        The code must be a finite ``L x K`` matrix with ``K >= 1``, and the
        noise variance finite and nonnegative, as for
        :func:`~gfdetect.detect.build_smv`.
        """
        R_hat = sample_covariance(Y_p)
        S = _checked_code(S, R_hat.shape[0], sigma_w2)
        if not np.all(np.isfinite(S)):
            raise InvalidParameterError("pilot code must be finite")
        return cls(R_hat, S, sigma_w2, np.shape(Y_p)[0])


def msbl(problem: MmvProblem, D_known: int | None = None) -> Support:
    """Row-sparse support recovery via sparse Bayesian learning (EM updates).

    Each row of the unknown gets a Gaussian prior with its own variance
    hyperparameter; EM alternates the posterior moments with the variance
    update ``gamma_k = mean_m |mu_km|^2 + Sigma_kk``. The noise variance is
    held fixed at the problem's true value.

    MSBL reads the observation only through the problem's sample covariance
    ``R_hat`` (module docstring). With ``G = inv(Sigma_y)`` of
    ``Sigma_y = sigma^2 I + S Gamma S^H``, the two terms of the update sum to
    ``gamma_k + gamma_k^2 Re(s_k^H E s_k)`` with ``E = G (R_hat - Sigma_y) G``,
    and ``-Re(s_k^H E s_k)`` is the derivative in ``gamma_k`` of the
    covariance likelihood ``log det Sigma_y + tr(G R_hat)``.
    So each step is ``gamma += gamma^2 * Re diag(S^H E S)``: one inverse and
    no ``K x L`` block. An exactly singular ``Sigma_y`` raises ``LinAlgError``.

    Iteration stops after 500 EM steps or once the relative hyperparameter
    change falls below 1e-6. The support is the ``D_known`` largest
    hyperparameters, or all above ``0.4 * max(gamma)`` (the rule of
    :func:`~gfdetect.detect.extract_support`).
    """
    S = problem.S
    L, K = S.shape
    sigma2 = max(problem.sigma_w2, 1e-12)
    R_hat = problem.R_hat
    S_conj = S.conj()
    noise = sigma2 * np.eye(L)
    gamma = np.ones(K)
    for _ in range(_MSBL_MAX_ITERS):
        gamma_new = _msbl_step(gamma, S, S_conj, noise, R_hat)
        gamma_new[gamma_new < _GAMMA_FLOOR] = 0.0
        peak = gamma_new.max()
        change = np.abs(gamma_new - gamma).max()
        gamma = gamma_new
        if peak == 0.0 or change <= _MSBL_GAMMA_TOL * max(peak, 1e-30):
            break
    return extract_support(gamma, D_known, _MSBL_PRUNE_TOLERANCE)


def _msbl_step(
    gamma: np.ndarray, S: np.ndarray, S_conj: np.ndarray, noise: np.ndarray, R_hat: np.ndarray
) -> np.ndarray:
    """One EM update of MSBL's hyperparameters, before the floor (see :func:`msbl`)."""
    sigma_y = (S * gamma) @ S_conj.T
    sigma_y += noise
    G = np.linalg.inv(sigma_y)
    E = G @ (R_hat - sigma_y) @ G  # -dl/dgamma_k = Re(s_k^H E s_k)
    return gamma + gamma * gamma * (S_conj * (E @ S)).real.sum(axis=0)


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
    K = S.shape[1]
    if not 0 <= D <= K:
        raise InvalidParameterError(f"D must be in [0, {K}], got {D}")
    F = _snapshot_factor(problem.R_hat, problem.M)

    S_H = S.conj().T
    residual = F
    floor = _ZERO_RESIDUAL * np.linalg.norm(F)
    selected: list[int] = []
    for _ in range(D):
        if np.linalg.norm(residual) <= floor:
            break
        scores = np.linalg.norm(S_H @ residual, axis=1)
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
    F = _snapshot_factor(problem.R_hat, problem.M)
    L = S.shape[0]
    lam = problem.sigma_w2 * math.sqrt(problem.M)

    eye = np.eye(L)
    S_H = S.conj().T
    # min-norm least squares start
    X = S_H @ _solve_regularized(S @ S_H, lam, F, eye)
    for _ in range(_FOCUSS_MAX_ITERS):
        row_norms = np.linalg.norm(X, axis=1)
        peak = row_norms.max()
        if peak == 0.0:
            break
        weights = row_norms ** (1.0 - _FOCUSS_P / 2.0)
        B = S * weights[None, :]
        B_H = B.conj().T
        Z = _solve_regularized(B @ B_H, lam, F, eye)
        X_new = weights[:, None] * (B_H @ Z)
        change = np.linalg.norm(X_new - X)
        X = X_new
        if change <= _FOCUSS_TOL * max(np.linalg.norm(X), 1e-30):
            break
    final_norms = np.linalg.norm(X, axis=1)
    return extract_support(final_norms, D_known, _FOCUSS_PRUNE_TOLERANCE)


def _snapshot_factor(R_hat: np.ndarray, M: int) -> np.ndarray:
    """Return ``F`` with ``F F^H = M R_hat``, one column per eigenvalue above rounding.

    Eigenvalues at most ``16 L eps`` times the largest are the rounding of a
    rank-deficient ``R_hat`` (a noiseless block with ``D < L``): dropping
    them keeps block-OMP's zero-residual stop. ``R_hat = 0`` gives no columns.
    """
    w, V = np.linalg.eigh(M * R_hat)
    keep = w > 16 * w.size * np.finfo(float).eps * w[-1]
    return V[:, keep] * np.sqrt(w[keep])


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
