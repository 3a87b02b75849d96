"""Covariance-domain activity detection.

Pipeline: average the per-antenna outer products of the received pilot
signal into an ``L x L`` sample covariance, subtract the known noise mean,
vectorize into a single-measurement-vector problem over the Kronecker-lifted
dictionary, and recover the nonnegative per-node power vector with an
accelerated projected proximal-gradient solver. The support of that vector
is the set of active nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .model import Support
from .pilots import khatri_rao_dictionary

__all__ = [
    "LassoOptions",
    "DetectionResult",
    "sample_covariance",
    "build_smv",
    "default_penalty",
    "nn_lasso",
    "kkt_residual",
    "extract_support",
    "detect_activity",
]


@dataclass(frozen=True)
class LassoOptions:
    """Solver and support-extraction knobs.

    ``lam=None`` selects a scale-aware default penalty at solve time.
    ``known_sparsity`` is passed to :func:`extract_support`.
    """

    lam: float | None = None
    max_iterations: int = 2000
    objective_tolerance: float = 1e-10
    known_sparsity: int | None = None

    def __post_init__(self) -> None:
        if self.lam is not None and (self.lam < 0 or not math.isfinite(self.lam)):
            raise InvalidParameterError(f"lam must be >= 0, got {self.lam}")
        if self.max_iterations < 1:
            raise InvalidParameterError("max_iterations must be >= 1")
        if not self.objective_tolerance >= 0:  # also rejects NaN
            raise InvalidParameterError(f"objective_tolerance must be >= 0, got {self.objective_tolerance}")
        if self.known_sparsity is not None and self.known_sparsity < 0:
            raise InvalidParameterError("known_sparsity must be >= 0")


@dataclass(frozen=True)
class DetectionResult:
    """Recovered per-node power vector plus solver diagnostics."""

    r_hat: np.ndarray
    support_hat: Support
    iterations: int
    converged: bool
    lam: float
    objective_history: np.ndarray


def sample_covariance(Y_p: np.ndarray) -> np.ndarray:
    """Average of per-antenna outer products: ``Y_p^H Y_p / M``.

    ``Y_p`` is the ``M x L`` received pilot block; the result is ``L x L``
    Hermitian positive semidefinite.
    """
    Y = np.asarray(Y_p)
    if Y.ndim != 2 or Y.shape[0] < 1 or Y.shape[1] < 1:
        raise InvalidParameterError(f"observation must be a nonempty matrix, got {Y.shape}")
    M = Y.shape[0]
    return Y.conj().T @ Y / M


def build_smv(phi_yy: np.ndarray, S: np.ndarray, sigma_w2: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorize the covariance into a single-measurement-vector problem.

    Returns ``(A, x)`` with ``A`` the ``L^2 x K`` Kronecker lift of the
    ``L x K`` pilot code ``S`` and ``x = vec(phi_yy) - sigma_w2 * vec(I)``;
    the noise variance is assumed known, so only its mean is removed.
    """
    phi = np.asarray(phi_yy)
    S = np.asarray(S)
    if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
        raise InvalidParameterError(f"covariance must be square, got {phi.shape}")
    if S.ndim != 2 or S.shape[0] != phi.shape[0]:
        raise InvalidParameterError(
            f"pilot rows ({S.shape}) must match covariance size ({phi.shape})"
        )
    if sigma_w2 < 0:
        raise InvalidParameterError(f"sigma_w2 must be >= 0, got {sigma_w2}")
    L = phi.shape[0]
    A = khatri_rao_dictionary(S)
    x = phi.ravel(order="F") - sigma_w2 * np.eye(L).ravel()
    return A, x


def default_penalty(A: np.ndarray, x: np.ndarray, snapshots: int) -> float:
    """Scale-aware l1 penalty: ``0.1 * max|A^H x| * sqrt(log(K)/snapshots)``.

    Tracks the 1/snapshots shrinkage of the covariance fluctuation so the
    penalty fades as more antennas are averaged.
    """
    if snapshots < 1:
        raise InvalidParameterError(f"snapshots must be >= 1, got {snapshots}")
    K = A.shape[1]
    corr = float(np.max(np.abs(A.conj().T @ x))) if x.size else 0.0
    return 0.1 * corr * math.sqrt(math.log(max(K, 2)) / snapshots)


def _spectral_norm_sq(gram: np.ndarray, iterations: int = 200, rtol: float = 1e-12) -> float:
    """Largest eigenvalue of the (Hermitian PSD) Gram matrix via power iteration."""
    K = gram.shape[0]
    v = np.ones(K) / math.sqrt(K)
    value = 0.0
    for _ in range(iterations):
        w = gram @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
        new_value = float(np.real(np.vdot(v, gram @ v)))
        if abs(new_value - value) <= rtol * max(new_value, 1.0):
            return new_value
        value = new_value
    return value


def nn_lasso(A: np.ndarray, x: np.ndarray, opts: LassoOptions, snapshots: int = 1) -> DetectionResult:
    """Solve ``min 0.5*||A r - x||^2 + lam*sum(r)`` subject to ``r >= 0``.

    ``A`` and ``x`` may be complex while ``r`` is real nonnegative; the
    data term uses the squared modulus of the residual. The solver is a
    monotone accelerated projected proximal-gradient method with the step
    set by the squared spectral norm of ``A`` (power iteration); momentum is
    restarted whenever the accelerated step fails to decrease the objective,
    which keeps the objective non-increasing. Convergence is declared when
    the relative objective decrease drops below ``objective_tolerance``.
    """
    A = np.asarray(A)
    x = np.asarray(x).ravel()
    if A.ndim != 2 or A.shape[0] != x.size or A.shape[1] < 1:
        raise InvalidParameterError(f"incompatible shapes A={A.shape}, x={x.shape}")
    if not np.all(np.isfinite(A)) or not np.all(np.isfinite(x)):
        raise InvalidParameterError("A and x must be finite")

    K = A.shape[1]
    gram_c = A.conj().T @ A
    gram = np.ascontiguousarray(gram_c.real)
    b = (A.conj().T @ x).real
    xnorm2 = float(np.real(np.vdot(x, x)))
    lam = opts.lam if opts.lam is not None else default_penalty(A, x, snapshots)

    lip = _spectral_norm_sq(gram_c)
    step = 1.0 / (1.01 * lip) if lip > 0 else 1.0

    def objective(r: np.ndarray) -> float:
        return float(0.5 * (r @ (gram @ r)) - b @ r + 0.5 * xnorm2 + lam * r.sum())

    r = np.zeros(K)
    obj = objective(r)
    y = r
    t = 1.0
    history = [obj]
    converged = False
    iterations = 0
    plain_step = True  # y currently equals r (no momentum in flight)

    eps = np.finfo(float).eps
    for iterations in range(1, opts.max_iterations + 1):
        grad = gram @ y - b
        z = y - step * (grad + lam)
        np.maximum(z, 0.0, out=z)
        obj_z = objective(z)
        # an unaccelerated step with a valid step size cannot increase the
        # true objective; apparent rises within float noise are accepted
        slack = 32.0 * eps * max(abs(obj), 1.0) if plain_step else 0.0
        if obj_z <= obj + slack:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = z + ((t - 1.0) / t_next) * (z - r)
            r = z
            t = t_next
            plain_step = False
            history.append(obj_z)
            decrease = obj - obj_z
            obj = obj_z
            # strict: a zero tolerance disables the plateau stop entirely
            if max(decrease, 0.0) < opts.objective_tolerance * max(abs(obj), 1e-30):
                converged = True
                break
        else:
            # overshoot: keep the iterate, restart momentum; if even the
            # unaccelerated step fails the step size was too optimistic
            if plain_step:
                step *= 0.5
            y = r
            t = 1.0
            plain_step = True
            history.append(obj)

    return DetectionResult(
        r_hat=r,
        support_hat=extract_support(r, opts.known_sparsity),
        iterations=iterations,
        converged=converged,
        lam=float(lam),
        objective_history=np.asarray(history),
    )


def kkt_residual(A: np.ndarray, x: np.ndarray, r: np.ndarray, lam: float) -> float:
    """Largest first-order optimality violation of a candidate solution.

    For coordinates with ``r > 0`` the stationarity residual
    ``Re(a_k^H (A r - x)) + lam`` must vanish; for zero coordinates it must
    be nonnegative. Returns the maximum violation magnitude.
    """
    r = np.asarray(r, dtype=float)
    g = (np.asarray(A).conj().T @ (np.asarray(A) @ r - np.asarray(x).ravel())).real + lam
    positive = r > 0
    worst = 0.0
    if np.any(positive):
        worst = float(np.max(np.abs(g[positive])))
    if np.any(~positive):
        worst = max(worst, float(max(0.0, -np.min(g[~positive]))))
    return worst


def extract_support(
    r_hat: np.ndarray, known_sparsity: int | None = None, threshold_ratio: float = 0.1
) -> Support:
    """Decide the active set from a nonnegative power vector.

    With ``known_sparsity`` set, keep that many largest strictly positive
    entries (ties resolved toward the lower index); otherwise keep entries
    above ``threshold_ratio`` times the maximum. An all-zero vector maps to
    the empty support.
    """
    r = np.asarray(r_hat, dtype=float)
    if r.ndim != 1:
        raise InvalidParameterError(f"r_hat must be a vector, got shape {r.shape}")
    if np.any(r < 0):
        raise InvalidParameterError("r_hat must be elementwise nonnegative")
    if known_sparsity is not None and known_sparsity < 0:
        raise InvalidParameterError("known_sparsity must be >= 0")
    if not 0.0 < threshold_ratio < 1.0:
        raise InvalidParameterError("threshold_ratio must lie in (0, 1)")
    if known_sparsity is not None:
        order = np.argsort(-r, kind="stable")[:known_sparsity]
        idx = sorted(int(i) for i in order if r[i] > 0)
    else:
        peak = float(r.max()) if r.size else 0.0
        idx = [] if peak <= 0 else [int(i) for i in np.flatnonzero(r > threshold_ratio * peak)]
    return Support(tuple(idx), r.size)


def detect_activity(Y_p: np.ndarray, S: np.ndarray, sigma_w2: float, opts: LassoOptions) -> DetectionResult:
    """Full covariance-domain detection on a received pilot block and its ``L x K`` pilot code."""
    Y = np.asarray(Y_p)
    A, x = build_smv(sample_covariance(Y), S, sigma_w2)
    return nn_lasso(A, x, opts, snapshots=Y.shape[0])
