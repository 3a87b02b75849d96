"""Covariance-domain activity detection.

Pipeline: average the per-antenna outer products of the received pilot
signal into an ``L x L`` sample covariance, subtract the known noise mean,
vectorize into a single-measurement-vector problem over the Kronecker-lifted
dictionary, and recover the nonnegative per-node power vector with an
accelerated projected proximal-gradient solver. The support of that vector
is the set of active nodes.

Column ``k`` of the lift is ``kron(conj(s_k), s_k)``, so its real Gram is
``|S^H S|^2`` (entrywise), a ``K x K`` matrix formed from the ``L x K`` code
without reading the ``L^2 x K`` lift, and entry ``k`` of ``A^H x`` is
``s_k^H X s_k`` with ``X`` the ``L x L`` matrix that ``x`` vectorizes. The
Gram and the solver's step constant depend only on the code, and are formed
first: a code whose Gram or step constant is not finite is rejected before
it is lifted. The module keeps them, with the code and the lift, for the
last code it saw, and every lift it hands out is that memo's, read-only: a
sweep with one shared code builds them once, and every later trial whose
code has equal values reuses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .model import Support
from .pilots import khatri_rao_dictionary

__all__ = [
    "DetectionResult",
    "sample_covariance",
    "build_smv",
    "nn_lasso",
    "kkt_residual",
    "extract_support",
    "detect_activity",
]


@dataclass(frozen=True)
class DetectionResult:
    """Recovered per-node power vector plus solver diagnostics."""

    r_hat: np.ndarray
    support_hat: Support
    iterations: int
    converged: bool
    lam: float


def sample_covariance(Y_p: np.ndarray) -> np.ndarray:
    """Average of per-antenna outer products: ``Y_p^H Y_p / M``.

    ``Y_p`` is the ``M x L`` received pilot block; the result is ``L x L``
    Hermitian positive semidefinite. This is where every detector's pilot
    block is checked: one that is not a nonempty finite matrix is rejected
    before the product.
    """
    Y = np.asarray(Y_p)
    if Y.ndim != 2 or Y.shape[0] < 1 or Y.shape[1] < 1:
        raise InvalidParameterError(f"observation must be a nonempty matrix, got {Y.shape}")
    if not np.all(np.isfinite(Y)):
        raise InvalidParameterError("observation must be finite")
    M = Y.shape[0]
    return Y.conj().T @ Y / M


def _checked_code(S: np.ndarray, L: int, sigma_w2: float) -> np.ndarray:
    """``S`` as a finite ``L x K`` array with ``K >= 1``; ``sigma_w2`` finite and nonnegative."""
    S = np.asarray(S)
    if S.ndim != 2 or S.shape[0] != L or S.shape[1] < 1:
        raise InvalidParameterError(
            f"pilot code ({S.shape}) must have columns, and {L} rows to match the observation"
        )
    if not 0 <= sigma_w2 < math.inf:  # also rejects NaN
        raise InvalidParameterError(f"sigma_w2 must be finite and >= 0, got {sigma_w2}")
    if not np.all(np.isfinite(S)):
        raise InvalidParameterError("pilot code is not finite")
    return S


@dataclass(frozen=True)
class _LiftMemo:
    """The last pilot code's lift with the solver setup that depends only on it."""

    code: np.ndarray  # private copy of the pilot code: the memo's key, and what A^H x reads
    lift: np.ndarray  # read-only, finite because ``gram`` is
    gram: np.ndarray  # read-only ``Re(A^H A) = |S^H S|^2``
    lip: float  # largest eigenvalue of ``gram``


_memo: _LiftMemo | None = None


def build_smv(phi_yy: np.ndarray, S: np.ndarray, sigma_w2: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorize the covariance into a single-measurement-vector problem.

    Returns ``(A, x)`` with ``A`` the ``L^2 x K`` Kronecker lift of the
    ``L x K`` pilot code ``S`` and ``x = vec(phi_yy) - sigma_w2 * vec(I)``;
    the noise variance is assumed known, so only its mean is removed.
    A code with no columns or a non-finite entry, or whose Gram
    ``|S^H S|^2`` or step constant overflows, is rejected before it is
    lifted. Every ``A`` returned is read-only and memoized with that Gram and
    step: a call whose code has the same values as the previous call's
    returns the same ``A`` object, without rebuilding it.
    """
    global _memo
    phi = np.asarray(phi_yy)
    if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
        raise InvalidParameterError(f"covariance must be square, got {phi.shape}")
    S = _checked_code(S, phi.shape[0], sigma_w2)
    memo = _memo
    if memo is None or not np.array_equal(memo.code, S):
        _memo = memo = None  # drop the old lift first, so two are never alive at once
        code = np.array(S, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # _step_constant rejects an overflow
            C = code.conj().T @ code
            re, im = C.real, C.imag
            np.square(re, out=re)
            np.square(im, out=im)
            gram = re + im
        del C, re, im  # only the real Gram is held while the code is lifted
        lip = _step_constant(gram)
        # every squared entry of lift column k is at most gram[k, k] = ||s_k||^4, so a
        # finite Gram means a finite lift
        A = khatri_rao_dictionary(S)
        A.flags.writeable = False
        gram.flags.writeable = False
        _memo = memo = _LiftMemo(code, A, gram, lip)
    L = phi.shape[0]
    x = phi.ravel(order="F") - sigma_w2 * np.eye(L).ravel()
    return memo.lift, x


def _smv_arrays(A: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``A`` as an array and ``x`` as a vector, checked to form ``A r = x`` for some ``r``."""
    A = np.asarray(A)
    x = np.asarray(x).ravel()
    if A.ndim != 2 or A.shape[0] != x.size or A.shape[1] < 1:
        raise InvalidParameterError(f"incompatible shapes A={A.shape}, x={x.shape}")
    return A, x


def _adjoint_product(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``A^H v`` formed as ``conj(A^T conj(v))``, so no conjugate copy of ``A`` is made."""
    return (A.T @ v.conj()).conj()


def _penalty_rule(corr: np.ndarray, snapshots: int) -> float:
    """``0.1 * max|corr| * sqrt(log(K)/snapshots)`` for the correlation ``corr = A^H x``."""
    if snapshots < 1:
        raise InvalidParameterError(f"snapshots must be >= 1, got {snapshots}")
    K = corr.size
    peak = float(np.max(np.abs(corr)))
    return 0.1 * peak * math.sqrt(math.log(max(K, 2)) / snapshots)


_POWER_STEPS = 200  # the power iteration's cap, past which eigvalsh takes over
_POWER_RTOL = 1e-12  # stop once a step moves the estimate by <= this * max(estimate, 1)


def _step_constant(gram: np.ndarray) -> float:
    """Largest eigenvalue of a nonnegative symmetric Gram matrix: the solver's step constant.

    Found by power iteration from all ones, never orthogonal to the nonnegative
    top eigenvector; past ``K * max(diag) > 2**500`` it runs on ``gram`` scaled
    by a power of two, so ``||gram @ v||^2`` cannot overflow, and scales back.
    Unconverged after ``_POWER_STEPS`` steps, still low, it gives way to
    ``eigvalsh``. A ``gram`` or step constant that is not finite is rejected.
    """
    if not np.all(np.isfinite(gram)):
        raise InvalidParameterError("the LASSO's Gram matrix is not finite")
    K = gram.shape[0]
    top = float(np.max(np.diagonal(gram), initial=0.0))  # a PSD Gram's largest entry
    e = math.frexp(top)[1] if K * top > 2.0**500 else 0
    gram = np.ldexp(gram, -e) if e else gram
    v = np.ones(K) / math.sqrt(K)
    w = gram @ v
    value = 0.0
    for _ in range(_POWER_STEPS):
        nw = math.sqrt(w @ w)  # np.linalg.norm's own formula for a 1-D float array
        if nw == 0:
            return 0.0
        v = w / nw
        w = gram @ v  # the Rayleigh product is also the next step's power product
        new_value = float(v @ w)
        if abs(new_value - value) <= _POWER_RTOL * max(new_value, 1.0):
            break
        value = new_value
    else:
        new_value = float(np.linalg.eigvalsh(gram)[-1])
    try:
        return math.ldexp(new_value, e)
    except OverflowError:
        raise InvalidParameterError("the LASSO's step constant is not finite") from None


def _lift_correlation(code: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A^H x`` for the lift ``A`` of ``code``, read from the ``L x K`` code.

    Entry ``k`` is ``s_k^H X s_k`` with ``X`` the ``L x L`` unvectorization of
    ``x``; one ``L x L x K`` product, for any complex ``x``.
    """
    L = code.shape[0]
    # x.reshape(L, L) is X^T, and s_k^T X^T conj(s_k) = s_k^H X s_k
    return np.sum(code * (x.reshape(L, L) @ code.conj()), axis=0)


def nn_lasso(
    A: np.ndarray,
    x: np.ndarray,
    lam: float | None = None,
    snapshots: int = 1,
    known_sparsity: int | None = None,
    max_iterations: int = 2000,
    objective_tolerance: float = 1e-10,
) -> DetectionResult:
    """Solve ``min 0.5*||A r - x||^2 + lam*sum(r)`` subject to ``r >= 0``.

    ``A`` and ``x`` may be complex while ``r`` is real nonnegative; the
    data term uses the squared modulus of the residual, so the problem is
    the real quadratic ``0.5 r^T G r - b^T r + 0.5||x||^2`` with
    ``G = Re(A^H A)`` and ``b = Re(A^H x)``. The solver is a monotone
    accelerated projected proximal-gradient method whose step is set by the
    largest eigenvalue of ``|G|``, an upper bound on ``G``'s; it carries each
    point with its Gram product as one ``2 x K`` array ``[r; G r]``, so each
    iteration costs one ``K x K`` product. Momentum restarts whenever the
    accelerated step fails to decrease the objective, keeping it non-increasing.
    Convergence is declared when the relative objective decrease drops below
    ``objective_tolerance``. ``lam=None`` selects :func:`_penalty_rule`
    for ``snapshots`` averaged antennas; ``known_sparsity`` is passed to
    :func:`extract_support`. When ``A`` is the lift object
    :func:`build_smv` last returned, ``G`` is the ``|S^H S|^2`` formed from
    that lift's pilot code, with its largest eigenvalue, and ``A^H x`` is
    formed from the ``L x K`` code too, so no entry of the lift is read; any
    other ``A``, a copy included, gets its own ``G`` and ``A^H x``. An ``A``
    whose ``G`` or step constant is not finite is rejected, and so is any
    ``A`` with a non-finite entry, since it makes its column's diagonal entry
    of ``G`` non-finite; :func:`build_smv` rejects such a code before lifting
    it. The result holds the final iterate, not the objective's path.
    """
    A, x = _smv_arrays(A, x)
    memo = _memo if _memo is not None and A is _memo.lift else None
    if not np.all(np.isfinite(x)):
        raise InvalidParameterError("x must be finite")
    if lam is not None and (lam < 0 or not math.isfinite(lam)):
        raise InvalidParameterError(f"lam must be >= 0, got {lam}")
    if max_iterations < 1:
        raise InvalidParameterError("max_iterations must be >= 1")
    if not objective_tolerance >= 0:  # also rejects NaN
        raise InvalidParameterError(f"objective_tolerance must be >= 0, got {objective_tolerance}")

    K = A.shape[1]
    if memo is None:
        # Re(A^H A) = B^T B: one symmetric real product instead of a complex one
        B = np.concatenate([A.real, A.imag]) if np.iscomplexobj(A) else A
        with np.errstate(over="ignore", invalid="ignore"):  # _step_constant rejects an overflow
            gram = B.T @ B
        del B
        lip = _step_constant(np.abs(gram))  # bounds the top eigenvalue of a signed Gram
        corr = _adjoint_product(A, x)
    else:  # the memo's lift was checked when build_smv formed its Gram
        gram, lip, corr = memo.gram, memo.lip, _lift_correlation(memo.code, x)
    b = corr.real
    xnorm2 = float(np.real(np.vdot(x, x)))
    if lam is None:
        lam = _penalty_rule(corr, snapshots)

    step = 1.0 / (1.01 * lip) if lip > 0 else 1.0
    offset = lam - b  # the gradient at r, plus lam, is gram @ r + offset
    half_x = 0.5 * xnorm2

    def objective(state: np.ndarray) -> float:
        return float(state[0] @ (0.5 * state[1] + offset)) + half_x

    # each state is the 2 x K array [r; gram @ r]
    cur = np.zeros((2, K))
    obj = objective(cur)
    ahead = cur
    t = 1.0
    converged = False
    iterations = 0
    plain_step = True  # ahead currently equals cur (no momentum in flight)

    eps = np.finfo(float).eps
    for iterations in range(1, max_iterations + 1):
        new = np.empty((2, K))
        np.maximum(ahead[0] - step * (ahead[1] + offset), 0.0, out=new[0])
        np.dot(gram, new[0], out=new[1])
        move = new - cur
        # the quadratic's exact change, move . (mean gradient + lam), rounds to
        # the size of the change, where obj - objective(new) rounds to obj's:
        # near the optimum that noise alone would accept or refuse a step
        decrease = -float(move[0] @ (0.5 * (new[1] + cur[1]) + offset))
        # an unaccelerated step with a valid step size cannot increase the
        # true objective; apparent rises within float noise are accepted
        slack = 32.0 * eps * max(abs(obj), 1.0) if plain_step else 0.0
        if decrease >= -slack:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            # gram is linear, so one expression moves the point and its product
            ahead = new + ((t - 1.0) / t_next) * move
            cur = new
            t = t_next
            plain_step = False
            obj = objective(new)
            # strict: a zero tolerance disables the plateau stop entirely
            if max(decrease, 0.0) < objective_tolerance * max(abs(obj), 1e-30):
                converged = True
                break
        else:
            # overshoot: keep the iterate, restart momentum; if even the
            # unaccelerated step fails the step size was too optimistic
            if plain_step:
                step *= 0.5
            ahead = cur
            t = 1.0
            plain_step = True

    r = cur[0]
    return DetectionResult(
        r_hat=r,
        support_hat=extract_support(r, known_sparsity),
        iterations=iterations,
        converged=converged,
        lam=float(lam),
    )


def kkt_residual(A: np.ndarray, x: np.ndarray, r: np.ndarray, lam: float) -> float:
    """Largest first-order optimality violation of a candidate solution.

    For coordinates with ``r > 0`` the stationarity residual
    ``Re(a_k^H (A r - x)) + lam`` must vanish; for zero coordinates it must
    be nonnegative. Returns the maximum violation magnitude. Shapes are
    checked as :func:`nn_lasso` checks them, and ``r`` must hold one entry
    per column of ``A``.
    """
    A, x = _smv_arrays(A, x)
    r = np.asarray(r, dtype=float)
    if r.shape != (A.shape[1],):
        raise InvalidParameterError(f"r must have shape ({A.shape[1]},), got {r.shape}")
    g = _adjoint_product(A, A @ r - x).real + lam
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
    if not np.all(r >= 0):  # also rejects NaN
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


def detect_activity(
    Y_p: np.ndarray,
    S: np.ndarray,
    sigma_w2: float,
    lam: float | None = None,
    known_sparsity: int | None = None,
) -> DetectionResult:
    """Full covariance-domain detection on a received pilot block and its ``L x K`` pilot code.

    With ``L = 1`` and unit-norm columns every lifted column is
    ``|s_k|^2 = 1``, so all entries of ``r_hat`` are equal up to rounding and
    a ``known_sparsity`` pick among them is a tie that rounding decides.
    """
    Y = np.asarray(Y_p)
    A, x = build_smv(sample_covariance(Y), S, sigma_w2)
    return nn_lasso(A, x, lam, Y.shape[0], known_sparsity)
