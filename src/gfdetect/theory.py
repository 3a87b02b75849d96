"""Numerical evaluation of the detector's recovery-probability machinery.

The success probability of the covariance-domain detector admits a lower
bound of the form ``1 - (D + 4 L^2) * gamma^(-M)`` with ``gamma > 1`` built
from three exponents: a Chernoff rate for the per-node empirical channel
power (``chernoff_power_rate``) and two concentration exponents for the
channel-cross-term and noise-cross-term fluctuations (``deltas``). The
functions here evaluate those closed-form quantities numerically; nothing
is re-derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditionViolatedError, InvalidParameterError
from .pilots import max_identifiable_support

__all__ = [
    "BoundInputs",
    "lasso_constants",
    "chernoff_power_rate",
    "deltas",
    "recovery_bound",
    "evaluate_recovery_bound",
    "empirical_power_floor_check",
]

_SPLIT = 0.5  # share of the c1/L budget given to the channel cross terms (C1)


@dataclass(frozen=True)
class BoundInputs:
    """Everything the bound evaluation needs about one configuration.

    Active channels have unit power, so the channel cross terms need no
    variance of their own. ``sigma_w2`` is the white-noise variance,
    ``S_infnorm`` the largest pilot-entry magnitude, and ``sigma_min2`` the
    smallest active-channel variance; ``D`` may not exceed
    ``max_identifiable_support(mu)``.
    """

    lam: float
    mu: float
    D: int
    L: int
    M: int
    sigma_w2: float
    S_infnorm: float
    sigma_min2: float

    def __post_init__(self) -> None:
        positives = {
            "lam": self.lam,
            "mu": self.mu,
            "sigma_w2": self.sigma_w2,
            "S_infnorm": self.S_infnorm,
            "sigma_min2": self.sigma_min2,
        }
        for name, value in positives.items():
            if value <= 0 or not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be positive, got {value}")
        for name, value in (("D", self.D), ("L", self.L), ("M", self.M)):
            if value < 1:
                raise InvalidParameterError(f"{name} must be >= 1, got {value}")
        if self.D > max_identifiable_support(self.mu):
            raise ConditionViolatedError(
                f"sparsity D={self.D} violates D < (1 + 1/mu^2)/2 for mu={self.mu}"
            )


def lasso_constants(lam: float, mu: float, D: int) -> tuple[float, float]:
    """Event thresholds ``(c1, c2)`` controlling exact support recovery.

    ``c1`` caps the tolerable perturbation norm, ``c2`` floors the smallest
    empirical active-channel power. Valid while ``1 + mu^2 - mu^2 D > 0``.
    """
    if lam < 0:
        raise InvalidParameterError(f"lam must be >= 0, got {lam}")
    if not 0.0 <= mu <= 1.0:
        raise InvalidParameterError(f"mu must lie in [0, 1], got {mu}")
    if D < 0:
        raise InvalidParameterError(f"D must be >= 0, got {D}")
    mu2 = mu * mu
    denom = 1.0 + mu2 - mu2 * D
    if denom <= 0:
        raise ConditionViolatedError(
            f"1 + mu^2 - mu^2*D must be positive, got {denom} (mu={mu}, D={D})"
        )
    c1 = lam * (1.0 + mu2 - 2.0 * mu2 * D) / denom
    c2 = lam * (2.0 * (1.0 + mu2) - 3.0 * mu2 * D) / (denom * denom)
    return c1, c2


def chernoff_power_rate(C: float, sigma_min2: float) -> float:
    """Best Chernoff rate for ``P( mean of M squared Gaussians > C )``.

    Maximizes ``exp(-2 t C / sigma_min2) (1 + 2 t)`` over ``t > 0``; the
    stationary point is ``t0 = (sigma_min2 / C - 1) / 2`` and the returned
    rate is ``beta = sqrt(max value) > 1``. Requires ``0 < C < sigma_min2``.
    """
    if sigma_min2 <= 0:
        raise InvalidParameterError(f"sigma_min2 must be positive, got {sigma_min2}")
    if not 0.0 < C < sigma_min2:
        raise ConditionViolatedError(
            f"need 0 < C < sigma_min2, got C={C}, sigma_min2={sigma_min2}"
        )
    t0 = 0.5 * (sigma_min2 / C - 1.0)
    best = math.exp(-2.0 * t0 * C / sigma_min2) * (1.0 + 2.0 * t0)
    return math.sqrt(best)


def deltas(inputs: BoundInputs) -> tuple[float, float]:
    """Concentration exponents ``(delta1, delta2)`` for the two cross-term fluctuations.

    The budget ``c1 / L`` is split into ``C1 = _SPLIT * c1/L`` and
    ``C2 = (1 - _SPLIT) * c1/L``; ``delta1`` covers channel cross terms
    (scaled by the squared pilot sup-norm and the number of active pairs),
    ``delta2`` covers noise cross terms.
    """
    if inputs.D < 2 or inputs.L < 2:
        raise ConditionViolatedError(
            f"delta exponents need D >= 2 and L >= 2, got D={inputs.D}, L={inputs.L}"
        )
    c1, _ = lasso_constants(inputs.lam, inputs.mu, inputs.D)
    if c1 <= 0:
        raise InvalidParameterError(f"c1 must be positive, got {c1}")
    target = c1 / inputs.L
    C1 = _SPLIT * target
    C2 = (1.0 - _SPLIT) * target
    t1 = C1 * inputs.M / (inputs.S_infnorm**2 * inputs.D * (inputs.D - 1))
    t2 = C2 * inputs.M / (inputs.L * (inputs.L - 1))
    delta1 = t1 * t1 / (2.0 * (2.0 + t1))  # unit-power channels
    delta2 = t2 * t2 / (2.0 * inputs.sigma_w2 * (2.0 * inputs.sigma_w2 + t2))
    return delta1, delta2


def recovery_bound(M: int, D: int, L: int, gamma: float) -> float:
    """Success-probability floor ``max(0, 1 - (D + 4 L^2) gamma^(-M))``."""
    if M < 1 or D < 0 or L < 1:
        raise InvalidParameterError(f"bad dimensions M={M}, D={D}, L={L}")
    if gamma <= 1.0:
        raise ConditionViolatedError(f"gamma must exceed 1, got {gamma}")
    return max(0.0, 1.0 - (D + 4.0 * L * L) * gamma ** (-M))


def evaluate_recovery_bound(inputs: BoundInputs) -> float:
    """End-to-end bound evaluation for one configuration.

    The rate is ``gamma = 0.99 * min(beta_min, exp(delta1), exp(delta2))``,
    the 0.99 keeping the strict inequality. If the hypotheses fail
    (``c2 >= sigma_min2``, nonpositive ``c1``, or ``gamma <= 1``) the bound
    is vacuous and 0.0 is returned.
    """
    c1, c2 = lasso_constants(inputs.lam, inputs.mu, inputs.D)
    if c1 <= 0 or c2 <= 0 or c2 >= inputs.sigma_min2:
        return 0.0
    rate = chernoff_power_rate(c2, inputs.sigma_min2)
    if inputs.D >= 2:  # a single active node has no channel cross terms
        for delta in deltas(inputs):
            try:
                rate = min(rate, math.exp(delta))
            except OverflowError:  # exp(delta) is beyond the float range, so above beta
                pass
    gamma = 0.99 * rate
    if gamma <= 1.0:
        return 0.0
    return recovery_bound(inputs.M, inputs.D, inputs.L, gamma)


def empirical_power_floor_check(
    C: float,
    sigma_min2: float,
    M: int,
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo validation of the Chernoff floor on empirical power.

    Draws ``trials`` batches of ``M`` real zero-mean Gaussians with variance
    ``sigma_min2`` and returns ``(empirical, bound)``: the estimate of
    ``P(mean square > C)`` and the floor ``1 - beta^(-M)``. Raises if the
    estimate falls more than three binomial standard errors below the floor.
    """
    if M < 1 or trials < 1:
        raise InvalidParameterError(f"M and trials must be >= 1, got {M}, {trials}")
    beta = chernoff_power_rate(C, sigma_min2)
    bound = 1.0 - beta ** (-M)
    samples = rng.standard_normal((trials, M)) * math.sqrt(sigma_min2)
    empirical = float(np.mean(np.mean(samples**2, axis=1) > C))
    margin = 3.0 * math.sqrt(max(bound * (1.0 - bound), 1.0 / trials) / trials)
    if empirical < bound - margin:
        raise ConditionViolatedError(
            f"empirical probability {empirical:.6f} fell below the floor "
            f"{bound:.6f} by more than {margin:.6f}"
        )
    return empirical, bound
