import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gfdetect.errors import ConditionViolatedError, InvalidParameterError
from gfdetect.model import derive_rng
from gfdetect.theory import (
    evaluate_recovery_bound,
    lasso_constants,
    chernoff_power_rate,
    empirical_power_floor_check,
)


def golden_section_max(f, lo, hi, iters=200):
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    for _ in range(iters):
        if f(c) > f(d):
            b = d
        else:
            a = c
        c, d = b - phi * (b - a), a + phi * (b - a)
    return 0.5 * (a + b)


class TestLassoConstants:
    def test_zero_coherence(self):
        c1, c2 = lasso_constants(1.0, 0.0, 5)
        assert c1 == pytest.approx(1.0)
        assert c2 == pytest.approx(2.0)

    def test_zero_numerator(self):
        # D chosen so 1 + mu^2 - 2 mu^2 D = 0
        mu = 0.5
        D = int((1 + mu**2) / (2 * mu**2))  # = 2.5 -> not integer; use mu with integer root
        mu = math.sqrt(1.0 / 3.0)  # 1 + 1/3 - 2*(1/3)*2 = 0 at D = 2
        c1, _ = lasso_constants(1.0, mu, 2)
        assert c1 == pytest.approx(0.0, abs=1e-12)

    def test_zero_penalty(self):
        assert lasso_constants(0.0, 0.3, 3) == (0.0, 0.0)

    def test_c1_below_lambda(self):
        rng = derive_rng(0, 41)
        for _ in range(50):
            lam = float(rng.uniform(0.01, 2.0))
            mu = float(rng.uniform(0.05, 0.6))
            D = int(rng.integers(1, max(2, int(0.5 * (1 + 1 / mu**2)))))
            c1, _ = lasso_constants(lam, mu, D)
            assert c1 < lam + 1e-12

    def test_denominator_guard(self):
        with pytest.raises(ConditionViolatedError):
            lasso_constants(1.0, 0.9, 10)


class TestChernoffRate:
    def test_reference_point(self):
        beta = chernoff_power_rate(0.5, 1.0)
        assert beta == pytest.approx(1.1014, abs=1e-4)
        assert beta**2 == pytest.approx(2 * math.exp(-0.5), abs=1e-6)

    def test_boundary_approaches_one(self):
        assert chernoff_power_rate(0.999999, 1.0) == pytest.approx(1.0, abs=1e-5)

    def test_always_above_one(self):
        rng = derive_rng(1, 41)
        for _ in range(100):
            sigma2 = float(rng.uniform(0.1, 5.0))
            C = float(rng.uniform(0.01, 0.99)) * sigma2
            assert chernoff_power_rate(C, sigma2) > 1.0

    def test_closed_form_matches_numeric_maximum(self):
        for C, sigma2 in ((0.5, 1.0), (0.2, 1.0), (1.5, 2.0)):
            def rate(t):
                return math.exp(-2 * t * C / sigma2) * (1 + 2 * t)

            t_star = golden_section_max(rate, 1e-9, 50.0)
            # the maximum is flat, so compare in value space at full precision
            assert math.sqrt(rate(t_star)) == pytest.approx(chernoff_power_rate(C, sigma2), abs=1e-8)

    def test_hypothesis_guard(self):
        with pytest.raises(ConditionViolatedError):
            chernoff_power_rate(1.5, 1.0)


def make_inputs(**overrides):
    base = dict(
        lam=0.3,
        mu=0.4,
        D=2,
        L=8,
        M=1024,
        sigma_w2=0.01,
        S_infnorm=0.5,
        sigma_min2=1.0,
    )
    base.update(overrides)
    return base


def worked_floor(lam, mu, D, L, M, sigma_w2, S_infnorm, sigma_min2):
    """``(delta1, delta2, gamma, 1 - (D + 4 L^2) gamma^-M)`` worked out term by term for ``D >= 2``."""
    c1, c2 = lasso_constants(lam, mu, D)
    beta = chernoff_power_rate(c2, sigma_min2)
    budget = c1 / L / 2  # half of c1/L for each kind of cross term
    t1 = budget * M / (S_infnorm**2 * D * (D - 1))
    t2 = budget * M / (L * (L - 1))
    delta1 = t1**2 / (2 * (2 + t1))
    delta2 = t2**2 / (2 * sigma_w2 * (2 * sigma_w2 + t2))
    gamma = 0.99 * min(beta, math.exp(delta1), math.exp(delta2))
    return delta1, delta2, gamma, 1 - (D + 4 * L**2) * gamma**-M


class TestDeltas:
    """The cross-term exponents that ``evaluate_recovery_bound`` forms when ``D >= 2``."""

    def test_positive(self):
        # delta2 binds at the first point, delta1 at the second
        for overrides in (dict(sigma_w2=0.3, M=512), dict(S_infnorm=2.0, M=320)):
            inputs = make_inputs(**overrides)
            delta1, delta2, gamma, floor = worked_floor(**inputs)
            assert delta1 > 0 and delta2 > 0 and gamma > 1
            assert evaluate_recovery_bound(**inputs) == pytest.approx(floor, rel=1e-12)

    def test_requires_pairs(self):
        with pytest.raises(ConditionViolatedError):
            evaluate_recovery_bound(**make_inputs(D=2, L=1))
        assert evaluate_recovery_bound(**make_inputs(D=1, L=1)) > 0.0  # no cross terms


class TestRecoveryBound:
    """The floor ``max(0, 1 - (D + 4 L^2) gamma^(-M))`` as ``evaluate_recovery_bound`` returns it."""

    def test_reference_value(self):
        inputs = make_inputs(sigma_w2=0.3, M=512)
        delta1, delta2, gamma, floor = worked_floor(**inputs)
        # c1 = 0.3 * 0.52 / 0.84, c2 = 0.3 * 1.36 / 0.84^2, beta = sqrt(exp(c2 - 1) / c2)
        assert (delta1, delta2) == pytest.approx((5.08689, 0.0265817), rel=1e-5)
        assert gamma == pytest.approx(0.99 * math.exp(delta2), rel=1e-15)
        assert floor == pytest.approx(0.945585, abs=1e-6)
        assert evaluate_recovery_bound(**inputs) == pytest.approx(floor, rel=1e-12)

    def test_large_antenna_limit(self):
        assert evaluate_recovery_bound(**make_inputs(M=100_000)) == pytest.approx(1.0, abs=1e-9)

    def test_vacuous_clamped_to_zero(self):
        inputs = make_inputs(M=16)
        _, _, gamma, floor = worked_floor(**inputs)
        assert gamma > 1.0 and floor < 0.0
        assert evaluate_recovery_bound(**inputs) == 0.0

    def test_monotone_in_antennas_and_gamma(self):
        bounds_m = [evaluate_recovery_bound(**make_inputs(sigma_w2=0.3, M=M))
                    for M in (256, 512, 1024, 2048)]
        assert all(a <= b for a, b in zip(bounds_m, bounds_m[1:]))
        # less noise raises gamma through delta2
        noises = (0.5, 0.4, 0.3, 0.2)
        gammas = [worked_floor(**make_inputs(sigma_w2=s, M=512))[2] for s in noises]
        assert all(a < b for a, b in zip(gammas, gammas[1:]))
        bounds_g = [evaluate_recovery_bound(**make_inputs(sigma_w2=s, M=512)) for s in noises]
        assert all(a <= b for a, b in zip(bounds_g, bounds_g[1:]))
        assert bounds_g[0] == 0.0 < bounds_g[-1]

    def test_gamma_guard(self):
        inputs = make_inputs(sigma_w2=100.0)
        assert worked_floor(**inputs)[2] <= 1.0
        assert evaluate_recovery_bound(**inputs) == 0.0


class TestEvaluateRecoveryBound:
    def test_usable_configuration(self):
        assert 0.5 < evaluate_recovery_bound(**make_inputs()) <= 1.0

    def test_vacuous_when_power_floor_unreachable(self):
        assert evaluate_recovery_bound(**make_inputs(lam=2.0)) == 0.0  # c2 > sigma_min2

    def test_single_active_node_skips_cross_terms(self):
        inputs = make_inputs(D=1, mu=0.4)
        _, c2 = lasso_constants(inputs["lam"], inputs["mu"], 1)
        gamma = 0.99 * chernoff_power_rate(c2, inputs["sigma_min2"])
        floor = max(0.0, 1.0 - (1 + 4.0 * inputs["L"] ** 2) * gamma ** (-inputs["M"]))
        assert evaluate_recovery_bound(**inputs) == floor

    def test_arguments_are_keyword_only(self):
        with pytest.raises(TypeError):
            evaluate_recovery_bound(*make_inputs().values())

    def test_rejects_oversparse(self):
        with pytest.raises(ConditionViolatedError):
            evaluate_recovery_bound(**make_inputs(D=10, mu=0.9))

    def test_rejects_nonpositive(self):
        for name in ("lam", "mu", "sigma_w2", "S_infnorm", "sigma_min2"):
            for value in (-1.0, 0.0, math.inf, math.nan):
                with pytest.raises(InvalidParameterError, match=name):
                    evaluate_recovery_bound(**make_inputs(**{name: value}))
        for name in ("D", "L", "M"):
            with pytest.raises(InvalidParameterError, match=name):
                evaluate_recovery_bound(**make_inputs(**{name: 0}))

    def test_tiny_coherence_admits_any_sparsity(self):
        # (1 + 1/mu^2) / 2 overflows a float here; the floor is still defined
        for mu in (1e-160, 1e-170, 5e-324):
            assert 0.0 <= evaluate_recovery_bound(**make_inputs(mu=mu, D=12)) <= 1.0

    @given(lam=st.floats(0.01, 2.0), mu=st.floats(0.05, 0.7), D=st.integers(1, 12),
           L=st.integers(2, 24), M=st.integers(1, 4096), extra=st.integers(1, 4096),
           sigma_w2=st.floats(1e-4, 4.0), S_infnorm=st.floats(0.1, 2.0),
           sigma_min2=st.floats(0.1, 3.0))
    def test_bound_is_a_probability_nondecreasing_in_antennas(
        self, lam, mu, D, L, M, extra, sigma_w2, S_infnorm, sigma_min2
    ):
        D = min(D, math.ceil(0.5 * (1.0 + 1.0 / mu**2)) - 1)  # coherence hypothesis
        common = dict(lam=lam, mu=mu, D=D, L=L, sigma_w2=sigma_w2, S_infnorm=S_infnorm,
                      sigma_min2=sigma_min2)
        fewer = evaluate_recovery_bound(**make_inputs(M=M, **common))
        more = evaluate_recovery_bound(**make_inputs(M=M + extra, **common))
        assert 0.0 <= fewer <= more <= 1.0


class TestEmpiricalPowerFloor:
    def test_reference_case(self):
        empirical, bound = empirical_power_floor_check(0.5, 1.0, 64, 10_000, derive_rng(2, 41))
        assert bound == pytest.approx(0.99793, abs=2e-5)
        assert empirical >= bound - 3 * math.sqrt(bound * (1 - bound) / 10_000)

    def test_tiny_threshold_always_exceeded(self):
        empirical, _ = empirical_power_floor_check(1e-6, 1.0, 32, 2000, derive_rng(3, 41))
        assert empirical == 1.0

    def test_bound_monotone_in_antennas(self):
        rng = derive_rng(4, 41)
        bounds = [empirical_power_floor_check(0.5, 1.0, M, 100, rng)[1] for M in (16, 32, 64, 128)]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
