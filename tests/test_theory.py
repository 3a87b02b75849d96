import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gfdetect.errors import ConditionViolatedError, InvalidParameterError
from gfdetect.model import derive_rng
from gfdetect.theory import (
    BoundInputs,
    deltas,
    evaluate_recovery_bound,
    lasso_constants,
    chernoff_power_rate,
    empirical_power_floor_check,
    recovery_bound,
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
    return BoundInputs(**base)


class TestDeltas:
    def test_positive(self):
        delta1, delta2 = deltas(make_inputs())
        assert delta1 > 0 and delta2 > 0

    def test_requires_pairs(self):
        with pytest.raises(ConditionViolatedError):
            deltas(make_inputs(D=1, mu=0.4))


class TestRecoveryBound:
    def test_reference_value(self):
        assert recovery_bound(128, 10, 20, 1.1) == pytest.approx(0.9919, abs=1e-4)

    def test_large_antenna_limit(self):
        assert recovery_bound(100_000, 10, 20, 1.01) == pytest.approx(1.0, abs=1e-9)

    def test_vacuous_clamped_to_zero(self):
        assert recovery_bound(2, 10, 20, 1.05) == 0.0

    def test_monotone_in_antennas_and_gamma(self):
        bounds_m = [recovery_bound(M, 10, 20, 1.05) for M in (64, 128, 256, 512)]
        assert all(a <= b for a, b in zip(bounds_m, bounds_m[1:]))
        bounds_g = [recovery_bound(256, 10, 20, g) for g in (1.02, 1.05, 1.1, 1.3)]
        assert all(a <= b for a, b in zip(bounds_g, bounds_g[1:]))

    def test_gamma_guard(self):
        with pytest.raises(ConditionViolatedError):
            recovery_bound(128, 10, 20, 1.0)


class TestEvaluateRecoveryBound:
    def test_usable_configuration(self):
        assert 0.5 < evaluate_recovery_bound(make_inputs()) <= 1.0

    def test_vacuous_when_power_floor_unreachable(self):
        assert evaluate_recovery_bound(make_inputs(lam=2.0)) == 0.0  # c2 > sigma_min2

    def test_single_active_node_skips_cross_terms(self):
        inputs = make_inputs(D=1, mu=0.4)
        _, c2 = lasso_constants(inputs.lam, inputs.mu, inputs.D)
        gamma = 0.99 * chernoff_power_rate(c2, inputs.sigma_min2)
        assert evaluate_recovery_bound(inputs) == recovery_bound(inputs.M, 1, inputs.L, gamma)

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
        fewer = evaluate_recovery_bound(make_inputs(M=M, **common))
        more = evaluate_recovery_bound(make_inputs(M=M + extra, **common))
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


class TestBoundInputsValidation:
    def test_rejects_oversparse(self):
        with pytest.raises(ConditionViolatedError):
            make_inputs(D=10, mu=0.9)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            make_inputs(lam=-1.0)
