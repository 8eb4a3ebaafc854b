"""Fluctuation corrections against exact power-law differentiation.

For F = K / d^n, with F'' = n(n+1) K / d^(n+2), the corrected force is
F (1 + n(n+1)(delta/d)^2 / 2) exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casimir_lab.corrections import (
    corrected_curve,
    corrected_separation,
    fluctuation_corrected_force,
)
from casimir_lab.errors import RegimeError


def power_law(K, n):
    return lambda d: K / d**n


def power_law_curvature(K, n):
    return lambda d: n * (n + 1) * K / d ** (n + 2)


def power_law_pair(K, n):
    """(F, F'') of F = K / d^n from one call, as the engine's evaluator gives them."""
    return lambda d: (power_law(K, n)(d), power_law_curvature(K, n)(d))


def corrected(K, n, d, delta):
    return fluctuation_corrected_force(
        power_law(K, n)(d), power_law_curvature(K, n)(d), d, delta
    )


class TestCorrectedForce:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("d_um", [0.7, 1.0, 3.0, 7.0])
    def test_power_law_oracle(self, n, d_um):
        d = d_um * 1e-6
        delta = 40e-9
        got = corrected(1e-27, n, d, delta)
        want = power_law(1e-27, n)(d) * (1.0 + n * (n + 1) * (delta / d) ** 2 / 2.0)
        assert got == pytest.approx(want, rel=1e-6, abs=0.0)

    def test_ideal_sphere_plane_magnitude(self):
        # n = 3 at d = 0.7 um, delta = 40 nm: multiplier 1 + 6 (delta/d)^2
        d, delta = 0.7e-6, 40e-9
        force = power_law(1e-27, 3)(d)
        got = corrected(1e-27, 3, d, delta)
        assert got / force == pytest.approx(1.0 + 6.0 * (delta / d) ** 2, rel=1e-6)
        assert got / force == pytest.approx(1.0196, rel=1e-4)

    def test_thermal_asymptote_magnitude(self):
        # n = 2 at delta/d = 0.01: multiplier 1 + 3e-4
        d = 1e-6
        got = corrected(1e-27, 2, d, 0.01 * d)
        assert got / power_law(1e-27, 2)(d) == pytest.approx(1.0 + 3e-4, rel=1e-7)

    def test_zero_delta_is_identity(self):
        force = power_law(2e-27, 3)(1e-6)
        assert fluctuation_corrected_force(force, 1e27, 1e-6, 0.0) == force

    @settings(max_examples=40)
    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_commutes_with_force_scaling(self, c):
        d, delta = 1e-6, 40e-9
        assert corrected(c * 1e-27, 3, d, delta) == pytest.approx(
            c * corrected(1e-27, 3, d, delta), rel=1e-12, abs=0.0
        )

    def test_regime_error_close_to_contact(self):
        with pytest.raises(RegimeError):
            corrected(1e-27, 3, 150e-9, 40e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fluctuation_corrected_force(1e-9, 1e3, -1e-6, 0.0)
        with pytest.raises(ValueError):
            corrected(1e-27, 3, 1e-6, -1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_gap_or_delta_rejected(self, bad):
        with pytest.raises(ValueError, match=str(bad)):
            fluctuation_corrected_force(1e-9, 1e3, bad, 40e-9)
        with pytest.raises(ValueError, match=str(bad)):
            corrected(1e-27, 3, 1e-6, bad)
        with pytest.raises(ValueError, match=str(bad)):
            corrected_separation(1e-6, bad)


class TestCorrectedSeparation:
    def test_forty_nanometres_at_one_micron(self):
        assert corrected_separation(1e-6, 40e-9) == pytest.approx(1.0016e-6, rel=1e-6)

    def test_factor_at_smallest_gap(self):
        got = corrected_separation(0.7e-6, 40e-9)
        assert got / 0.7e-6 == pytest.approx(1.0 + (40e-9 / 0.7e-6) ** 2, rel=1e-12)
        assert got / 0.7e-6 == pytest.approx(1.003265, rel=1e-6)

    def test_zero_delta_identity(self):
        assert corrected_separation(1e-6, 0.0) == 1e-6

    @settings(max_examples=50)
    @given(
        st.floats(min_value=0.5, max_value=10.0),
        # below ~1e-8 d the quadratic factor underflows float resolution,
        # so restrict to amplitudes of at least a nanometre
        st.floats(min_value=1e-3, max_value=0.08),
    )
    def test_monotone_and_exceeds_input(self, d_um, delta_um):
        d = d_um * 1e-6
        delta = delta_um * 1e-6
        if d <= 5.0 * delta:
            return
        out = corrected_separation(d, delta)
        assert out > d
        assert corrected_separation(d * 1.01, delta) > out

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            corrected_separation(100e-9, 40e-9)


class TestCorrectedCurve:
    def test_wrapper_matches_direct_evaluation(self):
        curve, curvature = power_law(1e-27, 3), power_law_curvature(1e-27, 3)
        wrapped = corrected_curve(power_law_pair(1e-27, 3), 40e-9)
        assert wrapped(1e-6) == fluctuation_corrected_force(
            curve(1e-6), curvature(1e-6), 1e-6, 40e-9
        )
        gaps = np.array([0.7e-6, 1e-6, 7e-6])
        np.testing.assert_array_equal(
            wrapped(gaps), fluctuation_corrected_force(curve(gaps), curvature(gaps), gaps, 40e-9)
        )

    def test_zero_delta_gives_the_force_itself(self):
        gaps = np.array([0.1e-6, 1e-6, 7e-6])
        wrapped = corrected_curve(power_law_pair(1e-27, 3), 0.0)
        np.testing.assert_array_equal(wrapped(gaps), power_law(1e-27, 3)(gaps))

    def test_regime_is_checked_before_the_evaluator_runs(self):
        # one gap within 5 delta must cost no force or curvature evaluation
        calls = []

        def counting(d):
            calls.append(d)
            return power_law_pair(1e-27, 3)(d)

        wrapped = corrected_curve(counting, 40e-9)
        with pytest.raises(RegimeError):
            wrapped(np.array([0.15e-6, 1e-6, 2e-6]))
        assert calls == []
