"""Electrostatic force terms and the parabolic sweep calibration.

The calibration round trip is the load-bearing check: a sweep synthesized
from known (d, V_m, residual) must invert back to those values exactly in
the noiseless case and within the fit covariance under noise.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casimir_lab.constants import VACUUM_PERMITTIVITY
from casimir_lab.electrostatics import (
    SweepSample,
    bias_force,
    calibrate_from_sweep,
    patch_force,
)
from casimir_lab.errors import CalibrationError, DegenerateFitError, ValidationError

R = 0.156  # m


def synth_sweep(d, v_m, f_res, voltages, sigma=1e-12, rng=None):
    """Exact parabola samples, optionally with Gaussian noise."""
    out = []
    for v in voltages:
        f = bias_force(d, R, v, v_m) + f_res
        if rng is not None:
            f += rng.normal(0.0, sigma)
        out.append(SweepSample(v=float(v), f=float(f), sigma_f=sigma))
    return out


class TestForceTerms:
    def test_bias_oracle_twenty_millivolts(self):
        # pi eps0 R (20 mV)^2 / 1 um, hand evaluation
        got = bias_force(1e-6, R, 20e-3, 0.0)
        assert got == pytest.approx(1.736e-9, rel=1e-3)

    def test_bias_vanishes_at_minimizing_potential(self):
        assert bias_force(1e-6, R, 17e-3, 17e-3) == 0.0

    def test_bias_quadratic_law(self):
        f1 = bias_force(1e-6, R, 10e-3, 0.0)
        f2 = bias_force(1e-6, R, 20e-3, 0.0)
        assert f2 == pytest.approx(4.0 * f1, rel=1e-14, abs=0.0)

    @settings(max_examples=50)
    @given(
        st.floats(min_value=-0.4, max_value=0.4),
        st.floats(min_value=-0.02, max_value=0.02),
        st.floats(min_value=-0.3, max_value=0.3),
    )
    def test_bias_invariant_under_common_shift(self, v, v_m, shift):
        base = bias_force(1e-6, R, v, v_m)
        shifted = bias_force(1e-6, R, v + shift, v_m + shift)
        assert shifted == pytest.approx(base, rel=1e-12, abs=1e-25)

    def test_patch_oracle(self):
        got = patch_force(1e-6, R, 5.4e-3, 0.0)
        assert got == pytest.approx(126.5e-12, rel=1e-3, abs=0.0)

    def test_patch_fluctuation_factor(self):
        bare = patch_force(1e-6, R, 5.4e-3, 0.0)
        wobbly = patch_force(1e-6, R, 5.4e-3, 40e-9)
        assert wobbly / bare == pytest.approx(1.0016, rel=1e-6)

    def test_patch_zero_amplitude(self):
        assert patch_force(1e-6, R, 0.0, 0.0) == 0.0

    @settings(max_examples=30)
    @given(st.floats(min_value=1e-4, max_value=0.05), st.floats(min_value=2.0, max_value=9.0))
    def test_patch_scales_as_vrms_squared_and_inverse_d(self, v_rms, scale):
        f = patch_force(1e-6, R, v_rms)
        assert patch_force(1e-6, R, scale * v_rms) == pytest.approx(
            scale * scale * f, rel=1e-12, abs=0.0
        )
        assert patch_force(scale * 1e-6, R, v_rms) == pytest.approx(f / scale, rel=1e-12, abs=0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bias_force(0.0, R, 0.01, 0.0)
        with pytest.raises(ValueError):
            patch_force(-1e-6, R, 0.01)
        with pytest.raises(ValueError):
            patch_force(1e-6, R, -0.01)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["d", "R", "v", "v_m"])
    def test_bias_force_rejects_non_finite_argument(self, name, bad):
        args = {"d": 1e-6, "R": R, "v": 0.02, "v_m": 0.0, name: bad}
        with pytest.raises(ValueError, match=rf"\b{name} must be .*, got {bad}"):
            bias_force(**args)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["d", "R", "v_rms", "delta"])
    def test_patch_force_rejects_non_finite_argument(self, name, bad):
        args = {"d": 1e-6, "R": R, "v_rms": 5.4e-3, "delta": 0.0, name: bad}
        with pytest.raises(ValueError, match=rf"\b{name} must be .*, got {bad}"):
            patch_force(**args)


class TestCalibration:
    VOLTAGES = np.linspace(-50e-3, 50e-3, 11)

    def test_noiseless_round_trip(self):
        d, v_m, f_res = 2e-6, 20e-3, -50e-12
        cal = calibrate_from_sweep(synth_sweep(d, v_m, f_res, self.VOLTAGES), R)
        assert cal.d == pytest.approx(d, rel=1e-10, abs=0.0)
        assert cal.v_m == pytest.approx(v_m, abs=1e-10)
        assert cal.f_residual == pytest.approx(f_res, rel=1e-9, abs=0.0)

    def test_curvature_to_separation_hand_value(self):
        # c2 = 2.1697e-6 N/V^2 with R = 15.6 cm corresponds to d = 2.000 um
        c2 = 2.1697e-6
        samples = [
            SweepSample(v=float(v), f=c2 * v * v, sigma_f=1e-12) for v in self.VOLTAGES
        ]
        cal = calibrate_from_sweep(samples, R)
        assert cal.d == pytest.approx(2.000e-6, rel=2e-4)
        assert cal.d == pytest.approx(math.pi * VACUUM_PERMITTIVITY * R / c2, rel=1e-12, abs=0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=-0.03, max_value=0.03))
    def test_voltage_shift_invariance(self, shift):
        d, v_m, f_res = 1.5e-6, 12e-3, -20e-12
        base = calibrate_from_sweep(synth_sweep(d, v_m, f_res, self.VOLTAGES), R)
        moved = calibrate_from_sweep(
            synth_sweep(d, v_m + shift, f_res, self.VOLTAGES + shift), R
        )
        assert moved.d == pytest.approx(base.d, rel=1e-12, abs=0.0)
        assert moved.v_m - base.v_m == pytest.approx(shift, abs=1e-12)

    def test_noisy_recovery_within_three_sigma_over_seeds(self):
        d, v_m, f_res = 2e-6, 20e-3, -50e-12
        hits = 0
        n_seeds = 100
        for seed in range(n_seeds):
            rng = np.random.default_rng(seed)
            cal = calibrate_from_sweep(
                synth_sweep(d, v_m, f_res, self.VOLTAGES, sigma=1e-12, rng=rng), R
            )
            sd = math.sqrt(cal.covariance[0, 0])
            sv = math.sqrt(cal.covariance[1, 1])
            if abs(cal.d - d) < 3.0 * sd and abs(cal.v_m - v_m) < 3.0 * sv:
                hits += 1
        # 3 sigma, two quantities: a couple of misses in 100 is expected
        assert hits >= 97

    def test_covariance_is_symmetric_positive(self):
        rng = np.random.default_rng(7)
        cal = calibrate_from_sweep(
            synth_sweep(2e-6, 20e-3, -50e-12, self.VOLTAGES, rng=rng), R
        )
        cov = cal.covariance
        assert cov.shape == (3, 3)
        np.testing.assert_allclose(cov, cov.T, rtol=1e-12)
        assert np.all(np.linalg.eigvalsh(cov) > 0.0)

    def test_rejects_too_few_samples(self):
        samples = synth_sweep(2e-6, 0.0, 0.0, [-0.02, 0.0, 0.02])
        with pytest.raises(ValidationError):
            calibrate_from_sweep(samples, R)

    def test_rejects_repulsive_curvature(self):
        samples = [
            SweepSample(v=float(v), f=-1e-6 * v * v, sigma_f=1e-12)
            for v in self.VOLTAGES
        ]
        with pytest.raises(CalibrationError):
            calibrate_from_sweep(samples, R)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_bad_radius(self, bad):
        samples = synth_sweep(2e-6, 20e-3, -50e-12, self.VOLTAGES)
        with pytest.raises(ValueError, match=f"radius R must be positive and finite, got {bad}"):
            calibrate_from_sweep(samples, bad)

    def test_rejects_degenerate_voltages(self):
        samples = [SweepSample(v=0.01, f=1e-12, sigma_f=1e-12) for _ in range(6)]
        with pytest.raises(DegenerateFitError):
            calibrate_from_sweep(samples, R)


class TestSweepSample:
    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValidationError, match="sigma_f must be positive"):
            SweepSample(v=0.0, f=0.0, sigma_f=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "0.01", None])
    @pytest.mark.parametrize("field", ["v", "f", "sigma_f"])
    def test_non_finite_sample_rejected(self, field, bad):
        values = {"v": 0.01, "f": 1e-12, "sigma_f": 1e-12, field: bad}
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            SweepSample(**values)
