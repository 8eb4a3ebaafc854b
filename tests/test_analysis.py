"""Binning, the two-parameter fit, and model ranking.

Fit tests run on cheap analytic stand-in curves so the statistics are exact
and fast; the expensive end-to-end run against the real force engine lives
in the acceptance suite.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casimir_lab.analysis import (
    MODEL_IDS,
    MeasurementPoint,
    ModelCurve,
    bin_points,
    discriminate_models,
    fit_patch_and_offset,
    fit_report_dict,
    load_measurements,
    log_bin_edges,
    save_measurements,
    standard_model_curves,
)
from casimir_lab.electrostatics import patch_force
from casimir_lab.errors import DegenerateFitError, ValidationError

R = 0.156
DELTA = 40e-9
D_GRID = np.geomspace(0.7e-6, 7e-6, 30)


def cube_curve(K=3e-28):
    return ModelCurve("synthetic", lambda d: K / d**3)


def synth_points(curve, v_rms, a, sigma=1e-12, rng=None, d_grid=D_GRID, delta=DELTA):
    pts = []
    for d in d_grid:
        f = curve.evaluator(float(d)) + patch_force(float(d), R, v_rms, delta) + a
        if rng is not None:
            f += rng.normal(0.0, sigma)
        pts.append(MeasurementPoint(d=float(d), f=float(f), sigma=sigma))
    return pts


class TestBinning:
    def test_one_point_per_bin_is_identity(self):
        pts = [MeasurementPoint(d=d, f=d * 1e-6, sigma=1e-12) for d in (1e-6, 2e-6, 4e-6)]
        edges = [0.5e-6, 1.5e-6, 3e-6, 5e-6]
        out = bin_points(pts, edges)
        assert [p.d for p in out] == [p.d for p in pts]
        assert [p.f for p in out] == [p.f for p in pts]

    def test_equal_sigma_pair_averages(self):
        pts = [
            MeasurementPoint(d=1.0e-6, f=10e-12, sigma=2e-12),
            MeasurementPoint(d=1.2e-6, f=14e-12, sigma=2e-12),
        ]
        out = bin_points(pts, [0.5e-6, 2e-6])
        assert len(out) == 1
        assert out[0].f == pytest.approx(12e-12, rel=1e-12, abs=0.0)
        assert out[0].d == pytest.approx(1.1e-6, rel=1e-12, abs=0.0)
        assert out[0].sigma == pytest.approx(2e-12 / math.sqrt(2.0), rel=1e-12, abs=0.0)

    def test_sigma_shrinks_as_root_count(self):
        n = 50
        pts = [MeasurementPoint(d=1e-6, f=1e-12, sigma=1e-12) for _ in range(n)]
        out = bin_points(pts, [0.9e-6, 1.1e-6])
        assert out[0].sigma == pytest.approx(1e-12 / math.sqrt(n), rel=1e-12, abs=0.0)

    def test_inverse_variance_weighting(self):
        pts = [
            MeasurementPoint(d=1e-6, f=0.0, sigma=1e-12),
            MeasurementPoint(d=1e-6, f=10e-12, sigma=3e-12),
        ]
        out = bin_points(pts, [0.5e-6, 2e-6])
        w1, w2 = 1.0, 1.0 / 9.0
        assert out[0].f == pytest.approx(10e-12 * w2 / (w1 + w2), rel=1e-12, abs=0.0)

    def test_point_outside_edges_is_an_error(self):
        pts = [MeasurementPoint(d=5e-6, f=1e-12, sigma=1e-12)]
        with pytest.raises(ValidationError):
            bin_points(pts, [0.5e-6, 2e-6])

    def test_empty_bins_dropped(self):
        pts = [MeasurementPoint(d=0.6e-6, f=1e-12, sigma=1e-12)]
        out = bin_points(pts, [0.5e-6, 1e-6, 2e-6, 4e-6])
        assert len(out) == 1

    def test_matches_a_per_bin_loop(self):
        # reference: each bin summed on its own with math.fsum
        rng = np.random.default_rng(3)
        d = rng.uniform(1e-6, 5e-6, 400)
        f = rng.normal(1e-10, 1e-11, 400)
        sigma = rng.uniform(0.5e-12, 3e-12, 400)
        edges = [1e-6, 1.3e-6, 2e-6, 2.1e-6, 4e-6, 5e-6]
        pts = [MeasurementPoint(d=a, f=b, sigma=c) for a, b, c in zip(d, f, sigma)]
        out = bin_points(pts, edges)
        assert len(out) == len(edges) - 1
        for lo, hi, got in zip(edges, edges[1:], out):
            members = [p for p in pts if lo <= p.d < hi]
            w = [1.0 / p.sigma**2 for p in members]
            wsum = math.fsum(w)
            assert got.d == pytest.approx(
                math.fsum(wi * p.d for wi, p in zip(w, members)) / wsum, rel=1e-13, abs=0.0
            )
            assert got.f == pytest.approx(
                math.fsum(wi * p.f for wi, p in zip(w, members)) / wsum, rel=1e-13, abs=0.0
            )
            assert got.sigma == pytest.approx(1.0 / math.sqrt(wsum), rel=1e-13, abs=0.0)

    def test_log_edges_capture_the_default_grid(self):
        edges = log_bin_edges(0.7e-6, 7e-6, 30)
        out = bin_points(
            [MeasurementPoint(d=float(d), f=1e-12, sigma=1e-12) for d in D_GRID], edges
        )
        assert len(out) == 30

    def test_bad_edges(self):
        pts = [MeasurementPoint(d=1e-6, f=1e-12, sigma=1e-12)]
        with pytest.raises(ValidationError):
            bin_points(pts, [1e-6])
        with pytest.raises(ValidationError):
            bin_points(pts, [2e-6, 1e-6])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_log_edges_reject_non_finite_limits(self, bad):
        with pytest.raises(ValueError, match="finite"):
            log_bin_edges(bad, 7e-6, 30)
        with pytest.raises(ValueError, match="finite"):
            log_bin_edges(0.7e-6, bad, 30)

    def test_point_validation(self):
        with pytest.raises(ValidationError):
            MeasurementPoint(d=0.0, f=1e-12, sigma=1e-12)
        with pytest.raises(ValidationError):
            MeasurementPoint(d=1e-6, f=1e-12, sigma=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1e-6", None])
    @pytest.mark.parametrize("field", ["d", "f", "sigma"])
    def test_non_finite_point_rejected(self, field, bad):
        values = {"d": 1e-6, "f": 1e-12, "sigma": 1e-12, field: bad}
        name = {"d": "separation", "f": "force", "sigma": "sigma"}[field]
        with pytest.raises(ValidationError, match=f"^{name} must be finite"):
            MeasurementPoint(**values)


class TestFit:
    def test_exact_recovery_noiseless(self):
        curve = cube_curve()
        pts = synth_points(curve, v_rms=5.4e-3, a=-3.0e-12)
        fit = fit_patch_and_offset(pts, curve, R, DELTA)
        assert fit.v_rms_sq == pytest.approx((5.4e-3) ** 2, rel=1e-9, abs=0.0)
        assert fit.a == pytest.approx(-3.0e-12, rel=1e-9, abs=0.0)
        assert fit.chi2_reduced == pytest.approx(0.0, abs=1e-12)
        assert fit.v_rms == pytest.approx(5.4e-3, rel=1e-9)
        assert fit.n_points == 30

    def test_zero_residuals_give_zero_parameters(self):
        curve = cube_curve()
        pts = synth_points(curve, v_rms=0.0, a=0.0)
        fit = fit_patch_and_offset(pts, curve, R, DELTA)
        assert abs(fit.v_rms_sq) < 1e-18
        assert abs(fit.a) < 1e-22

    @settings(max_examples=25)
    @given(st.floats(min_value=0.1, max_value=8.0))
    def test_linearity_in_residuals(self, c):
        curve = cube_curve()
        zero = ModelCurve("zero", lambda d: 0.0)
        rng = np.random.default_rng(11)
        pts = synth_points(zero, v_rms=4e-3, a=-2e-12, rng=rng)
        scaled = [
            MeasurementPoint(d=p.d, f=c * p.f, sigma=p.sigma) for p in pts
        ]
        base = fit_patch_and_offset(pts, zero, R, DELTA)
        out = fit_patch_and_offset(scaled, zero, R, DELTA)
        assert out.v_rms_sq == pytest.approx(c * base.v_rms_sq, rel=1e-9, abs=0.0)
        assert out.a == pytest.approx(c * base.a, rel=1e-9, abs=0.0)

    def test_chi2_invariant_under_reordering(self):
        curve = cube_curve()
        rng = np.random.default_rng(3)
        pts = synth_points(curve, v_rms=5e-3, a=-2e-12, rng=rng)
        fit = fit_patch_and_offset(pts, curve, R, DELTA)
        rng.shuffle(pts)
        refit = fit_patch_and_offset(pts, curve, R, DELTA)
        assert refit.chi2_reduced == pytest.approx(fit.chi2_reduced, rel=1e-12)

    def test_constant_shift_lands_in_offset_only(self):
        curve = cube_curve()
        rng = np.random.default_rng(5)
        pts = synth_points(curve, v_rms=5e-3, a=-2e-12, rng=rng)
        shift = 7.5e-12
        moved = [MeasurementPoint(d=p.d, f=p.f + shift, sigma=p.sigma) for p in pts]
        fit = fit_patch_and_offset(pts, curve, R, DELTA)
        refit = fit_patch_and_offset(moved, curve, R, DELTA)
        assert refit.a - fit.a == pytest.approx(shift, rel=1e-9, abs=0.0)
        assert refit.v_rms_sq == pytest.approx(fit.v_rms_sq, rel=1e-9, abs=0.0)
        assert refit.chi2_reduced == pytest.approx(fit.chi2_reduced, rel=1e-9)

    def test_negative_patch_power_reports_undefined_v_rms(self):
        # data sit below the theory curve: the fit wants negative V_rms^2
        curve = cube_curve()
        pts = [
            MeasurementPoint(d=float(d), f=curve.evaluator(float(d)) - 50e-12 * (1e-6 / d), sigma=1e-12)
            for d in D_GRID
        ]
        fit = fit_patch_and_offset(pts, curve, R, DELTA)
        assert fit.v_rms_sq < 0.0
        assert fit.v_rms is None
        assert fit_report_dict(fit)["v_rms_mv"] is None

    def test_statistical_coverage_over_fixed_seeds(self):
        curve = cube_curve()
        truth_v, truth_a = 5.4e-3, -3.0e-12
        in_chi = in_3sigma = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            pts = synth_points(curve, v_rms=truth_v, a=truth_a, rng=rng)
            fit = fit_patch_and_offset(pts, curve, R, DELTA)
            if 0.5 <= fit.chi2_reduced <= 1.6:
                in_chi += 1
            sv = math.sqrt(fit.covariance[0, 0])
            sa = math.sqrt(fit.covariance[1, 1])
            if (
                abs(fit.v_rms_sq - truth_v**2) < 3.0 * sv
                and abs(fit.a - truth_a) < 3.0 * sa
            ):
                in_3sigma += 1
        # chi2_red with 28 dof leaves [0.5, 1.6] for ~4% of samples
        assert in_chi >= 95
        assert in_3sigma >= 97

    def test_too_few_points(self):
        curve = cube_curve()
        pts = synth_points(curve, 0.0, 0.0)[:2]
        with pytest.raises(ValidationError):
            fit_patch_and_offset(pts, curve, R, DELTA)

    def test_single_separation_is_degenerate(self):
        curve = cube_curve()
        pts = [MeasurementPoint(d=1e-6, f=(1.0 + i) * 1e-12, sigma=1e-12) for i in range(5)]
        with pytest.raises(DegenerateFitError):
            fit_patch_and_offset(pts, curve, R, DELTA)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_radius_or_delta_is_named(self, bad):
        curve = cube_curve()
        pts = synth_points(curve, 0.0, 0.0)
        with pytest.raises(ValueError, match="radius R"):
            fit_patch_and_offset(pts, curve, bad, DELTA)
        with pytest.raises(ValueError, match="delta"):
            fit_patch_and_offset(pts, curve, R, bad)


class TestDiscrimination:
    def test_truth_curve_ranks_first(self):
        truth = cube_curve()
        rivals = [
            ModelCurve("square", lambda d: 3e-28 / d**3 * (d / 1e-6) ** 0.5),
            ModelCurve("steeper", lambda d: 3e-28 / d**3 * (1e-6 / d) ** 0.5),
        ]
        rng = np.random.default_rng(9)
        pts = synth_points(truth, v_rms=5.4e-3, a=-3e-12, rng=rng)
        ranked = discriminate_models(pts, [rivals[0], truth, rivals[1]], R, DELTA)
        assert ranked[0].model_id == "synthetic"
        assert ranked[0].chi2_reduced < 1.6
        assert all(f.chi2_reduced > ranked[0].chi2_reduced for f in ranked[1:])

    def test_tied_curves_keep_input_order(self):
        curve = cube_curve()
        clones = [
            ModelCurve(f"clone_{i}", curve.evaluator) for i in range(4)
        ]
        rng = np.random.default_rng(2)
        pts = synth_points(curve, v_rms=5e-3, a=0.0, rng=rng)
        ranked = discriminate_models(pts, clones, R, DELTA)
        assert [f.model_id for f in ranked] == ["clone_0", "clone_1", "clone_2", "clone_3"]
        assert len({f.chi2_reduced for f in ranked}) == 1

    def test_standard_curves_canonical_order_and_shape(self):
        curves = standard_model_curves(R=R, delta=DELTA)
        assert tuple(c.model_id for c in curves) == MODEL_IDS
        for c in curves:
            f_near = c.evaluator(0.7e-6)
            f_far = c.evaluator(7e-6)
            assert f_near > f_far > 0.0

    def test_evaluator_takes_a_gap_or_an_array_of_gaps(self):
        gaps = np.array([0.8e-6, 2e-6, 5e-6])
        for c in standard_model_curves(R=R, delta=DELTA):
            assert isinstance(c.evaluator(1e-6), float)
            at_once = c.evaluator(gaps)
            assert at_once.shape == gaps.shape
            one_by_one = [c.evaluator(float(d)) for d in gaps]
            np.testing.assert_allclose(at_once, one_by_one, rtol=1e-13, atol=0.0)

    def test_fit_evaluates_the_curve_once_on_the_distinct_gaps(self):
        calls = []

        def evaluator(d):
            calls.append(np.array(d))
            return 3e-28 / d**3

        pts = synth_points(cube_curve(), v_rms=5e-3, a=0.0)
        fit_patch_and_offset(pts + pts[::-1], ModelCurve("counted", evaluator), R, DELTA)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.unique([p.d for p in pts]))


class TestMeasurementCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "points.csv"
        pts = synth_points(cube_curve(), v_rms=5e-3, a=-2e-12)
        save_measurements(path, pts)
        back = load_measurements(path)
        assert len(back) == len(pts)
        for a, b in zip(pts, back):
            assert b.d == pytest.approx(a.d, rel=1e-11, abs=0.0)
            assert b.f == pytest.approx(a.f, rel=1e-11, abs=0.0)
            assert b.sigma == pytest.approx(a.sigma, rel=1e-11, abs=0.0)

    def test_units_are_micron_piconewton(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text(
            "separation_um,force_pn,sigma_pn\n1,500,2\n", encoding="utf-8"
        )
        (p,) = load_measurements(path)
        assert p.d == pytest.approx(1e-6)
        assert p.f == pytest.approx(500e-12)
        assert p.sigma == pytest.approx(2e-12)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("d,f,s\n1,1,1\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_measurements(path)

    def test_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "separation_um,force_pn,sigma_pn\n1,500,2\n2,x,2\n", encoding="utf-8"
        )
        with pytest.raises(ValidationError) as err:
            load_measurements(path)
        assert "line 3" in str(err.value)

    def test_invalid_sigma_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "separation_um,force_pn,sigma_pn\n1,500,0\n", encoding="utf-8"
        )
        with pytest.raises(ValidationError) as err:
            load_measurements(path)
        assert "line 2" in str(err.value)
