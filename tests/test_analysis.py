"""Binning, the two-parameter fit, and model ranking.

Fit tests run on cheap analytic stand-in curves so the statistics are exact
and fast; the expensive end-to-end run against the real force engine lives
in the acceptance suite.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casimir_lab import analysis, lifshitz
from casimir_lab.analysis import (
    MODEL_IDS,
    FitResult,
    Measurements,
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
from casimir_lab.campaign import CampaignResult
from casimir_lab.dielectric import OpticalTable, TabulatedModel, gold_drude, gold_plasma
from casimir_lab.electrostatics import patch_force
from casimir_lab.errors import DegenerateFitError, ValidationError
from casimir_lab.lifshitz import BandResult, force_sphere_plane

R = 0.156
DELTA = 40e-9
D_GRID = np.geomspace(0.7e-6, 7e-6, 30)


def cube_curve(K=3e-28):
    return ModelCurve("synthetic", lambda d: K / d**3)


def series(d, f, sigma):
    """A Measurements from columns, scalars broadcast to the common length."""
    return Measurements(*np.broadcast_arrays(d, f, sigma))


def take(points, index):
    """The rows ``index`` of ``points``, in that order."""
    return Measurements(points.d[index], points.f[index], points.sigma[index])


def synth_points(curve, v_rms, a, sigma=1e-12, rng=None, d_grid=D_GRID, delta=DELTA):
    f = []
    for d in d_grid:
        fd = curve.evaluator(float(d)) + patch_force(float(d), R, v_rms, delta) + a
        if rng is not None:
            fd += rng.normal(0.0, sigma)
        f.append(fd)
    return series(d_grid, f, sigma)


class TestBinning:
    def test_one_point_per_bin_is_identity(self):
        d = np.array([1e-6, 2e-6, 4e-6])
        pts = series(d, d * 1e-6, 1e-12)
        edges = [0.5e-6, 1.5e-6, 3e-6, 5e-6]
        out = bin_points(pts, edges)
        assert isinstance(out, Measurements)
        assert out.d.tolist() == pts.d.tolist()
        assert out.f.tolist() == pts.f.tolist()

    def test_equal_sigma_pair_averages(self):
        pts = series([1.0e-6, 1.2e-6], [10e-12, 14e-12], 2e-12)
        out = bin_points(pts, [0.5e-6, 2e-6])
        assert len(out) == 1
        assert out.f[0] == pytest.approx(12e-12, rel=1e-12, abs=0.0)
        assert out.d[0] == pytest.approx(1.1e-6, rel=1e-12, abs=0.0)
        assert out.sigma[0] == pytest.approx(2e-12 / math.sqrt(2.0), rel=1e-12, abs=0.0)

    def test_sigma_shrinks_as_root_count(self):
        n = 50
        pts = series(np.full(n, 1e-6), 1e-12, 1e-12)
        out = bin_points(pts, [0.9e-6, 1.1e-6])
        assert out.sigma[0] == pytest.approx(1e-12 / math.sqrt(n), rel=1e-12, abs=0.0)

    def test_inverse_variance_weighting(self):
        pts = series(1e-6, [0.0, 10e-12], [1e-12, 3e-12])
        out = bin_points(pts, [0.5e-6, 2e-6])
        w1, w2 = 1.0, 1.0 / 9.0
        assert out.f[0] == pytest.approx(10e-12 * w2 / (w1 + w2), rel=1e-12, abs=0.0)

    def test_point_outside_edges_is_an_error(self):
        pts = series([5e-6], 1e-12, 1e-12)
        with pytest.raises(ValidationError):
            bin_points(pts, [0.5e-6, 2e-6])

    def test_empty_bins_dropped(self):
        pts = series([0.6e-6], 1e-12, 1e-12)
        out = bin_points(pts, [0.5e-6, 1e-6, 2e-6, 4e-6])
        assert len(out) == 1

    def test_no_points_give_no_bins(self):
        out = bin_points(series([], [], []), [0.5e-6, 1e-6])
        assert isinstance(out, Measurements)
        assert len(out) == 0

    def test_matches_a_per_bin_loop(self):
        # reference: each bin summed on its own with math.fsum
        rng = np.random.default_rng(3)
        d = rng.uniform(1e-6, 5e-6, 400)
        f = rng.normal(1e-10, 1e-11, 400)
        sigma = rng.uniform(0.5e-12, 3e-12, 400)
        edges = [1e-6, 1.3e-6, 2e-6, 2.1e-6, 4e-6, 5e-6]
        out = bin_points(Measurements(d, f, sigma), edges)
        assert len(out) == len(edges) - 1
        for b, (lo, hi) in enumerate(zip(edges, edges[1:])):
            members = [i for i in range(d.size) if lo <= d[i] < hi]
            w = [1.0 / sigma[i] ** 2 for i in members]
            wsum = math.fsum(w)
            assert out.d[b] == pytest.approx(
                math.fsum(wi * d[i] for wi, i in zip(w, members)) / wsum, rel=1e-13, abs=0.0
            )
            assert out.f[b] == pytest.approx(
                math.fsum(wi * f[i] for wi, i in zip(w, members)) / wsum, rel=1e-13, abs=0.0
            )
            assert out.sigma[b] == pytest.approx(1.0 / math.sqrt(wsum), rel=1e-13, abs=0.0)

    def test_log_edges_capture_the_default_grid(self):
        edges = log_bin_edges(0.7e-6, 7e-6, 30)
        out = bin_points(series(D_GRID, 1e-12, 1e-12), edges)
        assert len(out) == 30

    def test_bad_edges(self):
        pts = series([1e-6], 1e-12, 1e-12)
        with pytest.raises(ValidationError):
            bin_points(pts, [1e-6])
        with pytest.raises(ValidationError):
            bin_points(pts, [2e-6, 1e-6])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_edges_rejected(self, bad):
        # a NaN first edge used to merge every point into one bin
        pts = series([1.5e-6, 2.5e-6], 1e-12, 1e-12)
        for edges in ([bad, 1e-6, 2e-6, 3e-6], [1e-6, 2e-6, 3e-6, bad]):
            with pytest.raises(ValidationError, match=f"finite, got {bad}"):
                bin_points(pts, edges)

    @pytest.mark.parametrize("bad", [2.5, 30.0, True, "30"])
    def test_log_edges_need_an_integer_bin_count(self, bad):
        with pytest.raises(ValueError, match="n_bins must be an integer"):
            log_bin_edges(0.7e-6, 7e-6, bad)
        assert log_bin_edges(0.7e-6, 7e-6, np.int64(3)).size == 4

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_log_edges_reject_non_finite_limits(self, bad):
        with pytest.raises(ValueError, match="finite"):
            log_bin_edges(bad, 7e-6, 30)
        with pytest.raises(ValueError, match="finite"):
            log_bin_edges(0.7e-6, bad, 30)

    def test_point_validation(self):
        for bad in (0.0, -1e-6):
            named = rf"^separation must be positive, got {bad} \(row 1\)$"
            with pytest.raises(ValidationError, match=named):
                series([1e-6, bad], 1e-12, 1e-12)
        for bad in (0.0, -1e-12):
            named = rf"^sigma must be positive, got {bad} \(row 1\)$"
            with pytest.raises(ValidationError, match=named):
                series([1e-6, 2e-6], 1e-12, [1e-12, bad])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1e-6", None, True])
    @pytest.mark.parametrize("field", ["d", "f", "sigma"])
    def test_non_finite_point_rejected(self, field, bad):
        # the bad value sits in row 1 of a list, next to a good one
        good = {"d": 1e-6, "f": 1e-12, "sigma": 1e-12}
        values = {k: [v, v] for k, v in good.items()}
        values[field] = [good[field], bad]
        name = {"d": "separation", "f": "force", "sigma": "sigma"}[field]
        named = rf"^{name} must be finite, got {re.escape(repr(bad))} \(row 1\)$"
        with pytest.raises(ValidationError, match=named):
            Measurements(**values)

    @pytest.mark.parametrize(
        "column",
        [
            np.array([True, False]),
            np.array(["1e-6", "2e-6"]),
            np.array([1e-6, 2e-6], dtype=object),
        ],
        ids=["bool", "str", "object"],
    )
    def test_non_numeric_array_rejected(self, column):
        with pytest.raises(ValidationError, match="^separation must be"):
            Measurements(column, [1e-12, 1e-12], [1e-12, 1e-12])

    def test_first_bad_row_is_named_across_fields(self):
        # row 1 holds a bad sigma, row 2 a bad separation: row 1 is named
        with pytest.raises(ValidationError, match=r"^sigma must be finite, got nan \(row 1\)$"):
            series([1e-6, 2e-6, math.nan], 1e-12, [1e-12, math.nan, 1e-12])
        # within a row, finiteness comes before sign, and d before f
        with pytest.raises(ValidationError, match=r"^force must be finite, got inf \(row 0\)$"):
            series([-1e-6], [math.inf], [1e-12])

    @pytest.mark.parametrize(
        "columns, message",
        [
            (([1e-6, 2e-6], [1e-12], [1e-12, 1e-12]), "one length, got 2, 1 and 2"),
            (([[1e-6, 2e-6]], [[1e-12]], [[1e-12]]), r"separation must be 1-D, .*\(1, 2\)"),
            ((1e-6, 1e-12, 1e-12), r"separation must be 1-D, .*\(\)"),
        ],
        ids=["unequal", "2-D", "scalar"],
    )
    def test_shape_rejected(self, columns, message):
        with pytest.raises(ValidationError, match=message):
            Measurements(*columns)

    def test_columns_are_read_only_copies(self):
        d = np.array([1e-6, 2e-6])
        pts = series(d, 1e-12, 1e-12)
        d[0] = 5e-6
        assert pts.d[0] == 1e-6
        for column in (pts.d, pts.f, pts.sigma):
            assert column.dtype == float
            with pytest.raises(ValueError):
                column[0] = 1.0
        # identity, not a field-wise array comparison that cannot be truthy
        assert pts == pts
        assert pts != series(pts.d, pts.f, pts.sigma)


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
        scaled = replace(pts, f=c * pts.f)
        base = fit_patch_and_offset(pts, zero, R, DELTA)
        out = fit_patch_and_offset(scaled, zero, R, DELTA)
        assert out.v_rms_sq == pytest.approx(c * base.v_rms_sq, rel=1e-9, abs=0.0)
        assert out.a == pytest.approx(c * base.a, rel=1e-9, abs=0.0)

    def test_chi2_invariant_under_reordering(self):
        curve = cube_curve()
        rng = np.random.default_rng(3)
        pts = synth_points(curve, v_rms=5e-3, a=-2e-12, rng=rng)
        fit = fit_patch_and_offset(pts, curve, R, DELTA)
        refit = fit_patch_and_offset(take(pts, rng.permutation(len(pts))), curve, R, DELTA)
        assert refit.chi2_reduced == pytest.approx(fit.chi2_reduced, rel=1e-12)

    def test_constant_shift_lands_in_offset_only(self):
        curve = cube_curve()
        rng = np.random.default_rng(5)
        pts = synth_points(curve, v_rms=5e-3, a=-2e-12, rng=rng)
        shift = 7.5e-12
        moved = replace(pts, f=pts.f + shift)
        fit = fit_patch_and_offset(pts, curve, R, DELTA)
        refit = fit_patch_and_offset(moved, curve, R, DELTA)
        assert refit.a - fit.a == pytest.approx(shift, rel=1e-9, abs=0.0)
        assert refit.v_rms_sq == pytest.approx(fit.v_rms_sq, rel=1e-9, abs=0.0)
        assert refit.chi2_reduced == pytest.approx(fit.chi2_reduced, rel=1e-9)

    def test_negative_patch_power_reports_undefined_v_rms(self):
        # data sit below the theory curve: the fit wants negative V_rms^2
        curve = cube_curve()
        pts = series(D_GRID, curve.evaluator(D_GRID) - 50e-12 * (1e-6 / D_GRID), 1e-12)
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
        pts = take(synth_points(curve, 0.0, 0.0), slice(2))
        with pytest.raises(ValidationError):
            fit_patch_and_offset(pts, curve, R, DELTA)

    def test_single_separation_is_degenerate(self):
        curve = cube_curve()
        pts = series(1e-6, (1.0 + np.arange(5)) * 1e-12, 1e-12)
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


    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_theory_names_model_and_gap(self, bad):
        # a NaN curve used to give chi2_reduced = nan, which ranks anywhere
        pts = synth_points(cube_curve(), 0.0, 0.0)
        curve = ModelCurve("broken", lambda d: np.where(d > 2e-6, bad, 3e-28 / d**3))
        first = D_GRID[D_GRID > 2e-6][0]
        message = f"broken gives a non-finite force at d = {first:.6e} m"
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_patch_and_offset(pts, curve, R, DELTA)


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

    def test_a_corrected_curve_is_one_engine_pass(self, monkeypatch):
        # F and F'' of every gap come from one pass, not a force pass and a
        # curvature pass
        passes = []
        engine = lifshitz._lifshitz

        def counting(d, T, model, rel_tol, kinds):
            passes.append(kinds)
            return engine(d, T, model, rel_tol, kinds)

        monkeypatch.setattr(lifshitz, "_lifshitz", counting)
        for c in standard_model_curves(R=R, delta=DELTA):
            passes.clear()
            c.evaluator(np.array([1e-6, 3e-6]))
            assert passes == [("energy", "curvature")], c.model_id

    def test_zero_delta_computes_the_force_alone(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("curvature evaluated at delta = 0")

        monkeypatch.setattr(analysis, "force_and_curvature_sphere_plane", forbidden)
        candidates = [(gold_drude(), 300.0), (gold_plasma(), 300.0), (gold_drude(), 0.0),
                      (gold_plasma(), 0.0)]
        for c, (model, T) in zip(standard_model_curves(R=R, delta=0.0), candidates):
            assert c.evaluator(2e-6) == force_sphere_plane(2e-6, T, R, model)

    def test_fit_evaluates_the_curve_once_on_the_distinct_gaps(self):
        calls = []

        def evaluator(d):
            calls.append(np.array(d))
            return 3e-28 / d**3

        pts = synth_points(cube_curve(), v_rms=5e-3, a=0.0)
        both_ways = take(pts, np.r_[0 : len(pts), len(pts) - 1 : -1 : -1])
        fit_patch_and_offset(both_ways, ModelCurve("counted", evaluator), R, DELTA)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.unique(pts.d))


class TestMeasurementCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "points.csv"
        pts = synth_points(cube_curve(), v_rms=5e-3, a=-2e-12)
        save_measurements(path, pts)
        back = load_measurements(path)
        assert len(back) == len(pts)
        for column in ("d", "f", "sigma"):
            np.testing.assert_allclose(
                getattr(back, column), getattr(pts, column), rtol=1e-11, atol=0.0
            )
        save_measurements(tmp_path / "again.csv", back)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_units_are_micron_piconewton(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text(
            "separation_um,force_pn,sigma_pn\n1,500,2\n", encoding="utf-8"
        )
        p = load_measurements(path)
        assert len(p) == 1
        assert p.d[0] == pytest.approx(1e-6, rel=1e-15, abs=0.0)
        assert p.f[0] == pytest.approx(500e-12, rel=1e-15, abs=0.0)
        assert p.sigma[0] == pytest.approx(2e-12, rel=1e-15, abs=0.0)

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

    def test_bad_row_after_blank_lines_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "separation_um,force_pn,sigma_pn\n1,500,2\n\n\n2,nan,2\n3,500,2\n",
            encoding="utf-8",
        )
        named = rf"^{re.escape(str(path))}: line 5: force must be finite"
        with pytest.raises(ValidationError, match=named):
            load_measurements(path)

    def test_header_only_file_gives_no_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("separation_um,force_pn,sigma_pn\n", encoding="utf-8")
        assert len(load_measurements(path)) == 0


def _columns(count):
    return [np.array([1.0, 2.0]) for _ in range(count)]


@pytest.mark.parametrize(
    "make",
    [
        lambda: CampaignResult(*_columns(2), np.ones((3, 2)), np.ones((3, 2, 2)), 1e-12),
        lambda: FitResult("drude_300k", 1e-5, 0.0, np.eye(2), 1.0, 30),
        lambda: BandResult(*_columns(4)),
        lambda: OpticalTable(*_columns(2)),
        lambda: TabulatedModel(OpticalTable(*_columns(2)), None),
    ],
    ids=["CampaignResult", "FitResult", "BandResult", "OpticalTable", "TabulatedModel"],
)
def test_results_holding_arrays_compare_by_identity(make):
    # a field-wise comparison of arrays raised ValueError, and a
    # TabulatedModel could not be hashed through its table
    a, b = make(), make()
    assert a == a
    assert a != b
    assert len({a, b}) == 2
