"""Virtual measurement campaign: schedule, noise stream, drift removal.

Small configs (few sweeps, few separations) keep the truth forces cheap
and the statistical loops fast. The full-size campaign runs once in the
acceptance suite.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from casimir_lab import campaign
from casimir_lab.campaign import (
    SIGMA_FLOOR,
    SWEEPS_CSV_HEADER,
    CampaignConfig,
    config_from_dict,
    config_to_dict,
    generate_campaign,
    load_config,
    load_sweeps_csv,
    save_config,
    save_sweeps_csv,
    subtract_drift,
)
from casimir_lab.analysis import (
    ModelCurve,
    bin_points,
    discriminate_models,
    fit_patch_and_offset,
    log_bin_edges,
    standard_model_curves,
)
from casimir_lab.corrections import corrected_separation
from casimir_lab.electrostatics import (
    SweepSample,
    bias_force,
    calibrate_from_sweep,
    patch_force,
)
from casimir_lab.errors import ValidationError


def small_config(**overrides):
    base = dict(
        d_min=1.0e-6,
        d_max=4.0e-6,
        n_separations=6,
        n_sweeps=5,
        noise_sigma=1e-12,
        seed=42,
    )
    base.update(overrides)
    return CampaignConfig(**base)


class TestConfig:
    def test_defaults_match_campaign_design(self):
        cfg = CampaignConfig(seed=1)
        assert cfg.d_min == pytest.approx(0.7e-6)
        assert cfg.d_max == pytest.approx(7.0e-6)
        assert cfg.n_separations == 30
        assert cfg.n_sweeps == 383
        assert cfg.v_rms_true == pytest.approx(5.4e-3)
        assert cfg.v_m_true == pytest.approx(20e-3)
        assert cfg.offset_a_true == pytest.approx(-3.0e-12)
        assert cfg.delta_true == pytest.approx(40e-9)
        assert cfg.radius == pytest.approx(0.156)
        assert len(cfg.sweep_voltages) == 11
        assert min(cfg.sweep_voltages) == pytest.approx(-50e-3)
        assert max(cfg.sweep_voltages) == pytest.approx(50e-3)

    def test_validation(self):
        with pytest.raises(ValidationError):
            small_config(d_min=-1e-6)
        with pytest.raises(ValidationError):
            small_config(d_max=0.5e-6)  # below d_min
        with pytest.raises(ValidationError):
            small_config(n_separations=1)
        with pytest.raises(ValidationError):
            small_config(n_sweeps=0)
        with pytest.raises(ValidationError):
            small_config(noise_sigma=-1.0)
        with pytest.raises(ValidationError):
            small_config(truth_model_id="bogus")
        with pytest.raises(ValidationError):
            small_config(sweep_voltages=())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name",
        [
            "d_min",
            "d_max",
            "v_rms_true",
            "v_m_true",
            "offset_a_true",
            "noise_sigma",
            "drift_rate",
            "delta_true",
            "radius",
        ],
    )
    def test_non_finite_field_is_named(self, name, bad):
        with pytest.raises(ValidationError, match=f"^{name} must be a finite number"):
            config_from_dict({name: bad, "seed": 1})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_sweeps", 2.5),
            ("n_separations", "30"),
            ("seed", "abc"),
            ("seed", 1.5),
            ("seed", -1),
            ("sweep_voltages", 3),
            ("sweep_voltages", [0.0, math.nan]),
            ("radius", "0.156"),
        ],
    )
    def test_wrong_type_is_named(self, name, value):
        with pytest.raises(ValidationError, match=f"^{name} must"):
            config_from_dict({name: value})

    def test_separations_are_log_spaced_with_exact_endpoints(self):
        cfg = small_config()
        d = cfg.separations()
        assert d[0] == pytest.approx(cfg.d_min, rel=1e-15, abs=0.0)
        assert d[-1] == pytest.approx(cfg.d_max, rel=1e-15, abs=0.0)
        ratios = d[1:] / d[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-12)

    def test_round_trip_through_dict_and_file(self, tmp_path):
        cfg = small_config(drift_rate=2e-15, seed=7)
        assert config_from_dict(config_to_dict(cfg)) == cfg
        path = tmp_path / "cfg.json"
        save_config(path, cfg)
        assert load_config(path) == cfg

    def test_unknown_field_rejected(self):
        d = config_to_dict(small_config())
        d["mystery"] = 1
        with pytest.raises(ValidationError):
            config_from_dict(d)


class TestSchedule:
    def test_requires_seed(self):
        with pytest.raises(ValidationError):
            generate_campaign(small_config(seed=None))

    def test_counts_and_endpoint_sweeps(self):
        cfg = small_config()
        out = generate_campaign(cfg)
        # full voltage sweeps only at the closest and farthest separations
        n_v = len(cfg.sweep_voltages)
        assert out.sweep_forces.shape == (cfg.n_sweeps, 2, n_v)
        np.testing.assert_array_equal(out.separations, cfg.separations())
        np.testing.assert_array_equal(out.voltages, cfg.sweep_voltages)
        # one minimized-bias point per separation per sweep, passes outermost:
        # row k * n_sep + i of points is forces[k, i] at separations[i]
        assert out.forces.shape == (cfg.n_sweeps, cfg.n_separations)
        points = out.points
        assert len(points) == cfg.n_sweeps * cfg.n_separations
        shape = out.forces.shape
        np.testing.assert_array_equal(
            points.d.reshape(shape), np.broadcast_to(out.separations, shape)
        )
        np.testing.assert_array_equal(points.f.reshape(shape), out.forces)

    def test_same_seed_is_bit_identical(self):
        a = generate_campaign(small_config())
        b = generate_campaign(small_config())
        assert a.sweep_forces.tolist() == b.sweep_forces.tolist()
        assert a.points.f.tolist() == b.points.f.tolist()

    def test_different_seeds_differ(self):
        a = generate_campaign(small_config(seed=1))
        b = generate_campaign(small_config(seed=2))
        assert np.any(a.points.f != b.points.f)

    def test_sigma_floor_applies(self):
        out = generate_campaign(small_config(noise_sigma=0.0))
        assert out.sigma == SIGMA_FLOOR
        assert np.all(out.points.sigma == SIGMA_FLOOR)

    def test_noiseless_samples_match_constructed_truth(self):
        cfg = small_config(noise_sigma=0.0, drift_rate=0.0)
        out = generate_campaign(cfg)
        curve = next(
            c
            for c in standard_model_curves(cfg.radius, cfg.delta_true)
            if c.model_id == cfg.truth_model_id
        )
        fluct = lambda d: 1.0 + (cfg.delta_true / d) ** 2
        # the first pass's sweep at the first gap
        d = float(out.separations[0])
        base = (
            curve.evaluator(d)
            + patch_force(d, cfg.radius, cfg.v_rms_true, cfg.delta_true)
            + cfg.offset_a_true
        )
        for j, v in enumerate(cfg.sweep_voltages):
            expect = base + bias_force(d, cfg.radius, v, cfg.v_m_true) * fluct(d)
            assert out.sweep_forces[0, 0, j] == pytest.approx(expect, rel=1e-13, abs=0.0)
            assert out.voltages[j] == v
        # at-minimum points carry no bias term at all
        points = out.points
        d0 = float(points.d[0])
        base0 = (
            curve.evaluator(d0)
            + patch_force(d0, cfg.radius, cfg.v_rms_true, cfg.delta_true)
            + cfg.offset_a_true
        )
        assert points.f[0] == pytest.approx(base0, rel=1e-13, abs=0.0)

    def test_drift_grows_linearly_with_sweep_index(self):
        rate = 5e-14
        quiet = generate_campaign(small_config(noise_sigma=0.0, drift_rate=0.0))
        drifty = generate_campaign(small_config(noise_sigma=0.0, drift_rate=rate))
        n_sep, mean_pass = drifty.separations.size, (drifty.forces.shape[0] - 1) / 2.0
        for row, (fq, fd) in enumerate(zip(quiet.points.f, drifty.points.f)):
            # zero at the mean pass, where offset_a_true is the offset
            assert fd - fq == pytest.approx(rate * (row // n_sep - mean_pass), abs=1e-22)

    @pytest.mark.parametrize("overrides", [{}, {"n_separations": 2}])
    def test_noise_is_one_stream_in_schedule_order(self, overrides):
        # oracle: draw the stream call by call, in schedule order (passes
        # outermost, gaps inner, a gap's sweep before its point)
        cfg = small_config(drift_rate=3e-14, **overrides)
        noisy = generate_campaign(cfg)
        quiet = generate_campaign(replace(cfg, noise_sigma=0.0))
        rng = np.random.default_rng(cfg.seed)
        n_v = len(cfg.sweep_voltages)
        ends = (0, cfg.n_separations - 1)
        for k in range(cfg.n_sweeps):
            for i in range(cfg.n_separations):
                if i in ends:
                    e = ends.index(i)
                    draws = rng.normal(0.0, cfg.noise_sigma, size=n_v)
                    for j in range(n_v):
                        expect = quiet.sweep_forces[k, e, j] + draws[j]
                        assert noisy.sweep_forces[k, e, j] == expect
                draw = rng.normal(0.0, cfg.noise_sigma)
                assert noisy.forces[k, i] == quiet.forces[k, i] + draw


class TestDriftSubtraction:
    def test_slope_matches_least_squares_with_one_intercept_per_condition(self):
        cfg = small_config(drift_rate=4e-14, noise_sigma=2e-12, seed=11)
        out = generate_campaign(cfg)
        # one row per sample, one intercept column per condition, one
        # shared slope column; the conditions are keyed by gap and voltage
        conditions = {}
        rows = []
        ends = out.separations[[0, -1]]
        for k, pair in enumerate(out.sweep_forces):
            for gap, sweep in zip(ends, pair):
                for v, f in zip(out.voltages, sweep):
                    c = conditions.setdefault(("sweep", gap, v), len(conditions))
                    rows.append((c, k, f))
        n_sep = out.separations.size
        for row, (d, f) in enumerate(zip(out.points.d, out.points.f)):
            c = conditions.setdefault(("point", d), len(conditions))
            rows.append((c, row // n_sep, f))
        design = np.zeros((len(rows), len(conditions) + 1))
        for r, (c, k, _) in enumerate(rows):
            design[r, c] = 1.0
            design[r, -1] = k
        y = np.array([row[2] for row in rows])
        sigma = max(cfg.noise_sigma, SIGMA_FLOOR)
        coef = np.linalg.lstsq(design / sigma, y / sigma, rcond=None)[0]
        cov = np.linalg.inv((design / sigma).T @ (design / sigma))
        sub = subtract_drift(out)
        assert sub.slope == pytest.approx(coef[-1], rel=1e-10, abs=0.0)
        assert sub.slope_sigma == pytest.approx(math.sqrt(cov[-1, -1]), rel=1e-10, abs=0.0)

    def test_noiseless_slope_recovery(self):
        rate = 7e-14
        cfg = small_config(noise_sigma=0.0, drift_rate=rate)
        sub = subtract_drift(generate_campaign(cfg))
        assert sub.slope == pytest.approx(rate, rel=1e-10, abs=0.0)
        clean = generate_campaign(small_config(noise_sigma=0.0, drift_rate=0.0))
        np.testing.assert_allclose(sub.campaign.points.f, clean.points.f, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            sub.campaign.sweep_forces, clean.sweep_forces, rtol=1e-12, atol=0.0
        )

    def test_slope_error_bar_covers_zero_drift(self):
        hits = 0
        for seed in range(100):
            cfg = small_config(seed=seed, drift_rate=0.0, n_sweeps=8)
            sub = subtract_drift(generate_campaign(cfg))
            if abs(sub.slope) < 3.0 * sub.slope_sigma:
                hits += 1
        assert hits >= 97

    @pytest.mark.parametrize("truth_id", ["drude_300k", "plasma_300k"])
    def test_truth_fit_is_calibrated_over_seeds(self, monkeypatch, truth_id):
        # campaign -> drift removal -> binning -> four-model fit on the
        # default config with a drift, each theory curve computed once.
        # Anchored at the first pass, the slope's error times the mean sweep
        # index (191) shifts every point by one common offset the fit's
        # covariance leaves out: the offset pull (a - a_true) / sigma_a then
        # has SD ~1.3 on these seeds, and a drift left at any pass but the
        # generator's zero moves its mean
        config = CampaignConfig(seed=0, drift_rate=7e-14, truth_model_id=truth_id)
        seps = config.separations()
        curves = []
        for c in standard_model_curves(config.radius, config.delta_true):
            at_grid = c.evaluator(seps)

            def cached(d, at_grid=at_grid):
                assert np.allclose(d, seps, rtol=1e-12, atol=0.0)
                return at_grid

            curves.append(ModelCurve(c.model_id, cached))
        monkeypatch.setattr(campaign, "standard_model_curves", lambda R, delta: curves)
        edges = log_bin_edges(config.d_min, config.d_max, config.n_separations)
        pulls, chi2, ranked_first = {"a": [], "v_rms_sq": []}, [], []
        for seed in range(100):
            out = subtract_drift(generate_campaign(replace(config, seed=seed))).campaign
            points = bin_points(out.points, edges)
            fits = discriminate_models(points, curves, config.radius, config.delta_true)
            fit = next(fit for fit in fits if fit.model_id == truth_id)
            sigma = np.sqrt(np.diag(fit.covariance))
            pulls["v_rms_sq"].append((fit.v_rms_sq - config.v_rms_true ** 2) / sigma[0])
            pulls["a"].append((fit.a - config.offset_a_true) / sigma[1])
            chi2.append(fit.chi2_reduced)
            ranked_first.append(fits[0].model_id)
        assert ranked_first == [truth_id] * 100
        # 30 points, 2 parameters: chi2_red is chi2_28 / 28, mean 1 and SD
        # sqrt(2/28); the mean of 100 within three standard errors
        assert fit.n_points == 30
        assert abs(np.mean(chi2) - 1.0) <= 3.0 * math.sqrt(2.0 / 28.0) / math.sqrt(100.0)
        # the mean of 100 unit normals is 0 within 1/sqrt(100), their SD 1
        # within 1/sqrt(200); three of those each
        for name, pull in pulls.items():
            assert abs(np.mean(pull)) <= 3.0 / math.sqrt(100.0), name
            assert abs(np.std(pull, ddof=1) - 1.0) <= 3.0 / math.sqrt(200.0), name

    def test_rejects_single_sweep(self):
        with pytest.raises(ValidationError):
            subtract_drift(generate_campaign(small_config(n_sweeps=1)))


class TestPipelineClosure:
    def test_calibration_recovers_minimizing_voltage_and_separation(self):
        # noiseless endpoint sweep -> parabola fit -> distance closure
        cfg = small_config(noise_sigma=0.0)
        out = generate_campaign(cfg)
        d_sched = cfg.separations()
        assert out.separations[0] == d_sched[0]
        near = [
            SweepSample(v=v, f=f, sigma_f=out.sigma)
            for v, f in zip(out.voltages.tolist(), out.sweep_forces[0, 0].tolist())
        ]
        cal = calibrate_from_sweep(near, cfg.radius)
        assert cal.v_m == pytest.approx(cfg.v_m_true, abs=1e-4)
        # generator applies the fluctuation factor to the bias force, so the
        # curvature-inferred distance is d / (1 + (delta/d)^2); undoing it
        # with corrected_separation closes to O((delta/d)^4)
        d_corr = corrected_separation(cal.d, cfg.delta_true)
        assert d_corr == pytest.approx(d_sched[0], rel=2e-5)

    def test_calibration_from_the_sweeps_csv_is_calibrated_over_seeds(self, tmp_path):
        # campaign -> drift removal -> sweeps CSV -> load -> one parabola fit
        # per sweep, 1,000 sweeps over seeds 0-99.  The generator scales the
        # bias term by 1 + (delta/d)^2, so the curvature measures the gap
        # divided by that factor exactly; corrected_separation undoes it only
        # to O((delta/d)^4), ~0.3 sigma of one sweep at the first gap
        config = CampaignConfig(n_separations=4, n_sweeps=5, drift_rate=2e-14)
        path = tmp_path / "sweeps.csv"
        pulls = {"d": [], "v_m": []}
        for seed in range(100):
            out = subtract_drift(generate_campaign(replace(config, seed=seed))).campaign
            save_sweeps_csv(path, out)
            for (_, gap), samples in load_sweeps_csv(path).items():
                cal = calibrate_from_sweep(samples, config.radius)
                sigma = np.sqrt(np.diag(cal.covariance))
                d_true = gap / (1.0 + (config.delta_true / gap) ** 2)
                pulls["d"].append((cal.d - d_true) / sigma[0])
                pulls["v_m"].append((cal.v_m - config.v_m_true) / sigma[1])
        # the mean of N unit normals is 0 within 1/sqrt(N), their SD 1
        # within 1/sqrt(2N); three of those each
        n = 100 * 5 * 2
        for name, pull in pulls.items():
            assert len(pull) == n
            assert abs(np.mean(pull)) <= 3.0 / math.sqrt(n), name
            assert abs(np.std(pull, ddof=1) - 1.0) <= 3.0 / math.sqrt(2.0 * n), name

    def test_fit_recovers_every_truth_model(self):
        # moderate noise, reduced sweep count; checks parameter pull < 3 sigma
        for model_id in ("drude_300k", "plasma_300k", "drude_t0", "plasma_t0"):
            cfg = CampaignConfig(
                d_min=0.7e-6,
                d_max=7.0e-6,
                n_separations=10,
                n_sweeps=40,
                truth_model_id=model_id,
                noise_sigma=1e-12,
                seed=20260819,
            )
            out = generate_campaign(cfg)
            edges = log_bin_edges(cfg.d_min, cfg.d_max, cfg.n_separations)
            binned = bin_points(out.points, edges)
            curve = next(
                c
                for c in standard_model_curves(cfg.radius, cfg.delta_true)
                if c.model_id == model_id
            )
            fit = fit_patch_and_offset(binned, curve, cfg.radius, cfg.delta_true)
            sv = math.sqrt(fit.covariance[0, 0])
            sa = math.sqrt(fit.covariance[1, 1])
            assert abs(fit.v_rms_sq - cfg.v_rms_true**2) < 3.0 * sv, model_id
            assert abs(fit.a - cfg.offset_a_true) < 3.0 * sa, model_id
            assert fit.chi2_reduced < 2.5, model_id


class TestSweepsCsv:
    def test_header_and_units(self, tmp_path):
        cfg = small_config(n_sweeps=2)
        out = generate_campaign(cfg)
        path = tmp_path / "sweeps.csv"
        save_sweeps_csv(path, out)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == ",".join(SWEEPS_CSV_HEADER)
        n_rows = 2 * cfg.n_sweeps * len(cfg.sweep_voltages)
        assert len(lines) == 1 + n_rows
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == pytest.approx(cfg.d_min * 1e6, rel=1e-9)

    def test_rows_follow_passes_gaps_and_voltages(self, tmp_path):
        # oracle: one row per sample, passes in order, in each the first
        # gap's sweep before the last gap's, voltages in schedule order, and
        # every number the .12g text of the campaign's arrays
        cfg = small_config(n_sweeps=3, drift_rate=2e-14)
        out = generate_campaign(cfg)
        path = tmp_path / "sweeps.csv"
        save_sweeps_csv(path, out)
        lines = path.read_text(encoding="utf-8").splitlines()
        g = lambda x: format(x, ".12g")
        expect = [
            ",".join([str(k), g(gap * 1e6), g(v), g(out.sweep_forces[k, e, j]), g(out.sigma)])
            for k in range(cfg.n_sweeps)
            for e, gap in enumerate((cfg.separations()[0], cfg.separations()[-1]))
            for j, v in enumerate(cfg.sweep_voltages)
        ]
        assert lines[1:] == expect
        n_v = len(cfg.sweep_voltages)
        assert float(lines[1].split(",")[1]) < float(lines[1 + n_v].split(",")[1])

    def test_load_returns_every_sweep_in_file_order(self, tmp_path):
        # oracle: one group per (pass, end gap), passes in order, in each the
        # first gap before the last, samples in schedule order, and every
        # number the .12g text of the campaign's arrays
        cfg = small_config(n_sweeps=3, drift_rate=2e-14)
        out = generate_campaign(cfg)
        path = tmp_path / "sweeps.csv"
        save_sweeps_csv(path, out)
        groups = load_sweeps_csv(path)
        text = lambda x: float(format(x, ".12g"))
        ends = [text(gap * 1e6) * 1e-6 for gap in out.separations[[0, -1]]]
        assert list(groups) == [(k, gap) for k in range(cfg.n_sweeps) for gap in ends]
        for (k, gap), samples in groups.items():
            e = ends.index(gap)
            assert len(samples) == len(cfg.sweep_voltages)
            assert samples == [
                SweepSample(text(v), text(f), text(out.sigma))
                for v, f in zip(out.voltages, out.sweep_forces[k, e])
            ]

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("-1,0.7,0,1e-12,1e-12", "sweep_index must be a non-negative integer, got -1.0"),
            ("1.5,0.7,0,1e-12,1e-12", "sweep_index must be a non-negative integer, got 1.5"),
            ("1,0,0,1e-12,1e-12", "separation_um must be positive, got 0.0"),
            ("1,-0.7,0,1e-12,1e-12", "separation_um must be positive, got -0.7"),
            ("1,0.7,0,1e-12,0", "sigma_n must be positive, got 0.0"),
            ("1,0.7,0,1e-12,-1e-12", "sigma_n must be positive, got -1e-12"),
            ("1,0.7,nan,1e-12,1e-12", "voltage_v must be finite, got nan"),
        ],
    )
    def test_load_names_the_line_and_column_of_a_refused_row(self, tmp_path, row, reason):
        path = tmp_path / "sweeps.csv"
        good = "0,0.7,0,1e-12,1e-12"
        lines = [",".join(SWEEPS_CSV_HEADER), good, good, row, good]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=rf"^{re.escape(f'{path}: line 4: {reason}')}"):
            load_sweeps_csv(path)

    def test_load_refuses_a_single_sweep_file(self, tmp_path):
        # the three-column voltage_v,force_n,sigma_n format is not read
        path = tmp_path / "sweep.csv"
        path.write_text("voltage_v,force_n,sigma_n\n0,1e-12,1e-12\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=r"line 1: expected header sweep_index,"):
            load_sweeps_csv(path)
