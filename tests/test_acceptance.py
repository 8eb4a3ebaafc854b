"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line
per criterion. Each test pins its tolerance and, where the criterion
includes a runtime budget, measures wall time around the computation
under test. These tests exercise the public API end to end; unit-level
coverage lives in the per-module test files.
"""

import json
import math
import time

import numpy as np
import pytest

from casimir_lab import (
    BOLTZMANN,
    HBAR,
    SPEED_OF_LIGHT,
    ZETA3,
    CampaignConfig,
    ConstantModel,
    OpticalTable,
    TabulatedModel,
    bias_force,
    bin_points,
    calibrate_from_sweep,
    discriminate_models,
    ev_to_angular_frequency,
    fluctuation_corrected_force,
    force_sphere_plane,
    force_sphere_plane_grid,
    eps_imag_axis,
    generate_campaign,
    gold_drude,
    gold_plasma,
    log_bin_edges,
    pressure_parallel,
    sensitivity_band,
    standard_model_curves,
    subtract_drift,
)
from casimir_lab.electrostatics import SweepSample
from casimir_lab.cli import main
from oracles import ideal_metal_crossover

R_SPHERE = 0.156
GRID_30 = np.geomspace(0.7e-6, 7e-6, 30)


def test_01_ideal_limit_closure():
    # near-perfect reflector: constant eps of 1e12, zero-temperature path
    start = time.perf_counter()
    mirror = ConstantModel(eps=1e12)
    d = 1e-6

    force = force_sphere_plane(d, 0.0, R_SPHERE, mirror)
    closed_force = math.pi**3 * HBAR * SPEED_OF_LIGHT * R_SPHERE / (360.0 * d**3)
    assert force == pytest.approx(closed_force, rel=1e-3, abs=0.0)
    assert force == pytest.approx(424.8e-12, rel=1e-3, abs=0.0)

    pressure = pressure_parallel(d, 0.0, mirror)
    closed_pressure = math.pi**2 * HBAR * SPEED_OF_LIGHT / (240.0 * d**4)
    assert pressure == pytest.approx(closed_pressure, rel=1e-3)
    assert pressure == pytest.approx(1.300e-3, rel=1e-3)

    assert time.perf_counter() - start < 1.0


def test_02_thermal_asymptote_and_te_zero_mode_doubling():
    start = time.perf_counter()
    d, T = 50e-6, 300.0
    f_drude = force_sphere_plane(d, T, R_SPHERE, gold_drude())
    target = ZETA3 * R_SPHERE * BOLTZMANN * T / (8.0 * d**2)
    assert f_drude * d**2 == pytest.approx(target * d**2, rel=0.01, abs=0.0)
    # the quoted plateau value, in pN um^2
    assert f_drude * d**2 * 1e24 == pytest.approx(97.05, rel=0.01)

    f_plasma = force_sphere_plane(d, T, R_SPHERE, gold_plasma())
    assert f_plasma / f_drude == pytest.approx(2.00, abs=0.04)

    assert time.perf_counter() - start < 10.0


def test_03_model_ordering_on_measurement_grid():
    curves = {
        "drude_300k": force_sphere_plane_grid(GRID_30, 300.0, R_SPHERE, gold_drude()),
        "plasma_300k": force_sphere_plane_grid(GRID_30, 300.0, R_SPHERE, gold_plasma()),
        "drude_t0": force_sphere_plane_grid(GRID_30, 0.0, R_SPHERE, gold_drude()),
    }

    assert np.all(curves["plasma_300k"] > curves["drude_300k"])

    # ideal mirrors that lose the xi = 0 TE mode cross at d_ideal (4.27 um);
    # a real metal is weaker at T = 0, so its crossing comes earlier and the
    # thermal curve must lie above its own T = 0 curve from d_ideal out
    d_ideal = ideal_metal_crossover(300.0)
    beyond = GRID_30 >= d_ideal
    ratio = curves["drude_300k"][beyond] / curves["drude_t0"][beyond]
    assert np.all(ratio > 1.0), (
        f"thermal/T0 ratio dips below 1 beyond d_ideal = {d_ideal * 1e6:.3f} um at "
        f"{GRID_30[beyond][ratio <= 1.0] * 1e6} um: {ratio[ratio <= 1.0]}"
    )

    assert curves["drude_300k"][-1] / curves["drude_t0"][-1] > 1.5

    # thermal and T0 curves swap order once; the crossing gap must sit
    # between 2 um and d_ideal
    diff = curves["drude_300k"] - curves["drude_t0"]
    sign_flips = np.nonzero(np.diff(np.sign(diff)))[0]
    assert len(sign_flips) == 1
    i = sign_flips[0]
    lo, hi = GRID_30[i], GRID_30[i + 1]
    crossing = lo + (hi - lo) * diff[i] / (diff[i] - diff[i + 1])
    assert 2e-6 <= lo < d_ideal and 2e-6 <= crossing <= d_ideal, (
        f"crossover bracketed by [{lo * 1e6:.3f}, {hi * 1e6:.3f}] um, interpolated "
        f"at {crossing * 1e6:.3f} um; d_ideal = {d_ideal * 1e6:.3f} um"
    )


def test_04_kramers_kronig_oracle():
    start = time.perf_counter()
    w0, gamma, delta_eps = 5e15, 5e14, 2.0
    omega = np.geomspace(1e-3 * w0, 1e3 * w0, 4000)
    eps_im = delta_eps * w0**2 * gamma * omega / (
        (w0**2 - omega**2) ** 2 + gamma**2 * omega**2
    )
    table = TabulatedModel(OpticalTable(omega, eps_im), extrapolation=None, tail_exponent=3.0)

    xi = np.geomspace(1e-2 * w0, 1e2 * w0, 160)
    got = eps_imag_axis(table, xi)
    want = 1.0 + delta_eps * w0**2 / (w0**2 + xi**2 + gamma * xi)
    assert np.max(np.abs(got / want - 1.0)) < 5e-3

    assert time.perf_counter() - start < 1.0


def test_05_end_to_end_model_discrimination():
    start = time.perf_counter()
    config = CampaignConfig(seed=20260819)
    campaign = subtract_drift(generate_campaign(config)).campaign
    edges = log_bin_edges(config.d_min, config.d_max, config.n_separations)
    points = bin_points(campaign.points, edges)

    curves = standard_model_curves(config.radius, config.delta_true)
    ranked = discriminate_models(points, curves, config.radius, config.delta_true)

    best = ranked[0]
    assert best.model_id == "drude_300k"
    assert 0.5 <= best.chi2_reduced <= 1.6
    assert best.v_rms == pytest.approx(5.4e-3, abs=0.3e-3)
    assert best.a == pytest.approx(-3.0e-12, abs=1.0e-12)
    for other in ranked[1:]:
        assert other.chi2_reduced > 5.0, other.model_id

    assert time.perf_counter() - start < 60.0


def test_06_calibration_round_trip():
    start = time.perf_counter()
    d_true, v_m_true, f0 = 2.0e-6, 20e-3, -400e-12
    voltages = np.linspace(-50e-3, 50e-3, 11)

    clean = [
        SweepSample(v=float(v), f=f0 + bias_force(d_true, R_SPHERE, float(v), v_m_true), sigma_f=1e-12)
        for v in voltages
    ]
    cal = calibrate_from_sweep(clean, R_SPHERE)
    assert cal.d == pytest.approx(d_true, rel=1e-10, abs=0.0)
    assert cal.v_m == pytest.approx(v_m_true, abs=1e-10)

    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = [
            SweepSample(v=s.v, f=s.f + rng.normal(0.0, 1e-12), sigma_f=1e-12)
            for s in clean
        ]
        cal = calibrate_from_sweep(noisy, R_SPHERE)
        sd = math.sqrt(cal.covariance[0, 0])
        sv = math.sqrt(cal.covariance[1, 1])
        if abs(cal.d - d_true) < 3 * sd and abs(cal.v_m - v_m_true) < 3 * sv:
            hits += 1
    assert hits >= 97

    assert time.perf_counter() - start < 5.0


def test_07_fluctuation_correction_oracle():
    delta = 40e-9
    gaps = (0.7e-6, 1e-6, 3e-6, 7e-6)
    for n in (2, 3, 4):
        for d in gaps:
            force = 2.5e-27 / d**n
            curvature = n * (n + 1) * 2.5e-27 / d ** (n + 2)
            got = fluctuation_corrected_force(force, curvature, d, delta)
            want = force * (1.0 + n * (n + 1) * (delta / d) ** 2 / 2.0)
            assert got == pytest.approx(want, rel=1e-6, abs=0.0), (n, d)

    # the engine's own curvature: a near-ideal mirror at T = 0 has F ~ d^-3
    # exactly, so its corrected force is F (1 + 6 (delta/d)^2)
    mirror = ConstantModel(eps=1e12)
    curves = standard_model_curves(R_SPHERE, delta, drude=mirror)
    drude_t0 = next(c for c in curves if c.model_id == "drude_t0")
    for d in gaps:
        want = force_sphere_plane(d, 0.0, R_SPHERE, mirror) * (1.0 + 6.0 * (delta / d) ** 2)
        assert drude_t0.evaluator(d) == pytest.approx(want, rel=1e-9, abs=0.0), d


def test_08_sensitivity_band_width():
    start = time.perf_counter()
    band = sensitivity_band(
        GRID_30,
        300.0,
        (ev_to_angular_frequency(6.85), ev_to_angular_frequency(9.00)),
        (ev_to_angular_frequency(0.02), ev_to_angular_frequency(0.061)),
        "drude",
        R_SPHERE,
    )
    width = (band.f_max - band.f_min) / band.f_center
    assert np.all(width <= 0.05), f"max width {width.max():.4f}"
    assert width[-1] < width[0]

    assert time.perf_counter() - start < 30.0


def test_09_determinism(tmp_path):
    # byte-identical campaign and fit outputs under a fixed seed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"d_min": 1e-6, "d_max": 4e-6, "n_separations": 6, "n_sweeps": 6, "seed": 99}
        ),
        encoding="utf-8",
    )
    camp_a, camp_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(camp_a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(camp_b)]) == 0
    assert camp_a.read_bytes() == camp_b.read_bytes()

    fit_a, fit_b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["fit", "--data", str(camp_a), "--models", "drude_300k"]
    assert main(argv + ["--out", str(fit_a)]) == 0
    assert main(argv + ["--out", str(fit_b)]) == 0
    assert fit_a.read_bytes() == fit_b.read_bytes()

    # repeated force grids are bit-identical
    grid = np.geomspace(1e-6, 5e-6, 6)
    first = force_sphere_plane_grid(grid, 300.0, R_SPHERE, gold_drude())
    second = force_sphere_plane_grid(grid, 300.0, R_SPHERE, gold_drude())
    np.testing.assert_array_equal(second, first)
