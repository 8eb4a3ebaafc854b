"""Force engine against closed forms, frozen cross-checked values, and
internal consistency (derivatives, limits, truncation, input validation).

Frozen reference numbers below were computed two independent ways before
being pinned: the packaged panel quadrature and a brute-force fixed
tensor-product Gauss rule at three resolutions (24/48/96 nodes per panel,
cutoff 120), which agreed to nine significant digits.
"""

import functools
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casimir_lab import dielectric, lifshitz, quadrature
from casimir_lab.constants import BOLTZMANN, HBAR, SPEED_OF_LIGHT, ZETA3
from casimir_lab.dielectric import (
    ConstantModel,
    DrudeModel,
    OpticalTable,
    PlasmaModel,
    TabulatedModel,
    gold_drude,
    gold_plasma,
    static_eps,
)
from casimir_lab.errors import ConvergenceError, PfaValidityWarning, ValidationError
from casimir_lab.lifshitz import (
    asymptote_thermal,
    force_and_curvature_sphere_plane,
    force_curvature_sphere_plane,
    force_sphere_plane,
    force_sphere_plane_grid,
    free_energy_per_area,
    pressure_parallel,
    reflection_coeffs,
    reflection_coeffs_zero_mode,
    sensitivity_band,
)
from oracles import (
    classical_slope,
    dilute_dielectric_t0_energy,
    drude_free_energy,
    ideal_metal_crossover,
    ideal_metal_free_energy,
    ideal_t0_free_energy,
    ideal_t0_pressure,
    plasma_t0_ratios,
)

R_SPHERE = 0.156  # m

# Drude gold sphere-plane force at T = 0, d = 1 um; brute-force arbitrated
DRUDE_T0_1UM_PN = 373.930923
# room-temperature Drude F d^2 at 7 um, pN um^2
DRUDE_300K_7UM_FD2 = 97.1239
# plasma/Drude force ratio at 50 um, 300 K
PLASMA_OVER_DRUDE_50UM = 1.9979096
# Drude-vs-T0 thermal crossover location, um (bisection on the engine; the
# scipy quadrature of test_drude_thermal_ratio_matches_scipy_quadrature
# brackets it to 0.1 %)
CROSSOVER_UM = 4.059


def bound_charge_table():
    """A Lorentz-like bound-charge table without a continuation below it, so
    its zero mode is the static limit of its transform."""
    w = np.geomspace(1e14, 1e17, 300)
    table = OpticalTable(omega=w, eps_imag=1e45 * w / ((1e31 - w**2) ** 2 + (1e14 * w) ** 2))
    return TabulatedModel(table=table, extrapolation=None)


#: A rel_tol that no integral settles under :func:`cap_the_quadrature`.
UNSETTLED_TOL = 1e-12


def cap_the_quadrature(monkeypatch):
    """Cap every quadrature cell at 12 nodes a side and let the Gauss-Laguerre
    pair accept no row, so every integral runs on the panels and stops at
    the first refinement: the changes from 6 to 12 nodes exceed
    UNSETTLED_TOL 6e3 to 9e5 fold in the tests that call this, so the
    ConvergenceError does not hang on a rule's last bits."""
    monkeypatch.setattr(quadrature, "_NODE_CAP", 12)
    monkeypatch.setattr(quadrature, "_NODE_CAP_2D", 12)
    pair = lifshitz.integrate_laguerre

    def refusing(f, rel_tol):
        accepted, integrals = pair(f, rel_tol)
        return np.zeros_like(accepted), integrals[..., :0]

    monkeypatch.setattr(lifshitz, "integrate_laguerre", refusing)


def quadrature_calls(monkeypatch):
    """Spy on a ladder's 1-D quadrature: one entry per call, "zero" for a
    family of n = 0 TE corrections, on the Gauss-Laguerre pair or the panels,
    the only rows whose every x is 0, "pair" for any other Gauss-Laguerre
    family and "panels" for any other panel family.  A ``_table`` spy notes
    the x of each node table a call builds."""
    calls, at_zero = [], []
    table = lifshitz._table

    def tabling(x, t):
        at_zero.append(not np.any(x))
        return table(x, t)

    def spying(integrate, kind):
        def spy(f, rel_tol):
            at_zero.clear()
            out = integrate(f, rel_tol)
            calls.append("zero" if all(at_zero) else kind)
            return out

        return spy

    monkeypatch.setattr(lifshitz, "_table", tabling)
    panels = spying(lifshitz.integrate_decaying, "panels")
    monkeypatch.setattr(lifshitz, "integrate_decaying", panels)
    monkeypatch.setattr(lifshitz, "integrate_laguerre", spying(lifshitz.integrate_laguerre, "pair"))
    return calls


class TestReflectionCoefficients:
    def test_limits_at_large_transverse_wavevector(self):
        # k >> xi/c: kappa -> kappa0, TE reflection dies, TM -> static form
        r = reflection_coeffs(k=1e10, xi=1e14, eps=4.0)
        assert r.r_te == pytest.approx(0.0, abs=1e-7)
        assert r.r_tm == pytest.approx(3.0 / 5.0, rel=1e-6)

    def test_bounds_for_physical_permittivity(self):
        k = np.geomspace(1e4, 1e9, 50)
        r = reflection_coeffs(k=k, xi=1e15, eps=30.0)
        assert np.all(r.r_te <= 0.0) and np.all(r.r_te > -1.0)
        assert np.all(r.r_tm >= 0.0) and np.all(r.r_tm < 1.0)

    def test_vacuum_is_invisible(self):
        r = reflection_coeffs(k=1e6, xi=1e15, eps=1.0)
        assert r.r_te == 0.0
        assert r.r_tm == 0.0

    def test_rejects_nonpositive_wavevector(self):
        with pytest.raises(ValueError):
            reflection_coeffs(k=0.0, xi=1e15, eps=2.0)

    @pytest.mark.parametrize("bad", [-1e6, math.nan, math.inf])
    def test_bad_wavevector_is_named_not_passed_on(self, bad):
        # a NaN or infinite k used to come back as NaN reflection coefficients
        k = np.array([1e6, bad])
        named = rf"transverse wavevector must be positive and finite, got {bad}"
        with pytest.raises(ValueError, match=named):
            reflection_coeffs(k=k, xi=1e15, eps=2.0)
        with pytest.raises(ValueError, match=named):
            reflection_coeffs_zero_mode(k, gold_plasma())

    @pytest.mark.parametrize(
        "xi, eps, named",
        [
            (math.nan, 2.0, "xi"),
            (math.inf, 2.0, "xi"),
            (-1e15, 2.0, "xi"),
            (np.array([1e15, math.nan]), 2.0, "xi"),
            (1e15, math.nan, "eps"),
            (1e15, math.inf, "eps"),
            (1e15, 0.5, "eps"),
            (1e15, np.array([2.0, 0.5]), "eps"),
        ],
        ids=["xi-nan", "xi-inf", "xi-negative", "xi-array", "eps-nan", "eps-inf", "eps-below-1",
             "eps-array"],
    )
    def test_out_of_domain_frequency_or_permittivity_is_named(self, xi, eps, named):
        # NaN used to come back as (nan, nan), and eps = 0.5 as a finite pair
        with pytest.raises(ValueError, match=rf"^{named} must be finite"):
            reflection_coeffs(k=1e6, xi=xi, eps=eps)

    def test_static_limit_takes_zero_frequency(self):
        r = reflection_coeffs(k=1e6, xi=0.0, eps=3.0)
        assert r.r_te == 0.0
        assert r.r_tm == pytest.approx(0.5, rel=1e-15)

    def test_zero_mode_dissipative_metal_loses_te(self):
        k = np.geomspace(1e4, 1e8, 20)
        r = reflection_coeffs_zero_mode(k, gold_drude())
        assert np.all(r.r_te == 0.0)
        assert np.all(r.r_tm == 1.0)

    def test_zero_mode_dissipationless_metal_keeps_te(self):
        gold = gold_plasma()
        kp = gold.omega_p / SPEED_OF_LIGHT
        r_small = reflection_coeffs_zero_mode(kp * 1e-4, gold)
        r_large = reflection_coeffs_zero_mode(kp * 1e4, gold)
        assert r_small.r_te == pytest.approx(-1.0, abs=1e-3)
        assert abs(r_large.r_te) < 1e-3
        assert r_small.r_tm == 1.0

    def test_zero_mode_dielectric_static_limit(self):
        r = reflection_coeffs_zero_mode(1e6, ConstantModel(eps=3.0))
        assert r.r_te == 0.0
        assert float(r.r_tm) == pytest.approx(0.5, rel=1e-14, abs=0.0)

    def test_zero_mode_tabulated_follows_extrapolation_family(self):
        table = OpticalTable(omega=np.array([1e15, 1e16]), eps_imag=np.array([1.0, 0.1]))
        drude_tab = TabulatedModel(table=table, extrapolation=gold_drude())
        plasma_tab = TabulatedModel(table=table, extrapolation=gold_plasma())
        k = 1e5
        assert reflection_coeffs_zero_mode(k, drude_tab).r_te == 0.0
        want = reflection_coeffs_zero_mode(k, gold_plasma()).r_te
        assert reflection_coeffs_zero_mode(k, plasma_tab).r_te == pytest.approx(
            float(want), rel=1e-14, abs=0.0
        )

    def test_zero_mode_bound_charge_table_takes_its_static_limit(self):
        model = bound_charge_table()
        s = static_eps(model)
        assert s > 1.5
        k = np.array([1e4, 1e6])
        r = reflection_coeffs_zero_mode(k, model)
        np.testing.assert_array_equal(r.r_te, 0.0)
        # the Fresnel formula (k - k/s)/(k + k/s), k/s taken as k (1/s),
        # rounds up to 2 ulp apart from the static limit
        np.testing.assert_array_equal(r.r_tm, (k - k * (1.0 / s)) / (k + k * (1.0 / s)))
        np.testing.assert_array_max_ulp(r.r_tm, np.full(2, (s - 1.0) / (s + 1.0)), maxulp=2)


class TestIdealLimits:
    """eps -> inf recovers the perfect-reflector closed forms."""

    IDEAL = ConstantModel(eps=1e12)

    def test_t0_free_energy(self):
        d = 1e-6
        got = free_energy_per_area(d, 0.0, self.IDEAL)
        want = -math.pi**2 * HBAR * SPEED_OF_LIGHT / (720.0 * d**3)
        assert got == pytest.approx(want, rel=1e-4, abs=0.0)

    def test_t0_pressure(self):
        d = 1e-6
        got = pressure_parallel(d, 0.0, self.IDEAL)
        want = math.pi**2 * HBAR * SPEED_OF_LIGHT / (240.0 * d**4)
        assert got == pytest.approx(want, rel=1e-4)

    def test_high_t_free_energy_is_zeta3_law(self):
        # classical limit: at 50 um and 300 K x_1 = 2 xi_1 d / c ~ 82, so only
        # the n = 0 term survives.  A ConstantModel takes the static
        # dielectric limit there, r_TE(0) = 0 and r_TM(0) ~ 1, so the TM mode
        # alone gives F -> -zeta(3) k_B T / (16 pi d^2), half the
        # ideal-metal value
        d, T = 50e-6, 300.0
        got = free_energy_per_area(d, T, self.IDEAL)
        want = -ZETA3 * BOLTZMANN * T / (16.0 * math.pi * d * d)
        assert got == pytest.approx(want, rel=1e-5, abs=0.0)


class TestFrozenForces:
    def test_drude_t0_at_one_micron(self):
        got = force_sphere_plane(1e-6, 0.0, R_SPHERE, gold_drude())
        assert got * 1e12 == pytest.approx(DRUDE_T0_1UM_PN, rel=1e-7)

    def test_drude_300k_fd2_at_seven_microns(self):
        d = 7e-6
        got = force_sphere_plane(d, 300.0, R_SPHERE, gold_drude())
        assert got * d * d * 1e24 == pytest.approx(DRUDE_300K_7UM_FD2, rel=1e-5)

    def test_drude_large_d_hits_thermal_asymptote_exactly(self):
        # at 50 um and 300 K every n >= 1 term is e^-80 suppressed, so the
        # engine must land on the analytic zero-mode value
        d = 50e-6
        got = free_energy_per_area(d, 300.0, gold_drude())
        want = -ZETA3 * BOLTZMANN * 300.0 / (16.0 * math.pi * d * d)
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_plasma_over_drude_at_fifty_microns(self):
        d = 50e-6
        ratio = force_sphere_plane(d, 300.0, R_SPHERE, gold_plasma()) / force_sphere_plane(
            d, 300.0, R_SPHERE, gold_drude()
        )
        assert ratio == pytest.approx(PLASMA_OVER_DRUDE_50UM, rel=1e-5)

    def test_asymptote_helper_matches_zero_mode_algebra(self):
        d, T = 50e-6, 300.0
        drude = asymptote_thermal(d, R_SPHERE, T, "drude")
        plasma = asymptote_thermal(d, R_SPHERE, T, "plasma")
        assert drude == pytest.approx(ZETA3 * R_SPHERE * BOLTZMANN * T / (8 * d * d))
        assert plasma == pytest.approx(2.0 * drude, rel=1e-14, abs=0.0)
        with pytest.raises(ValueError):
            asymptote_thermal(d, R_SPHERE, T, "ideal")

    def test_thermal_crossover_location(self):
        # the room-temperature Drude curve overtakes its own T0 curve at
        # CROSSOVER_UM; bracket it on both sides
        gold = gold_drude()

        def gap(d):
            hot = force_sphere_plane(d, 300.0, R_SPHERE, gold)
            return hot - force_sphere_plane(d, 0.0, R_SPHERE, gold)

        assert gap(CROSSOVER_UM * 0.97e-6) < 0.0
        assert gap(CROSSOVER_UM * 1.03e-6) > 0.0


class TestIndependentOracles:
    """The 300 K Drude crossover against references outside the engine."""

    def test_ideal_metal_crossover_bounds_the_drude_one(self):
        T = 300.0

        def ratio(d, temp):
            return ideal_metal_free_energy(d, temp) / ideal_t0_free_energy(d)

        # with the omitted xi = 0 TE term (classical_slope * d) restored, the
        # series is the ideal-mirror low-temperature expansion
        # 1 + 45 zeta(3) t^3 / pi^3 - t^4, t = 2 k_B T d / (hbar c)
        for d, temp in ((1e-6, 10.0), (0.5e-6, T)):
            t = 2.0 * BOLTZMANN * temp * d / (HBAR * SPEED_OF_LIGHT)
            want = 1.0 + 45.0 * ZETA3 * t**3 / math.pi**3 - t**4
            assert ratio(d, temp) + classical_slope(temp) * d == pytest.approx(want, rel=1e-12)
        # at large gaps only the xi = 0 TM term is left: the classical slope
        d = 50e-6
        assert ratio(d, T) == pytest.approx(classical_slope(T) * d, rel=1e-12)

        d_ideal = ideal_metal_crossover(T)
        d_classical = 1.0 / classical_slope(T)
        assert d_ideal == pytest.approx(4.2747e-6, rel=1e-4)
        assert d_classical == pytest.approx(4.3753e-6, rel=1e-4)
        assert d_ideal < d_classical

        # a real metal is weaker at T = 0, so Drude gold has crossed already
        gold = gold_drude()
        hot = force_sphere_plane(d_ideal, T, R_SPHERE, gold)
        assert hot > force_sphere_plane(d_ideal, 0.0, R_SPHERE, gold)
        assert CROSSOVER_UM * 1e-6 < d_ideal

    def test_drude_thermal_ratio_matches_scipy_quadrature(self):
        pytest.importorskip("scipy")
        gold = gold_drude()

        def quad_ratio(d):
            return drude_free_energy(d, 300.0, gold.omega_p, gold.gamma) / drude_free_energy(
                d, 0.0, gold.omega_p, gold.gamma
            )

        # two measurement-grid gaps below the crossing, 3.164 and 4.015 um
        grid = np.geomspace(0.7e-6, 7e-6, 30)
        for d, want in ((grid[19], 0.84271053), (grid[22], 0.99136851)):
            engine = free_energy_per_area(d, 300.0, gold) / free_energy_per_area(d, 0.0, gold)
            got = quad_ratio(d)
            assert got == pytest.approx(want, rel=1e-8)
            assert engine == pytest.approx(got, rel=1e-9)

        assert quad_ratio(CROSSOVER_UM * 0.999e-6) < 1.0 < quad_ratio(CROSSOVER_UM * 1.001e-6)

    @pytest.mark.parametrize(
        "kind, value", [("energy", -ZETA3), ("pressure", 2.0 * ZETA3), ("curvature", 6.0 * ZETA3)]
    )
    def test_drude_zero_mode_is_its_zeta3_closed_form(self, kind, value):
        # r = (0, 1): the kernels are sums over j of y^(m+1) exp(-j y) times
        # -1/j, 1 and j.  The quadrature of that kernel lands on the closed
        # form, Li3(1) = zeta(3) exactly, and a ladder whose only row is below
        # exp(-49) of its n = 0 term is half of it, for a Drude model and a
        # table extrapolating as one
        def zero_mode(y):
            r = lifshitz.ReflectionPair(np.zeros_like(y), np.ones_like(y))
            return lifshitz._kernel(r, lifshitz._table(0.0, y), (kind,), lifshitz._Buffers())

        quadrature = lifshitz.integrate_decaying(zero_mode, 1e-12)[0]
        assert quadrature == pytest.approx(value, rel=1e-13, abs=0.0)
        assert lifshitz._LI3_FACTORS[kind] * lifshitz._polylog3(1.0) == value
        models = (gold_drude(), TestCurvesAsArrays.drude_table())
        ladder = lifshitz._matsubara_ladder(np.array([30e-6]), 300.0, models, 1e-8, (kind,))
        np.testing.assert_allclose(ladder, 0.5 * value, rtol=1e-15, atol=0.0)

    #: x_1 = 4 pi k_B T d / (hbar c) is 164 to 547 at 1000 K: each ladder is
    #: its n = 0 row, halved, and one row under exp(-164) of it
    HOT_GAPS = np.array([30e-6, 50e-6, 100e-6])

    @pytest.mark.parametrize(
        "model", [ConstantModel(eps=2.0), bound_charge_table()], ids=["constant", "table"]
    )
    def test_dielectric_zero_mode_is_its_polylog(self, model):
        # r = (0, rho), rho = (eps0 - 1)/(eps0 + 1): the kernels are sums
        # over j of y^(m+1) rho^(2j) exp(-j y) times -1/j, 1 and j, so the
        # n = 0 integrals are -Li3(rho^2), 2 Li3(rho^2) and 6 Li3(rho^2)
        eps0 = static_eps(model)
        rho2 = ((eps0 - 1.0) / (eps0 + 1.0)) ** 2
        assert 0.01 < rho2 < 0.2
        j = np.arange(1, 60)
        li3 = np.sum(rho2**j / j**3)
        got = lifshitz._matsubara_ladder(self.HOT_GAPS, 1000.0, (model,), 1e-12, lifshitz._KINDS)
        for kind, factor, g in zip(lifshitz._KINDS, (-1.0, 2.0, 6.0), got[:, 0]):
            np.testing.assert_allclose(g, 0.5 * factor * li3, rtol=1e-12, atol=0.0, err_msg=kind)

    def test_plasma_zero_mode_matches_scipy_quadrature(self):
        # r_tm = 1 and r_te = (y - kappa)/(y + kappa), kappa^2 = y^2 +
        # (2 d omega_p / c)^2; 1 - s is written without cancellation
        quad = pytest.importorskip("scipy.integrate").quad
        plasma = gold_plasma()

        def kernels(y, d):
            kappa = math.hypot(y, 2.0 * d * plasma.omega_p / SPEED_OF_LIGHT)
            r_te = (y - kappa) / (y + kappa)
            decay = math.exp(-y)
            s = np.array([r_te**2, 1.0]) * decay
            # 1 - s_te = 1 - e^-y + (1 - r_te^2) e^-y, 1 - r_te^2 = 4 y kappa/(y + kappa)^2
            lost = -math.expm1(-y) + np.array([4.0 * y * kappa / (y + kappa) ** 2, 0.0]) * decay
            return y * np.log(lost).sum(), y**2 * (s / lost).sum(), y**3 * (s / lost**2).sum()

        got = lifshitz._matsubara_ladder(self.HOT_GAPS, 1000.0, (plasma,), 1e-12, lifshitz._KINDS)
        for j, d in enumerate(self.HOT_GAPS):
            for m, kind in enumerate(lifshitz._KINDS):
                want = quad(lambda y: kernels(y, d)[m], 0.0, np.inf, epsabs=0.0, epsrel=1e-13)[0]
                assert got[m, 0, j] == pytest.approx(0.5 * want, rel=1e-12, abs=0.0), (kind, d)

    def test_plasma_t0_follows_its_skin_depth_series(self):
        # the series truncated after x^3 is off by O(x^4), under 1e-6 for
        # d >= 4 um with gold omega_p (x = 6.5e-3 at 4 um); with its x^4 term
        # the rest is O(x^5), under 3e-8.  Energy, pressure and slope come
        # from one fused pass at rel_tol 1e-12
        plasma = gold_plasma()
        d = np.array([4e-6, 5.5e-6, 7e-6])
        tight = 1e-12
        energy, pressure, slope = lifshitz._lifshitz(
            d, 0.0, plasma, tight, ("energy", "pressure", "curvature")
        )
        p0 = ideal_t0_pressure(d)
        got = (energy / ideal_t0_free_energy(d), pressure / p0, slope / (4.0 * p0 / d))
        for order, rtol in ((3, 1e-6), (4, 3e-8)):
            want = plasma_t0_ratios(d, plasma.omega_p, order)
            for name, g, w in zip(("energy", "pressure", "slope"), got, want):
                np.testing.assert_allclose(g, w, rtol=rtol, atol=0.0, err_msg=f"{name} x^{order}")

    def test_dilute_dielectric_tends_to_the_pairwise_limit(self):
        # E d^3 / eta^2 = c0 + c1 eta + O(eta^2): the line through eta = 1e-2
        # and 1e-3 meets eta = 0 within O(eta_1 eta_2) ~ 1e-5 of the oracle
        d, tight = 1e-6, 1e-12
        etas = np.array([1e-2, 1e-3])
        ratio = [
            free_energy_per_area(d, 0.0, ConstantModel(eps=1.0 + eta), tight)
            / dilute_dielectric_t0_energy(d, eta)
            for eta in etas
        ]
        extrapolated = (ratio[1] * etas[0] - ratio[0] * etas[1]) / (etas[0] - etas[1])
        assert extrapolated == pytest.approx(1.0, rel=5e-5, abs=0.0)

    def test_non_dispersive_dielectric_has_no_length_scale(self):
        # eps independent of frequency: E d^3 is the same at every gap
        glass = ConstantModel(eps=2.0)
        d = np.array([1e-6, 3e-6])
        energy_d3 = free_energy_per_area(d, 0.0, glass) * d**3
        assert energy_d3[1] == pytest.approx(energy_d3[0], rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("T", [0.0, 300.0])
    @pytest.mark.parametrize("d_um", [1.0, 3.0])
    def test_tabulated_drude_table_gives_the_drude_force(self, d_um, T):
        # a 2000-row table of the Drude eps'' with the Drude continuation
        # below it and the omega^-3 tail above it is the Drude metal again,
        # up to the trapezoid error across the table
        gold = gold_drude()
        wp, g = gold.omega_p, gold.gamma
        w = np.geomspace(1e14, 1e17, 2000)
        table = OpticalTable(omega=w, eps_imag=wp**2 * g / (w * (w**2 + g**2)))
        model = TabulatedModel(table=table, extrapolation=gold, tail_exponent=3.0)
        d = d_um * 1e-6
        assert force_sphere_plane(d, T, R_SPHERE, model) == pytest.approx(
            force_sphere_plane(d, T, R_SPHERE, gold), rel=1e-6, abs=0.0
        )


    def test_bound_charge_zero_mode_is_resolved_once_per_ladder(self, monkeypatch):
        model = bound_charge_table()
        calls = []

        def counting(m):
            calls.append(m)
            return static_eps(m)

        monkeypatch.setattr(lifshitz, "static_eps", counting)
        force_sphere_plane(1e-6, 300.0, R_SPHERE, model)
        assert calls == [model]


class TestConsistency:
    def test_pressure_equals_free_energy_derivative(self):
        gold = gold_drude()
        for T in (300.0, 0.0):
            d = 1e-6
            h = 1e-3 * d
            der = (
                free_energy_per_area(d + h, T, gold)
                - free_energy_per_area(d - h, T, gold)
            ) / (2.0 * h)
            p = pressure_parallel(d, T, gold)
            assert p == pytest.approx(der, rel=1e-4)

    def test_small_temperature_joins_t0_continuously(self):
        gold = gold_drude()
        d = 1e-6
        f0 = free_energy_per_area(d, 0.0, gold)
        rel_1k = abs(free_energy_per_area(d, 1.0, gold) - f0) / abs(f0)
        rel_10k = abs(free_energy_per_area(d, 10.0, gold) - f0) / abs(f0)
        assert rel_1k < 5e-4
        assert rel_10k < 1e-2
        assert rel_1k < rel_10k

    def test_tolerance_refinement_is_consistent(self):
        gold = gold_drude()
        d = 1e-6
        loose = free_energy_per_area(d, 300.0, gold, rel_tol=1e-6)
        tight = free_energy_per_area(d, 300.0, gold, rel_tol=1e-10)
        assert abs(loose - tight) / abs(tight) < 5e-6

    @pytest.mark.parametrize(
        "d, T, kind, where",
        [
            (1e-6, 0.0, "energy", r"at d = 1\.000e-06 m, T = 0 K, energy"),
            (2e-6, 0.0, "curvature", r"at d = 2\.000e-06 m, T = 0 K, curvature"),
            (
                np.array([1e-6, 5e-6, 2e-6]),
                300.0,
                "pressure",
                r"at d in \[1\.000e-06, 5\.000e-06\] m, T = 300 K, pressure",
            ),
            # the three gaps share one T = 0 integral; 1 um is the one that
            # is furthest from settling when each gap runs alone too
            (
                np.array([1e-6, 5e-6, 2e-6]),
                0.0,
                "energy",
                r"at d = 1\.000e-06 m, T = 0 K, energy \(",
            ),
        ],
        ids=["t0-energy", "t0-curvature", "300k-chunk", "t0-chunk"],
    )
    def test_unsettled_quadrature_names_where_it_ran(self, d, T, kind, where, monkeypatch):
        # T = 0 names the gap, T > 0 the gap range of the failing chunk
        cap_the_quadrature(monkeypatch)
        with pytest.raises(ConvergenceError, match=where) as err:
            lifshitz._lifshitz(d, T, gold_drude(), UNSETTLED_TOL, (kind,))
        assert err.value.requested == UNSETTLED_TOL
        assert err.value.achieved > err.value.requested

    @pytest.mark.parametrize(
        "d, kinds",
        [(7e-6, ("energy",)), (np.array([1e-6, 5e-6, 2e-6]), ("curvature", "energy"))],
        ids=["energy", "fused"],
    )
    def test_a_non_finite_estimate_is_refused_not_settled(self, d, kinds):
        # the full plasma zero-mode kernel, r = (r_te, 1), rounds to
        # log1p(-1) = -inf below y ~ 1e-8 at the 96- and 192-node levels; a
        # settle there used to give -inf energies, or an error that "achieved
        # nan", with RuntimeWarnings.  The ladder now integrates only the
        # TE correction, which has no such kernel, so the panels get the
        # kernel directly
        p2 = (2.0 * np.atleast_1d(d)[:, None] * gold_plasma().omega_p / SPEED_OF_LIGHT) ** 2

        def zero_mode(y):
            table = lifshitz._table(0.0, y)
            return lifshitz._integrand(table, 0.0, p2, kinds, lifshitz._Buffers())

        with pytest.raises(ConvergenceError, match=r"did not settle .*\(achieved inf") as err:
            lifshitz.integrate_decaying(zero_mode, 1e-16)
        assert err.value.achieved == math.inf
        assert kinds[err.value.kind] == "energy"

    @pytest.mark.parametrize("model", [gold_drude(), gold_plasma()], ids=["drude", "plasma"])
    def test_ladder_meets_rel_tol_against_a_tight_ladder(self, model):
        # every term up to the decay cap counts: the slowly decaying tail at
        # small gaps used to be cut at the first term below rel_tol, which
        # left the sum off by up to 4e-8 at 0.1 um
        gaps = np.geomspace(0.1e-6, 7e-6, 9)
        tight = 1e-12
        for fn in (free_energy_per_area, pressure_parallel):
            got = fn(gaps, 300.0, model)
            want = fn(gaps, 300.0, model, tight)
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)
        got = force_curvature_sphere_plane(gaps, 300.0, R_SPHERE, model)
        want = force_curvature_sphere_plane(gaps, 300.0, R_SPHERE, model, tight)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)

    @settings(max_examples=8, deadline=None)
    @given(st.floats(min_value=0.7, max_value=20.0))
    def test_attraction_and_sign_convention(self, d_um):
        d = d_um * 1e-6
        assert free_energy_per_area(d, 300.0, gold_drude()) < 0.0
        assert pressure_parallel(d, 300.0, gold_drude()) > 0.0

    @settings(max_examples=8, deadline=None)
    @given(
        st.floats(min_value=0.7, max_value=6.0),
        st.floats(min_value=1.05, max_value=2.0),
    )
    def test_force_decreases_with_separation(self, d_um, factor):
        gold = gold_drude()
        f_near = force_sphere_plane(d_um * 1e-6, 300.0, R_SPHERE, gold)
        f_far = force_sphere_plane(d_um * factor * 1e-6, 300.0, R_SPHERE, gold)
        assert f_near > f_far > 0.0

    def test_plasma_exceeds_drude_at_room_temperature(self):
        for d_um in (0.7, 1.0, 3.0, 7.0):
            d = d_um * 1e-6
            assert force_sphere_plane(d, 300.0, R_SPHERE, gold_plasma()) > force_sphere_plane(
                d, 300.0, R_SPHERE, gold_drude()
            )


class TestCurvature:
    """The curvature kernel against derivatives taken outside it."""

    @pytest.mark.parametrize("d_um", [0.7, 3.0])
    @pytest.mark.parametrize("T", [300.0, 0.0])
    @pytest.mark.parametrize("model", [gold_drude(), gold_plasma()], ids=["drude", "plasma"])
    def test_curvature_is_minus_2pi_r_times_the_pressure_slope(self, model, T, d_um):
        d = d_um * 1e-6
        h = d / 100.0
        p = [pressure_parallel(d + k * h, T, model) for k in (-2, -1, 1, 2)]
        slope = (p[0] - 8.0 * p[1] + 8.0 * p[2] - p[3]) / (12.0 * h)
        got = force_curvature_sphere_plane(d, T, R_SPHERE, model)
        assert got == pytest.approx(-2.0 * math.pi * R_SPHERE * slope, rel=2e-6)

    @pytest.mark.parametrize("d_um", [0.7, 3.0])
    def test_scale_free_mirror_has_power_law_curvature(self, d_um):
        # a constant eps has no length scale, so at T = 0 the force goes as
        # d^-3 exactly and F'' = 12 F / d^2
        d = d_um * 1e-6
        mirror = ConstantModel(eps=1e12)
        force = force_sphere_plane(d, 0.0, R_SPHERE, mirror)
        got = force_curvature_sphere_plane(d, 0.0, R_SPHERE, mirror)
        assert got == pytest.approx(12.0 * force / (d * d), rel=1e-9)


class TestGeometryAndPfa:
    def test_geometry_validation(self):
        for R, d, name in ((-1.0, 1e-6, "radius"), (0.1, 0.0, "separation")):
            with pytest.raises(ValueError, match=name):
                force_sphere_plane(d, 300.0, R, gold_drude())
            with pytest.raises(ValueError, match=name):
                asymptote_thermal(d, R, 300.0, "drude")

    def test_asymptote_takes_an_array_of_gaps(self):
        gaps = np.array([5e-6, 10e-6])
        got = asymptote_thermal(gaps, R_SPHERE, 300.0, "plasma")
        want = [asymptote_thermal(d, R_SPHERE, 300.0, "plasma") for d in gaps.tolist()]
        assert got.tolist() == want

    def test_pfa_is_the_plate_energy_times_2pi_r(self):
        d = 1e-6
        f = force_sphere_plane(d, 300.0, R_SPHERE, gold_drude())
        e = free_energy_per_area(d, 300.0, gold_drude())
        assert f == pytest.approx(2.0 * math.pi * R_SPHERE * abs(e), rel=1e-14, abs=0.0)

    def test_pfa_warning_past_aspect_ratio(self):
        for fn in (force_sphere_plane, force_curvature_sphere_plane):
            with pytest.warns(PfaValidityWarning):
                fn(2e-4, 300.0, 0.1, gold_drude())

    def test_no_warning_in_validity_range(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", PfaValidityWarning)
            force_sphere_plane(1e-6, 300.0, R_SPHERE, gold_drude())

    def test_quadrature_spec_validation(self, monkeypatch):
        # rel_tol is checked once, by the engine, before any integral runs:
        # every entry refuses a value outside (0, 1e-3] or not a real number,
        # as a ValidationError, not a plain ValueError
        def forbidden(*args, **kwargs):
            raise AssertionError("integral run before rel_tol was checked")

        monkeypatch.setattr(lifshitz, "integrate_decaying", forbidden)
        monkeypatch.setattr(lifshitz, "integrate_decaying_2d", forbidden)
        gold, wp, g = gold_drude(), TestSensitivityBand.WP, TestSensitivityBand.G
        entries = [
            lambda T, tol: free_energy_per_area(1e-6, T, gold, tol),
            lambda T, tol: pressure_parallel(1e-6, T, gold, tol),
            lambda T, tol: force_sphere_plane(1e-6, T, R_SPHERE, gold, tol),
            lambda T, tol: force_curvature_sphere_plane(1e-6, T, R_SPHERE, gold, tol),
            lambda T, tol: force_and_curvature_sphere_plane(1e-6, T, R_SPHERE, gold, tol),
            lambda T, tol: force_sphere_plane_grid([1e-6], T, R_SPHERE, gold, tol),
            lambda T, tol: sensitivity_band([1e-6], T, wp, g, "drude", R_SPHERE, tol),
        ]
        for bad in (0.0, -1e-8, 1e-2, math.nan, math.inf, "1e-8", None, True):
            for T in (0.0, 300.0):
                for entry in entries:
                    named = rf"rel_tol .* got {re.escape(repr(bad))}"
                    with pytest.raises(ValidationError, match=named):
                        entry(T, bad)

    def test_rel_tol_takes_its_bounds_and_numpy_floats(self):
        gold = gold_drude()
        want = free_energy_per_area(1e-6, 300.0, gold)
        assert free_energy_per_area(1e-6, 300.0, gold, np.float64(1e-8)) == want
        loose = free_energy_per_area(1e-6, 300.0, gold, rel_tol=1e-3)
        assert loose == pytest.approx(want, rel=1e-3, abs=0.0)

    @pytest.mark.parametrize("bad", ["300", np.array([300.0]), None, True])
    def test_non_numeric_temperature_is_refused(self, bad):
        # a string or an array used to escape as a TypeError
        with pytest.raises(ValueError, match="temperature"):
            force_sphere_plane(1e-6, bad, R_SPHERE, gold_drude())
        with pytest.raises(ValueError, match="temperature"):
            asymptote_thermal(1e-6, R_SPHERE, bad, "drude")

    @pytest.mark.parametrize("bad", ["0.156", b"0.156", None, True])
    def test_non_numeric_radius_is_refused(self, bad):
        # numpy reads "0.156" as a float, and the string used to escape as a
        # TypeError from the PFA factor
        with pytest.raises(ValueError, match=rf"radius must be .*, got {re.escape(repr(bad))}"):
            force_sphere_plane(1e-6, 300.0, bad, gold_drude())

    @pytest.mark.parametrize("bad", ["1e-6", b"1e-6", None, True])
    def test_non_numeric_gap_is_refused(self, bad):
        # a string gap used to escape as numpy's UFuncTypeError; in a list
        # it would have been read as a float
        named = rf"separation must be .*, got {re.escape(repr(bad))}"
        with pytest.raises(ValueError, match=named):
            force_sphere_plane(bad, 300.0, R_SPHERE, gold_drude())
        with pytest.raises(ValueError, match=named):
            force_sphere_plane_grid([2e-6, bad], 0.0, R_SPHERE, gold_drude())
        with pytest.raises(ValueError, match=named):
            free_energy_per_area([2e-6, bad], 300.0, gold_drude())

    @pytest.mark.parametrize("bad", ["0.156", b"0.156", None, True])
    def test_non_numeric_radius_of_the_asymptote_is_refused(self, bad):
        with pytest.raises(ValueError, match=rf"radius must be .*, got {re.escape(repr(bad))}"):
            asymptote_thermal(1e-6, bad, 300.0, "drude")

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            free_energy_per_area(-1e-6, 300.0, gold_drude())
        with pytest.raises(ValueError):
            free_energy_per_area(1e-6, -5.0, gold_drude())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("arg", ["d", "T", "R"])
    def test_non_finite_input_is_rejected(self, arg, bad):
        args = {"d": 1e-6, "T": 300.0, "R": R_SPHERE, arg: bad}
        d, T, R = args["d"], args["T"], args["R"]
        named = re.escape(str(bad))
        for fn in (force_sphere_plane, force_curvature_sphere_plane):
            with pytest.raises(ValueError, match=named):
                fn(d, T, R, gold_drude())
        with pytest.raises(ValueError, match=named):
            asymptote_thermal(d, R, T, "drude")
        if arg != "R":
            for fn in (free_energy_per_area, pressure_parallel):
                with pytest.raises(ValueError, match=named):
                    fn(d, T, gold_drude())


class TestDomain:
    """The engine's (T, d) domain is checked before any eps(i xi) or integral
    runs: T in [0, 1e6] K, and at T > 0 ladders of at most _MAX_MATSUBARA
    terms, n = 0 included, which is T d >= ~7.29e-8 m K.  Outside it every
    entry refuses with a ValidationError naming the temperature."""

    ENTRIES = {
        "free_energy_per_area": lambda d, T: free_energy_per_area(d, T, gold_drude()),
        "pressure_parallel": lambda d, T: pressure_parallel(d, T, gold_drude()),
        "force_sphere_plane": lambda d, T: force_sphere_plane(d, T, R_SPHERE, gold_drude()),
        "force_curvature_sphere_plane":
            lambda d, T: force_curvature_sphere_plane(d, T, R_SPHERE, gold_drude()),
        "force_and_curvature_sphere_plane":
            lambda d, T: force_and_curvature_sphere_plane(d, T, R_SPHERE, gold_drude()),
        "force_sphere_plane_grid":
            lambda d, T: force_sphere_plane_grid([d, 2.0 * d], T, R_SPHERE, gold_plasma()),
        "sensitivity_band": lambda d, T: sensitivity_band(
            [d], T, (1.3e16, 1.4e16), (3e13, 4e13), "drude", R_SPHERE
        ).f_max,
    }

    @staticmethod
    def work(monkeypatch):
        """Record the name of every eps(i xi) and integral call the engine
        makes from here on."""
        calls = []
        for name in ("eps_imag_axis", "integrate_decaying", "integrate_decaying_2d"):
            def counting(*args, name=name, call=getattr(lifshitz, name)):
                calls.append(name)
                return call(*args)

            monkeypatch.setattr(lifshitz, name, counting)
        return calls

    @pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
    def test_temperatures_run_from_0_to_1e6_k(self, monkeypatch, entry):
        # from ~1e150 K the first Matsubara row overflowed and a curve came
        # out as nan; at 1e300 K the refusal named xi
        assert np.all(np.isfinite(entry(1e-6, 1e6)))
        calls = self.work(monkeypatch)
        for T in (2e6, 1e200):
            with pytest.raises(ValidationError, match=r"^temperature must be within \[0, 1e\+06\]"):
                entry(1e-6, T)
        assert calls == []

    @pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
    def test_the_cap_refuses_only_ladders_longer_than_it(self, monkeypatch, entry):
        # x_1 = 11.5 at 7 um and 300 K, so the ladder is n = 0 to 3: a cap of
        # 4 terms sums the same terms, a cap of 3 refuses before any work
        full = entry(7e-6, 300.0)
        monkeypatch.setattr(lifshitz, "_MAX_MATSUBARA", 4)
        assert np.array_equal(entry(7e-6, 300.0), full)
        monkeypatch.setattr(lifshitz, "_MAX_MATSUBARA", 3)
        calls = self.work(monkeypatch)
        with pytest.raises(ValidationError, match=r"^temperature 300 K .* d = 7\.000e-06 m"):
            entry(7e-6, 300.0)
        assert calls == []

    @pytest.mark.parametrize(
        "T, inside, below", [(1.0, 73e-9, 72e-9), (4.0, 18.3e-9, 18.1e-9), (77.0, 1e-9, None)]
    )
    def test_the_ladder_floor_is_t_d_of_7_29e_8_m_k(self, monkeypatch, T, inside, below):
        # a gap just inside the floor reaches eps(i xi), which stops it here;
        # a curve that adds a gap just below is refused whole, by that gap
        class Reached(Exception):
            pass

        def reached(model, xi):
            raise Reached

        monkeypatch.setattr(lifshitz, "eps_imag_axis", reached)
        with pytest.raises(Reached):
            free_energy_per_area([1e-6, inside], T, gold_drude())
        if below is not None:
            floor = r"T > 0 needs T d >= 7\.29e-08 m K$"
            named = re.escape(f"temperature {T:g} K is too low for the gap d = {below:.3e} m")
            with pytest.raises(ValidationError, match=rf"^{named}.*{floor}"):
                free_energy_per_area([1e-6, inside, below, 2e-6], T, gold_drude())

    @staticmethod
    def kinds_at(d, T, model):
        """Energy, pressure and curvature at one gap, at rel_tol 1e-6, with
        every warning an error."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = lifshitz._lifshitz_models(np.array([d]), T, (model,), 1e-6, lifshitz._KINDS)
        return values.ravel()

    @pytest.mark.parametrize(
        "model",
        [DrudeModel(1e20, 1e20), DrudeModel(1e20, 1e-300), PlasmaModel(1e20), ConstantModel(1e100)],
        ids=["drude", "drude-undamped", "plasma", "constant"],
    )
    @pytest.mark.parametrize("d, T", [(d, T) for T in (0.0, 300.0, 1e6) for d in (1e-9, 1e3)])
    def test_models_at_their_bounds_are_finite_at_the_domain_corners(self, model, d, T):
        # omega_p and gamma up to 1e20 rad/s and eps up to 1e100: far past
        # them omega_p^2, the plasma zero mode (omega_p/c)^2 or the lift
        # (eps - 1)(xi/c)^2 overflowed, with an OverflowError or a warning
        energy, pressure, curvature = self.kinds_at(d, T, model)
        assert -np.inf < energy < 0.0 < pressure < np.inf and 0.0 < curvature < np.inf

    @pytest.mark.parametrize("d, T", [(1e3, 1e-10), (1e-9, 73.0)])
    def test_the_bound_plasma_zero_mode_is_finite_at_the_ladder_floor(self, d, T):
        # ~10^5 Matsubara rows, the n = 0 row at its largest lift
        energy, pressure, curvature = self.kinds_at(d, T, PlasmaModel(1e20))
        assert -np.inf < energy < 0.0 < pressure < np.inf and 0.0 < curvature < np.inf

    @pytest.mark.parametrize("T", [0.0, 300.0])
    def test_a_table_past_the_constant_bound_keeps_its_static_zero_mode(self, T):
        # the permittivity bound is on a ConstantModel a caller builds and on
        # each eps'' of a table, not on the static eps (~4.4e100 here) of a
        # table without a continuation, whose zero mode has no lift to
        # overflow; a table at the eps'' bound gives a finite force, warning-free
        w = np.geomspace(1e14, 1e17, 50)
        eps_imag = np.full(50, dielectric.MAX_PERMITTIVITY)
        model = TabulatedModel(OpticalTable(omega=w, eps_imag=eps_imag), None)
        assert static_eps(model) > dielectric.MAX_PERMITTIVITY
        energy, pressure, curvature = self.kinds_at(1e-6, T, model)
        assert -np.inf < energy < 0.0 < pressure < np.inf and 0.0 < curvature < np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            force = force_sphere_plane(1e-6, T, R_SPHERE, model)
        assert 0.0 < force < np.inf

    @pytest.mark.parametrize("T", [0.0, 300.0])
    @pytest.mark.parametrize("eps_imag", [1.0, dielectric.MAX_PERMITTIVITY])
    def test_a_table_at_the_frequency_bound_gives_a_finite_force(self, T, eps_imag):
        # the same 50 rows over 1e14-1e300 rad/s overflowed the
        # Kramers-Kronig weights: an overflow RuntimeWarning at 300 K, then
        # ConvergenceError "achieved inf" at both temperatures
        w = np.geomspace(1e14, dielectric.MAX_FREQUENCY, 50)
        model = TabulatedModel(OpticalTable(omega=w, eps_imag=np.full(50, eps_imag)), None)
        energy, pressure, curvature = self.kinds_at(1e-6, T, model)
        assert -np.inf < energy < 0.0 < pressure < np.inf and 0.0 < curvature < np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            force = force_sphere_plane(1e-6, T, R_SPHERE, model)
        assert 0.0 < force < np.inf


class TestCurvesAsArrays:
    """A curve is one computation: a float gives a float, an array of gaps
    one ladder (eps once, (gap, n) rows batched) or one T = 0 integral per
    gap, and every gap is validated first."""

    GRID = np.geomspace(0.7e-6, 7e-6, 5)

    @staticmethod
    def drude_table():
        """2000 rows of the exact gold Drude eps'', Drude below the table."""
        gold = gold_drude()
        wp, g = gold.omega_p, gold.gamma
        w = np.geomspace(1e14, 1e17, 2000)
        table = OpticalTable(omega=w, eps_imag=wp**2 * g / (w * (w**2 + g**2)))
        return TabulatedModel(table=table, extrapolation=gold)

    def test_eps_is_computed_once_per_curve(self, monkeypatch):
        model = self.drude_table()
        calls = []
        eps = lifshitz.eps_imag_axis

        def counting(m, xi):
            calls.append(np.size(xi))
            return eps(m, xi)

        monkeypatch.setattr(lifshitz, "eps_imag_axis", counting)
        forces = force_sphere_plane_grid(self.GRID, 300.0, R_SPHERE, model)
        assert len(calls) == 1
        assert np.all(forces > 0.0)

    def test_t0_computes_eps_once_per_frequency_node(self, monkeypatch):
        # each doubling level hands eps the frequency nodes of every
        # rectangle, and the tabulated model transforms each distinct one
        # once; a transform per rectangle makes a 2000-row table five times
        # slower.  The tensor-product grid of 121 panel pairs transformed 296
        # frequencies here; the L-shaped layout must not transform more
        model = self.drude_table()
        values = []
        band = dielectric._table_band_integral

        def counting(table, xi):
            values.append(np.size(xi))
            return band(table, xi)

        monkeypatch.setattr(dielectric, "_table_band_integral", counting)
        force = force_sphere_plane(1e-6, 0.0, R_SPHERE, model)
        assert force > 0.0
        assert sum(values) <= 296

    @pytest.mark.parametrize("bad", [math.nan, -1e-6, 0.0, math.inf])
    @pytest.mark.parametrize("T", [0.0, 300.0])
    def test_bad_gap_anywhere_fails_before_any_integral(self, monkeypatch, T, bad):
        def forbidden(*args, **kwargs):
            raise AssertionError("an integral ran before validation")

        for name in ("integrate_decaying", "integrate_decaying_2d", "eps_imag_axis"):
            monkeypatch.setattr(lifshitz, name, forbidden)
        gaps = np.array([1e-6, 2e-6, bad, 3e-6])
        named = re.escape(str(bad))
        with pytest.raises(ValueError, match=named):
            force_sphere_plane_grid(gaps, T, R_SPHERE, gold_drude())
        with pytest.raises(ValueError, match=named):
            force_curvature_sphere_plane(gaps, T, R_SPHERE, gold_drude())
        with pytest.raises(ValueError, match=named):
            free_energy_per_area(gaps, T, gold_drude())

    @pytest.mark.parametrize("T", [0.0, 300.0])
    def test_empty_grid_gives_an_empty_array(self, T):
        out = force_sphere_plane_grid([], T, R_SPHERE, gold_drude())
        assert isinstance(out, np.ndarray)
        assert out.shape == (0,)

    def test_grid_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="1-D"):
            force_sphere_plane_grid(self.GRID.reshape(5, 1), 300.0, R_SPHERE, gold_drude())

    def test_float_gives_float_and_arrays_keep_their_shape(self):
        gold = gold_drude()
        assert isinstance(free_energy_per_area(1e-6, 300.0, gold), float)
        assert isinstance(force_curvature_sphere_plane(1e-6, 0.0, R_SPHERE, gold), float)
        gaps = np.array([[1e-6, 2e-6], [3e-6, 4e-6]])
        out = pressure_parallel(gaps, 300.0, gold)
        assert out.shape == (2, 2)
        np.testing.assert_array_equal(out.ravel(), pressure_parallel(gaps.ravel(), 300.0, gold))

    def test_rows_pack_into_full_chunks_across_gaps(self, monkeypatch):
        # 7-row chunks: the gaps' 24, 12, 4 and 1 rows (x_n below 40) fill
        # six chunks gap after gap, so the 2 um ladder starts in the chunk
        # where the 1 um one ends, and ends in the one it shares with 5 and
        # 30 um.  Every x_n is past 1, so the chunks try the Gauss-Laguerre
        # pair, and only the rows it refuses go to the panels, 7 to a family
        monkeypatch.setattr(lifshitz, "_LADDER_ROWS", 7)
        calls, tried = quadrature_calls(monkeypatch), []
        laguerre = lifshitz.integrate_laguerre

        def trying(f, rel_tol):
            accepted, integrals = laguerre(f, rel_tol)
            tried.append(accepted)
            return accepted, integrals

        monkeypatch.setattr(lifshitz, "integrate_laguerre", trying)
        gaps = np.array([1e-6, 2e-6, 5e-6, 30e-6])
        x_1 = 4.0 * math.pi * BOLTZMANN * 300.0 * gaps / (HBAR * SPEED_OF_LIGHT)
        rows = np.maximum(np.ceil(40.0 / x_1) - 1.0, 1.0).astype(int)
        assert rows.tolist() == [24, 12, 4, 1] and x_1.min() > lifshitz._LAGUERRE_X
        # the Drude zero mode is a closed form; the plasma one adds a family
        # of the four gaps' TE corrections, tried on the pair before the rows
        for model, zero_families in ((gold_drude(), 0), (gold_plasma(), 1)):
            calls.clear()
            tried.clear()
            got = force_sphere_plane_grid(gaps, 300.0, R_SPHERE, model)
            assert calls.count("zero") == zero_families
            assert [accepted.size for accepted in tried[:zero_families]] == [4] * zero_families
            del tried[:zero_families]
            assert [accepted.size for accepted in tried] == [7] * 5 + [6]
            assert calls.count("pair") == len(tried)
            refused = sum(np.count_nonzero(~accepted) for accepted in tried)
            assert calls.count("panels") == math.ceil(refused / 7)
            want = [force_sphere_plane(d, 300.0, R_SPHERE, model) for d in gaps]
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize(
        "model, families", [(gold_drude(), 1), (gold_plasma(), 2)], ids=["drude", "plasma"]
    )
    def test_each_gap_meets_rel_tol_in_a_mixed_chunk(self, monkeypatch, model, families):
        # the quadrature settles a family against its largest member; a
        # small ladder batched with a large one must still meet rel_tol
        monkeypatch.setattr(lifshitz, "_LADDER_ROWS", 10_000)
        gaps = np.array([0.2e-6, 12e-6, 1e-6, 5e-6])
        tight = 1e-12
        kinds = {
            "energy": lambda d, rel_tol: free_energy_per_area(d, 300.0, model, rel_tol),
            "pressure": lambda d, rel_tol: pressure_parallel(d, 300.0, model, rel_tol),
            "curvature": lambda d, rel_tol: force_curvature_sphere_plane(
                d, 300.0, R_SPHERE, model, rel_tol
            ),
        }
        calls = quadrature_calls(monkeypatch)
        for kind, fn in kinds.items():
            want = [fn(float(d), tight) for d in gaps]
            calls.clear()
            batched = fn(gaps, 1e-8)
            # the pair's rows, the panels' rows and the plasma zero modes,
            # one family each
            assert calls.count("pair") == 1
            assert calls.count("panels") == 1
            assert calls.count("zero") == families - 1
            np.testing.assert_allclose(batched, want, rtol=1e-8, atol=0.0, err_msg=kind)

    def test_chunked_curve_matches_gap_by_gap(self):
        # 0.1 um carries ~190 rows and runs alone; the rest share chunks
        gaps = np.geomspace(0.1e-6, 7e-6, 12)
        for model in (gold_drude(), gold_plasma()):
            got = force_sphere_plane_grid(gaps, 300.0, R_SPHERE, model)
            want = [force_sphere_plane(d, 300.0, R_SPHERE, model) for d in gaps]
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


class TestFusedPass:
    """Force and curvature from one pass: eps, the Fresnel coefficients and
    exp(-y) once for both, and each kind settled on its own scale."""

    @pytest.mark.parametrize("T", [0.0, 300.0])
    @pytest.mark.parametrize(
        "model",
        [gold_drude(), gold_plasma(), TestCurvesAsArrays.drude_table()],
        ids=["drude", "plasma", "table"],
    )
    def test_each_kind_meets_rel_tol_against_its_own_pass(self, model, T):
        gaps = np.array([0.5e-6, 2e-6, 7e-6])
        tight = 1e-12
        force, curvature = force_and_curvature_sphere_plane(gaps, T, R_SPHERE, model)
        want_force = force_sphere_plane(gaps, T, R_SPHERE, model, tight)
        want_curvature = force_curvature_sphere_plane(gaps, T, R_SPHERE, model, tight)
        np.testing.assert_allclose(force, want_force, rtol=1e-8, atol=0.0)
        np.testing.assert_allclose(curvature, want_curvature, rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("T", [0.0, 300.0])
    @pytest.mark.parametrize(
        "model",
        [gold_drude(), gold_plasma(), ConstantModel(eps=2.0), TestCurvesAsArrays.drude_table()],
        ids=["drude", "plasma", "constant", "table"],
    )
    def test_default_rule_stays_a_hundred_times_inside_rel_tol(self, model, T):
        # the default rel_tol is 1e-8, yet the node rule lands within ~1e-11
        # of a rel_tol 1e-12 pass; a bound of 1e-10 keeps a later, cheaper
        # rule from spending that margin unnoticed
        gaps = np.array([0.7e-6, 3e-6, 7e-6])
        kinds = ("energy", "curvature")
        got = lifshitz._lifshitz(gaps, T, model, 1e-8, kinds)
        want = lifshitz._lifshitz(gaps, T, model, 1e-12, kinds)
        for kind, g, w in zip(kinds, got, want):
            np.testing.assert_allclose(g, w, rtol=1e-10, atol=0.0, err_msg=kind)

    @pytest.mark.parametrize("T", [0.0, 300.0])
    def test_makes_the_quadrature_calls_of_one_kind(self, monkeypatch, T):
        # both kinds ride in each quadrature family, so the fused curve makes
        # as many quadrature calls as one kind alone; a float gives two floats
        calls = []
        for name in ("integrate_decaying", "integrate_decaying_2d"):
            integrate = getattr(lifshitz, name)

            def counting(f, rel_tol, *offset, integrate=integrate):
                calls.append(f)
                return integrate(f, rel_tol, *offset)

            monkeypatch.setattr(lifshitz, name, counting)
        force, curvature = force_and_curvature_sphere_plane(1e-6, T, R_SPHERE, gold_drude())
        assert isinstance(force, float) and isinstance(curvature, float)
        fused = len(calls)
        calls.clear()
        force_sphere_plane(1e-6, T, R_SPHERE, gold_drude())
        assert fused == len(calls)

    @pytest.mark.parametrize("T", [0.0, 300.0], ids=["t0-quadrature", "300k-quadrature"])
    def test_a_fused_error_names_the_kind_that_failed(self, T, monkeypatch):
        cap_the_quadrature(monkeypatch)
        with pytest.raises(ConvergenceError, match=rf"T = {T:g} K, (energy|curvature) \(") as err:
            force_and_curvature_sphere_plane(1e-6, T, R_SPHERE, gold_drude(), UNSETTLED_TOL)
        assert err.value.achieved > err.value.requested

    def test_a_t0_chunk_error_names_its_kind_and_gap(self, monkeypatch):
        # the worst (kind, gap) of a chunk is the energy at 1 um, flat index
        # 3; decoding it gap-major would name the energy at 5 um instead
        cap_the_quadrature(monkeypatch)
        gaps = np.array([1e-6, 5e-6, 2e-6])
        with pytest.raises(ConvergenceError, match=r"at d = 1\.000e-06 m, T = 0 K, energy \("):
            lifshitz._lifshitz(gaps, 0.0, gold_drude(), UNSETTLED_TOL, ("curvature", "energy"))

    def test_validates_and_warns_like_the_single_kinds(self):
        with pytest.raises(ValueError, match="radius"):
            force_and_curvature_sphere_plane(1e-6, 300.0, -1.0, gold_drude())
        with pytest.raises(ValueError, match="separation"):
            force_and_curvature_sphere_plane(np.array([1e-6, 0.0]), 300.0, R_SPHERE, gold_drude())
        with pytest.warns(PfaValidityWarning):
            force_and_curvature_sphere_plane(7e-6, 300.0, 1e-3, gold_drude())


class TestLadderLayout:
    """The (gap, n) rows of a ladder start at y = x_n, away from the y ln y
    endpoint, and from x_n = 1 try the Gauss-Laguerre pair; the zero modes
    are closed forms plus, for a lifted model, TE corrections that reach
    y = 0 and try the pair in families of up to _LADDER_ROWS gaps."""

    def test_a_curve_computes_two_thirds_of_the_values_and_one_zero_family(self, monkeypatch):
        # with the full graded opening on every row family and one zero-mode
        # family per chunk of rows, this curve computed 130,932 kernel values
        # in 45 kernel calls, over 18 quadrature calls of which 9 zero-mode
        values = []
        kernel = lifshitz._kernel

        def counting(r, table, kinds, buffers):
            out = kernel(r, table, kinds, buffers)
            values.append(out[0].size)
            return out

        monkeypatch.setattr(lifshitz, "_kernel", counting)
        calls = quadrature_calls(monkeypatch)
        gaps = np.geomspace(0.7e-6, 7e-6, 30)
        forces = force_sphere_plane_grid(gaps, 300.0, R_SPHERE, gold_drude())
        assert np.all(forces > 0.0)
        assert sum(values) <= 2 * 130_932 / 3
        assert "pair" in calls
        assert calls.count("zero") == 0, "the Drude zero mode is a closed form"

    def test_small_zero_families_match_gap_by_gap(self, monkeypatch):
        # a cap of 5 rows splits 12 gaps into three families of plasma TE
        # corrections, and packs the (gap, n) rows into chunks of 5, most
        # gaps spanning several
        monkeypatch.setattr(lifshitz, "_LADDER_ROWS", 5)
        calls = quadrature_calls(monkeypatch)
        gaps = np.geomspace(0.1e-6, 7e-6, 12)
        for model, zero_families in ((gold_drude(), 0), (gold_plasma(), 3)):
            calls.clear()
            got = force_sphere_plane_grid(gaps, 300.0, R_SPHERE, model)
            assert "panels" in calls and "pair" in calls
            assert calls.count("zero") == zero_families
            want = [force_sphere_plane(d, 300.0, R_SPHERE, model) for d in gaps]
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_a_long_curve_runs_in_groups_of_bounded_rows(self, monkeypatch):
        # a gap may need _MAX_MATSUBARA rows and the gaps run in groups of
        # under twice that, so with a cap of 1,000 the 64 gaps of ~730 rows
        # at 10 K near 1 um peak no higher than 8 of them (traced: 0.39 MB
        # each); with every row at once it was 0.80 MB against 2.1 MB
        monkeypatch.setattr(lifshitz, "_MAX_MATSUBARA", 1000)
        gaps = np.geomspace(1e-6, 1.1e-6, 64)
        peaks, sums = [], []
        for curve in (gaps[:8], gaps):
            tracemalloc.start()
            sums.append(lifshitz._matsubara_ladder(curve, 10.0, (gold_drude(),), 1e-8, ("energy",)))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]
        np.testing.assert_allclose(sums[1][..., :8], sums[0], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("T", [1.0, 10.0, 77.0, 300.0])
    @pytest.mark.parametrize(
        "model",
        [gold_drude(), gold_plasma(), ConstantModel(eps=2.0), ConstantModel(eps=1.001)],
        ids=["drude", "plasma", "constant", "dilute"],
    )
    def test_ladders_match_a_tight_pass(self, model, T):
        # x_1 = 4 pi k_B T d / (hbar c) runs from ~4e-3 (1 K, 0.7 um) to ~20
        # (300 K, 12 um), so from all of a ladder's rows to none of them lie
        # below x_n = 1 and run on the panels.  A gap is left out where its
        # ladder has more than 8,000 terms (1 K below ~0.7 um), which keeps
        # the tight pass near 100 MB of whole-grid buffers
        gaps = np.array([0.1, 0.2, 0.4, 0.7, 1.5, 3.0, 6.0, 12.0]) * 1e-6
        terms = 15.0 * HBAR * SPEED_OF_LIGHT / (2.0 * math.pi * BOLTZMANN * T * gaps)
        gaps = gaps[terms <= 8_000]
        kinds = ("energy", "curvature")
        got = lifshitz._lifshitz(gaps, T, model, 1e-8, kinds)
        want = lifshitz._lifshitz(gaps, T, model, 1e-12, kinds)
        for kind, g, w in zip(kinds, got, want):
            np.testing.assert_allclose(g, w, rtol=1e-10, atol=0.0, err_msg=kind)

    @pytest.mark.parametrize("T", [1.0, 10.0, 77.0, 300.0])
    @pytest.mark.parametrize(
        "model",
        [gold_drude(), gold_plasma(), ConstantModel(eps=2.0)],
        ids=["drude", "plasma", "constant"],
    )
    def test_ladders_stopped_at_x_40_match_ladders_run_on_to_60(self, monkeypatch, model, T):
        # a gap's terms stop below x_n = DEFAULT_CUTOFF/2 = 40; run on to 60
        # (109,334 rows at 1 K and 0.1 um, over the term cap, which this pass
        # alone raises), the ladders of every kind must not move by more than
        # 1e-13; a cap of 30/x_1 + 10 terms is ~9e-11 off at 1 K
        gaps = np.array([0.1, 0.2, 0.4, 0.7, 1.5, 3.0, 6.0, 12.0]) * 1e-6
        kinds = ("energy", "pressure", "curvature")
        got = lifshitz._matsubara_ladder(gaps, T, (model,), 1e-12, kinds)
        monkeypatch.setattr(lifshitz, "DEFAULT_CUTOFF", 120.0)
        monkeypatch.setattr(lifshitz, "_MAX_MATSUBARA", 200_000)
        want = lifshitz._matsubara_ladder(gaps, T, (model,), 1e-12, kinds)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("T", [1.0, 4.0, 10.0, 300.0])
    @pytest.mark.parametrize(
        "model",
        [gold_drude(), gold_plasma(), ConstantModel(eps=2.0), bound_charge_table()],
        ids=["drude", "plasma", "constant", "table"],
    )
    def test_laguerre_rows_meet_rel_tol_against_a_tight_panel_pass(self, monkeypatch, model, T):
        # from x_n = 1 the rows try the Gauss-Laguerre pair, and a row it
        # refuses joins the panels; every kind must stay within rel_tol of
        # a ladder whose rows all run on the panels at 1e-12.  From x_n =
        # 1e-3 the pair meets rows it cannot resolve: each accepted there
        # left the 1-10 K ladders 100 to 70,000 times rel_tol off
        gaps = np.array([0.7, 2.0, 5.0, 12.0]) * 1e-6
        accepted = []
        laguerre = lifshitz.integrate_laguerre

        def counting(f, rel_tol):
            resolved, integrals = laguerre(f, rel_tol)
            accepted.append(np.count_nonzero(resolved))
            return resolved, integrals

        monkeypatch.setattr(lifshitz, "integrate_laguerre", counting)
        kinds, got = lifshitz._KINDS, {}
        for low in (lifshitz._LAGUERRE_X, 1e-3):
            monkeypatch.setattr(lifshitz, "_LAGUERRE_X", low)
            for tol in (1e-8, 1e-10):
                got[low, tol] = lifshitz._lifshitz(gaps, T, model, tol, kinds)
        assert sum(accepted) > 0
        monkeypatch.setattr(lifshitz, "_LAGUERRE_X", math.inf)
        want = lifshitz._lifshitz(gaps, T, model, 1e-12, kinds)
        for (low, tol), values in got.items():
            for kind, g, w in zip(kinds, values, want):
                message = f"{kind}, x_n >= {low:g}, rel_tol {tol:g}"
                np.testing.assert_allclose(g, w, rtol=tol, atol=0.0, err_msg=message)

    @pytest.mark.parametrize("T", [300.0, 1000.0])
    def test_one_term_ladders_give_the_thermal_asymptote(self, T):
        # x_1 = 4 pi k_B T d / (hbar c) is 49 at 30 um and 300 K, so each gap
        # sums one row, below exp(-49) of its n = 0 term, whose Drude TM
        # reflection is 1: zeta(3) R k_B T / (8 d^2)
        gaps = np.array([30e-6, 50e-6, 100e-6])
        got = force_sphere_plane_grid(gaps, T, R_SPHERE, gold_drude())
        want = asymptote_thermal(gaps, R_SPHERE, T, "drude")
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


class TestModelAxis:
    """At T > 0 every model of a curve rides in one ladder: the rows, xi_n and
    node tables are shared, eps(i xi_n) is computed once per model, and each
    (kind, model) settles on its own scale."""

    MODELS = (
        gold_drude(),
        gold_plasma(),
        ConstantModel(eps=2.0),
        DrudeModel(omega_p=1e15, gamma=1e14),
    )
    GAPS = np.geomspace(0.2e-6, 12e-6, 7)

    @pytest.mark.parametrize(
        "kinds", [("energy",), ("pressure",), ("energy", "curvature")], ids=["e", "p", "e+c"]
    )
    def test_a_ladder_of_four_models_matches_each_model_alone(self, kinds):
        got = lifshitz._lifshitz_models(self.GAPS, 300.0, self.MODELS, 1e-8, kinds)
        assert got.shape == (len(kinds), len(self.MODELS), self.GAPS.size)
        for j, model in enumerate(self.MODELS):
            alone = lifshitz._lifshitz(self.GAPS, 300.0, model, 1e-8, kinds)
            tight = lifshitz._lifshitz(self.GAPS, 300.0, model, 1e-12, kinds)
            for kind, g, a, t in zip(kinds, got[:, j], alone, tight):
                message = f"{kind} of {model!r}"
                np.testing.assert_allclose(g, a, rtol=1e-8, atol=0.0, err_msg=message)
                np.testing.assert_allclose(g, t, rtol=1e-8, atol=0.0, err_msg=message)

    def test_four_models_share_families_of_240_model_rows(self, monkeypatch):
        # one family of n = 0 TE corrections, of the plasma model alone, as
        # every other zero mode is a closed form; the rows run 60 to a
        # family, on the Gauss-Laguerre pair from x_n = 1 and on the panels
        # below it and where the pair refuses a row
        calls, tried = quadrature_calls(monkeypatch), []
        laguerre = lifshitz.integrate_laguerre

        def trying(f, rel_tol):
            accepted, integrals = laguerre(f, rel_tol)
            tried.append(accepted)
            return accepted, integrals

        monkeypatch.setattr(lifshitz, "integrate_laguerre", trying)
        x_1 = 4.0 * math.pi * BOLTZMANN * 300.0 * self.GAPS / (HBAR * SPEED_OF_LIGHT)
        rows = np.maximum(np.ceil(40.0 / x_1) - 1.0, 1.0)
        # x_n = n x_1 below 1: three rows at 0.2 um, one at 0.39 um
        low = np.ceil(lifshitz._LAGUERRE_X / x_1) - 1.0
        assert low.tolist() == [3, 1, 0, 0, 0, 0, 0]
        lifshitz._lifshitz_models(self.GAPS, 300.0, self.MODELS, 1e-8, ("energy",))
        assert calls.count("zero") == 1
        zero = tried.pop(0)
        assert zero.size == self.GAPS.size
        assert [accepted.size for accepted in tried[:-1]] == [60] * (len(tried) - 1)
        assert sum(accepted.size for accepted in tried) == rows.sum() - low.sum()
        assert len(tried) == calls.count("pair") == math.ceil((rows.sum() - low.sum()) / 60)
        refused = sum(np.count_nonzero(~accepted) for accepted in tried)
        assert calls.count("panels") == math.ceil((low.sum() + refused) / 60)

    @pytest.mark.parametrize(
        "models, kinds, named",
        [
            # rows: the flat index 5 is (kind 1, model 2); read as an index
            # into the kinds it raised IndexError
            (
                (gold_drude(), DrudeModel(omega_p=1.2e16, gamma=5e13), DrudeModel(1e15, 1e14)),
                ("energy", "curvature"),
                "curvature of DrudeModel(omega_p=1000000000000000.0, gamma=100000000000000.0)",
            ),
            # the family of plasma TE corrections, model 1 of the ladder
            ((gold_drude(), gold_plasma()), ("pressure",), "pressure of PlasmaModel("),
        ],
        ids=["rows", "zero-mode"],
    )
    def test_an_error_past_model_0_names_its_kind_and_model(self, models, kinds, named,
                                                            monkeypatch):
        cap_the_quadrature(monkeypatch)
        gaps = np.array([1e-6, 5e-6, 2e-6])
        with pytest.raises(ConvergenceError, match=re.escape(f"T = 300 K, {named}")) as err:
            lifshitz._lifshitz_models(gaps, 300.0, models, UNSETTLED_TOL, kinds)
        assert err.value.achieved > err.value.requested

    def test_an_error_names_the_model_that_failed_not_one_settled_at_zero(self):
        # eps = 1 reflects nothing, so its rows are 0 at every node and their
        # limit underflows to 0 at rel_tol 1e-300: their 0/0 made the error
        # "achieved nan" and named the vacuum model
        models = (ConstantModel(eps=1.0), gold_drude())
        with pytest.raises(ConvergenceError, match=r"energy of DrudeModel\(") as err:
            lifshitz._lifshitz_models(np.array([1e-6]), 300.0, models, 1e-300, ("energy",))
        assert err.value.achieved > err.value.requested


class TestZeroTemperatureChunks:
    """A T = 0 curve is one 2-D integral per chunk of a few gaps, each gap
    settled on its own scale, so a chunk must not change what a gap gets."""

    @pytest.mark.parametrize(
        "kinds", [("energy",), ("energy", "curvature")], ids=["energy", "fused"]
    )
    @pytest.mark.parametrize(
        "model",
        [gold_drude(), gold_plasma(), ConstantModel(eps=1.001), TestCurvesAsArrays.drude_table()],
        ids=["drude", "plasma", "dilute", "table"],
    )
    def test_a_partial_chunk_matches_each_gap_alone(self, monkeypatch, model, kinds):
        # one gap more than a chunk holds: a full chunk, then a chunk of one
        gaps = np.geomspace(0.7e-6, 7e-6, lifshitz._T0_GAPS + 1)
        calls = []
        integrate = lifshitz.integrate_decaying_2d

        def counting(f, rel_tol):
            calls.append(rel_tol)
            return integrate(f, rel_tol)

        monkeypatch.setattr(lifshitz, "integrate_decaying_2d", counting)
        got = lifshitz._lifshitz(gaps, 0.0, model, 1e-8, kinds)
        assert len(calls) == 2
        alone = [lifshitz._lifshitz(d, 0.0, model, 1e-8, kinds) for d in gaps.tolist()]
        tight = lifshitz._lifshitz(gaps, 0.0, model, 1e-12, kinds)
        for k, kind in enumerate(kinds):
            want = [values[k] for values in alone]
            np.testing.assert_allclose(got[k], want, rtol=1e-8, atol=0.0, err_msg=kind)
            np.testing.assert_allclose(got[k], tight[k], rtol=1e-10, atol=0.0, err_msg=kind)

    @staticmethod
    def record_blocks(monkeypatch):
        """Per chunk, the t of each block its levels hand the kernel, and
        the t of each node table the curve builds."""
        chunks, builds = [], []
        table, integrate = lifshitz._table, lifshitz.integrate_decaying_2d

        def counting_table(x, t):
            builds.append(t)
            return table(x, t)

        def recording(f, rel_tol):
            chunks.append([])

            def spied(x, t):
                chunks[-1].append(t)
                return f(x, t)

            return integrate(spied, rel_tol)

        monkeypatch.setattr(lifshitz, "_table", counting_table)
        monkeypatch.setattr(lifshitz, "integrate_decaying_2d", recording)
        return chunks, builds

    @pytest.mark.parametrize("model", [gold_drude(), gold_plasma()], ids=["drude", "plasma"])
    def test_chunks_that_settle_different_rectangles_match_each_gap_alone(
        self, monkeypatch, model
    ):
        # 10 nm to 100 um in two chunks, which run the 24-node level on
        # different rectangles, so the second chunk builds the tables of its
        # own blocks there, and no block's table is built twice.
        # The Drude curve's 100 um gap is 1.2e-10 off the tight pass, within
        # rel_tol = 1e-8 and the same whichever chunk it settles in
        gaps = np.geomspace(1e-8, 1e-4, 6)
        chunks, builds = self.record_blocks(monkeypatch)
        got = lifshitz._lifshitz(gaps, 0.0, model, 1e-8, ("energy",))[0]
        assert len(chunks) == 2
        first, second = ({id(t) for t in blocks if t.shape[-1] == 24} for blocks in chunks)
        assert first and second and first.isdisjoint(second)
        handed = {id(t) for blocks in chunks for t in blocks}
        assert len(builds) == len(handed) and {id(t) for t in builds} == handed
        alone = [lifshitz._lifshitz(d, 0.0, model, 1e-8, ("energy",))[0] for d in gaps.tolist()]
        tight = lifshitz._lifshitz(gaps, 0.0, model, 1e-12, ("energy",))[0]
        np.testing.assert_allclose(got, alone, rtol=1e-8, atol=0.0)
        np.testing.assert_allclose(got, tight, rtol=1e-9, atol=0.0)

    def test_a_curve_builds_each_block_once(self, monkeypatch):
        # a block's nodes are the same for every gap, and on this curve each
        # level runs on the same rectangles in every chunk: the 6-node level
        # on all 62 in one block, the 12-node one on all of them in blocks of
        # 32 and 30, the 24-node one on a few in one, so the chunks share
        # one table of each block and every chunk hands the kernel the same
        # blocks.  A 30-gap curve is interpolated from its 12 Chebyshev
        # nodes in ln d, 4 chunks of 3; the direct path's 10 chunks computed
        # 455,760 and 946,080 kernel values, leading axes included.  23 gaps
        # are fewer than twice the nodes: computed directly, 8 chunks, the
        # last of 2 gaps
        chunks, builds = self.record_blocks(monkeypatch)
        values = []
        kernel = lifshitz._kernel

        def counting_kernel(*args):
            out = kernel(*args)
            values.append(out.size)
            return out

        monkeypatch.setattr(lifshitz, "_kernel", counting_kernel)
        for points, kinds, want, n_chunks, few in (
            (30, ("energy",), 182_304, 4, 7),
            (30, ("energy", "curvature"), 378_432, 4, 8),
            (23, ("energy",), 349_416, 8, 7),
            (23, ("energy", "curvature"), 725_328, 8, 8),
        ):
            for spied in (chunks, builds, values):
                spied.clear()
            lifshitz._lifshitz(np.linspace(0.7e-6, 7e-6, points), 0.0, gold_drude(), 1e-8, kinds)
            shapes = [t.shape[::2] for t in builds]
            assert shapes == [(62, 6), (32, 12), (30, 12), (few, 24)], (points, kinds)
            assert len(chunks) == n_chunks, (points, kinds)
            assert all([id(t) for t in blocks] == list(map(id, builds)) for blocks in chunks)
            assert sum(values) == want, (points, kinds)


class TestZeroTemperatureBlocks:
    """A T = 0 level runs its unsettled rectangles in blocks of at most
    ``quadrature._NODE_BUDGET`` nodes, so no kernel call holds a whole level
    of a chunk, and the blocks do not change what a gap gets."""

    KINDS = ("energy", "curvature")

    @pytest.mark.parametrize(
        "gaps, n_chunks",
        [(np.linspace(0.7e-6, 7e-6, 30), 4), (np.geomspace(1e-8, 1e-4, 30), 4 + 10)],
        ids=["interpolated", "direct"],
    )
    def test_no_kernel_call_exceeds_the_budget(self, monkeypatch, gaps, n_chunks):
        # a fused curve's calls hold chunk x kinds x block values; the wide
        # curve refuses its interpolant and computes its 30 gaps directly
        sizes, chunks = [], []
        integrand, integrate = lifshitz._integrand, lifshitz.integrate_decaying_2d

        def spying(*args):
            out = integrand(*args)
            sizes.append(out.size)
            return out

        def counting(f, rel_tol):
            chunks.append(rel_tol)
            return integrate(f, rel_tol)

        monkeypatch.setattr(lifshitz, "_integrand", spying)
        monkeypatch.setattr(lifshitz, "integrate_decaying_2d", counting)
        lifshitz._lifshitz(gaps, 0.0, gold_drude(), 1e-8, self.KINDS)
        assert len(chunks) == n_chunks
        bound = lifshitz._T0_GAPS * len(self.KINDS) * quadrature._NODE_BUDGET
        assert 0 < max(sizes) <= bound

    @pytest.mark.parametrize(
        "model",
        [gold_drude(), gold_plasma(), TestCurvesAsArrays.drude_table()],
        ids=["drude", "plasma", "table"],
    )
    def test_a_huge_budget_gives_the_same_integrals(self, monkeypatch, model):
        # one block a level: the same cells refine, and a rectangle's sum
        # may move in its last bit with the number of rectangles in a call
        gaps = np.geomspace(1e-8, 1e-4, 6)
        calls = []
        integrand = lifshitz._integrand

        def counting(*args):
            calls.append(None)
            return integrand(*args)

        monkeypatch.setattr(lifshitz, "_integrand", counting)
        blocked = lifshitz._t0_direct(gaps, model, 1e-8, self.KINDS)
        n_blocked = len(calls)
        monkeypatch.setattr(quadrature, "_NODE_BUDGET", 10**9)
        whole = lifshitz._t0_direct(gaps, model, 1e-8, self.KINDS)
        assert len(calls) - n_blocked < n_blocked
        np.testing.assert_allclose(blocked, whole, rtol=1e-14, atol=0.0)


class TestZeroTemperatureInterpolant:
    """A T = 0 curve of at least 2 ``_T0_NODES`` gaps is a Chebyshev
    interpolant in ln d of the integrals at ``_T0_NODES`` nodes, taken only
    when its trailing coefficients say it meets rel_tol; otherwise, and for
    shorter curves, every gap is computed directly."""

    GRIDS = {
        "linspace": np.linspace(0.7e-6, 7e-6, 30),
        "geomspace": np.geomspace(0.7e-6, 7e-6, 30),
        "wide": np.geomspace(1e-8, 1e-4, 30),
    }
    MODELS = {
        "drude": gold_drude(),
        "plasma": gold_plasma(),
        "eps2": ConstantModel(eps=2.0),
        "table": TestCurvesAsArrays.drude_table(),
    }
    KINDS = [("energy",), ("pressure",), ("curvature",), ("energy", "curvature")]

    @staticmethod
    def kernel_values(monkeypatch):
        values = []
        kernel = lifshitz._kernel

        def counting_kernel(*args):
            out = kernel(*args)
            values.append(out.size)
            return out

        monkeypatch.setattr(lifshitz, "_kernel", counting_kernel)
        return values

    @classmethod
    @functools.cache
    def tight(cls, grid, model):
        """A direct 1e-12 pass of every kind, which no interpolant passes for."""
        return lifshitz._t0_direct(cls.GRIDS[grid], cls.MODELS[model], 1e-12, lifshitz._KINDS)

    @pytest.mark.parametrize("kinds", KINDS, ids=["energy", "pressure", "curvature", "fused"])
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("grid", GRIDS)
    def test_every_gap_meets_rel_tol_at_most_one_and_a_half_times_the_direct_cost(
        self, monkeypatch, grid, model, kinds
    ):
        # a rejected interpolant costs its 12 nodes on top of the 30 gaps
        tight = self.tight(grid, model)[[lifshitz._KINDS.index(kind) for kind in kinds]]
        gaps, model = self.GRIDS[grid], self.MODELS[model]
        values = self.kernel_values(monkeypatch)
        for rel_tol in (1e-8, 1e-10):
            values.clear()
            direct = lifshitz._t0_direct(gaps, model, rel_tol, kinds)
            direct_cost = sum(values)
            values.clear()
            got = lifshitz._t0_curve(gaps, model, rel_tol, kinds)
            assert sum(values) <= 1.5 * direct_cost, rel_tol
            assert np.all(np.abs(got / tight - 1.0) <= rel_tol), rel_tol

    @pytest.mark.parametrize(
        "gaps, kind, rel_tol",
        [
            (np.geomspace(1e-8, 1e-4, 30), "pressure", 1e-3),
            (np.geomspace(1e-8, 1e-6, 30), "energy", 3e-5),
        ],
        ids=["wide-pressure", "small-gaps-energy"],
    )
    def test_trailing_coefficients_are_weighed_against_the_smallest_value(
        self, gaps, kind, rel_tol
    ):
        # weighed against the largest coefficient, these trailing ones pass
        # and the curves miss rel_tol by up to 1.9 times (wide-pressure), as
        # the reduced integrals shrink toward small gaps
        got = lifshitz._t0_curve(gaps, gold_drude(), rel_tol, (kind,))
        tight = lifshitz._t0_direct(gaps, gold_drude(), 1e-12, (kind,))
        assert np.all(np.abs(got / tight - 1.0) <= rel_tol)

    @pytest.mark.parametrize("model", [gold_drude(), gold_plasma()], ids=["drude", "plasma"])
    def test_the_benchmark_grid_is_interpolated_at_under_half_the_cost(self, monkeypatch, model):
        grid = np.geomspace(0.7e-6, 7e-6, 30)
        values = self.kernel_values(monkeypatch)
        direct = lifshitz._t0_direct(grid, model, 1e-8, ("energy",))
        direct_cost = sum(values)
        values.clear()
        got = lifshitz._lifshitz(grid, 0.0, model, 1e-8, ("energy",))[0]
        assert sum(values) < 0.5 * direct_cost
        want = HBAR * SPEED_OF_LIGHT / (32.0 * math.pi ** 2 * grid ** 3) * direct[0]
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize(
        "gaps",
        [
            np.linspace(0.7e-6, 7e-6, 2 * lifshitz._T0_NODES - 1),
            np.full(2 * lifshitz._T0_NODES, 1e-6),
        ],
        ids=["one-gap-short", "one-distinct-gap"],
    )
    def test_a_curve_without_an_interpolant_is_the_direct_path_bit_for_bit(self, gaps):
        kinds = ("energy", "curvature")
        got = lifshitz._t0_curve(gaps, gold_drude(), 1e-8, kinds)
        np.testing.assert_array_equal(got, lifshitz._t0_direct(gaps, gold_drude(), 1e-8, kinds))

    def test_an_error_at_a_node_names_the_curves_gap_range(self, monkeypatch):
        # the nodes are no gaps of the caller's: the message names the
        # range of the curve's gaps, not the node's own gap
        cap_the_quadrature(monkeypatch)
        gaps = np.geomspace(1e-6, 5e-6, 30)
        where = r"at d in \[1\.000e-06, 5\.000e-06\] m, T = 0 K, energy \("
        with pytest.raises(ConvergenceError, match=where) as err:
            lifshitz._lifshitz(gaps, 0.0, gold_drude(), UNSETTLED_TOL, ("energy",))
        assert err.value.requested == UNSETTLED_TOL
        assert err.value.achieved > err.value.requested


class TestKernel:
    S = (0.0, 1e-300, 1e-30, 1e-13, 1e-6, 0.5, 1.0 - 1e-6)

    def test_energy_takes_one_log1p_for_both_polarizations(self):
        """The energy kernel takes ln(1 - s_te) + ln(1 - s_tm) as one
        log1p(s_te s_tm - s_te - s_tm).

        Each step of that argument rounds a number of size <= 2 by at most
        ulp(1), 2 ulp(1) in all, so the log is within
        2 ulp(1)/((1 - s_te)(1 - s_tm)) of the two-log1p sum, plus the ulp
        each side rounds its own result by.  Where both s <= 0.5 the terms
        are as accurate relative to themselves, and the two agree to a few
        ulp.  ln((1 - s_te)(1 - s_tm)) is not the merged form: 1 - s rounds
        s to a multiple of ulp(1)/2, so s = 1e-13 would keep ~3 digits and
        s = 1e-30 none, and a Matsubara row far up a ladder is all such s.
        """
        pairs = np.array(list(itertools.product(self.S, repeat=2))).T
        table = lifshitz._table(0.0, np.ones(pairs.shape[1]))  # the factor y is then exact
        expy = table[2]
        r = np.sqrt(pairs / expy)
        s_te, s_tm = np.square(r) * expy  # as the kernel forms s
        want = np.log1p(-s_te) + np.log1p(-s_tm)
        got = lifshitz._kernel(r.copy(), table, ("energy",), lifshitz._Buffers())[0]
        small = (s_te <= 0.5) & (s_tm <= 0.5)
        np.testing.assert_array_max_ulp(got[small], want[small], maxulp=4)
        ulp = np.finfo(float).eps
        bound = 2.0 * ulp / ((1.0 - s_te) * (1.0 - s_tm)) + 2.0 * ulp * np.abs(want)
        assert np.all(np.abs(got - want) <= bound)

    #: |r| <= 1 at y != 1, so y, y^2 and y^3 differ; x = t = y/2 exactly
    R = (0.0, 1e-150, 1e-15, 1e-3, 0.5, 0.99, 1.0)
    Y = (1e-3, 0.3, 2.5, 17.0)

    def rows(self):
        """A table of the Y as a column, r of every (r_te, r_tm) pair of R
        on each row, and s = r^2 exp(-y) as the kernel forms it."""
        half = 0.5 * np.array(self.Y)[:, None]
        table = lifshitz._table(half, half)
        pairs = np.array(list(itertools.product(self.R, repeat=2))).T
        r = np.repeat(pairs[:, None, :], len(self.Y), axis=1)
        return table, r, np.square(r) * table[2]

    @pytest.mark.parametrize("kind, power", [("pressure", 1), ("curvature", 2)])
    def test_pressure_and_curvature_against_their_sums(self, kind, power):
        # pressure y^2 sum s/(1 - s), curvature y^3 sum s/(1 - s)^2, with
        # y^2 read from the table
        table, r, (s_te, s_tm) = self.rows()
        y = table[0]
        assert np.array_equal(y[:, 0], self.Y)
        want = y ** (power + 1) * (s_te / (1.0 - s_te) ** power + s_tm / (1.0 - s_tm) ** power)
        got = lifshitz._kernel(r, table, (kind,), lifshitz._Buffers())[0]
        assert got.shape == want.shape
        np.testing.assert_array_max_ulp(got, want, maxulp=4)

    @pytest.mark.parametrize(
        "kinds", [("energy", "curvature"), lifshitz._KINDS], ids=["energy-curvature", "all"]
    )
    def test_a_fused_call_gives_each_kind_its_single_call_bit_for_bit(self, kinds):
        table, r, _ = self.rows()
        fused = lifshitz._kernel(r.copy(), table, kinds, lifshitz._Buffers())
        for kind, got in zip(kinds, fused):
            alone = lifshitz._kernel(r.copy(), table, (kind,), lifshitz._Buffers())[0]
            np.testing.assert_array_equal(got, alone, err_msg=kind)


class TestSensitivityBand:
    WP = (1.04e16, 1.37e16)  # rad/s, roughly the gold literature spread
    G = (3.0e13, 9.3e13)

    def test_degenerate_ranges_collapse(self):
        wp = (1.1455e16, 1.1455e16)
        g = (7.75e13, 7.75e13)
        band = sensitivity_band([1e-6], 300.0, wp, g, "drude", R_SPHERE)
        assert band.f_min[0] == band.f_center[0] == band.f_max[0]

    def test_envelope_orders_and_brackets_center(self):
        band = sensitivity_band(
            np.geomspace(0.7e-6, 7e-6, 5), 300.0, self.WP, self.G, "drude", R_SPHERE
        )
        assert np.all(band.f_min <= band.f_center)
        assert np.all(band.f_center <= band.f_max)
        assert np.all(band.f_min > 0.0)

    def test_plasma_family_ignores_dissipation_axis(self):
        band_a = sensitivity_band([1e-6], 300.0, self.WP, (1e13, 2e13), "plasma", R_SPHERE)
        band_b = sensitivity_band([1e-6], 300.0, self.WP, (5e13, 9e13), "plasma", R_SPHERE)
        assert band_a.f_min[0] == pytest.approx(band_b.f_min[0], rel=1e-12, abs=0.0)
        assert band_a.f_max[0] == pytest.approx(band_b.f_max[0], rel=1e-12, abs=0.0)

    def test_each_distinct_parameter_set_runs_once(self, monkeypatch):
        # at T > 0 every distinct parameter set rides in one ladder; at T = 0
        # each is one curve
        ladders, curves = [], []
        ladder, curve = lifshitz._matsubara_ladder, lifshitz._t0_curve

        def recording_ladder(d, T, models, rel_tol, kinds):
            ladders.append(models)
            return ladder(d, T, models, rel_tol, kinds)

        def recording_curve(gaps, model, rel_tol, kinds):
            curves.append(model)
            return curve(gaps, model, rel_tol, kinds)

        monkeypatch.setattr(lifshitz, "_matsubara_ladder", recording_ladder)
        monkeypatch.setattr(lifshitz, "_t0_curve", recording_curve)
        for family, kind, distinct in (("drude", DrudeModel, 5), ("plasma", PlasmaModel, 3)):
            ladders.clear()
            curves.clear()
            sensitivity_band([1e-6, 2e-6], 300.0, self.WP, self.G, family, R_SPHERE)
            [models] = ladders
            assert len(models) == len(set(models)) == distinct
            assert all(isinstance(model, kind) for model in models)
            sensitivity_band([1e-6], 0.0, self.WP, self.G, family, R_SPHERE)
            assert curves == list(models)

    def test_grid_is_the_pointwise_force(self):
        # a panel family settles against its largest member, so a gap whose
        # rows share one with other gaps' may round apart from its ladder
        # alone by a few ulp; the pair keeps each row on its own value, and
        # at 300 K on 0.7-7 um it keeps every n >= 1 row: over 40 random
        # grids of 2 to 8 gaps, Drude and plasma, 454 gaps in all, the two
        # agree bit for bit
        grid = np.geomspace(0.8e-6, 5e-6, 3)
        forces = force_sphere_plane_grid(grid, 300.0, R_SPHERE, gold_drude())
        want = [force_sphere_plane(d, 300.0, R_SPHERE, gold_drude()) for d in grid]
        np.testing.assert_array_max_ulp(forces, np.array(want), maxulp=4)

    @pytest.mark.parametrize("family", ["drude", "plasma"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", ["omega_p", "gamma"])
    def test_non_finite_range_is_refused_before_any_curve(self, monkeypatch, axis, bad, family):
        # the plasma family used to drop a NaN dissipation bound unseen
        def forbidden(*args, **kwargs):
            raise AssertionError("curve computed from a non-finite range")

        monkeypatch.setattr(lifshitz, "_lifshitz_models", forbidden)
        ranges = {"omega_p": self.WP, "gamma": self.G}
        ranges[axis] = (ranges[axis][0], bad)
        with pytest.raises(ValueError, match="positive and finite"):
            sensitivity_band([1e-6], 300.0, ranges["omega_p"], ranges["gamma"], family, R_SPHERE)

    @pytest.mark.parametrize("bad", ["1.3e16", b"1.3e16", None, True])
    @pytest.mark.parametrize("axis", ["omega_p", "gamma"])
    def test_non_numeric_range_is_refused_before_any_curve(self, monkeypatch, axis, bad):
        # float("1.3e16") used to turn a string range into a band
        def forbidden(*args, **kwargs):
            raise AssertionError("curve computed from a non-numeric range")

        monkeypatch.setattr(lifshitz, "_lifshitz_models", forbidden)
        ranges = {"omega_p": self.WP, "gamma": self.G}
        ranges[axis] = (bad, ranges[axis][1])
        named = rf"{axis}_range must be .*, got {re.escape(repr(bad))}"
        with pytest.raises(ValueError, match=named):
            sensitivity_band([1e-6], 300.0, ranges["omega_p"], ranges["gamma"], "drude", R_SPHERE)

    def test_a_band_integrates_its_zero_modes_in_one_family(self, monkeypatch):
        # the TE corrections of the plasma band's three zero modes are one
        # family of rows at x = 0, which the pair takes whole; the five Drude
        # zero modes are the zeta(3) closed form and take none.  No row of
        # either band runs on the panels
        calls = quadrature_calls(monkeypatch)
        grid = np.geomspace(0.7e-6, 7e-6, 30)
        for family, zero_families in (("plasma", 1), ("drude", 0)):
            calls.clear()
            sensitivity_band(grid, 300.0, self.WP, self.G, family, R_SPHERE)
            assert "pair" in calls, family
            assert calls.count("zero") == zero_families, family
            assert "panels" not in calls, family

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sensitivity_band([], 300.0, self.WP, self.G, "drude", R_SPHERE)
        with pytest.raises(ValueError):
            sensitivity_band([1e-6], 300.0, self.WP, self.G, "lorentz", R_SPHERE)
        with pytest.raises(ValueError):
            sensitivity_band([1e-6], 300.0, (-1.0, 1e16), self.G, "drude", R_SPHERE)


class TestZeroModeClosedForms:
    """The n = 0 closed forms against references that share no code with them."""

    @pytest.mark.parametrize("z", [0.01, 0.5, 1.0 - 1e-3, 1.0 - 1e-8, 1.0 - 1e-15])
    def test_polylog3_matches_mpmath(self, z):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        want = float(mpmath.polylog(3, mpmath.mpf(z)))
        assert lifshitz._polylog3(z) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_polylog3_is_zeta3_exactly_at_one(self):
        assert lifshitz._polylog3(1.0) == ZETA3

    @pytest.mark.parametrize("P", [0.09, 0.9, 64.0, 183.0, 640.0])
    def test_te_correction_matches_scipy_quadrature(self, P):
        # r_te = (y - kappa)/(y + kappa), kappa^2 = y^2 + P^2: each kind's
        # integrand minus the ideal mirror's, summed by scipy from logs and
        # ratios written without the engine's rearrangement
        quad = pytest.importorskip("scipy.integrate").quad

        def kernels(y):
            kappa = math.hypot(y, P)
            s = ((y - kappa) / (y + kappa)) ** 2 * math.exp(-y)
            s0 = math.exp(-y)
            lost = -math.expm1(-y) + 4.0 * y * kappa / (y + kappa) ** 2 * s0
            ideal = -math.expm1(-y)
            return (
                y * (math.log(lost) - math.log(ideal)),
                y**2 * (s / lost - s0 / ideal),
                y**3 * (s / lost**2 - s0 / ideal**2),
            )

        got = [
            lifshitz.integrate_decaying(
                lambda t: lifshitz._te_correction(lifshitz._table(0.0, t), P * P, (kind,)), 1e-13
            )[0]
            for kind in lifshitz._KINDS
        ]
        for m, kind in enumerate(lifshitz._KINDS):
            want = quad(lambda y: kernels(y)[m], 0.0, np.inf, epsabs=0.0, epsrel=1e-13,
                        limit=200)[0]
            assert got[m] == pytest.approx(want, rel=1e-12, abs=0.0), kind
