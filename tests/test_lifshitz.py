"""Force engine against closed forms, frozen cross-checked values, and
internal consistency (derivatives, limits, truncation, input validation).

Frozen reference numbers below were computed two independent ways before
being pinned: the packaged panel quadrature and a brute-force fixed
tensor-product Gauss rule at three resolutions (24/48/96 nodes per panel,
cutoff 120), which agreed to nine significant digits.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casimir_lab import lifshitz
from casimir_lab.constants import BOLTZMANN, HBAR, SPEED_OF_LIGHT, ZETA3
from casimir_lab.dielectric import (
    ConstantModel,
    OpticalTable,
    TabulatedModel,
    gold_drude,
    gold_plasma,
    static_eps,
)
from casimir_lab.errors import ConvergenceError, PfaValidityWarning
from casimir_lab.lifshitz import (
    QuadratureSpec,
    asymptote_thermal,
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
    drude_free_energy,
    ideal_metal_crossover,
    ideal_metal_free_energy,
    ideal_t0_free_energy,
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
        w = np.geomspace(1e14, 1e17, 300)
        table = OpticalTable(omega=w, eps_imag=1e45 * w / ((1e31 - w**2) ** 2 + (1e14 * w) ** 2))
        model = TabulatedModel(table=table, extrapolation=None)
        s = static_eps(model)
        assert s > 1.5
        r = reflection_coeffs_zero_mode(np.array([1e4, 1e6]), model)
        np.testing.assert_array_equal(r.r_te, 0.0)
        np.testing.assert_array_equal(r.r_tm, (s - 1.0) / (s + 1.0))


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
        w = np.geomspace(1e14, 1e17, 300)
        table = OpticalTable(omega=w, eps_imag=1e45 * w / ((1e31 - w**2) ** 2 + (1e14 * w) ** 2))
        model = TabulatedModel(table=table, extrapolation=None)
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
        loose = free_energy_per_area(d, 300.0, gold, QuadratureSpec(rel_tol=1e-6))
        tight = free_energy_per_area(d, 300.0, gold, QuadratureSpec(rel_tol=1e-10))
        assert abs(loose - tight) / abs(tight) < 5e-6

    def test_matsubara_cap_raises_convergence_error(self):
        with pytest.raises(ConvergenceError, match=r"d = 7\.000e-07 m, T = 300 K, energy") as err:
            free_energy_per_area(
                0.7e-6, 300.0, gold_drude(), QuadratureSpec(max_matsubara=1)
            )
        assert err.value.achieved > err.value.requested

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
        ],
        ids=["t0-energy", "t0-curvature", "300k-chunk"],
    )
    def test_unsettled_quadrature_names_where_it_ran(self, d, T, kind, where):
        # T = 0 names the gap, T > 0 the gap range of the failing chunk
        spec = QuadratureSpec(rel_tol=1e-16)
        with pytest.raises(ConvergenceError, match=where) as err:
            lifshitz._lifshitz(d, T, gold_drude(), spec, kind)
        assert err.value.requested == 1e-16
        assert err.value.achieved > err.value.requested

    def test_cap_at_the_decay_cap_is_not_a_cut(self):
        # at 7 um the ladder's own cap is 13 terms; max_matsubara = 13 sums
        # the same terms, and max_matsubara = 3 cuts a tail below rel_tol
        d = 7e-6
        full = free_energy_per_area(d, 300.0, gold_drude())
        same = free_energy_per_area(d, 300.0, gold_drude(), QuadratureSpec(max_matsubara=13))
        cut = free_energy_per_area(d, 300.0, gold_drude(), QuadratureSpec(max_matsubara=3))
        assert same == full
        assert cut == pytest.approx(full, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("model", [gold_drude(), gold_plasma()], ids=["drude", "plasma"])
    def test_ladder_meets_rel_tol_against_a_tight_ladder(self, model):
        # every term up to the decay cap counts: the slowly decaying tail at
        # small gaps used to be cut at the first term below rel_tol, which
        # left the sum off by up to 4e-8 at 0.1 um
        gaps = np.geomspace(0.1e-6, 7e-6, 9)
        tight = QuadratureSpec(rel_tol=1e-12)
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

    def test_quadrature_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=1e-2)
        with pytest.raises(ValueError):
            QuadratureSpec(max_matsubara=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.5, 100.0, True, False])
    def test_max_matsubara_must_be_an_integer(self, bad):
        # a float cap used to reach the ladder's integer cast (NaN as a
        # RuntimeWarning there); a bool is an int to Python but no cap
        with pytest.raises(ValueError, match="max_matsubara"):
            QuadratureSpec(max_matsubara=bad)

    def test_max_matsubara_takes_numpy_integers(self):
        assert QuadratureSpec(max_matsubara=np.int64(13)).max_matsubara == 13

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
        # each doubling level computes eps once per distinct frequency node
        # and gathers it per rectangle; a 2000-row table makes a per-rectangle
        # eps four times slower.  The tensor-product grid of 121 panel pairs
        # computed 296 values here; the L-shaped layout must not compute more
        model = self.drude_table()
        values = []
        eps = lifshitz.eps_imag_axis

        def counting(m, xi):
            values.append(np.size(xi))
            return eps(m, xi)

        monkeypatch.setattr(lifshitz, "eps_imag_axis", counting)
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

    def test_chunks_keep_gaps_whole_and_isolate_long_ladders(self, monkeypatch):
        monkeypatch.setattr(lifshitz, "_LADDER_ROWS", 80)
        chunks = list(lifshitz._chunks([30, 30, 30, 100, 10, 70, 5]))
        assert [(c.start, c.stop) for c in chunks] == [(0, 2), (2, 3), (3, 4), (4, 6), (6, 7)]

    @pytest.mark.parametrize("model", [gold_drude(), gold_plasma()], ids=["drude", "plasma"])
    def test_each_gap_meets_rel_tol_in_a_mixed_chunk(self, monkeypatch, model):
        # the quadrature settles a family against its largest member; a
        # small ladder batched with a large one must still meet rel_tol
        monkeypatch.setattr(lifshitz, "_LADDER_ROWS", 10_000)
        calls = []
        integrate = lifshitz.integrate_decaying

        def counting(f, rel_tol):
            calls.append(rel_tol)
            return integrate(f, rel_tol)

        gaps = np.array([0.2e-6, 12e-6, 1e-6, 5e-6])
        tight = QuadratureSpec(rel_tol=1e-12)
        kinds = {
            "energy": lambda d, spec: free_energy_per_area(d, 300.0, model, spec),
            "pressure": lambda d, spec: pressure_parallel(d, 300.0, model, spec),
            "curvature": lambda d, spec: force_curvature_sphere_plane(
                d, 300.0, R_SPHERE, model, spec
            ),
        }
        monkeypatch.setattr(lifshitz, "integrate_decaying", counting)
        for kind, fn in kinds.items():
            want = [fn(float(d), tight) for d in gaps]
            calls.clear()
            batched = fn(gaps, QuadratureSpec())
            assert len(calls) == 2, "zero modes and rows, one family each"
            np.testing.assert_allclose(batched, want, rtol=1e-8, atol=0.0, err_msg=kind)

    def test_chunked_curve_matches_gap_by_gap(self):
        # 0.1 um carries ~190 rows and runs alone; the rest share chunks
        gaps = np.geomspace(0.1e-6, 7e-6, 12)
        for model in (gold_drude(), gold_plasma()):
            got = force_sphere_plane_grid(gaps, 300.0, R_SPHERE, model)
            want = [force_sphere_plane(d, 300.0, R_SPHERE, model) for d in gaps]
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


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
        models = []
        grid = lifshitz.force_sphere_plane_grid

        def counting_grid(separations, T, R, model, spec):
            models.append(model)
            return grid(separations, T, R, model, spec)

        monkeypatch.setattr(lifshitz, "force_sphere_plane_grid", counting_grid)
        for family, distinct in (("drude", 5), ("plasma", 3)):
            models.clear()
            sensitivity_band([1e-6], 300.0, self.WP, self.G, family, R_SPHERE)
            assert len(models) == len(set(models)) == distinct

    def test_grid_is_the_pointwise_force(self):
        grid = np.geomspace(0.8e-6, 5e-6, 3)
        forces = force_sphere_plane_grid(grid, 300.0, R_SPHERE, gold_drude())
        want = [force_sphere_plane(d, 300.0, R_SPHERE, gold_drude()) for d in grid]
        np.testing.assert_array_equal(forces, want)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sensitivity_band([], 300.0, self.WP, self.G, "drude", R_SPHERE)
        with pytest.raises(ValueError):
            sensitivity_band([1e-6], 300.0, self.WP, self.G, "lorentz", R_SPHERE)
        with pytest.raises(ValueError):
            sensitivity_band([1e-6], 300.0, (-1.0, 1e16), self.G, "drude", R_SPHERE)
