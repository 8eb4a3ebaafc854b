"""Dielectric models on the imaginary frequency axis.

The tabulated route is checked against two closed forms it must reproduce:
a Drude metal whose dispersion integral has an exact answer, and a Lorentz
oscillator whose imaginary-axis permittivity is algebraic.  Both comparisons
probe the full assembly of below-table, in-table and above-table pieces.
"""

import math
import re

import numpy as np
import pytest

from casimir_lab import dielectric
from casimir_lab.constants import ev_to_angular_frequency
from casimir_lab.dielectric import (
    GOLD_GAMMA_EV,
    GOLD_OMEGA_P_EV,
    ConstantModel,
    DrudeModel,
    OpticalTable,
    PlasmaModel,
    TabulatedModel,
    _tail_integral,
    eps_imag_axis,
    gold_drude,
    gold_plasma,
    load_optical_table,
    static_eps,
)
from casimir_lab.errors import ConvergenceError, ValidationError


def lorentz_table(w0=5e15, gamma=5e14, strength=2.0, n=4000):
    """Single-oscillator absorption table plus its exact imaginary-axis form."""
    w = np.geomspace(1e-3 * w0, 1e3 * w0, n)
    eps2 = strength * w0**2 * gamma * w / ((w0**2 - w**2) ** 2 + (gamma * w) ** 2)
    model = TabulatedModel(
        table=OpticalTable(omega=w, eps_imag=eps2),
        extrapolation=None,
        tail_exponent=3.0,
    )

    def exact(xi):
        return 1.0 + strength * w0**2 / (w0**2 + xi**2 + gamma * xi)

    return model, exact, w0


class TestAnalyticModels:
    def test_drude_closed_form(self):
        m = DrudeModel(omega_p=1e16, gamma=5e13)
        xi = 2e15
        assert eps_imag_axis(m, xi) == pytest.approx(
            1.0 + 1e32 / (xi * (xi + 5e13)), rel=1e-14, abs=0.0
        )

    def test_gold_drude_at_its_plasma_frequency(self):
        gold = gold_drude()
        # 1 + 1/(1 + gamma/omega_p) with gamma/omega_p = 0.051/7.54
        assert eps_imag_axis(gold, gold.omega_p) == pytest.approx(1.9932815, rel=1e-6)

    def test_plasma_closed_form(self):
        m = PlasmaModel(omega_p=1e16)
        assert eps_imag_axis(m, 5e15) == pytest.approx(1.0 + 4.0, rel=1e-14, abs=0.0)

    def test_constant_model_is_frequency_independent(self):
        m = ConstantModel(eps=11.5)
        xi = np.geomspace(1e10, 1e18, 9)
        np.testing.assert_array_equal(np.asarray(eps_imag_axis(m, xi)), np.full(9, 11.5))

    def test_monotone_decreasing_on_the_axis(self):
        xi = np.geomspace(1e12, 1e18, 200)
        for m in (gold_drude(), gold_plasma()):
            eps = np.asarray(eps_imag_axis(m, xi))
            assert np.all(np.diff(eps) < 0.0)
            assert np.all(eps > 1.0)

    def test_from_ev_constructors(self):
        d = DrudeModel.from_ev(GOLD_OMEGA_P_EV, GOLD_GAMMA_EV)
        assert d.omega_p == pytest.approx(ev_to_angular_frequency(7.54), rel=1e-14)
        assert d.gamma == pytest.approx(ev_to_angular_frequency(0.051), rel=1e-14)
        p = PlasmaModel.from_ev(GOLD_OMEGA_P_EV)
        assert p.omega_p == d.omega_p
        assert gold_drude() == d
        assert gold_plasma() == p

    def test_scalar_in_scalar_out(self):
        assert np.isscalar(eps_imag_axis(gold_drude(), 1e15))

    def test_rejects_nonpositive_xi(self):
        with pytest.raises(ValueError):
            eps_imag_axis(gold_drude(), 0.0)
        with pytest.raises(ValueError):
            eps_imag_axis(gold_drude(), np.array([1e15, -1e15]))

    def test_model_validation(self):
        with pytest.raises(ValidationError):
            DrudeModel(omega_p=-1.0, gamma=1e13)
        with pytest.raises(ValidationError):
            DrudeModel(omega_p=1e16, gamma=0.0)
        with pytest.raises(ValidationError):
            PlasmaModel(omega_p=0.0)
        with pytest.raises(ValidationError):
            ConstantModel(eps=0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(ValidationError):
            DrudeModel(omega_p=bad, gamma=1e13)
        with pytest.raises(ValidationError):
            DrudeModel(omega_p=1e16, gamma=bad)
        with pytest.raises(ValidationError):
            PlasmaModel(omega_p=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_permittivity_and_tail_exponent_rejected(self, bad):
        with pytest.raises(ValidationError, match=f"permittivity .* got {bad}"):
            ConstantModel(eps=bad)
        table = OpticalTable(omega=np.array([1e15, 2e15]), eps_imag=np.array([1.0, 0.5]))
        with pytest.raises(ValidationError, match=f"tail exponent .* got {bad}"):
            TabulatedModel(table=table, extrapolation=None, tail_exponent=bad)

    @pytest.mark.parametrize("bad", ["1e16", None, True, np.array([1e16])])
    def test_non_numeric_parameters_rejected(self, bad):
        # a string or an array used to escape as a TypeError
        for make, named in (
            (lambda: DrudeModel(omega_p=bad, gamma=1e13), "plasma frequency"),
            (lambda: DrudeModel(omega_p=1e16, gamma=bad), "dissipation rate"),
            (lambda: PlasmaModel(omega_p=bad), "plasma frequency"),
            (lambda: ConstantModel(eps=bad), "permittivity"),
        ):
            with pytest.raises(ValidationError, match=named):
                make()

    def test_tabulated_model_refuses_a_table_that_is_no_optical_table(self):
        with pytest.raises(ValidationError, match="OpticalTable"):
            TabulatedModel(table=np.ones(3), extrapolation=None)

    @pytest.mark.parametrize("extrapolation", [ConstantModel(2.0), "drude", 2.0])
    def test_tabulated_model_holds_one_continuation(self, extrapolation):
        # a constant continuation used to be absent from the transform while
        # the zero mode took its eps: two physics in one model
        table = OpticalTable(omega=np.array([1e15, 2e15]), eps_imag=np.array([1.0, 0.5]))
        with pytest.raises(ValidationError, match="extrapolation"):
            TabulatedModel(table=table, extrapolation=extrapolation)

    def test_tabulated_model_takes_each_allowed_continuation(self):
        table = OpticalTable(omega=np.array([1e15, 2e15]), eps_imag=np.array([1.0, 0.5]))
        for extrapolation in (gold_drude(), gold_plasma(), None):
            assert TabulatedModel(table, extrapolation).extrapolation is extrapolation

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_xi_rejected(self, bad):
        tabulated, _, _ = lorentz_table(n=50)
        for m in (gold_drude(), gold_plasma(), ConstantModel(eps=3.0), tabulated):
            with pytest.raises(ValueError, match=f"xi must be positive and finite, got {bad}"):
                eps_imag_axis(m, bad)
            with pytest.raises(ValueError, match=f"got {bad}"):
                eps_imag_axis(m, np.array([1e15, bad]))


class TestTabulatedKramersKronig:
    def test_lorentz_oscillator_four_decades(self):
        model, exact, w0 = lorentz_table()
        xi = np.geomspace(0.01 * w0, 100.0 * w0, 60)
        got = np.asarray(eps_imag_axis(model, xi))
        rel = np.abs(got - exact(xi)) / exact(xi)
        assert rel.max() < 5e-3
        # the dense table actually does far better; catch regressions early
        assert rel.max() < 1e-4

    def test_drude_table_with_drude_extrapolation_round_trip(self):
        gold = gold_drude()
        wp, g = gold.omega_p, gold.gamma
        w = np.geomspace(1e13, 1e18, 3000)
        eps2 = wp**2 * g / (w * (w**2 + g**2))
        model = TabulatedModel(
            table=OpticalTable(omega=w, eps_imag=eps2),
            extrapolation=gold,
            tail_exponent=3.0,
        )
        xi = np.geomspace(1e13, 1e17, 40)
        got = np.asarray(eps_imag_axis(model, xi))
        want = 1.0 + wp**2 / (xi * (xi + g))
        np.testing.assert_allclose(got, want, rtol=1e-4)

    def test_low_band_degenerate_point_is_continuous(self):
        # the closed-form low-frequency piece has a removable singularity at
        # xi = gamma; the guarded evaluation must stay on the curve
        gold = gold_drude()
        g = gold.gamma
        w = np.geomspace(1e13, 1e18, 1500)
        eps2 = gold.omega_p**2 * g / (w * (w**2 + g**2))
        model = TabulatedModel(
            table=OpticalTable(omega=w, eps_imag=eps2),
            extrapolation=gold,
            tail_exponent=3.0,
        )
        at = eps_imag_axis(model, g)
        lo = eps_imag_axis(model, g * (1.0 - 1e-8))
        hi = eps_imag_axis(model, g * (1.0 + 1e-8))
        # eps decreases with xi, so the neighbours bracket the guarded value
        assert hi <= at <= lo

    def test_plasma_extrapolation_diverges_like_inverse_xi_squared(self):
        plasma = gold_plasma()
        w = np.geomspace(1e15, 1e18, 800)
        # any positive absorption table; the low end is dominated by the
        # extrapolation's 1/xi^2 pole
        eps2 = 1e30 / w**2
        model = TabulatedModel(
            table=OpticalTable(omega=w, eps_imag=eps2),
            extrapolation=plasma,
            tail_exponent=3.0,
        )
        xi_small = 1e12
        got = eps_imag_axis(model, xi_small)
        assert got == pytest.approx(1.0 + plasma.omega_p**2 / xi_small**2, rel=1e-3)

    def test_static_eps_matches_small_xi_limit(self):
        model, exact, w0 = lorentz_table()
        s = static_eps(model)
        assert s == pytest.approx(3.0, rel=1e-2)
        assert s == pytest.approx(eps_imag_axis(model, 1e-8 * w0), rel=1e-6)

    def test_static_eps_is_the_trapezoid_plus_the_tail(self):
        # int_0^inf (2/pi) eps''/omega domega: the trapezoid across the rows
        # and (2/pi) eps''(W) int_W^inf W^s omega^(-s-1) domega = (2/pi) eps''(W)/s
        model, _, _ = lorentz_table(n=1000)
        w, e2 = model.table.omega, model.table.eps_imag
        f = 2.0 / math.pi * e2 / w
        band = math.fsum(0.5 * (w[i + 1] - w[i]) * (f[i] + f[i + 1]) for i in range(w.size - 1))
        tail = 2.0 / math.pi * e2[-1] / model.tail_exponent
        assert static_eps(model) == pytest.approx(1.0 + band + tail, rel=1e-14, abs=0.0)

    def test_static_eps_of_constant_model(self):
        assert static_eps(ConstantModel(eps=4.2)) == 4.2

    def test_static_eps_rejects_metallic_models(self):
        with pytest.raises(ValueError):
            static_eps(gold_drude())

    @pytest.mark.parametrize("s", [1.0, 3.0])
    def test_tail_matches_its_closed_form(self, s):
        # with u = W/omega the tail is (2/pi) eps''(W) int_0^1 u^(s-1)/(1 + a^2 u^2) du,
        # a = xi/W: arctan(a)/a for s = 1 and (a - arctan a)/a^3 for s = 3;
        # the latter cancels for small a, so it is summed as its series there
        def closed_form(a):
            if s == 1.0:
                return math.atan(a) / a
            if a < 0.3:
                return sum((-a * a) ** k / (2 * k + 3) for k in range(40))
            return (a - math.atan(a)) / a**3

        w_top, amp = 4e16, 0.37
        table = OpticalTable(omega=np.array([1e15, w_top]), eps_imag=np.array([2.0, amp]))
        a = np.geomspace(1e-6, 1e8, 141)
        got = _tail_integral(table, s, a * w_top)
        want = 2.0 / math.pi * amp * np.array([closed_form(x) for x in a])
        scale = 2.0 / math.pi * amp / s
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("s", [3.0, 1.0, 0.5])
    def test_tail_on_the_thinned_opening_matches_the_full_opening(self, monkeypatch, s):
        # the tail's integrand is analytic within pi/2 of the real axis, so
        # it may skip the graded opening panels; over nine decades of xi it
        # must land where the full opening does, on a 2000-row Drude table
        # and a 601-row Lorentz table
        gold = gold_drude()
        wp, g = gold.omega_p, gold.gamma
        w = np.geomspace(1e14, 1e17, 2000)
        tables = [
            OpticalTable(omega=w, eps_imag=wp**2 * g / (w * (w**2 + g**2))),
            lorentz_table(n=601)[0].table,
        ]
        xi = np.geomspace(1e11, 1e20, 3000)
        got = [_tail_integral(table, s, xi) for table in tables]
        integrate = dielectric.integrate_decaying
        monkeypatch.setattr(
            dielectric, "integrate_decaying", lambda f, rel_tol, offset=0.0: integrate(f, rel_tol)
        )
        for table, tail in zip(tables, got):
            np.testing.assert_allclose(tail, _tail_integral(table, s, xi), rtol=1e-14, atol=0.0)

    def test_unreachable_tail_tolerance_raises(self):
        # eps'' ~ omega^(-1e9) drops by e^-60000 within the first quadrature
        # panel; the tail must say it did not converge, not return a guess
        table = OpticalTable(omega=np.array([1e15, 2e15]), eps_imag=np.array([1.0, 0.5]))
        model = TabulatedModel(table=table, extrapolation=None, tail_exponent=1e9)
        with pytest.raises(ConvergenceError):
            eps_imag_axis(model, 1e15)

    @pytest.mark.parametrize("s", [1e10, 1e12, 1e13])
    def test_underflowing_tail_raises(self, s):
        # e^(-s v) underflows at every node, so the positive integrand sums
        # to 0; the tail must say so, not return 0 for (2/pi) 0.5/s
        table = OpticalTable(omega=np.array([1e15, 2e15]), eps_imag=np.array([1.0, 0.5]))
        model = TabulatedModel(table=table, extrapolation=None, tail_exponent=s)
        with pytest.raises(ConvergenceError, match="tail integral underflowed"):
            eps_imag_axis(model, 1e15)

    def test_tail_exponent_validation(self):
        table = OpticalTable(omega=np.array([1e15, 2e15]), eps_imag=np.array([1.0, 0.5]))
        with pytest.raises(ValidationError):
            TabulatedModel(table=table, extrapolation=None, tail_exponent=0.5)

    @pytest.mark.parametrize("shape", [(12, 1), (3, 4), (1, 12), (2, 2, 3), (2, 1, 6, 1)])
    def test_any_array_shape_matches_the_flat_call(self, shape):
        model, _, w0 = lorentz_table(n=400)
        xi = np.geomspace(0.1 * w0, 10.0 * w0, 12)
        got = eps_imag_axis(model, xi.reshape(shape))
        assert got.shape == shape
        np.testing.assert_array_equal(got.ravel(), eps_imag_axis(model, xi))


class TestOpticalTable:
    def test_requires_two_rows(self):
        with pytest.raises(ValidationError):
            OpticalTable(omega=np.array([1e15]), eps_imag=np.array([1.0]))

    def test_rejects_unordered_frequencies(self):
        with pytest.raises(ValidationError) as err:
            OpticalTable(
                omega=np.array([1e15, 1e15, 2e15]), eps_imag=np.array([1.0, 1.0, 1.0])
            )
        # rows are counted from 0, as Measurements counts them
        assert str(err.value).endswith("(row 1)")

    def test_rejects_negative_absorption(self):
        with pytest.raises(ValidationError):
            OpticalTable(omega=np.array([1e15, 2e15]), eps_imag=np.array([1.0, -0.1]))

    def test_arrays_are_read_only(self):
        t = OpticalTable(omega=np.array([1e15, 2e15]), eps_imag=np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            t.omega[0] = 0.0


class TestTableLoader:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(
            "photon_energy_ev,eps_imag\n0.1,25.0\n1.0,4.0\n10.0,0.01\n", encoding="utf-8"
        )
        table = load_optical_table(path)
        assert table.omega.shape == (3,)
        assert table.omega[1] == pytest.approx(ev_to_angular_frequency(1.0), rel=1e-14)
        assert table.eps_imag[0] == 25.0

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("energy,eps\n1.0,1.0\n2.0,0.5\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_optical_table(path)

    def test_reports_offending_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "photon_energy_ev,eps_imag\n0.1,1.0\n0.2,oops\n", encoding="utf-8"
        )
        with pytest.raises(ValidationError) as err:
            load_optical_table(path)
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("row", ["nan,1.0", "0.2,inf", "inf,1.0", "0.2,-inf"])
    def test_rejects_non_finite_row(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"photon_energy_ev,eps_imag\n0.1,1.0\n{row}\n", encoding="utf-8")
        reason = {
            "nan,1.0": "optical table frequencies must be finite, got nan",
            "0.2,inf": "eps'' must be finite, got inf",
            "inf,1.0": "optical table frequencies must be finite, got inf",
            "0.2,-inf": "eps'' must be finite, got -inf",
        }[row]
        named = rf"^{re.escape(str(path))}: line 3: {re.escape(reason)} \(row 1\)$"
        with pytest.raises(ValidationError, match=named):
            load_optical_table(path)

    @pytest.mark.parametrize("row", ["-0.1,1.0", "0.0,1.0"])
    def test_rejects_non_positive_energy_naming_file_and_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"photon_energy_ev,eps_imag\n{row}\n0.2,1.0\n", encoding="utf-8")
        named = rf"^{re.escape(str(path))}: line 2: optical table frequencies must be positive"
        with pytest.raises(ValidationError, match=named):
            load_optical_table(path)

    def test_rejects_out_of_order_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "photon_energy_ev,eps_imag\n0.2,1.0\n0.1,1.0\n", encoding="utf-8"
        )
        with pytest.raises(ValidationError):
            load_optical_table(path)
