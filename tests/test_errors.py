"""Every public entry refuses a value that is not a real number with a
ValueError that names the argument, never a TypeError from deeper down, and
computes on the value its check returned.

The shared checks live in ``casimir_lab.errors``; the table below runs each
checked argument of the public entries against the same set of bad values:
a numeric string, None, a bool, a complex, nan, inf and a ragged list.  A
column of a record type (``Measurements``, ``OpticalTable``) gets the bad
value in its second row, and goes through the table check
``require_table``; a column that is a number is refused as not 1-D.
Every callable of ``casimir_lab.__all__`` is in the table or exempt from it
with a reason.  An array-taking entry gives for an int, an int array, a
list, a tuple, a numpy scalar or a 0-d array exactly what it gives for the
float form, and a closed-form entry given a subnormal or huge finite number
returns a finite result or refuses by name a quantity that overflows.  The
engine's gaps run from 1 nm to 1 km, and a gap outside is refused by name.
"""

import math
import re

import numpy as np
import pytest

import casimir_lab
from casimir_lab.analysis import Measurements, ModelCurve, bin_points, candidate_models
from casimir_lab.analysis import discriminate_models, fit_patch_and_offset, log_bin_edges
from casimir_lab.analysis import standard_model_curves
from casimir_lab.campaign import CampaignConfig
from casimir_lab.constants import ev_to_angular_frequency
from casimir_lab.corrections import corrected_curve, corrected_separation
from casimir_lab.corrections import fluctuation_corrected_force
from casimir_lab.dielectric import ConstantModel, DrudeModel, OpticalTable, PlasmaModel
from casimir_lab.dielectric import TabulatedModel, eps_imag_axis, gold_drude, gold_plasma
from casimir_lab.electrostatics import SweepSample, bias_force, calibrate_from_sweep, patch_force
from casimir_lab.errors import RegimeError, ValidationError, require_at_least, require_finite
from casimir_lab.errors import require_positive
from casimir_lab.lifshitz import asymptote_thermal, force_and_curvature_sphere_plane
from casimir_lab.lifshitz import force_curvature_sphere_plane, force_sphere_plane
from casimir_lab.lifshitz import force_sphere_plane_grid, free_energy_per_area
from casimir_lab.lifshitz import pressure_parallel, reflection_coeffs
from casimir_lab.lifshitz import reflection_coeffs_zero_mode, sensitivity_band

R = 0.156
DRUDE = gold_drude()

BAD = ["1", None, True, 1j, math.nan, math.inf, [1, [2]]]


def _points():
    d = np.geomspace(1e-6, 5e-6, 5)
    return Measurements(d=d, f=np.zeros(5), sigma=np.full(5, 1e-12))


FLAT = ModelCurve("flat", lambda d: 0.0 * d)

#: a parabola of bias forces at d = 1 um whose inversion succeeds
SWEEP = [SweepSample(v, 4.34e-8 * v * v, 1e-12) for v in (-0.2, -0.1, 0.0, 0.1, 0.2)]

TABLE = OpticalTable(omega=np.array([1e15, 2e15]), eps_imag=np.array([1.0, 0.5]))


def _band(d_grid=(1e-6,), omega_p_range=(1e16, 1.3e16), gamma_range=(1e13, 2e13)):
    return sensitivity_band(d_grid, 300.0, omega_p_range, gamma_range, "drude", R)


#: (label, call taking the bad value, the name the message starts with)
ENTRIES = [
    ("bias_force d", lambda b: bias_force(b, R, 0.02, 0.0), "separation d"),
    ("bias_force R", lambda b: bias_force(1e-6, b, 0.02, 0.0), "radius R"),
    ("bias_force v", lambda b: bias_force(1e-6, R, b, 0.0), "v"),
    ("bias_force v_m", lambda b: bias_force(1e-6, R, 0.02, b), "v_m"),
    ("patch_force d", lambda b: patch_force(b, R, 5e-3), "separation d"),
    ("patch_force R", lambda b: patch_force(1e-6, b, 5e-3), "radius R"),
    ("patch_force v_rms", lambda b: patch_force(1e-6, R, b), "v_rms"),
    ("patch_force delta", lambda b: patch_force(1e-6, R, 5e-3, b), "delta"),
    ("fluctuation_corrected_force d", lambda b: fluctuation_corrected_force(1e-9, 1e3, b, 0.0),
     "separation"),
    ("fluctuation_corrected_force delta",
     lambda b: fluctuation_corrected_force(1e-9, 1e3, 1e-6, b), "delta"),
    ("fluctuation_corrected_force force",
     lambda b: fluctuation_corrected_force(b, 1e3, 1e-6, 1e-9), "force"),
    ("fluctuation_corrected_force curvature",
     lambda b: fluctuation_corrected_force(1e-9, b, 1e-6, 1e-9), "curvature"),
    ("corrected_curve delta", lambda b: corrected_curve(lambda d: (1e-9, 1e3), b)(1e-6), "delta"),
    ("ev_to_angular_frequency", ev_to_angular_frequency, "photon energy"),
    ("log_bin_edges d_min", lambda b: log_bin_edges(b, 7e-6, 3), "d_min"),
    ("log_bin_edges d_max", lambda b: log_bin_edges(0.7e-6, b, 3), "d_max"),
    ("fit_patch_and_offset R", lambda b: fit_patch_and_offset(_points(), FLAT, b), "radius R"),
    ("fit_patch_and_offset delta", lambda b: fit_patch_and_offset(_points(), FLAT, R, b),
     "delta"),
    ("candidate_models temperature", candidate_models, "temperature"),
    ("force_sphere_plane d", lambda b: force_sphere_plane(b, 300.0, R, gold_drude()),
     "separation"),
    ("force_sphere_plane R", lambda b: force_sphere_plane(1e-6, 300.0, b, gold_drude()),
     "radius"),
    ("reflection_coeffs k", lambda b: reflection_coeffs(b, 1e14, 2.0), "transverse wavevector"),
    ("reflection_coeffs xi", lambda b: reflection_coeffs(1e6, b, 2.0), "xi"),
    ("reflection_coeffs eps", lambda b: reflection_coeffs(1e6, 1e14, b), "eps"),
    ("corrected_separation d", lambda b: corrected_separation(b, 1e-9), "separation"),
    ("corrected_separation delta", lambda b: corrected_separation(1e-6, b), "delta"),
    ("asymptote_thermal d", lambda b: asymptote_thermal(b, R, 300.0, "drude"), "separation"),
    ("asymptote_thermal R", lambda b: asymptote_thermal(1e-6, b, 300.0, "drude"), "radius"),
    ("asymptote_thermal T", lambda b: asymptote_thermal(1e-6, R, b, "drude"), "temperature"),
    ("sensitivity_band d_grid", lambda b: _band(d_grid=b), "separation"),
    ("sensitivity_band omega_p_range", lambda b: _band(omega_p_range=b), "omega_p_range"),
    ("sensitivity_band gamma_range", lambda b: _band(gamma_range=b), "gamma_range"),
    ("free_energy_per_area d", lambda b: free_energy_per_area(b, 300.0, DRUDE), "separation"),
    ("free_energy_per_area T", lambda b: free_energy_per_area(1e-6, b, DRUDE), "temperature"),
    ("pressure_parallel d", lambda b: pressure_parallel(b, 0.0, DRUDE), "separation"),
    ("force_curvature_sphere_plane d",
     lambda b: force_curvature_sphere_plane(b, 300.0, R, DRUDE), "separation"),
    ("force_curvature_sphere_plane R",
     lambda b: force_curvature_sphere_plane(1e-6, 300.0, b, DRUDE), "radius"),
    ("force_and_curvature_sphere_plane d",
     lambda b: force_and_curvature_sphere_plane(b, 0.0, R, DRUDE), "separation"),
    ("force_and_curvature_sphere_plane R",
     lambda b: force_and_curvature_sphere_plane(1e-6, 0.0, b, DRUDE), "radius"),
    ("force_sphere_plane_grid separations",
     lambda b: force_sphere_plane_grid(b, 300.0, R, DRUDE), "separation"),
    ("force_sphere_plane_grid R",
     lambda b: force_sphere_plane_grid([1e-6], 300.0, b, DRUDE), "radius"),
    ("reflection_coeffs_zero_mode k",
     lambda b: reflection_coeffs_zero_mode(b, DRUDE), "transverse wavevector"),
    ("eps_imag_axis xi", lambda b: eps_imag_axis(DRUDE, b), "xi"),
    ("DrudeModel omega_p", lambda b: DrudeModel(omega_p=b, gamma=1e13), "plasma frequency"),
    ("DrudeModel gamma", lambda b: DrudeModel(omega_p=1e16, gamma=b), "dissipation rate"),
    ("PlasmaModel omega_p", lambda b: PlasmaModel(omega_p=b), "plasma frequency"),
    ("ConstantModel eps", lambda b: ConstantModel(eps=b), "permittivity"),
    ("TabulatedModel tail_exponent",
     lambda b: TabulatedModel(TABLE, None, tail_exponent=b), "tail exponent"),
    ("bin_points edges", lambda b: bin_points(_points(), b), "bin edges"),
    ("calibrate_from_sweep R", lambda b: calibrate_from_sweep(SWEEP, b), "radius R"),
    ("discriminate_models R", lambda b: discriminate_models(_points(), [FLAT], b), "radius R"),
    ("standard_model_curves R", lambda b: standard_model_curves(b, 0.0), "radius R"),
    ("standard_model_curves delta", lambda b: standard_model_curves(R, b), "delta"),
    ("SweepSample v", lambda b: SweepSample(b, 0.0, 1e-12), "v"),
    ("SweepSample sigma_f", lambda b: SweepSample(0.0, 0.0, b), "sigma_f"),
    ("CampaignConfig radius", lambda b: CampaignConfig(radius=b), "radius"),
    # a record's column holds the bad value in row 1, next to a good one
    ("Measurements d", lambda b: Measurements([1e-6, b], [0.0, 0.0], [1e-12, 1e-12]),
     "separation"),
    ("Measurements f", lambda b: Measurements([1e-6, 2e-6], [0.0, b], [1e-12, 1e-12]), "force"),
    ("Measurements sigma", lambda b: Measurements([1e-6, 2e-6], [0.0, 0.0], [1e-12, b]),
     "sigma"),
    ("OpticalTable omega", lambda b: OpticalTable(omega=[1e15, b], eps_imag=[1.0, 0.5]),
     "optical table frequencies"),
    ("OpticalTable eps_imag", lambda b: OpticalTable(omega=[1e15, 2e15], eps_imag=[1.0, b]),
     "eps''"),
]

#: callables of ``casimir_lab.__all__`` that ENTRIES leaves out, and why
EXEMPT = (
    ("CasimirLabError", "exception type"),
    ("ValidationError", "exception type"),
    ("ConvergenceError", "exception type"),
    ("CalibrationError", "exception type"),
    ("DegenerateFitError", "exception type"),
    ("RegimeError", "exception type"),
    ("PfaValidityWarning", "warning type"),
    ("ReflectionPair", "result type, built by reflection_coeffs from checked values"),
    ("CalibrationResult", "result type, built by calibrate_from_sweep"),
    ("FitResult", "result type, built by fit_patch_and_offset"),
    ("CampaignResult", "result type, built by generate_campaign"),
    ("ModelCurve", "holds a name and an evaluator; the evaluator checks its own gaps"),
    ("load_optical_table", "loader: a refused row names the file and line (test_dielectric)"),
    ("load_sweeps_csv", "loader: a refused row names the file, line and column (test_campaign)"),
    ("load_measurements", "loader: a refused row names the file and line (test_analysis)"),
    ("load_config", "loader: a refused field names the file (test_campaign, test_cli)"),
    ("save_sweeps_csv", "writer of a CampaignResult, built by generate_campaign"),
    ("save_measurements", "writer of a Measurements, checked when built"),
    ("save_config", "writer of a CampaignConfig, checked when built"),
    ("generate_campaign", "takes a CampaignConfig, checked when built"),
    ("subtract_drift", "takes a CampaignResult, built by generate_campaign"),
    ("gold_drude", "takes no argument"),
    ("gold_plasma", "takes no argument"),
)


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("call, name", [e[1:] for e in ENTRIES], ids=[e[0] for e in ENTRIES])
def test_public_entries_refuse_non_real_values_by_name(call, name, bad):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be "):
        call(bad)


@pytest.mark.parametrize(
    "bad",
    [1j, {"a": 1}, object(), [1, [2]], [[1], [[2]]], np.array([1 + 0j]), np.bool_(True), "1e-6"],
    ids=repr,
)
@pytest.mark.parametrize("check", [require_positive, require_finite,
                                   lambda name, v: require_at_least(name, v, 0.0)])
def test_checks_refuse_every_non_real_entry(check, bad):
    # numpy would drop the imaginary part of a complex array with a warning,
    # and fail on a ragged list with its own "inhomogeneous shape" message
    with pytest.raises(ValueError, match=r"^x must be .*, got "):
        check("x", bad)


def test_checks_accept_real_numbers_and_arrays_of_them():
    for value in (2, 2.5, np.float32(2.0), np.int64(3), [1.0, 2], [[1, 2], [3, 4]],
                  np.arange(1, 4), np.ones((2, 2))):
        require_positive("x", value)
        require_finite("x", value)
        require_at_least("x", value, 1.0)
    require_finite("x", -1e300)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda a: patch_force(1e-6, R, 5e-3, a), "delta"),
        (lambda a: fluctuation_corrected_force(1e-9, 1e3, 1e-6, a), "delta"),
        (lambda a: fit_patch_and_offset(_points(), FLAT, a), "radius R"),
        (lambda a: log_bin_edges(a, 7e-6, 3), "d_min"),
        (lambda a: ev_to_angular_frequency(a), "photon energy"),
    ],
)
def test_scalar_parameters_refuse_arrays(call, name):
    for array in (np.array([1e-9]), [1e-9, 2e-9]):
        with pytest.raises(ValueError, match=rf"^{name} must be a number, got an array"):
            call(array)


def test_array_voltages_give_array_forces():
    v = np.array([0.1, 0.2])
    f = bias_force(1e-6, R, v, 0.0)
    assert f == pytest.approx([bias_force(1e-6, R, x, 0.0) for x in v.tolist()], rel=1e-15)


def test_every_public_callable_is_in_the_table_or_exempt():
    public = {name for name in casimir_lab.__all__ if callable(getattr(casimir_lab, name))}
    tabled = {label.split()[0] for label, _, _ in ENTRIES}
    exempt = dict(EXEMPT)
    assert len(exempt) == len(EXEMPT) and all(exempt.values())
    assert not tabled & exempt.keys()
    assert exempt.keys() <= public, "an exemption names no public callable"
    assert public - tabled - exempt.keys() == set(), "neither in ENTRIES nor exempt"


#: (label, call taking the varied argument, two whole numbers it may take)
ARRAY_ENTRIES = [
    ("bias_force d", lambda x: bias_force(x, R, 0.02, 0.0), (1, 2)),
    ("bias_force v", lambda x: bias_force(1e-6, R, x, 0.0), (1, 2)),
    ("patch_force d", lambda x: patch_force(x, R, 5e-3, 1e-9), (1, 2)),
    ("patch_force v_rms", lambda x: patch_force(1e-6, R, x), (1, 2)),
    ("fluctuation_corrected_force d",
     lambda x: fluctuation_corrected_force(1e-9, 1e3, x, 1e-9), (1, 2)),
    ("fluctuation_corrected_force force",
     lambda x: fluctuation_corrected_force(x, 1e3, 1e-6, 1e-9), (1, 2)),
    ("fluctuation_corrected_force curvature",
     lambda x: fluctuation_corrected_force(1e-9, x, 1e-6, 1e-9), (1, 2)),
    ("corrected_separation d", lambda x: corrected_separation(x, 1e-9), (1, 2)),
    ("asymptote_thermal d", lambda x: asymptote_thermal(x, R, 300.0, "plasma"), (1, 2)),
    ("reflection_coeffs k", lambda x: reflection_coeffs(x, 1e14, 2.0), (10**6, 2 * 10**6)),
    ("reflection_coeffs xi", lambda x: reflection_coeffs(1e6, x, 2.0), (10**14, 2 * 10**14)),
    ("reflection_coeffs eps", lambda x: reflection_coeffs(1e6, 1e14, x), (2, 3)),
    ("reflection_coeffs_zero_mode k",
     lambda x: reflection_coeffs_zero_mode(x, gold_plasma()), (10**6, 2 * 10**6)),
    ("eps_imag_axis xi", lambda x: eps_imag_axis(gold_plasma(), x), (10**14, 3 * 10**14)),
    ("free_energy_per_area d", lambda x: free_energy_per_area(x, 300.0, DRUDE), (1, 2)),
    ("pressure_parallel d", lambda x: pressure_parallel(x, 300.0, DRUDE), (1, 2)),
    # gaps of metres need a radius of kilometres to stay within the PFA's range
    ("force_sphere_plane d", lambda x: force_sphere_plane(x, 300.0, 1e4, DRUDE), (1, 2)),
    ("force_and_curvature_sphere_plane d",
     lambda x: force_and_curvature_sphere_plane(x, 300.0, 1e4, DRUDE), (1, 2)),
]

#: (label, the value of a form, the float form it stands for)
FORMS = [
    ("int", lambda a, b: a, lambda a, b: float(a)),
    ("numpy int", lambda a, b: np.int64(a), lambda a, b: float(a)),
    ("0-d array", lambda a, b: np.array(a), lambda a, b: float(a)),
    ("int array", lambda a, b: np.array([a, b]), lambda a, b: np.array([a, b], dtype=float)),
    ("list", lambda a, b: [a, b], lambda a, b: np.array([a, b], dtype=float)),
    ("tuple", lambda a, b: (a, b), lambda a, b: np.array([a, b], dtype=float)),
]


@pytest.mark.parametrize("form, as_float", [f[1:] for f in FORMS], ids=[f[0] for f in FORMS])
@pytest.mark.parametrize("call, values", [e[1:] for e in ARRAY_ENTRIES],
                         ids=[e[0] for e in ARRAY_ENTRIES])
def test_array_entries_give_the_float_result_for_every_real_form(call, values, form, as_float):
    got, want = call(form(*values)), call(as_float(*values))
    assert np.array_equal(got, want)
    assert np.shape(got) == np.shape(want)


def test_a_grid_of_ints_is_a_grid_of_floats():
    # the grid entries take sequences only
    want = force_sphere_plane_grid(np.array([1.0, 2.0]), 300.0, 1e4, DRUDE)
    for grid in (np.array([1, 2]), [1, 2], (1, 2)):
        assert np.array_equal(force_sphere_plane_grid(grid, 300.0, 1e4, DRUDE), want)


@pytest.mark.parametrize("grid", [1e-6, np.array(1e-6), [[1e-6, 2e-6]], []], ids=repr)
def test_band_refuses_a_grid_that_is_not_1d_before_any_model(monkeypatch, grid):
    def forbidden(*args, **kwargs):
        raise AssertionError("a model was built before the grid was checked")

    for name in ("DrudeModel", "PlasmaModel"):
        monkeypatch.setattr(casimir_lab.lifshitz, name, forbidden)
    with pytest.raises(ValueError, match=r"^separation grid must be 1-D"):
        _band(d_grid=grid)


@pytest.mark.parametrize("which", ["omega_p_range", "gamma_range"])
@pytest.mark.parametrize("bounds", [1e16, (1e16,), (1e16, 1.1e16, 1.2e16)], ids=repr)
def test_band_ranges_must_be_pairs(which, bounds):
    with pytest.raises(ValueError, match=rf"^{which} must be a \(low, high\) pair"):
        _band(**{which: bounds})


@pytest.mark.parametrize(
    "call, quantity",
    [
        (lambda: asymptote_thermal(5e-324, R, 300.0, "drude"), "thermal force"),
        (lambda: bias_force(5e-324, R, 0.1, 0.0), "bias force"),
        (lambda: bias_force(1e-6, R, 1e200, 0.0), "bias force"),
        (lambda: patch_force(5e-324, R, 0.1), "patch force"),
        (lambda: ev_to_angular_frequency(1e300), "angular frequency"),
    ],
)
def test_a_result_that_overflows_is_refused_by_name(call, quantity):
    with pytest.raises(ValueError, match=rf"^{quantity} must be finite, got inf$"):
        call()


#: the closed-form entries, one argument varied.  Not among them: the
#: engine's gaps, which have a stated range (test_engine_gaps_run_from_1_nm_to_1_km),
#: and eps_imag_axis, whose metal eps(i xi) grows without bound as xi -> 0
#: and is inf once it overflows, as its docstring says
CLOSED_FORM = [
    ("bias_force d", lambda x: bias_force(x, R, 0.1, 0.0)),
    ("bias_force R", lambda x: bias_force(1e-6, x, 0.1, 0.0)),
    ("bias_force v", lambda x: bias_force(1e-6, R, x, -x)),
    ("patch_force d", lambda x: patch_force(x, R, 5e-3)),
    ("patch_force R", lambda x: patch_force(1e-6, x, 5e-3)),
    ("patch_force v_rms", lambda x: patch_force(1e-6, R, x)),
    ("patch_force delta", lambda x: patch_force(1e-3, R, 5e-3, x)),
    ("corrected_separation d", lambda x: corrected_separation(x, 1e-9)),
    ("corrected_separation delta", lambda x: corrected_separation(1e-3, x)),
    ("fluctuation_corrected_force delta",
     lambda x: fluctuation_corrected_force(1e-9, 1e3, 1e-3, x)),
    ("asymptote_thermal d", lambda x: asymptote_thermal(x, R, 300.0, "drude")),
    ("asymptote_thermal R", lambda x: asymptote_thermal(1e-6, x, 300.0, "drude")),
    ("asymptote_thermal T", lambda x: asymptote_thermal(1e-6, R, x, "plasma")),
    ("ev_to_angular_frequency", ev_to_angular_frequency),
    ("DrudeModel omega_p", lambda x: DrudeModel(x, 1e13).omega_p),
]

EXTREMES = [5e-324, 2.2250738585072014e-308, 1e-200, 1e200, 1.7976931348623157e308]


@pytest.mark.parametrize("x", EXTREMES, ids=repr)
@pytest.mark.parametrize("call", [e[1] for e in CLOSED_FORM], ids=[e[0] for e in CLOSED_FORM])
def test_extreme_finite_input_gives_a_finite_result_or_a_named_refusal(call, x):
    try:
        result = call(x)
    except RegimeError:
        pass  # a gap within five fluctuation amplitudes, as documented
    except ValueError as exc:
        assert re.match(r"^[\w ]+ must be ", str(exc)), exc
    else:
        assert np.all(np.isfinite(result))


def test_engine_gaps_run_from_1_nm_to_1_km():
    # outside, a gap used to give nan or -0.0 with RuntimeWarnings, or be
    # refused under the name of a quantity inside the integrals
    low, high = 1e-9, 1e3
    assert np.all(free_energy_per_area([low, high], 0.0, DRUDE) < 0.0)
    assert free_energy_per_area(high, 300.0, DRUDE) < 0.0
    refused = r"^separation must be within \[1e-09, 1000\], got "
    for d in (math.nextafter(low, 0.0), math.nextafter(high, math.inf), 5e-324, 1e200):
        for call in (lambda: free_energy_per_area(d, 0.0, DRUDE),
                     lambda: free_energy_per_area([1e-6, d], 300.0, DRUDE),
                     lambda: force_sphere_plane(d, 300.0, R, DRUDE)):
            with pytest.raises(ValidationError, match=refused):
                call()


@pytest.mark.parametrize("column", [1j, 1e-6, [[1e-6, 2e-6]]], ids=repr)
def test_a_record_column_must_be_a_1d_sequence(column):
    # a complex number used to escape from OpticalTable as a TypeError
    with pytest.raises(ValidationError, match=r"^optical table frequencies must be 1-D"):
        OpticalTable(omega=column, eps_imag=[1.0, 0.5])
    with pytest.raises(ValidationError, match=r"^separation must be 1-D"):
        Measurements(column, [0.0, 0.0], [1e-12, 1e-12])
