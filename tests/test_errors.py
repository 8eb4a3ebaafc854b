"""Every public entry refuses a value that is not a real number with a
ValueError that names the argument, never a TypeError from deeper down.

The shared checks live in ``casimir_lab.errors``; the table below runs each
checked argument of the public entries against the same set of bad values:
a numeric string, None, a bool, a complex, nan, inf and a ragged list.
"""

import math
import re

import numpy as np
import pytest

from casimir_lab.analysis import Measurements, ModelCurve, candidate_models
from casimir_lab.analysis import fit_patch_and_offset, log_bin_edges
from casimir_lab.constants import ev_to_angular_frequency
from casimir_lab.corrections import corrected_curve, fluctuation_corrected_force
from casimir_lab.dielectric import gold_drude
from casimir_lab.electrostatics import bias_force, patch_force
from casimir_lab.errors import require_at_least, require_finite, require_positive
from casimir_lab.lifshitz import force_sphere_plane, reflection_coeffs

R = 0.156

BAD = ["1", None, True, 1j, math.nan, math.inf, [1, [2]]]


def _points():
    d = np.geomspace(1e-6, 5e-6, 5)
    return Measurements(d=d, f=np.zeros(5), sigma=np.full(5, 1e-12))


FLAT = ModelCurve("flat", lambda d: 0.0 * d)

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
]


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
