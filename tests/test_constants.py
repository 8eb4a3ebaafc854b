"""Physical constants and unit conversions.

The CODATA values asserted here are transcribed independently from the
package source; a typo in either place shows up as a mismatch.
"""

import math

import pytest

from casimir_lab import constants


def test_exact_si_defining_constants():
    # exact by SI definition since the 2019 redefinition
    assert constants.PLANCK == 6.62607015e-34
    assert constants.BOLTZMANN == 1.380649e-23
    assert constants.SPEED_OF_LIGHT == 299792458.0
    assert constants.ELEMENTARY_CHARGE == 1.602176634e-19


def test_hbar_consistent_with_planck():
    assert constants.HBAR == pytest.approx(1.054571817e-34, rel=1e-9, abs=0.0)
    assert constants.HBAR == constants.PLANCK / (2.0 * math.pi)


def test_vacuum_permittivity_codata():
    # measured, not exact; CODATA 2018 central value
    assert constants.VACUUM_PERMITTIVITY == pytest.approx(8.8541878128e-12, rel=1e-10, abs=0.0)


def test_zeta3_against_direct_summation():
    n = 200000
    # partial sum plus the Euler-Maclaurin tail 1/2n^2 - 1/2n^3 + O(n^-5)
    direct = sum(1.0 / k**3 for k in range(n, 0, -1))
    direct += 0.5 / n**2 - 0.5 / n**3
    assert constants.ZETA3 == pytest.approx(direct, rel=1e-13, abs=0.0)


def test_constants_version_tag():
    assert constants.CONSTANTS_VERSION == "CODATA-2018"


def test_ev_conversion_value_and_round_trip():
    # 1 eV ~ 1.519267e15 rad/s (e/hbar)
    w = constants.ev_to_angular_frequency(1.0)
    assert w == pytest.approx(1.519267447e15, rel=1e-9)
    assert constants.angular_frequency_to_ev(w) == pytest.approx(1.0, rel=1e-14, abs=0.0)
    assert constants.ev_to_angular_frequency(0.0) == 0.0


def test_ev_conversion_rejects_negative_energy():
    with pytest.raises(ValueError):
        constants.ev_to_angular_frequency(-0.1)


def test_matsubara_frequency_room_temperature():
    # first Matsubara frequency at 300 K, 2 pi k_B T / hbar
    xi1 = constants.matsubara_frequency(1, 300.0)
    assert xi1 == pytest.approx(2.4679e14, rel=1e-4)
    assert constants.matsubara_frequency(0, 300.0) == 0.0
    assert constants.matsubara_frequency(7, 300.0) == pytest.approx(7.0 * xi1, rel=1e-14)


def test_matsubara_frequency_scales_linearly_with_temperature():
    assert constants.matsubara_frequency(3, 600.0) == pytest.approx(
        2.0 * constants.matsubara_frequency(3, 300.0), rel=1e-14
    )


def test_matsubara_frequency_domain_errors():
    with pytest.raises(ValueError):
        constants.matsubara_frequency(-1, 300.0)
    with pytest.raises(ValueError):
        constants.matsubara_frequency(1, 0.0)
    with pytest.raises(ValueError):
        constants.matsubara_frequency(1, -5.0)
    with pytest.raises(ValueError):
        constants.matsubara_frequency(1.5, 300.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_conversions_reject_non_finite_input(bad):
    with pytest.raises(ValueError, match="photon energy .* got"):
        constants.ev_to_angular_frequency(bad)
    with pytest.raises(ValueError, match="angular frequency .* got"):
        constants.angular_frequency_to_ev(bad)
    with pytest.raises(ValueError, match="temperature .* got"):
        constants.matsubara_frequency(1, bad)
