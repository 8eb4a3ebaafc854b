"""Physical constants and unit conversions.

The CODATA values asserted here are transcribed independently from the
package source; a typo in either place shows up as a mismatch.
"""

import math

import numpy as np
import pytest

from casimir_lab import constants, lifshitz
from casimir_lab.dielectric import gold_drude


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
    back = w * constants.HBAR / constants.ELEMENTARY_CHARGE
    assert back == pytest.approx(1.0, rel=1e-14, abs=0.0)
    assert constants.ev_to_angular_frequency(0.0) == 0.0


def test_ev_conversion_rejects_negative_energy():
    with pytest.raises(ValueError):
        constants.ev_to_angular_frequency(-0.1)


def _ladder_frequencies(monkeypatch, T):
    """The xi_n at which a Matsubara sum evaluates eps at temperature T."""
    ladders = []
    eps = lifshitz.eps_imag_axis

    def recording(m, xi):
        ladders.append(np.array(xi))
        return eps(m, xi)

    monkeypatch.setattr(lifshitz, "eps_imag_axis", recording)
    lifshitz.force_sphere_plane(1e-6, T, 0.156, gold_drude())
    (xi,) = ladders
    return xi


def test_matsubara_frequency_room_temperature(monkeypatch):
    # first Matsubara frequency at 300 K, 2 pi k_B T / hbar, and xi_n = n xi_1
    xi = _ladder_frequencies(monkeypatch, 300.0)
    assert xi[0] == pytest.approx(2.4679e14, rel=1e-4, abs=0.0)
    assert xi[6] == pytest.approx(7.0 * xi[0], rel=1e-14, abs=0.0)


def test_matsubara_frequency_scales_linearly_with_temperature(monkeypatch):
    room = _ladder_frequencies(monkeypatch, 300.0)
    hot = _ladder_frequencies(monkeypatch, 600.0)
    assert hot == pytest.approx(2.0 * room[: hot.size], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_conversions_reject_non_finite_input(bad):
    with pytest.raises(ValueError, match="photon energy .* got"):
        constants.ev_to_angular_frequency(bad)
