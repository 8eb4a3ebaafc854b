"""Physical constants and unit conversions.

Values are compiled in rather than imported from an external table so
that results are bit-reproducible regardless of the installed scientific
stack.  The 2018 CODATA adjustment fixes h, e, k_B and c exactly; the
vacuum permittivity below is the 2018 recommended value.

All package internals work in SI; electron volts, micrometres and
piconewtons appear only at I/O boundaries.
"""

import math

from .errors import is_integer

__all__ = [
    "HBAR",
    "SPEED_OF_LIGHT",
    "BOLTZMANN",
    "VACUUM_PERMITTIVITY",
    "ELEMENTARY_CHARGE",
    "ZETA3",
    "CONSTANTS_VERSION",
    "ev_to_angular_frequency",
    "angular_frequency_to_ev",
    "matsubara_frequency",
]

#: 2018 CODATA. h and e are exact; hbar carries the full double rounding of h/2pi.
PLANCK = 6.62607015e-34            # J s, exact
HBAR = PLANCK / (2.0 * math.pi)    # J s
SPEED_OF_LIGHT = 299792458.0       # m / s, exact
BOLTZMANN = 1.380649e-23           # J / K, exact
ELEMENTARY_CHARGE = 1.602176634e-19  # C, exact
VACUUM_PERMITTIVITY = 8.8541878128e-12  # F / m

#: Riemann zeta(3), correct to double precision.
ZETA3 = 1.2020569031595943

CONSTANTS_VERSION = "CODATA-2018"


def ev_to_angular_frequency(energy_ev):
    """Convert a photon energy in eV to an angular frequency in rad/s.

    Parameters
    ----------
    energy_ev : float
        Photon energy in electron volts.  Must be non-negative and finite.

    Returns
    -------
    float
        Angular frequency ``E * e / hbar`` in rad/s.
    """
    if not (math.isfinite(energy_ev) and energy_ev >= 0.0):
        raise ValueError(f"photon energy must be non-negative and finite, got {energy_ev}")
    return energy_ev * ELEMENTARY_CHARGE / HBAR


def angular_frequency_to_ev(omega):
    """Inverse of :func:`ev_to_angular_frequency` (rad/s to eV)."""
    if not (math.isfinite(omega) and omega >= 0.0):
        raise ValueError(f"angular frequency must be non-negative and finite, got {omega}")
    return omega * HBAR / ELEMENTARY_CHARGE


def matsubara_frequency(n, temperature):
    """n-th boson Matsubara frequency ``xi_n = 2 pi n k_B T / hbar`` in rad/s.

    Parameters
    ----------
    n : int
        Matsubara index, n >= 0.
    temperature : float
        Temperature in kelvin, strictly positive and finite.  The T = 0 theory is an
        integral over imaginary frequency, not a Matsubara ladder; use the
        dedicated zero-temperature entry points instead.

    Returns
    -------
    float
        Imaginary angular frequency in rad/s.  Zero for n = 0.
    """
    if not is_integer(n):
        raise ValueError(f"Matsubara index must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"Matsubara index must be non-negative, got {n}")
    if not (math.isfinite(temperature) and temperature > 0.0):
        raise ValueError(
            f"temperature must be positive and finite for a Matsubara ladder, got {temperature}"
        )
    return 2.0 * math.pi * n * BOLTZMANN * temperature / HBAR
