"""Physical constants and unit conversions.

Values are compiled in rather than imported from an external table so
that results are bit-reproducible regardless of the installed scientific
stack.  The 2018 CODATA adjustment fixes h, e, k_B and c exactly; the
vacuum permittivity below is the 2018 recommended value.

All package internals work in SI; electron volts, micrometres and
piconewtons appear only at I/O boundaries.
"""

import math

from .errors import require_at_least, require_finite

__all__ = [
    "HBAR",
    "SPEED_OF_LIGHT",
    "BOLTZMANN",
    "VACUUM_PERMITTIVITY",
    "ELEMENTARY_CHARGE",
    "ZETA3",
    "CONSTANTS_VERSION",
    "ev_to_angular_frequency",
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
        Photon energy in electron volts, a finite real number >= 0.

    Returns
    -------
    float
        Angular frequency ``E * e / hbar`` in rad/s, refused if it overflows.
    """
    energy_ev = require_at_least("photon energy", energy_ev, 0.0, scalar=True)
    return require_finite("angular frequency", energy_ev * ELEMENTARY_CHARGE / HBAR)

