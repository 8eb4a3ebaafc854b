"""Permittivity along the imaginary frequency axis.

Three model families are supported:

* ``DrudeModel``     eps(i xi) = 1 + omega_p^2 / (xi (xi + gamma))
* ``PlasmaModel``    eps(i xi) = 1 + omega_p^2 / xi^2
* ``TabulatedModel`` Kramers-Kronig transform of measured eps''(omega),
  assembled piecewise: an analytic Drude or plasma continuation below the
  table, the trapezoid rule across it, and a power-law tail above it,
  integrated by the package's one quadrature driver,
  :func:`~casimir_lab.quadrature.integrate_decaying`.  ``static_eps`` of a
  table without a continuation is the same transform at xi = 0.

``ConstantModel`` (a fixed permittivity) is kept for ideal-conductor limit
studies; a very large constant reproduces the perfectly reflecting results.

The xi = 0 point is deliberately excluded here: the zero-frequency reflection
coefficients are an analytic-limit decision that belongs to the force engine,
and it is exactly where the Drude and plasma descriptions part ways.
"""

from dataclasses import dataclass
from typing import Union

import numpy as np

from .constants import ELEMENTARY_CHARGE, HBAR, ev_to_angular_frequency
from .errors import ConvergenceError, ValidationError, require_at_least, require_positive
from .errors import require_table
from .fileio import read_table
from .quadrature import integrate_decaying

__all__ = [
    "DrudeModel",
    "PlasmaModel",
    "ConstantModel",
    "TabulatedModel",
    "OpticalTable",
    "DielectricModel",
    "eps_imag_axis",
    "load_optical_table",
    "gold_drude",
    "gold_plasma",
    "GOLD_OMEGA_P_EV",
    "GOLD_GAMMA_EV",
    "GOLD_OMEGA_P_RANGE_EV",
    "GOLD_GAMMA_RANGE_EV",
]

#: Gold Drude parameters (eV) used as defaults throughout.
GOLD_OMEGA_P_EV = 7.54
GOLD_GAMMA_EV = 0.051
#: Spread of values consistent with measured gold optical data (eV).
GOLD_OMEGA_P_RANGE_EV = (6.85, 9.00)
GOLD_GAMMA_RANGE_EV = (0.02, 0.061)


@dataclass(frozen=True)
class DrudeModel:
    """Free-electron metal with dissipation."""

    omega_p: float  # plasma frequency, rad/s
    gamma: float    # dissipation rate, rad/s

    def __post_init__(self):
        # each field keeps the float its check returns, as do the models below
        for field, name in (("omega_p", "plasma frequency"), ("gamma", "dissipation rate")):
            value = require_positive(name, getattr(self, field), scalar=True)
            object.__setattr__(self, field, value)

    @classmethod
    def from_ev(cls, omega_p_ev, gamma_ev):
        return cls(ev_to_angular_frequency(omega_p_ev), ev_to_angular_frequency(gamma_ev))


@dataclass(frozen=True)
class PlasmaModel:
    """Dissipationless free-electron metal."""

    omega_p: float  # plasma frequency, rad/s

    def __post_init__(self):
        omega_p = require_positive("plasma frequency", self.omega_p, scalar=True)
        object.__setattr__(self, "omega_p", omega_p)

    @classmethod
    def from_ev(cls, omega_p_ev):
        return cls(ev_to_angular_frequency(omega_p_ev))


@dataclass(frozen=True)
class ConstantModel:
    """Frequency-independent permittivity (ideal-conductor studies)."""

    eps: float

    def __post_init__(self):
        eps = require_at_least("permittivity", self.eps, 1.0, scalar=True)
        object.__setattr__(self, "eps", eps)


@dataclass(frozen=True, eq=False)
class OpticalTable:
    """Measured imaginary permittivity on a strictly increasing frequency grid.

    At least two rows; every value finite, the frequencies positive and
    eps'' non-negative.  A ValidationError names the first bad row by its
    0-based index, as Measurements does, and keeps it.  ``==`` and ``hash``
    are identity, as a field-wise comparison of arrays has no single truth
    value; a TabulatedModel holding it stays hashable.
    """

    omega: np.ndarray     # rad/s
    eps_imag: np.ndarray  # dimensionless

    def __post_init__(self):
        frequencies = "optical table frequencies"
        omega, eps_imag = require_table(
            ((frequencies, self.omega), ("eps''", self.eps_imag)),
            ((frequencies, "positive", lambda w: w <= 0.0),
             (frequencies, "strictly increasing", lambda w: np.r_[False, w[1:] <= w[:-1]]),
             ("eps''", "non-negative", lambda eps: eps < 0.0)),
        )
        if omega.size < 2:
            raise ValidationError(f"optical table needs at least 2 rows, got {omega.size}")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "eps_imag", eps_imag)


@dataclass(frozen=True)
class TabulatedModel:
    """Kramers-Kronig permittivity from tabulated eps''(omega).

    Parameters
    ----------
    table : OpticalTable
        Measured eps'' rows.
    extrapolation : DrudeModel, PlasmaModel or None
        Analytic continuation of eps'' below the table.  The plasma choice
        contributes its zero-width free-carrier resonance, omega_p^2/xi^2,
        in closed form.  None means eps'' = 0 below the table (useful for
        bound-charge-only oracles).
    tail_exponent : float
        eps'' falls off as omega^(-s) above the table, continuous at the
        upper edge.  s = 3 matches the large-frequency behavior of both the
        Drude and Lorentz oscillator forms; s >= 1 keeps the tail integrable.
    """

    table: OpticalTable
    extrapolation: Union[DrudeModel, PlasmaModel, None]
    tail_exponent: float = 3.0

    def __post_init__(self):
        if not isinstance(self.table, OpticalTable):
            raise ValidationError(f"table must be an OpticalTable, got {self.table!r}")
        # the continuation the transform integrates is the one the zero mode takes
        extra = self.extrapolation
        if not isinstance(extra, (DrudeModel, PlasmaModel, type(None))):
            raise ValidationError(f"extrapolation must be Drude, plasma or None, got {extra!r}")
        s = require_at_least("tail exponent", self.tail_exponent, 1.0, scalar=True)
        object.__setattr__(self, "tail_exponent", s)


DielectricModel = Union[DrudeModel, PlasmaModel, ConstantModel, TabulatedModel]


def _drude_band_integral(omega_p, gamma, upper, xi):
    """(2/pi) * int_0^upper omega*eps''_Drude/(omega^2+xi^2) domega, closed form.

    Partial fractions give A(gamma) - A(xi) over (xi^2 - gamma^2) with
    A(z) = arctan(upper/z)/z; the xi -> gamma limit is filled by the
    derivative of A to keep the expression numerically stable there.
    """
    xi = np.asarray(xi, dtype=float)

    def a_of(z):
        return np.arctan(upper / z) / z

    def a_prime(z):
        return -(upper / (z * (z * z + upper * upper)) + np.arctan(upper / z) / (z * z))

    near = np.abs(xi - gamma) <= 1e-6 * gamma
    safe_xi = np.where(near, gamma * 2.0, xi)  # keep the generic branch finite
    generic = (a_of(gamma) - a_of(safe_xi)) / (safe_xi ** 2 - gamma ** 2)
    midpoint = 0.5 * (xi + gamma)
    degenerate = -a_prime(midpoint) / (xi + gamma)
    ratio = np.where(near, degenerate, generic)
    return (2.0 * omega_p ** 2 * gamma / np.pi) * ratio


def _table_band_integral(table, xi):
    """Trapezoid rule in omega for (2/pi) * int omega*eps''/(omega^2+xi^2) over
    the table: 1/(omega^2+xi^2) times one vector, weights * (2/pi) omega eps''."""
    omega = table.omega
    edged = np.pad(omega, 1, mode="edge")
    weights = (edged[2:] - edged[:-2]) / np.pi * omega * table.eps_imag
    denom = np.add.outer(xi * xi, omega * omega)
    return np.reciprocal(denom, out=denom) @ weights


def _tail_integral(table, s, xi):
    """Power-law tail above the table, eps'' = eps''(W) (W/omega)^s.

    Substituting omega = W e^v gives a decaying integrand on v in [0, inf),
    (2/pi) eps''(W) * int_0^inf e^(-s v) / (1 + (xi/W)^2 e^(-2 v)) dv, which
    :func:`integrate_decaying` takes for every xi in one family to 1e-12 of
    its largest member, the one at the smallest xi.  At xi = 0 it is
    (2/pi) eps''(W)/s.

    The integrand is analytic within pi/2 of the real axis (its nearest
    poles sit at Im v = +-pi/2) and falls by e over 1/s, so it passes the
    smaller as its quadrature offset: the graded opening, kept for endpoint
    singularities, shrinks to a first panel about that wide, which a steep
    tail needs for its nodes to see e^(-s v) before it underflows.  A tail
    too steep for any node to see raises ConvergenceError.
    """
    amp = table.eps_imag[-1]
    if amp == 0.0:
        return np.zeros(xi.shape)
    a_sq = (xi / table.omega[-1])[:, None] ** 2
    tail = integrate_decaying(
        lambda v: np.exp(-s * v) / (1.0 + a_sq * np.exp(-2.0 * v)),
        1e-12,
        min(0.5 * np.pi, 1.0 / s),
    )
    # the integrand is positive, so a 0 is every node's value underflowing
    if not tail.all():
        message = f"tail integral underflowed to 0 at tail exponent {s:g}"
        raise ConvergenceError(message, 1.0, 1e-12)
    return (2.0 / np.pi) * amp * tail


def _tabulated_eps_minus_one(model, xi):
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    table = model.table
    low = np.zeros(xi.shape)
    extra = model.extrapolation
    if isinstance(extra, DrudeModel):
        low = _drude_band_integral(extra.omega_p, extra.gamma, table.omega[0], xi)
    elif isinstance(extra, PlasmaModel):
        # Zero-width free-carrier resonance at omega = 0; its transform is exact.
        low = extra.omega_p ** 2 / xi ** 2
    return low + _table_band_integral(table, xi) + _tail_integral(table, model.tail_exponent, xi)


def eps_imag_axis(model, xi):
    """Permittivity eps(i xi) along the imaginary frequency axis.

    Parameters
    ----------
    model : DielectricModel
        Drude, plasma, constant or tabulated description.
    xi : float or array_like
        Imaginary angular frequency in rad/s, strictly positive and finite;
        the xi = 0 limit is the force engine's model-family dispatch.

    Returns
    -------
    float or numpy.ndarray
        eps(i xi), real and >= 1, shaped like ``xi``.  A metal's eps grows
        without bound as xi -> 0 and is inf where it overflows a float.
    """
    xi = require_positive("xi", xi)
    if isinstance(model, DrudeModel):
        out = 1.0 + model.omega_p ** 2 / (xi * (xi + model.gamma))
    elif isinstance(model, PlasmaModel):
        out = 1.0 + model.omega_p ** 2 / (xi * xi)
    elif isinstance(model, ConstantModel):
        out = np.full(np.shape(xi), model.eps)
    elif isinstance(model, TabulatedModel):
        out = 1.0 + _tabulated_eps_minus_one(model, np.ravel(xi)).reshape(np.shape(xi))
    else:
        raise TypeError(f"unknown dielectric model {type(model).__name__}")
    if np.ndim(xi) == 0:
        return float(out)
    return out


def static_eps(model):
    """eps(i xi -> 0) where it is finite: a constant model's eps, or the
    transform of a table without a free-carrier continuation at xi = 0."""
    if isinstance(model, ConstantModel):
        return model.eps
    if isinstance(model, TabulatedModel) and model.extrapolation is None:
        return 1.0 + _tabulated_eps_minus_one(model, 0.0).item()
    raise ValueError(f"{type(model).__name__} diverges at zero frequency")


def gold_drude():
    """Gold with the default Drude parameters."""
    return DrudeModel.from_ev(GOLD_OMEGA_P_EV, GOLD_GAMMA_EV)


def gold_plasma():
    """Gold with the default plasma-model parameters."""
    return PlasmaModel.from_ev(GOLD_OMEGA_P_EV)


def load_optical_table(path):
    """Read an optical-data CSV with header ``photon_energy_ev,eps_imag``.

    Energies are converted to angular frequencies; they must be positive
    and arrive in strictly increasing order.  A ValidationError names the
    file and the line of a malformed or refused row, the first such line
    if there are several.
    """

    def table(energy_ev, eps_imag):
        # ev_to_angular_frequency's operations in its order, so omega is
        # bit-identical; OpticalTable refuses a row whose energy is <= 0
        return OpticalTable(omega=energy_ev * ELEMENTARY_CHARGE / HBAR, eps_imag=eps_imag)

    return read_table(path, ["photon_energy_ev", "eps_imag"], table)
