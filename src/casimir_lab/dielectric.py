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

import csv
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .constants import ev_to_angular_frequency
from .errors import ValidationError
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
        if not (math.isfinite(self.omega_p) and self.omega_p > 0.0):
            raise ValidationError(
                f"plasma frequency must be positive and finite, got {self.omega_p}"
            )
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValidationError(
                f"dissipation rate must be positive and finite, got {self.gamma}"
            )

    @classmethod
    def from_ev(cls, omega_p_ev, gamma_ev):
        return cls(ev_to_angular_frequency(omega_p_ev), ev_to_angular_frequency(gamma_ev))


@dataclass(frozen=True)
class PlasmaModel:
    """Dissipationless free-electron metal."""

    omega_p: float  # plasma frequency, rad/s

    def __post_init__(self):
        if not (math.isfinite(self.omega_p) and self.omega_p > 0.0):
            raise ValidationError(
                f"plasma frequency must be positive and finite, got {self.omega_p}"
            )

    @classmethod
    def from_ev(cls, omega_p_ev):
        return cls(ev_to_angular_frequency(omega_p_ev))


@dataclass(frozen=True)
class ConstantModel:
    """Frequency-independent permittivity (ideal-conductor studies)."""

    eps: float

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps >= 1.0):
            raise ValidationError(f"permittivity must be finite and >= 1, got {self.eps}")


@dataclass(frozen=True, eq=False)
class OpticalTable:
    """Measured imaginary permittivity on a strictly increasing frequency grid.

    ``==`` and ``hash`` are identity, as a field-wise comparison of arrays
    has no single truth value; a TabulatedModel holding it stays hashable.
    """

    omega: np.ndarray     # rad/s
    eps_imag: np.ndarray  # dimensionless

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        eps_imag = np.asarray(self.eps_imag, dtype=float)
        if omega.ndim != 1 or eps_imag.ndim != 1 or omega.size != eps_imag.size:
            raise ValidationError("optical table needs matching 1-d frequency and eps'' columns")
        if omega.size < 2:
            raise ValidationError(f"optical table needs at least 2 rows, got {omega.size}")
        if not np.all(np.isfinite(omega)) or not np.all(np.isfinite(eps_imag)):
            raise ValidationError("optical table contains non-finite entries")
        if omega[0] <= 0.0:
            raise ValidationError("optical table frequencies must be positive")
        bad = np.nonzero(np.diff(omega) <= 0.0)[0]
        if bad.size:
            raise ValidationError(
                f"optical table frequencies must be strictly increasing; row {bad[0] + 2} is not"
            )
        neg = np.nonzero(eps_imag < 0.0)[0]
        if neg.size:
            raise ValidationError(f"eps'' must be non-negative; row {neg[0] + 1} is negative")
        omega.setflags(write=False)
        eps_imag.setflags(write=False)
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
        Drude and Lorentz oscillator forms.
    """

    table: OpticalTable
    extrapolation: Union[DrudeModel, PlasmaModel, None]
    tail_exponent: float = 3.0

    def __post_init__(self):
        if not (math.isfinite(self.tail_exponent) and self.tail_exponent >= 1.0):
            raise ValidationError(
                "tail exponent must be finite and >= 1 for an integrable tail, "
                f"got {self.tail_exponent}"
            )


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
    """
    amp = table.eps_imag[-1]
    if amp == 0.0:
        return np.zeros(xi.shape)
    a_sq = (xi / table.omega[-1])[:, None] ** 2
    tail = integrate_decaying(lambda v: np.exp(-s * v) / (1.0 + a_sq * np.exp(-2.0 * v)), 1e-12)
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
        Imaginary angular frequency in rad/s, strictly positive and finite.

    Returns
    -------
    float or numpy.ndarray
        eps(i xi), real and >= 1, shaped like ``xi``.
    """
    xi_arr = np.asarray(xi, dtype=float)
    bad = xi_arr[~(xi_arr > 0.0) | np.isinf(xi_arr)]
    if bad.size:
        raise ValueError(
            f"xi must be positive and finite, got {bad[0]}; "
            "the xi = 0 limit is a model-family dispatch"
        )

    if isinstance(model, DrudeModel):
        out = 1.0 + model.omega_p ** 2 / (xi_arr * (xi_arr + model.gamma))
    elif isinstance(model, PlasmaModel):
        out = 1.0 + model.omega_p ** 2 / xi_arr ** 2
    elif isinstance(model, ConstantModel):
        out = np.full(np.shape(xi_arr), model.eps)
    elif isinstance(model, TabulatedModel):
        out = 1.0 + _tabulated_eps_minus_one(model, xi_arr.ravel()).reshape(xi_arr.shape)
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
    and arrive in strictly increasing order.  Any malformed row raises
    :class:`ValidationError` naming the offending line.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        if [h.strip() for h in header] != ["photon_energy_ev", "eps_imag"]:
            raise ValidationError(
                f"{path}: expected header 'photon_energy_ev,eps_imag', got {','.join(header)!r}"
            )
        energies = []
        eps_vals = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 2:
                raise ValidationError(f"{path}: line {line_no} has {len(row)} columns, expected 2")
            try:
                energy = float(row[0])
                eps = float(row[1])
            except ValueError:
                raise ValidationError(f"{path}: line {line_no} is not numeric: {row!r}") from None
            if energies and energy <= energies[-1]:
                raise ValidationError(
                    f"{path}: line {line_no} is out of order (energies must strictly increase)"
                )
            if not (math.isfinite(energy) and math.isfinite(eps)):
                raise ValidationError(f"{path}: line {line_no} is not finite: {row!r}")
            if energy <= 0.0:
                raise ValidationError(f"{path}: line {line_no} has a photon energy <= 0")
            if eps < 0.0:
                raise ValidationError(f"{path}: line {line_no} has negative eps''")
            energies.append(energy)
            eps_vals.append(eps)
    if len(energies) < 2:
        raise ValidationError(f"{path}: need at least 2 data rows, got {len(energies)}")
    omega = np.array([ev_to_angular_frequency(e) for e in energies])
    return OpticalTable(omega=omega, eps_imag=np.array(eps_vals))
