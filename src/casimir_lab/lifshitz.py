"""Lifshitz free energy and force for metallic plates and the sphere-plane map.

The finite-temperature free energy per unit area between identical half
spaces across a vacuum gap d is

    F(d, T) = (k_B T / 2 pi) * sum'_{n>=0} int_0^inf k dk
              sum_{p in {TE, TM}} ln(1 - r_p^2 exp(-2 kappa0 d))

with kappa0 = sqrt(k^2 + xi_n^2/c^2), Matsubara frequencies
xi_n = 2 pi n k_B T / hbar, and the prime halving the n = 0 term.  At T = 0
the ladder becomes the integral (hbar / 2 pi) int_0^inf dxi of the same
k-integral, evaluated here as one 2-D integral on tensor-product panel
cells: each refinement level computes eps(i xi) once per frequency node and
the kernel on the product of those nodes with the wavevector nodes.

Everything is computed in the dimensionless variable y = 2 kappa0 d, where
each kernel decays like exp(-y); the k-integral for Matsubara index n starts
at y_min = 2 xi_n d / c.  At fixed (k, xi) the gap enters only through
exp(-y), so d/dd of each kernel is the next one of the same family.

Sign convention: free energy negative, attractive pressures and forces
positive.  That matches how sphere-plane force curves are usually plotted.

The n = 0 term is a model-family dispatch, never a numerical xi -> 0 limit:
a dissipative free-electron metal loses its zero-frequency TE mode entirely,
a dissipationless one keeps it.  The finite-temperature force difference
between those two descriptions is the physics this package exists to model.
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import BOLTZMANN, HBAR, SPEED_OF_LIGHT, ZETA3
from .dielectric import (
    ConstantModel,
    DrudeModel,
    PlasmaModel,
    TabulatedModel,
    eps_imag_axis,
    static_eps,
)
from .errors import ConvergenceError, PfaValidityWarning
from .quadrature import integrate_decaying, integrate_decaying_2d

__all__ = [
    "Geometry",
    "QuadratureSpec",
    "ReflectionPair",
    "reflection_coeffs",
    "reflection_coeffs_zero_mode",
    "free_energy_per_area",
    "pressure_parallel",
    "force_sphere_plane",
    "force_curvature_sphere_plane",
    "force_sphere_plane_T0",
    "force_sphere_plane_grid",
    "asymptote_thermal",
    "sensitivity_band",
    "BandResult",
]

#: PFA is the only sphere-plane mapping implemented; past this aspect ratio
#: its error is no longer negligible and callers get warned.
PFA_RATIO_LIMIT = 1e-3

_C = SPEED_OF_LIGHT


@dataclass(frozen=True)
class QuadratureSpec:
    """Numerical accuracy knobs shared by every engine entry point."""

    rel_tol: float = 1e-8
    max_matsubara: int = 100_000

    def __post_init__(self):
        if not 0.0 < self.rel_tol <= 1e-3:
            raise ValueError(f"rel_tol must be in (0, 1e-3], got {self.rel_tol}")
        if self.max_matsubara < 1:
            raise ValueError(f"max_matsubara must be >= 1, got {self.max_matsubara}")


DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class Geometry:
    """Sphere-plane geometry: radius of curvature R and gap d."""

    radius: float      # m
    separation: float  # m

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if not (math.isfinite(self.separation) and self.separation > 0.0):
            raise ValueError(f"separation must be positive and finite, got {self.separation}")

    @property
    def pfa_ratio(self):
        return self.separation / self.radius

    @property
    def pfa_valid(self):
        return self.pfa_ratio < PFA_RATIO_LIMIT


class ReflectionPair(NamedTuple):
    r_te: float
    r_tm: float


def reflection_coeffs(k, xi, eps):
    """Fresnel reflection coefficients at imaginary frequency.

    Parameters
    ----------
    k : float or array_like
        Transverse wavevector in 1/m, strictly positive.
    xi : float or array_like
        Imaginary angular frequency in rad/s, non-negative.
    eps : float or array_like
        Permittivity eps(i xi) >= 1.

    Returns
    -------
    ReflectionPair
        (r_te, r_tm) with kappa0 = sqrt(k^2 + xi^2/c^2) and
        kappa = sqrt(k^2 + eps xi^2/c^2).  At xi = 0 with finite eps this
        reduces to the static dielectric limit (r_te = 0); metallic
        zero-frequency behavior belongs to
        :func:`reflection_coeffs_zero_mode`.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0.0):
        raise ValueError("transverse wavevector must be positive")
    xi = np.asarray(xi, dtype=float)
    return _fresnel(np.sqrt(k * k + (xi / _C) ** 2), xi / _C, np.asarray(eps, dtype=float))


def _fresnel(kappa0, w, eps):
    """(r_te, r_tm) from the vacuum decay constant kappa0 and w = xi/c.

    Both may carry one common scale factor: the kernels pass y = 2 kappa0 d
    and x = 2 xi d / c.
    """
    # kappa^2 = kappa0^2 + (eps - 1) w^2 avoids cancellation for eps ~ 1
    kappa = np.sqrt(kappa0 ** 2 + (eps - 1.0) * w ** 2)
    r_te = (kappa0 - kappa) / (kappa0 + kappa)
    r_tm = (eps * kappa0 - kappa) / (eps * kappa0 + kappa)
    return ReflectionPair(r_te, r_tm)


def reflection_coeffs_zero_mode(k, model):
    """Zero-frequency reflection coefficients by model family.

    Dissipative free-electron metals (Drude family) lose the TE zero mode:
    (0, 1).  Dissipationless ones (plasma family) keep a finite TE
    reflection that depends on k through the plasma wavevector omega_p/c.
    Constant and bound-charge models take the static dielectric limit
    (0, (eps0 - 1)/(eps0 + 1)).  A tabulated model answers as its
    continuation below the table, or as ConstantModel(static_eps) without one.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0.0):
        raise ValueError("transverse wavevector must be positive")

    zero = _zero_mode_model(model)
    if isinstance(zero, DrudeModel):
        return ReflectionPair(np.zeros_like(k), np.ones_like(k))
    if isinstance(zero, PlasmaModel):
        kp = zero.omega_p / _C
        root = np.sqrt(k * k + kp * kp)
        return ReflectionPair((k - root) / (k + root), np.ones_like(k))
    r = (zero.eps - 1.0) / (zero.eps + 1.0)
    return ReflectionPair(np.zeros_like(k), np.full_like(k, r))


def _zero_mode_model(model):
    """The Drude, plasma or constant model that sets the xi = 0 reflection."""
    if isinstance(model, TabulatedModel):
        if model.extrapolation is not None:
            return model.extrapolation
        return ConstantModel(static_eps(model))
    if isinstance(model, (DrudeModel, PlasmaModel, ConstantModel)):
        return model
    raise TypeError(f"unknown dielectric model {type(model).__name__}")


def _kernel(r, y, kind):
    """Energy y ln(1 - s), pressure y^2 s/(1 - s) or curvature
    y^3 s/(1 - s)^2 integrand, s = r^2 exp(-y), summed over TE and TM."""
    # in place: on the T = 0 grid every temporary is a whole (x, t) array,
    # and their number sets the peak memory
    expy = np.exp(-y)
    total = np.zeros_like(y)
    for rp in r:
        # r comes fresh from _fresnel or the zero-mode dispatch: reuse it
        s = np.square(rp, out=rp)
        s *= expy
        if kind == "energy":
            total += np.log1p(np.negative(s, out=s), out=s)
        else:
            q = 1.0 - s
            total += np.divide(s, q if kind == "pressure" else np.square(q, out=q), out=s)
    total *= y if kind == "energy" else y * y
    if kind == "curvature":
        total *= y
    return total


def _zero_mode_integrand(model, d, y, kind):
    return _kernel(reflection_coeffs_zero_mode(y / (2.0 * d), model), y, kind)


def _mode_integrand(model, d, x, t, kind):
    """Kernel at reduced frequency x = 2 xi d / c > 0 and t = y - x.

    ``x`` and ``t`` broadcast against each other: a column of Matsubara
    frequencies against the y nodes on the ladder, (px, 1, n, 1) frequency
    nodes against (1, pt, 1, n) y nodes in the T = 0 integral.  eps is
    computed on ``x`` alone, once per frequency.
    """
    y = x + t
    eps = np.asarray(eps_imag_axis(model, x * _C / (2.0 * d)))
    return _kernel(_fresnel(y, x, eps), y, kind)


def _matsubara_ladder(d, T, model, spec, kind):
    """Adaptively truncated Matsubara sum of the dimensionless y-integrals.

    Returns sum'_n I_n with I_n the y-integral of the ``kind`` kernel.
    Terms are evaluated in one vectorized pass up to the exp(-2 xi_n d / c)
    decay cap, then summed through the first index whose relative
    contribution drops below rel_tol.
    """
    # Terms decay like exp(-n * 4 pi k_B T d / (hbar c)); at the cap the
    # neglected tail is below exp(-30) of the total.
    decay_cap = math.ceil(15.0 * HBAR * _C / (2.0 * math.pi * BOLTZMANN * T * d)) + 10
    n_cap = min(spec.max_matsubara, decay_cap)

    zero = _zero_mode_model(model)
    i_zero = integrate_decaying(lambda y: _zero_mode_integrand(zero, d, y, kind), spec.rel_tol)
    # x_n = 2 xi_n d / c with xi_n = 2 pi n k_B T / hbar
    x = 4.0 * math.pi * BOLTZMANN * T * d / (HBAR * _C) * np.arange(1, n_cap + 1)[:, None]
    rows = integrate_decaying(lambda t: _mode_integrand(model, d, x, t, kind), spec.rel_tol)

    terms = np.concatenate(([0.5 * i_zero], np.atleast_1d(rows)))
    partial = np.cumsum(terms)
    small = np.abs(terms[1:]) <= spec.rel_tol * np.abs(partial[1:])
    stop = np.nonzero(small)[0]
    if stop.size == 0:
        achieved = abs(terms[-1]) / max(abs(partial[-1]), np.finfo(float).tiny)
        if n_cap == spec.max_matsubara:
            raise ConvergenceError(
                f"Matsubara ladder not converged after {n_cap} terms", achieved, spec.rel_tol
            )
        return partial[-1]
    return partial[stop[0] + 1]


def _validate_dT(d, T):
    if not (math.isfinite(d) and d > 0.0):
        raise ValueError(f"separation must be positive and finite, got {d}")
    if not (math.isfinite(T) and T >= 0.0):
        raise ValueError(f"temperature must be non-negative and finite, got {T}")


def _lifshitz(d, T, model, spec, kind):
    """Energy, pressure or curvature per plate area: the (x, t) integral at
    T = 0 times hbar c / (32 pi^2 d^(3+m)), else the Matsubara ladder times
    k_B T / (8 pi d^(2+m)), with m = 0, 1, 2."""
    _validate_dT(d, T)
    m = ("energy", "pressure", "curvature").index(kind)
    if T == 0.0:
        value = integrate_decaying_2d(
            lambda x, t: _mode_integrand(model, d, x, t, kind), spec.rel_tol
        )
        return HBAR * _C / (32.0 * math.pi ** 2 * d ** (3 + m)) * value
    ladder = _matsubara_ladder(d, T, model, spec, kind)
    if kind == "energy":
        return BOLTZMANN * T / (2.0 * math.pi) / (4.0 * d * d) * ladder
    return BOLTZMANN * T / math.pi / (8.0 * d ** (2 + m)) * ladder


def free_energy_per_area(d, T, model, spec=DEFAULT_SPEC):
    """Lifshitz free energy per unit plate area, in J/m^2 (negative).

    Parameters
    ----------
    d : float
        Plate separation in m.
    T : float
        Temperature in K.  T = 0 dispatches to the dedicated
        imaginary-frequency integral rather than a small-T ladder.
    model : DielectricModel
        Plate material response.
    spec : QuadratureSpec
        Accuracy parameters.

    Returns
    -------
    float
        F(d, T) <= 0; more negative means stronger attraction.
    """
    return _lifshitz(d, T, model, spec, "energy")


def pressure_parallel(d, T, model, spec=DEFAULT_SPEC):
    """Attractive pressure between parallel plates, in N/m^2 (positive).

    Evaluates the differentiated Lifshitz integrand
    (k_B T / pi) sum'_n int k dk kappa0 sum_p s_p/(1 - s_p) with
    s_p = r_p^2 exp(-2 kappa0 d); equal to |dF/dd| of
    :func:`free_energy_per_area`.
    """
    return _lifshitz(d, T, model, spec, "pressure")


def _sphere_plane(d, R, per_area):
    """2 pi R |per_area()|, the PFA map, after validating the geometry."""
    geometry = Geometry(radius=R, separation=d)
    if not geometry.pfa_valid:
        warnings.warn(
            f"d/R = {geometry.pfa_ratio:.2e} exceeds {PFA_RATIO_LIMIT:.0e}; "
            "the proximity force approximation degrades",
            PfaValidityWarning,
            stacklevel=3,
        )
    return 2.0 * math.pi * R * abs(per_area())


def force_sphere_plane(d, T, R, model, spec=DEFAULT_SPEC):
    """Sphere-plane force via the proximity force approximation, in N.

    F = 2 pi R |free_energy_per_area(d, T)|, positive for attraction.
    Warns, without failing, when d/R exceeds the PFA validity ratio.
    """
    return _sphere_plane(d, R, lambda: free_energy_per_area(d, T, model, spec))


def force_curvature_sphere_plane(d, T, R, model, spec=DEFAULT_SPEC):
    """Curvature F'' = 2 pi R |dP/dd| of the PFA sphere-plane force, in N/m^2.

    Validates and warns like :func:`force_sphere_plane`.
    """
    return _sphere_plane(d, R, lambda: _lifshitz(d, T, model, spec, "curvature"))


def force_sphere_plane_T0(d, R, model, spec=DEFAULT_SPEC):
    """Zero-temperature sphere-plane force (PFA), in N."""
    return force_sphere_plane(d, 0.0, R, model, spec)


def asymptote_thermal(d, R, T, which):
    """Closed-form large-separation thermal force, in N.

    zeta(3) R k_B T / (8 d^2) when the TE zero mode is absent ("drude"),
    twice that when it survives ("plasma").
    """
    Geometry(radius=R, separation=d)
    _validate_dT(d, T)
    if which == "drude":
        return ZETA3 * R * BOLTZMANN * T / (8.0 * d * d)
    if which == "plasma":
        return ZETA3 * R * BOLTZMANN * T / (4.0 * d * d)
    raise ValueError(f"model family must be 'drude' or 'plasma', got {which!r}")


def force_sphere_plane_grid(separations, T, R, model, spec=DEFAULT_SPEC):
    """Sphere-plane force on a separation grid, one independent point each."""
    return np.array([force_sphere_plane(d, T, R, model, spec) for d in separations])


@dataclass(frozen=True)
class BandResult:
    """Force envelope over a Drude/plasma parameter box."""

    separations: np.ndarray
    f_min: np.ndarray
    f_center: np.ndarray
    f_max: np.ndarray


def sensitivity_band(
    d_grid,
    T,
    omega_p_range,
    gamma_range,
    model_family,
    R,
    spec=DEFAULT_SPEC,
):
    """Force envelope from the metal-parameter uncertainty box.

    Evaluates the force at the four corners of
    (omega_p_range x gamma_range) plus the central parameter set and
    returns the per-separation min/center/max.  The plasma family has no
    dissipation parameter, so the gamma axis collapses there and three
    curves remain.  Each distinct parameter set is evaluated once.

    Parameters
    ----------
    d_grid : array_like
        Separations in m, non-empty.
    T : float
        Temperature in K (0 selects the zero-temperature theory).
    omega_p_range, gamma_range : (float, float)
        Plasma frequency and dissipation bounds in rad/s.
    model_family : str
        'drude' or 'plasma'.
    R : float
        Sphere radius of curvature in m.
    """
    d_grid = np.asarray(list(d_grid), dtype=float)
    if d_grid.size == 0:
        raise ValueError("separation grid must be non-empty")
    wp_lo, wp_hi = sorted(float(v) for v in omega_p_range)
    g_lo, g_hi = sorted(float(v) for v in gamma_range)
    if wp_lo <= 0.0 or g_lo <= 0.0:
        raise ValueError("parameter ranges must be positive")

    if model_family == "drude":
        models = [DrudeModel(omega_p=wp, gamma=g) for wp in (wp_lo, wp_hi) for g in (g_lo, g_hi)]
        center = DrudeModel(omega_p=0.5 * (wp_lo + wp_hi), gamma=0.5 * (g_lo + g_hi))
    elif model_family == "plasma":
        models = [PlasmaModel(omega_p=wp) for wp in (wp_lo, wp_hi)]
        center = PlasmaModel(omega_p=0.5 * (wp_lo + wp_hi))
    else:
        raise ValueError(f"model family must be 'drude' or 'plasma', got {model_family!r}")

    # a degenerate range repeats a parameter set; each distinct one runs once
    curves = {
        model: force_sphere_plane_grid(d_grid, T, R, model, spec)
        for model in dict.fromkeys(models + [center])
    }
    stacked = np.vstack(list(curves.values()))
    return BandResult(
        separations=d_grid,
        f_min=stacked.min(axis=0),
        f_center=curves[center],
        f_max=stacked.max(axis=0),
    )
