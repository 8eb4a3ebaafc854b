"""Lifshitz free energy and force for metallic plates and the sphere-plane map.

The finite-temperature free energy per unit area between identical half
spaces across a vacuum gap d is

    F(d, T) = (k_B T / 2 pi) * sum'_{n>=0} int_0^inf k dk
              sum_{p in {TE, TM}} ln(1 - r_p^2 exp(-2 kappa0 d))

with kappa0 = sqrt(k^2 + xi_n^2/c^2), Matsubara frequencies
xi_n = 2 pi n k_B T / hbar, and the prime halving the n = 0 term.  At T = 0
the ladder becomes the integral (hbar / 2 pi) int_0^inf dxi of the same
k-integral, evaluated here as one 2-D integral on the L-shaped rectangle
layout of :mod:`casimir_lab.quadrature`: each refinement level computes
eps(i xi) once per frequency node and gathers it for every rectangle whose
kernel it enters.

Every entry point takes a float or an array of gaps; a float gives a float,
and a scalar is computed as a grid of one.  At T > 0 the ladder of a whole
curve shares one eps(i xi_n) evaluation, since xi_n does not depend on the
gap, and integrates the (gap, n) rows of several gaps in one quadrature
family.  At T = 0 each gap is its own 2-D integral, which bounds the peak
memory.

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
from contextlib import contextmanager
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
from .errors import ConvergenceError, PfaValidityWarning, is_integer, require_positive
from .quadrature import integrate_decaying, integrate_decaying_2d

__all__ = [
    "QuadratureSpec",
    "ReflectionPair",
    "reflection_coeffs",
    "reflection_coeffs_zero_mode",
    "free_energy_per_area",
    "pressure_parallel",
    "force_sphere_plane",
    "force_curvature_sphere_plane",
    "force_sphere_plane_grid",
    "asymptote_thermal",
    "sensitivity_band",
    "BandResult",
]

#: PFA is the only sphere-plane mapping implemented; past this aspect ratio
#: its error is no longer negligible and callers get warned.
PFA_RATIO_LIMIT = 1e-3

#: (gap, n) rows the Matsubara ladder integrates in one family.  Gaps are
#: chunked up to this many rows and never split; a gap with more rows runs
#: alone.  Peak memory grows with it: against one gap per family, 80 rows
#: add ~0.5 MB (1.4 %) to the band workload's peak RSS, 200 rows ~1.7 MB.
_LADDER_ROWS = 80

_C = SPEED_OF_LIGHT


@dataclass(frozen=True)
class QuadratureSpec:
    """Numerical accuracy knobs shared by every engine entry point."""

    rel_tol: float = 1e-8
    max_matsubara: int = 100_000

    def __post_init__(self):
        if not 0.0 < self.rel_tol <= 1e-3:
            raise ValueError(f"rel_tol must be in (0, 1e-3], got {self.rel_tol}")
        # a float cap (NaN among them) breaks the ladder
        cap = self.max_matsubara
        if not is_integer(cap) or cap < 1:
            raise ValueError(f"max_matsubara must be an integer >= 1, got {cap!r}")


DEFAULT_SPEC = QuadratureSpec()


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
    # r may carry a leading gap axis that y lacks (the batched zero modes)
    total = np.zeros_like(r[0])
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


def _mode_integrand(x, t, eps, kind):
    """Kernel at reduced frequency x = 2 xi d / c > 0 and t = y - x.

    ``x`` and ``t`` broadcast against each other: a column of (gap, n)
    Matsubara rows against the y nodes on the ladder, the (nc, n, 1)
    frequency nodes of nc rectangles against their (nc, 1, n) t nodes in the
    T = 0 integral.  ``eps`` is eps(i xi) shaped like ``x``, one value per
    frequency.
    """
    y = x + t
    return _kernel(_fresnel(y, x, eps), y, kind)


def _chunks(rows):
    """Slices of consecutive gaps holding at most _LADDER_ROWS rows, each
    gap whole; a gap with more rows than that is a chunk of its own."""
    start, total = 0, 0
    for i, count in enumerate(rows):
        if total and total + count > _LADDER_ROWS:
            yield slice(start, i)
            start, total = i, 0
        total += count
    yield slice(start, len(rows))


def _matsubara_ladder(d, T, model, spec, kind):
    """Matsubara sums of the dimensionless y-integrals, one per gap.

    Returns sum'_n I_n for each gap of the 1-D array ``d``, with I_n the
    y-integral of the ``kind`` kernel.  eps(i xi_n) is computed once, up to
    the largest per-gap cap.  Each chunk of gaps (see :func:`_chunks`) then
    makes two quadrature calls: one family of its zero modes and one of its
    (gap, n) rows, x = 4 pi k_B T d n / (hbar c).  Every computed term is
    summed, up to the decay cap; a ladder that max_matsubara cuts shorter
    raises ConvergenceError when its last term still exceeds rel_tol of
    the sum.
    """
    # Terms decay like exp(-n * 4 pi k_B T d / (hbar c)); at the cap the
    # neglected tail is below exp(-30) of the total.  Capped in floats, so
    # a huge decay cap cannot overflow the integer cast.
    decay_cap = np.ceil(15.0 * HBAR * _C / (2.0 * math.pi * BOLTZMANN * T * d)) + 10.0
    n_cap = np.minimum(decay_cap, spec.max_matsubara).astype(int)
    xi = 2.0 * math.pi * BOLTZMANN * T / HBAR * np.arange(1, n_cap.max() + 1)
    eps = np.asarray(eps_imag_axis(model, xi))
    zero = _zero_mode_model(model)

    ladders = np.empty(d.size)
    for chunk in _chunks(n_cap):
        gaps, caps = d[chunk], n_cap[chunk]
        n = np.concatenate([np.arange(1, cap + 1) for cap in caps])
        # x_n = 2 xi_n d / c with xi_n = 2 pi n k_B T / hbar
        x = (np.repeat(4.0 * math.pi * BOLTZMANN * T * gaps / (HBAR * _C), caps) * n)[:, None]
        eps_rows = eps[n - 1][:, None]
        with _located(gaps, T, kind):
            i_zero = integrate_decaying(
                lambda y: _zero_mode_integrand(zero, gaps[:, None], y, kind), spec.rel_tol
            )
            rows = integrate_decaying(
                lambda t: _mode_integrand(x, t, eps_rows, kind), spec.rel_tol
            )
        starts = np.cumsum(caps) - caps
        total = 0.5 * i_zero + np.add.reduceat(rows, starts)
        # only a ladder that max_matsubara cut short can miss its tolerance
        achieved = np.abs(rows[starts + caps - 1] / total)
        unsettled = (decay_cap[chunk] > caps) & (achieved > spec.rel_tol)
        if unsettled.any():
            j = np.argmax(unsettled)
            raise ConvergenceError(
                f"Matsubara ladder not converged after {caps[j]} terms {_where(gaps[j], T, kind)}",
                achieved[j],
                spec.rel_tol,
            )
        ladders[chunk] = total
    return ladders


def _where(gaps, T, kind):
    """Where an evaluation ran: a gap or the range of a chunk of gaps, the
    temperature and the kind."""
    lo, hi = np.min(gaps), np.max(gaps)
    at = f"d = {lo:.3e} m" if lo == hi else f"d in [{lo:.3e}, {hi:.3e}] m"
    return f"at {at}, T = {T:g} K, {kind}"


@contextmanager
def _located(gaps, T, kind):
    """Re-raise a ConvergenceError of the block with :func:`_where`."""
    try:
        yield
    except ConvergenceError as exc:
        message = f"{exc.message} {_where(gaps, T, kind)}"
        raise ConvergenceError(message, exc.achieved, exc.requested) from exc


def _validate_dT(d, T):
    require_positive("separation", d)
    if not (math.isfinite(T) and T >= 0.0):
        raise ValueError(f"temperature must be non-negative and finite, got {T}")


def _lifshitz(d, T, model, spec, kind):
    """Energy, pressure or curvature per plate area: the (x, t) integral at
    T = 0 times hbar c / (32 pi^2 d^(3+m)), else the Matsubara ladder times
    k_B T / (8 pi d^(2+m)), with m = 0, 1, 2.  ``d`` is a float, which
    gives a float, or an array of gaps, which gives an array of its shape."""
    _validate_dT(d, T)
    m = ("energy", "pressure", "curvature").index(kind)
    gaps = np.asarray(d, dtype=float).ravel()
    if T == 0.0:
        values = np.array([_lifshitz_t0(g, model, spec, kind, m) for g in gaps.tolist()])
    elif gaps.size == 0:
        values = gaps
    else:
        ladder = _matsubara_ladder(gaps, T, model, spec, kind)
        if kind == "energy":
            values = BOLTZMANN * T / (2.0 * math.pi) / (4.0 * gaps * gaps) * ladder
        else:
            values = BOLTZMANN * T / math.pi / (8.0 * gaps ** (2 + m)) * ladder
    return float(values[0]) if np.ndim(d) == 0 else values.reshape(np.shape(d))


def _lifshitz_t0(d, model, spec, kind, m):
    """The T = 0 value at one gap: one 2-D integral.  Each level computes
    eps once per distinct frequency node, then gathers it per rectangle."""

    def integrand(x, t, row):
        eps = np.asarray(eps_imag_axis(model, x * _C / (2.0 * d)))
        return _mode_integrand(x[row], t, eps[row], kind)

    with _located(d, 0.0, kind):
        value = integrate_decaying_2d(integrand, spec.rel_tol)
    return HBAR * _C / (32.0 * math.pi ** 2 * d ** (3 + m)) * value


def free_energy_per_area(d, T, model, spec=DEFAULT_SPEC):
    """Lifshitz free energy per unit plate area, in J/m^2 (negative).

    Parameters
    ----------
    d : float or array_like
        Plate separation in m; an array gives the free energy at each gap.
    T : float
        Temperature in K.  T = 0 dispatches to the dedicated
        imaginary-frequency integral rather than a small-T ladder.
    model : DielectricModel
        Plate material response.
    spec : QuadratureSpec
        Accuracy parameters.

    Returns
    -------
    float or numpy.ndarray
        F(d, T) <= 0, shaped like ``d``; more negative means stronger
        attraction.
    """
    return _lifshitz(d, T, model, spec, "energy")


def pressure_parallel(d, T, model, spec=DEFAULT_SPEC):
    """Attractive pressure between parallel plates, in N/m^2 (positive).

    Evaluates the differentiated Lifshitz integrand
    (k_B T / pi) sum'_n int k dk kappa0 sum_p s_p/(1 - s_p) with
    s_p = r_p^2 exp(-2 kappa0 d); equal to |dF/dd| of
    :func:`free_energy_per_area`, and shaped like ``d`` as it is.
    """
    return _lifshitz(d, T, model, spec, "pressure")


def _sphere_plane(d, R, per_area):
    """2 pi R |per_area()|, the PFA map, after validating the radius and
    every gap of ``d`` and warning once when the largest d/R is too large."""
    require_positive("radius", R)
    require_positive("separation", d)
    ratio = np.max(d, initial=0.0) / R
    if ratio >= PFA_RATIO_LIMIT:
        warnings.warn(
            f"d/R = {ratio:.2e} exceeds {PFA_RATIO_LIMIT:.0e}; "
            "the proximity force approximation degrades",
            PfaValidityWarning,
            stacklevel=3,
        )
    return 2.0 * math.pi * R * abs(per_area())


def force_sphere_plane(d, T, R, model, spec=DEFAULT_SPEC):
    """Sphere-plane force via the proximity force approximation, in N.

    F = 2 pi R |free_energy_per_area(d, T)|, positive for attraction, shaped
    like ``d``.  Warns, without failing, when d/R exceeds the PFA validity
    ratio.
    """
    return _sphere_plane(d, R, lambda: free_energy_per_area(d, T, model, spec))


def force_curvature_sphere_plane(d, T, R, model, spec=DEFAULT_SPEC):
    """Curvature F'' = 2 pi R |dP/dd| of the PFA sphere-plane force, in N/m^2.

    ``d`` is a float or an array of gaps, as for :func:`free_energy_per_area`.
    Validates and warns like :func:`force_sphere_plane`.
    """
    return _sphere_plane(d, R, lambda: _lifshitz(d, T, model, spec, "curvature"))


def asymptote_thermal(d, R, T, which):
    """Closed-form large-separation thermal force, in N.

    zeta(3) R k_B T / (8 d^2) when the TE zero mode is absent ("drude"),
    twice that when it survives ("plasma"); shaped like ``d``.
    """
    require_positive("radius", R)
    _validate_dT(d, T)
    if which == "drude":
        return ZETA3 * R * BOLTZMANN * T / (8.0 * d * d)
    if which == "plasma":
        return ZETA3 * R * BOLTZMANN * T / (4.0 * d * d)
    raise ValueError(f"model family must be 'drude' or 'plasma', got {which!r}")


def force_sphere_plane_grid(separations, T, R, model, spec=DEFAULT_SPEC):
    """Sphere-plane force on a 1-D separation grid, in N.

    The forces :func:`force_sphere_plane` gives gap by gap, computed as one
    curve: at T > 0 one Matsubara ladder over all gaps (eps(i xi_n) once,
    gaps batched into quadrature families), at T = 0 one 2-D integral per
    gap.  Every gap is validated before any integral runs; an empty grid
    gives an empty array.
    """
    d = np.asarray(separations, dtype=float)
    if d.ndim != 1:
        raise ValueError(f"separation grid must be 1-D, got shape {d.shape}")
    return _sphere_plane(d, R, lambda: free_energy_per_area(d, T, model, spec))


@dataclass(frozen=True, eq=False)
class BandResult:
    """Force envelope over a Drude/plasma parameter box; ``==`` is identity,
    as a field-wise comparison of arrays has no single truth value."""

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
