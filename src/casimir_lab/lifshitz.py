"""Lifshitz free energy and force for metallic plates and the sphere-plane map.

The finite-temperature free energy per unit area between identical half
spaces across a vacuum gap d is

    F(d, T) = (k_B T / 2 pi) * sum'_{n>=0} int_0^inf k dk
              sum_{p in {TE, TM}} ln(1 - r_p^2 exp(-2 kappa0 d))

with kappa0 = sqrt(k^2 + xi_n^2/c^2), Matsubara frequencies
xi_n = 2 pi n k_B T / hbar, and the prime halving the n = 0 term.  At T = 0
the ladder becomes the integral (hbar / 2 pi) int_0^inf dxi of the same
k-integral, on the L-shaped rectangle layout of :mod:`casimir_lab.quadrature`
in the reduced variables x = 2 xi d / c and t = y - x, whose nodes are the
same for every gap: a curve builds x, y, y^2 and exp(-y) of a level once
and keeps them while its chunks run that level on the same rectangles, and
each level computes eps(i xi) once per gap and frequency node and gathers it
for every rectangle whose kernel it enters.

Every entry point takes a float or an array of gaps (a float gives a float,
computed as a grid of one).  At T > 0 a curve is one ladder: one eps(i xi_n)
evaluation, as xi_n does not depend on the gap, the zero modes of up to
``_LADDER_ROWS`` gaps in one quadrature family, and the (gap, n) rows of the
curve packed into families of ``_LADDER_ROWS`` rows, so memory is bounded at
any T.  A gap's rows stop below x_n = 2 xi_n d / c = DEFAULT_CUTOFF/2 = 40,
where its terms fall under exp(-40) of the sum.  A row starts at y = x_n,
clear of the y ln y endpoint at y = 0, so a row family passes its smallest
x_n to the quadrature, which thins its graded opening.  At T = 0 a curve is
one 2-D integral per chunk of ``_T0_GAPS`` consecutive gaps, each gap
settled on its own scale in one kernel call per level, and the chunk size
bounds the peak memory.  The ladder rows and the T = 0 levels build their
tables and kernels the same way; the whole-grid temporaries of the Fresnel
coefficients and kernels live in buffers reused across doubling levels and
by every chunk of a curve.

The one accuracy setting, ``rel_tol`` in (0, 1e-3] (default 1e-8), is what
every quadrature settles to.  Before any eps(i xi) or integral runs, a
ValidationError refuses a gap outside ``_GAPS``, a temperature outside
``_TEMPERATURES`` and, at T > 0, T d below ~7.29e-8 m K, where a ladder
would need more than ``_MAX_MATSUBARA`` terms; no ladder is ever cut.

Everything is computed in y = 2 kappa0 d, where each kernel decays like
exp(-y); the k-integral for Matsubara index n starts at y_min = 2 xi_n d / c.
At fixed (k, xi) the gap enters only through exp(-y), so d/dd of each kernel
is the next one of the same family.  The kinds share eps(i xi), the Fresnel
coefficients and exp(-y), so F and F'' of a fluctuation-corrected curve come
from one fused pass, each kind refined to rel_tol on its own scale.

Sign convention: free energy negative, attractive pressures and forces
positive, as sphere-plane force curves are usually plotted.

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
from .errors import ConvergenceError, PfaValidityWarning, ValidationError
from .errors import require_at_least, require_finite, require_positive, require_tolerance
from .errors import require_within
from .quadrature import DEFAULT_CUTOFF, integrate_decaying, integrate_decaying_2d

__all__ = [
    "ReflectionPair",
    "reflection_coeffs",
    "reflection_coeffs_zero_mode",
    "free_energy_per_area",
    "pressure_parallel",
    "force_sphere_plane",
    "force_curvature_sphere_plane",
    "force_and_curvature_sphere_plane",
    "force_sphere_plane_grid",
    "asymptote_thermal",
    "sensitivity_band",
    "BandResult",
]

#: PFA is the only sphere-plane mapping implemented; past this aspect ratio
#: its error is no longer negligible and callers get warned.
PFA_RATIO_LIMIT = 1e-3

#: (gap, n) rows the Matsubara ladder integrates in one family: a curve's
#: rows are packed gap after gap into families of this many, the last one
#: shorter, so a ladder's memory is bounded at any T.  The zero modes settle
#: in families of up to this many gaps.  Peak memory grows with it: against
#: one gap per family, 80 rows add ~0.5 MB (1.4 %) to the band workload's
#: peak RSS, 200 rows ~1.7 MB.
_LADDER_ROWS = 80

#: Gaps one T = 0 integral settles together, each on its own scale, in one
#: kernel call per level on the curve's tables.  Peak memory grows with it:
#: against one gap a call, 3 gaps add ~0.4 MB (1.1 %) to the curves
#: workload's peak RSS, 2 gaps ~0.25 MB, 4 ~0.65 MB and 6 ~1.3 MB.
_T0_GAPS = 3

#: Matsubara terms, n = 0 included, one gap's ladder sums at most: a curve
#: with a gap whose ladder needs more is refused, which sets the floor
#: T d >= ~7.29e-8 m K at T > 0.
_MAX_MATSUBARA = 100_000

#: The gaps, in m, every engine entry takes: below 1 nm a continuum
#: permittivity means nothing, far above 1 km the integrals overflow.
_GAPS = (1e-9, 1e3)

#: The temperatures, in K, every engine entry takes: far above any solid
#: plate, and far below the ~1e150 K where the first Matsubara row overflows.
_TEMPERATURES = (0.0, 1e6)

_C = SPEED_OF_LIGHT

#: The kernel kinds, the m-th gaining a factor 1/d^m over the energy.
_KINDS = ("energy", "pressure", "curvature")


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
        Imaginary angular frequency in rad/s, non-negative and finite.
    eps : float or array_like
        Permittivity eps(i xi), finite and >= 1.

    Returns
    -------
    ReflectionPair
        (r_te, r_tm) with kappa0 = sqrt(k^2 + xi^2/c^2) and
        kappa = sqrt(k^2 + eps xi^2/c^2).  At xi = 0 with finite eps this
        reduces to the static dielectric limit (r_te = 0); metallic
        zero-frequency behavior belongs to
        :func:`reflection_coeffs_zero_mode`.  A ValueError names the first
        argument outside its domain.
    """
    k = require_positive("transverse wavevector", k)
    xi = require_at_least("xi", xi, 0.0)
    eps = require_at_least("eps", eps, 1.0)
    kappa0 = np.sqrt(k * k + (xi / _C) ** 2)
    r = _fresnel(kappa0, kappa0 * kappa0, xi / _C, eps, _Buffers())
    return ReflectionPair(*(rp[()] for rp in r))


class _Buffers:
    """Named float buffers, "r_te", "r_tm" and "kernel", that one engine call
    reuses for every kernel evaluation: ``take(name, shape)`` views the buffer
    as ``shape`` and reallocates it only when it is too small, so the chunks
    and doubling levels of a curve write into pages already faulted in."""

    def __init__(self):
        self._flat = {}

    def take(self, name, shape):
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].reshape(shape)


def _fresnel(kappa0, kappa0_2, w, eps, buffers):
    """(r_te, r_tm) from the vacuum decay constant kappa0, its square and
    w = xi/c, in buffers "r_te" and "r_tm" of ``buffers``, with "kernel" as
    scratch.

    All may carry one common scale factor: the kernels pass y = 2 kappa0 d,
    y^2 and x = 2 xi d / c.
    """
    shape = np.broadcast_shapes(np.shape(kappa0), np.shape(w), np.shape(eps))
    # kappa^2 = kappa0^2 + (eps - 1) w^2 avoids cancellation for eps ~ 1
    kappa = np.add(kappa0_2, (eps - 1.0) * w ** 2, out=buffers.take("r_te", shape))
    np.sqrt(kappa, out=kappa)
    # three whole-grid buffers: r_tm first, then r_te over kappa; the
    # denominators go where _kernel will put its result
    r_tm = np.multiply(eps, kappa0, out=buffers.take("r_tm", shape))
    den = np.add(r_tm, kappa, out=buffers.take("kernel", shape))
    r_tm -= kappa
    r_tm /= den
    np.add(kappa0, kappa, out=den)
    r_te = np.subtract(kappa0, kappa, out=kappa)
    r_te /= den
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
    k = require_positive("transverse wavevector", k)
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


def _kernel(r, nodes, kinds, buffers):
    """Energy y ln(1 - s), pressure y^2 s/(1 - s) or curvature y^3 s/(1 - s)^2
    integrand of each of ``kinds``, s = r^2 exp(-y), summed over TE and TM;
    ``nodes`` is (y, exp(-y)), r is overwritten, and the result is buffer
    "kernel" of ``buffers``.  The energy's two logs are one
    log1p(s_te s_tm - s_te - s_tm), a few ulp from their sum, or
    ~ulp(1)/((1 - s_te)(1 - s_tm)) as s -> 1; ln((1 - s_te)(1 - s_tm))
    would drop the digits of s below ulp(1), all a row high up a ladder has.
    """
    # in place: on the T = 0 grid every temporary is a whole (gap, x, t)
    # array, and their number sets the peak memory; r may carry a gap axis
    # that y lacks.  TE writes each total but the energy's, and TM adds its
    # term from the buffer of s_te, spent by then
    y, expy = nodes
    s_te, s_tm = (np.multiply(np.square(rp, out=rp), expy, out=rp) for rp in r)
    out = buffers.take("kernel", (len(kinds),) + s_te.shape)
    for p, s in enumerate((s_te, s_tm)):
        for total, kind in zip(out, kinds):
            if kind == "energy" and not p:
                np.subtract(np.multiply(s_te, s_tm, out=total), s_te, out=total)
                np.log1p(np.subtract(total, s_tm, out=total), out=total)
            elif kind != "energy":
                term = np.subtract(1.0, s, out=s_te if p else total)
                np.divide(s, term if kind == "pressure" else np.square(term, out=term), out=term)
                if p:
                    total += term
    if set(kinds) - {"energy"}:
        y2 = np.square(y, out=s_te.reshape(-1)[:y.size].reshape(y.shape))  # s_te is spent
    for total, kind in zip(out, kinds):
        total *= y if kind == "energy" else y2
        if kind == "curvature":
            total *= y
    return out


def _table(x, t):
    """x, y = x + t, y^2 and exp(-y) at reduced frequency x = 2 xi d / c > 0
    and t = y - x: a column of (gap, n) Matsubara rows against the y nodes on
    the ladder, the (nc, n, 1) frequency nodes of nc rectangles against their
    (nc, 1, n) t nodes in the T = 0 integral, the same for every gap."""
    y = x + t
    return x, y, y * y, np.exp(-y)


def _integrand(table, eps, kinds, buffers):
    """Kernel of ``kinds`` on a :func:`_table`; ``eps`` is eps(i xi) shaped
    like its x, one value per frequency, or (gaps, nc, n, 1) for the gaps of
    a T = 0 chunk, which share the table."""
    x, y, y2, expy = table
    return _kernel(_fresnel(y, y2, x, eps, buffers), (y, expy), kinds, buffers)


def _matsubara_ladder(d, T, model, rel_tol, kinds):
    """Matsubara sums of the dimensionless y-integrals, one per kind and gap.

    Returns sum'_n I_n, shaped (len(kinds), d.size) for the 1-D array ``d``,
    with I_n the y-integral of each kernel of ``kinds``, n = 1 and every n
    with x_n = 4 pi k_B T d n / (hbar c) below DEFAULT_CUTOFF/2.  The zero
    modes settle first, one quadrature call per ``_LADDER_ROWS`` gaps; then
    the (gap, n) rows of the curve, gap after gap, in chunks of
    ``_LADDER_ROWS``, each on the panel layout of its smallest x.  Every kind
    rides in each call.  A curve with a gap whose ladder needs more than
    ``_MAX_MATSUBARA`` terms is refused with a ValidationError before eps(i
    xi) or any integral runs.
    """
    dx = 4.0 * math.pi * BOLTZMANN * T * d / (HBAR * _C)
    # past x_n = 40 terms are below exp(-40) of the sum, the T = 0 layout's
    # bound; counted in floats, as a T d that underflows to 0 needs inf rows
    with np.errstate(divide="ignore"):
        n_rows = np.maximum(np.ceil(0.5 * DEFAULT_CUTOFF / dx) - 1.0, 1.0)
    if n_rows.max() + 1.0 > _MAX_MATSUBARA:  # the n = 0 term counts too
        floor = 0.5 * DEFAULT_CUTOFF * HBAR * _C / (4.0 * math.pi * BOLTZMANN * _MAX_MATSUBARA)
        raise ValidationError(
            f"temperature {T:g} K is too low for the gap d = {d.min():.3e} m: a Matsubara "
            f"ladder sums at most {_MAX_MATSUBARA} terms, so T > 0 needs T d >= {floor:.3g} m K"
        )
    n_rows = n_rows.astype(int)
    xi = 2.0 * math.pi * BOLTZMANN * T / HBAR * np.arange(1, n_rows.max() + 1)
    eps = np.asarray(eps_imag_axis(model, xi))
    zero = _zero_mode_model(model)

    # zero modes on y = 2 k d, whose y ln y endpoint keeps the full layout
    i_zero = np.empty((len(kinds), d.size))
    for start in range(0, d.size, _LADDER_ROWS):
        family = slice(start, start + _LADDER_ROWS)
        column, buffers = d[family, None], _Buffers()
        with _located(d[family], T, kinds):
            i_zero[:, family] = integrate_decaying(
                lambda y: _kernel(reflection_coeffs_zero_mode(y / (2.0 * column), zero),
                                  (y, np.exp(-y)), kinds, buffers),
                rel_tol,
            )

    # row r of the curve is term n[r] of gap[r]
    starts = np.cumsum(n_rows) - n_rows
    gap = np.repeat(np.arange(d.size), n_rows)
    n = np.arange(gap.size) - starts[gap] + 1
    rows = np.empty((len(kinds), gap.size))
    buffers = _Buffers()  # every chunk but the last has _LADDER_ROWS rows
    for start in range(0, gap.size, _LADDER_ROWS):
        chunk = slice(start, start + _LADDER_ROWS)
        x = (dx[gap[chunk]] * n[chunk])[:, None]
        eps_rows = eps[n[chunk] - 1][:, None]
        # a row in t = y - x_n has its y ln y endpoint at t = -x_n, so the
        # smallest x_n of the chunk is how far the graded opening may thin
        with _located(d[gap[chunk]], T, kinds):
            rows[:, chunk] = integrate_decaying(
                lambda t: _integrand(_table(x, t), eps_rows, kinds, buffers), rel_tol, x.min()
            )
    return 0.5 * i_zero + np.add.reduceat(rows, starts, axis=1)


@contextmanager
def _located(gaps, T, kinds, each_gap=False):
    """Re-raise a ConvergenceError of the block with where it ran: a gap or
    the range of a chunk of gaps, the temperature and the kind.  The error's
    flat index runs over the kinds, or over (kind, gap)
    when ``each_gap`` settles every gap of ``gaps`` on its own; then the
    message names that gap."""
    try:
        yield
    except ConvergenceError as exc:
        index = getattr(exc, "kind", 0)
        if each_gap:
            index, gap = divmod(index, len(gaps))
            gaps = gaps[gap]
        lo, hi = np.min(gaps), np.max(gaps)
        at = f"d = {lo:.3e} m" if lo == hi else f"d in [{lo:.3e}, {hi:.3e}] m"
        message = f"{exc.message} at {at}, T = {T:g} K, {kinds[index]}"
        raise ConvergenceError(message, exc.achieved, exc.requested) from exc


def _lifshitz(d, T, model, rel_tol, kinds):
    """Energy, pressure or curvature per plate area of each of ``kinds``, from
    one pass: the (x, t) integral at T = 0 times hbar c / (32 pi^2 d^(3+m)),
    else the Matsubara ladder times k_B T / (8 pi d^(2+m)), m = 0, 1, 2.  Per
    kind a float for a float ``d``, an array of its shape for an array.

    Every entry point comes through here, so d, T and rel_tol are checked
    once, before any integral runs; the ladder refuses a T d below its floor
    before it computes anything.
    """
    d = require_within("separation", d, *_GAPS)
    T = require_within("temperature", T, *_TEMPERATURES, scalar=True)
    rel_tol = require_tolerance(rel_tol)
    gaps = np.ravel(d)
    # float, as integer exponents make numpy cast through buffers: +0.15 MB peak RSS
    m = np.array([[_KINDS.index(kind)] for kind in kinds], dtype=float)
    if T == 0.0:
        # one set of buffers and one table per level serve all chunks
        buffers, tables = _Buffers(), {}
        integrals = np.empty((len(kinds), gaps.size))
        for start in range(0, gaps.size, _T0_GAPS):
            chunk = gaps[start:start + _T0_GAPS]
            column = chunk[:, None, None, None]

            # one 2-D integral per chunk, each (kind, gap) settled on its own
            # scale; each level computes eps once per gap and distinct
            # frequency node, then gathers it per rectangle.  The driver
            # hands a level that settles the same rectangles the same t
            def integrand(x, t, row, column=column):
                eps = np.asarray(eps_imag_axis(model, x * _C / (2.0 * column)))[:, row]
                n = t.shape[-1]
                if tables.get(n, (None,))[0] is not t:
                    tables[n] = t, _table(x[row], t)
                return _integrand(tables[n][1], eps, kinds, buffers)

            with _located(chunk, 0.0, kinds, each_gap=True):
                integrals[:, start:start + _T0_GAPS] = integrate_decaying_2d(integrand, rel_tol)
        values = HBAR * _C / (32.0 * math.pi ** 2 * gaps ** (3 + m)) * integrals
    else:
        ladders = _matsubara_ladder(gaps, T, model, rel_tol, kinds) if gaps.size else 0.0
        values = BOLTZMANN * T / math.pi / (8.0 * gaps ** (2 + m)) * ladders
    return [float(v[0]) if np.ndim(d) == 0 else v.reshape(np.shape(d)) for v in values]


def free_energy_per_area(d, T, model, rel_tol=1e-8):
    """Lifshitz free energy per unit plate area, in J/m^2 (negative).

    Parameters
    ----------
    d : float or array_like
        Plate separation in m, 1 nm to 1 km; an array gives one per gap.
    T : float
        Temperature in K.  T = 0 dispatches to the dedicated
        imaginary-frequency integral rather than a small-T ladder.
    model : DielectricModel
        Plate material response.
    rel_tol : float
        Relative tolerance in (0, 1e-3]; see the module notes.

    Returns
    -------
    float or numpy.ndarray
        F(d, T) <= 0, shaped like ``d``; more negative means stronger
        attraction.
    """
    return _lifshitz(d, T, model, rel_tol, ("energy",))[0]


def pressure_parallel(d, T, model, rel_tol=1e-8):
    """Attractive pressure between parallel plates, in N/m^2 (positive).

    Evaluates the differentiated Lifshitz integrand
    (k_B T / pi) sum'_n int k dk kappa0 sum_p s_p/(1 - s_p) with
    s_p = r_p^2 exp(-2 kappa0 d); equal to |dF/dd| of
    :func:`free_energy_per_area`, and shaped like ``d`` as it is.
    """
    return _lifshitz(d, T, model, rel_tol, ("pressure",))[0]


def _pfa(d, R):
    """2 pi R, the PFA map's factor, after validating the radius and every
    gap of ``d`` and warning once when the largest d/R is too large."""
    R = require_positive("radius", R, scalar=True)
    ratio = np.max(require_within("separation", d, *_GAPS), initial=0.0) / R
    if ratio >= PFA_RATIO_LIMIT:
        warnings.warn(
            f"d/R = {ratio:.2e} exceeds {PFA_RATIO_LIMIT:.0e}; "
            "the proximity force approximation degrades",
            PfaValidityWarning,
            stacklevel=3,
        )
    return 2.0 * math.pi * R


def force_sphere_plane(d, T, R, model, rel_tol=1e-8):
    """Sphere-plane force via the proximity force approximation, in N.

    F = 2 pi R |free_energy_per_area(d, T)|, positive for attraction, shaped
    like ``d``.  Warns, without failing, when d/R exceeds the PFA validity
    ratio.
    """
    return _pfa(d, R) * abs(free_energy_per_area(d, T, model, rel_tol))


def force_curvature_sphere_plane(d, T, R, model, rel_tol=1e-8):
    """Curvature F'' = 2 pi R |dP/dd| of the PFA sphere-plane force, in N/m^2.

    ``d`` is a float or an array of gaps, as for :func:`free_energy_per_area`.
    Validates and warns like :func:`force_sphere_plane`.
    """
    return _pfa(d, R) * abs(_lifshitz(d, T, model, rel_tol, ("curvature",))[0])


def force_and_curvature_sphere_plane(d, T, R, model, rel_tol=1e-8):
    """(F, F''), :func:`force_sphere_plane` and :func:`force_curvature_sphere_plane`
    from one pass: eps(i xi), the Fresnel coefficients and exp(-y) once for
    both, each settled to rel_tol on its own scale."""
    pfa = _pfa(d, R)
    return tuple(pfa * abs(v) for v in _lifshitz(d, T, model, rel_tol, ("energy", "curvature")))


def asymptote_thermal(d, R, T, which):
    """Closed-form large-separation thermal force, in N.

    zeta(3) R k_B T / (8 d^2) when the TE zero mode is absent ("drude"),
    twice that when it survives ("plasma"); shaped like ``d``.  A force too
    large for a float is refused, not returned as inf.
    """
    R = require_positive("radius", R)
    d = require_positive("separation", d)
    T = require_at_least("temperature", T, 0.0, scalar=True)
    if which not in ("drude", "plasma"):
        raise ValueError(f"model family must be 'drude' or 'plasma', got {which!r}")
    force = ZETA3 * R * BOLTZMANN * T / (8.0 if which == "drude" else 4.0) / d / d
    return require_finite("thermal force", force)


def force_sphere_plane_grid(separations, T, R, model, rel_tol=1e-8):
    """Sphere-plane force on a 1-D separation grid, in N.

    The forces :func:`force_sphere_plane` gives gap by gap, to within
    rel_tol, computed as one curve: at T > 0 one Matsubara ladder over all
    gaps (eps(i xi_n) once, gaps batched into quadrature families), at T = 0
    one 2-D integral per chunk of a few gaps, each gap settled on its own
    scale.  Every gap is validated before any integral runs; an empty grid
    gives an empty array.
    """
    separations = require_positive("separation", separations)
    if np.ndim(separations) != 1:
        raise ValueError(f"separation grid must be 1-D, got shape {np.shape(separations)}")
    return _pfa(separations, R) * abs(free_energy_per_area(separations, T, model, rel_tol))


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
    rel_tol=1e-8,
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
    rel_tol : float
        Relative tolerance of every curve, as for :func:`free_energy_per_area`.
    """
    d_grid = require_positive("separation", d_grid)
    if np.ndim(d_grid) != 1 or not d_grid.size:
        shape = np.shape(d_grid)
        raise ValueError(f"separation grid must be 1-D and non-empty, got shape {shape}")
    # both ranges, whatever the family, before any curve runs
    ranges = {"omega_p_range": omega_p_range, "gamma_range": gamma_range}
    for name, pair in ranges.items():
        pair = require_positive(name, pair)
        if np.shape(pair) != (2,):
            raise ValueError(f"{name} must be a (low, high) pair, got shape {np.shape(pair)}")
        ranges[name] = sorted(pair.tolist())
    (wp_lo, wp_hi), (g_lo, g_hi) = ranges.values()

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
        model: force_sphere_plane_grid(d_grid, T, R, model, rel_tol)
        for model in dict.fromkeys(models + [center])
    }
    stacked = np.vstack(list(curves.values()))
    return BandResult(
        separations=d_grid,
        f_min=stacked.min(axis=0),
        f_center=curves[center],
        f_max=stacked.max(axis=0),
    )
