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
same for every gap: a curve builds y, y^2 and exp(-y) of a block of a
level once and keeps them while its chunks run that block, and a table's
eps(i xi) runs per gap on the block's distinct frequency nodes only.

Every entry point takes a float or an array of gaps (a float gives a float,
computed as a grid of one).  At T > 0 a curve is one ladder: one eps(i xi_n)
evaluation per model, as xi_n does not depend on the gap, and the (gap, n)
rows n >= 1 of the curve packed into families of ``_LADDER_ROWS`` rows, in
consecutive groups of gaps of under 2 ``_MAX_MATSUBARA`` rows, so memory is
bounded at any T and any number of gaps.  The rows do not depend on the model
either, so the parameter sets of a sensitivity band share one ladder: a
model axis rides through every row family next to the kinds, and more than
three models take fewer rows to a family to hold its memory.  A gap's rows
stop below x_n = 2 xi_n d / c = DEFAULT_CUTOFF/2 = 40, where its terms fall
under exp(-40) of the sum.  A row n >= 1 starts at y = x_n, clear of the
y ln y endpoint at y = 0: from x_n = ``_LAGUERRE_X`` = 1 it decays like
exp(-t) in t = y - x_n and tries the Gauss-Laguerre pair, which accepts or
refuses each row on its own value; the rest, and every refused row, go to
the panels.  The n = 0 terms are closed forms plus, for a lifted model,
one TE correction row per gap that tries the pair the same way.  At
T = 0 the gaps computed directly take one 2-D integral per chunk of
``_T0_GAPS`` consecutive gaps, each gap settled on its own scale, in one
kernel call per block of a level; the chunk size and the node budget of a
block bound the peak memory.  A T = 0 curve of at least 2 ``_T0_NODES`` =
24 gaps, not all equal, is interpolated in ln d from ``_T0_NODES``
Chebyshev points over its range where the interpolant's error estimate
allows (:func:`_t0_curve`); shorter curves, scalars and every T > 0 curve
are computed gap by gap.  The ladder rows and the T = 0 levels read y, y^2
and exp(-y) from one node table and share one Fresnel formula and one
kernel; the whole-grid temporaries of the Fresnel coefficients and kernels
live in buffers reused across doubling levels and by every family or chunk
of a curve.

The one accuracy setting, ``rel_tol`` in (0, 1e-3] (default 1e-8), is what
every quadrature settles to.  Before any eps(i xi) or integral runs, a
ValidationError refuses a gap outside ``GAPS``, a temperature outside
``_TEMPERATURES`` and, at T > 0, T d below ~7.29e-8 m K, where a ladder
would need more than ``_MAX_MATSUBARA`` terms; no ladder is ever cut.

Everything is computed in y = 2 kappa0 d, where each kernel decays like
exp(-y); the k-integral for Matsubara index n starts at y_min = 2 xi_n d / c.
At fixed (k, xi) the gap enters only through exp(-y), so d/dd of each kernel
is the next one of the same family.  The kinds share eps(i xi), the Fresnel
coefficients and exp(-y), so F and F'' of a fluctuation-corrected curve come
from one fused pass, each kind refined to rel_tol on its own scale, and so
does every model of a ladder.

Sign convention: free energy negative, attractive pressures and forces
positive, as sphere-plane force curves are usually plotted.

The n = 0 term is a model-family dispatch, never a numerical xi -> 0 limit:
it picks the Fresnel inputs 1/eps and (eps - 1)(xi/c)^2 at xi = 0, finite
for every model.  A dissipative free-electron metal, (0, 0), loses its
zero-frequency TE mode entirely, a dissipationless one keeps it.  The
finite-temperature force difference between those two descriptions is the
physics this package exists to model.  Without a lift r_te = 0 and r_tm is
a constant rho, so the term is -Li3(rho^2), 2 Li3(rho^2) or 6 Li3(rho^2)
by kind (Drude: rho = 1, zeta(3)).  With a lift (plasma, or a table that
continues as one) r_tm = 1, and TE is the ideal zeta(3) value plus a
smooth correction without the y ln y endpoint, one row per gap (Bordag,
Klimchitskaya, Mohideen & Mostepanenko, Advances in the Casimir Effect,
OUP 2009).  A 300 K ladder on 0.7-7 um thus runs no panel quadrature.
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
from .quadrature import integrate_laguerre

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
#: shorter, so a ladder's memory is bounded at any T.  Every model of a
#: ladder rides in each family, and one of more than three models holds
#: 3 _LADDER_ROWS (model, row) pairs to a family; the TE corrections of the
#: zero modes fill families of this many gaps.  Peak memory grows with it
#: only a little, as the rows take 48 Gauss-Laguerre nodes in one call, not
#: panel levels of ~40 and ~80: with no panel family and no LAPACK call the
#: band workload's peak RSS reads ~31.0 MB at 80 rows (~31.5 MB before the
#: zero modes left the panels).
_LADDER_ROWS = 80

#: The smallest x_n of a row n >= 1 that tries the Gauss-Laguerre pair
#: before the panels: in t = y - x_n the row decays like exp(-t) and its
#: y ln y endpoint sits at t = -x_n, which slows the pair's convergence as
#: x_n falls (at 1 K and rel_tol 1e-8 it refused nearly every row it was
#: tried on with x_n in [0.5, 1)).
_LAGUERRE_X = 1.0

#: Gaps one T = 0 integral settles together, each on its own scale, in one
#: kernel call per block of a level.  Peak memory grows with it: the verdict
#: workload's peak RSS reads ~31.6 MB at 1 or 2 gaps, ~31.9 at 3, ~32.1 at 4
#: and ~32.7 at 6 (the curves workload's ~31.4 MB up to 4, ~31.8 at 6).
_T0_GAPS = 3

#: Chebyshev points in ln d a T = 0 curve of at least twice as many gaps is
#: interpolated from: on 0.7-7 um the interpolant of gold is ~2.4e-11 off a
#: tight direct pass (8 points: ~6e-8, 16: ~1e-12).
_T0_NODES = 12

#: Matsubara terms, n = 0 included, one gap's ladder sums at most: a curve
#: with a gap whose ladder needs more is refused, which sets the floor
#: T d >= ~7.29e-8 m K at T > 0.  A ladder runs its gaps in groups of under
#: twice this many rows, so its memory does not grow with the gaps.
_MAX_MATSUBARA = 100_000

#: The gaps, in m, every engine entry takes: below 1 nm a continuum
#: permittivity means nothing, far above 1 km the integrals overflow.
GAPS = (1e-9, 1e3)

#: The temperatures, in K, every engine entry takes: far above any solid
#: plate, and far below the ~1e150 K where the first Matsubara row overflows.
_TEMPERATURES = (0.0, 1e6)

_C = SPEED_OF_LIGHT

#: The kernel kinds, the m-th gaining a factor 1/d^m over the energy.
_KINDS = ("energy", "pressure", "curvature")

#: The zero-mode y-integral of each kind per Li3(rho^2) of a constant
#: reflection rho: with r = (0, rho) the kernels are sums over j of
#: y^(m+1) rho^(2j) exp(-j y) times -1/j, 1 and j, so the integrals are
#: -Li3(rho^2), 2 Li3(rho^2) and 6 Li3(rho^2); rho = 1 gives zeta(3).
_LI3_FACTORS = {"energy": -1.0, "pressure": 2.0, "curvature": 6.0}

#: (k, zeta(3 - k)/k!) of the terms k >= 3 of Li3(e^mu) in powers of mu that
#: do not vanish, to k = 18, where |mu| <= ln 2 leaves them under 1e-19.
_LI3_LOG_SERIES = tuple((k, zeta / math.factorial(k)) for k, zeta in (
    (3, -1 / 2), (4, -1 / 12), (6, 1 / 120), (8, -1 / 252), (10, 1 / 240),
    (12, -1 / 132), (14, 691 / 32760), (16, -1 / 12), (18, 3617 / 8160),
))


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
    r = _fresnel(kappa0, kappa0 * kappa0, 1.0 / eps, (eps - 1.0) * (xi / _C) ** 2, _Buffers())
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


def _fresnel(kappa0, kappa0_2, inv_eps, lift, buffers):
    """(r_te, r_tm) in buffers "r_te" and "r_tm" of ``buffers``, "kernel" as
    scratch, from the vacuum decay constant kappa0, its square, 1/eps and the
    lift (eps - 1)(xi/c)^2: kappa^2 = kappa0^2 + lift, r_te = (kappa0 -
    kappa)/(kappa0 + kappa), r_tm = (kappa0 - kappa/eps)/(kappa0 + kappa/eps).
    Both inputs are finite at xi = 0 for every model (:func:`_zero_mode`).
    kappa0 may carry a scale factor, and the lift its square: the kernels
    pass y = 2 kappa0 d, y^2 and the lift times (2d)^2.
    """
    shape = np.broadcast_shapes(np.shape(kappa0), np.shape(inv_eps), np.shape(lift))
    # kappa^2 = kappa0^2 + lift avoids cancellation for eps ~ 1
    kappa = np.add(kappa0_2, lift, out=buffers.take("r_te", shape))
    np.sqrt(kappa, out=kappa)
    # three whole-grid buffers: r_tm first, then r_te over kappa; the
    # denominators go where _kernel will put its result
    r_tm = np.multiply(kappa, inv_eps, out=buffers.take("r_tm", shape))
    den = np.add(kappa0, r_tm, out=buffers.take("kernel", shape))
    np.subtract(kappa0, r_tm, out=r_tm)
    r_tm /= den
    np.add(kappa0, kappa, out=den)
    r_te = np.subtract(kappa0, kappa, out=kappa)
    r_te /= den
    return ReflectionPair(r_te, r_tm)


def reflection_coeffs_zero_mode(k, model):
    """Zero-frequency reflection coefficients by model family: dissipative
    free-electron metals (Drude family) lose the TE zero mode, (0, 1);
    dissipationless ones (plasma family) keep a TE reflection that depends on
    k through the plasma wavevector omega_p/c; constant and bound-charge
    models take the static limit (0, (eps0 - 1)/(eps0 + 1)).  A tabulated
    model answers as its continuation below the table, or as
    ConstantModel(static_eps) without one."""
    k = require_positive("transverse wavevector", k)
    r = _fresnel(k, k * k, *_zero_mode(model), _Buffers())
    return ReflectionPair(*(rp[()] for rp in r))


def _zero_mode(model):
    """(1/eps, (eps - 1)(xi/c)^2) of ``model`` at xi = 0, in 1 and 1/m^2:
    Drude (0, 0), plasma (0, (omega_p/c)^2), constant (1/eps0, 0); a
    tabulated model takes its continuation, or (1/static_eps, 0)."""
    if isinstance(model, TabulatedModel):
        if model.extrapolation is None:
            return 1.0 / static_eps(model), 0.0
        return _zero_mode(model.extrapolation)
    if isinstance(model, DrudeModel):
        return 0.0, 0.0
    if isinstance(model, PlasmaModel):
        return 0.0, (model.omega_p / _C) ** 2
    if isinstance(model, ConstantModel):
        return 1.0 / model.eps, 0.0
    raise TypeError(f"unknown dielectric model {type(model).__name__}")


def _polylog3(z):
    """Li3(z) = sum_j z^j / j^3 for 0 <= z <= 1, exactly ZETA3 at z = 1: the
    series itself below z = 1/2; above it the series in mu = ln z,
    Li3(e^mu) = zeta(3) + zeta(2) mu + (3/2 - ln(-mu)) mu^2/2
    + sum_(k>=3) zeta(3 - k) mu^k/k!, which keeps the digits of 1 - z."""
    if z < 0.5:
        return math.fsum(z ** j / j ** 3 for j in range(1, 60))
    if z == 1.0:
        return ZETA3
    mu = math.log(z)
    tail = sum(c * mu ** k for k, c in _LI3_LOG_SERIES)
    return ZETA3 + (math.pi ** 2 / 6.0 * mu + ((1.5 - math.log(-mu)) * mu * mu / 2.0 + tail))


def _te_correction(table, p2, kinds):
    """The TE zero-mode integrand of a lift p2 = P^2 > 0 (P = 2 d omega_p / c
    for the plasma model) less that of an ideal mirror, one per kind: with
    r = (y - kappa)/(y + kappa), kappa^2 = y^2 + P^2, s = r^2 exp(-y) and
    s0 = exp(-y), the energy y ln((1 - s)/(1 - s0)), the pressure
    y^2 [s/(1 - s) - s0/(1 - s0)] and the curvature
    y^3 [s/(1 - s)^2 - s0/(1 - s0)^2].  Written in delta = s0 - s =
    (1 - r^2) s0, 1 - r^2 = 4 y kappa/(y + kappa)^2, and b = 1 - s0, every
    term has one sign: no cancellation, and no y ln y endpoint, so a row
    decays like exp(-y) and is smooth at y = 0 for P not too small."""
    y, y2, s0 = table
    kappa = np.sqrt(y2 + p2)
    delta = 4.0 * y * kappa / np.square(y + kappa) * s0
    b = -np.expm1(-y)
    out = []
    for kind in kinds:
        if kind == "energy":
            out.append(y * np.log1p(delta / b))
        elif kind == "pressure":
            out.append(-y2 * delta / ((b + delta) * b))
        else:
            spread = b * (b + 2.0 * s0) + s0 * delta
            out.append(-y2 * y * delta * spread / np.square((b + delta) * b))
    return np.stack(out)


def _kernel(r, table, kinds, buffers):
    """Energy y ln(1 - s), pressure y^2 s/(1 - s) or curvature y^3 s/(1 - s)^2
    integrand of each of ``kinds``, s = r^2 exp(-y), summed over TE and TM;
    y, y^2 and exp(-y) come from the :func:`_table`, r is overwritten, and
    the result is buffer "kernel" of ``buffers``.  The energy's two logs are
    one log1p(s_te s_tm - s_te - s_tm), a few ulp from their sum, or
    ~ulp(1)/((1 - s_te)(1 - s_tm)) as s -> 1; ln((1 - s_te)(1 - s_tm))
    would drop the digits of s below ulp(1), all a row high up a ladder has.
    """
    # in place: on the T = 0 grid every temporary is a whole (gap, x, t)
    # array, and their number sets the peak memory; r may carry a gap or a
    # model axis that the table lacks.  TE writes each total but the
    # energy's, and TM adds its term from the buffer of s_te, spent by then
    y, y2, expy = table
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
    for total, kind in zip(out, kinds):
        total *= y if kind == "energy" else y2
        if kind == "curvature":
            total *= y
    return out


def _table(x, t):
    """y = x + t, y^2 and exp(-y), what every :func:`_kernel` call reads, at
    reduced frequency x = 2 xi d / c and t = y - x: a column of (gap, n)
    Matsubara rows against the y nodes on the ladder, x = 0 on its n = 0
    rows, the (nc, n, 1) frequency nodes of nc rectangles against their
    (nc, 1, n) t nodes in the T = 0 integral, the same for every gap."""
    y = x + t
    return y, y * y, np.exp(-y)


def _integrand(table, inv_eps, lift, kinds, buffers):
    """Kernel of ``kinds`` on a :func:`_table`; ``inv_eps`` is 1/eps(i xi) and
    ``lift`` is (eps - 1) x^2, each shaped like the table's x, one value per
    frequency, with a leading axis for the models of a ladder, or (gaps, nc,
    n, 1) for the gaps of a T = 0 chunk, which share the table."""
    y, y2, _ = table
    return _kernel(_fresnel(y, y2, inv_eps, lift, buffers), table, kinds, buffers)


def _matsubara_ladder(d, T, models, rel_tol, kinds):
    """Matsubara sums of the dimensionless y-integrals, one per kind, model
    and gap.

    Returns sum'_n I_n, shaped (len(kinds), len(models), d.size) for the 1-D
    array ``d``, with I_n the y-integral of each kernel of ``kinds``, n = 0,
    1 and every n with x_n = 4 pi k_B T d n / (hbar c) below
    DEFAULT_CUTOFF/2.  The rows and node tables do not depend on the model,
    only the Fresnel inputs 1/eps and (eps - 1)(xi_n/c)^2 do, computed once
    per model and n (n = 0 by :func:`_zero_mode`); every model rides in each
    family.  A family holds ``_LADDER_ROWS`` (gap, n) rows, or 3
    ``_LADDER_ROWS`` (model, row) pairs for more than three models.  The
    n = 0 term is a closed form, -Li3(rho^2), 2 Li3(rho^2) or 6 Li3(rho^2)
    of the TM reflection rho, plus for a model with a lift the ideal TE
    value at rho = 1 and the :func:`_te_correction` row of each gap; those
    rows of every lifted model run first, on the pair and then the panels
    as below.  Then the n >= 1 rows, in consecutive groups of gaps of under
    2 ``_MAX_MATSUBARA`` rows: those at x_n >= ``_LAGUERRE_X``, gap after
    gap, run on the Gauss-Laguerre pair of :func:`integrate_laguerre`, one
    kernel call of 48 nodes a family, which keeps each row whose 16- and
    32-node sums agree to rel_tol of its own value in every (kind, model).
    Last the rows below ``_LAGUERRE_X`` and every refused one, gap after
    gap, run on the panels.  On the panels
    each (kind, model) settles on its own scale, and only they raise
    ConvergenceError.  A curve with a gap whose ladder needs more than
    ``_MAX_MATSUBARA`` terms is refused with a ValidationError before
    eps(i xi) or any integral runs.
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
    eps = np.array([eps_imag_axis(model, xi) for model in models])
    # column n - 1 of each model's 1/eps and lift, the inputs of row n
    inv_eps, lift_xi = 1.0 / eps, (eps - 1.0) * (xi / _C) ** 2
    buffers, size = _Buffers(), max(1, min(_LADDER_ROWS, 3 * _LADDER_ROWS // len(models)))

    def families(index):
        return (index[start:start + size] for start in range(0, index.size, size))

    def integrate(out, integrand, gap_of, paired, unpaired, named):
        """out[..., i] for the rows i of ``paired``, tried on the Gauss-Laguerre
        pair first, and of ``unpaired``: the rows the pair refuses join the
        unpaired ones on the panels, gap after gap; ``gap_of`` maps a row to
        its gap, and an error names the models of ``named``."""
        panel = [unpaired]
        for family in families(paired):
            accepted, integrals = integrate_laguerre(integrand(family), rel_tol)
            out[..., family[accepted]] = integrals
            panel.append(family[~accepted])
        for family in families(np.sort(np.concatenate(panel))):
            with _located(d[gap_of[family]], T, kinds, named):
                out[..., family] = integrate_decaying(integrand(family), rel_tol)

    # the n = 0 terms: TM, and TE without a lift, in closed form; each
    # gap's TE correction of every lifted model is a row in y, from y = 0
    zero = np.array([_zero_mode(model) for model in models])
    rho2 = ((1.0 - zero[:, 0]) / (1.0 + zero[:, 0])) ** 2
    has_lift = zero[:, 1] > 0.0
    li3 = np.array([_polylog3(z) for z in rho2]) + np.where(has_lift, ZETA3, 0.0)
    sums = np.empty((len(kinds), len(models), d.size))
    sums[...] = np.array([[[_LI3_FACTORS[kind]]] for kind in kinds]) * li3[:, None]
    if has_lift.any():
        lifted = np.flatnonzero(has_lift)
        te = np.empty((len(kinds), lifted.size, d.size))
        p2 = zero[lifted, 1, None, None]

        def correction(family):
            lift = p2 * (2.0 * d[family, None]) ** 2
            return lambda t: _te_correction(_table(0.0, t), lift, kinds)

        gaps = np.arange(d.size)
        named = tuple(models[j] for j in lifted) if len(models) > 1 else ()
        integrate(te, correction, gaps, gaps, gaps[:0], named)
        sums[:, lifted] += te
    sums *= 0.5

    # the gaps run in consecutive groups of under 2 _MAX_MATSUBARA rows, as
    # one gap may need _MAX_MATSUBARA, so the row arrays below are bounded
    # however many gaps a curve has
    named = models if len(models) > 1 else ()
    cuts = np.flatnonzero(np.diff(np.cumsum(n_rows) // _MAX_MATSUBARA)) + 1
    for first, stop in zip([0, *cuts], [*cuts, d.size]):
        # row r is term n[r] of gap[r], each gap's rows from n = 1
        counts = n_rows[first:stop]
        starts = np.cumsum(counts) - counts
        gap = np.repeat(np.arange(first, stop), counts)
        n = np.arange(gap.size) - starts[gap - first] + 1
        x_row = dx[gap] * n
        rows = np.empty((len(kinds), len(models), gap.size))

        def integrand(family):
            x = x_row[family, None]
            inv = inv_eps[:, n[family] - 1, None]
            lift = lift_xi[:, n[family] - 1, None] * (2.0 * d[gap[family], None]) ** 2
            return lambda t: _integrand(_table(x, t), inv, lift, kinds, buffers)

        paired = x_row >= _LAGUERRE_X
        integrate(rows, integrand, gap, np.flatnonzero(paired), np.flatnonzero(~paired), named)
        sums[..., first:stop] += np.add.reduceat(rows, starts, axis=-1)
    return sums


@contextmanager
def _located(gaps, T, kinds, models=(), each_gap=False, span=None):
    """Re-raise a ConvergenceError of the block with where it ran: the gap or
    range of ``gaps``, the temperature, the kind and, given ``models``, the
    model.  The error's flat index runs over (kind, model), or (kind) without
    ``models``; with ``each_gap`` over (kind, gap), and the message names
    that gap, or the range of ``span``, the curve that interpolation nodes
    serve."""
    try:
        yield
    except ConvergenceError as exc:
        index = getattr(exc, "kind", 0)
        if each_gap:
            index, gap = divmod(index, len(gaps))
            gaps = gaps[gap] if span is None else span
        kind, model = divmod(index, max(len(models), 1))
        lo, hi = np.min(gaps), np.max(gaps)
        at = f"d = {lo:.3e} m" if lo == hi else f"d in [{lo:.3e}, {hi:.3e}] m"
        of = f" of {models[model]!r}" if models else ""
        message = f"{exc.message} at {at}, T = {T:g} K, {kinds[kind]}{of}"
        raise ConvergenceError(message, exc.achieved, exc.requested) from exc


def _t0_direct(gaps, model, rel_tol, kinds, span=None):
    """The (x, t) integral of each of ``kinds`` at each of the 1-D ``gaps``,
    shaped (len(kinds), gaps.size): one 2-D integral per chunk of
    ``_T0_GAPS`` gaps, each gap settled on its own scale.  A ConvergenceError
    names the gap that failed, or the range of ``span`` when the gaps are
    interpolation nodes that serve that curve."""
    # the buffers serve all chunks; a chunk keeps the entries of the chunk
    # before on the blocks they share (the driver hands a block the same t,
    # which its entry keeps alive); a table's eps sorts, so x is deduplicated
    buffers, tables, distinct = _Buffers(), {}, isinstance(model, TabulatedModel)
    integrals = np.empty((len(kinds), gaps.size))
    for start in range(0, gaps.size, _T0_GAPS):
        chunk = gaps[start:start + _T0_GAPS]
        column, last, tables = chunk[:, None], tables, {}

        def integrand(x, t, column=column, last=last, tables=tables):
            if id(t) not in tables and id(t) not in last:
                nodes = np.unique(x, return_inverse=True) if distinct else (x.ravel(), slice(None))
                tables[id(t)] = t, _table(x, t), *nodes
            _, table, nodes, index = tables.setdefault(id(t), last.get(id(t)))
            eps = eps_imag_axis(model, nodes * _C / (2.0 * column))[:, index].reshape(-1, *x.shape)
            return _integrand(table, 1.0 / eps, (eps - 1.0) * x ** 2, kinds, buffers)

        with _located(chunk, 0.0, kinds, each_gap=True, span=span):
            integrals[:, start:start + _T0_GAPS] = integrate_decaying_2d(integrand, rel_tol)
    return integrals


def _t0_curve(gaps, model, rel_tol, kinds):
    """:func:`_t0_direct` of ``gaps``, or its Chebyshev interpolant in ln d.

    A curve of at least 2 ``_T0_NODES`` gaps, not all equal, computes the
    integrals directly on ``_T0_NODES`` Chebyshev points of the first kind
    in ln d over [min d, max d]; they are smooth there, as d enters only
    through eps(i x c/2d).  The discrete cosine sum gives the coefficients
    c_j of the interpolant sum_j c_j T_j(u).  It is taken when, for every
    kind, the last two coefficients are at most rel_tol times the smallest
    value at the nodes, each gap's error being relative to its own value,
    and evaluated at the gaps as sum_j c_j cos(j arccos u); otherwise the
    gaps are computed directly, at ~1.4 times the direct cost in all.
    """
    lo, hi = np.log([gaps.min(), gaps.max()]) if gaps.size >= 2 * _T0_NODES else (0.0, 0.0)
    if lo < hi:
        degrees = np.arange(_T0_NODES)
        theta = math.pi * (degrees + 0.5) / _T0_NODES
        nodes = np.exp(0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(theta))
        at_nodes = _t0_direct(nodes, model, rel_tol, kinds, span=gaps)
        coeffs = 2.0 / _T0_NODES * np.einsum("ij,jk", at_nodes, np.cos(np.outer(theta, degrees)))
        coeffs[:, 0] *= 0.5
        if np.all(np.abs(coeffs[:, -2:]).max(axis=1) <= rel_tol * np.abs(at_nodes).min(axis=1)):
            u = np.clip((2.0 * np.log(gaps) - hi - lo) / (hi - lo), -1.0, 1.0)
            return np.einsum("ij,jk", coeffs, np.cos(np.outer(degrees, np.arccos(u))))
    return _t0_direct(gaps, model, rel_tol, kinds)


def _lifshitz_models(d, T, models, rel_tol, kinds):
    """Energy, pressure or curvature per plate area of each of ``kinds`` and
    ``models`` at the gaps of ``d``, shaped (len(kinds), len(models),
    d.size), from one pass: the (x, t) integral at T = 0, one curve per
    model, times hbar c / (32 pi^2 d^(3+m)), else one Matsubara ladder for
    every model times k_B T / (8 pi d^(2+m)), m = 0, 1, 2.

    Every entry point comes through here, so d, T and rel_tol are checked
    once, before any integral runs; the ladder refuses a T d below its floor
    before it computes anything.
    """
    d = require_within("separation", d, *GAPS)
    T = require_within("temperature", T, *_TEMPERATURES, scalar=True)
    rel_tol = require_tolerance(rel_tol)
    gaps = np.ravel(d)
    # float, as integer exponents make numpy cast through buffers: +0.15 MB peak RSS
    m = np.array([[[_KINDS.index(kind)]] for kind in kinds], dtype=float)
    if T == 0.0:
        integrals = np.stack([_t0_curve(gaps, model, rel_tol, kinds) for model in models], axis=1)
        return HBAR * _C / (32.0 * math.pi ** 2 * gaps ** (3 + m)) * integrals
    ladders = _matsubara_ladder(gaps, T, models, rel_tol, kinds) if gaps.size else 0.0
    return BOLTZMANN * T / math.pi / (8.0 * gaps ** (2 + m)) * ladders


def _lifshitz(d, T, model, rel_tol, kinds):
    """:func:`_lifshitz_models` of the one ``model``: per kind a float for a
    float ``d``, an array of its shape for an array."""
    values = _lifshitz_models(d, T, (model,), rel_tol, kinds)[:, 0]
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
    ratio = np.max(require_within("separation", d, *GAPS), initial=0.0) / R
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
    rel_tol, computed as one curve (see the module notes): at T > 0 one
    Matsubara ladder over all gaps, at T = 0 chunks of a few gaps or, on 24
    or more gaps, an interpolant in ln d where its error estimate allows.
    Every gap is validated before any integral runs; an empty grid gives an
    empty array.
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
    curves remain.  Each distinct parameter set is evaluated once: at T > 0
    one ladder for every distinct parameter set, as they share its rows and
    node tables, at T = 0 one curve each.

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
    distinct = tuple(dict.fromkeys(models + [center]))
    pfa = _pfa(d_grid, R)
    forces = pfa * np.abs(_lifshitz_models(d_grid, T, distinct, rel_tol, ("energy",))[0])
    return BandResult(
        separations=d_grid,
        f_min=forces.min(axis=0),
        f_center=forces[distinct.index(center)],
        f_max=forces.max(axis=0),
    )
