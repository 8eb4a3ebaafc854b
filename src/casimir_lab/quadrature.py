"""Adaptive Gauss-Legendre panel and Gauss-Laguerre quadrature for decaying integrands.

The Lifshitz kernels, once written in the dimensionless variable y = 2*kappa0*d,
all decay like exp(-y) times a mild prefactor and live on [0, inf).  The scheme
covers [0, cutoff] with a fixed panel layout, graded toward zero because several
kernels have an integrable y*log(y) endpoint, and doubles the node count on each
cell, 6, 12, 24, ..., until its estimate is finite and stable relative to the
total.  A cell is a panel in 1-D and a rectangle in 2-D; one loop refines both,
and a level evaluates its unsettled cells in one call, or blocks of them in 2-D.

A row that decays like exp(-t) on [0, inf) and is smooth at t = 0, such as
a Matsubara row written in t = y - x_n or the Kramers-Kronig tail of an
optical table written in u = s v, suits the weight of Gauss-Laguerre
quadrature, so :func:`integrate_laguerre` tries a family of rows on the
16- and 32-node rules of ``LAGUERRE_PAIR`` in one integrand call of 48
abscissae, and accepts each row on its own when the two sums agree to
rel_tol of its own value in every kind; the caller runs the rows it refuses,
a non-finite one among them, on the panels.

The Gauss-Legendre rules are built by Newton on the Legendre recurrence on
a rule's first use, and the Laguerre pair is a module constant, so no LAPACK
routine and no BLAS matrix-matrix product runs.

The 2-D rectangles form an L-shaped layout.  Only the corner x = t = 0 needs
the graded t-panels, so the x-panel at 0 pairs with every t-panel and one with
lower edge a > 0 with a merged t-panel [0, a], then the t-panels above a.  A
rectangle with x_lo + t_lo >= cutoff/2 holds under exp(-cutoff/2) of the
total and is dropped: 62 rectangles, not 121 pairs.  A small cache keeps the
read-only nodes of each 2-D block, keyed by its rectangles and node count.
"""

import math
from functools import lru_cache
from itertools import pairwise

import numpy as np

from .errors import ConvergenceError, ValidationError, is_integer

__all__ = [
    "gauss_legendre",
    "panel_edges",
    "integrate_decaying",
    "integrate_decaying_2d",
    "integrate_laguerre",
]

#: Opening sub-panel edges; ratio-8 grading tames integrable log endpoints.
_GRADED_OPENING = (2.0 ** -14, 2.0 ** -11, 2.0 ** -8, 2.0 ** -5, 2.0 ** -2)

#: Panels beyond the cutoff contribute ~exp(-cutoff) of the total.
DEFAULT_CUTOFF = 80.0

#: Nodes per cell axis on the first pass; a smooth cell settles at 6 + 12.
_NODE_START = 6

#: Most nodes per cell axis; a cell unsettled there raises ConvergenceError.
_NODE_CAP, _NODE_CAP_2D = 192, 96

#: Most 2-D nodes in one call, bar a lone rectangle: 62 at 6 x 6, 32 at 12 x 12.
_NODE_BUDGET = 4608


def panel_edges():
    """Panel edges on [0, DEFAULT_CUTOFF]: graded opening, then doubling widths."""
    edges = [0.0, *_GRADED_OPENING]
    width = 2.0
    while edges[-1] + width < DEFAULT_CUTOFF:
        edges.append(edges[-1] + width)
        width *= 2.0
    edges.append(DEFAULT_CUTOFF)
    return edges


_EDGES = panel_edges()
#: Each panel's lower edge and half width; built at import, as arrays built
#: mid-curve would outlive the curve's temporaries in the heap and fragment it.
_LOWER, _HALF = np.array(_EDGES[:-1]), 0.5 * np.diff(_EDGES)


def _read_only(*arrays):
    """``arrays``, each marked read-only, as a tuple."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


#: The stored Gauss-Laguerre rules a row is tried on, the smaller one first:
#: the nodes t and the weights times e^t of the 16- and 32-node rules, as the
#: Jacobi-matrix eigenvalues with one Newton step and the Christoffel weights
#: from the three-term recurrence give them (~1e-14 relative).  Built at run
#: time, they would cost a process a LAPACK eigensolver's first call (~0.6 MB
#: of peak RSS), so they are a table, as QUADPACK keeps its rules.
LAGUERRE_PAIR = tuple(_read_only(np.array(t), np.array(w)) for t, w in (
    (  # 16 nodes
        (
            0.08764941047892753, 0.4626963289150805, 1.1410577748312265, 2.1292836450983805,
            3.4370866338932067, 5.078018614549768, 7.070338535048234, 9.438314336391938,
            12.214223368866158, 15.441527368781617, 19.180156856753136, 23.515905693991908,
            28.57872974288214, 34.58339870228663, 41.94045264768833, 51.70116033954332,
        ),
        (
            0.22503631486424625, 0.5258360527623431, 0.8319613916870872, 1.1460992409637512,
            1.4717513169668084, 1.8131346873813494, 2.175517519694608, 2.5657627501650295,
            2.9932150863713742, 3.4712344831020903, 4.020044086444668, 4.672516607732852,
            5.487420657986157, 6.585361233289213, 8.276357984364235, 11.824277551658437,
        ),
    ),
    (  # 32 nodes
        (
            0.044489365833267285, 0.2345261095196181, 0.5768846293018858, 1.0724487538178178,
            1.7224087764446456, 2.5283367064257947, 3.4922132730219944, 4.616456769749767,
            5.903958504174245, 7.358126733186241, 8.982940924212597, 10.78301863253997,
            12.763697986742725, 14.931139755522556, 17.292454336715316, 19.855860940336054,
            22.630889013196775, 25.628636022459247, 28.862101816323474, 32.346629153964734,
            36.10049480575197, 40.14571977153944, 44.509207995754934, 49.22439498730864,
            54.33372133339691, 59.89250916213402, 65.97537728793505, 72.68762809066271,
            80.18744697791352, 88.7353404178924, 98.82954286828398, 111.7513980979377,
        ),
        (
            0.11418710576810633, 0.2660652168976148, 0.41879313732485235, 0.5725328464998043,
            0.7276487883809716, 0.8845367193402505, 1.0436188758920768, 1.2053492741523526,
            1.370221338521782, 1.5387772564686448, 1.7116193526864592, 1.8894240634494834,
            2.0729593402465336, 2.2631066339969657, 2.460889072488236, 2.6675081263971174,
            2.8843920929220417, 3.113261327039587, 3.356217692595803, 3.6158698564842684,
            3.8955130449485473, 4.199394104711589, 4.533114978534365, 4.904270287611251,
            5.323500972023671, 5.806333214233623, 6.376614674159648, 7.073526580707236,
            7.967693509295905, 9.205040331278198, 11.163013090767892, 15.390180415260634,
        ),
    ),
))
#: The abscissae of both rules, in the order of one integrate_laguerre call.
_PAIR_NODES, = _read_only(np.concatenate([t for t, _ in LAGUERRE_PAIR]))


@lru_cache(maxsize=None, typed=True)  # typed: 6.0 and True are refused, not served 6 and 1
def gauss_legendre(n):
    """Read-only, cached Gauss-Legendre nodes and weights on [-1, 1], integer n >= 1.

    Newton on P_n by its three-term recurrence, on the roots x >= 0 at once,
    from Tricomi's estimates, computed with math rather than numpy's SIMD cos
    so that a rule's bits do not hang on the CPU's vector unit: three steps
    take the nodes to within an ulp or two, and one more evaluation gives the
    weights 2/((1 - x^2) P_n'(x)^2).  An odd n has the centre node 0, which
    the recurrence keeps exactly; the other half is the mirror.  No LAPACK
    routine runs, and numpy.polynomial (~7 ms a process) is not imported."""
    if not (is_integer(n) and n >= 1):
        raise ValidationError(f"n must be an integer >= 1, got {n!r}")
    n = int(n)

    def guess(k):  # Tricomi's estimate of the k-th largest root, to O(n^-5)
        theta = math.pi * (4 * k - 1) / (4 * n + 2)
        shift = (1 - 1 / n) / (8 * n * n) + (39 - 28 / math.sin(theta) ** 2) / (384 * n**4)
        return (1 - shift) * math.cos(theta)

    def legendre(x):  # P_n(x) and P_n'(x)
        p_prev, p_n = 1.0, x
        for k in range(1, n):  # (k + 1) P_k+1 = (2k + 1) x P_k - k P_k-1
            xp = x * p_n
            p_prev, p_n = p_n, xp + k / (k + 1) * (xp - p_prev)
        return p_n, n * (x * p_n - p_prev) / (x * x - 1.0)

    x = np.array([0.0] * (n % 2) + [guess(k) for k in range(n // 2, 0, -1)])
    for _ in range(3):
        p_n, slope = legendre(x)
        x = x - p_n / slope
    slope = legendre(x)[1]
    w = 2.0 / ((1.0 - x * x) * slope * slope)
    return _read_only(np.concatenate((-x[n % 2:][::-1], x)), np.concatenate((w[n % 2:][::-1], w)))


#: x-panel, t lower edge and t half width of each rectangle of the L layout.
_RECTANGLES = tuple(np.array(column) for column in zip(*[
    (i, lo, 0.5 * (hi - lo)) for i, a in enumerate(_EDGES[:-1])
    for lo, hi in pairwise([0.0] * (i > 0) + _EDGES[i:]) if a + lo < 0.5 * DEFAULT_CUTOFF
]))


def _nodes(panels, n):
    """n Gauss-Legendre nodes on each listed panel, the weights, the half widths."""
    half, (x, w) = _HALF[panels], gauss_legendre(n)
    return _LOWER[panels, None] + half[:, None] * (x + 1.0), w, half


@lru_cache(maxsize=64)
def _level(cells, n):
    """x (nc, n, 1), t (nc, 1, n), half-width products, weights of tuple ``cells``."""
    # x before t: with t outermost an energy call of a 3-gap chunk gives
    # bit-identical values and is no faster (~330-340 us either way)
    panel, lower, half = _RECTANGLES
    cells = np.array(cells)
    (x, w, hx), (s, _) = _nodes(panel[cells], n), gauss_legendre(n)
    t = lower[cells, None] + half[cells, None] * (s + 1.0)
    return (*_read_only(x[:, :, None], t[:, None, :], hx * half[cells]), w)


def _settle(estimate, cells, rel_tol, node_cap):
    """Totals of the cells of ``estimate(cells, n)`` (last axis), doubling n
    on each cell until its change in every kind is at most rel_tol times the
    largest first-pass total or cell estimate of that kind's family (the axis
    before the cells) at a level where that is finite; one call of
    ``estimate`` per level.  Axes in front of the family index kinds; a
    ConvergenceError keeps the worst.  A non-finite estimate never settles,
    so the floating-point warnings of the levels are this loop's to judge."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        first = estimate(cells, _NODE_START)  # reshaped (kinds, members, cells)
        estimates = first.reshape((-1,) + np.atleast_2d(first).shape[-2:])
        kinds, tiny = len(estimates), np.finfo(float).tiny

        def grow(limit, values):  # to rel_tol times each kind's largest finite |value|
            top = rel_tol * np.abs(values).reshape(kinds, -1).max(axis=1, keepdims=True)
            return np.maximum(limit, top, out=limit, where=top < np.inf)

        # the change each kind allows a cell: rel_tol times the kind's scale
        limit = grow(np.full((kinds, 1), rel_tol * tiny), estimates.sum(axis=-1))
        n = _NODE_START
        while cells.size:
            n *= 2
            refined = estimate(cells, n).reshape(kinds, -1, cells.size)
            change = np.abs(refined - estimates[..., cells]).max(axis=1)
            limit = grow(limit, refined)
            estimates[..., cells] = refined
            unsettled = ~(change <= limit)  # a NaN change too
            if n >= node_cap and unsettled.any():
                # settled cells count 0, even at 0/0; a NaN change counts inf
                worst = np.where(unsettled, np.fmin(change / limit, np.inf), 0.0).max(axis=1)
                message = "quadrature did not settle within the node cap"
                exc = ConvergenceError(message, worst.max() * rel_tol, rel_tol)
                exc.kind = int(np.argmax(worst))
                raise exc
            cells = cells[unsettled.any(axis=0)]
        return estimates.sum(axis=-1).reshape(first.shape[:-1])[()]


def integrate_decaying(f, rel_tol):
    """Integrate ``f`` over [0, DEFAULT_CUTOFF] to a relative tolerance.

    ``f`` maps a 1-D array of abscissae to values whose last axis matches it.
    Leading axes are carried through, so one call integrates a family of
    kernels and returns one integral per leading-axis element.  rel_tol is
    measured against the largest integral of the family, the axis before the
    abscissae (its small members are resolved in absolute terms only; they
    are always summed into a dominant total downstream); an axis in front of
    it holds kinds, each a family.  Each panel starts with 6 Gauss-Legendre
    nodes; one unsettled at 192 raises ConvergenceError.  The neglected tail
    beyond the cutoff is O(exp(-cutoff)).
    """
    def estimate(panels, n):
        x, w, half = _nodes(panels, n)
        vals = np.asarray(f(x.ravel()))
        return half * (vals.reshape(vals.shape[:-1] + x.shape) @ w)

    return _settle(estimate, np.arange(_HALF.size), rel_tol, _NODE_CAP)


def integrate_decaying_2d(f, rel_tol):
    """Integrate f over [0, DEFAULT_CUTOFF]^2 to a relative tolerance.

    Cells are the rectangles of the L-shaped layout (module docstring); each
    starts with 6 x 6 nodes, and one unsettled at 96 x 96 raises.  A level
    runs its unsettled rectangles in blocks, the most whose nodes fit
    ``_NODE_BUDGET`` and one at least, each a call ``f(x, t)`` reduced before
    the next: ``x`` (nc, n, 1) holds the x nodes and ``t`` (nc, 1, n) the t
    nodes of the block's nc rectangles, which broadcast to its (nc, n, n)
    values.  They are read-only, and a block of the same rectangles and n,
    in any call, gets the same objects while among the 64 last used.

    Axes in front of those are leading axes, such as kinds x gaps: the result
    has their shape, and each element is an integral settled on its own
    scale.  A rectangle refines while any element needs it, and a
    ConvergenceError's ``kind`` is the flat (C-order) index of the worst.
    """
    def estimate(cells, n):
        size, parts = max(1, _NODE_BUDGET // (n * n)), []
        for start in range(0, cells.size, size):
            x, t, area, w = _level(tuple(cells[start:start + size].tolist()), n)
            parts.append(area * (f(x, t) @ w @ w))
        return np.concatenate(parts, axis=-1)[..., None, :]

    return _settle(estimate, np.arange(_RECTANGLES[0].size), rel_tol, _NODE_CAP_2D)[..., 0][()]


def integrate_laguerre(f, rel_tol):
    """Integrate each row of ``f`` over [0, inf) on the Gauss-Laguerre pair,
    returning the rows it resolves: a mask over the rows and their integrals.

    ``f`` maps a 1-D array of abscissae to values whose last axis matches
    it; the axis before it indexes rows, and axes in front of that (kinds,
    models) are carried.  One call evaluates the nodes of both rules of
    ``LAGUERRE_PAIR``.  A row is accepted when, in every element of the
    leading axes, the smaller rule's sum is within rel_tol of the larger's
    on that element's own value, which is then its integral; so a row's
    result does not depend on the rows beside it, and a non-finite sum
    refuses it.  The pair suits rows that decay like exp(-t) and whose
    nearest singularity lies at t <= -1 or further out; the caller
    integrates the refused rows some other way.  Returns ``(accepted,
    integrals)``, the integrals shaped (..., accepted.sum()).
    """
    (_, small), (_, large) = LAGUERRE_PAIR
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = np.asarray(f(_PAIR_NODES))
        rough = values[..., :small.size] @ small
        fine = values[..., small.size:] @ large
        resolved = np.abs(fine - rough) <= rel_tol * np.abs(fine)  # NaN is not
    accepted = resolved.all(axis=tuple(range(resolved.ndim - 1)))
    return accepted, fine[..., accepted]
