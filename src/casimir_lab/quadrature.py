"""Adaptive Gauss-Legendre panel quadrature for exponentially decaying integrands.

The Lifshitz kernels, once written in the dimensionless variable y = 2*kappa0*d,
all decay like exp(-y) times a mild prefactor and live on [0, inf).  The scheme
covers [0, cutoff] with a fixed panel layout, graded toward zero because several
kernels have an integrable y*log(y) endpoint, and doubles the node count on each
cell, 6, 12, 24, ..., until its estimate is stable relative to the total.  A cell
is a panel in 1-D and a rectangle in 2-D; one loop refines both, and each
doubling level evaluates every unsettled cell in a single call of the integrand.

An integrand that stays smooth for a distance ``offset`` from 0, such as a
Matsubara row written in t = y - x_n, has no endpoint for the grading to
resolve: the 1-D driver drops every graded edge below offset/8, so the
first panel stays narrower than about ``offset``.

The 2-D rectangles form an L-shaped layout.  Only the corner x = t = 0 needs
the graded t-panels, so the x-panel at 0 pairs with every t-panel and one with
lower edge a > 0 with a merged t-panel [0, a], then the t-panels above a.  A
rectangle with x_lo + t_lo >= cutoff/2 holds under exp(-cutoff/2) of the
total and is dropped: 62 rectangles, not 121 pairs.  A small cache keeps the
read-only nodes of each 2-D level, keyed by its rectangles and node count.
"""

from bisect import bisect_left
from functools import lru_cache
from itertools import pairwise

import numpy as np

from .errors import ConvergenceError

__all__ = ["gauss_legendre", "panel_edges", "integrate_decaying", "integrate_decaying_2d"]

#: Opening sub-panel edges; ratio-8 grading tames integrable log endpoints.
_GRADED_OPENING = (2.0 ** -14, 2.0 ** -11, 2.0 ** -8, 2.0 ** -5, 2.0 ** -2)

#: Panels beyond the cutoff contribute ~exp(-cutoff) of the total.
DEFAULT_CUTOFF = 80.0

#: Nodes per cell axis on the first pass; a smooth cell settles at 6 + 12.
_NODE_START = 6


@lru_cache(maxsize=None)
def gauss_legendre(n):
    """Cached Gauss-Legendre nodes and weights on [-1, 1], n >= 2.

    numpy's ``leggauss`` step for step, so the rule is the same to the bit,
    without importing ``numpy.polynomial`` (~7 ms a process): the
    eigenvalues of the symmetric companion matrix of P_n, one Newton step,
    then the weights 1/(P_n-1 P_n') symmetrised and scaled to sum to 2.
    """
    scale = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    band = np.arange(1, n) * scale[:-1] * scale[1:]
    x = np.linalg.eigvalsh(np.diag(band, 1) + np.diag(band, -1))
    p_n = np.zeros(n + 1)
    p_n[-1] = 1.0
    # P_n' = (2m + 1) P_m summed over m = n - 1, n - 3, ...
    dp_n = np.zeros(n)
    dp_n[n - 1::-2] = 2.0 * np.arange(n)[n - 1::-2] + 1.0
    df = _legendre_series(x, dp_n)
    x -= _legendre_series(x, p_n) / df
    fm = _legendre_series(x, p_n[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def _legendre_series(x, c):
    """sum_m c[m] P_m(x) by the Clenshaw recurrence, as numpy's ``legval``."""
    nd, c0, c1 = len(c), c[-2], c[-1]
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def panel_edges(cutoff=DEFAULT_CUTOFF):
    """Panel edges on [0, cutoff]: graded opening, then doubling widths."""
    edges = [0.0]
    edges.extend(e for e in _GRADED_OPENING if e < cutoff)
    width = 2.0
    while edges[-1] + width < cutoff:
        edges.append(edges[-1] + width)
        width *= 2.0
    edges.append(float(cutoff))
    return edges


_EDGES = panel_edges()
#: Each panel's lower edge and half width, by the number of graded opening
#: edges dropped; built at import, as one built mid-curve would outlive the
#: curve's temporaries in the heap and fragment it.
_PANELS = tuple(
    (np.array(edges[:-1]), 0.5 * np.diff(edges))
    for edges in (_EDGES[:1] + _EDGES[1 + skip:] for skip in range(len(_GRADED_OPENING) + 1))
)

#: x-panel, t lower edge and t half width of each rectangle of the L layout.
_RECTANGLES = tuple(np.array(column) for column in zip(*[
    (i, lo, 0.5 * (hi - lo)) for i, a in enumerate(_EDGES[:-1])
    for lo, hi in pairwise([0.0] * (i > 0) + _EDGES[i:]) if a + lo < 0.5 * DEFAULT_CUTOFF
]))


def _nodes(panels, n, skip=0):
    """n Gauss-Legendre nodes on each listed panel of the layout without the
    first ``skip`` graded edges, the weights, the half widths."""
    lower, half = _PANELS[skip]
    half, (x, w) = half[panels], gauss_legendre(n)
    return lower[panels, None] + half[:, None] * (x + 1.0), w, half


@lru_cache(maxsize=16)
def _level(cells, n):
    """x (px, n, 1), t (nc, 1, n), row, half-width products, weights of tuple ``cells``."""
    panel, lower, half = _RECTANGLES
    cells = np.array(cells)
    ix, row = np.unique(panel[cells], return_inverse=True)
    (x, w, hx), (s, _) = _nodes(ix, n), gauss_legendre(n)
    t = lower[cells, None] + half[cells, None] * (s + 1.0)
    level = x[:, :, None], t[:, None, :], row, hx[row] * half[cells], w
    for array in level[:-1]:  # the weights are gauss_legendre's
        array.flags.writeable = False
    return level


def _settle(estimate, cells, rel_tol, node_start, node_cap):
    """Totals of the cells of ``estimate(cells, n)`` (last axis), doubling n
    on each cell until its change in every kind is at most rel_tol times the
    largest first-pass total or cell estimate of that kind's family, the
    axis before the cells; one call of ``estimate`` per doubling level.  Axes
    in front of the family index kinds; a ConvergenceError keeps the worst."""
    first = estimate(cells, node_start)
    estimates = first.reshape((-1,) + np.atleast_2d(first).shape[-2:])  # (kinds, members, cells)
    kinds, tiny = len(estimates), np.finfo(float).tiny
    # the change each kind allows a cell: rel_tol times the kind's scale
    limit = rel_tol * np.maximum(np.abs(estimates.sum(axis=-1)).max(axis=1, keepdims=True), tiny)
    n = node_start
    while cells.size:
        n *= 2
        refined = estimate(cells, n).reshape(kinds, -1, cells.size)
        change = np.abs(refined - estimates[..., cells]).max(axis=1)
        scale = np.abs(refined).reshape(kinds, -1).max(axis=1, keepdims=True)
        limit = np.maximum(limit, rel_tol * scale)
        estimates[..., cells] = refined
        unsettled = change > limit
        if n >= node_cap and unsettled.any():
            worst = (change / limit).max(axis=1) * rel_tol
            message = "quadrature did not settle within the node cap"
            exc = ConvergenceError(message, worst.max(), rel_tol)
            exc.kind = int(np.argmax(worst))
            raise exc
        cells = cells[unsettled.any(axis=0)]
    return estimates.sum(axis=-1).reshape(first.shape[:-1])[()]


def integrate_decaying(f, rel_tol, offset=0.0):
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

    ``offset`` >= 0 is how far from 0 every member of ``f`` stays smooth:
    the distance to its nearest singularity (y = 0 for a kernel written in
    t = y - offset) or the length over which it changes by a factor e.
    Every graded opening edge below offset/8 is dropped; at 0, the default,
    the full layout is used.
    """
    skip = bisect_left(_GRADED_OPENING, offset / 8.0)

    def estimate(panels, n):
        x, w, half = _nodes(panels, n, skip)
        vals = np.asarray(f(x.ravel()))
        return half * (vals.reshape(vals.shape[:-1] + x.shape) @ w)

    return _settle(estimate, np.arange(len(_EDGES) - 1 - skip), rel_tol, _NODE_START, 192)


def integrate_decaying_2d(f, rel_tol):
    """Integrate f over [0, DEFAULT_CUTOFF]^2 to a relative tolerance.

    Cells are the rectangles of the L-shaped layout (module docstring); each
    starts with 6 x 6 nodes, and one unsettled at 96 x 96 raises.  Each
    doubling level makes one call ``f(x, t, row)``, which returns (nc, n, n)
    values: ``x`` (px, n, 1) holds each node of the x-panels with an unsettled
    rectangle once, ``t`` (nc, 1, n) the t nodes of the nc unsettled
    rectangles, ``row`` (nc,) their x-panels, so ``x[row]`` broadcasts on ``t``.
    They are read-only, and a level on the same rectangles with the same n,
    in any call, gets the same objects while among the 16 last used, so ``f``
    may keep tables built on a ``t`` until it gets one that ``is not`` it.

    Axes in front of those are leading axes, such as kinds x gaps: the result
    has their shape, and each element is an integral settled on its own
    scale.  A rectangle refines while any element needs it, and a
    ConvergenceError's ``kind`` is the flat (C-order) index of the worst.
    """
    def estimate(cells, n):
        x, t, row, area, w = _level(tuple(cells.tolist()), n)
        return (area * (f(x, t, row) @ w @ w))[..., None, :]

    return _settle(estimate, np.arange(_RECTANGLES[0].size), rel_tol, _NODE_START, 96)[..., 0][()]
