"""Adaptive Gauss-Legendre panel quadrature for exponentially decaying integrands.

The Lifshitz kernels, once written in the dimensionless variable y = 2*kappa0*d,
all decay like exp(-y) times a mild prefactor and live on [0, inf).  The scheme
covers [0, cutoff] with a fixed panel layout, graded toward zero because several
kernels have an integrable y*log(y) endpoint, and doubles the node count on each
cell until its estimate is stable relative to the total.  A cell is a panel in
1-D and an (x-panel, t-panel) pair in 2-D; one loop refines both, and each
doubling level evaluates every unsettled cell in a single call of the integrand.

``f(t)`` returns an array whose last axis matches the 1-D node array t;
leading axes (one row per Matsubara index, say) are integrated independently
in the same pass.  ``f(x, t)`` returns the broadcast of its node arrays.
"""

from functools import lru_cache

import numpy as np

from .errors import ConvergenceError

__all__ = ["gauss_legendre", "panel_edges", "integrate_decaying", "integrate_decaying_2d"]

#: Opening sub-panel edges; ratio-8 grading tames integrable log endpoints.
_GRADED_OPENING = (2.0 ** -14, 2.0 ** -11, 2.0 ** -8, 2.0 ** -5, 2.0 ** -2)

#: Panels beyond the cutoff contribute ~exp(-cutoff) of the total.
DEFAULT_CUTOFF = 80.0


@lru_cache(maxsize=None)
def gauss_legendre(n):
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


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


def _nodes(cutoff, panels, n):
    """n Gauss-Legendre nodes on each listed panel, the weights, the half widths."""
    edges = np.array(panel_edges(cutoff))
    lower, half = edges[panels], 0.5 * (edges[panels + 1] - edges[panels])
    x, w = gauss_legendre(n)
    return lower[:, None] + half[:, None] * (x + 1.0), w, half


def _settle(estimate, cells, rel_tol, node_start, node_cap):
    """Total of the cells of ``estimate(cells, n)`` (last axis), doubling n on
    each cell until its change is at most rel_tol times the largest first-pass
    total or cell estimate; one call of ``estimate`` per doubling level."""
    estimates = estimate(cells, node_start)
    scale = float(np.max(np.abs(estimates.sum(axis=-1))))
    n = node_start
    while cells.size:
        n *= 2
        refined = estimate(cells, n)
        change = np.abs(refined - estimates[..., cells]).reshape(-1, cells.size).max(axis=0)
        scale = max(scale, float(np.max(np.abs(refined))), np.finfo(float).tiny)
        estimates[..., cells] = refined
        unsettled = change > rel_tol * scale
        if n >= node_cap and unsettled.any():
            worst = float(change[unsettled].max()) / scale
            raise ConvergenceError("quadrature did not settle within the node cap", worst, rel_tol)
        cells = cells[unsettled]
    return estimates.sum(axis=-1)


def integrate_decaying(f, rel_tol, node_start=8, node_cap=256, cutoff=DEFAULT_CUTOFF):
    """Integrate ``f`` over [0, cutoff] to a relative tolerance.

    Parameters
    ----------
    f : callable
        Maps a 1-D array of abscissae to integrand values; the last axis of
        the result must match the input.  Leading axes are carried through,
        so a single call can integrate a whole family of kernels.
    rel_tol : float
        Target relative tolerance, measured against the largest integral in
        the family (small members of a family are only resolved in absolute
        terms; they are always summed into a dominant total downstream).
    node_start : int
        Gauss-Legendre node count for the first pass on each panel.
    node_cap : int
        Node ceiling per panel; exceeded means ConvergenceError.
    cutoff : float
        Upper integration limit; the neglected tail is O(exp(-cutoff)).

    Returns
    -------
    numpy.ndarray or float
        Integral(s) of ``f``, one per leading-axis element.
    """

    def estimate(panels, n):
        x, w, half = _nodes(cutoff, panels, n)
        vals = np.asarray(f(x.ravel()))
        return half * (vals.reshape(vals.shape[:-1] + x.shape) @ w)

    cells = np.arange(len(panel_edges(cutoff)) - 1)
    return _settle(estimate, cells, rel_tol, node_start, node_cap)


def integrate_decaying_2d(f, rel_tol, node_start=8, node_cap=128, cutoff=DEFAULT_CUTOFF):
    """Integrate ``f(x, t)`` over [0, cutoff]^2 to a relative tolerance.

    Cells are (x-panel, t-panel) pairs.  Each doubling level calls ``f``
    once, on x shaped (px, 1, n, 1) and t shaped (1, pt, 1, n) over the
    panels that still hold an unsettled cell; it returns their broadcast.
    """
    panels = len(panel_edges(cutoff)) - 1

    def estimate(cells, n):
        ix, cx = np.unique(cells // panels, return_inverse=True)
        it, ct = np.unique(cells % panels, return_inverse=True)
        (x, w, hx), (t, _, ht) = _nodes(cutoff, ix, n), _nodes(cutoff, it, n)
        sums = f(x[:, None, :, None], t[None, :, None, :]) @ w @ w
        return hx[cx] * ht[ct] * sums[cx, ct]

    return float(_settle(estimate, np.arange(panels * panels), rel_tol, node_start, node_cap))
