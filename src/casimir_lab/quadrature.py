"""Adaptive Gauss-Legendre panel quadrature for exponentially decaying integrands.

The Lifshitz kernels, once written in the dimensionless variable y = 2*kappa0*d,
all decay like exp(-y) times a mild prefactor and live on [0, inf).  The scheme
here covers [0, cutoff] with a fixed panel layout and doubles the node count on
each panel until the panel estimate is stable relative to the running total.
Each doubling level evaluates the nodes of every still-unsettled panel in a
single call of the integrand.

The first few panels are geometrically graded toward zero because several
kernels contain an integrable y*log(y) endpoint (perfectly reflecting n = 0
term); grading restores spectral convergence without special-casing any kernel.

Integrands are vectorized: ``f(t)`` receives a 1-D array of nodes and returns
an array whose last axis matches it.  Leading axes (for example one row per
Matsubara index) are integrated independently in a single pass.  The 2-D
integral is the same driver nested: an inner integral over t for a family of
x nodes, inside an outer integral over x.
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
    edges = np.array(panel_edges(cutoff))
    lower, half = edges[:-1], 0.5 * np.diff(edges)

    def estimate(panels, n):
        # one call of f covers the n nodes of every listed panel
        x, w = gauss_legendre(n)
        nodes = lower[panels, None] + half[panels, None] * (x + 1.0)
        vals = np.asarray(f(nodes.ravel()))
        return half[panels] * (vals.reshape(vals.shape[:-1] + nodes.shape) @ w)

    # First pass fixes the magnitude scale that "relative" refers to.
    panels = np.arange(half.size)
    estimates = estimate(panels, node_start)
    scale = float(np.max(np.abs(estimates.sum(axis=-1))))

    n = node_start
    worst = 0.0
    while panels.size:
        n *= 2
        refined = estimate(panels, n)
        change = np.abs(refined - estimates[..., panels]).reshape(-1, panels.size).max(axis=0)
        scale = max(scale, float(np.max(np.abs(refined))))
        estimates[..., panels] = refined
        unsettled = change > rel_tol * max(scale, np.finfo(float).tiny)
        if n >= node_cap:
            if unsettled.any():
                worst = float(change[unsettled].max()) / max(scale, np.finfo(float).tiny)
            break
        panels = panels[unsettled]

    if worst > rel_tol:
        raise ConvergenceError(
            "panel quadrature did not settle within the node cap", worst, rel_tol
        )
    return estimates.sum(axis=-1)


def integrate_decaying_2d(f, rel_tol, node_start=8, node_cap=128, cutoff=DEFAULT_CUTOFF):
    """Integrate ``f(x, t)`` over [0, cutoff]^2 to a relative tolerance.

    ``f`` must accept broadcastable arrays shaped (nx, 1) and (nt,) and
    return an (nx, nt) array.  Used for the zero-temperature theory where
    the Matsubara sum becomes an integral over imaginary frequency.
    """

    def inner(x):
        return integrate_decaying(
            lambda t: f(x[:, None], t), rel_tol, node_start, node_cap, cutoff
        )

    return float(integrate_decaying(inner, rel_tol, node_start, node_cap, cutoff))
