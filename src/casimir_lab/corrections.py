"""Rms separation-fluctuation corrections to force curves and separations.

A gap that jitters with rms amplitude delta around its mean samples the
curvature of the force law: the time-averaged force picks up F''(d) delta^2/2,
and the 1/d capacitance inversion underlying the electrostatic calibration
returns a separation short by the factor 1 + (delta/d)^2.  Both corrections
are second order in delta/d, so they are only trusted well away from
d ~ delta; inside five fluctuation amplitudes the expansion is refused.
F and F'' are inputs here: :func:`casimir_lab.lifshitz.force_and_curvature_sphere_plane`
evaluates both in one fused engine pass, F'' from the curvature kernel with
no finite difference, and :func:`corrected_curve` takes that evaluator.
"""

import math

import numpy as np

from .errors import RegimeError, require_at_least, require_finite, require_positive

__all__ = [
    "fluctuation_corrected_force",
    "corrected_separation",
    "corrected_curve",
]

#: expansion in (delta/d)^2 breaks down once the gap is within a few
#: fluctuation amplitudes of contact
REGIME_FACTOR = 5.0


def _check_regime(d, delta):
    """The checked gap, or gaps, and delta, every gap validated against delta."""
    d = require_positive("separation", d)
    delta = require_at_least("delta", delta, 0.0, scalar=True)
    if delta > 0.0 and np.min(d, initial=math.inf) <= REGIME_FACTOR * delta:
        raise RegimeError(
            f"d = {np.min(d):.3e} m is within {REGIME_FACTOR:g} fluctuation amplitudes "
            f"(delta = {delta:.3e} m); second-order correction invalid"
        )
    return d, delta


def fluctuation_corrected_force(force, curvature, d, delta):
    """Time-averaged force F(d) + F''(d) delta^2 / 2, in N.

    Parameters
    ----------
    force : float or numpy.ndarray
        F(d) in N.
    curvature : float or numpy.ndarray
        F''(d) in N/m^2.
    d : float or numpy.ndarray
        Mean separation in m, must exceed five delta; an array of gaps
        goes with arrays of forces and curvatures.
    delta : float
        Rms fluctuation amplitude in m.
    """
    _, delta = _check_regime(d, delta)
    force, curvature = require_finite("force", force), require_finite("curvature", curvature)
    return force + 0.5 * curvature * delta * delta


def corrected_separation(d_inferred, delta):
    """Mean gap d_inferred (1 + (delta/d_inferred)^2), in m.

    Fluctuations inflate the time average of 1/d, so the capacitive
    inversion underestimates the true mean separation; the quadratic factor
    undoes that bias.
    """
    d, delta = _check_regime(d_inferred, delta)
    ratio = delta / d
    return d * (1.0 + ratio * ratio)


def corrected_curve(force_and_curvature, delta):
    """The corrected curve F + F'' delta^2 / 2 of an evaluator that returns
    (F, F'') of a gap or an array of gaps in one pass.  Every gap is checked
    against delta before the evaluator runs; at delta = 0 this is F, but F''
    is still computed, so use the raw curve there."""

    def corrected(d):
        d, _ = _check_regime(d, delta)
        return fluctuation_corrected_force(*force_and_curvature(d), d, delta)

    return corrected
