"""Rms separation-fluctuation corrections to force curves and separations.

A gap that jitters with rms amplitude delta around its mean samples the
curvature of the force law: the time-averaged force picks up F''(d) delta^2/2,
and the 1/d capacitance inversion underlying the electrostatic calibration
returns a separation short by the factor 1 + (delta/d)^2.  Both corrections
are second order in delta/d, so they are only trusted well away from
d ~ delta; inside five fluctuation amplitudes the expansion is refused.
F'' is an input here: :func:`casimir_lab.lifshitz.force_curvature_sphere_plane`
evaluates it from the engine's own curvature kernel, with no finite difference.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import RegimeError, ValidationError

__all__ = [
    "FluctuationSpec",
    "fluctuation_corrected_force",
    "corrected_separation",
    "correction_uncertainty",
    "corrected_curve",
]

#: expansion in (delta/d)^2 breaks down once the gap is within a few
#: fluctuation amplitudes of contact
REGIME_FACTOR = 5.0


@dataclass(frozen=True)
class FluctuationSpec:
    """Rms separation fluctuation and its one-sigma uncertainty, in m."""

    delta: float
    delta_sigma: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise ValidationError(f"delta must be finite and >= 0, got {self.delta}")
        if not (math.isfinite(self.delta_sigma) and self.delta_sigma >= 0.0):
            raise ValidationError(
                f"delta_sigma must be finite and >= 0, got {self.delta_sigma}"
            )


def _check_regime(d, delta):
    """Validate a gap, or every gap of an array, against delta."""
    d = np.asarray(d, dtype=float)
    bad = d[~(np.isfinite(d) & (d > 0.0))]
    if bad.size:
        raise ValueError(f"separation must be positive and finite, got {bad[0]}")
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    if delta > 0.0 and np.min(d, initial=math.inf) <= REGIME_FACTOR * delta:
        raise RegimeError(
            f"d = {np.min(d):.3e} m is within {REGIME_FACTOR:g} fluctuation amplitudes "
            f"(delta = {delta:.3e} m); second-order correction invalid"
        )


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
    _check_regime(d, delta)
    return force + 0.5 * curvature * delta * delta


def corrected_separation(d_inferred, delta):
    """Mean gap d_inferred (1 + (delta/d_inferred)^2), in m.

    Fluctuations inflate the time average of 1/d, so the capacitive
    inversion underestimates the true mean separation; the quadratic factor
    undoes that bias.
    """
    _check_regime(d_inferred, delta)
    ratio = delta / d_inferred
    return d_inferred * (1.0 + ratio * ratio)


def correction_uncertainty(curvature, d, fluct):
    """Half-spread of the corrected force over delta +- delta_sigma, in N.

    |F''| ((delta + sigma)^2 - max(delta - sigma, 0)^2) / 4: the correction
    at the one-sigma edges of the fluctuation amplitude, the lower edge
    clipped at zero.
    """
    if not isinstance(fluct, FluctuationSpec):
        raise TypeError("fluct must be a FluctuationSpec")
    hi = fluct.delta + fluct.delta_sigma
    lo = max(fluct.delta - fluct.delta_sigma, 0.0)
    _check_regime(d, hi)
    return 0.5 * abs(curvature) * (hi * hi - lo * lo) / 2.0


def corrected_curve(force_curve, curvature_curve, delta):
    """Wrap a raw theory curve and its curvature as the corrected curve.

    The curves take a gap or an array of gaps, and so does the result.
    With delta = 0 the raw curve itself comes back and no curvature is
    evaluated.
    """
    if delta == 0.0:
        return force_curve
    return lambda d: fluctuation_corrected_force(force_curve(d), curvature_curve(d), d, delta)
