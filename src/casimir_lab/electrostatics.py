"""Sphere-plane electrostatics: applied bias, patch potentials, calibration.

In the proximity regime d << R the electrostatic force between sphere and
plane is pi eps0 R (V - V_m)^2 / d plus a patch-potential term
pi eps0 R V_rms^2 / d.  A parabolic fit of force against applied bias
therefore hands back the separation (from the curvature), the minimizing
potential (vertex position), and whatever voltage-independent force rides
along (vertex height).  That inversion is the calibration step every
measured force curve passes through before any Casimir analysis; the file
of sweeps it reads is campaign's, and this module holds only the physics.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import VACUUM_PERMITTIVITY
from .errors import CalibrationError, DegenerateFitError, ValidationError
from .errors import require_at_least, require_finite, require_positive

__all__ = [
    "SweepSample",
    "CalibrationResult",
    "bias_force",
    "patch_force",
    "calibrate_from_sweep",
]


@dataclass(frozen=True)
class SweepSample:
    """One (voltage, force) point of a calibration sweep, SI units."""

    v: float
    f: float
    sigma_f: float

    def __post_init__(self):
        # each field keeps the float its check returns
        for name in ("v", "f", "sigma_f"):
            object.__setattr__(self, name, require_finite(name, getattr(self, name), scalar=True))
        require_positive("sigma_f", self.sigma_f)


def bias_force(d, R, v, v_m):
    """Applied-bias electrostatic force pi eps0 R (v - v_m)^2 / d, in N; a
    force that overflows a float is refused, not returned as inf."""
    d = require_positive("separation d", d)
    R = require_positive("radius R", R)
    dv = require_finite("v", v) - require_finite("v_m", v_m)
    return require_finite("bias force", math.pi * VACUUM_PERMITTIVITY * R * dv * dv / d)


def patch_force(d, R, v_rms, delta=0.0):
    """Patch-potential force pi eps0 R v_rms^2 / d, in N.

    A nonzero rms separation fluctuation delta rescales the 1/d average by
    1 + (delta/d)^2, the same factor applied to the theory curves.  A force
    that overflows a float is refused, as by :func:`bias_force`.
    """
    d = require_positive("separation d", d)
    R = require_positive("radius R", R)
    v_rms = require_at_least("v_rms", v_rms, 0.0)
    ratio = require_at_least("delta", delta, 0.0, scalar=True) / d
    force = math.pi * VACUUM_PERMITTIVITY * R * v_rms * v_rms / d * (1.0 + ratio * ratio)
    return require_finite("patch force", force)


class CalibrationResult(NamedTuple):
    """Parabola inversion output; covariance is 3x3 over (d, v_m, f_residual)."""

    d: float
    v_m: float
    f_residual: float
    covariance: np.ndarray


def calibrate_from_sweep(samples, R):
    """Invert a force-vs-voltage sweep into (d, V_m, residual force).

    Fits F(V) = c2 V^2 + c1 V + c0 by weighted linear least squares on the
    monomial basis, then maps the coefficients through

        d = pi eps0 R / c2,   V_m = -c1 / (2 c2),   F_res = c0 - c1^2/(4 c2)

    propagating the coefficient covariance through the Jacobian of that map.

    Parameters
    ----------
    samples : sequence of SweepSample
        At least four points; the voltages must bracket the vertex for the
        curvature to be meaningful.
    R : float
        Sphere radius in m.

    Returns
    -------
    CalibrationResult
        (d, v_m, f_residual, covariance), covariance ordered the same way.

    Raises
    ------
    ValidationError
        Fewer than four samples.
    DegenerateFitError
        Voltages do not span a parabola (rank-deficient basis).
    CalibrationError
        Fitted curvature c2 <= 0, i.e. no attractive 1/d signal.
    """
    samples = list(samples)
    if len(samples) < 4:
        raise ValidationError(f"need >= 4 sweep samples, got {len(samples)}")
    R = require_positive("radius R", R, scalar=True)
    v = np.array([s.v for s in samples], dtype=float)
    f = np.array([s.f for s in samples], dtype=float)
    sigma = np.array([s.sigma_f for s in samples], dtype=float)

    # solve in a voltage-scaled basis so conditioning reflects actual
    # degeneracy, not the mV magnitude of the sweep
    scale = np.max(np.abs(v))
    if scale == 0.0:
        raise DegenerateFitError("all sweep voltages are zero")
    u = v / scale
    design = np.column_stack([np.ones_like(u), u, u * u]) / sigma[:, None]
    rhs = f / sigma
    gram = design.T @ design
    if np.linalg.cond(gram) > 1e10:
        raise DegenerateFitError(
            "sweep voltages do not span a parabola (singular normal equations)"
        )
    coeffs_scaled = np.linalg.solve(gram, design.T @ rhs)
    cov_scaled = np.linalg.inv(gram)

    unscale = np.array([1.0, 1.0 / scale, 1.0 / scale ** 2])
    c0, c1, c2 = coeffs_scaled * unscale
    cov_c = cov_scaled * np.outer(unscale, unscale)

    if c2 <= 0.0:
        raise CalibrationError(
            f"fitted curvature {c2:.3e} N/V^2 is not attractive; "
            "sweep cannot be inverted for a separation"
        )

    pe = math.pi * VACUUM_PERMITTIVITY * R
    d = pe / c2
    v_m = -c1 / (2.0 * c2)
    f_res = c0 - c1 * c1 / (4.0 * c2)

    jac = np.array(
        [
            [0.0, 0.0, -pe / c2 ** 2],
            [0.0, -1.0 / (2.0 * c2), c1 / (2.0 * c2 ** 2)],
            [1.0, -c1 / (2.0 * c2), c1 ** 2 / (4.0 * c2 ** 2)],
        ]
    )
    covariance = jac @ cov_c @ jac.T
    return CalibrationResult(d=d, v_m=v_m, f_residual=f_res, covariance=covariance)

