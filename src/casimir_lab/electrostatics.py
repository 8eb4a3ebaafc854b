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

#: Jacobi leaves an off-diagonal a_pq at most this times sqrt(|a_pp a_qq|).
_EPS = np.finfo(float).eps

#: The most Jacobi sweeps; the cyclic method converges quadratically, and a
#: 2 x 2 or 3 x 3 matrix needs a few.
_JACOBI_SWEEPS = 32


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


def weighted_fit(basis, y, sigma, degenerate):
    """(coefficients, covariance, chi2) of the weighted linear least-squares
    fit of ``y`` on the columns of ``basis``, solved on columns of unit norm so
    the conditioning test sees degeneracy, not units.  Each column's norm is
    taken on the column divided by the power of two at or below its largest
    |entry|, an exact scaling that puts that entry in [1, 2), so no finite
    column's norm overflows or underflows.  The Gram matrix of the unit
    columns over sigma is diagonalised by Jacobi rotations, V diag(lambda)
    V^T: its inverse V diag(1/lambda) V^T is the covariance, and applied to
    the weighted right side gives the coefficients, both rescaled by the
    column norms.  The products are einsums, so no LAPACK routine and no
    BLAS matrix-matrix product runs.  A zero or non-finite column, a smallest
    eigenvalue <= 0 or a condition number lambda_max/lambda_min above 1e10
    raises DegenerateFitError(degenerate).
    A weighted system that is not finite, such as y/sigma or the unit
    columns over sigma, or a fit whose column norms, normal equations or
    results overflow a float, raises ValidationError: the data are out of
    range, which says nothing of the columns' independence."""
    peak = np.ldexp(0.5, np.frexp(np.abs(basis).max(axis=0))[1])
    norm = np.linalg.norm(basis / peak, axis=0)
    if not np.all(np.isfinite(norm) & (norm > 0.0)):
        raise DegenerateFitError(degenerate)
    with np.errstate(over="ignore", invalid="ignore"):
        col_scale = peak * norm
        design = (basis / col_scale) / sigma[:, None]
        target = y / sigma
        gram = np.einsum("ik,il->kl", design, design)
        _require_finite_system(col_scale, design, target, gram)
        eigenvalues, vectors = _jacobi_eigh(gram)
        low, high = eigenvalues.min(), eigenvalues.max()
        if not (low > 0.0 and high <= 1e10 * low):
            raise DegenerateFitError(degenerate)
        inverse = np.einsum("ij,kj->ik", vectors / eigenvalues, vectors)
        coeffs = np.einsum("kl,l->k", inverse, np.einsum("ik,i->k", design, target)) / col_scale
        cov = inverse / np.outer(col_scale, col_scale)
        resid = (y - np.einsum("ik,k->i", basis, coeffs)) / sigma
        chi2 = float(np.einsum("i,i->", resid, resid))
    _require_finite_system(coeffs, cov, chi2)
    return coeffs, cov, chi2


def _jacobi_eigh(matrix):
    """(eigenvalues, eigenvectors as columns) of a small symmetric matrix by
    cyclic Jacobi rotations (Golub & Van Loan, Matrix Computations, 8.5).
    Each rotation zeroes its off-diagonal pair exactly; an entry a_pq of at
    most machine epsilon times sqrt(|a_pp a_qq|) is left, which keeps the
    small eigenvalues of a positive definite matrix to high relative
    accuracy, and a sweep that rotates nothing ends the loop."""
    a = matrix.tolist()
    k = len(a)
    v = [[float(i == j) for j in range(k)] for i in range(k)]
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p in range(k - 1):
            for q in range(p + 1, k):
                apq = a[p][q]
                if abs(apq) <= _EPS * math.sqrt(abs(a[p][p])) * math.sqrt(abs(a[q][q])):
                    continue
                rotated = True
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                a[p][p] -= t * apq
                a[q][q] += t * apq
                a[p][q] = a[q][p] = 0.0
                for r in range(k):
                    if r != p and r != q:
                        arp, arq = a[r][p], a[r][q]
                        a[r][p] = a[p][r] = c * arp - s * arq
                        a[r][q] = a[q][r] = s * arp + c * arq
                    vrp, vrq = v[r][p], v[r][q]
                    v[r][p], v[r][q] = c * vrp - s * vrq, s * vrp + c * vrq
        if not rotated:
            break
    return np.array([a[i][i] for i in range(k)]), np.array(v)


def _require_finite_system(*arrays):
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValidationError(
            "the weighted fit overflows a float: y/sigma, 1/sigma or a regressor is out of range"
        )


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

    (c0, c1, c2), cov_c, _ = weighted_fit(
        np.column_stack([np.ones_like(v), v, v * v]), f, sigma,
        "sweep voltages do not span a parabola (singular normal equations)",
    )

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

