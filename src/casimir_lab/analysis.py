"""Measurement binning, the two-parameter electrostatic fit, model ranking.

Every theory candidate is compared to data through the same two-parameter
model: measured force = theory(d) + pi eps0 R V_rms^2 / d + a, where the
patch amplitude V_rms^2 and the instrumental offset a are the only free
parameters.  The fit is linear in both, so weighted least squares gives the
exact minimum and an exact covariance, and the reduced chi^2 values of the
four theory candidates can be compared on equal footing.
"""

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .constants import VACUUM_PERMITTIVITY
from .corrections import corrected_curve
from .dielectric import gold_drude, gold_plasma
from .errors import DegenerateFitError, ValidationError, is_finite_real
from .lifshitz import DEFAULT_SPEC, force_curvature_sphere_plane, force_sphere_plane

__all__ = [
    "MeasurementPoint",
    "ModelCurve",
    "FitResult",
    "MODEL_IDS",
    "bin_points",
    "log_bin_edges",
    "fit_patch_and_offset",
    "discriminate_models",
    "standard_model_curves",
    "fit_report_dict",
    "load_measurements",
    "save_measurements",
]

MEASUREMENT_CSV_HEADER = ["separation_um", "force_pn", "sigma_pn"]

#: canonical discrimination set: both metal families at room temperature and
#: in their zero-temperature limits
MODEL_IDS = ("drude_300k", "plasma_300k", "drude_t0", "plasma_t0")


@dataclass(frozen=True)
class MeasurementPoint:
    """One calibrated force measurement: separation, force, sigma (SI)."""

    d: float
    f: float
    sigma: float

    def __post_init__(self):
        for name, value in (("separation", self.d), ("force", self.f), ("sigma", self.sigma)):
            if not is_finite_real(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
        if self.d <= 0.0:
            raise ValidationError(f"separation must be positive, got {self.d}")
        if self.sigma <= 0.0:
            raise ValidationError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class ModelCurve:
    """A named theory force curve, fluctuation corrections already applied."""

    model_id: str
    evaluator: Callable[[float], float]


@dataclass(frozen=True)
class FitResult:
    """Weighted least-squares output for one theory candidate.

    covariance is 2x2 over (v_rms_sq, a) in SI units.  v_rms_sq may come out
    negative when the theory overshoots the data; v_rms is then undefined
    rather than clamped, so chi^2 comparisons stay unbiased.
    """

    model_id: str
    v_rms_sq: float
    a: float
    covariance: np.ndarray
    chi2_reduced: float
    n_points: int

    @property
    def v_rms(self) -> Optional[float]:
        if self.v_rms_sq < 0.0:
            return None
        return math.sqrt(self.v_rms_sq)


def log_bin_edges(d_min, d_max, n_bins):
    """Logarithmic bin edges covering [d_min, d_max], widened a hair so the
    extreme points cannot fall outside through rounding."""
    if not 0.0 < d_min < d_max < math.inf:
        raise ValueError(f"need finite 0 < d_min < d_max, got d_min={d_min}, d_max={d_max}")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    pad = 1e-9
    return np.geomspace(d_min * (1.0 - pad), d_max * (1.0 + pad), n_bins + 1)


def bin_points(points, edges):
    """Merge points into inverse-variance weighted bin averages.

    Per bin: force is the weighted mean with weights 1/sigma^2, separation
    the same weighted mean, and the combined sigma is (sum 1/sigma_i^2)^-1/2.
    Empty bins are dropped; a point outside [edges[0], edges[-1]] is an
    error, not a silent drop.
    """
    points = list(points)
    edges = np.asarray(list(edges), dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValidationError("need at least two bin edges")
    if np.any(np.diff(edges) <= 0.0):
        raise ValidationError("bin edges must be strictly increasing")
    if not points:
        return []

    d = np.array([p.d for p in points])
    f = np.array([p.f for p in points])
    w = np.array([1.0 / (p.sigma * p.sigma) for p in points])
    if np.any(d < edges[0]) or np.any(d > edges[-1]):
        bad = d[(d < edges[0]) | (d > edges[-1])][0]
        raise ValidationError(f"point at d = {bad:.6e} m lies outside the bin edges")

    idx = np.searchsorted(edges, d, side="right") - 1
    idx[d == edges[-1]] = edges.size - 2  # right-closed final bin

    wsum = np.bincount(idx, weights=w)
    wd = np.bincount(idx, weights=w * d)
    wf = np.bincount(idx, weights=w * f)
    return [
        MeasurementPoint(
            d=float(wd[b] / wsum[b]),
            f=float(wf[b] / wsum[b]),
            sigma=float(1.0 / math.sqrt(wsum[b])),
        )
        for b in np.unique(idx)
    ]


def _evaluate_curve(curve, d):
    """Evaluate a ModelCurve at each separation, once per distinct value."""
    unique, inverse = np.unique(d, return_inverse=True)
    values = np.array([curve.evaluator(float(x)) for x in unique])
    return values[inverse]


def patch_basis(d, R, delta):
    """Patch-term regressor (pi eps0 R / d)(1 + (delta/d)^2)."""
    d = np.asarray(d, dtype=float)
    ratio = delta / d
    return math.pi * VACUUM_PERMITTIVITY * R / d * (1.0 + ratio * ratio)


def fit_patch_and_offset(points, curve, R, delta=0.0):
    """Fit measured forces to theory + patch term + constant offset.

    Weighted linear least squares of the residuals F_i - theory(d_i) against
    the basis {(pi eps0 R / d_i)(1 + (delta/d_i)^2), 1}; the coefficients
    are (V_rms^2, a).

    Parameters
    ----------
    points : sequence of MeasurementPoint
        At least three, spanning at least two distinct separations.
    curve : ModelCurve
        Theory candidate, fluctuation corrections already applied.
    R : float
        Sphere radius in m.
    delta : float
        Rms separation fluctuation entering the patch regressor, in m.

    Returns
    -------
    FitResult

    Raises
    ------
    ValidationError
        Fewer than three points.
    DegenerateFitError
        Collinear basis, e.g. all points at one separation.
    """
    points = list(points)
    if len(points) < 3:
        raise ValidationError(f"need >= 3 measurement points, got {len(points)}")
    if not 0.0 < R < math.inf:
        raise ValueError(f"radius R must be positive and finite, got {R}")
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta}")

    d = np.array([p.d for p in points])
    f = np.array([p.f for p in points])
    sigma = np.array([p.sigma for p in points])

    y = f - _evaluate_curve(curve, d)
    basis = np.column_stack([patch_basis(d, R, delta), np.ones_like(d)])

    # scale columns to unit norm before solving; the patch column is ~1e-11
    # in SI and would otherwise swamp the conditioning test
    col_scale = np.linalg.norm(basis, axis=0)
    design = (basis / col_scale) / sigma[:, None]
    rhs = y / sigma
    gram = design.T @ design
    if np.linalg.cond(gram) > 1e10:
        raise DegenerateFitError(
            "patch and offset regressors are collinear; "
            "need at least two distinct separations"
        )
    coeffs = np.linalg.solve(gram, design.T @ rhs) / col_scale
    cov = np.linalg.inv(gram) / np.outer(col_scale, col_scale)

    resid = (y - basis @ coeffs) / sigma
    chi2 = float(resid @ resid)
    dof = len(points) - 2
    return FitResult(
        model_id=curve.model_id,
        v_rms_sq=float(coeffs[0]),
        a=float(coeffs[1]),
        covariance=cov,
        chi2_reduced=chi2 / dof,
        n_points=len(points),
    )


def discriminate_models(points, curves, R, delta=0.0):
    """Fit each theory candidate independently and rank by reduced chi^2.

    The sort is stable, so exact ties keep the input order.
    """
    fits = [fit_patch_and_offset(points, curve, R, delta) for curve in curves]
    return sorted(fits, key=lambda fit: fit.chi2_reduced)


def standard_model_curves(
    R,
    delta,
    temperature=300.0,
    drude=None,
    plasma=None,
    spec=DEFAULT_SPEC,
):
    """Build the canonical four-candidate set for model discrimination.

    Both metal descriptions at `temperature` and both in their T = 0 limits,
    each wrapped with the fluctuation correction for rms amplitude delta.
    Defaults use the gold parameter set.
    """
    drude = drude if drude is not None else gold_drude()
    plasma = plasma if plasma is not None else gold_plasma()

    def curve(model, T):
        return corrected_curve(
            lambda d: force_sphere_plane(d, T, R, model, spec),
            lambda d: force_curvature_sphere_plane(d, T, R, model, spec),
            delta,
        )

    pairs = [
        ("drude_300k", drude, temperature),
        ("plasma_300k", plasma, temperature),
        ("drude_t0", drude, 0.0),
        ("plasma_t0", plasma, 0.0),
    ]
    return [ModelCurve(model_id=name, evaluator=curve(model, T)) for name, model, T in pairs]


def fit_report_dict(fit):
    """JSON-ready summary of one FitResult (mV and pN at the boundary)."""
    v_rms = fit.v_rms
    return {
        "model_id": fit.model_id,
        "v_rms_mv": None if v_rms is None else v_rms * 1e3,
        "a_pn": fit.a * 1e12,
        "chi2_reduced": fit.chi2_reduced,
        "n_points": fit.n_points,
        "covariance_si": [[float(x) for x in row] for row in fit.covariance],
    }


def load_measurements(path):
    """Read measurement points from a `separation_um,force_pn,sigma_pn` CSV."""
    points = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != MEASUREMENT_CSV_HEADER:
            raise ValidationError(
                f"expected header {','.join(MEASUREMENT_CSV_HEADER)}, got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValidationError(f"line {lineno}: expected 3 columns, got {len(row)}")
            try:
                d_um, f_pn, s_pn = (float(cell) for cell in row)
            except ValueError:
                raise ValidationError(f"line {lineno}: non-numeric value in {row}") from None
            try:
                points.append(
                    MeasurementPoint(d=d_um * 1e-6, f=f_pn * 1e-12, sigma=s_pn * 1e-12)
                )
            except ValidationError as exc:
                raise ValidationError(f"line {lineno}: {exc}") from None
    return points


def save_measurements(path, points):
    """Write measurement points as a `separation_um,force_pn,sigma_pn` CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MEASUREMENT_CSV_HEADER)
        for p in points:
            writer.writerow(
                [
                    format(p.d * 1e6, ".12g"),
                    format(p.f * 1e12, ".12g"),
                    format(p.sigma * 1e12, ".12g"),
                ]
            )
