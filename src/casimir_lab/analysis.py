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
from typing import Callable, Optional, Union

import numpy as np

from .corrections import corrected_curve
from .dielectric import gold_drude, gold_plasma
from .electrostatics import patch_force
from .errors import DegenerateFitError, ValidationError, is_finite_real, is_integer
from .lifshitz import (
    DEFAULT_SPEC,
    force_curvature_sphere_plane,
    force_sphere_plane,
    force_sphere_plane_grid,
)

__all__ = [
    "Measurements",
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


def _bad_row(message, row):
    """ValidationError naming a row of a series; ``row`` is kept on it."""
    exc = ValidationError(f"{message} (row {row})")
    exc.row = row
    return exc


def _column(name, value):
    """``value`` as a new read-only 1-D float array.  A list is checked entry
    by entry, since numpy reads [1.0, True] as floats and [1.0, "2"] as
    strings; an array needs an integer or float dtype."""
    a = np.asarray(value)
    if a.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got an array of shape {a.shape}")
    if a.dtype.kind not in "iuf" or not isinstance(value, np.ndarray):
        items = np.asarray(value, dtype=object).tolist()
        row = next((i for i, v in enumerate(items) if not is_finite_real(v)), None)
        if row is not None:
            raise _bad_row(f"{name} must be finite, got {items[row]!r}", row)
        if a.dtype.kind not in "iuf":
            raise ValidationError(f"{name} must be a numeric array, got dtype {a.dtype}")
    a = a.astype(float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Measurements:
    """A series of calibrated force measurements, in SI.

    ``d``, ``f`` and ``sigma`` are read-only 1-D float arrays of one length:
    separation, force and its one-sigma uncertainty of each row.  Every
    value must be finite, and d and sigma positive; a ValidationError names
    the field and the first bad row.  ``==`` is identity, as a field-wise
    comparison of arrays has no single truth value.
    """

    d: np.ndarray
    f: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        d, f, sigma = (
            _column(name, getattr(self, attr))
            for attr, name in (("d", "separation"), ("f", "force"), ("sigma", "sigma"))
        )
        if not d.size == f.size == sigma.size:
            raise ValidationError(
                f"d, f and sigma need one length, got {d.size}, {f.size} and {sigma.size}"
            )
        # a row's checks in this order; the first bad row is reported
        checks = (
            ("separation must be finite", d, ~np.isfinite(d)),
            ("force must be finite", f, ~np.isfinite(f)),
            ("sigma must be finite", sigma, ~np.isfinite(sigma)),
            ("separation must be positive", d, d <= 0.0),
            ("sigma must be positive", sigma, sigma <= 0.0),
        )
        bad = np.stack([mask for _, _, mask in checks])
        if bad.any():
            row = int(np.argmax(bad.any(axis=0)))
            stem, column, _ = checks[int(np.argmax(bad[:, row]))]
            raise _bad_row(f"{stem}, got {float(column[row])}", row)
        for attr, column in (("d", d), ("f", f), ("sigma", sigma)):
            object.__setattr__(self, attr, column)

    def __len__(self):
        return self.d.size


@dataclass(frozen=True)
class ModelCurve:
    """A named theory force curve, fluctuation corrections already applied.

    ``evaluator`` maps a gap in m to a force in N: a float gives a float,
    a 1-D array gives the array of forces, computed as one curve.
    """

    model_id: str
    evaluator: Callable[[Union[float, np.ndarray]], Union[float, np.ndarray]]


@dataclass(frozen=True, eq=False)
class FitResult:
    """Weighted least-squares output for one theory candidate.

    covariance is 2x2 over (v_rms_sq, a) in SI units.  v_rms_sq may come out
    negative when the theory overshoots the data; v_rms is then undefined
    rather than clamped, so chi^2 comparisons stay unbiased.  ``==`` is
    identity, as on Measurements.
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
    if not is_integer(n_bins) or n_bins < 1:
        raise ValueError(f"n_bins must be an integer >= 1, got {n_bins!r}")
    pad = 1e-9
    return np.geomspace(d_min * (1.0 - pad), d_max * (1.0 + pad), n_bins + 1)


def bin_points(points, edges):
    """Merge the rows of a Measurements into inverse-variance weighted bin
    averages, returned as a Measurements with one row per non-empty bin.

    Per bin: force is the weighted mean with weights 1/sigma^2, separation
    the same weighted mean, and the combined sigma is (sum 1/sigma_i^2)^-1/2.
    Empty bins are dropped; a point outside [edges[0], edges[-1]] is an
    error, not a silent drop.
    """
    edges = np.asarray(list(edges), dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValidationError("need at least two bin edges")
    if not np.all(np.isfinite(edges)):
        raise ValidationError(f"bin edges must be finite, got {edges[~np.isfinite(edges)][0]}")
    if np.any(np.diff(edges) <= 0.0):
        raise ValidationError("bin edges must be strictly increasing")

    d, f = points.d, points.f
    w = 1.0 / (points.sigma * points.sigma)
    if np.any(d < edges[0]) or np.any(d > edges[-1]):
        bad = d[(d < edges[0]) | (d > edges[-1])][0]
        raise ValidationError(f"point at d = {bad:.6e} m lies outside the bin edges")

    idx = np.searchsorted(edges, d, side="right") - 1
    idx[d == edges[-1]] = edges.size - 2  # right-closed final bin

    wsum = np.bincount(idx, weights=w)
    wd = np.bincount(idx, weights=w * d)
    wf = np.bincount(idx, weights=w * f)
    filled = np.unique(idx)
    wsum = wsum[filled]
    return Measurements(d=wd[filled] / wsum, f=wf[filled] / wsum, sigma=1.0 / np.sqrt(wsum))


def fit_patch_and_offset(points, curve, R, delta=0.0):
    """Fit measured forces to theory + patch term + constant offset.

    Weighted linear least squares of the residuals F_i - theory(d_i) against
    the basis {(pi eps0 R / d_i)(1 + (delta/d_i)^2), 1}; the coefficients
    are (V_rms^2, a).

    Parameters
    ----------
    points : Measurements
        At least three rows, spanning at least two distinct separations.
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
    ValueError
        The curve gives a non-finite force; the message names the model and
        the smallest such gap.
    """
    if len(points) < 3:
        raise ValidationError(f"need >= 3 measurement points, got {len(points)}")
    if not 0.0 < R < math.inf:
        raise ValueError(f"radius R must be positive and finite, got {R}")
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta}")

    d, f, sigma = points.d, points.f, points.sigma

    # the curve once, at each distinct separation; a constant curve may
    # answer with one number
    unique, inverse = np.unique(d, return_inverse=True)
    theory = np.broadcast_to(curve.evaluator(unique), unique.shape)
    if not np.all(np.isfinite(theory)):
        bad = unique[~np.isfinite(theory)][0]
        raise ValueError(f"model {curve.model_id} gives a non-finite force at d = {bad:.6e} m")
    y = f - theory[inverse]
    # the patch force at unit V_rms is the regressor of V_rms^2
    basis = np.column_stack([patch_force(d, R, 1.0, delta), np.ones_like(d)])

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
    Defaults use the gold parameter set.  An array of gaps is one force
    grid and one curvature curve per candidate.
    """
    drude = drude if drude is not None else gold_drude()
    plasma = plasma if plasma is not None else gold_plasma()

    def curve(model, T):
        def force(d):
            if np.ndim(d) == 0:
                return force_sphere_plane(d, T, R, model, spec)
            return force_sphere_plane_grid(d, T, R, model, spec)

        return corrected_curve(
            force,
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
    """Read a Measurements from a `separation_um,force_pn,sigma_pn` CSV; a
    ValidationError names the line of a bad row."""
    rows, lines = [], []
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
                rows.append([float(cell) for cell in row])
            except ValueError:
                raise ValidationError(f"line {lineno}: non-numeric value in {row}") from None
            lines.append(lineno)
    d_um, f_pn, s_pn = np.array(rows, dtype=float).reshape(-1, 3).T
    try:
        return Measurements(d=d_um * 1e-6, f=f_pn * 1e-12, sigma=s_pn * 1e-12)
    except ValidationError as exc:
        raise ValidationError(f"line {lines[exc.row]}: {exc}") from None


def save_measurements(path, points):
    """Write a Measurements as a `separation_um,force_pn,sigma_pn` CSV."""
    columns = (points.d * 1e6, points.f * 1e12, points.sigma * 1e12)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MEASUREMENT_CSV_HEADER)
        writer.writerows(
            [format(x, ".12g") for x in row] for row in zip(*(c.tolist() for c in columns))
        )
