"""Measurement binning, the two-parameter electrostatic fit, model ranking.

Every theory candidate is compared to data through the same two-parameter
model: measured force = theory(d) + pi eps0 R V_rms^2 / d + a, where the
patch amplitude V_rms^2 and the instrumental offset a are the only free
parameters.  The fit is linear in both, so weighted least squares gives the
exact minimum and an exact covariance, and the reduced chi^2 values of the
four theory candidates can be compared on equal footing.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .corrections import corrected_curve
from .dielectric import gold_drude, gold_plasma
from .electrostatics import patch_force, weighted_fit
from .errors import ValidationError, is_integer
from .errors import require_at_least, require_finite, require_positive, require_table
from .fileio import read_table, write_table
from .lifshitz import force_and_curvature_sphere_plane, force_sphere_plane

__all__ = [
    "Measurements",
    "ModelCurve",
    "FitResult",
    "MODEL_IDS",
    "candidate_models",
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
#: in their zero-temperature limits; :func:`candidate_models` at 300 K
MODEL_IDS = ("drude_300k", "plasma_300k", "drude_t0", "plasma_t0")


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
        columns = require_table(
            (("separation", self.d), ("force", self.f), ("sigma", self.sigma)),
            (("separation", "positive", lambda d: d <= 0.0),
             ("sigma", "positive", lambda sigma: sigma <= 0.0)),
        )
        for attr, column in zip(("d", "f", "sigma"), columns):
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
    d_min = require_positive("d_min", d_min, scalar=True)
    d_max = require_positive("d_max", d_max, scalar=True)
    if d_max <= d_min:
        raise ValueError(f"need d_min < d_max, got d_min={d_min}, d_max={d_max}")
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
    error, not a silent drop.  So is a filled bin whose weights sum to 0 or
    overflow, or whose weighted separation sum overflows (sigma out of
    range), or whose weighted force sum overflows (force out of range): the
    ValidationError names the quantity and the bin, and nothing warns.
    """
    edges = require_finite("bin edges", edges)
    if np.ndim(edges) != 1 or edges.size < 2:
        raise ValidationError("need at least two bin edges")
    if np.any(np.diff(edges) <= 0.0):
        raise ValidationError("bin edges must be strictly increasing")

    d, f = points.d, points.f
    if np.any(d < edges[0]) or np.any(d > edges[-1]):
        bad = d[(d < edges[0]) | (d > edges[-1])][0]
        raise ValidationError(f"point at d = {bad:.6e} m lies outside the bin edges")

    idx = np.searchsorted(edges, d, side="right") - 1
    idx[d == edges[-1]] = edges.size - 2  # right-closed final bin

    # not np.unique: its first call in a process imports numpy.ma (~15 ms)
    filled = np.flatnonzero(np.bincount(idx))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = 1.0 / (points.sigma * points.sigma)
        wsum, wd, wf = (np.bincount(idx, weights=v)[filled] for v in (w, w * d, w * f))
    for name, bad, sums, what in (
        ("sigma", ~((wsum > 0.0) & (wsum < np.inf) & np.isfinite(wd)), wsum, "weights 1/sigma^2"),
        ("force", ~np.isfinite(wf), wf, "weighted forces"),
    ):
        if bad.any():
            i = np.argmax(bad)
            lo, hi = edges[filled[i]:filled[i] + 2]
            raise ValidationError(
                f"{name} is out of range in the bin [{lo:.6e}, {hi:.6e}] m: "
                f"its {what} sum to {sums[i]:g}"
            )
    return Measurements(d=wd / wsum, f=wf / wsum, sigma=1.0 / np.sqrt(wsum))


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
    R = require_positive("radius R", R, scalar=True)
    delta = require_at_least("delta", delta, 0.0, scalar=True)

    d, f, sigma = points.d, points.f, points.sigma

    # the curve once, at each distinct separation; a constant curve may
    # answer with one number
    unique, inverse = np.unique(d, return_inverse=True)
    theory = np.broadcast_to(curve.evaluator(unique), unique.shape)
    if not np.all(np.isfinite(theory)):
        bad = unique[~np.isfinite(theory)][0]
        raise ValueError(f"model {curve.model_id} gives a non-finite force at d = {bad:.6e} m")
    with np.errstate(over="ignore"):  # an overflow is the fit's to refuse
        y = f - theory[inverse]
    # the patch force at unit V_rms is the regressor of V_rms^2
    basis = np.column_stack([patch_force(d, R, 1.0, delta), np.ones_like(d)])

    coeffs, cov, chi2 = weighted_fit(
        basis, y, sigma,
        "patch and offset regressors are collinear; need at least two distinct separations",
    )
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


def candidate_models(temperature=300.0, drude=None, plasma=None):
    """The four theory candidates as (model_id, model, T): both metal
    descriptions at `temperature`, tagged with it (``drude_77k`` at 77 K),
    then both at T = 0 (``drude_t0``, ``plasma_t0``).  Defaults use the gold
    parameter set; at 300 K the ids are MODEL_IDS, in order."""
    temperature = require_at_least("temperature", temperature, 0.0, scalar=True)
    drude = drude if drude is not None else gold_drude()
    plasma = plasma if plasma is not None else gold_plasma()
    tag = f"{temperature + 0.0:g}k"
    return [
        (f"drude_{tag}", drude, temperature),
        (f"plasma_{tag}", plasma, temperature),
        ("drude_t0", drude, 0.0),
        ("plasma_t0", plasma, 0.0),
    ]


def standard_model_curves(R, delta, temperature=300.0, drude=None, plasma=None):
    """The curves of :func:`candidate_models`, each wrapped with the
    fluctuation correction for rms amplitude delta.  An array of gaps is one
    engine pass per candidate that gives the force and its curvature
    together; with delta = 0 the force alone is computed."""
    R = require_positive("radius R", R, scalar=True)
    delta = require_at_least("delta", delta, 0.0, scalar=True)

    def curve(model, T):
        if delta == 0.0:
            return lambda d: force_sphere_plane(d, T, R, model)
        return corrected_curve(lambda d: force_and_curvature_sphere_plane(d, T, R, model), delta)

    candidates = candidate_models(temperature, drude, plasma)
    return [ModelCurve(model_id, curve(model, T)) for model_id, model, T in candidates]


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
    """Read a Measurements from a `separation_um,force_pn,sigma_pn` CSV.  A
    ValidationError names the file and the line of a malformed or refused
    row, the first such line if there are several."""
    return read_table(
        path,
        MEASUREMENT_CSV_HEADER,
        lambda d_um, f_pn, s_pn: Measurements(d=d_um * 1e-6, f=f_pn * 1e-12, sigma=s_pn * 1e-12),
    )


def save_measurements(path, points):
    """Write a Measurements as a `separation_um,force_pn,sigma_pn` CSV."""
    columns = (points.d * 1e6, points.f * 1e12, points.sigma * 1e12)
    write_table(path, MEASUREMENT_CSV_HEADER, zip(*(c.tolist() for c in columns)))
