"""Synthetic torsion-pendulum campaign: schedules, noise, drift, round trips.

One campaign walks a log-spaced separation grid many times.  At the two
extreme separations every visit records a full force-vs-voltage sweep, the
calibration input; everywhere the applied bias sits at the minimizing
potential and a single force sample is taken.  Gaussian noise and a linear
long-term drift are layered on top of the analytic force sum, all drawn
from one seeded stream so a campaign is reproducible bit for bit.

The campaign is held as arrays, one row per pass over the grid:

    forces        (n_sweeps, n_separations)  at-minimum force per gap
    sweep_forces  (n_sweeps, 2, n_voltages)  sweeps at the first, last gap

The noise is one draw of shape (n_sweeps, 2 n_voltages + n_separations).
Its columns follow the schedule order of one pass: the sweep at the first
gap, that gap's point, the inner points, the sweep at the last gap, that
gap's point.  The analysis reads the points as one Measurements, and
the sweeps CSV, the package's one sweep format, is written straight from
the arrays and read back as the sample groups calibrate_from_sweep takes.

Drift subtraction, binning and the model fits read the points and close
the loop back on the injected truth parameters.
"""

import math
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .analysis import Measurements, standard_model_curves, MODEL_IDS
from .electrostatics import SweepSample, bias_force, patch_force
from .errors import ValidationError, is_finite_real, is_integer
from .errors import require_at_least, require_finite, require_positive, require_table
from .fileio import read_json, read_table, write_json, write_table

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "DriftSubtraction",
    "default_sweep_voltages",
    "generate_campaign",
    "subtract_drift",
    "config_to_dict",
    "config_from_dict",
    "load_config",
    "save_config",
    "load_sweeps_csv",
    "save_sweeps_csv",
]

#: keeps the positive-sigma invariant of Measurements and SweepSample
#: satisfiable for noiseless campaigns; negligible against any physical
#: force scale
SIGMA_FLOOR = 1e-18

SWEEPS_CSV_HEADER = ["sweep_index", "separation_um", "voltage_v", "force_n", "sigma_n"]


def default_sweep_voltages():
    """Eleven bias points spanning +-50 mV."""
    return tuple(np.linspace(-50e-3, 50e-3, 11))


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines a campaign, including its random seed.

    Forces in N, lengths in m, voltages in V; drift_rate is N per sweep,
    about the mean pass, so offset_a_true is the campaign's mean offset.
    truth_model_id selects the injected theory curve from the canonical
    four-candidate set.
    """

    d_min: float = 0.7e-6
    d_max: float = 7.0e-6
    n_separations: int = 30
    n_sweeps: int = 383
    sweep_voltages: Sequence[float] = field(default_factory=default_sweep_voltages)
    truth_model_id: str = "drude_300k"
    v_rms_true: float = 5.4e-3
    v_m_true: float = 20e-3
    offset_a_true: float = -3.0e-12
    noise_sigma: float = 1e-12
    drift_rate: float = 0.0
    delta_true: float = 40e-9
    radius: float = 0.156
    seed: Optional[int] = None

    def __post_init__(self):
        # types first, by field name, so no comparison below can raise
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not is_finite_real(value):
                raise ValidationError(f"{f.name} must be a finite number, got {value!r}")
            if f.type is int and not is_integer(value):
                raise ValidationError(f"{f.name} must be an integer, got {value!r}")
        if self.seed is not None and not (is_integer(self.seed) and self.seed >= 0):
            raise ValidationError(
                f"seed must be a non-negative integer or null, got {self.seed!r}"
            )
        voltages = require_finite("sweep_voltages", self.sweep_voltages)
        if np.ndim(voltages) != 1 or not np.size(voltages):
            raise ValidationError(f"sweep_voltages must be a non-empty list, got {voltages}")
        # tuple-ize: a frozen config holds no mutable sequence
        object.__setattr__(self, "sweep_voltages", tuple(voltages.tolist()))
        if not 0.0 < self.d_min < self.d_max:
            raise ValidationError(f"need 0 < d_min < d_max, got {self.d_min}, {self.d_max}")
        if self.n_separations < 2:
            raise ValidationError(f"n_separations must be >= 2, got {self.n_separations}")
        if self.n_sweeps < 1:
            raise ValidationError(f"n_sweeps must be >= 1, got {self.n_sweeps}")
        if self.truth_model_id not in MODEL_IDS:
            raise ValidationError(
                f"truth_model_id must be one of {MODEL_IDS}, got {self.truth_model_id!r}"
            )
        for name in ("noise_sigma", "v_rms_true", "delta_true"):
            require_at_least(name, getattr(self, name), 0.0)
        require_positive("radius", self.radius)

    def separations(self):
        return np.geomspace(self.d_min, self.d_max, self.n_separations)


@dataclass(frozen=True, eq=False)
class CampaignResult:
    """Campaign output as arrays; one row per pass over the separation grid.

    separations (n_sep,) and voltages (n_v,) are the schedule in m and V;
    forces[k, i] is the at-minimum force of pass k at separations[i];
    sweep_forces[k, e, j] is the sweep sample of pass k at voltages[j], at
    the first gap for e = 0 and the last for e = 1.  Every sample carries
    the same uncertainty sigma, in N.  :attr:`points` reads the forces as
    one Measurements and :func:`save_sweeps_csv` writes the sweeps.  ``==``
    is identity, as on Measurements.
    """

    separations: np.ndarray
    voltages: np.ndarray
    forces: np.ndarray
    sweep_forces: np.ndarray
    sigma: float

    @property
    def points(self):
        """The forces as one Measurements, passes outermost: row
        k * n_sep + i is forces[k, i] at separations[i]."""
        n_sweeps = self.forces.shape[0]
        return Measurements(
            d=np.tile(self.separations, n_sweeps),
            f=self.forces.ravel(),
            sigma=np.full(self.forces.size, self.sigma),
        )


class DriftSubtraction(NamedTuple):
    campaign: CampaignResult
    slope: float
    slope_sigma: float


def generate_campaign(config):
    """Simulate a full campaign from a seeded configuration.

    Every force sample is the analytic sum

        fluctuation-corrected theory + patch term + bias term
        + constant offset + drift_rate * (sweep_index - mean index) + noise

    with the 1 + (delta/d)^2 fluctuation factor applied to both 1/d
    electrostatic terms.  The noise is drawn from one numpy Generator in a
    single call, its columns in schedule order (see the module docstring).

    Returns
    -------
    CampaignResult
        Full sweeps at the two extreme separations of every pass, one
        at-minimum force per (pass, separation).
    """
    if config.seed is None:
        raise ValidationError("campaign config needs an explicit seed")
    seps = config.separations()
    voltages = np.array(config.sweep_voltages)
    n_sep, n_v = seps.size, voltages.size
    noise = np.random.default_rng(config.seed).normal(
        0.0, config.noise_sigma, size=(config.n_sweeps, 2 * n_v + n_sep)
    )
    curves = standard_model_curves(R=config.radius, delta=config.delta_true)
    truth = {c.model_id: c.evaluator for c in curves}[config.truth_model_id]

    # per-separation pieces that do not change across sweeps
    patch = patch_force(seps, config.radius, config.v_rms_true, config.delta_true)
    base = truth(seps) + patch + config.offset_a_true
    fluct = 1.0 + (config.delta_true / seps) ** 2
    ends = [0, n_sep - 1]
    bias = bias_force(seps[ends, None], config.radius, voltages, config.v_m_true)
    drift = config.drift_rate * (np.arange(config.n_sweeps) - (config.n_sweeps - 1) / 2.0)

    # noise columns of one pass: first sweep, points 0..n_sep-2, last sweep, last point
    sweep_noise = np.stack([noise[:, :n_v], noise[:, n_v + n_sep - 1 : -1]], axis=1)
    point_noise = np.concatenate([noise[:, n_v : n_v + n_sep - 1], noise[:, -1:]], axis=1)
    sweep_forces = (
        (base[ends, None] + bias * fluct[ends, None]) + drift[:, None, None]
    ) + sweep_noise
    return CampaignResult(
        separations=seps,
        voltages=voltages,
        forces=(base + drift[:, None]) + point_noise,
        sweep_forces=sweep_forces,
        sigma=max(config.noise_sigma, SIGMA_FLOOR),
    )


def subtract_drift(campaign):
    """Estimate and remove the common linear drift across the campaign.

    Repeated visits to identical conditions (same separation and same
    applied bias) differ only by drift and noise, so a pooled weighted
    regression of force against sweep index, with one intercept per
    condition and a single shared slope, pins the drift rate.  With one
    visit per condition and pass and one sigma, that regression is the
    pooled slope of the per-column demeaned data.  The slope times the
    sweep index less its mean is then subtracted from every sample,
    anchoring the campaign at its mean pass, where generate_campaign's
    drift is zero: the slope's error then moves no sample's mean, so the
    fit's offset error is what its covariance says.  Anchored at the first
    pass, that error times the mean index would shift every point alike.

    Returns
    -------
    DriftSubtraction
        (corrected campaign, fitted slope in N/sweep, its one-sigma error).
    """
    n_sweeps = campaign.forces.shape[0]
    if n_sweeps < 2:
        raise ValidationError("drift estimation needs at least two sweeps")

    # one column per condition: every sweep voltage at both ends, every gap
    y = np.hstack([campaign.sweep_forces.reshape(n_sweeps, -1), campaign.forces])
    dk = np.arange(n_sweeps) - (n_sweeps - 1) / 2.0
    den = y.shape[1] * (dk @ dk)
    slope = (dk @ (y - y.mean(axis=0))).sum() / den
    slope_sigma = campaign.sigma / math.sqrt(den)

    corrected = replace(
        campaign,
        forces=campaign.forces - slope * dk[:, None],
        sweep_forces=campaign.sweep_forces - slope * dk[:, None, None],
    )
    return DriftSubtraction(campaign=corrected, slope=slope, slope_sigma=slope_sigma)


def config_to_dict(config):
    """JSON-ready dict mirroring the config field names."""
    data = {f.name: getattr(config, f.name) for f in fields(config)}
    data["sweep_voltages"] = list(config.sweep_voltages)
    return data


def config_from_dict(data):
    """Build a config from a dict, defaulting any missing field."""
    if not isinstance(data, dict):
        raise ValidationError("campaign config must be a JSON object")
    unknown = set(data) - {f.name for f in fields(CampaignConfig)}
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")
    return CampaignConfig(**data)


def load_config(path):
    """Read a config from JSON; every error names the file."""
    return read_json(path, config_from_dict)


def save_config(path, config):
    write_json(path, config_to_dict(config))


def save_sweeps_csv(path, campaign):
    """Write every sweep of a CampaignResult to one CSV, one row per sample:
    passes in order, in each the first gap's sweep before the last gap's,
    voltages in schedule order."""
    k, e, j = np.indices(campaign.sweep_forces.shape).reshape(3, -1)
    ends_um = campaign.separations[[0, -1]] * 1e6
    sigma = np.full(k.size, campaign.sigma)
    columns = (k, ends_um[e], campaign.voltages[j], campaign.sweep_forces.ravel(), sigma)
    write_table(path, SWEEPS_CSV_HEADER, zip(*(c.tolist() for c in columns)))


def load_sweeps_csv(path):
    """``{(sweep_index, separation_m): [SweepSample, ...]}`` of the sweeps CSV
    at ``path``, in file order.  A cell must be finite, an index a non-negative
    integer, a gap or sigma positive; a ValidationError names line and column."""

    def groups(*cells):
        columns = require_table(zip(SWEEPS_CSV_HEADER, cells), (
            ("sweep_index", "a non-negative integer", lambda k: (k < 0) | (k != np.floor(k))),
            ("separation_um", "positive", lambda d: d <= 0.0),
            ("sigma_n", "positive", lambda sigma: sigma <= 0.0)))
        out = {}
        for k, d_um, *sample in zip(*(column.tolist() for column in columns)):
            out.setdefault((int(k), d_um * 1e-6), []).append(SweepSample(*sample))
        return out

    return read_table(path, SWEEPS_CSV_HEADER, groups)
