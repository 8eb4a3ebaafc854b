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
the sweeps CSV is written straight from the arrays.

Drift subtraction, binning and the model fits read the points and close
the loop back on the injected truth parameters.  The sweeps are an export
only: no command reads them back.
"""

import csv
import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .analysis import Measurements, standard_model_curves, MODEL_IDS
from .electrostatics import bias_force, patch_force
from .errors import ValidationError, is_finite_real, is_integer
from .lifshitz import DEFAULT_SPEC

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

    Forces in N, lengths in m, voltages in V; drift_rate is N per sweep.
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
        bad_voltages = ValidationError(
            f"sweep_voltages must be a list of finite numbers, got {self.sweep_voltages!r}"
        )
        try:
            voltages = tuple(self.sweep_voltages)
        except TypeError:
            raise bad_voltages from None
        if not all(is_finite_real(v) for v in voltages):
            raise bad_voltages
        # tuple-ize: a frozen config holds no mutable sequence
        object.__setattr__(self, "sweep_voltages", tuple(float(v) for v in voltages))
        if not 0.0 < self.d_min < self.d_max:
            raise ValidationError(
                f"need 0 < d_min < d_max, got {self.d_min}, {self.d_max}"
            )
        if self.n_separations < 2:
            raise ValidationError(
                f"n_separations must be >= 2, got {self.n_separations}"
            )
        if self.n_sweeps < 1:
            raise ValidationError(f"n_sweeps must be >= 1, got {self.n_sweeps}")
        if len(self.sweep_voltages) < 1:
            raise ValidationError("sweep_voltages must be non-empty")
        if self.truth_model_id not in MODEL_IDS:
            raise ValidationError(
                f"truth_model_id must be one of {MODEL_IDS}, got {self.truth_model_id!r}"
            )
        if self.noise_sigma < 0.0:
            raise ValidationError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.v_rms_true < 0.0:
            raise ValidationError(f"v_rms_true must be >= 0, got {self.v_rms_true}")
        if self.delta_true < 0.0:
            raise ValidationError(f"delta_true must be >= 0, got {self.delta_true}")
        if self.radius <= 0.0:
            raise ValidationError(f"radius must be positive, got {self.radius}")

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


def generate_campaign(config, spec=DEFAULT_SPEC):
    """Simulate a full campaign from a seeded configuration.

    Every force sample is the analytic sum

        fluctuation-corrected theory + patch term + bias term
        + constant offset + drift_rate * sweep_index + Gaussian noise

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
    curves = standard_model_curves(R=config.radius, delta=config.delta_true, spec=spec)
    truth = {c.model_id: c.evaluator for c in curves}[config.truth_model_id]

    # per-separation pieces that do not change across sweeps
    patch = patch_force(seps, config.radius, config.v_rms_true, config.delta_true)
    base = truth(seps) + patch + config.offset_a_true
    fluct = 1.0 + (config.delta_true / seps) ** 2
    ends = [0, n_sep - 1]
    bias = np.array(
        [[bias_force(seps[i], config.radius, v, config.v_m_true) for v in voltages] for i in ends]
    )
    drift = config.drift_rate * np.arange(config.n_sweeps)

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
    sweep index is then subtracted from every sample, anchoring the
    campaign at its first pass.

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
    k = np.arange(n_sweeps, dtype=float)
    dk = k - k.mean()
    den = y.shape[1] * (dk @ dk)
    slope = (dk @ (y - y.mean(axis=0))).sum() / den
    slope_sigma = campaign.sigma / math.sqrt(den)

    corrected = replace(
        campaign,
        forces=campaign.forces - slope * k[:, None],
        sweep_forces=campaign.sweep_forces - slope * k[:, None, None],
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
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def save_config(path, config):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_sweeps_csv(path, campaign):
    """Write every sweep of a CampaignResult to one CSV, one row per sample:
    passes in order, in each the first gap's sweep before the last gap's,
    voltages in schedule order."""
    ends = [format(d * 1e6, ".12g") for d in campaign.separations[[0, -1]].tolist()]
    voltages = [format(v, ".12g") for v in campaign.voltages.tolist()]
    sigma = format(campaign.sigma, ".12g")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEPS_CSV_HEADER)
        writer.writerows(
            [k, ends[e], v, format(f, ".12g"), sigma]
            for k, pair in enumerate(campaign.sweep_forces.tolist())
            for e, sweep in enumerate(pair)
            for v, f in zip(voltages, sweep)
        )
