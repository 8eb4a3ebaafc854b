"""Synthetic torsion-pendulum campaign: schedules, noise, drift, round trips.

One campaign walks a log-spaced separation grid many times.  At the two
extreme separations every visit records a full force-vs-voltage sweep, the
calibration input; everywhere the applied bias sits at the minimizing
potential and a single force sample is taken.  Gaussian noise and a linear
long-term drift are layered on top of the analytic force sum, all drawn
from one seeded stream in schedule order so a campaign is reproducible
bit for bit.

The generated data feed the full analysis chain (drift subtraction, sweep
calibration, separation correction, model fits) and close the loop back on
the injected truth parameters.
"""

import csv
import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .analysis import MeasurementPoint, standard_model_curves, MODEL_IDS
from .electrostatics import SweepSample, bias_force, patch_force
from .errors import ValidationError
from .lifshitz import DEFAULT_SPEC

__all__ = [
    "CampaignConfig",
    "SweepRecord",
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

#: keeps MeasurementPoint/SweepSample sigma invariants satisfiable for
#: noiseless campaigns; negligible against any physical force scale
SIGMA_FLOOR = 1e-18

SWEEPS_CSV_HEADER = ["sweep_index", "separation_um", "voltage_v", "force_n", "sigma_n"]


def _is_finite_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
            if f.type is float and not _is_finite_real(value):
                raise ValidationError(f"{f.name} must be a finite number, got {value!r}")
            if f.type is int and not _is_int(value):
                raise ValidationError(f"{f.name} must be an integer, got {value!r}")
        if self.seed is not None and not (_is_int(self.seed) and self.seed >= 0):
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
        if not all(_is_finite_real(v) for v in voltages):
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


@dataclass(frozen=True)
class SweepRecord:
    """One voltage sweep at fixed nominal separation."""

    nominal_d: float
    samples: tuple
    sweep_index: int

    def __post_init__(self):
        if len(self.samples) == 0:
            raise ValidationError("sweep record needs at least one sample")


@dataclass(frozen=True)
class CampaignResult:
    """Campaign output: calibration sweeps plus at-minimum force points.

    point_sweep_index parallels points and records which schedule pass each
    point was taken on; drift subtraction needs it.
    """

    records: tuple
    points: tuple
    point_sweep_index: np.ndarray
    separations: np.ndarray


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
    electrostatic terms.  Noise is drawn from a single numpy Generator in
    schedule order: sweeps advance outermost, separations inner, sweep
    voltages before the at-minimum sample.

    Returns
    -------
    CampaignResult
        Full sweeps at the two extreme separations of every pass, one
        at-minimum MeasurementPoint per (pass, separation).
    """
    if config.seed is None:
        raise ValidationError("campaign config needs an explicit seed")
    rng = np.random.default_rng(config.seed)
    seps = config.separations()
    curves = standard_model_curves(R=config.radius, delta=config.delta_true, spec=spec)
    truth = {c.model_id: c.evaluator for c in curves}[config.truth_model_id]
    sigma = max(config.noise_sigma, SIGMA_FLOOR)

    # per-separation pieces that do not change across sweeps
    base = np.array(
        [
            truth(float(d))
            + patch_force(d, config.radius, config.v_rms_true, config.delta_true)
            + config.offset_a_true
            for d in seps
        ]
    )
    fluct = np.array([1.0 + (config.delta_true / d) ** 2 for d in seps])
    voltages = tuple(float(v) for v in config.sweep_voltages)
    endpoint = {0, len(seps) - 1}

    records = []
    points = []
    point_sweep = []
    for sweep_index in range(config.n_sweeps):
        drift = config.drift_rate * sweep_index
        for i, d in enumerate(seps):
            if i in endpoint:
                noise = rng.normal(0.0, config.noise_sigma, size=len(voltages))
                samples = tuple(
                    SweepSample(
                        v=v,
                        f=base[i]
                        + bias_force(d, config.radius, v, config.v_m_true) * fluct[i]
                        + drift
                        + noise[j],
                        sigma_f=sigma,
                    )
                    for j, v in enumerate(voltages)
                )
                records.append(
                    SweepRecord(nominal_d=float(d), samples=samples, sweep_index=sweep_index)
                )
            f = base[i] + drift + rng.normal(0.0, config.noise_sigma)
            points.append(MeasurementPoint(d=float(d), f=float(f), sigma=sigma))
            point_sweep.append(sweep_index)

    return CampaignResult(
        records=tuple(records),
        points=tuple(points),
        point_sweep_index=np.array(point_sweep, dtype=int),
        separations=seps,
    )


def subtract_drift(campaign):
    """Estimate and remove the common linear drift across the campaign.

    Repeated visits to identical conditions (same separation and same
    applied bias) differ only by drift and noise, so a pooled weighted
    regression of force against sweep index, with one intercept per
    condition and a single shared slope, pins the drift rate.  The slope
    times the sweep index is then subtracted from every sample, anchoring
    the campaign at its first pass.

    Returns
    -------
    DriftSubtraction
        (corrected campaign, fitted slope in N/sweep, its one-sigma error).
    """
    n_sweeps = 1 + (
        int(campaign.point_sweep_index.max()) if len(campaign.points) else 0
    )
    if n_sweeps < 2:
        raise ValidationError("drift estimation needs at least two sweeps")

    # group samples by condition; within each group regress on sweep index.
    # demeaning per group and pooling is the exact shared-slope WLS solution.
    groups = {}

    def add(key, x, y, w):
        groups.setdefault(key, []).append((x, y, w))

    for rec in campaign.records:
        for j, s in enumerate(rec.samples):
            add(
                ("sweep", rec.nominal_d, j),
                rec.sweep_index,
                s.f,
                1.0 / (s.sigma_f * s.sigma_f),
            )
    for p, idx in zip(campaign.points, campaign.point_sweep_index):
        add(("point", p.d), int(idx), p.f, 1.0 / (p.sigma * p.sigma))

    num = 0.0
    den = 0.0
    for members in groups.values():
        if len(members) < 2:
            continue
        x = np.array([m[0] for m in members], dtype=float)
        y = np.array([m[1] for m in members])
        w = np.array([m[2] for m in members])
        wsum = w.sum()
        dx = x - np.sum(w * x) / wsum
        dy = y - np.sum(w * y) / wsum
        num += np.sum(w * dx * dy)
        den += np.sum(w * dx * dx)
    if den == 0.0:
        raise ValidationError("no condition was visited on two different sweeps")
    slope = num / den
    slope_sigma = 1.0 / math.sqrt(den)

    records = tuple(
        replace(
            rec,
            samples=tuple(
                replace(s, f=s.f - slope * rec.sweep_index) for s in rec.samples
            ),
        )
        for rec in campaign.records
    )
    points = tuple(
        replace(p, f=p.f - slope * int(idx))
        for p, idx in zip(campaign.points, campaign.point_sweep_index)
    )
    corrected = CampaignResult(
        records=records,
        points=points,
        point_sweep_index=campaign.point_sweep_index,
        separations=campaign.separations,
    )
    return DriftSubtraction(campaign=corrected, slope=slope, slope_sigma=slope_sigma)


def config_to_dict(config):
    """JSON-ready dict mirroring the config field names."""
    return {
        "d_min": config.d_min,
        "d_max": config.d_max,
        "n_separations": config.n_separations,
        "n_sweeps": config.n_sweeps,
        "sweep_voltages": list(config.sweep_voltages),
        "truth_model_id": config.truth_model_id,
        "v_rms_true": config.v_rms_true,
        "v_m_true": config.v_m_true,
        "offset_a_true": config.offset_a_true,
        "noise_sigma": config.noise_sigma,
        "drift_rate": config.drift_rate,
        "delta_true": config.delta_true,
        "radius": config.radius,
        "seed": config.seed,
    }


def config_from_dict(data):
    """Build a config from a dict, defaulting any missing field."""
    if not isinstance(data, dict):
        raise ValidationError("campaign config must be a JSON object")
    known = set(config_to_dict(CampaignConfig(seed=0)))
    unknown = set(data) - known
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


def save_sweeps_csv(path, records):
    """Write all sweep records to one CSV, keyed by sweep index and gap."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEPS_CSV_HEADER)
        for rec in records:
            for s in rec.samples:
                writer.writerow(
                    [
                        rec.sweep_index,
                        format(rec.nominal_d * 1e6, ".12g"),
                        format(s.v, ".12g"),
                        format(s.f, ".12g"),
                        format(s.sigma_f, ".12g"),
                    ]
                )
