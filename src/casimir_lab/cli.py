"""Command-line front end: force curves, campaigns, fits, sensitivity bands.

Four subcommands cover the pipeline end to end:

    force      theory force curves on a separation grid, plot-ready columns
    simulate   seeded synthetic campaign -> measurement CSV
    fit        measurement CSV -> ranked per-model fit report JSON
    band       force envelope over the metal-parameter uncertainty box

File boundaries use micrometres, piconewtons, millivolts and electronvolts,
matching the axes the results are usually plotted in; everything internal is
SI.  Every command writes a `<output>.manifest.json` recording the resolved
configuration (every setting flag as parsed; the campaign config for
`simulate`), inputs, outputs, versions and seed, and for `simulate` the
noise generator, so any seeded run can be reproduced byte for byte from its
manifest alone by the same tool version.

Exit codes: 0 success, 2 usage or config error, 3 convergence failure,
4 degenerate fit.
"""

import argparse
import functools
import gc
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .analysis import (
    candidate_models,
    discriminate_models,
    fit_report_dict,
    load_measurements,
    log_bin_edges,
    bin_points,
    save_measurements,
    standard_model_curves,
)
from .campaign import (
    NOISE_GENERATOR,
    CampaignConfig,
    config_to_dict,
    generate_campaign,
    load_config,
    save_sweeps_csv,
    subtract_drift,
)
from .constants import CONSTANTS_VERSION, ELEMENTARY_CHARGE, HBAR
from .dielectric import (
    GOLD_GAMMA_EV,
    GOLD_GAMMA_RANGE_EV,
    GOLD_OMEGA_P_EV,
    GOLD_OMEGA_P_RANGE_EV,
    MAX_FREQUENCY,
    DrudeModel,
    PlasmaModel,
    ev_to_angular_frequency,
)
from .electrostatics import patch_force
from .errors import ConvergenceError, DegenerateFitError, ValidationError
from .fileio import write_json, write_table
from .lifshitz import GAPS, force_sphere_plane_grid, sensitivity_band

FORCE_CSV_HEADER = ["separation_um", "force_pn", "f_times_d_pn_um", "f_times_d2_pn_um2"]
BAND_CSV_HEADER = ["separation_um", "f_min_pn", "f_center_pn", "f_max_pn"]

#: The largest energy a model flag in eV takes: the models' MAX_FREQUENCY in
#: eV, rounded down, so every value it passes builds its model.
_MAX_EV = math.floor(MAX_FREQUENCY * HBAR / ELEMENTARY_CHARGE)

#: The most gaps --points takes.  The grid and the curves are a few arrays
#: of this size and the ladder runs its rows in groups of bounded size, so
#: 10,000 points over the whole gap domain at 300 K peak at ~42 MB of RSS
#: for one model and ~49 MB (~40 s) for --all-models, against ~31 MB for
#: 30 points, and a plasma curve at 0.08 K, ~9e4 Matsubara rows a gap,
#: levels off at ~44 MB; numpy would try to allocate petabytes for 1e15.
MAX_POINTS = 10_000


def finite_float(text):
    """Flag type: a float, but not nan or +-inf.

    No leading underscore: argparse prints the name in its
    "invalid finite_float value" message.
    """
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


#: parsed names that are not settings: the subcommand, its handler, the paths
_NOT_SETTINGS = ("subcommand", "func", "out", "data", "subtract")


def _write_manifest(args, inputs, outputs, config=None, seed=None):
    """Write `<args.out>.manifest.json`; ``config`` defaults to every
    setting flag of ``args`` as parsed, under its dest.  A seeded manifest
    also names the noise generator the seed keys; no other has the key."""
    if config is None:
        config = {k: v for k, v in vars(args).items() if k not in _NOT_SETTINGS}
    manifest = {
        "command": args.subcommand,
        "config": config,
        "inputs": list(inputs),
        "outputs": list(outputs),
        "constants_version": CONSTANTS_VERSION,
        "tool_version": __version__,
        "seed": seed,
    }
    if seed is not None:
        manifest["noise_generator"] = NOISE_GENERATOR
    write_json(f"{args.out}.manifest.json", manifest)


def _require_positive_flags(args, *dests):
    """ValidationError naming the first flag of ``dests`` (each dest spelt
    as its flag) whose value is not positive or, for an energy in eV (a dest
    ending in ``_ev``), above ``_MAX_EV``."""
    for dest in dests:
        value, flag = getattr(args, dest), "--" + dest.replace("_", "-")
        if dest.endswith("_ev") and not value <= _MAX_EV:
            raise ValidationError(f"{flag} must be positive and at most {_MAX_EV} eV, got {value}")
        if value <= 0.0:
            raise ValidationError(f"{flag} must be positive, got {value}")


def _grid_from_args(args):
    """The log-spaced grid of --dmin, --dmax and --points, in m, each flag
    checked against the engine's gap domain, in the um the user typed, or
    against MAX_POINTS, before any array is built."""
    for flag, value in (("--dmin", args.dmin_um), ("--dmax", args.dmax_um)):
        if not GAPS[0] <= value * 1e-6 <= GAPS[1]:
            lo, hi = (1e6 * gap for gap in GAPS)
            raise ValidationError(f"{flag} must be within [{lo:g}, {hi:g}] um, got {value:g}")
    if args.dmax_um < args.dmin_um:
        raise ValidationError("--dmax must be >= --dmin")
    if not 1 <= args.points <= MAX_POINTS:
        raise ValidationError(f"--points must be within [1, {MAX_POINTS}], got {args.points}")
    if args.points > 1 and args.dmax_um == args.dmin_um:
        raise ValidationError("--points > 1 needs --dmax > --dmin")
    return np.geomspace(args.dmin_um * 1e-6, args.dmax_um * 1e-6, args.points)


def cmd_force(args):
    grid = _grid_from_args(args)
    _require_positive_flags(args, "radius_cm", "wp_ev", "gamma_ev")
    R = args.radius_cm * 1e-2
    drude = DrudeModel.from_ev(args.wp_ev, args.gamma_ev)
    plasma = PlasmaModel.from_ev(args.wp_ev)

    if args.model == "all":
        runs = candidate_models(args.temperature_k, drude, plasma)
        header = ["model"] + FORCE_CSV_HEADER
    else:
        runs = [(None, drude if args.model == "drude" else plasma, args.temperature_k)]
        header = FORCE_CSV_HEADER

    # every force before the file is opened, so a failure leaves no output
    rows = []
    for label, model, temp in runs:
        f = force_sphere_plane_grid(grid, temp, R, model, args.rel_tol)
        columns = (grid * 1e6, f * 1e12, f * grid * 1e18, f * grid * grid * 1e24)
        for row in zip(*(c.tolist() for c in columns)):
            rows.append(row if label is None else (label, *row))
    write_table(args.out, header, rows)
    _write_manifest(args, [], [args.out])
    return 0


def cmd_simulate(args):
    if args.config is not None:
        config = load_config(args.config)
        inputs = [args.config]
    else:
        config = CampaignConfig(seed=None)
        inputs = []
    if config.n_sweeps < 2:
        # subtract_drift refuses it too, but only after the whole campaign ran
        raise ValidationError(
            f"n_sweeps must be >= 2 for drift estimation, got {config.n_sweeps}"
        )
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if config.seed is None:
        # the OS source secrets.randbits reads, without importing secrets:
        # its hmac/hashlib chain maps OpenSSL into every command's process
        config = replace(config, seed=int.from_bytes(os.urandom(8), "big"))

    drift = subtract_drift(generate_campaign(config))
    points = drift.campaign.points
    if not args.no_bin:
        edges = log_bin_edges(config.d_min, config.d_max, config.n_separations)
        points = bin_points(points, edges)
    save_measurements(args.out, points)
    outputs = [args.out]
    if args.sweeps_out is not None:
        save_sweeps_csv(args.sweeps_out, drift.campaign)
        outputs.append(args.sweeps_out)

    resolved = {
        **config_to_dict(config),
        "binned": not args.no_bin,
        "drift_slope_n_per_sweep": drift.slope,
    }
    _write_manifest(args, inputs, outputs, resolved, config.seed)
    print(f"wrote {len(points)} measurement rows to {args.out} (seed {config.seed})")
    return 0


def _parse_model_ids(raw):
    if raw == "all":
        return None
    ids = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not ids:
        raise ValidationError("--models must name at least one model")
    return ids


def cmd_fit(args):
    points = load_measurements(args.data)
    if not points:
        raise ValidationError(f"no measurement rows in {args.data}")
    _require_positive_flags(args, "radius_cm", "wp_ev", "gamma_ev")
    if args.delta_nm < 0.0:
        raise ValidationError("--delta-nm must be >= 0")
    R, delta = args.radius_cm * 1e-2, args.delta_nm * 1e-9

    drude = DrudeModel.from_ev(args.wp_ev, args.gamma_ev)
    plasma = PlasmaModel.from_ev(args.wp_ev)
    curves = standard_model_curves(
        R=R, delta=delta, temperature=args.temperature_k, drude=drude, plasma=plasma
    )
    wanted = _parse_model_ids(args.models)
    if wanted is not None:
        by_id = {c.model_id: c for c in curves}
        missing = [m for m in wanted if m not in by_id]
        if missing:
            raise ValidationError(
                f"unknown model ids {missing}; choose from {sorted(by_id)}"
            )
        repeated = sorted({m for m in wanted if wanted.count(m) > 1})
        if repeated:
            raise ValidationError(f"model ids named more than once: {repeated}")
        curves = [by_id[m] for m in wanted]

    ranked = discriminate_models(points, curves, R, delta)
    report = {
        "data": args.data,
        "radius_cm": args.radius_cm,
        "delta_nm": args.delta_nm,
        "temperature_k": args.temperature_k,
        "n_points": len(points),
        "results": [fit_report_dict(fit) for fit in ranked],
    }
    write_json(args.out, report)
    outputs = [args.out]

    for fit in ranked:
        v = "undefined" if fit.v_rms is None else f"{fit.v_rms * 1e3:.2f} mV"
        print(f"{fit.model_id}: V_rms = {v}, chi2_red = {fit.chi2_reduced:.3g}")

    if args.subtract is not None:
        best = ranked[0]
        resid = points.f - best.v_rms_sq * patch_force(points.d, R, 1.0, delta) - best.a
        save_measurements(args.subtract, replace(points, f=resid))
        outputs.append(args.subtract)
    _write_manifest(args, [args.data], outputs)
    return 0


def cmd_band(args):
    grid = _grid_from_args(args)
    ranges = ("wp_min_ev", "wp_max_ev", "gamma_min_ev", "gamma_max_ev")
    _require_positive_flags(args, "radius_cm", *ranges)
    R = args.radius_cm * 1e-2

    wp = [ev_to_angular_frequency(e) for e in (args.wp_min_ev, args.wp_max_ev)]
    gamma = [ev_to_angular_frequency(e) for e in (args.gamma_min_ev, args.gamma_max_ev)]
    band = sensitivity_band(grid, args.temperature_k, wp, gamma, args.family, R, args.rel_tol)
    columns = (band.separations * 1e6, band.f_min * 1e12, band.f_center * 1e12, band.f_max * 1e12)
    write_table(args.out, BAND_CSV_HEADER, zip(*(c.tolist() for c in columns)))
    _write_manifest(args, [], [args.out])
    return 0


def _add_temp_flag(p):
    p.add_argument(
        "--temp", dest="temperature_k", type=finite_float, default=300.0,
        help="temperature, K (0 = T0 theory)",
    )


def _add_grid_flags(p):
    p.add_argument(
        "--dmin", dest="dmin_um", type=finite_float, default=0.7, help="smallest separation, um"
    )
    p.add_argument(
        "--dmax", dest="dmax_um", type=finite_float, default=7.0, help="largest separation, um"
    )
    p.add_argument("--points", type=int, default=30, help="grid size (log-spaced)")


def _add_common_physics_flags(p):
    p.add_argument("--radius-cm", type=finite_float, default=15.6, help="sphere radius, cm")
    p.add_argument("--wp-ev", type=finite_float, default=GOLD_OMEGA_P_EV, help="plasma energy, eV")
    p.add_argument("--gamma-ev", type=finite_float, default=GOLD_GAMMA_EV, help="dissipation, eV")


@functools.cache  # parsing leaves the parser as it was; main reuses it
def build_parser():
    parser = argparse.ArgumentParser(
        prog="casimir-lab",
        description="Finite-temperature Casimir force curves, synthetic "
        "measurement campaigns, and model discrimination fits.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("force", help="theory force curve on a separation grid")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", choices=("drude", "plasma"))
    group.add_argument("--all-models", action="store_const", const="all", dest="model")
    _add_temp_flag(p)
    _add_grid_flags(p)
    _add_common_physics_flags(p)
    p.add_argument("--rel-tol", type=finite_float, default=1e-8)
    p.add_argument("--out", default="force.csv")
    p.set_defaults(func=cmd_force)

    p = sub.add_parser("simulate", help="generate a seeded synthetic campaign")
    p.add_argument("--config", help="campaign config JSON; defaults used if omitted")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--no-bin", action="store_true", help="emit raw points, not binned")
    p.add_argument("--sweeps-out", help="also write calibration sweeps CSV here")
    p.add_argument("--out", default="campaign.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit measurement CSV against theory candidates")
    p.add_argument("--data", required=True, help="measurement CSV path")
    p.add_argument("--models", default="all", help="'all' or comma-separated model ids")
    _add_temp_flag(p)
    p.add_argument("--delta-nm", type=finite_float, default=40.0, help="rms gap fluctuation, nm")
    _add_common_physics_flags(p)
    p.add_argument("--subtract", help="write data minus electrostatics minus offset here")
    p.add_argument("--out", default="fit_report.json")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("band", help="force envelope over metal-parameter ranges")
    p.add_argument("--family", choices=("drude", "plasma"), default="drude")
    _add_temp_flag(p)
    _add_grid_flags(p)
    p.add_argument("--radius-cm", type=finite_float, default=15.6)
    p.add_argument("--wp-min-ev", type=finite_float, default=GOLD_OMEGA_P_RANGE_EV[0])
    p.add_argument("--wp-max-ev", type=finite_float, default=GOLD_OMEGA_P_RANGE_EV[1])
    p.add_argument("--gamma-min-ev", type=finite_float, default=GOLD_GAMMA_RANGE_EV[0])
    p.add_argument("--gamma-max-ev", type=finite_float, default=GOLD_GAMMA_RANGE_EV[1])
    p.add_argument("--rel-tol", type=finite_float, default=1e-8)
    p.add_argument("--out", default="band.csv")
    p.set_defaults(func=cmd_band)

    return parser


def main(argv=None):
    gc.freeze()  # the command's collections skip what was alive before it, ~1.5 ms a pass
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConvergenceError, ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConvergenceError):
            return 3
        return 4 if isinstance(exc, DegenerateFitError) else 2
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
