"""Command-line front end: force curves, campaigns, fits, sensitivity bands.

Four subcommands cover the pipeline end to end:

    force      theory force curves on a separation grid, plot-ready columns
    simulate   seeded synthetic campaign -> measurement CSV
    fit        measurement CSV -> ranked per-model fit report JSON
    band       force envelope over the metal-parameter uncertainty box

File boundaries use micrometres, piconewtons, millivolts and electronvolts,
matching the axes the results are usually plotted in; everything internal is
SI.  Every command writes a `<output>.manifest.json` recording the resolved
configuration, inputs, outputs, versions and seed, so any seeded run can be
reproduced byte for byte from its manifest alone.

Exit codes: 0 success, 2 usage or config error, 3 convergence failure,
4 degenerate fit.
"""

import argparse
import csv
import json
import math
import secrets
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .analysis import (
    discriminate_models,
    fit_report_dict,
    load_measurements,
    log_bin_edges,
    bin_points,
    save_measurements,
    standard_model_curves,
)
from .campaign import (
    CampaignConfig,
    config_to_dict,
    generate_campaign,
    load_config,
    save_sweeps_csv,
    subtract_drift,
)
from .constants import CONSTANTS_VERSION
from .dielectric import (
    GOLD_GAMMA_EV,
    GOLD_GAMMA_RANGE_EV,
    GOLD_OMEGA_P_EV,
    GOLD_OMEGA_P_RANGE_EV,
    DrudeModel,
    PlasmaModel,
    ev_to_angular_frequency,
)
from .electrostatics import patch_force
from .errors import (
    CalibrationError,
    ConvergenceError,
    DegenerateFitError,
    ValidationError,
)
from .lifshitz import QuadratureSpec, force_sphere_plane_grid, sensitivity_band

FORCE_CSV_HEADER = ["separation_um", "force_pn", "f_times_d_pn_um", "f_times_d2_pn_um2"]
BAND_CSV_HEADER = ["separation_um", "f_min_pn", "f_center_pn", "f_max_pn"]


def _fmt(x):
    return format(float(x), ".12g")


def finite_float(text):
    """Flag type: a float, but not nan or +-inf.

    No leading underscore: argparse prints the name in its
    "invalid finite_float value" message.
    """
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _write_manifest(primary_output, command, config, inputs, outputs, seed=None):
    manifest = {
        "command": command,
        "config": config,
        "inputs": list(inputs),
        "outputs": list(outputs),
        "constants_version": CONSTANTS_VERSION,
        "tool_version": __version__,
        "seed": seed,
    }
    path = f"{primary_output}.manifest.json"
    _write_json(path, manifest)
    return path


def _write_json(path, doc):
    """Write ``doc`` as JSON; NaN or inf raise before the file is opened."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _grid_from_args(args):
    if args.dmin <= 0.0:
        raise ValidationError(f"--dmin must be positive, got {args.dmin}")
    if args.dmax < args.dmin:
        raise ValidationError("--dmax must be >= --dmin")
    if args.points < 1:
        raise ValidationError(f"--points must be >= 1, got {args.points}")
    if args.points > 1 and args.dmax == args.dmin:
        raise ValidationError("--points > 1 needs --dmax > --dmin")
    return np.geomspace(args.dmin * 1e-6, args.dmax * 1e-6, args.points)


def _quad_spec(args):
    return QuadratureSpec(rel_tol=args.rel_tol)


def _force_rows(separations, forces):
    for d, f in zip(separations, forces):
        yield [
            _fmt(d * 1e6),
            _fmt(f * 1e12),
            _fmt(f * d * 1e18),
            _fmt(f * d * d * 1e24),
        ]


def cmd_force(args):
    grid = _grid_from_args(args)
    spec = _quad_spec(args)
    R = args.radius_cm * 1e-2
    if R <= 0.0:
        raise ValidationError("--radius-cm must be positive")
    drude = DrudeModel.from_ev(args.wp_ev, args.gamma_ev)
    plasma = PlasmaModel.from_ev(args.wp_ev)

    if args.all_models:
        tag = f"{args.temp:g}k"
        runs = [
            (f"drude_{tag}", drude, args.temp),
            (f"plasma_{tag}", plasma, args.temp),
            ("drude_t0", drude, 0.0),
            ("plasma_t0", plasma, 0.0),
        ]
        header = ["model"] + FORCE_CSV_HEADER
    else:
        model = drude if args.model == "drude" else plasma
        runs = [(None, model, args.temp)]
        header = FORCE_CSV_HEADER

    # every force before the file is opened, so a failure leaves no output
    rows = [
        ([label] if label is not None else []) + row
        for label, model, temp in runs
        for row in _force_rows(grid, force_sphere_plane_grid(grid, temp, R, model, spec))
    ]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    config = {
        "model": "all" if args.all_models else args.model,
        "temperature_k": args.temp,
        "dmin_um": args.dmin,
        "dmax_um": args.dmax,
        "points": args.points,
        "radius_cm": args.radius_cm,
        "wp_ev": args.wp_ev,
        "gamma_ev": args.gamma_ev,
        "rel_tol": args.rel_tol,
    }
    _write_manifest(args.out, "force", config, [], [args.out])
    return 0


def cmd_simulate(args):
    if args.config is not None:
        config = load_config(args.config)
        inputs = [args.config]
    else:
        config = CampaignConfig(seed=None)
        inputs = []
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if config.seed is None:
        config = replace(config, seed=secrets.randbits(64))

    result = generate_campaign(config)
    drift = subtract_drift(result)
    campaign = drift.campaign

    points = campaign.points
    if not args.no_bin:
        edges = log_bin_edges(config.d_min, config.d_max, config.n_separations)
        points = bin_points(points, edges)
    save_measurements(args.out, points)
    outputs = [args.out]
    if args.sweeps_out is not None:
        save_sweeps_csv(args.sweeps_out, campaign)
        outputs.append(args.sweeps_out)

    _write_manifest(
        args.out,
        "simulate",
        {
            **config_to_dict(config),
            "binned": not args.no_bin,
            "drift_slope_n_per_sweep": drift.slope,
        },
        inputs,
        outputs,
        seed=config.seed,
    )
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
    R = args.radius_cm * 1e-2
    delta = args.delta_nm * 1e-9
    if R <= 0.0:
        raise ValidationError("--radius-cm must be positive")
    if delta < 0.0:
        raise ValidationError("--delta-nm must be >= 0")

    drude = DrudeModel.from_ev(args.wp_ev, args.gamma_ev)
    plasma = PlasmaModel.from_ev(args.wp_ev)
    curves = standard_model_curves(
        R=R, delta=delta, temperature=args.temp, drude=drude, plasma=plasma
    )
    wanted = _parse_model_ids(args.models)
    if wanted is not None:
        by_id = {c.model_id: c for c in curves}
        missing = [m for m in wanted if m not in by_id]
        if missing:
            raise ValidationError(
                f"unknown model ids {missing}; choose from {sorted(by_id)}"
            )
        curves = [by_id[m] for m in wanted]

    ranked = discriminate_models(points, curves, R, delta)
    report = {
        "data": args.data,
        "radius_cm": args.radius_cm,
        "delta_nm": args.delta_nm,
        "temperature_k": args.temp,
        "n_points": len(points),
        "results": [fit_report_dict(fit) for fit in ranked],
    }
    _write_json(args.out, report)
    outputs = [args.out]

    for fit in ranked:
        v = "undefined" if fit.v_rms is None else f"{fit.v_rms * 1e3:.2f} mV"
        print(f"{fit.model_id}: V_rms = {v}, chi2_red = {fit.chi2_reduced:.3g}")

    if args.subtract is not None:
        best = ranked[0]
        resid = points.f - best.v_rms_sq * patch_force(points.d, R, 1.0, delta) - best.a
        save_measurements(args.subtract, replace(points, f=resid))
        outputs.append(args.subtract)

    config = {
        "models": args.models,
        "radius_cm": args.radius_cm,
        "delta_nm": args.delta_nm,
        "temperature_k": args.temp,
        "wp_ev": args.wp_ev,
        "gamma_ev": args.gamma_ev,
    }
    _write_manifest(args.out, "fit", config, [args.data], outputs)
    return 0


def cmd_band(args):
    grid = _grid_from_args(args)
    spec = _quad_spec(args)
    R = args.radius_cm * 1e-2
    if R <= 0.0:
        raise ValidationError("--radius-cm must be positive")
    if args.wp_min_ev <= 0.0 or args.gamma_min_ev <= 0.0:
        raise ValidationError("parameter ranges must be positive")

    band = sensitivity_band(
        grid,
        args.temp,
        (
            ev_to_angular_frequency(args.wp_min_ev),
            ev_to_angular_frequency(args.wp_max_ev),
        ),
        (
            ev_to_angular_frequency(args.gamma_min_ev),
            ev_to_angular_frequency(args.gamma_max_ev),
        ),
        args.family,
        R,
        spec,
    )
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(BAND_CSV_HEADER)
        for d, lo, mid, hi in zip(band.separations, band.f_min, band.f_center, band.f_max):
            writer.writerow([_fmt(d * 1e6), _fmt(lo * 1e12), _fmt(mid * 1e12), _fmt(hi * 1e12)])

    config = {
        "family": args.family,
        "temperature_k": args.temp,
        "dmin_um": args.dmin,
        "dmax_um": args.dmax,
        "points": args.points,
        "radius_cm": args.radius_cm,
        "wp_min_ev": args.wp_min_ev,
        "wp_max_ev": args.wp_max_ev,
        "gamma_min_ev": args.gamma_min_ev,
        "gamma_max_ev": args.gamma_max_ev,
        "rel_tol": args.rel_tol,
    }
    _write_manifest(args.out, "band", config, [], [args.out])
    return 0


def _add_grid_flags(p, dmin=0.7, dmax=7.0, points=30):
    p.add_argument("--dmin", type=finite_float, default=dmin, help="smallest separation, um")
    p.add_argument("--dmax", type=finite_float, default=dmax, help="largest separation, um")
    p.add_argument("--points", type=int, default=points, help="grid size (log-spaced)")


def _add_common_physics_flags(p):
    p.add_argument("--radius-cm", type=finite_float, default=15.6, help="sphere radius, cm")
    p.add_argument("--wp-ev", type=finite_float, default=GOLD_OMEGA_P_EV, help="plasma energy, eV")
    p.add_argument("--gamma-ev", type=finite_float, default=GOLD_GAMMA_EV, help="dissipation, eV")


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
    group.add_argument("--all-models", action="store_true")
    p.add_argument(
        "--temp", type=finite_float, default=300.0, help="temperature, K (0 = T0 theory)"
    )
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
    p.add_argument("--temp", type=finite_float, default=300.0)
    p.add_argument("--delta-nm", type=finite_float, default=40.0, help="rms gap fluctuation, nm")
    _add_common_physics_flags(p)
    p.add_argument("--subtract", help="write data minus electrostatics minus offset here")
    p.add_argument("--out", default="fit_report.json")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("band", help="force envelope over metal-parameter ranges")
    p.add_argument("--family", choices=("drude", "plasma"), default="drude")
    p.add_argument("--temp", type=finite_float, default=300.0)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DegenerateFitError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
