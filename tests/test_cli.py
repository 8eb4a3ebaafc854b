"""End-to-end command-line checks through main(argv).

Everything runs in tmp_path with explicit --out so no test touches the
working directory. Grids are kept small; only the fit test reads a
simulated campaign and that one uses a reduced sweep count.
"""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import casimir_lab
from casimir_lab.cli import build_parser, main
from casimir_lab.constants import ev_to_angular_frequency
from casimir_lab.dielectric import (
    GOLD_GAMMA_RANGE_EV,
    GOLD_OMEGA_P_RANGE_EV,
    gold_drude,
    gold_plasma,
)
from casimir_lab.lifshitz import force_sphere_plane_grid, sensitivity_band


def read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestForce:
    def test_curve_is_monotone_decreasing(self, tmp_path):
        out = tmp_path / "force.csv"
        code = main(
            [
                "force",
                "--model",
                "drude",
                "--dmin",
                "0.7",
                "--dmax",
                "7",
                "--points",
                "8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["separation_um", "force_pn", "f_times_d_pn_um", "f_times_d2_pn_um2"]
        forces = [float(r[1]) for r in rows]
        assert len(forces) == 8
        assert all(a > b > 0 for a, b in zip(forces, forces[1:]))

    def test_long_range_thermal_plateau(self, tmp_path):
        out = tmp_path / "far.csv"
        assert (
            main(
                [
                    "force",
                    "--model",
                    "drude",
                    "--dmin",
                    "50",
                    "--dmax",
                    "50",
                    "--points",
                    "1",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        _, rows = read_csv(out)
        fd2 = float(rows[0][3])
        assert fd2 == pytest.approx(97.05, rel=0.01)

    def test_zero_temperature_plasma_exceeds_drude(self, tmp_path):
        vals = {}
        for model in ("drude", "plasma"):
            out = tmp_path / f"{model}.csv"
            args = [
                "force",
                "--model",
                model,
                "--temp",
                "0",
                "--dmin",
                "1",
                "--dmax",
                "1",
                "--points",
                "1",
                "--out",
                str(out),
            ]
            assert main(args) == 0
            _, rows = read_csv(out)
            vals[model] = float(rows[0][1])
        assert vals["plasma"] > vals["drude"] > 0

    def test_all_models_adds_label_column(self, tmp_path):
        out = tmp_path / "all.csv"
        assert (
            main(
                [
                    "force",
                    "--all-models",
                    "--dmin",
                    "1",
                    "--dmax",
                    "2",
                    "--points",
                    "2",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        header, rows = read_csv(out)
        assert header[0] == "model"
        labels = {r[0] for r in rows}
        assert labels == {"drude_300k", "plasma_300k", "drude_t0", "plasma_t0"}
        assert len(rows) == 8

    def test_all_models_labels_follow_temp(self, tmp_path):
        out = tmp_path / "all.csv"
        argv = ["force", "--all-models", "--temp", "77", "--dmin", "1", "--dmax", "2",
                "--points", "2", "--out", str(out)]
        assert main(argv) == 0
        _, rows = read_csv(out)
        assert [r[0] for r in rows[::2]] == ["drude_77k", "plasma_77k", "drude_t0", "plasma_t0"]

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "force.csv"
        main(
            [
                "force",
                "--model",
                "drude",
                "--dmin",
                "1",
                "--dmax",
                "1",
                "--points",
                "1",
                "--out",
                str(out),
            ]
        )
        manifest = json.loads((tmp_path / "force.csv.manifest.json").read_text())
        assert manifest["command"] == "force"
        assert manifest["outputs"] == [str(out)]
        assert manifest["config"]["model"] == "drude"
        assert "tool_version" in manifest and "constants_version" in manifest

    def test_reruns_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["force", "--model", "plasma", "--dmin", "1", "--dmax", "3", "--points", "4"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_one_parser_serves_calls_with_different_flags(self, tmp_path):
        # the parser is built once per process; a flag set by one call must
        # not become the next call's default
        assert build_parser() is build_parser()
        hot, plain = tmp_path / "hot.csv", tmp_path / "plain.csv"
        argv = ["force", "--model", "drude", "--temp", "1000", "--dmin", "30", "--dmax", "100",
                "--points", "3", "--rel-tol", "1e-6", "--out", str(hot)]
        assert main(argv) == 0
        assert main(["force", "--model", "plasma", "--points", "2", "--out", str(plain)]) == 0
        configs = [
            json.loads(Path(f"{out}.manifest.json").read_text())["config"] for out in (hot, plain)
        ]
        keys = ("model", "temperature_k", "dmin_um", "dmax_um", "points", "rel_tol")
        assert [[c[k] for k in keys] for c in configs] == [
            ["drude", 1000.0, 30.0, 100.0, 3, 1e-6],
            ["plasma", 300.0, 0.7, 7.0, 2, 1e-8],
        ]


class TestSimulate:
    def small_cfg(self, tmp_path, **extra):
        cfg = {
            "d_min": 1.0e-6,
            "d_max": 4.0e-6,
            "n_separations": 5,
            "n_sweeps": 4,
            "seed": 7,
        }
        cfg.update(extra)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    def test_binned_output_row_count(self, tmp_path):
        cfg = self.small_cfg(tmp_path)
        out = tmp_path / "campaign.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["separation_um", "force_pn", "sigma_pn"]
        assert len(rows) == 5

    def test_no_bin_emits_every_point(self, tmp_path):
        cfg = self.small_cfg(tmp_path)
        out = tmp_path / "raw.csv"
        assert main(["simulate", "--config", str(cfg), "--no-bin", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 4 * 5

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = self.small_cfg(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", str(cfg), "--out", str(a)])
        main(["simulate", "--config", str(cfg), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = self.small_cfg(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", str(cfg), "--out", str(a)])
        main(["simulate", "--config", str(cfg), "--seed", "8", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_missing_seed_drawn_and_recorded(self, tmp_path):
        cfg = self.small_cfg(tmp_path)
        data = json.loads(cfg.read_text())
        del data["seed"]
        cfg.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "campaign.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "campaign.csv.manifest.json").read_text())
        assert isinstance(manifest["seed"], int)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_sweeps", 2.5),
            ("n_separations", "30"),
            ("seed", "abc"),
            ("seed", 1.5),
            ("sweep_voltages", 3),
            ("v_rms_true", math.nan),
            ("radius", math.inf),
        ],
    )
    def test_bad_config_field_is_two_and_named(self, tmp_path, capsys, field, value):
        cfg = self.small_cfg(tmp_path, **{field: value})
        out = tmp_path / "campaign.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, line",
        [('{"d_min": ', 1), ('{\n  "seed": 7,\n  "n_sweeps": 4\n', 4)],
        ids=["cut-in-line-1", "cut-after-line-3"],
    )
    def test_malformed_config_is_two_and_names_file_and_line(
        self, tmp_path, capsys, text, line
    ):
        cfg = tmp_path / "truncated.json"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "campaign.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: line {line}: Expecting ")
        assert not out.exists()

    @pytest.mark.parametrize("field, value, named", [
        # 1/sigma^2 of every point underflows to 0: this failed as
        # "separation must be finite, got nan" after a RuntimeWarning
        ("noise_sigma", 1e300, "sigma"),
        # the weighted forces overflow: "force must be finite, got inf"
        ("radius", 1e300, "force"),
    ])
    def test_a_bin_out_of_range_names_the_quantity(self, tmp_path, capsys, field, value, named):
        cfg = self.small_cfg(tmp_path, **{field: value})
        out = tmp_path / "campaign.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {named} is out of range in the bin ")
        assert not out.exists()

    def test_refused_config_field_names_the_file(self, tmp_path, capsys):
        cfg = self.small_cfg(tmp_path, seed="abc")
        out = tmp_path / "campaign.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and "seed" in err

    def test_sweeps_out(self, tmp_path):
        cfg = self.small_cfg(tmp_path)
        out = tmp_path / "campaign.csv"
        sweeps = tmp_path / "sweeps.csv"
        main(["simulate", "--config", str(cfg), "--out", str(out), "--sweeps-out", str(sweeps)])
        header, rows = read_csv(sweeps)
        assert header == ["sweep_index", "separation_um", "voltage_v", "force_n", "sigma_n"]
        assert len(rows) == 2 * 4 * 11

    def test_manifest_records_drift_slope(self, tmp_path):
        cfg = self.small_cfg(tmp_path)
        out = tmp_path / "campaign.csv"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        manifest = json.loads((tmp_path / "campaign.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 7
        assert manifest["config"]["binned"] is True
        assert isinstance(manifest["config"]["drift_slope_n_per_sweep"], float)


@pytest.fixture(scope="module")
def campaign_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fitdata")
    cfg = tmp / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "d_min": 0.7e-6,
                "d_max": 7.0e-6,
                "n_separations": 12,
                "n_sweeps": 60,
                "seed": 20260819,
            }
        ),
        encoding="utf-8",
    )
    out = tmp / "campaign.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


class TestFit:
    def test_truth_model_ranks_first(self, tmp_path, campaign_csv):
        report = tmp_path / "report.json"
        code = main(["fit", "--data", str(campaign_csv), "--out", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        results = doc["results"]
        assert [r["model_id"] for r in results][0] == "drude_300k"
        assert results[0]["chi2_reduced"] < 2.0
        assert all(r["chi2_reduced"] > 5.0 for r in results[1:])
        assert results[0]["v_rms_mv"] == pytest.approx(5.4, abs=0.6)
        assert results[0]["a_pn"] == pytest.approx(-3.0, abs=1.5)
        assert doc["n_points"] == 12

    def test_model_subset(self, tmp_path, campaign_csv):
        report = tmp_path / "report.json"
        code = main(
            [
                "fit",
                "--data",
                str(campaign_csv),
                "--models",
                "drude_300k,plasma_300k",
                "--out",
                str(report),
            ]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert [r["model_id"] for r in doc["results"]] == ["drude_300k", "plasma_300k"]

    def test_subtract_writes_residual_curve(self, tmp_path, campaign_csv):
        report = tmp_path / "report.json"
        resid = tmp_path / "resid.csv"
        main(
            [
                "fit",
                "--data",
                str(campaign_csv),
                "--models",
                "drude_300k",
                "--subtract",
                str(resid),
                "--out",
                str(report),
            ]
        )
        header, rows = read_csv(resid)
        assert header == ["separation_um", "force_pn", "sigma_pn"]
        assert len(rows) == 12
        # residual curve should track the bare theory to within a few sigma
        from casimir_lab.analysis import standard_model_curves

        curve = standard_model_curves(0.156, 40e-9)[0]
        for r in rows:
            d = float(r[0]) * 1e-6
            f = float(r[1]) * 1e-12
            s = float(r[2]) * 1e-12
            assert abs(f - curve.evaluator(d)) < 6 * s

    def test_model_ids_follow_temp(self, tmp_path, campaign_csv, capsys):
        report = tmp_path / "report.json"
        argv = ["fit", "--data", str(campaign_csv), "--temp", "77", "--out", str(report)]
        assert main(argv) == 0
        ids = [r["model_id"] for r in json.loads(report.read_text())["results"]]
        assert sorted(ids) == ["drude_77k", "drude_t0", "plasma_77k", "plasma_t0"]
        assert main(argv + ["--models", "drude_77k"]) == 0
        assert [r["model_id"] for r in json.loads(report.read_text())["results"]] == ["drude_77k"]
        # a 300 K id names no candidate at 77 K
        assert main(argv + ["--models", "drude_300k"]) == 2
        assert "unknown model ids ['drude_300k']" in capsys.readouterr().err

    @pytest.mark.parametrize("models", ["drude_t0,drude_t0", "plasma_t0,drude_300k,plasma_t0"])
    def test_a_model_id_named_twice_is_two_and_writes_nothing(
        self, tmp_path, campaign_csv, capsys, models
    ):
        report = tmp_path / "report.json"
        argv = ["fit", "--data", str(campaign_csv), "--models", models, "--out", str(report)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "model ids named more than once: ['" in captured.err
        assert models.split(",")[0] in captured.err
        assert captured.out == ""
        assert not report.exists()
        assert not tmp_path.joinpath("report.json.manifest.json").exists()

    def test_fit_rerun_byte_identical(self, tmp_path, campaign_csv):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["fit", "--data", str(campaign_csv), "--models", "drude_300k", "--out", str(a)])
        main(["fit", "--data", str(campaign_csv), "--models", "drude_300k", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestBand:
    def test_rows_ordered_and_bracketing(self, tmp_path):
        out = tmp_path / "band.csv"
        code = main(
            [
                "band",
                "--dmin",
                "1",
                "--dmax",
                "4",
                "--points",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["separation_um", "f_min_pn", "f_center_pn", "f_max_pn"]
        assert len(rows) == 3
        for r in rows:
            lo, mid, hi = float(r[1]), float(r[2]), float(r[3])
            assert lo <= mid <= hi
            assert lo > 0

    def test_degenerate_ranges_collapse(self, tmp_path):
        out = tmp_path / "flat.csv"
        main(
            [
                "band",
                "--dmin",
                "1",
                "--dmax",
                "1",
                "--points",
                "1",
                "--wp-min-ev",
                "9.0",
                "--wp-max-ev",
                "9.0",
                "--gamma-min-ev",
                "0.035",
                "--gamma-max-ev",
                "0.035",
                "--out",
                str(out),
            ]
        )
        _, rows = read_csv(out)
        lo, mid, hi = (float(x) for x in rows[0][1:])
        assert lo == pytest.approx(mid, rel=1e-12)
        assert hi == pytest.approx(mid, rel=1e-12)


@pytest.mark.parametrize("flag", ["--wp-min-ev", "--wp-max-ev", "--gamma-min-ev", "--gamma-max-ev"])
@pytest.mark.parametrize("value", ["-1", "0"])
def test_band_names_a_refused_range_flag(tmp_path, capsys, flag, value):
    out = tmp_path / "band.csv"
    argv = ["band", f"{flag}={value}", "--dmin", "1", "--dmax", "1", "--points", "1"]
    assert main(argv + ["--out", str(out)]) == 2
    assert f"error: {flag} must be positive, got {float(value)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["force", "fit"])
@pytest.mark.parametrize("flag", ["--wp-ev", "--gamma-ev"])
@pytest.mark.parametrize("value", ["-1", "0"])
def test_force_and_fit_name_a_refused_model_flag(tmp_path, capsys, campaign_csv, command, flag, value):
    out = tmp_path / "out"
    argv = {
        "force": ["force", "--model", "drude", "--dmin", "1", "--dmax", "1", "--points", "1"],
        "fit": ["fit", "--data", str(campaign_csv)],
    }[command]
    assert main(argv + [f"{flag}={value}", "--out", str(out)]) == 2
    assert f"error: {flag} must be positive, got {float(value)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["force", "fit", "band"])
def test_manifest_config_is_every_setting_flag(tmp_path, campaign_csv, command):
    # every flag but the paths is a setting, recorded under its dest as
    # parsed, so a new flag cannot be left out of the manifest
    argv = [command] + {
        "force": ["--all-models", "--temp", "77", "--dmin", "1", "--dmax", "1", "--points", "1"],
        "fit": ["--data", str(campaign_csv), "--models", "drude_t0", "--delta-nm", "30"],
        "band": ["--family", "plasma", "--dmin", "1", "--dmax", "1", "--points", "1"],
    }[command]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    config = json.loads(Path(f"{out}.manifest.json").read_text())["config"]

    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "subcommand").choices[command]
    paths = {"out", "data", "subtract"}
    flags = {a.dest for a in sub._actions if a.option_strings and a.dest not in paths | {"help"}}
    parsed = vars(parser.parse_args(argv))
    assert config == {dest: parsed[dest] for dest in flags}


def csv_text(header, rows):
    """The bytes the CLI writes: a header row, CRLF line ends, numbers to 12
    significant digits."""
    lines = [header] + [
        ",".join(cell if isinstance(cell, str) else format(cell, ".12g") for cell in row)
        for row in rows
    ]
    return "".join(line + "\r\n" for line in lines).encode()


def test_force_and_band_csv_text(tmp_path):
    # the values the library gives for the CLI's grid, radius and tolerance
    grid, R = np.geomspace(1e-6, 2e-6, 2), 15.6 * 1e-2
    rel_tol = 1e-8
    flags = ["--dmin", "1", "--dmax", "2", "--points", "2", "--out"]

    runs = [
        ("drude_300k", gold_drude(), 300.0),
        ("plasma_300k", gold_plasma(), 300.0),
        ("drude_t0", gold_drude(), 0.0),
        ("plasma_t0", gold_plasma(), 0.0),
    ]
    rows = []
    for label, model, T in runs:
        forces = force_sphere_plane_grid(grid, T, R, model, rel_tol)
        rows += [
            (label, d * 1e6, f * 1e12, f * d * 1e18, f * d * d * 1e24)
            for d, f in zip(grid.tolist(), forces.tolist())
        ]
    out = tmp_path / "force.csv"
    assert main(["force", "--all-models", *flags, str(out)]) == 0
    header = "model,separation_um,force_pn,f_times_d_pn_um,f_times_d2_pn_um2"
    assert out.read_bytes() == csv_text(header, rows)

    wp, gamma = (
        tuple(ev_to_angular_frequency(e) for e in bounds)
        for bounds in (GOLD_OMEGA_P_RANGE_EV, GOLD_GAMMA_RANGE_EV)
    )
    band = sensitivity_band(grid, 300.0, wp, gamma, "drude", R, rel_tol)
    columns = (band.separations * 1e6, band.f_min * 1e12, band.f_center * 1e12, band.f_max * 1e12)
    out = tmp_path / "band.csv"
    assert main(["band", "--family", "drude", *flags, str(out)]) == 0
    header = "separation_um,f_min_pn,f_center_pn,f_max_pn"
    assert out.read_bytes() == csv_text(header, zip(*(c.tolist() for c in columns)))


class TestExitCodes:
    def test_unknown_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["force", "--model", "drude", "--bogus"])
        assert err.value.code == 2

    def test_missing_data_file_is_two(self, tmp_path):
        assert main(["fit", "--data", str(tmp_path / "nope.csv")]) == 2

    def test_invalid_grid_is_two(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(
            ["force", "--model", "drude", "--dmin", "4", "--dmax", "1", "--out", str(out)]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["fit", "--data", "campaign.csv", "--delta-nm", "nan"], "--delta-nm"),
            (["fit", "--data", "campaign.csv", "--radius-cm", "inf"], "--radius-cm"),
            (["force", "--model", "drude", "--dmin", "nan"], "--dmin"),
            (["force", "--model", "drude", "--radius-cm", "nan"], "--radius-cm"),
            (["band", "--dmax", "inf"], "--dmax"),
            (["band", "--radius-cm=-inf"], "--radius-cm"),
        ],
    )
    def test_non_finite_flag_is_two_and_named(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main(argv + ["--out", str(out)])
        assert err.value.code == 2
        assert f"argument {flag}: must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["force", "--model", "drude", "--temp", "-1"],
            # below the ladder's floor T d >= 7.29e-8 m K; this used to exit 0
            # with forces cut short of rel_tol
            ["force", "--model", "drude", "--temp", "1", "--dmin", "0.005", "--dmax", "0.01",
             "--points", "2"],
            # above 1e6 K; these used to exit 0 with nan rows
            ["force", "--model", "drude", "--temp", "1e200", "--points", "2"],
            ["band", "--family", "plasma", "--temp", "1e200", "--points", "2"],
        ],
        ids=["negative", "below-floor", "force-hot", "band-hot"],
    )
    def test_a_refused_temperature_is_two_and_writes_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert "temperature" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["force", "--model", "drude", "--wp-ev", "1e150"], "plasma frequency"),
            (["force", "--model", "plasma", "--wp-ev", "1e150"], "plasma frequency"),
            (["force", "--model", "drude", "--temp", "0", "--wp-ev", "1e150"], "plasma frequency"),
            (["force", "--model", "drude", "--gamma-ev", "1e150"], "dissipation rate"),
            (["band", "--wp-max-ev", "1e200"], "plasma frequency"),
        ],
        ids=["drude", "plasma", "t0", "gamma", "band"],
    )
    def test_an_overflowing_model_parameter_is_two_and_writes_nothing(
        self, tmp_path, capsys, argv, named
    ):
        # these ended in an OverflowError traceback with exit 1
        out = tmp_path / "out.csv"
        assert main(argv + ["--points", "2", "--out", str(out)]) == 2
        assert f"error: {named} must be positive and at most 1e+20" in capsys.readouterr().err
        assert not out.exists()

    def test_an_overflowing_fit_is_two_without_a_warning(self, tmp_path, capsys, campaign_csv):
        # the patch column's norm overflowed: a RuntimeWarning, then exit 4,
        # "collinear"; the column is fine and y/sigma really overflows
        report = tmp_path / "report.json"
        argv = ["fit", "--data", str(campaign_csv), "--radius-cm", "1e300", "--out", str(report)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2
        assert "the weighted fit overflows a float" in capsys.readouterr().err
        assert not report.exists()

    def test_non_finite_measurement_is_two_and_writes_nothing(self, tmp_path, campaign_csv):
        lines = campaign_csv.read_text(encoding="utf-8").splitlines()
        cells = lines[3].split(",")
        cells[1] = "nan"
        lines[3] = ",".join(cells)
        data = tmp_path / "nan.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = tmp_path / "report.json"
        assert main(["fit", "--data", str(data), "--out", str(report)]) == 2
        assert not report.exists()

    def test_degenerate_fit_is_four(self, tmp_path):
        data = tmp_path / "flat.csv"
        lines = ["separation_um,force_pn,sigma_pn"]
        lines += [f"1.0,{100 + i},1.0" for i in range(5)]
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(
            [
                "fit",
                "--data",
                str(data),
                "--models",
                "drude_300k",
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 4

    @pytest.mark.parametrize("force, sigma", [("1.5e308", "1.0"), ("100", "1e-300")],
                             ids=["huge_force", "tiny_sigma"])
    def test_an_overflowing_fit_is_two_and_writes_nothing(self, tmp_path, capsys, force, sigma):
        # four distinct separations: the patch and offset are not collinear,
        # so this is out-of-range data (2), not a degenerate fit (4)
        data = tmp_path / "huge.csv"
        lines = ["separation_um,force_pn,sigma_pn"]
        lines += [f"{d},{force},{sigma}" for d in (1.0, 2.0, 3.0, 4.0)]
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = tmp_path / "r.json"
        argv = ["fit", "--data", str(data), "--models", "drude_300k", "--out", str(report)]
        assert main(argv) == 2
        assert "overflows a float" in capsys.readouterr().err
        assert not report.exists()

    def test_unreachable_tolerance_is_three(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(
            [
                "force",
                "--model",
                "drude",
                "--dmin",
                "1",
                "--dmax",
                "1",
                "--points",
                "1",
                "--rel-tol",
                "1e-300",
                "--out",
                str(out),
            ]
        )
        assert code == 3
        assert not out.exists()

    def test_unsettled_t0_quadrature_is_three_and_names_the_gap(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["force", "--model", "plasma", "--temp", "0", "--dmin", "2", "--dmax", "2",
                "--points", "1", "--rel-tol", "1e-16", "--out", str(out)]
        assert main(argv) == 3
        assert "d = 2.000e-06 m, T = 0 K, energy" in capsys.readouterr().err
        assert not out.exists()

    def test_a_non_finite_ladder_estimate_is_three(self, tmp_path, capsys):
        # the plasma zero mode's energy kernel rounds to log1p(-1) = -inf
        # near y = 0 at the finest levels; it used to settle and write inf
        out = tmp_path / "x.csv"
        argv = ["force", "--model", "plasma", "--dmin", "7", "--dmax", "7",
                "--points", "1", "--rel-tol", "1e-16", "--out", str(out)]
        assert main(argv) == 3
        assert "T = 300 K, energy (achieved inf" in capsys.readouterr().err
        assert not out.exists()


def test_a_cli_run_imports_neither_numpy_polynomial_nor_numpy_ma(tmp_path):
    # numpy.polynomial (the Gauss-Legendre rule) and numpy.ma (the first
    # np.unique call in a process) cost a fresh interpreter ~20 ms together;
    # a clean process is needed, since pytest's plugins may import both
    src = str(Path(casimir_lab.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from casimir_lab.cli import main\n"
        "for argv in (\n"
        "    ['simulate', '--seed', '1', '--out', 'campaign.csv'],\n"
        "    ['fit', '--data', 'campaign.csv', '--models', 'all', '--out', 'report.json'],\n"
        "    ['force', '--all-models', '--out', 'curves.csv'],\n"
        "):\n"
        "    assert main(argv) == 0, argv\n"
        "print(sorted(m for m in ('numpy.polynomial', 'numpy.ma') if m in sys.modules))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
