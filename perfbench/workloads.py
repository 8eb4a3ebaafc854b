"""The three benchmark workloads: their CLI calls and their correctness gates.

Each workload is the sequence of ``casimir-lab`` calls a user makes to get
one answer, run with relative file names inside a fresh directory so that
the outputs are byte-comparable between iterations.  ``check`` reads the
files the calls left behind and returns one message per violated gate;
an empty list means the answer is correct.  Every comparison is written so
that a NaN fails it.

The gates take no side on where Drude at 300 K overtakes Drude at T = 0:
that crossover is an open specification question, so no check looks
between 3 and 4 um.
"""

import csv
import json
from pathlib import Path

NAMES = ("verdict", "curves", "band")

REFERENCE = Path(__file__).resolve().parent / "reference"

#: Acceptance band on the best model's reduced chi^2.  The default campaign
#: bins into 30 points and the fit has two parameters, so a correct pipeline
#: gives chi^2 with 28 degrees of freedom; these are its 1e-6 and 1 - 1e-6
#: quantiles divided by 28.  A fixed [0.5, 1.6] band, as in the acceptance
#: test's single seed, rejects about 4 % of correct seeds.
CHI2_RED_BAND = (0.1924, 2.815)

#: Relative tolerance against the recorded reference tables.
REFERENCE_REL_TOL = 1e-6

#: Bins of the default campaign, hence points the fit sees.
FIT_POINTS = 30


def cli_calls(workload, seed):
    """The argv lists passed to ``casimir_lab.cli.main`` for one iteration."""
    if workload == "verdict":
        return [
            ["simulate", "--seed", str(seed), "--out", "campaign.csv"],
            ["fit", "--data", "campaign.csv", "--models", "all", "--out", "report.json"],
        ]
    if workload == "curves":
        return [["force", "--all-models", "--out", "curves.csv"]]
    if workload == "band":
        return [
            ["band", "--family", "drude", "--out", "band_drude.csv"],
            ["band", "--family", "plasma", "--out", "band_plasma.csv"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def check(workload, directory, exit_codes):
    """Gate one iteration's outputs; returns a list of failure messages."""
    directory = Path(directory)
    if any(code != 0 for code in exit_codes):
        return [f"CLI exit codes {exit_codes}"]
    try:
        if workload == "verdict":
            return _check_verdict(directory)
        if workload == "curves":
            return _check_curves(directory)
        return _check_band(directory)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_verdict(directory):
    report = json.loads((directory / "report.json").read_text(encoding="utf-8"))
    results = report["results"]
    best = results[0]
    failures = []
    if report["n_points"] != FIT_POINTS:
        failures.append(f"fit saw {report['n_points']} points, want {FIT_POINTS}")
    if best["model_id"] != "drude_300k":
        failures.append(f"best model {best['model_id']}, want drude_300k")
    lo, hi = CHI2_RED_BAND
    if not lo <= best["chi2_reduced"] <= hi:
        failures.append(f"best chi2_red {best['chi2_reduced']} outside [{lo}, {hi}]")
    v_rms = best["v_rms_mv"]
    if v_rms is None or not abs(v_rms - 5.4) <= 0.3:
        failures.append(f"V_rms {v_rms} mV, want 5.4 +- 0.3")
    if not abs(best["a_pn"] + 3.0) <= 1.0:
        failures.append(f"offset {best['a_pn']} pN, want -3 +- 1")
    for other in results[1:]:
        if not other["chi2_reduced"] > 5.0:
            failures.append(f"{other['model_id']} chi2_red {other['chi2_reduced']} <= 5")
    return failures


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _compare_reference(name, header, rows, label_columns):
    ref_header, ref_rows = _read_csv(REFERENCE / name)
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"{name}: shape differs from the reference table"]
    for row, ref in zip(rows, ref_rows):
        for j, (got, want) in enumerate(zip(row, ref)):
            if j < label_columns:
                if got != want:
                    return [f"{name}: label {got!r}, reference {want!r}"]
            elif not abs(float(got) - float(want)) <= REFERENCE_REL_TOL * abs(float(want)):
                where = row[: label_columns + 1]
                return [f"{name}: {header[j]} {got} vs reference {want} at {where}"]
    return []


def _check_curves(directory):
    header, rows = _read_csv(directory / "curves.csv")
    force = {}
    for row in rows:
        force.setdefault(row[0], []).append(float(row[2]))
    failures = []
    if not all(p > d for p, d in zip(force["plasma_300k"], force["drude_300k"])):
        failures.append("plasma_300k does not exceed drude_300k at every gap")
    ratio = force["drude_300k"][-1] / force["drude_t0"][-1]
    if not ratio > 1.5:
        failures.append(f"drude_300k / drude_t0 at the largest gap is {ratio}, want > 1.5")
    return failures + _compare_reference("curves.csv", header, rows, label_columns=1)


def _check_band(directory):
    failures = []
    for name in ("band_drude.csv", "band_plasma.csv"):
        header, rows = _read_csv(directory / name)
        values = [[float(x) for x in row] for row in rows]
        if not all(lo <= mid <= hi for _, lo, mid, hi in values):
            failures.append(f"{name}: f_min <= f_center <= f_max violated")
        width = [(hi - lo) / mid for _, lo, mid, hi in values]
        if not max(width) <= 0.05:
            failures.append(f"{name}: relative width {max(width)} > 5 %")
        if not all(b < a for a, b in zip(width, width[1:])):
            failures.append(f"{name}: width does not shrink with the gap")
        failures += _compare_reference(name, header, rows, label_columns=0)
    return failures
