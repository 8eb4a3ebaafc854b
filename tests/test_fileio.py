"""The one CSV boundary, seen through each of the three loaders, and the
JSON reader.

Every loader skips blank rows, accepts a header padded with spaces and
names the file and the line of a short row, a non-numeric cell, a cell past
the csv module's field limit, bytes that are not UTF-8 or a value its
container refuses; of two bad lines, the first is named, and lines are
physical lines, so a quoted cell spanning two shifts none of them.  The
JSON reader names the file and the line of a syntax error or of bytes that
are not UTF-8, and the file of a document its builder refuses.
"""

import csv
import re

import pytest

from casimir_lab.analysis import load_measurements
from casimir_lab.campaign import load_sweeps_csv
from casimir_lab.dielectric import load_optical_table
from casimir_lab.errors import ValidationError
from casimir_lab.fileio import read_json

#: loader, header, four good rows in file order, a last cell the container
#: refuses, and the start of its reason
LOADERS = {
    "measurements": (
        load_measurements,
        "separation_um,force_pn,sigma_pn",
        ["1,500,2", "2,400,2", "3,300,2", "4,200,2"],
        "0",
        "sigma must be positive",
    ),
    "sweeps": (
        load_sweeps_csv,
        "sweep_index,separation_um,voltage_v,force_n,sigma_n",
        ["0,0.7,-0.01,2e-12,1e-12", "0,7,0,1e-12,1e-12", "1,0.7,0.01,2e-12,1e-12",
         "1,7,0.02,5e-12,1e-12"],
        "0",
        "sigma_n must be positive",
    ),
    "optical": (
        load_optical_table,
        "photon_energy_ev,eps_imag",
        ["0.1,8", "0.2,4", "0.4,2", "0.8,1"],
        "-1",
        "eps'' must be non-negative",
    ),
}

FAULTS = ("short", "non-numeric", "refused")

NOT_UTF8 = "not UTF-8: invalid start byte 0xff"


def spoil(kind, row, fault):
    """``row`` with ``fault``, and the reason the loader must give."""
    _, header, _, refused_cell, reason = LOADERS[kind]
    width = header.count(",") + 1
    head, last = row.rsplit(",", 1)
    return {
        "short": (head, f"expected {width} columns, got {width - 1}"),
        "non-numeric": (f"{head},oops", "non-numeric value"),
        "refused": (f"{head},{refused_cell}", reason),
    }[fault]


def write(tmp_path, header, rows):
    path = tmp_path / "table.csv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


def at_line(path, line, reason):
    return rf"^{re.escape(str(path))}: line {line}: {re.escape(reason)}"


@pytest.mark.parametrize("kind", LOADERS)
def test_blank_rows_and_a_padded_header_are_accepted(tmp_path, kind):
    load, header, good, _, _ = LOADERS[kind]
    padded = ", ".join(f" {name}" for name in header.split(","))
    table = load(write(tmp_path, padded, [good[0], ",,", good[1], "", *good[2:]]))
    assert len(getattr(table, "omega", table)) == 4


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("kind", LOADERS)
def test_a_bad_row_names_the_file_and_its_line(tmp_path, kind, fault):
    load, header, good, _, _ = LOADERS[kind]
    row, reason = spoil(kind, good[1], fault)
    # the two blank rows before it count as lines 3 and 4
    path = write(tmp_path, header, [good[0], ",,", "", row, *good[2:]])
    with pytest.raises(ValidationError, match=at_line(path, 5, reason)):
        load(path)


@pytest.mark.parametrize("second", FAULTS)
@pytest.mark.parametrize("first", FAULTS)
@pytest.mark.parametrize("kind", LOADERS)
def test_the_first_of_two_bad_lines_is_named(tmp_path, kind, first, second):
    load, header, good, _, _ = LOADERS[kind]
    row, reason = spoil(kind, good[1], first)
    later, _ = spoil(kind, good[3], second)
    path = write(tmp_path, header, [good[0], row, good[2], later])
    with pytest.raises(ValidationError, match=at_line(path, 3, reason)):
        load(path)


@pytest.mark.parametrize("kind", LOADERS)
def test_a_cell_past_the_field_limit_names_its_line(tmp_path, kind):
    load, header, good, _, _ = LOADERS[kind]
    huge = "1" + "0" * csv.field_size_limit()
    path = write(tmp_path, header, [good[0], f"{huge},{good[1]}", *good[2:]])
    with pytest.raises(ValidationError, match=at_line(path, 3, "field larger than field limit")):
        load(path)


@pytest.mark.parametrize("kind", LOADERS)
def test_a_quoted_cell_over_two_lines_shifts_no_later_line(tmp_path, kind):
    # the second row's first cell spans lines 3 and 4, so the refused row
    # after it is on line 5, though it is the file's fourth record
    load, header, good, _, _ = LOADERS[kind]
    first, rest = good[1].split(",", 1)
    row, reason = spoil(kind, good[2], "refused")
    path = write(tmp_path, header, [good[0], f'"{first}\n",{rest}', row, good[3]])
    with pytest.raises(ValidationError, match=at_line(path, 5, reason)):
        load(path)


@pytest.mark.parametrize("kind", LOADERS)
def test_bytes_that_are_not_utf8_name_the_file_and_line(tmp_path, kind):
    load, header, good, _, _ = LOADERS[kind]
    path = write(tmp_path, header, [good[0], f"@{good[1]}", *good[2:]])
    path.write_bytes(path.read_bytes().replace(b"@", b"\xff"))
    with pytest.raises(ValidationError, match=at_line(path, 3, NOT_UTF8)):
        load(path)


def test_json_reader_refuses_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{\n  "a": "\xff"\n}\n')
    with pytest.raises(ValidationError, match=at_line(path, 2, NOT_UTF8)):
        read_json(path, dict)


def test_json_reader_names_the_file_and_the_line(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{\n  "a": 1,\n  "b": [1, 2\n}\n', encoding="utf-8")
    with pytest.raises(ValidationError, match=at_line(path, 4, "Expecting ',' delimiter")):
        read_json(path, dict)


def test_json_reader_builds_and_names_the_file_of_a_refused_document(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"a": 1}', encoding="utf-8")
    assert read_json(path, lambda doc: doc["a"] + 1) == 2

    def refuse(doc):
        raise ValidationError(f"a must be 2, got {doc['a']}")

    with pytest.raises(ValidationError, match=rf"^{re.escape(str(path))}: a must be 2, got 1$"):
        read_json(path, refuse)
