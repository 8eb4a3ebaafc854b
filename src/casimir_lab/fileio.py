"""The package's file formats: UTF-8 CSV tables with one header row and
numbers to 12 significant digits, and sorted, indented JSON documents.

Every reader error reads ``<path>: line N: <reason>``, or ``<path>: <reason>``
where no line is to blame.
"""

import csv
import io
import json

import numpy as np

from .errors import ValidationError


def _floats(row, width):
    if len(row) != width:
        raise ValidationError(f"expected {width} columns, got {len(row)}")
    try:
        return [float(cell) for cell in row]
    except ValueError:
        raise ValidationError(f"non-numeric value in {row}") from None


def _at(path, line, reason):
    where = path if line is None else f"{path}: line {line}"
    return ValidationError(f"{where}: {reason}")


def _text(path):
    """The file at ``path`` decoded as UTF-8; a byte that is not is refused by its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise _at(path, line, f"not UTF-8: {exc.reason} 0x{data[exc.start]:02x}") from None


def read_table(path, header, build):
    """``build(*columns)`` of the CSV file at ``path``, one float array per
    column of ``header``.

    Header cells may be padded with spaces, and blank rows (``,,`` too) are
    skipped.  Of the rows that are malformed or that ``build`` refuses (by a
    ValidationError carrying a ``row`` index), the first is named by its last
    physical line; bytes that are not UTF-8 are named before any row.
    """
    rows, lines, got, failure = [], [], None, None
    reader = csv.reader(io.StringIO(_text(path), newline=""))
    try:
        got = [cell.strip() for cell in next(reader, [])]
        for row in reader if got == header else ():
            if any(cell.strip() for cell in row):
                rows.append(_floats(row, len(header)))
                lines.append(reader.line_num)
    except (csv.Error, ValidationError) as exc:
        failure = (reader.line_num, exc)
    if got is not None and got != header:
        raise _at(path, 1, f"expected header {','.join(header)}, got {','.join(got)!r}")
    try:
        table = build(*np.array(rows, dtype=float).reshape(-1, len(header)).T)
    except ValidationError as exc:
        row = getattr(exc, "row", None)
        if row is not None or failure is None:
            raise _at(path, None if row is None else lines[row], exc) from None
    if failure is not None:
        raise _at(path, *failure)
    return table


def read_json(path, build):
    """``build(document)`` of the JSON file at ``path``; a syntax error
    names the file and its line, a ValidationError of ``build`` the file."""
    text = _text(path)
    try:
        return build(json.loads(text))
    except json.JSONDecodeError as exc:
        raise _at(path, exc.lineno, exc.msg) from None
    except ValidationError as exc:
        raise _at(path, None, exc) from None


def write_table(path, header, rows):
    """Write ``header`` and ``rows`` as CSV: numbers to 12 significant
    digits, strings as they are."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [cell if isinstance(cell, str) else format(cell, ".12g") for cell in row]
            for row in rows
        )


def write_json(path, doc):
    """Write ``doc`` as JSON; NaN or inf raise before the file is opened."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
