"""Exception types shared across the package, and the checks every public
entry applies to its arguments.

Every error that callers are expected to branch on gets its own class.  A
check refuses a value with a ``ValidationError`` naming the argument, and
returns the float or float array it checked, which the caller computes on.
The table check :func:`require_table` does the same for the named columns of
a record (a Measurements, an OpticalTable, the rows of a sweep file) and
names the first row it refuses.  ``ValueError`` itself is left for other
preconditions (empty arrays, unknown model families and the like).
"""

import math
import numbers

import numpy as np

__all__ = [
    "CasimirLabError",
    "ValidationError",
    "ConvergenceError",
    "CalibrationError",
    "DegenerateFitError",
    "RegimeError",
    "PfaValidityWarning",
]


def is_real(value):
    """True for a real number; False for bool, str, None and complex."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_finite_real(value):
    """True for a real number (see :func:`is_real`) but nan and inf."""
    return is_real(value) and math.isfinite(value)


def is_integer(value):
    """True for an integer; False for bool, which Python counts as one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_positive(name, value, scalar=False, most=math.inf):
    """``value`` once every entry is a positive finite real number, at most
    ``most``: a float for a number or a 0-d array, else a float array.  A
    ValidationError names the first entry that is not, or an array where
    ``scalar`` asks a number."""
    if most < math.inf:
        return _require(name, value, lambda v: (v > 0.0) & (v <= most),
                        f"positive and at most {most:g}", scalar)
    return _require(name, value, lambda v: v > 0.0, "positive and finite", scalar)


def require_at_least(name, value, floor, scalar=False):
    """As :func:`require_positive`, for finite real numbers >= ``floor``."""
    return _require(name, value, lambda v: v >= floor, f"finite and >= {floor:g}", scalar)


def require_finite(name, value, scalar=False):
    """As :func:`require_positive`, for any finite real number."""
    return _require(name, value, lambda v: True, "finite", scalar)


def require_within(name, value, low, high, scalar=False):
    """As :func:`require_positive`, for real numbers in [low, high]."""
    return _require(name, value, lambda v: (low <= v) & (v <= high),
                    f"within [{low:g}, {high:g}]", scalar)


def require_tolerance(value):
    """``value`` as a float once it is a relative tolerance, in (0, 1e-3]."""
    return _require("rel_tol", value, lambda v: 0 < v <= 1e-3, "a real number in (0, 1e-3]", True)


def _require(name, value, ok, domain, scalar):
    if type(value) is float and math.isfinite(value) and ok(value):
        return value  # a good float, the common case, skips the array round trip
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "iuf"):
        # numpy reads "1e-6" and True as floats, drops the imaginary part of
        # 1j and fails on a ragged list: refuse each entry that is not real
        for entry in np.asarray(value, dtype=object).flat:
            if not is_real(entry):
                raise ValidationError(f"{name} must be {domain}, got {entry!r}")
    value = np.asarray(value, dtype=float)
    if scalar and value.ndim:
        raise ValidationError(f"{name} must be a number, got an array of shape {value.shape}")
    bad = value[~(np.isfinite(value) & ok(value))]
    if bad.size:
        raise ValidationError(f"{name} must be {domain}, got {bad[0]}")
    return value if value.ndim else float(value)


def require_table(columns, rules=()):
    """New read-only 1-D float arrays of one length, one per ``(name, value)``
    of ``columns``: a 1-D integer or float array, or a list or tuple of real
    numbers.  Every value must be finite, and pass each ``(name, domain,
    bad)`` of ``rules``, ``bad`` mapping the named column to a mask of the
    rows it refuses.  The first bad row, finiteness checked first, is refused
    as "<name> must be <domain>, got <value> (row N)", N kept by bad_row."""
    arrays = {}
    for name, value in columns:
        if isinstance(value, np.ndarray) and value.dtype.kind not in "iuf":
            raise ValidationError(f"{name} must be a numeric array, got dtype {value.dtype}")
        # as in _require, a list is read entry by entry
        items = value if isinstance(value, np.ndarray) else np.asarray(value, dtype=object)
        if items.ndim != 1:
            raise ValidationError(f"{name} must be 1-D, got an array of shape {items.shape}")
        for row, entry in enumerate(items if items.dtype == object else ()):
            if not is_real(entry):
                raise bad_row(f"{name} must be finite, got {entry!r}", row)
        arrays[name] = np.array(items, dtype=float)
        arrays[name].flags.writeable = False
    if len({a.size for a in arrays.values()}) > 1:
        sizes = (a.size for a in arrays.values())
        raise ValidationError(f"{_and(arrays)} need one length, got {_and(sizes)}")
    checks = [(name, "finite", ~np.isfinite(a)) for name, a in arrays.items()]
    checks += [(name, domain, bad(arrays[name])) for name, domain, bad in rules]
    refused = np.stack([mask for _, _, mask in checks])
    if refused.any():
        row = int(np.argmax(refused.any(axis=0)))
        name, domain, _ = checks[int(np.argmax(refused[:, row]))]
        raise bad_row(f"{name} must be {domain}, got {float(arrays[name][row])}", row)
    return list(arrays.values())


def _and(items):
    return " and ".join(", ".join(map(str, items)).rsplit(", ", 1))


def bad_row(reason, row):
    """ValidationError "<reason> (row N)", keeping ``row`` (0-based) and ``reason``."""
    exc = ValidationError(f"{reason} (row {row})")
    exc.row, exc.reason = row, reason
    return exc


class CasimirLabError(Exception):
    """Base class for package-specific errors."""


class ValidationError(CasimirLabError, ValueError):
    """Malformed input: an argument outside its domain, a table, a CSV file or
    a configuration document."""


class ConvergenceError(CasimirLabError, RuntimeError):
    """A numerical scheme failed to reach the requested tolerance.

    Attributes
    ----------
    message : str
        What failed, without the tolerances.
    achieved : float
        Relative tolerance actually reached when the iteration cap hit.
    requested : float
        Relative tolerance that was asked for.
    """

    def __init__(self, message, achieved, requested):
        super().__init__(f"{message} (achieved {achieved:.3e}, requested {requested:.3e})")
        self.message = message
        self.achieved = float(achieved)
        self.requested = float(requested)


class CalibrationError(CasimirLabError, ValueError):
    """A voltage sweep cannot be inverted to a separation (non-positive curvature)."""


class DegenerateFitError(CasimirLabError, ValueError):
    """The least-squares design matrix is rank deficient."""


class RegimeError(CasimirLabError, ValueError):
    """Inputs are outside the validity regime of a perturbative formula."""


class PfaValidityWarning(UserWarning):
    """The proximity force approximation is being stretched (d/R too large)."""
