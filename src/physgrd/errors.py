"""Exception types shared across the package, and the one range rule.

Everything raised on purpose derives from PhysgrdError so callers (and the
CLI) can distinguish our failures from genuine bugs. Every numeric input is
checked where it enters by check_range ("lo <= x < hi" on real numbers, so
NaN, None and strings fail) or check_int; the error names the input first.
"""

import math
import numbers
import sys


class PhysgrdError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PhysgrdError):
    """A file could not be parsed (malformed row, bad header, bad JSON)."""


class ValidationError(PhysgrdError):
    """Parsed data violates a type invariant (non-finite value, bad width)."""


class UnitError(PhysgrdError):
    """A physical quantity is outside its legal range (e.g. frame rate <= 0)."""


class LengthMismatchError(PhysgrdError):
    """Two paired sequences do not have the same number of frames."""


class NoValidFramesError(PhysgrdError):
    """A metric was asked to average over zero usable frames."""


class SimulationDivergedError(PhysgrdError):
    """The simulated state left the sane range; reports the first bad frame."""

    def __init__(self, frame: int, value: float):
        self.frame = frame
        self.value = value
        super().__init__(
            f"simulation diverged at frame {frame} (|position| = {value:.3g} m)"
        )


class CheckpointError(PhysgrdError):
    """A model checkpoint is unreadable or has an incompatible version."""


# (lo, hi, wording) of the rule "lo <= x < hi"
POSITIVE = (math.ulp(0.0), math.inf, "finite and positive")
NON_NEGATIVE = (0.0, math.inf, "finite and non-negative")
FINITE = (-sys.float_info.max, math.inf, "finite")
_REAL = (float, int, numbers.Real)  # float and int first: the ABC check alone is slow


def check_range(name: str, value, bounds: tuple, error: type = ValidationError) -> None:
    """Raise error unless value, or every item of a sequence value, is a real
    number x with lo <= x < hi for bounds (lo, hi, wording). A scalar is
    checked without numpy, so a check made at every step stays cheap."""
    lo, hi, wording = bounds
    if isinstance(value, _REAL):
        ok = lo <= value < hi
    else:
        try:
            ok = not isinstance(value, str) and all(
                isinstance(x, _REAL) and lo <= x < hi for x in value)
        except TypeError:  # not iterable
            ok = False
    if not ok:
        raise error(f"{name} must be {wording}, got {value!r}")


def check_int(name: str, value, lo: int = 1, hi: float = math.inf) -> int:
    """Return value as an int if it is an integer, not a bool, in [lo, hi]; raise otherwise."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and lo <= value <= hi):
        upper = "" if hi == math.inf else f" and <= {hi}"
        raise ValidationError(f"{name} must be an integer >= {lo}{upper}, got {value!r}")
    return int(value)
