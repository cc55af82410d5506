"""Correctly rounded float sums for the estimators.

``math.fsum`` rounds the exact sum once, so a sum does not depend on the
order of its terms. Where a float product overflows it yields inf, as it
always has, and the JSON writers reject the non-finite result. ``fsum``
itself raises instead of returning inf or nan when its running total leaves
the float range or meets both infinities; those failures become an
``EstimationError`` here, so the stage reports them like any other
degenerate sample. ``floats`` and ``scalar`` check an estimator's input the
same way: a nested list, or a scalar that is no number, is an ``EstimationError``.
"""

from __future__ import annotations

import math
from typing import Iterable

from .errors import EstimationError


def fsum(values: Iterable[float]) -> float:
    """``math.fsum`` with its overflow and inf - inf failures as EstimationError."""
    try:
        return math.fsum(values)
    except OverflowError:
        raise EstimationError("sum overflows the float range") from None
    except ValueError:
        raise EstimationError("sum adds +inf and -inf") from None


def floats(values: Iterable[float], message: str) -> list[float]:
    """The values as floats; a value that is no number raises EstimationError(message)."""
    try:
        return [float(v) for v in values]
    except TypeError:
        raise EstimationError(message) from None


def scalar(name: str, value):
    """An estimator's scalar argument, refused unless it is an int or float (no bool)."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise EstimationError(f"{name} must be a number, got {value!r}")
    return value
