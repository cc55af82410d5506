"""Correctly rounded float sums for the estimators, and the check of their samples.

``math.fsum`` rounds the exact sum once, so a sum does not depend on the
order of its terms. Where a float product overflows it yields inf, as it
always has, and the JSON writers reject the non-finite result. ``fsum``
raises EstimationError instead when its running total leaves the float
range or meets both infinities, like any other degenerate sample. ``floats``
reads a sample by ``series.number``, the rule of every number a public
function takes: a value that is no number is the caller's EstimationError,
and a number no float holds finitely is ``number``'s InvariantError naming its index.
"""

from __future__ import annotations

import math
from typing import Iterable

from .errors import EstimationError
from .series import number


def fsum(values: Iterable[float]) -> float:
    """``math.fsum`` with its overflow and inf - inf failures as EstimationError."""
    try:
        return math.fsum(values)
    except OverflowError:
        raise EstimationError("sum overflows the float range") from None
    except ValueError:
        raise EstimationError("sum adds +inf and -inf") from None


def floats(values: Iterable[float], message: str) -> list[float]:
    """The values as finite floats; a value that is no number raises EstimationError(message)."""
    try:
        xs = list(values)
        if set(map(type, xs)) <= {float} and all(map(math.isfinite, xs)):
            return xs
        if any(isinstance(v, (str, bytes, bytearray, bool)) for v in xs):
            raise TypeError  # float() would read text and a bool as numbers
        xs = [v if isinstance(v, (int, float)) else float(v) for v in xs]  # a numpy scalar, say
    except (TypeError, ValueError, OverflowError):
        raise EstimationError(message) from None
    for i, v in enumerate(xs):
        number(f"value at index {i}", v)
    return list(map(float, xs))
