"""Correctly rounded float sums for the estimators.

``math.fsum`` rounds the exact sum once, so a sum does not depend on the
order of its terms. Where a float product overflows it yields inf, as it
always has, and the JSON writers reject the non-finite result. ``fsum``
itself raises instead of returning inf or nan when its running total leaves
the float range or meets both infinities; those failures become an
``EstimationError`` here, so the stage reports them like any other
degenerate sample.
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
