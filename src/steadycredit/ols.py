"""Ordinary least squares of credit-growth rate on default rate.

Reports the statistic set used for the growth-versus-default hypothesis:
intercept, slope, their standard errors, the x axis intercept, correlation,
R squared, and two residual scales. ``OlsFit`` names its fields like the
rows of the published regression table, in their order, so the record is
its own JSON object. The residual scales follow the register analysis
conventions: ``sigma`` divides the residual sum of squares by n and
``s_for_residual`` by n - 1, while the coefficient standard errors use the
textbook n - 2 denominator.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import EstimationError
from .series import finite, floats, fsum


class OlsFit(NamedTuple):
    n: int
    intercept: float
    sigma_intercept: float
    x_intercept: float | None
    slope: float
    sigma_slope: float
    correlation: float
    r2: float
    sigma: float
    s_for_residual: float


def fit(x: Sequence[float], y: Sequence[float]) -> OlsFit:
    """Fit y = intercept + slope * x by least squares.

    Requires n >= 3 and non-constant x.
    """
    shape_message = "x and y must be one-dimensional and of equal length"
    xs, ys = floats(x, shape_message), floats(y, shape_message)
    if len(xs) != len(ys):
        raise EstimationError(shape_message)
    n = len(xs)
    if n < 3:
        raise EstimationError(f"need at least 3 points, got {n}")
    x_mean = fsum(xs) / n
    y_mean = fsum(ys) / n
    xm = [v - x_mean for v in xs]
    ym = [v - y_mean for v in ys]
    sxx = fsum(v * v for v in xm)
    syy = fsum(v * v for v in ym)
    sxy = fsum(a * b for a, b in zip(xm, ym))
    if sxx == 0.0:
        raise EstimationError("x is constant; slope and correlation are undefined")

    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    resid = [b - intercept - slope * a for a, b in zip(xs, ys)]
    sse = fsum(e * e for e in resid)
    # the product sxx * syy can underflow to zero or overflow where the roots do not
    correlation = sxy / (math.sqrt(sxx) * math.sqrt(syy)) if syy > 0.0 else 0.0
    s_ols = math.sqrt(sse / (n - 2))
    return finite(OlsFit(
        n=n,
        intercept=intercept,
        sigma_intercept=s_ols * math.sqrt(1.0 / n + x_mean * x_mean / sxx),
        x_intercept=(-intercept / slope) if slope != 0.0 else None,
        slope=slope,
        sigma_slope=s_ols / math.sqrt(sxx),
        correlation=correlation,
        r2=correlation * correlation,
        sigma=math.sqrt(sse / n),
        s_for_residual=math.sqrt(sse / (n - 1)),
    ))
