"""Ordinary least squares of credit-growth rate on default rate.

Reports the statistic set used for the growth-versus-default hypothesis:
intercept, slope, their standard errors, the x axis intercept, correlation,
R squared, and two residual scales. The residual scales follow the register
analysis conventions: ``sigma_resid`` divides the residual sum of squares
by n and ``s_resid`` by n - 1, while the coefficient standard errors use
the textbook n - 2 denominator.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import EstimationError
from .sums import fsum


class OlsFit(NamedTuple):
    n: int
    beta1: float
    beta2: float
    sigma_intercept: float
    sigma_slope: float
    x_intercept: float | None
    r: float
    r2: float
    sigma_resid: float
    s_resid: float


def fit(x: Sequence[float], y: Sequence[float]) -> OlsFit:
    """Fit y = beta1 + beta2 * x by least squares.

    Requires n >= 3 and non-constant x.
    """
    shape_message = "x and y must be one-dimensional and of equal length"
    try:
        xs = [float(v) for v in x]
        ys = [float(v) for v in y]
    except TypeError:
        raise EstimationError(shape_message) from None
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

    beta2 = sxy / sxx
    beta1 = y_mean - beta2 * x_mean
    resid = [b - beta1 - beta2 * a for a, b in zip(xs, ys)]
    sse = fsum(e * e for e in resid)
    # the product sxx * syy can underflow to zero or overflow where the roots do not
    r = sxy / (math.sqrt(sxx) * math.sqrt(syy)) if syy > 0.0 else 0.0
    s_ols = math.sqrt(sse / (n - 2))
    return OlsFit(
        n=n,
        beta1=beta1,
        beta2=beta2,
        sigma_intercept=s_ols * math.sqrt(1.0 / n + x_mean * x_mean / sxx),
        sigma_slope=s_ols / math.sqrt(sxx),
        x_intercept=(-beta1 / beta2) if beta2 != 0.0 else None,
        r=r,
        r2=r * r,
        sigma_resid=math.sqrt(sse / n),
        s_resid=math.sqrt(sse / (n - 1)),
    )


def residuals(fitted: OlsFit, x: Sequence[float], y: Sequence[float]) -> list[float]:
    return [float(b) - fitted.beta1 - fitted.beta2 * float(a) for a, b in zip(x, y)]


def to_exhibit_json(fitted: OlsFit) -> dict:
    """Flat dict keyed like the published regression table rows."""
    return {
        "n": fitted.n,
        "intercept": fitted.beta1,
        "sigma_intercept": fitted.sigma_intercept,
        "x_intercept": fitted.x_intercept,
        "slope": fitted.beta2,
        "sigma_slope": fitted.sigma_slope,
        "correlation": fitted.r,
        "r2": fitted.r2,
        "sigma": fitted.sigma_resid,
        "s_for_residual": fitted.s_resid,
    }
