"""Steady-state hypothesis machinery for credit-growth rates.

Under the null, credit supply growth exactly replaces defaulted exposure:
f = d / (1 - d), the odds of default. The alternative adds an exogenous
steady-state parameter zeta: f = (d + zeta) / (1 - d), with implied
discount factor s = 1 / (1 + zeta).

Two estimators of zeta are provided.

``ssp_least_squares`` minimizes the squared deviations of observed growth
from expected growth; the minimizer has the closed form

    zeta = sum((f*(1-d) - d) / (1-d)^2) / sum(1 / (1-d)^2).

``ssp_irr_root`` is the internal-rate-of-return style variant: with
per-interval factors a_k = (1 + f_k)(1 - d_k) and cumulative factors
A_k = a_1 * ... * a_k (the growth of the credit stock since the window
start), it finds the unique s > 0 with

    sum_{k=1..n} A_k * s^k = n,

i.e. the discount factor under which the discounted credit stock stays at
par on average, then zeta = 1/s - 1. Uniform unit factors give s = 1 and
zeta = 0, and data generated with a constant zeta* is recovered exactly.
Every A_k is positive, so the left side is increasing and convex in s:
Newton's method started at or right of the root falls monotonically onto
it, and no bracket or bisection is needed. Each term is carried with its
own power-of-two exponent, so no intermediate A_k under- or overflows.

Both estimators first check their arguments: a ``RateSeries`` of at least
2 points and, if given, a ``sigma_ref`` that is a positive float. Else the
scale is the OLS ``s_for_residual`` of the sample, or the estimate's own
(chi2 = n - 1). ``_finalize`` forms the residuals f - e once, for the
residual sum of squares and for chi-squared on dof = n - 1. The degrees of
freedom are an integer, so the upper-tail p-value is a finite sum of
Poisson-like terms (plus one erfc for odd dof) and needs no iterative
incomplete-gamma solver. ``SspEstimate`` carries the statistic and its
p-value, its fields named like the published steady-state table column.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import ols
from .errors import EstimationError
from .rates import RateSeries
from .series import Quarter, finite, fsum, number, shown, typed

METHOD_LEAST_SQUARES = "least-squares"
METHOD_IRR_ROOT = "irr-root"

_MAX_ITER = 200
_S_HI_CAP = 10.0
_MANTISSA_LO = 2.0**-512
_MANTISSA_HI = 2.0**512
_MAX_DOF = 100_000  # chi2_p_value sums dof/2 terms; 1000-Q1..9999-Q4 gives dof <= 35,998


class SspEstimate(NamedTuple):
    n: int
    zeta: float
    s: float
    method: str
    sigma: float
    s_for_residual: float
    chi2: float
    dof: int
    p_value: float


class TrajectoryPoint(NamedTuple):
    quarter: Quarter
    f_observed: float
    f_expected: float
    cumulative_index: float
    direction: str | None  # rising/falling/flat vs previous observed f; None at start


def expected_growth(d: float, zeta: float) -> float:
    """Growth rate (d + zeta) / (1 - d); the odds of default when zeta = 0."""
    number("d", d)
    number("zeta", zeta)
    if not 0.0 <= d < 1.0:
        raise EstimationError(f"default rate must be in [0,1), got {d}")
    growth = (d + zeta) / (1.0 - d)
    if not math.isfinite(growth):
        raise EstimationError(f"expected growth is not finite, got {growth}")
    return growth


def chi2_p_value(chi2: float, dof: int) -> float:
    """Upper-tail probability of the chi-squared distribution, Q(dof/2, chi2/2).

    For an integer dof the regularized upper incomplete gamma is a finite sum
    (Abramowitz & Stegun 26.4.4-5): with x = chi2/2,

        Q = sum_a x^a e^-x / Gamma(a + 1),   a = dof/2 - 1, dof/2 - 2, ... >= 0,

    plus erfc(sqrt(x)) when dof is odd. Each term is formed in logs, so none
    overflows; the clamp absorbs the sum's rounding above 1.
    """
    number("chi2", chi2)
    if chi2 < 0.0:
        raise EstimationError(f"chi2 must be non-negative, got {chi2}")
    typed("dof", dof, int)
    if not 1 <= dof <= _MAX_DOF:
        raise EstimationError(f"dof must be an integer in 1..{_MAX_DOF}, got {shown(dof, repr)}")
    x = chi2 / 2.0
    if x == 0.0:
        return 1.0
    log_x = math.log(x)
    terms = [
        math.exp(a * log_x - x - math.lgamma(a + 1.0))
        for a in (dof / 2.0 - k for k in range(1, dof // 2 + 1))
    ]
    if dof % 2:
        terms.append(math.erfc(math.sqrt(x)))
    return min(fsum(terms), 1.0)


def _expected_growths(rates: RateSeries, zeta: float) -> list[float]:
    """(d + zeta) / (1 - d) per rate point; one that leaves the float range, or a zeta
    of -1 (no s = 1 / (1 + zeta)), is EstimationError."""
    if zeta == -1.0:
        raise EstimationError("zeta is -1, so s = 1 / (1 + zeta) is undefined")
    expected = [(p.d + zeta) / (1.0 - p.d) for p in rates.points]
    if not all(map(math.isfinite, expected)):
        p, e = next((p, e) for p, e in zip(rates.points, expected) if not math.isfinite(e))
        raise EstimationError(f"{p.interval_end}: f_expected is not finite, got {e}")
    return expected


def _check_arguments(rates: RateSeries, sigma_ref: float | None) -> None:
    """The estimators' one entry check: at least 2 rate points and, if given, a
    chi-squared scale that is a positive float."""
    typed("rates", rates, RateSeries)
    if len(rates) < 2:
        raise EstimationError(f"need at least 2 rate points, got {len(rates)}")
    if sigma_ref is not None:
        number("sigma_ref", sigma_ref)
        if not sigma_ref > 0.0:
            raise EstimationError(f"sigma_ref must be positive, got {sigma_ref}")


def _finalize(rates: RateSeries, zeta: float, method: str,
              sigma_ref: float | None) -> SspEstimate:
    d = rates.d_values()
    f = rates.f_values()
    n = len(d)
    resid = [fi - ei for fi, ei in zip(f, _expected_growths(rates, zeta))]
    sse = fsum(r * r for r in resid)
    s_for_residual = math.sqrt(sse / (n - 1))
    # The default scale is the OLS s_for_residual of the sample, else (fewer than 3
    # points, constant d, a non-finite field) the estimate's own, so chi2 = n - 1.
    # An explicit scale is a positive float; only a default one may be zero, and
    # then only for an exact fit.
    ref = sigma_ref
    if ref is None:
        if not math.isfinite(sse):  # the overflow is not the default scale's fault
            raise EstimationError("residual sum of squares overflows the float range")
        try:
            ref = ols.fit(d, f).s_for_residual
        except EstimationError:
            ref = s_for_residual
    if ref > 0.0:
        chi2 = fsum(z * z for z in [r / ref for r in resid])
        if chi2 == math.inf:
            raise EstimationError("chi-squared statistic overflows the float range")
    elif sse == 0.0:
        chi2 = 0.0  # perfect fit, zero scale: deviation is identically zero
    else:
        raise EstimationError("reference residual scale is zero but residuals are not")
    return finite(SspEstimate(
        n=n,
        zeta=zeta,
        s=1.0 / (1.0 + zeta),
        method=method,
        sigma=math.sqrt(sse / n),
        s_for_residual=s_for_residual,
        chi2=chi2,
        dof=n - 1,
        p_value=chi2_p_value(chi2, n - 1),
    ))


def ssp_least_squares(rates: RateSeries, sigma_ref: float | None = None) -> SspEstimate:
    """Steady-state parameter minimizing the squared expected-growth residuals."""
    _check_arguments(rates, sigma_ref)
    d = rates.d_values()
    f = rates.f_values()
    w = [1.0 / ((1.0 - di) * (1.0 - di)) for di in d]
    zeta = fsum((fi * (1.0 - di) - di) * wi for di, fi, wi in zip(d, f, w)) / fsum(w)
    return _finalize(rates, zeta, METHOD_LEAST_SQUARES, sigma_ref)


def _irr_value_slope(factors: list[float], s: float) -> tuple[float, float]:
    """F(s) = sum_k A_k s^k - n and F'(s) in one pass over the factors.

    Each term is the running product prod_{j<=k} (a_j s), carried as a
    mantissa times 2^exp. ``s`` is split the same way once, and each step
    multiplies by a_j times the mantissa of s, so a tiny s underflows no
    step. A product that leaves [2^-512, 2^512] is formed again from its
    parts' mantissas and renormalized, so a deep contraction followed by a
    recovery loses no term. Scaling by powers of two is exact, so in the
    float range every term is the one the plain product gives; a stored term
    under- or overflows only where its own value does.
    """
    s_mantissa, s_exp = math.frexp(s)
    terms = []
    weighted = []
    mantissa, exp = 1.0, 0
    for k, a in enumerate(factors, 1):
        product = mantissa * (a * s_mantissa)
        if not _MANTISSA_LO <= product <= _MANTISSA_HI:
            (m, e), (m_step, e_step) = math.frexp(mantissa), math.frexp(a * s_mantissa)
            product, shift = math.frexp(m * m_step)
            exp += e + e_step + shift
        mantissa = product
        exp += s_exp
        term = math.ldexp(mantissa, exp)
        terms.append(term)
        weighted.append(k * term)
    slope = fsum(weighted) / s
    if not slope > 0.0:
        raise EstimationError("discount-factor polynomial leaves the float range")
    return fsum(terms) - len(terms), slope


def _irr_root(factors: list[float]) -> float:
    """The discount factor s > 0 with sum_k A_k s^k = n for the per-interval factors."""
    # Newton starts at the smaller of two upper bounds on the root. Every term
    # is at most n, so s <= (n / A_k)^(1/k) for each k; and the terms' geometric
    # mean is at most their mean 1, so log s <= -2 sum_k log A_k / (n (n + 1)).
    n = len(factors)
    log_n = math.log(n)
    log_stock = 0.0
    log_stock_sum = 0.0
    bound = math.inf
    for k, a in enumerate(factors, 1):
        log_stock += math.log(a)
        log_stock_sum += log_stock
        bound = min(bound, (log_n - log_stock) / k)
    s = math.exp(min(bound, -2.0 * log_stock_sum / (n * (n + 1))))
    if not s > 0.0:
        raise EstimationError("discount-factor root is not positive")

    # F is increasing and convex on s > 0, so the first Newton step lands
    # right of the root from either side, and from there the iterates fall
    # monotonically; the first later step that does not fall ends the solve.
    for i in range(_MAX_ITER):
        value, slope = _irr_value_slope(factors, s)
        step = s - value / slope
        if i and not step < s:
            break
        s = step
    else:
        raise EstimationError(f"irr-root Newton did not converge in {_MAX_ITER} steps")
    if s > _S_HI_CAP:
        raise EstimationError(
            f"discount-factor root is above s={_S_HI_CAP}, so zeta is below -0.9"
        )
    return s


def ssp_irr_root(rates: RateSeries, sigma_ref: float | None = None) -> SspEstimate:
    """Steady-state parameter from the discounted credit-stock root equation."""
    _check_arguments(rates, sigma_ref)
    s = _irr_root([(1.0 + p.f) * (1.0 - p.d) for p in rates.points])
    return _finalize(rates, 1.0 / s - 1.0, METHOD_IRR_ROOT, sigma_ref)


def trajectory(rates: RateSeries, zeta: float) -> tuple[TrajectoryPoint, ...]:
    """Observed vs expected growth and the discounted cumulative credit index,
    one point per rate point.

    The cumulative index after k intervals is
    prod_{j<=k} (1 + f_j)(1 - d_j) / (1 + zeta); it stays at 1 when the
    observed rates follow the steady state exactly.
    """
    typed("rates", rates, RateSeries)
    number("zeta", zeta)
    points = []
    index = 1.0
    prev_f: float | None = None
    for p, expected in zip(rates.points, _expected_growths(rates, zeta)):
        index *= (1.0 + p.f) * (1.0 - p.d) / (1.0 + zeta)
        if prev_f is None:
            direction = None
        elif p.f > prev_f:
            direction = "rising"
        elif p.f < prev_f:
            direction = "falling"
        else:
            direction = "flat"
        points.append(TrajectoryPoint(p.interval_end, p.f, expected, index, direction))
        prev_f = p.f
    finite(points[-1])  # a product that leaves the float range stays out of it
    return tuple(points)
