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
The root is bracketed by bisection and polished by Newton steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import Sequence

from . import ols
from .errors import EstimationError
from .rates import RateSeries
from .series import Quarter
from .sums import fsum

METHOD_LEAST_SQUARES = "least-squares"
METHOD_IRR_ROOT = "irr-root"

_BISECTION_WIDTH = 1e-9
_NEWTON_TOL = 1e-12
_MAX_ITER = 200
_S_HI_CAP = 10.0


@dataclass(frozen=True)
class SspEstimate:
    zeta: float
    s: float
    method: str
    sigma_resid: float
    s_resid: float
    chi2: float
    dof: int
    n: int


@dataclass(frozen=True)
class TrajectoryPoint:
    quarter: Quarter
    f_observed: float
    f_expected: float
    cumulative_index: float
    direction: str | None  # rising/falling/flat vs previous observed f; None at start


@dataclass(frozen=True)
class SteadyStateTrajectory:
    points: tuple[TrajectoryPoint, ...]
    zeta: float


def expected_growth(d: float, zeta: float) -> float:
    """Growth rate (d + zeta) / (1 - d); the odds of default when zeta = 0."""
    if not 0.0 <= d < 1.0:
        raise EstimationError(f"default rate must be in [0,1), got {d}")
    return (d + zeta) / (1.0 - d)


def chi_squared(
    observed: Sequence[float], expected: Sequence[float], sigma_ref: float
) -> tuple[float, int]:
    """Sum of squared standardized deviations and its degrees of freedom n - 1."""
    shape_message = "observed and expected must be one-dimensional, equal length"
    try:
        obs = [float(v) for v in observed]
        exp = [float(v) for v in expected]
    except TypeError:
        raise EstimationError(shape_message) from None
    if len(obs) != len(exp):
        raise EstimationError(shape_message)
    if len(obs) < 2:
        raise EstimationError(f"need at least 2 values, got {len(obs)}")
    if not sigma_ref > 0.0:
        raise EstimationError(f"sigma_ref must be positive, got {sigma_ref}")
    z = [(o - e) / sigma_ref for o, e in zip(obs, exp)]
    return fsum(v * v for v in z), len(obs) - 1


def _regularized_gamma_p_series(a: float, x: float) -> float:
    # lower series: P(a,x) = x^a e^-x / Gamma(a) * sum x^n / (a (a+1) ... (a+n))
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(1000):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * 1e-17:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _regularized_gamma_q_contfrac(a: float, x: float) -> float:
    # upper continued fraction, modified Lentz
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def regularized_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x), absolute accuracy ~1e-14."""
    if a <= 0.0:
        raise EstimationError(f"shape parameter must be positive, got {a}")
    if x < 0.0:
        raise EstimationError(f"argument must be non-negative, got {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _regularized_gamma_p_series(a, x)
    return _regularized_gamma_q_contfrac(a, x)


def chi2_p_value(chi2: float, dof: int) -> float:
    """Upper-tail probability of the chi-squared distribution: Q(dof/2, chi2/2)."""
    if chi2 < 0.0:
        raise EstimationError(f"chi2 must be non-negative, got {chi2}")
    if dof < 1:
        raise EstimationError(f"dof must be at least 1, got {dof}")
    return regularized_gamma_q(dof / 2.0, chi2 / 2.0)


def _resolve_sigma_ref(d: list[float], f: list[float], sse: float,
                       sigma_ref: float | None) -> float:
    """Default reference scale is the OLS residual s of the same sample.

    When the sample cannot be fit by OLS (fewer than 3 points or constant d)
    the estimate's own s_resid is used instead.
    """
    if sigma_ref is not None:
        if not sigma_ref > 0.0:
            raise EstimationError(f"sigma_ref must be positive, got {sigma_ref}")
        return sigma_ref
    try:
        return ols.fit(d, f).s_resid
    except EstimationError:
        return math.sqrt(sse / (len(d) - 1))


def _finalize(rates: RateSeries, zeta: float, method: str,
              sigma_ref: float | None) -> SspEstimate:
    d = rates.d_values()
    f = rates.f_values()
    n = len(d)
    expected = [(di + zeta) / (1.0 - di) for di in d]
    sse = fsum((fi - ei) * (fi - ei) for fi, ei in zip(f, expected))
    ref = _resolve_sigma_ref(d, f, sse, sigma_ref)
    if ref > 0.0:
        chi2, dof = chi_squared(f, expected, ref)
    elif sse == 0.0:
        chi2, dof = 0.0, n - 1  # perfect fit, zero scale: deviation is identically zero
    else:
        raise EstimationError("reference residual scale is zero but residuals are not")
    return SspEstimate(
        zeta=zeta,
        s=1.0 / (1.0 + zeta),
        method=method,
        sigma_resid=math.sqrt(sse / n),
        s_resid=math.sqrt(sse / (n - 1)),
        chi2=chi2,
        dof=dof,
        n=n,
    )


def ssp_least_squares(rates: RateSeries, sigma_ref: float | None = None) -> SspEstimate:
    """Steady-state parameter minimizing the squared expected-growth residuals."""
    if len(rates) < 2:
        raise EstimationError(f"need at least 2 rate points, got {len(rates)}")
    d = rates.d_values()
    f = rates.f_values()
    w = [1.0 / ((1.0 - di) * (1.0 - di)) for di in d]
    zeta = fsum((fi * (1.0 - di) - di) * wi for di, fi, wi in zip(d, f, w)) / fsum(w)
    return _finalize(rates, zeta, METHOD_LEAST_SQUARES, sigma_ref)


def _stock_poly(rates: RateSeries) -> list[float]:
    return list(accumulate(((1.0 + p.f) * (1.0 - p.d) for p in rates.points), mul))


def _poly_value(cum: list[float], s: float) -> float:
    # F(s) = sum_k A_k s^k - n, Horner from the highest power
    acc = 0.0
    for coeff in reversed(cum):
        acc = (acc + coeff) * s
    return acc - len(cum)


def _poly_derivative(cum: list[float], s: float) -> float:
    acc = 0.0
    n = len(cum)
    for k in range(n, 0, -1):
        acc = acc * s + k * cum[k - 1]
    return acc


def ssp_irr_root(rates: RateSeries, sigma_ref: float | None = None) -> SspEstimate:
    """Steady-state parameter from the discounted credit-stock root equation."""
    if len(rates) < 2:
        raise EstimationError(f"need at least 2 rate points, got {len(rates)}")
    cum = _stock_poly(rates)
    n = len(cum)

    lo, f_lo = 0.0, -float(n)  # F(0) = -n, strictly below zero
    hi = 1.0
    while _poly_value(cum, hi) < 0.0:
        if hi >= _S_HI_CAP:
            raise EstimationError(
                f"no sign change in the discount-factor bracket up to s={_S_HI_CAP}"
            )
        hi = min(hi * 2.0, _S_HI_CAP)
    assert f_lo < 0.0 <= _poly_value(cum, hi)

    iterations = 0
    while hi - lo > _BISECTION_WIDTH and iterations < _MAX_ITER:
        mid = 0.5 * (lo + hi)
        if _poly_value(cum, mid) < 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1

    s = 0.5 * (lo + hi)
    while iterations < _MAX_ITER:
        fs = _poly_value(cum, s)
        if abs(fs) < _NEWTON_TOL:
            break
        s -= fs / _poly_derivative(cum, s)
        iterations += 1
    if not s > 0.0:
        raise EstimationError("discount-factor root is not positive")
    return _finalize(rates, 1.0 / s - 1.0, METHOD_IRR_ROOT, sigma_ref)


def trajectory(rates: RateSeries, zeta: float) -> SteadyStateTrajectory:
    """Observed vs expected growth and the discounted cumulative credit index.

    The cumulative index after k intervals is
    prod_{j<=k} (1 + f_j)(1 - d_j) / (1 + zeta); it stays at 1 when the
    observed rates follow the steady state exactly.
    """
    points = []
    index = 1.0
    prev_f: float | None = None
    for p in rates.points:
        index *= (1.0 + p.f) * (1.0 - p.d) / (1.0 + zeta)
        if prev_f is None:
            direction = None
        elif p.f > prev_f:
            direction = "rising"
        elif p.f < prev_f:
            direction = "falling"
        else:
            direction = "flat"
        points.append(
            TrajectoryPoint(
                quarter=p.interval_end,
                f_observed=p.f,
                f_expected=expected_growth(p.d, zeta),
                cumulative_index=index,
                direction=direction,
            )
        )
        prev_f = p.f
    return SteadyStateTrajectory(tuple(points), zeta)


def to_ssf_json(estimate: SspEstimate) -> dict:
    """Flat dict keyed like the published steady-state table column."""
    return {
        "n": estimate.n,
        "zeta": estimate.zeta,
        "s": estimate.s,
        "method": estimate.method,
        "sigma": estimate.sigma_resid,
        "s_for_residual": estimate.s_resid,
        "chi2": estimate.chi2,
        "dof": estimate.dof,
        "p_value": chi2_p_value(estimate.chi2, estimate.dof),
    }


def trajectory_to_csv(traj: SteadyStateTrajectory) -> str:
    lines = ["interval_end,f_observed,f_expected,cumulative_index,direction"]
    for p in traj.points:
        direction = p.direction if p.direction is not None else ""
        lines.append(
            f"{p.quarter},{p.f_observed!r},{p.f_expected!r},{p.cumulative_index!r},{direction}"
        )
    return "\n".join(lines) + "\n"
