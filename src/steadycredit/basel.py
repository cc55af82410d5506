"""Hodrick-Prescott trend of the credit-to-GDP ratio and the buffer mapping.

The trend tau minimizes

    sum (y_t - tau_t)^2 + lam * sum (tau_{t+1} - 2 tau_t + tau_{t-1})^2.

With D the (n-2) x n second difference it is solved in the dual form
tau = y - D'u, (I / lam + D D') u = D y: a Toeplitz pentadiagonal matrix
(6 + 1 / lam, -4, 1) whose condition number grows with n but not with lam.
It is factored once as L D L', which solves for u and for one refinement
whose residual entries, like those of tau, are each one correctly rounded
sum of exact terms (u / lam enters as a quotient and its remainder). D'
maps onto sequences whose sums with weights 1 and k vanish, so tau keeps
both linear moments of y. The refinement's change to the trend estimates
the error of the first solve: above 1e-5 of max |y|, or at a non-positive
pivot, EstimationError refuses the smoothing parameter as too large for
the series. ``series.floats`` refuses a non-finite input.
The buffer add-on is 0 at or below ``gap_low`` percentage points,
``buffer_max`` at or above ``gap_high``, and linear in between.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import ColumnAbsentError, EstimationError, InvariantError
from .series import CreditSeries, Quarter, floats, number, typed, validated

_CORRECTION_BOUND = 1e-5


@validated
class GapConfig(NamedTuple):
    lam: float = 400_000.0
    gap_low: float = 2.0
    gap_high: float = 10.0
    buffer_max: float = 0.025

    def _checked(self):
        for name in ("lam", "gap_low", "gap_high", "buffer_max"):
            number(name, getattr(self, name))
        if self.lam < 0.0:
            raise InvariantError(f"smoothing parameter must be >= 0, got {self.lam}")
        if not self.gap_low < self.gap_high:
            raise InvariantError(
                f"gap_low {self.gap_low} must be below gap_high {self.gap_high}"
            )
        if not self.buffer_max > 0.0:
            raise InvariantError(f"buffer_max must be positive, got {self.buffer_max}")
        return self


class GapRow(NamedTuple):
    quarter: Quarter
    credit_to_gdp: float  # percent
    trend: float  # percent
    gap: float  # percentage points, credit_to_gdp - trend
    buffer_add_on: float  # fraction in [0, buffer_max]


class GapReport(NamedTuple):
    rows: tuple[GapRow, ...]
    config: GapConfig


def _second_difference(v: list[float]) -> list[float]:
    """D v, each entry correctly rounded: for a smooth series the plain expression
    cancels almost completely, so its rounding error (eps * |v|) could dwarf it."""
    return [math.fsum((a, -2.0 * mid, c)) for a, mid, c in zip(v, v[1:], v[2:])]


def _ldl_factor(diag: float, m: int):
    """L D L' factor of the m-square Toeplitz pentadiagonal matrix with bands (diag, -4, 1).

    Returns the pivots d and the two sub-diagonals of the unit lower
    triangular L, led by one and two zeros: l1[i] = L[i, i-1] and
    l2[i] = L[i, i-2], so both line up with row i of a forward sweep.
    """
    d: list[float] = []
    l1, l2 = [0.0], [0.0, 0.0]
    d_1 = d_2 = 0.0  # pivots of rows i-1 and i-2
    m1 = m2 = m2_next = 0.0  # L[i, i-1], L[i, i-2] and L[i+1, i-1]
    for b, c in zip([-4.0] * (m - 1) + [0.0], [1.0] * (m - 2) + [0.0, 0.0]):
        pivot = diag - m1 * m1 * d_1 - m2 * m2 * d_2
        if not pivot > 0.0:
            raise EstimationError(
                f"HP dual equations lost positive definiteness at row {len(d)} "
                f"(pivot {pivot!r}); the smoothing parameter is too large for this series"
            )
        m1 = (b - m2_next * m1 * d_1) / pivot
        m2, m2_next = m2_next, c / pivot
        d.append(pivot)
        l1.append(m1)
        l2.append(m2_next)
        d_2, d_1 = d_1, pivot
    return d, l1, l2


def _ldl_solve(factor, r: list[float]) -> list[float]:
    """Solve L D L' x = r for a factor returned by ``_ldl_factor``."""
    d, l1, l2 = factor
    z = []
    z_1 = z_2 = 0.0
    for ri, a, b in zip(r, l1, l2):
        z_2, z_1 = z_1, ri - a * z_1 - b * z_2
        z.append(z_1)
    # reversed, the padded sub-diagonals yield L[i+1, i] and L[i+2, i] for row i
    x = []
    x_1 = x_2 = 0.0
    for zi, di, a, b in zip(reversed(z), reversed(d), reversed(l1), reversed(l2)):
        x_2, x_1 = x_1, zi / di - a * x_1 - b * x_2
        x.append(x_1)
    return x[::-1]


def hp_filter(y: Sequence[float], lam: float) -> list[float]:
    """Trend component of y for smoothing parameter lam (lam = 0 returns y)."""
    ys = floats(y, "need a one-dimensional series of length >= 3")
    n = len(ys)
    if n < 3:
        raise EstimationError(f"need a one-dimensional series of length >= 3, got {(n,)}")
    number("lam", lam)
    if lam < 0.0:
        raise EstimationError(f"smoothing parameter must be >= 0, got {lam}")
    if lam == 0.0 or 1.0 / lam == math.inf:  # the trend rounds to y
        return ys
    # the trend is linear in y, so solving for y scaled by a power of two is
    # exact and keeps the residual arithmetic clear of overflow for any input
    shift = math.frexp(max(abs(v) for v in ys))[1]
    ys = [math.ldexp(v, -shift) for v in ys]
    factor = _ldl_factor(6.0 + 1.0 / lam, n - 2)
    u = _ldl_solve(factor, _second_difference(ys))
    pad = [0.0, 0.0, *u, 0.0, 0.0]  # pad[i + 2] = u[i], zero past either end
    # v / lam = q + r / lam, where r = v - q lam sums the exact products of the halves
    # of q and lam (Veltkamp's split by 2^27 + 1; lam's by its significand, not to overflow)
    significand, exponent = math.frexp(lam)
    k = 134217729.0 * significand
    lam_hi = math.ldexp(k - (k - significand), exponent)
    lam_lo = lam - lam_hi
    resid = []
    for a, b, c, u_2, u_1, v, v1, v2 in zip(ys, ys[1:], ys[2:], pad, pad[1:], u, pad[3:], pad[4:]):
        q = v / lam
        k = 134217729.0 * q
        q_hi = k - (k - q)
        r = math.fsum((v, -q_hi * lam_hi, -q_hi * lam_lo, (q_hi - q) * lam_hi, (q_hi - q) * lam_lo))
        # D y - D D' u - u / lam, with 6 u = 4 u + 2 u exact
        resid.append(math.fsum((a, -2.0 * b, c, -u_2, 4.0 * u_1, -4.0 * v, -2.0 * v,
                                4.0 * v1, -v2, -q, -r / lam)))
    fix = [0.0, 0.0, *_ldl_solve(factor, resid), 0.0, 0.0]
    # D' fix, the refinement's change to the trend: (D' v)[k] = v[k] - 2 v[k-1] + v[k-2]
    change = [a - 2.0 * b + c for a, b, c in zip(fix[2:], fix[1:], fix)]
    # weighed against max |ys| in [1/2, 1): the trend itself is near 0 for some series
    if max(map(abs, change)) > _CORRECTION_BOUND:
        raise EstimationError("HP trend is not accurate to working precision; "
                              "the smoothing parameter is too large for this series")
    trend = [math.fsum((v, -a, 2.0 * b, -c, -d))
             for v, a, b, c, d in zip(ys, pad[2:], pad[1:], pad, change)]
    try:
        return [math.ldexp(v, shift) for v in trend]
    except OverflowError:  # the trend overshoots a series near the float limit
        raise EstimationError("HP trend leaves the float range") from None


def buffer_add_on(gap: float, cfg: GapConfig = GapConfig()) -> float:
    """Countercyclical add-on for a gap in percentage points."""
    number("gap", gap)
    typed("cfg", cfg, GapConfig)
    return _add_on(gap, cfg)


def _add_on(gap: float, cfg: GapConfig) -> float:
    # credit_gap's gaps are differences of floats, so its rows skip buffer_add_on's check
    if gap <= cfg.gap_low:
        return 0.0
    if gap >= cfg.gap_high:
        return cfg.buffer_max
    return cfg.buffer_max * (gap - cfg.gap_low) / (cfg.gap_high - cfg.gap_low)


def credit_gap(series: CreditSeries, cfg: GapConfig = GapConfig()) -> GapReport:
    """Credit-to-GDP ratio, its trend, the gap, and the buffer per quarter.

    The ratio uses annualized GDP (4 times the quarterly figure) and is
    expressed in percent, computed as 25 * tcu / gdp so that no GDP overflows
    on the way. Every quarter must carry a GDP value.
    """
    typed("series", series, CreditSeries)
    typed("cfg", cfg, GapConfig)
    missing = [o.quarter for o in series.observations if o.gdp is None]
    if missing:
        raise ColumnAbsentError(f"gdp column absent at {missing[0]}")
    ratio = [25.0 * o.tcu / o.gdp for o in series.observations]
    trend = hp_filter(ratio, cfg.lam)
    rows = []
    for o, r, t in zip(series.observations, ratio, trend):
        gap = r - t
        rows.append(GapRow(o.quarter, r, t, gap, _add_on(gap, cfg)))
    return GapReport(tuple(rows), cfg)

