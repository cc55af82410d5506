"""Hodrick-Prescott trend of the credit-to-GDP ratio and the buffer mapping.

The trend tau minimizes

    sum (y_t - tau_t)^2 + lam * sum (tau_{t+1} - 2 tau_t + tau_{t-1})^2,

solved through the symmetric pentadiagonal normal equations
(I + lam * D'D) tau = y. The matrix is factored once per call as L D L'
(L unit lower triangular with two sub-diagonals, D the positive pivots),
and the same factor solves for the first trend and for every correction of
the iterative refinement that follows. The normal-equation residual is
evaluated with each second difference correctly rounded, and refinement
continues past the 1e-8 relative tolerance for as long as that residual
still falls; the iterate with the smallest residual is returned. For
extreme lam, where the tolerance is not representable in double
precision, an iterate at the machine floor is accepted instead. As that
floor grows with lam, a trend must also hold each linear moment of y - tau,
sum(k^j (y_k - tau_k)) for j = 0, 1, within 1% of sum(k^j |y_k|); the
exact trend zeroes both for every lam. A non-positive pivot, a residual
that reaches neither bound, or a lost moment raises EstimationError, and
``series.floats`` refuses a non-finite input.
The buffer add-on is 0 at or below ``gap_low`` percentage points,
``buffer_max`` at or above ``gap_high``, and linear in between.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import NamedTuple, Sequence

from .errors import ColumnAbsentError, EstimationError, InvariantError
from .series import CreditSeries, Quarter, floats, number, validated

_RESID_TOL = 1e-8
_MAX_REFINEMENTS = 12
# up to lam 1e12 the largest moment ratio seen was 2e-3 (one spike); wrong trends reach 1
_MOMENT_TOL = 1e-2


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


def _penalty_apply(v: list[float]) -> list[float]:
    """D'D v for the (n-2) x n second-difference matrix D.

    Each entry of D v is one correctly rounded sum: for a smooth trend the
    plain expression cancels almost completely, so its rounding error
    (eps * |v|) can dwarf the true value, and after scaling by a large
    smoothing parameter that noise would make the normal-equation residual
    unmeasurable.
    """
    # hp_filter scales every value below 1 first, so no term or sum overflows
    z = [math.fsum((a, -2.0 * mid, c)) for a, mid, c in zip(v[2:], v[1:-1], v)]
    pad = [0.0, 0.0]
    # row i collects z[i] - 2 z[i-1] + z[i-2], the terms past either end zero
    return [a - 2.0 * b + c for a, b, c in zip(z + pad, [0.0] + z + [0.0], pad + z)]


def _ldl_factor(diag: list[float], super1: list[float], super2: list[float]):
    """L D L' factor of the symmetric pentadiagonal matrix with the given bands.

    Returns the pivots d and the two sub-diagonals of the unit lower
    triangular L, led by one and two zeros: l1[i] = L[i, i-1] and
    l2[i] = L[i, i-2], so both line up with row i of a forward sweep.
    """
    d: list[float] = []
    l1, l2 = [0.0], [0.0, 0.0]
    d_1 = d_2 = 0.0  # pivots of rows i-1 and i-2
    m1 = m2 = m2_next = 0.0  # L[i, i-1], L[i, i-2] and L[i+1, i-1]
    for a, b, c in zip(diag, super1 + [0.0], super2 + [0.0, 0.0]):
        pivot = a - m1 * m1 * d_1 - m2 * m2 * d_2
        if not pivot > 0.0:
            raise EstimationError(
                f"HP normal equations lost positive definiteness at row {len(d)} "
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
    if lam == 0.0:
        return ys
    # the trend is linear in y, so solving for y scaled by a power of two is
    # exact and keeps the residual arithmetic clear of overflow for any input
    shift = math.frexp(max(abs(v) for v in ys))[1]
    ys = [math.ldexp(v, -shift) for v in ys]

    # bands of the SPD matrix I + lam * D'D, D the (n-2) x n second difference
    dtd_diag = [1.0, 5.0] + [6.0] * (n - 4) + [5.0, 1.0] if n > 3 else [1.0, 4.0, 1.0]
    dtd_super1 = [-2.0] + [-4.0] * (n - 3) + [-2.0]
    factor = _ldl_factor(
        [1.0 + lam * v for v in dtd_diag],
        [lam * v for v in dtd_super1],
        [lam] * (n - 2),
    )
    scale = math.hypot(*ys)
    target = _RESID_TOL * scale
    trend = _ldl_solve(factor, ys)
    best = trend
    best_norm = math.inf
    for _ in range(_MAX_REFINEMENTS):
        resid = [(v - t) - lam * p for v, t, p in zip(ys, trend, _penalty_apply(trend))]
        norm = math.hypot(*resid)
        if norm < best_norm:
            best, best_norm = trend, norm
        elif best_norm <= target:
            # past the tolerance, refine only while the residual still falls
            break
        trend = [t + c for t, c in zip(trend, _ldl_solve(factor, resid))]
    # representational floor: perturbing the trend by one ulp per component
    # already moves the residual by ~eps * (||y|| + 16 lam ||trend||), so no
    # double-precision vector can meet the strict tolerance past this point
    eps = sys.float_info.epsilon
    floor = 8.0 * eps * (scale + 16.0 * lam * math.hypot(*best))
    if not (math.isfinite(best_norm) and best_norm <= max(target, floor)):
        raise EstimationError("HP normal-equation residual did not converge")
    # D maps every linear sequence to zero, so the exact trend keeps both
    # linear moments of y for any lam, while the floor can exceed ||y|| itself
    lost, ks = list(map(operator.sub, ys, best)), range(1, n + 1)
    if (abs(math.fsum(lost)) > _MOMENT_TOL * sum(map(abs, ys))
            or abs(math.fsum(map(operator.mul, ks, lost)))
            > _MOMENT_TOL * sum(map(operator.mul, ks, map(abs, ys)))):
        raise EstimationError("HP trend lost a linear moment of the series; "
                              "the smoothing parameter is too large for this series")
    try:
        return [math.ldexp(v, shift) for v in best]
    except OverflowError:  # the trend overshoots a series near the float limit
        raise EstimationError("HP trend leaves the float range") from None


def buffer_add_on(gap: float, cfg: GapConfig = GapConfig()) -> float:
    """Countercyclical add-on for a gap in percentage points."""
    number("gap", gap)
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

