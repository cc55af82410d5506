"""Independent oracles used by the test suite.

These deliberately avoid the closed forms used by the package: the OLS
oracle locates the minimum purely by comparing objective values on a
shrinking grid, the exact OLS oracle forms the uncentred moments in rational
arithmetic, the zeta oracle scans the residual objective on a fixed
grid, the root oracles use bisection only (one of them on log s, with
every term held in logs), the chi-squared tail oracle integrates the
density numerically, the exact HP oracle eliminates the dense normal
equations in rational arithmetic, the decimal HP oracle factors their
bands in 50-digit decimal arithmetic, the JSON oracle rounds a copy of the
document before handing it to ``json.dumps``, the window oracle
compares each quarter with the window's bounds instead of using indices,
the mean and standard error are the textbook formula on unscaled values,
and the HP second difference is the two-sum cascade the filter once used.
"""

from __future__ import annotations

import itertools
import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy import integrate, special

from steadycredit.series import Quarter


def ols_grid_oracle(x, y, rounds: int = 55, half: int = 4) -> tuple[float, float]:
    """Minimize sum (y - a - b x)^2 by comparison-based 2-D grid refinement.

    The model is searched as y ~ alpha + b (x - xc) for a fixed centering
    constant xc, which makes the objective separable so the grid argmin is
    the node nearest the true minimizer. Candidates are ranked through the
    exactly expanded difference

        f(q) - f(p) = sum (e_q - e_p)(e_q + e_p),
        e_q - e_p   = (a_p - a_q) + (b_p - b_q)(x - xc),

    whose evaluation stays resolvable far below the plain objective's
    rounding floor, so the refinement reaches ~1e-15 coefficient accuracy.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = float(np.mean(x))
    xs = x - xc
    sxx = float(xs @ xs)
    ym = y - np.mean(y)
    syy = float(ym @ ym)
    b_bound = 1.0 + (math.sqrt(syy / sxx) if sxx > 0.0 else 0.0)
    a_bound = 1.0 + float(np.max(np.abs(y)))
    a0, b0 = 0.0, 0.0
    span_a, span_b = 2.0 * a_bound, 2.0 * b_bound
    grid = np.arange(-half, half + 1, dtype=float) / half
    for _ in range(rounds):
        cand_a = np.repeat(a0 + grid * span_a, grid.size)
        cand_b = np.tile(b0 + grid * span_b, grid.size)
        e_p = y - a0 - b0 * xs
        diff = (a0 - cand_a)[:, None] + (b0 - cand_b)[:, None] * xs[None, :]
        e_q = y[None, :] - cand_a[:, None] - cand_b[:, None] * xs[None, :]
        delta = np.sum(diff * (e_q + e_p[None, :]), axis=1)
        k = int(np.argmin(delta))
        if delta[k] < 0.0:
            a0, b0 = float(cand_a[k]), float(cand_b[k])
        span_a *= 0.5
        span_b *= 0.5
    return a0 - b0 * xc, b0


def exact_ols_oracle(x, y) -> tuple[Fraction, Fraction, Fraction | None]:
    """(intercept, slope, x_intercept) of the float inputs, exactly, in ``Fraction``.

    The slope is the uncentred moment ratio (n Sxy - Sx Sy) / (n Sxx - Sx^2), so
    no rounded centred value enters; x_intercept is None for a zero slope.
    """
    xs = [Fraction(float(v)) for v in x]
    ys = [Fraction(float(v)) for v in y]
    n, sx, sy = len(xs), sum(xs), sum(ys)
    slope = ((n * sum(a * b for a, b in zip(xs, ys)) - sx * sy)
             / (n * sum(a * a for a in xs) - sx * sx))
    intercept = (sy - slope * sx) / n
    return intercept, slope, (-intercept / slope if slope else None)


def zeta_grid_oracle(d, f, lo: float = -0.1, hi: float = 0.1,
                     coarse: float = 1e-4, fine: float = 1e-6) -> float:
    """Grid argmin of sum (f - (d + zeta)/(1 - d))^2, final step ``fine``."""
    d = np.asarray(d, dtype=float)
    f = np.asarray(f, dtype=float)

    def sse(zetas: np.ndarray) -> np.ndarray:
        resid = f[None, :] - (d[None, :] + zetas[:, None]) / (1.0 - d[None, :])
        return np.sum(resid * resid, axis=1)

    grid = np.arange(lo, hi + coarse / 2, coarse)
    center = float(grid[np.argmin(sse(grid))])
    grid = np.arange(center - 2 * coarse, center + 2 * coarse + fine / 2, fine)
    return float(grid[np.argmin(sse(grid))])


def bisection_only_root(func, lo: float, hi: float, width: float = 1e-12) -> float:
    """Plain bisection; requires a sign change over [lo, hi]."""
    f_lo, f_hi = func(lo), func(hi)
    assert f_lo < 0.0 <= f_hi or f_hi <= 0.0 < f_lo, "no sign change in bracket"
    increasing = f_lo < 0.0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if (func(mid) < 0.0) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def log_space_irr_root(factors, log_lo: float = -2000.0, log_hi: float = 2000.0) -> float:
    """Root s of sum_k A_k s^k = n, A_k = a_1 ... a_k, by bisection on log s.

    Every term is held as its logarithm log A_k + k log s and the sum as a
    log-sum-exp, so no product under- or overflows however deep it runs.
    Bisection continues until the midpoint no longer moves.
    """
    log_stock = list(itertools.accumulate(math.log(a) for a in factors))
    log_n = math.log(len(log_stock))

    def excess(log_s: float) -> float:
        logs = [ls + k * log_s for k, ls in enumerate(log_stock, 1)]
        top = max(logs)
        return top + math.log(math.fsum(math.exp(v - top) for v in logs)) - log_n

    assert excess(log_lo) < 0.0 < excess(log_hi), "no sign change in bracket"
    while True:
        mid = 0.5 * (log_lo + log_hi)
        if mid in (log_lo, log_hi):
            return math.exp(mid)
        if excess(mid) < 0.0:
            log_lo = mid
        else:
            log_hi = mid


def chi2_tail_by_quadrature(chi2: float, dof: int) -> float:
    """Upper tail of the chi-squared density by adaptive quadrature."""
    half = dof / 2.0
    norm = 1.0 / (2.0 ** half * special.gamma(half))

    def pdf(x: float) -> float:
        return norm * x ** (half - 1.0) * math.exp(-x / 2.0)

    value, _ = integrate.quad(pdf, chi2, np.inf, limit=200)
    return value


def dense_hp_oracle(y, lam: float) -> np.ndarray:
    """HP normal equations assembled densely and solved by LU.

    Accurate while lam stays moderate (conditioning grows with lam).
    """
    ya = np.asarray(y, dtype=float)
    n = ya.size
    d_mat = np.zeros((n - 2, n))
    for j in range(n - 2):
        d_mat[j, j], d_mat[j, j + 1], d_mat[j, j + 2] = 1.0, -2.0, 1.0
    return np.linalg.solve(np.eye(n) + lam * (d_mat.T @ d_mat), ya)


def exact_hp_oracle(y, lam: float) -> list[Fraction]:
    """HP trend of the float inputs y, solved exactly in rational arithmetic.

    The dense normal equations (I + lam D'D) tau = y are reduced by plain
    Gaussian elimination over ``Fraction``, so the result carries no
    rounding error at all. Cost grows as n^3 with large numerators; keep n
    small (a few dozen).
    """
    ys = [Fraction(float(v)) for v in y]
    lam_q = Fraction(float(lam))
    n = len(ys)
    rows = [[Fraction(int(i == j)) for j in range(n)] + [ys[i]] for i in range(n)]
    for k in range(n - 2):
        for i, ci in ((k, 1), (k + 1, -2), (k + 2, 1)):
            for j, cj in ((k, 1), (k + 1, -2), (k + 2, 1)):
                rows[i][j] += lam_q * ci * cj
    for col in range(n):
        pivot = rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / pivot
            if factor:
                for j in range(col, n + 1):
                    rows[r][j] -= factor * rows[col][j]
    tau = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = rows[i][n] - sum(rows[i][j] * tau[j] for j in range(i + 1, n))
        tau[i] = acc / rows[i][i]
    return tau


def decimal_hp_oracle(y, lam: float, digits: int = 50) -> list[Decimal]:
    """HP trend of the float inputs y from the normal equations (I + lam D'D) tau = y,
    factored as a banded L D L' in ``digits``-digit decimal arithmetic.

    The cost is linear in n, so unlike ``exact_hp_oracle`` it serves long
    series; it stays far beyond double precision while the condition number
    (about 16 lam) is below 10^(digits - 20).
    """
    n = len(y)
    with localcontext() as ctx:
        ctx.prec = digits
        lam_d = Decimal(float(lam))
        band = {(i, j): Decimal(int(i == j)) for i in range(n) for j in range(i, min(i + 3, n))}
        for k in range(n - 2):
            for i, ci in ((k, 1), (k + 1, -2), (k + 2, 1)):
                for j, cj in ((k, 1), (k + 1, -2), (k + 2, 1)):
                    if i <= j:
                        band[i, j] += lam_d * ci * cj
        pivots, low = [], {}  # low[i, j] = L[i, j] for j = i - 2, i - 1
        for i in range(n):
            near = range(max(i - 2, 0), i)
            for j in near:
                low[i, j] = (band[j, i] - sum(low[i, k] * low[j, k] * pivots[k]
                                              for k in near if k < j)) / pivots[j]
            pivots.append(band[i, i] - sum(low[i, j] ** 2 * pivots[j] for j in near))
        z = []
        for i in range(n):
            z.append(Decimal(float(y[i])) - sum(low[i, j] * z[j] for j in range(max(i - 2, 0), i)))
        tau = [Decimal(0)] * n
        for i in range(n - 1, -1, -1):
            tau[i] = z[i] / pivots[i] - sum(low[j, i] * tau[j] for j in range(i + 1, min(i + 3, n)))
        return tau


def round_sig(value: float, digits: int) -> float:
    """``value`` rounded to ``digits`` significant digits."""
    return float(f"{value:.{digits}g}")


def rounded_json_dumps(doc, digits: int) -> str:
    """Round every float of a copy of ``doc``, then ``json.dumps`` it indented.

    A quarter becomes its text and any other named tuple a dict of its
    fields. Raises ``ValueError`` on a float that is non-finite after rounding.
    """
    def rounded(obj):
        if isinstance(obj, float):
            return round_sig(obj, digits)
        if isinstance(obj, Quarter):
            return str(obj)
        if isinstance(obj, tuple) and hasattr(type(obj), "_fields"):
            return {field: rounded(v) for field, v in zip(obj._fields, obj)}
        if isinstance(obj, dict):
            return {k: rounded(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [rounded(v) for v in obj]
        return obj

    return json.dumps(rounded(doc), indent=2, allow_nan=False) + "\n"


def window_filter_oracle(window, quarters) -> list[bool]:
    """For each quarter, whether it lies inside ``window``, compared with
    each bound in turn."""
    start, end, start_inclusive, end_inclusive = window
    return [(q >= start if start_inclusive else q > start)
            and (q <= end if end_inclusive else q < end)
            for q in quarters]


def unscaled_mean_se(values) -> tuple[float | None, float | None]:
    """Mean and standard error (sample sd over sqrt(n)) of the raw values,
    each deviation squared as it is."""
    if not values:
        return None, None
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, None
    var = math.fsum((v - mean) * (v - mean) for v in values) / (n - 1)
    return mean, math.sqrt(var) / math.sqrt(n)


def two_pass_cycle_labels(y, quarters=None) -> tuple[list[tuple], list[str]]:
    """Extrema (as plain tuples) and phase labels, made the two-pass way.

    One pass builds each interior point's (kind, label) with the second
    difference formed unhalved, right - 2 mid + left; a second reads the
    extrema out of that list, with amplitudes from the unscaled mean, and
    a third its labels. Where no value overflows, ``cycle_stats`` must
    agree exactly.
    """
    ys = [float(v) for v in y]
    classes = []
    for t in range(1, len(ys) - 1):
        left, mid, right = ys[t - 1], ys[t], ys[t + 1]
        if mid - left == 0.0 or mid - right == 0.0:
            classes.append(("steady", "steady"))
        elif mid > left and mid > right:
            classes.append(("maximum", "max"))
        elif mid < left and mid < right:
            classes.append(("minimum", "min"))
        else:
            d1 = right - left
            d2 = right - 2.0 * mid + left
            if d2 == 0.0 or d1 == 0.0:
                label = "steady"
            elif d1 > 0.0:
                label = "P1" if d2 > 0.0 else "P2"
            else:
                label = "P3" if d2 < 0.0 else "P4"
            classes.append((None, label))
    mean, _ = unscaled_mean_se(ys)
    extrema = [
        (t, quarters[t] if quarters is not None else None, kind, ys[t], abs(ys[t] - mean))
        for t, (kind, _) in enumerate(classes, 1)
        if kind is not None
    ]
    return extrema, [label for _, label in classes]


def two_sum_second_difference(v) -> list[float]:
    """v[2:] - 2 v[1:-1] + v[:-2] by two chained two-sum transformations.

    The HP filter formed its normal-equation residual with this cascade
    before each entry became one ``math.fsum``. Its final rounding of the
    two error terms is not exact, so a few entries differ from the
    correctly rounded sum by one ulp; the trend the filter returns must not.
    """
    out = []
    for a, mid, c in zip(v[2:], v[1:-1], v):
        b = -2.0 * mid
        s1 = a + c
        t1 = s1 - a
        e1 = (a - (s1 - t1)) + (c - t1)
        s2 = s1 + b
        t2 = s2 - s1
        e2 = (s1 - (s2 - t2)) + (b - t2)
        out.append(s2 + (e1 + e2))
    return out
