"""Exactness ledger over the 378 windows of >= 8 quarters of the canonical series.

Each count is how often the package's float equals the correctly rounded
value of an exact rational formula on the same float inputs. A count is
pinned as a floor: a change that raises it raises the pin, and one that
lowers it fails.
"""

import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from _oracles import exact_hp_oracle, exact_ols_oracle
from conftest import canonical_series
from steadycredit.basel import GapConfig, credit_gap
from steadycredit.report import analyze
from steadycredit.series import Window

# of the 6,300 trend values, every one
TREND_CORRECTLY_ROUNDED = 6300

# of the 378 windows, per field of a rational formula
RATIONAL_CORRECTLY_ROUNDED = {
    "ols.slope": 246,
    "ols.intercept": 39,
    "ols.x_intercept": 49,
    "ssp_ls.zeta": 218,
    "cycles.series_mean": 259,
}


def windows(series) -> list[Window]:
    """Every inclusive window of at least 8 quarters of the series."""
    quarters = series.quarters()
    return [Window(start, end) for i, start in enumerate(quarters) for end in quarters[i + 7:]]


@functools.cache
def rational_fields_with_exact_values() -> dict[str, list[tuple[float, Fraction]]]:
    """(package float, exact value) per window for each rational field."""
    series = canonical_series()
    pairs = {field: [] for field in RATIONAL_CORRECTLY_ROUNDED}
    for window in windows(series):
        report = analyze(series, window)
        intercept, slope, x_intercept = exact_ols_oracle(report.rates_in.d_values(),
                                                         report.rates_in.f_values())
        d = [Fraction(v) for v in report.rates_in.d_values()]
        f = [Fraction(v) for v in report.rates_in.f_values()]
        # least-squares zeta: sum w (f (1 - d) - d) / sum w, with w = 1 / (1 - d)^2
        w = [1 / (1 - di) ** 2 for di in d]
        zeta = sum(wi * (fi * (1 - di) - di) for wi, di, fi in zip(w, d, f)) / sum(w)
        tcu = [Fraction(v) for v in series.slice(window).tcu_values()]
        for field, got, exact in [
            ("ols.slope", report.ols_fit.slope, slope),
            ("ols.intercept", report.ols_fit.intercept, intercept),
            ("ols.x_intercept", report.ols_fit.x_intercept, x_intercept),
            ("ssp_ls.zeta", report.ssp_ls.zeta, zeta),
            ("cycles.series_mean", report.cycles.series_mean, sum(tcu) / len(tcu)),
        ]:
            pairs[field].append((got, exact))
    return pairs


@functools.cache
def gap_rows_with_exact_trend():
    """(row, exact trend) for every quarter of every window, at the default lam."""
    series = canonical_series()
    pairs = []
    for window in windows(series):
        rows = credit_gap(series.slice(window)).rows
        exact = exact_hp_oracle([row.credit_to_gdp for row in rows], GapConfig().lam)
        pairs.extend(zip(rows, exact))
    return pairs


def rounded(value, digits: int) -> float:
    """A float or a Fraction rounded to ``digits`` significant digits."""
    if isinstance(value, Fraction):
        with localcontext() as ctx:
            ctx.prec = 40
            value = Decimal(value.numerator) / Decimal(value.denominator)
    return float(format(value, f".{digits}g"))


def test_every_trend_is_within_one_ulp_of_the_exact_trend():
    pairs = gap_rows_with_exact_trend()
    assert len(pairs) == 6300
    assert all(abs(Fraction(row.trend) - tau) <= Fraction(math.ulp(float(tau)))
               for row, tau in pairs)
    assert sum(row.trend == float(tau) for row, tau in pairs) >= TREND_CORRECTLY_ROUNDED


def test_every_default_precision_gap_and_trend_text_is_the_exact_values():
    for row, tau in gap_rows_with_exact_trend():
        assert rounded(row.trend, 6) == rounded(tau, 6)
        assert rounded(row.gap, 6) == rounded(Fraction(row.credit_to_gdp) - tau, 6)


@pytest.mark.parametrize("field", RATIONAL_CORRECTLY_ROUNDED)
def test_rational_field_is_correctly_rounded_at_least_as_often_as_pinned(field):
    pairs = rational_fields_with_exact_values()[field]
    assert len(pairs) == 378
    correct = sum(exact is not None and got == float(exact) for got, exact in pairs)
    assert correct >= RATIONAL_CORRECTLY_ROUNDED[field]
