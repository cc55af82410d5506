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

from _oracles import exact_hp_oracle
from conftest import canonical_series
from steadycredit.basel import GapConfig, credit_gap
from steadycredit.series import Window

# of the 6,300 trend values, every one
TREND_CORRECTLY_ROUNDED = 6300


@functools.cache
def gap_rows_with_exact_trend():
    """(row, exact trend) for every quarter of every window, at the default lam."""
    series = canonical_series()
    quarters = series.quarters()
    pairs = []
    for i, start in enumerate(quarters):
        for end in quarters[i + 7:]:
            rows = credit_gap(series.slice(Window(start, end))).rows
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
